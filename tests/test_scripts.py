import hashlib
import runpy
import sys
from pathlib import Path

import pytest

from mono3d.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_make_synthetic_kitti_output_validates_and_evaluates(tmp_path, monkeypatch):
    root = tmp_path / "corpus"
    monkeypatch.setattr(sys, "argv", ["make_synthetic_kitti.py", "--frames", "3",
                                      "--out", str(root)])
    runpy.run_path(str(SCRIPTS / "make_synthetic_kitti.py"), run_name="__main__")
    assert sorted(p.name for p in root.iterdir()) == ["calib", "label_2", "pred",
                                                      "split.txt"]
    assert (root / "split.txt").read_text().split() == ["000000", "000001", "000002"]
    dirs = ["--gt-dir", str(root / "label_2"), "--calib-dir", str(root / "calib"),
            "--split", str(root / "split.txt")]
    assert main(["validate", *dirs]) == 0
    assert main(["eval", *dirs, "--pred-dir", str(root / "pred"),
                 "--out", str(tmp_path / "report.json")]) == 0
    assert (tmp_path / "report.json").exists()


# sha256 of eval's JSON, _pr.csv and _depth_bins.csv on
# `make_synthetic_kitti.py --frames 60 --seed 0`, taken from the scalar
# per-pair clip. The batched clip moves IoUs in their last bits only and
# must reproduce every output byte.
GOLDEN_EVAL = {
    "11": ("8ec3dc5e016482d95eb9cd578feafda1b05f1501ee2114979d1966e7577b6c85",
           "8b647da5afac3d67e9013a8522e55ab832e0fbec9b6d038a1d083b47cdc1a194",
           "8ee511e1700d7312a0a1137c090ffbaba38334749e803e4238c35b54ba79408e"),
    "40": ("2f44aa0000b1792a6a82974e5312f5c82e07fb96a717989119e7bdba4041eccb",
           "8b647da5afac3d67e9013a8522e55ab832e0fbec9b6d038a1d083b47cdc1a194",
           "8ee511e1700d7312a0a1137c090ffbaba38334749e803e4238c35b54ba79408e"),
}


@pytest.fixture(scope="module")
def corpus_60(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden") / "corpus"
    argv = sys.argv
    sys.argv = ["make_synthetic_kitti.py", "--frames", "60", "--seed", "0", "--out", str(root)]
    try:
        runpy.run_path(str(SCRIPTS / "make_synthetic_kitti.py"), run_name="__main__")
    finally:
        sys.argv = argv
    return root


@pytest.mark.parametrize("ap_mode", ["11", "40"])
def test_eval_outputs_match_golden_digests(corpus_60, tmp_path, ap_mode):
    out = tmp_path / "report.json"
    assert main(["eval", "--gt-dir", str(corpus_60 / "label_2"),
                 "--pred-dir", str(corpus_60 / "pred"),
                 "--calib-dir", str(corpus_60 / "calib"),
                 "--split", str(corpus_60 / "split.txt"), "--out", str(out),
                 "--ap-mode", ap_mode]) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (out, tmp_path / "report_pr.csv",
                                 tmp_path / "report_depth_bins.csv"))
    assert digests == GOLDEN_EVAL[ap_mode]
