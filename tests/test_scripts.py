import hashlib
import runpy
import shutil
import sys
from pathlib import Path

import pytest

from mono3d.cli import main
from conftest import records
from mono3d.kitti_io import format_label_line, parse_label_file

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

# The same digests with `--thresholds 0.1 0.25 0.5 0.7`, taken from the
# per-box footprints that the stacked ones replaced.
WIDE_THRESHOLDS = ["0.1", "0.25", "0.5", "0.7"]
GOLDEN_EVAL_WIDE = {
    "11": ("76acd7dfca359149bf8e4ae3206ace89577e0b712a8d15b2c84b6d5f1cf9d391",
           "eea74ce21bd0b38b43dd8ddde0a4e914c11189bc7de0cf221f4c2f1baa3ab541",
           "f3b3e62ae5dac45220ddf6d14a5b3b13bfb0b82e00960689ce1ce2498e147f6f"),
    "40": ("6fc373f9b3c027f5721379de20e0cdb2a0f5501f83a836b58d219d545eba6bbf",
           "eea74ce21bd0b38b43dd8ddde0a4e914c11189bc7de0cf221f4c2f1baa3ab541",
           "f3b3e62ae5dac45220ddf6d14a5b3b13bfb0b82e00960689ce1ce2498e147f6f"),
}

# The same digests at the default thresholds with every ground truth's
# occlusion rewritten to 2, so the easy and moderate tiers are empty and
# their AP entries are null; the bytes pin where those entries sit.
GOLDEN_EVAL_HARD_ONLY = {
    "11": ("08539ca2fb4d29373af3bed117ecd759ef54f3eb6dfe36050c198d9dc72e802f",
           "b60c2702d9ab119f3309b0f8c3a32f769e06317184d4d8229b5a7ba66b442f07",
           "8ee511e1700d7312a0a1137c090ffbaba38334749e803e4238c35b54ba79408e"),
    "40": ("369be4d0b154200bd16bb4c4595634210e461cfb9654edfd762673370e72d76f",
           "b60c2702d9ab119f3309b0f8c3a32f769e06317184d4d8229b5a7ba66b442f07",
           "8ee511e1700d7312a0a1137c090ffbaba38334749e803e4238c35b54ba79408e"),
}


# sha256 of the other commands' JSON, taken from the writer that rounded a
# copy of the payload and ran json's indent=2 encoder over it. The
# 10-pair iou-oracle case, taken from the sampler that drew 65,536 rows
# at a time, includes pairs with a slab of a wholly outside b (its 4th,
# 5th, 7th and 8th), which score 0 hits.
GOLDEN_JSON = {
    "train-toy": ("30e5ed28c8bbc950c3fb6d95699ca27ab768f47a074e87f0868db0440bbed985",
                  ["train-toy", "--n-seeds", "2", "--epochs", "300"]),
    "iou-oracle": ("3984aa1a47c6b494feb80b30201bea8e0930711ce49b8341cfc31fe2b548d63b",
                   ["iou-oracle", "--n-pairs", "3", "--n-samples", "10000"]),
    "iou-oracle-10-pairs": ("461dd165635751285b3776ab93d4ca62f9aa3051fb8a7ad0665deb4cb499b958",
                            ["iou-oracle", "--n-pairs", "10", "--n-samples", "20000"]),
}
GOLDEN_VALIDATE_60 = "fb37646e9e7dde6ef5db7e4ab1bd49aa77de1b6a524a21cb9c56678214cb881a"


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


@pytest.fixture(scope="module")
def corpus_60_hard_only(corpus_60, tmp_path_factory):
    root = tmp_path_factory.mktemp("hard_only") / "corpus"
    shutil.copytree(corpus_60, root)
    for path in (root / "label_2").iterdir():
        lines = [line.split(" ") for line in path.read_text().splitlines()]
        path.write_text("".join(" ".join([*f[:2], "2", *f[3:]]) + "\n" for f in lines))
    return root


def eval_digests(corpus, tmp_path, *flags):
    out = tmp_path / "report.json"
    assert main(["eval", "--gt-dir", str(corpus / "label_2"),
                 "--pred-dir", str(corpus / "pred"),
                 "--calib-dir", str(corpus / "calib"),
                 "--split", str(corpus / "split.txt"), "--out", str(out), *flags]) == 0
    return tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in (out, tmp_path / "report_pr.csv",
                              tmp_path / "report_depth_bins.csv"))


@pytest.mark.parametrize("ap_mode", ["11", "40"])
def test_eval_outputs_match_golden_digests(corpus_60, tmp_path, ap_mode):
    assert eval_digests(corpus_60, tmp_path, "--ap-mode", ap_mode) == GOLDEN_EVAL[ap_mode]


@pytest.mark.parametrize("ap_mode", ["11", "40"])
def test_eval_outputs_at_four_thresholds_match_golden_digests(corpus_60, tmp_path, ap_mode):
    assert eval_digests(corpus_60, tmp_path, "--ap-mode", ap_mode,
                        "--thresholds", *WIDE_THRESHOLDS) == GOLDEN_EVAL_WIDE[ap_mode]


@pytest.mark.parametrize("ap_mode", ["11", "40"])
def test_eval_outputs_with_empty_tiers_match_golden_digests(corpus_60_hard_only, tmp_path,
                                                            ap_mode):
    assert eval_digests(corpus_60_hard_only, tmp_path,
                        "--ap-mode", ap_mode) == GOLDEN_EVAL_HARD_ONLY[ap_mode]


@pytest.mark.parametrize("case", sorted(GOLDEN_JSON))
def test_command_json_matches_golden_digest(tmp_path, case):
    digest, argv = GOLDEN_JSON[case]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_validate_json_matches_golden_digest(corpus_60, tmp_path):
    out = tmp_path / "validate.json"
    assert main(["validate", "--gt-dir", str(corpus_60 / "label_2"),
                 "--calib-dir", str(corpus_60 / "calib"),
                 "--split", str(corpus_60 / "split.txt"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_VALIDATE_60


@pytest.mark.parametrize("kind,fields", [("label_2", 15), ("pred", 16)])
def test_label_lines_come_back_through_parse_and_format(corpus_60, kind, fields):
    n_lines = 0
    for path in sorted((corpus_60 / kind).iterdir()):
        lines = path.read_text().splitlines()
        table = parse_label_file(path.read_text())
        assert table.line_numbers == list(range(1, len(lines) + 1))
        assert all(len(line.split()) == fields for line in lines)
        assert [format_label_line(a) for a in records(table)] == lines
        n_lines += len(lines)
    assert n_lines > 100
