import runpy
import sys
from pathlib import Path

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
