import argparse
import csv
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CALIB_TEXT, write_corpus
from mono3d import cli
from mono3d.cli import main


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run(args):
    return main([str(a) for a in args])


def _append(path, text):
    path.write_text(path.read_text() + text)


def _prepend_bom(path):
    path.write_text("\ufeff" + path.read_text(), encoding="utf-8")


def _join_first_two_lines(path, separator):
    """Put ``separator`` in place of the first ``\n`` of ``path``."""
    path.write_text(path.read_text().replace("\n", separator, 1), encoding="utf-8")


def _set_field(path, prefix, index, value):
    """Replace field ``index`` of the first line of ``path`` starting with ``prefix``."""
    lines = path.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith(prefix))
    tokens = lines[k].split()
    tokens[index] = value
    lines[k] = " ".join(tokens)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# Number forms float() reads but no KITTI file holds: each breaks a label
# line's z and, as P2's focal length, a calibration file.
NON_KITTI_NUMBERS = {"underscore": "1_0", "arabic-indic": "\u0663\u0660",
                     "full-width": "\uff11\uff10", "bom": "\ufeff10"}


# Characters str.splitlines ends a line at and a KITTI file does not: each
# joins a label file's first two lines, or P0 and P2 of a calibration file.
NOT_NEWLINES = {"nel": "\x85", "line-separator": "\u2028", "form-feed": "\x0c"}


# Each breaks one file of the fixture corpus; validate and eval must name
# the same first error.
BROKEN_INPUTS = {
    "truncated-gt-line": lambda c: _append(c["gt"] / "000001.txt", "Car 0.0 0 0.0 1 2 3\n"),
    "missing-gt-file": lambda c: (c["gt"] / "000001.txt").unlink(),
    "non-finite-calib": lambda c: (c["calib"] / "000002.txt").write_text(
        "P2: nan 0 600 0 0 700 170 0 0 0 1 0\n"),
    "extra-p2-values": lambda c: (c["calib"] / "000002.txt").write_text(
        "P2: 700 0 600 0 0 700 170 0 0 0 1 0 99 abc\n"),
    "second-p2": lambda c: _append(c["calib"] / "000000.txt", CALIB_TEXT),
    "zero-depth-row": lambda c: (c["calib"] / "000001.txt").write_text(
        "P2: 700 0 600 0 0 700 170 0 0 0 0 0\n"),
    "non-utf8-label": lambda c: (c["gt"] / "000002.txt").write_bytes(b"\xff\xfe"),
    "bom-label-file": lambda c: _prepend_bom(c["gt"] / "000001.txt"),
    **{f"{name}-label": lambda c, v=value: _set_field(c["gt"] / "000001.txt", "Car", 13, v)
       for name, value in NON_KITTI_NUMBERS.items()},
    **{f"{name}-p2": lambda c, v=value: _set_field(c["calib"] / "000002.txt", "P2:", 1, v)
       for name, value in NON_KITTI_NUMBERS.items()},
    **{f"{name}-label": lambda c, s=sep: _join_first_two_lines(c["gt"] / "000001.txt", s)
       for name, sep in NOT_NEWLINES.items()},
    **{f"{name}-calib": lambda c, s=sep: _join_first_two_lines(c["calib"] / "000002.txt", s)
       for name, sep in NOT_NEWLINES.items()},
}


class TestValidate:
    def test_clean_corpus(self, corpus, tmp_path, capsys):
        out = tmp_path / "validate.json"
        code = run(["validate", "--gt-dir", corpus["gt"], "--calib-dir",
                    corpus["calib"], "--split", corpus["split"], "--out", out])
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["frames"] == 3
        assert summary["errors"] == []
        assert summary["class_counts"] == {"Car": 5, "DontCare": 1, "Pedestrian": 1}
        # class-agnostic counts: the pedestrian is easy, the DontCare ignored
        assert summary["difficulty_counts"] == {
            "easy": 4, "moderate": 1, "hard": 1, "ignored": 1}

    def test_truncated_line_located(self, corpus, tmp_path):
        bad = corpus["gt"] / "000001.txt"
        bad.write_text(bad.read_text() + "Car 0.0 0 0.0 1 2 3\n")
        out = tmp_path / "validate.json"
        code = run(["validate", "--gt-dir", corpus["gt"], "--calib-dir",
                    corpus["calib"], "--split", corpus["split"], "--out", out])
        assert code == 1
        summary = json.loads(out.read_text())
        assert len(summary["errors"]) == 1
        assert summary["errors"][0]["file"] == "000001.txt"
        assert summary["errors"][0]["line"] == 3

    def test_empty_split(self, corpus, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "validate.json"
        code = run(["validate", "--gt-dir", corpus["gt"], "--calib-dir",
                    corpus["calib"], "--split", empty, "--out", out])
        assert code == 0
        assert json.loads(out.read_text())["frames"] == 0

    def test_missing_gt_dir_is_input_error(self, corpus, tmp_path):
        code = run(["validate", "--gt-dir", tmp_path / "nope", "--calib-dir",
                    corpus["calib"], "--split", corpus["split"]])
        assert code == 1

    def test_repeated_split_frame_is_input_error(self, corpus, tmp_path, capsys):
        corpus["split"].write_text("000000\n000001\n000000\n")
        out = tmp_path / "validate.json"
        code = run(["validate", "--gt-dir", corpus["gt"], "--calib-dir",
                    corpus["calib"], "--split", corpus["split"], "--out", out])
        assert code == 1
        assert capsys.readouterr().err == ("mono3d: split line 3: frame '000000' is "
                                           "already listed on line 1\n")
        assert not out.exists()

    def test_non_finite_calibration_is_listed(self, corpus, tmp_path, capsys):
        (corpus["calib"] / "000001.txt").write_text("P2: 721.5 0 inf 0 0 721.5 172.8 0 0 0 1 0\n")
        out = tmp_path / "validate.json"
        code = run(["validate", "--gt-dir", corpus["gt"], "--calib-dir",
                    corpus["calib"], "--split", corpus["split"], "--out", out])
        assert code == 1
        (error,) = json.loads(out.read_text())["errors"]
        assert error["file"] == "calib/000001.txt"
        assert error["message"] == ("P2 values must be finite, got "
                                    "721.5 0 inf 0 0 721.5 172.8 0 0 0 1 0")
        assert "calib/000001.txt: P2 values must be finite" in capsys.readouterr().out

    def test_byte_order_mark_is_listed(self, corpus, tmp_path):
        # Read as part of the first class name, a BOM would count a
        # "\ufeffCar" and drop that Car from evaluation.
        _prepend_bom(corpus["gt"] / "000000.txt")
        out = tmp_path / "validate.json"
        code = run(["validate", "--gt-dir", corpus["gt"], "--calib-dir",
                    corpus["calib"], "--split", corpus["split"], "--out", out])
        assert code == 1
        (error,) = json.loads(out.read_text())["errors"]
        assert (error["file"], error["line"]) == ("000000.txt", 1)
        assert error["message"] == "character '\\ufeff' is not ASCII (field 0)"

    def test_non_utf8_label_file_is_listed(self, corpus, tmp_path):
        (corpus["gt"] / "000000.txt").write_bytes(b"\xff\xfe")
        (corpus["calib"] / "000002.txt").write_text("P2: nan 0 600 0 0 700 170 0 0 0 1 0\n")
        out = tmp_path / "validate.json"
        code = run(["validate", "--gt-dir", corpus["gt"], "--calib-dir",
                    corpus["calib"], "--split", corpus["split"], "--out", out])
        assert code == 1
        errors = json.loads(out.read_text())["errors"]
        assert [(e["file"], e["line"]) for e in errors] == [("000000.txt", None),
                                                            ("calib/000002.txt", None)]
        assert "can't decode byte 0xff" in errors[0]["message"]


class TestEval:
    def eval_args(self, corpus, out):
        return ["eval", "--gt-dir", corpus["gt"], "--pred-dir", corpus["pred"],
                "--calib-dir", corpus["calib"], "--split", corpus["split"],
                "--out", out]

    def test_perfect_predictions(self, corpus, tmp_path):
        out = tmp_path / "report.json"
        assert run(self.eval_args(corpus, out)) == 0
        report = json.loads(out.read_text())
        for difficulty in ("easy", "moderate", "hard"):
            for threshold in ("0.3", "0.5", "0.7"):
                assert report["ap_3d"][difficulty][threshold] == 1.0
                assert report["ap_bev"][difficulty][threshold] == 1.0
        assert report["localization"]["ra_u"] == 1.0
        assert report["localization"]["ra_z"] == 1.0
        assert (tmp_path / "report_pr.csv").exists()
        assert (tmp_path / "report_depth_bins.csv").exists()

    def test_empty_predictions(self, tmp_path):
        corpus = write_corpus(tmp_path / "data")
        for f in corpus["pred"].glob("*.txt"):
            f.write_text("")
        out = tmp_path / "report.json"
        assert run(self.eval_args(corpus, out)) == 0
        report = json.loads(out.read_text())
        assert report["ap_3d"]["hard"]["0.5"] == 0.0
        assert report["localization"] is None

    def test_perturbed_depth_localization(self, tmp_path):
        corpus = write_corpus(tmp_path / "data", perturb_z=1.0)
        out = tmp_path / "report.json"
        assert run(self.eval_args(corpus, out) + ["--thresholds", "0.3"]) == 0
        report = json.loads(out.read_text())
        loc = report["localization"]
        # single-pair arithmetic: mean over pairs of 1/z_gt, z in conftest
        depths = [15.0, 32.0, 11.0, 47.0, 58.0]
        expected = 1.0 - sum(1.0 / z for z in depths) / len(depths)
        assert loc["ra_z"] == pytest.approx(expected, abs=1e-6)
        assert loc["ra_u"] == 1.0

    def test_missing_prediction_file_is_empty_frame(self, tmp_path):
        corpus = write_corpus(tmp_path / "data")
        (corpus["pred"] / "000002.txt").unlink()
        out = tmp_path / "report.json"
        assert run(self.eval_args(corpus, out)) == 0
        report = json.loads(out.read_text())
        assert report["missing_prediction_frames"] == ["000002"]
        sidecar = tmp_path / "report.json.missing.txt"
        assert sidecar.read_text() == "000002\n"

    def test_complete_rerun_removes_stale_missing_sidecar(self, tmp_path):
        corpus = write_corpus(tmp_path / "data")
        moved = tmp_path / "000002.txt"
        (corpus["pred"] / "000002.txt").rename(moved)
        out = tmp_path / "report.json"
        assert run(self.eval_args(corpus, out)) == 0
        sidecar = tmp_path / "report.json.missing.txt"
        assert sidecar.read_text() == "000002\n"
        moved.rename(corpus["pred"] / "000002.txt")
        assert run(self.eval_args(corpus, out)) == 0
        assert json.loads(out.read_text())["missing_prediction_frames"] == []
        assert not sidecar.exists()

    @pytest.mark.parametrize("name", ["nonexist", "split.txt"])
    def test_pred_dir_not_a_directory_is_input_error(self, corpus, tmp_path, capsys, name):
        # A mistyped --pred-dir would otherwise read as a detector that
        # found nothing: every frame missing and every AP 0.
        pred_dir = corpus["split"].parent / name
        args = self.eval_args(corpus, tmp_path / "report.json")
        args[args.index("--pred-dir") + 1] = pred_dir
        assert run(args) == 1
        assert capsys.readouterr().err == f"mono3d: --pred-dir {pred_dir} is not a directory\n"
        assert not list(tmp_path.glob("report*"))

    def test_missing_gt_frame_is_fatal(self, tmp_path):
        corpus = write_corpus(tmp_path / "data")
        (corpus["gt"] / "000001.txt").unlink()
        assert run(self.eval_args(corpus, tmp_path / "report.json")) == 1

    def test_non_finite_prediction_is_input_error(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "data")
        pred = corpus["pred"] / "000001.txt"
        lines = pred.read_text().splitlines()
        tokens = lines[1].split()
        tokens[13] = "nan"
        lines[1] = " ".join(tokens)
        pred.write_text("\n".join(lines) + "\n")
        assert run(self.eval_args(corpus, tmp_path / "report.json")) == 1
        assert capsys.readouterr().err == ("mono3d: pred/000001.txt:2: field 'nan' is not "
                                           "finite (field 13)\n")

    def test_degenerate_pair_is_input_error(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "data")
        for directory in (corpus["gt"], corpus["pred"]):
            path = directory / "000002.txt"
            tokens = path.read_text().split()
            tokens[9] = "0.00"  # width
            path.write_text(" ".join(tokens) + "\n")
        assert run(self.eval_args(corpus, tmp_path / "report.json")) == 1
        assert "degenerate" in capsys.readouterr().err

    def test_degenerate_pair_error_is_located(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "data")
        pedestrian = ("Pedestrian 0.00 0 0.0 600.00 150.00 630.00 230.00 "
                      "1.70 0.60 0.80 1.00 1.60 12.00 0.0")
        for directory, lead in ((corpus["gt"], [pedestrian]), (corpus["pred"], [])):
            path = directory / "000002.txt"
            tokens = path.read_text().split()
            tokens[9] = "0.00"  # width
            path.write_text("".join(line + "\n" for line in [*lead, " ".join(tokens)]))
        assert run(self.eval_args(corpus, tmp_path / "report.json")) == 1
        err = capsys.readouterr().err
        assert "'000002'" in err
        # positions count all of the frame's objects, the Pedestrian included
        assert "prediction 0 and ground truth 1: both boxes are degenerate" in err

    def test_scoreless_prediction_error_is_located(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "data")
        path = corpus["pred"] / "000001.txt"
        car = path.read_text().splitlines()[0].split()
        pedestrian = ("Pedestrian 0.00 0 0.0 600.00 150.00 630.00 230.00 "
                      "1.70 0.60 0.80 1.00 1.60 12.00 0.0 0.5")
        path.write_text(f"{pedestrian}\n{' '.join(car[:15])}\n")
        assert run(self.eval_args(corpus, tmp_path / "report.json")) == 1
        # the position counts all of the frame's predictions, the Pedestrian included
        assert capsys.readouterr().err == "mono3d: frame '000001', prediction 1: no score\n"

    @pytest.mark.parametrize("thresholds", [["0.5", "0.5"], ["0.3", "0.50", "0.5"]])
    def test_duplicate_thresholds_are_input_error(self, corpus, tmp_path, capsys,
                                                  thresholds):
        out = tmp_path / "report.json"
        assert run(self.eval_args(corpus, out) + ["--thresholds", *thresholds]) == 1
        assert "0.5 more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_split_frame_is_input_error(self, corpus, tmp_path, capsys):
        corpus["split"].write_text("000000\n000000\n")
        out = tmp_path / "report.json"
        assert run(self.eval_args(corpus, out)) == 1
        assert capsys.readouterr().err == ("mono3d: split line 2: frame '000000' is "
                                           "already listed on line 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "eval"])
    def test_split_id_outside_its_directory_is_input_error(self, corpus, tmp_path, capsys,
                                                           command):
        corpus["split"].write_text("000000\n../label_2/000001\n")
        out = tmp_path / "report.json"
        args = self.eval_args(corpus, out) if command == "eval" else [
            "validate", "--gt-dir", corpus["gt"], "--calib-dir", corpus["calib"],
            "--split", corpus["split"], "--out", out]
        assert run(args) == 1
        assert capsys.readouterr().err == ("mono3d: split line 2: frame '../label_2/000001' "
                                           "must name a file in its directory: no path "
                                           "separator, '.' or '..'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "eval"])
    def test_split_id_holding_whitespace_is_input_error(self, corpus, tmp_path, capsys,
                                                        command):
        # str.splitlines would read two ids, 000000 and 000001, from line 1.
        corpus["split"].write_text("000000\x85000001\n000002\n", encoding="utf-8")
        out = tmp_path / "report.json"
        args = self.eval_args(corpus, out) if command == "eval" else [
            "validate", "--gt-dir", corpus["gt"], "--calib-dir", corpus["calib"],
            "--split", corpus["split"], "--out", out]
        assert run(args) == 1
        assert capsys.readouterr().err == ("mono3d: split line 1: frame '000000\\x85000001' "
                                           "holds whitespace; list one frame id per line\n")
        assert not out.exists()

    def test_overflowing_box_is_located(self, corpus, tmp_path, capsys):
        # A finite depth of 1e308 overflows the footprint's area.
        path = corpus["gt"] / "000001.txt"
        lines = path.read_text().splitlines()
        tokens = lines[0].split()
        tokens[13] = "1e308"
        path.write_text("".join(line + "\n" for line in [" ".join(tokens), *lines[1:]]))
        out = tmp_path / "report.json"
        assert run(self.eval_args(corpus, out)) == 1
        assert capsys.readouterr().err.startswith(
            "mono3d: frame '000001', ground truth 0: footprint area and volume must be "
            "finite, got centre (3.2, 1.6, 1e+308), dims (1.52, 1.63, 3.88), yaw ")
        assert not out.exists()

    def test_far_edge_on_box_is_located(self, tmp_path, monkeypatch, capsys):
        # Car 0 of frame 000000, label and prediction, at z = 1e308 edge-on:
        # its footprint area is a finite 0, but clipping it would overflow.
        root = tmp_path / "corpus"
        monkeypatch.setattr(sys, "argv", ["make_synthetic_kitti.py", "--frames", "4",
                                          "--seed", "3", "--out", str(root)])
        runpy.run_path(str(SCRIPTS / "make_synthetic_kitti.py"), run_name="__main__")
        capsys.readouterr()
        for kind in ("label_2", "pred"):
            path = root / kind / "000000.txt"
            lines = path.read_text().splitlines()
            tokens = lines[0].split()
            tokens[11], tokens[13], tokens[14] = "0.0", "1e308", "1.570796"
            path.write_text("".join(line + "\n" for line in [" ".join(tokens), *lines[1:]]))
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["eval", "--gt-dir", root / "label_2", "--pred-dir", root / "pred",
                        "--calib-dir", root / "calib", "--split", root / "split.txt",
                        "--out", out])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "mono3d: frame '000000', prediction 0: footprint coordinates must be small "
            "enough to clip, got centre (0.0, 1.65, 1e+308), dims ")
        assert not out.exists()

    def test_non_finite_calibration_is_input_error(self, corpus, tmp_path, capsys):
        (corpus["calib"] / "000002.txt").write_text("P2: nan 0 600 0 0 700 170 0 0 0 1 0\n")
        out = tmp_path / "report.json"
        assert run(self.eval_args(corpus, out)) == 1
        assert capsys.readouterr().err == ("mono3d: calib/000002.txt: P2 values must be "
                                           "finite, got nan 0 600 0 0 700 170 0 0 0 1 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("breakage", list(BROKEN_INPUTS))
    def test_eval_raises_the_first_error_validate_lists(self, corpus, tmp_path, capsys,
                                                         breakage):
        BROKEN_INPUTS[breakage](corpus)
        assert run(["validate", "--gt-dir", corpus["gt"], "--calib-dir",
                    corpus["calib"], "--split", corpus["split"]]) == 1
        first_error = capsys.readouterr().out.splitlines()[1]
        assert first_error.startswith("  ")
        out = tmp_path / "report.json"
        assert run(self.eval_args(corpus, out)) == 1
        assert capsys.readouterr().err == f"mono3d: {first_error[2:]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("depth,shown", [("-10.00", "-10"), ("0.00", "0")])
    def test_non_positive_matched_depth_is_located(self, corpus, tmp_path, capsys,
                                                   depth, shown):
        # One frame; its first Car, matched by the first prediction, moves
        # to the given depth in both files.
        corpus["split"].write_text("000000\n")
        for directory in (corpus["gt"], corpus["pred"]):
            path = directory / "000000.txt"
            lines = path.read_text().splitlines()
            tokens = lines[0].split()
            tokens[13] = depth
            lines[0] = " ".join(tokens)
            path.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "report.json"
        assert run(self.eval_args(corpus, out)) == 1
        assert capsys.readouterr().err == (f"mono3d: frame '000000', ground truth 0: "
                                           f"depth {shown} is not positive\n")
        assert not out.exists()

    def test_rerun_byte_identical(self, tmp_path):
        corpus = write_corpus(tmp_path / "data", perturb_z=0.5)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(self.eval_args(corpus, out1)) == 0
        assert run(self.eval_args(corpus, out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a_pr.csv").read_bytes() == (tmp_path / "b_pr.csv").read_bytes()
        assert (tmp_path / "a_depth_bins.csv").read_bytes() == \
            (tmp_path / "b_depth_bins.csv").read_bytes()


def tuple_curve(is_tp, n_gt):
    """A pass's precision/recall curve as ``evaluation._curve`` built it
    before curves became (N, 2) arrays: a list of (recall, precision)
    tuples, anchored at (0, 1) when the pass has a true positive."""
    tp = np.cumsum(is_tp, dtype=np.int64)
    recall = tp / n_gt
    precision = tp / np.arange(1, len(tp) + 1)
    points = list(zip(recall.tolist(), precision.tolist()))
    if not len(tp) or tp[-1] == 0:
        return points
    return [(0.0, 1.0)] + points


def tuple_path_pr_csv(path, pr_curves):
    """``_pr.csv`` as ``cmd_eval`` wrote it from tuple curves, one row at a time."""
    pr_rows = []
    for key in sorted(pr_curves):
        for recall, precision in pr_curves[key]:
            pr_rows.append([key, recall, precision])
    cli._write_csv(path, ["curve", "recall", "precision"], pr_rows)


# Half-millionths, where f"{v:.6f}" rounds either way, and the doubles
# one ulp either side of each.
HALF_MILLIONTHS = np.array([(k + 0.5) / 1e6 for k in (0, 1, 123_456, 499_999, 999_999)])
NEAR_TIES = np.concatenate([np.nextafter(HALF_MILLIONTHS, 0.0), HALF_MILLIONTHS,
                            np.nextafter(HALF_MILLIONTHS, 1.0), [0.0, 1.0]])


class TestPrCsv:
    """``_pr.csv`` written from each pass's (N, 2) curve array is byte for
    byte what the tuple path wrote."""

    def run_eval(self, corpus, out, monkeypatch, curves=None, extra=()):
        """``eval`` on ``corpus``, its curves replaced by ``curves`` if
        given; returns each ``_curve`` call's (is_tp, n_gt) by curve key."""
        calls, passes = [], {}
        curve, evaluate = cli.evaluation._curve, cli.evaluation.evaluate_frames

        def spy_curve(is_tp, n_gt, grid):
            calls.append((is_tp.copy(), n_gt))
            return curve(is_tp, n_gt, grid)

        def spy_evaluate(*args, **kwargs):
            report = evaluate(*args, **kwargs)
            # Curves are computed in the order the report lists them.
            passes.update(zip(report["pr_curves"], calls))
            return report if curves is None else {**report, "pr_curves": curves}

        monkeypatch.setattr(cli.evaluation, "_curve", spy_curve)
        monkeypatch.setattr(cli.evaluation, "evaluate_frames", spy_evaluate)
        assert run(["eval", "--gt-dir", corpus["gt"], "--pred-dir", corpus["pred"],
                    "--calib-dir", corpus["calib"], "--split", corpus["split"],
                    "--out", out, *extra]) == 0
        return passes

    @pytest.mark.parametrize("extra", [(), ("--thresholds", "0.1", "0.25", "0.5", "0.7"),
                                       ("--ap-mode", "40")], ids=["default", "wide", "r40"])
    @pytest.mark.parametrize("perturb_z", [0.0, 1.0, 3.0])
    def test_split_matches_tuple_path(self, tmp_path, monkeypatch, perturb_z, extra):
        # Every prediction scores 0.9, so every pass visits tied scores; a
        # larger depth error turns more of them into false positives.
        corpus = write_corpus(tmp_path / "data", perturb_z=perturb_z)
        passes = self.run_eval(corpus, tmp_path / "report.json", monkeypatch, extra=extra)
        assert passes
        tuple_path_pr_csv(tmp_path / "tuple.csv",
                          {key: tuple_curve(*call) for key, call in passes.items()})
        assert (tmp_path / "report_pr.csv").read_bytes() == (tmp_path / "tuple.csv").read_bytes()

    def test_empty_passes_match_tuple_path(self, tmp_path, monkeypatch):
        corpus = write_corpus(tmp_path / "data")
        for f in corpus["pred"].glob("*.txt"):
            f.write_text("")
        passes = self.run_eval(corpus, tmp_path / "report.json", monkeypatch)
        assert all(len(is_tp) == 0 for is_tp, _ in passes.values())
        tuple_path_pr_csv(tmp_path / "tuple.csv",
                          {key: tuple_curve(*call) for key, call in passes.items()})
        assert (tmp_path / "report_pr.csv").read_bytes() == \
            (tmp_path / "tuple.csv").read_bytes() == b"curve,recall,precision\n"

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_curves_match_tuple_path(self, corpus, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        # An empty pass, all false positives, recall and precision exactly 1
        # throughout, then passes whose scores tie, in sorted-score order.
        passes = [(np.zeros(0, bool), 2), (np.zeros(6, bool), 3), (np.ones(5, bool), 5)]
        for _ in range(5):
            score = rng.choice([0.2, 0.5, 0.8], int(rng.integers(1, 40)))
            is_tp = (rng.random(len(score)) < rng.choice([0.0, 0.3, 0.7, 1.0]))[
                np.argsort(-score, kind="stable")]
            passes.append((is_tp, max(1, int(is_tp.sum()) + int(rng.integers(0, 3)))))
        keys = [f"{metric}_{tier}_0.{k}" for k, (metric, tier) in
                enumerate(rng.permutation([(m, t) for m in ("bev", "3d")
                                           for t in ("hard", "easy", "moderate")]).tolist())]
        grid = cli.evaluation._recall_grid("11")
        curves = {key: cli.evaluation._curve(is_tp, n_gt, grid).points
                  for key, (is_tp, n_gt) in zip(keys, passes)}
        expected = {key: tuple_curve(*call) for key, call in zip(keys, passes)}
        # Recalls and precisions one ulp either side of a half-millionth.
        near = rng.permutation(NEAR_TIES)
        curves["near_ties"] = np.column_stack([near, near[::-1]])
        expected["near_ties"] = list(zip(near.tolist(), near[::-1].tolist()))
        self.run_eval(corpus, tmp_path / "report.json", monkeypatch, curves)
        tuple_path_pr_csv(tmp_path / "tuple.csv", expected)
        assert (tmp_path / "report_pr.csv").read_bytes() == (tmp_path / "tuple.csv").read_bytes()


class TestTrainToy:
    def test_small_noiseless_run(self, tmp_path):
        out = tmp_path / "toy.json"
        code = run(["train-toy", "--out", out, "--seed", "1", "--n-seeds", "5",
                    "--n-objects", "24", "--feature-dim", "12",
                    "--noise-sigma", "0.0", "--epochs", "2000"])
        assert code == 0
        payload = json.loads(out.read_text())
        for arm in ("regularized", "unregularized"):
            for report in payload["arms"][arm]:
                assert report["final_l1"] < 1e-3
                assert report["epochs_to_tolerance"] is not None

    def test_beta_zero_arms_identical(self, tmp_path):
        out = tmp_path / "toy.json"
        code = run(["train-toy", "--out", out, "--seed", "3", "--n-seeds", "2",
                    "--n-objects", "12", "--feature-dim", "6", "--beta", "0.0",
                    "--epochs", "150"])
        assert code == 0
        payload = json.loads(out.read_text())
        reg, unreg = payload["arms"]["regularized"], payload["arms"]["unregularized"]
        for a, b in zip(reg, unreg):
            assert a["loss_curve"] == b["loss_curve"]
            assert a["final_l1"] == b["final_l1"]

    def test_no_reg_runs_single_arm(self, tmp_path):
        out = tmp_path / "toy.json"
        code = run(["train-toy", "--out", out, "--n-seeds", "1", "--n-objects", "8",
                    "--feature-dim", "4", "--epochs", "50", "--no-reg"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "regularized" not in payload["arms"]
        assert len(payload["arms"]["unregularized"]) == 1

    def test_per_seed_table_on_stdout(self, tmp_path, capsys):
        out = tmp_path / "toy.json"
        assert run(["train-toy", "--out", out, "--seed", "4", "--n-seeds", "2",
                    "--n-objects", "12", "--feature-dim", "6", "--epochs", "150"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["seed", "viol", "reg", "epochs", "reg", "final", "L1",
                                    "reg", "viol", "unreg", "epochs", "unreg", "final",
                                    "L1", "unreg"]
        arms = json.loads(out.read_text())["arms"]
        for row, reg, unreg in zip(lines[1:3], arms["regularized"], arms["unregularized"]):
            cells = row.split()
            assert int(cells[0]) == reg["config"]["scene_seed"]
            for arm, (viol, epochs, final_l1) in ((reg, cells[1:4]), (unreg, cells[4:7])):
                assert int(viol) == arm["neighbor_order_violations"]
                assert epochs == ("-" if arm["epochs_to_tolerance"] is None
                                  else str(arm["epochs_to_tolerance"]))
                assert float(final_l1) == pytest.approx(arm["final_l1"], abs=5e-5)
        assert lines[3].startswith("train-toy: mean_violations_regularized = ")

    def test_single_arm_table(self, tmp_path, capsys):
        assert run(["train-toy", "--out", tmp_path / "toy.json", "--n-seeds", "3",
                    "--n-objects", "8", "--feature-dim", "4", "--epochs", "50",
                    "--no-reg"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["seed", "viol", "unreg", "epochs", "unreg",
                                    "final", "L1", "unreg"]
        assert [line.split()[0] for line in lines[1:4]] == ["1", "2", "3"]
        assert lines[4].startswith("train-toy: mean_violations_unregularized = ")

    def test_rerun_byte_identical(self, tmp_path):
        args = ["--seed", "2", "--n-seeds", "2", "--n-objects", "12",
                "--feature-dim", "6", "--epochs", "120"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["train-toy", "--out", out1] + args) == 0
        assert run(["train-toy", "--out", out2] + args) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("n_seeds", ["0", "-3"])
    def test_no_seeds_is_input_error(self, tmp_path, capsys, n_seeds):
        out = tmp_path / "toy.json"
        assert run(["train-toy", "--out", out, "--n-seeds", n_seeds]) == 1
        assert capsys.readouterr().err == \
            f"mono3d: --n-seeds must be at least 1, got {n_seeds}\n"
        assert not out.exists()

    def test_negative_seed_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "toy.json"
        assert run(["train-toy", "--out", out, "--seed", "-5", "--n-seeds", "1"]) == 1
        assert capsys.readouterr().err == "mono3d: --seed must be at least 0, got -5\n"
        assert not out.exists()

    @pytest.mark.parametrize("feature_dim", ["1", "0"])
    def test_feature_dim_below_two_is_input_error(self, tmp_path, capsys, feature_dim):
        out = tmp_path / "toy.json"
        assert run(["train-toy", "--out", out, "--n-seeds", "1",
                    "--feature-dim", feature_dim]) == 1
        assert "feature_dim must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--alpha", "--gamma"])
    def test_unused_loss_weights_are_not_options(self, tmp_path, capsys, flag):
        assert run(["train-toy", "--out", tmp_path / "toy.json", flag, "1"]) == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_config_echoes_only_what_the_trainer_reads(self, tmp_path):
        out = tmp_path / "toy.json"
        assert run(["train-toy", "--out", out, "--n-seeds", "1", "--n-objects", "8",
                    "--feature-dim", "4", "--epochs", "20"]) == 0
        payload = json.loads(out.read_text())
        assert list(payload["config"]) == ["seeds", "n_objects", "feature_dim",
                                           "noise_sigma", "epochs", "lr", "beta",
                                           "lambda"]
        for report in payload["arms"]["regularized"] + payload["arms"]["unregularized"]:
            assert "alpha" not in report["config"] and "gamma" not in report["config"]

    @pytest.mark.parametrize("flag,value", [("--noise-sigma", "nan"), ("--lr", "nan"),
                                            ("--lr", "inf"), ("--beta", "inf"),
                                            ("--lambda", "nan")])
    def test_non_finite_value_is_input_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "toy.json"
        assert run(["train-toy", "--out", out, "--n-seeds", "1", "--n-objects", "8",
                    "--epochs", "20", flag, value]) == 1
        err = capsys.readouterr().err
        assert "must be finite" in err and err.endswith(f"got {value}\n")
        assert not out.exists()

    def test_divergence_exit_code(self, tmp_path):
        code = run(["train-toy", "--out", tmp_path / "toy.json", "--n-seeds", "1",
                    "--n-objects", "12", "--feature-dim", "6", "--epochs", "200",
                    "--lr", "10.0"])
        assert code == 2


class TestIouOracle:
    def test_small_run(self, tmp_path):
        out = tmp_path / "oracle.json"
        code = run(["iou-oracle", "--out", out, "--n-pairs", "10",
                    "--n-samples", "100000", "--seed", "0"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["max_abs_deviation"] <= 0.02
        assert payload["n_pairs"] == 10

    def test_deterministic(self, tmp_path):
        args = ["--n-pairs", "5", "--n-samples", "50000", "--seed", "3"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["iou-oracle", "--out", out1] + args) == 0
        assert run(["iou-oracle", "--out", out2] + args) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_samples_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert run(["iou-oracle", "--out", out, "--n-pairs", "2",
                    "--n-samples", "0"]) == 1
        assert capsys.readouterr().err == \
            "mono3d: n_samples must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("n_pairs", ["0", "-1"])
    def test_no_pairs_is_input_error(self, tmp_path, capsys, n_pairs):
        out = tmp_path / "oracle.json"
        assert run(["iou-oracle", "--out", out, "--n-pairs", n_pairs]) == 1
        assert capsys.readouterr().err == \
            f"mono3d: --n-pairs must be at least 1, got {n_pairs}\n"
        assert not out.exists()

    def test_negative_seed_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert run(["iou-oracle", "--out", out, "--seed", "-1", "--n-pairs", "1",
                    "--n-samples", "10"]) == 1
        assert capsys.readouterr().err == "mono3d: --seed must be at least 0, got -1\n"
        assert not out.exists()


class TestUsage:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert run(["eval"]) == 1


class TestReadme:
    def readme_flags(self):
        """Each subcommand of README's CLI block, with the --flags its
        usage lines show."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
        flags: dict[str, set[str]] = {}
        for line in block.splitlines():
            if line.startswith("mono3d "):
                command = flags.setdefault(line.split()[1], set())
            command.update(re.findall(r"--[a-z][a-z0-9-]*", line))
        return flags

    def test_cli_block_shows_every_flag_the_parser_accepts(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        accepted = {name: {o for a in parser._actions for o in a.option_strings
                           if o.startswith("--") and o != "--help"}
                    for name, parser in sub.choices.items()}
        assert self.readme_flags() == accepted


class TestModuleEntry:
    """``python -m mono3d.cli`` runs the CLI, as the installed script does."""

    def run_module(self, *args):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "mono3d.cli", *map(str, args)],
                              env=env, capture_output=True, text=True, timeout=60)

    def test_writes_output_and_exits_zero(self, tmp_path):
        out = tmp_path / "oracle.json"
        done = self.run_module("iou-oracle", "--n-pairs", "1", "--n-samples", "10",
                               "--out", out)
        assert done.returncode == 0, done.stderr
        assert json.loads(out.read_text())["n_pairs"] == 1

    def test_bad_flag_exits_one(self, tmp_path):
        done = self.run_module("iou-oracle", "--out", tmp_path / "oracle.json",
                               "--no-such-flag")
        assert done.returncode == 1
        assert "unrecognized arguments: --no-such-flag" in done.stderr


def _round6(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def oracle_json(payload) -> str:
    """What ``write_json`` wrote before its own writer: a rounded copy of the
    payload through json's pure-Python ``indent=2`` encoder."""
    return json.dumps(_round6(payload), indent=2)


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
               1.7976931348623157e308, -1.7976931348623157e308,
               # around |v * 1e6| = 2**51 and 2**52, where its ulp reaches 0.5 and 1
               *(s * math.ldexp(1.0, e) / 1e6 * f for s in (1, -1) for e in (51, 52)
                 for f in (1 - 2e-16, 1.0, 1 + 2e-16))]
TIES = [(k + 0.5) / 1e6 for k in range(-20_000, 20_001)] + \
    [k / 2e6 for k in range(-20_000, 20_001)]
SPREAD = (np.random.default_rng(0).choice([-1.0, 1.0], 4000)
          * 10.0 ** np.random.default_rng(1).uniform(-12, 18, 4000)).tolist()


class TestJsonWriter:
    """``write_json`` lays out and rounds a payload byte for byte as
    ``oracle_json`` does, and its vectorised round is Python's ``round``."""

    @pytest.mark.parametrize("values", [EDGE_FLOATS, TIES, SPREAD],
                             ids=["edges", "ties", "spread"])
    def test_vectorised_round_is_round(self, values):
        assert [repr(v) for v in cli._rounded_floats(values)] == \
            [repr(round(v, 6)) for v in values]

    @pytest.mark.parametrize("payload", [
        {"edges": EDGE_FLOATS, "ties": TIES, "spread": SPREAD},
        {"scalar": np.float64(0.1234565), "list": [np.float64(-2.5e-7), 0.1, 0.2]},
        [1.0, 2, True, None, 0.3333333, False, -7],
        {"tuple": (0.1, 0.25), "empty": [{}, [], (), ""], "nested": [[0.1], [[], [1e-7]]]},
        {"naïve": "crème ☃ \U0001f600", "": {"ü": [None]}},
        {1: [0.1, 2], 2.5: {"a": 0.1234567, 3: 1e-7}, None: [], False: [[1e-7]]},
        0.1234565, "text", None, [], {},
    ], ids=["floats", "numpy", "mixed", "containers", "unicode", "non-str-keys",
            "float", "str", "none", "list", "dict"])
    def test_matches_oracle(self, payload):
        assert cli._json_text(payload) == oracle_json(payload)

    @settings(max_examples=100, deadline=None)
    @given(st.recursive(
        st.floats() | st.floats().map(np.float64) | st.integers() | st.booleans()
        | st.none() | st.text(),
        lambda children: st.lists(children) | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children) | st.lists(st.floats()),
        max_leaves=20))
    def test_random_payloads_match_oracle(self, payload):
        with np.errstate(all="ignore"):  # numpy's own round of a huge np.float64
            assert cli._json_text(payload) == oracle_json(payload)

    def test_write_json_ends_with_a_newline(self, tmp_path):
        payload = {"loss_curve": SPREAD[:100], "n": 3}
        cli.write_json(tmp_path / "sub" / "out.json", payload)
        assert (tmp_path / "sub" / "out.json").read_text() == oracle_json(payload) + "\n"

    def test_csv_matches_csv_writer(self, tmp_path):
        header = ["curve", "lo", "count", "ra"]
        rows = [["3d_easy_0.7", 0.1234565, 3, None], ["bev_hard_0.5", math.inf, 0, -0.0],
                ["x", np.float64(1e-7), True, 2.5]]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.6f}" if isinstance(v, float) else ("" if v is None else v)
                             for v in row])
        cli._write_csv(tmp_path / "out.csv", header, rows)
        assert (tmp_path / "out.csv").read_text() == buffer.getvalue()
