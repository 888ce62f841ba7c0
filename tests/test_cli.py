import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CALIB_TEXT, write_corpus
from mono3d.cli import main


def run(args):
    return main([str(a) for a in args])


def _append(path, text):
    path.write_text(path.read_text() + text)


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
        err = capsys.readouterr().err
        assert err.startswith("mono3d: pred/000001.txt:2: ")
        assert "not finite (line 2, field 13)" in err

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


class TestUsage:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert run(["eval"]) == 1


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
