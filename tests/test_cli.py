import json

import pytest

from conftest import write_corpus
from mono3d.cli import main


def run(args):
    return main([str(a) for a in args])


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
        assert "not finite (line 2, field 13)" in capsys.readouterr().err

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

    def test_rerun_byte_identical(self, tmp_path):
        args = ["--seed", "2", "--n-seeds", "2", "--n-objects", "12",
                "--feature-dim", "6", "--epochs", "120"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["train-toy", "--out", out1] + args) == 0
        assert run(["train-toy", "--out", out2] + args) == 0
        assert out1.read_bytes() == out2.read_bytes()

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


class TestUsage:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert run(["eval"]) == 1
