"""End-to-end acceptance checks.

One test per criterion, each printing a PASS line (run with ``-s`` to see
them). Tolerances are fixed here and nowhere else.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import write_corpus
from mono3d.cli import main as cli_main
from mono3d.evaluation import (MatchResult, average_precision, iou_3d,
                               monte_carlo_iou_3d, random_box_pair)
from mono3d.geometry import (Box2D, Box3D, box3d_corners, forward_project,
                             inverse_project)
from mono3d.kitti_io import (LOCATION, OCCLUSION, ROTATION_Y, SCORE, CameraCalibration,
                             LabelTable, ObjectAnnotation, parse_label_file,
                             write_prediction_file)
from mono3d.locality import (FeatureBatch, LinearHead, build_graph, reg_gradient,
                             reg_pairwise, reg_trace)
from mono3d.losses import (LossConfig, PredictionBatch, build_grid_target, loss_2d,
                           loss_center3d, loss_corners, loss_depth)
from mono3d.toy_trainer import run_paired_experiment


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {number}: {description}")
        raise
    print(f"PASS  criterion {number}: {description}")


def random_reg_instance(rng):
    m = int(rng.integers(1, 51))
    n = int(rng.integers(2, 33))
    batch = FeatureBatch(x=rng.normal(size=(n, m)),
                         u2d=rng.uniform(0.0, 1.0, m),
                         z3d=rng.uniform(1.0, 85.0, m))
    head = LinearHead(w=rng.normal(size=(2, n)), b=rng.normal(size=2))
    return head, batch, build_graph(batch, 100.0)


def test_criterion_1_regularizer_identity():
    with criterion(1, "pairwise and trace regulariser agree to 1e-9 over "
                      "1000 instances in under 10 s"):
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        for _ in range(1000):
            head, batch, graph = random_reg_instance(rng)
            beta = float(rng.uniform(0.1, 20.0))
            a = reg_pairwise(head, batch, graph, beta)
            b = reg_trace(head, batch, graph, beta)
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_gradient_correctness():
    with criterion(2, "analytic regulariser gradient matches central finite "
                      "differences at 1e-5 over 100 instances"):
        rng = np.random.default_rng(2)
        step = 1e-6
        for _ in range(100):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(2, 8))
            batch = FeatureBatch(x=rng.normal(size=(n, m)),
                                 u2d=rng.uniform(0, 1, m),
                                 z3d=rng.uniform(1, 85, m))
            head = LinearHead(w=rng.normal(size=(2, n)), b=np.zeros(2))
            graph = build_graph(batch, 100.0)
            analytic = reg_gradient(head, batch, graph, 10.0)
            numeric = np.zeros_like(analytic)
            for i in range(2):
                for j in range(n):
                    plus, minus = head.w.copy(), head.w.copy()
                    plus[i, j] += step
                    minus[i, j] -= step
                    numeric[i, j] = (
                        reg_trace(LinearHead(plus, head.b), batch, graph, 10.0)
                        - reg_trace(LinearHead(minus, head.b), batch, graph, 10.0)
                    ) / (2 * step)
            denom = max(np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom <= 1e-5


def test_criterion_3_laplacian_properties():
    with criterion(3, "Laplacian is symmetric, zero row sums at 1e-12, and PSD "
                      "at -1e-9 over 100 graphs"):
        rng = np.random.default_rng(3)
        for _ in range(100):
            _, _, graph = random_reg_instance(rng)
            assert np.array_equal(graph.p, graph.p.T)
            assert np.abs(graph.p.sum(axis=1)).max() <= 1e-12
            assert np.linalg.eigvalsh(graph.p).min() >= -1e-9


def test_criterion_4_projection_round_trip():
    with criterion(4, "forward then inverse projection is the identity to 1e-12 "
                      "over 10000 points"):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            calib = CameraCalibration.from_intrinsics(
                f=float(rng.uniform(300, 1500)),
                theta=float(rng.uniform(400, 800)),
                phi=float(rng.uniform(100, 300)))
            x = float(rng.uniform(-50, 50))
            y = float(rng.uniform(-20, 20))
            z = float(rng.uniform(0.5, 120))
            bx, by = inverse_project(forward_project((x, y, z), calib), z, calib)
            assert abs(bx - x) <= 1e-12 * max(1.0, abs(x))
            assert abs(by - y) <= 1e-12 * max(1.0, abs(y))


def test_criterion_5_iou_monte_carlo_oracle():
    with criterion(5, "analytic 3D IoU within 0.01 of a 1e6-sample Monte-Carlo "
                      "estimate on 200 box pairs in under 60 s"):
        rng = np.random.default_rng(5)
        start = time.perf_counter()
        worst = 0.0
        for k in range(200):
            a, b = random_box_pair(rng)
            deviation = abs(iou_3d(a, b)
                            - monte_carlo_iou_3d(a, b, n_samples=1_000_000, seed=k))
            worst = max(worst, deviation)
            assert deviation <= 0.01
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        print(f"      max deviation {worst:.5f}, {elapsed:.1f}s")


def exhaustive_pr_sweep_ap(events, n_gt, grid):
    """Independent oracle: enumerate every prefix of the descending-score
    sweep and interpolate each grid level from scratch."""
    order = sorted(events, key=lambda e: -e[0])
    total_tp = sum(1 for _, is_tp in order if is_tp)
    if total_tp == 0:
        return 0.0
    prefix_points = [(0.0, 1.0)]
    tp = 0
    for k, (_, is_tp) in enumerate(order, start=1):
        tp += 1 if is_tp else 0
        prefix_points.append((tp / n_gt, tp / k))
    values = []
    for level in grid:
        candidates = [p for r, p in prefix_points if r >= level]
        values.append(max(candidates) if candidates else 0.0)
    return sum(values) / len(values)


def test_criterion_6_average_precision_oracle():
    with criterion(6, "average precision equals an exhaustive PR sweep on 50 "
                      "random scenes and the 1-gt/2-pred cases give 1 and 6/11"):
        rng = np.random.default_rng(6)
        grid = [k / 10.0 for k in range(11)]
        for _ in range(50):
            n_gt = int(rng.integers(1, 11))
            n_preds = int(rng.integers(0, 13))
            scores = rng.choice(np.linspace(0.01, 0.99, 1000), size=n_preds,
                                replace=False)
            remaining = n_gt
            events = []
            for s in scores:
                is_tp = bool(rng.random() < 0.5) and remaining > 0
                remaining -= 1 if is_tp else 0
                events.append((float(s), is_tp))
            pairs, unmatched = [], []
            gt_idx = 0
            for i, (_, is_tp) in enumerate(events):
                if is_tp:
                    pairs.append((i, gt_idx, 0.9))
                    gt_idx += 1
                else:
                    unmatched.append(i)
            match = MatchResult(frame_id="000000", pairs=pairs,
                                unmatched_pred_indices=unmatched,
                                unmatched_gt_indices=list(range(gt_idx, n_gt)),
                                pred_scores=[s for s, _ in events])
            got = average_precision([match], n_gt).ap
            expected = exhaustive_pr_sweep_ap(events, n_gt, grid)
            assert got == expected, f"{got} != {expected}"

        def one_gt_two_preds(correct_first):
            events = [(0.9, correct_first), (0.5, not correct_first)]
            pairs = [(0, 0, 0.9)] if correct_first else [(1, 0, 0.9)]
            unmatched = [1] if correct_first else [0]
            return MatchResult(frame_id="000000", pairs=pairs,
                               unmatched_pred_indices=unmatched,
                               unmatched_gt_indices=[], pred_scores=[0.9, 0.5])

        assert average_precision([one_gt_two_preds(True)], 1).ap == pytest.approx(1.0)
        assert average_precision([one_gt_two_preds(False)], 1).ap == \
            pytest.approx(6.0 / 11.0)


def fuzz_annotation(rng):
    left = float(rng.uniform(0, 1100))
    top = float(rng.uniform(0, 350))
    return ObjectAnnotation(
        class_name=str(rng.choice(["Car", "Van", "Truck", "Pedestrian", "Cyclist"])),
        truncation=float(rng.uniform(0, 1)),
        occlusion=int(rng.integers(0, 4)),
        alpha=float(rng.uniform(-np.pi, np.pi)),
        box2d=(left, top, left + float(rng.uniform(1, 140)),
               top + float(rng.uniform(1, 140))),
        dims=tuple(rng.uniform(0.2, 25, 3)),
        location=(float(rng.uniform(-80, 80)), float(rng.uniform(-5, 5)),
                  float(rng.uniform(0.5, 120))),
        rotation_y=float(rng.uniform(-np.pi, np.pi)),
        score=float(rng.uniform(0, 1)))


def test_criterion_7_parser_round_trip():
    with criterion(7, "write/parse identity at 6 decimals on a 500-annotation "
                      "fuzz corpus and documented fixture values"):
        rng = np.random.default_rng(7)
        annotations = [fuzz_annotation(rng) for _ in range(500)]
        parsed = parse_label_file(write_prediction_file(annotations))
        before = LabelTable.of(annotations)
        assert len(parsed) == 500
        assert parsed.class_names == before.class_names
        # Every column, the score included: occlusion exactly, the rest
        # to 6 decimals.
        assert (parsed.values[:, OCCLUSION] == before.values[:, OCCLUSION]).all()
        assert (np.abs(parsed.values - before.values) <= 5.1e-7).all()

        line = ("Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 "
                "1.65 1.67 3.64 -0.65 1.71 46.70 -1.59")
        a = parse_label_file(line)
        assert a.class_names == ["Car"]
        assert a.values[0, LOCATION][2] == pytest.approx(46.70)
        assert a.values[0, ROTATION_Y] == pytest.approx(-1.59)
        assert math.isnan(a.values[0, SCORE])
        b = parse_label_file(line + " 0.97")
        assert b.values[0, SCORE] == pytest.approx(0.97)


def test_criterion_8_toy_regularizer_effect():
    with criterion(8, "20 paired seeds at sigma=0.1, M=50, beta=10, lambda=100: "
                      "regularised ordering violations <= baseline and epochs "
                      "ratio <= 1.1, in under 5 minutes"):
        start = time.perf_counter()
        outcome = run_paired_experiment(list(range(1, 21)), LossConfig(),
                                        n_objects=50, noise_sigma=0.1)
        elapsed = time.perf_counter() - start
        summary = outcome["summary"]
        assert summary["mean_violations_regularized"] <= \
            summary["mean_violations_unregularized"]
        assert summary["epochs_ratio"] <= 1.1
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        print(f"      violations {summary['mean_violations_regularized']:.1f} (reg) vs "
              f"{summary['mean_violations_unregularized']:.1f} (unreg), "
              f"epochs ratio {summary['epochs_ratio']:.3f}, {elapsed:.1f}s")


def perfect_grid_scene():
    boxes, depths, centers, corners = [], [], [], []
    for k in range(3):
        boxes.append(Box2D(center_u=200.0 + 300.0 * k, center_v=180.0,
                           width=80.0, height=50.0))
        depths.append(10.0 + 12.0 * k)
        b3 = Box3D(center=(0.8 * k, 1.5, depths[-1]), dims=(1.5, 1.7, 4.0),
                   yaw=0.2 * k)
        centers.append(b3.center)
        corners.append(box3d_corners(b3))
    target = build_grid_target(boxes, depths, np.array(centers), np.array(corners),
                               1242.0, 375.0)
    pred = PredictionBatch.zeros()
    pred.scores[..., 0] = -10.0
    pred.scores[..., 1] = 10.0
    pred.scores[target.mask] = (10.0, -10.0)
    pred.box2d = target.box2d.copy()
    pred.z_coa = target.z.copy()
    pred.c_coa = target.c3d.copy()
    pred.corners = target.corners.copy()
    return target, pred


def test_criterion_9_degenerate_losses_and_masking():
    with criterion(9, "every loss vanishes on perfect predictions and ignores "
                      "empty-cell mutations bit for bit"):
        target, pred = perfect_grid_scene()
        cfg = LossConfig()
        rng = np.random.default_rng(9)
        batch = FeatureBatch(x=rng.normal(size=(4, 3)), u2d=rng.uniform(0, 1, 3),
                             z3d=np.array([10.0, 22.0, 34.0]))
        graph = build_graph(batch, cfg.lam)
        zero_head = LinearHead(w=np.zeros((2, 4)), b=np.zeros(2))

        assert loss_2d(pred, target, cfg) < 1e-8
        assert loss_depth(pred, target, cfg) < 1e-8
        assert loss_center3d(pred, target, zero_head, batch, graph, cfg) < 1e-8
        assert loss_corners(pred, target) < 1e-8

        head = LinearHead(w=rng.normal(size=(2, 4)), b=rng.normal(size=2))
        baseline = (loss_2d(pred, target, cfg),
                    loss_depth(pred, target, cfg),
                    loss_center3d(pred, target, head, batch, graph, cfg),
                    loss_corners(pred, target))
        empty = ~target.mask
        pred.box2d[empty] = 987.6
        pred.z_coa[empty] = -44.0
        pred.z_delta[empty] = 13.0
        pred.c_coa[empty] = 5.5
        pred.c_delta[empty] = -2.25
        pred.corners[empty] = 77.0
        mutated = (loss_2d(pred, target, cfg),
                   loss_depth(pred, target, cfg),
                   loss_center3d(pred, target, head, batch, graph, cfg),
                   loss_corners(pred, target))
        assert baseline == mutated


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "eval and train-toy reruns produce byte-identical outputs"):
        corpus = write_corpus(tmp_path / "data", perturb_z=0.4)
        eval_args = ["eval", "--gt-dir", str(corpus["gt"]),
                     "--pred-dir", str(corpus["pred"]),
                     "--calib-dir", str(corpus["calib"]),
                     "--split", str(corpus["split"])]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli_main(eval_args + ["--out", str(out_a)]) == 0
        assert cli_main(eval_args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a_pr.csv").read_bytes() == \
            (tmp_path / "b_pr.csv").read_bytes()
        assert (tmp_path / "a_depth_bins.csv").read_bytes() == \
            (tmp_path / "b_depth_bins.csv").read_bytes()
        report = json.loads(out_a.read_text())
        assert report["frames"] == 3

        toy_args = ["train-toy", "--seed", "5", "--n-seeds", "2",
                    "--n-objects", "16", "--feature-dim", "8", "--epochs", "150"]
        toy_a, toy_b = tmp_path / "toy_a.json", tmp_path / "toy_b.json"
        assert cli_main(toy_args + ["--out", str(toy_a)]) == 0
        assert cli_main(toy_args + ["--out", str(toy_b)]) == 0
        assert toy_a.read_bytes() == toy_b.read_bytes()
