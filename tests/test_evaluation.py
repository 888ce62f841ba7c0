import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_car
from mono3d import evaluation
from mono3d.evaluation import (MatchResult, annotation_box3d, average_precision,
                               bev_iou, clip_convex, evaluate_frames,
                               filter_by_difficulty, iou_3d, localization_report,
                               match_frame, monte_carlo_iou_3d, polygon_area,
                               random_box_pair)
from mono3d.geometry import Box3D
from mono3d.kitti_io import Difficulty, assign_difficulty


def box(cx=0.0, cy=0.0, cz=0.0, h=1.0, w=1.0, length=1.0, yaw=0.0):
    return Box3D(center=(cx, cy, cz), dims=(h, w, length), yaw=yaw)


class TestPolygonClipping:
    def test_full_overlap(self):
        square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        clipped = clip_convex(square, square)
        assert abs(polygon_area(clipped)) == pytest.approx(4.0)

    def test_disjoint(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        b = a + np.array([5.0, 0.0])
        assert len(clip_convex(a, b)) == 0

    def test_half_overlap(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        b = a + np.array([0.5, 0.0])
        clipped = clip_convex(a, b)
        assert abs(polygon_area(clipped)) == pytest.approx(0.5)


class TestBevIou:
    def test_identical(self):
        assert bev_iou(box(), box()) == pytest.approx(1.0)

    def test_disjoint(self):
        assert bev_iou(box(), box(cx=10.0)) == 0.0

    def test_half_offset_squares(self):
        assert bev_iou(box(), box(cx=0.5)) == pytest.approx(1.0 / 3.0)

    def test_degenerate_footprint(self):
        flat = box(w=0.0)
        assert bev_iou(flat, box()) == 0.0
        with pytest.raises(ValueError):
            bev_iou(flat, flat)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_symmetry_and_bounds(self, seed):
        a, b = random_box_pair(np.random.default_rng(seed))
        v = bev_iou(a, b)
        assert 0.0 <= v <= 1.0 + 1e-12
        assert v == pytest.approx(bev_iou(b, a), abs=1e-12)


class TestIou3D:
    def test_identical(self):
        assert iou_3d(box(yaw=0.77), box(yaw=0.77)) == pytest.approx(1.0)

    def test_vertical_offset_unit_cubes(self):
        assert iou_3d(box(), box(cy=0.5)) == pytest.approx(1.0 / 3.0)

    def test_no_vertical_overlap(self):
        assert iou_3d(box(), box(cy=3.0)) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 5000), yaw=st.floats(-np.pi, np.pi))
    def test_joint_yaw_invariance(self, seed, yaw):
        a, b = random_box_pair(np.random.default_rng(seed))
        base = iou_3d(a, b)
        c, s = np.cos(yaw), np.sin(yaw)

        def rotate(bx):
            x, y, z = bx.center
            return Box3D(center=(c * x + s * z, y, -s * x + c * z),
                         dims=bx.dims, yaw=bx.yaw + yaw)

        assert iou_3d(rotate(a), rotate(b)) == pytest.approx(base, abs=1e-9)

    def test_random_box_pair_draw_order_is_pinned(self):
        """The first pair at seed 0 is the one `iou-oracle --seed 0` has
        always drawn first; a reordered draw changes its output."""
        a, b = random_box_pair(np.random.default_rng(0))
        assert a == Box3D(center=(1.0956934985716344, -0.4604265724722594,
                                  -3.6722118085104425),
                          dims=(0.5413190888213227, 2.533175598000681,
                                2.7818889431943044),
                          yaw=2.2456372993781644)
        assert b == Box3D(center=(2.8359831937227074, 0.8029876440138692,
                                  -5.66125780782985),
                          dims=(2.0165894394179498, 2.323741402459996,
                                1.8590624786635572),
                          yaw=-2.930568260297326)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_monte_carlo_rejects_no_samples(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be at least 1"):
            monte_carlo_iou_3d(box(), box(), n_samples=n_samples)

    def test_monte_carlo_agreement_sample(self):
        rng = np.random.default_rng(99)
        for k in range(10):
            a, b = random_box_pair(rng)
            assert iou_3d(a, b) == pytest.approx(
                monte_carlo_iou_3d(a, b, n_samples=200_000, seed=k), abs=0.02)


class TestMatchFrame:
    def gt(self):
        return [make_car(x=0.0, z=10.0), make_car(x=6.0, z=30.0)]

    def as_pred(self, annotations, scores):
        preds = []
        for a, s in zip(annotations, scores):
            p = make_car(x=a.location[0], z=a.location[2])
            p.score = s
            preds.append(p)
        return preds

    def test_perfect_predictions(self):
        gts = self.gt()
        preds = self.as_pred(gts, [0.9, 0.8])
        result = match_frame(preds, gts, 0.7, "3d")
        assert len(result.pairs) == 2
        assert result.unmatched_pred_indices == []
        assert result.unmatched_gt_indices == []

    def test_empty_predictions(self):
        gts = self.gt()
        result = match_frame([], gts, 0.5, "3d")
        assert result.pairs == []
        assert result.unmatched_gt_indices == [0, 1]

    def test_higher_score_wins_contested_gt(self):
        gts = [make_car(x=0.0, z=10.0)]
        preds = self.as_pred([gts[0], gts[0]], [0.3, 0.8])
        result = match_frame(preds, gts, 0.5, "bev")
        assert result.pairs[0][0] == 1  # the 0.8-scored prediction
        assert result.unmatched_pred_indices == [0]

    def test_score_required(self):
        gts = self.gt()
        with pytest.raises(ValueError):
            match_frame([gts[0]], gts, 0.5, "3d")

    def test_zero_height_pair_matches_in_bev_only(self):
        gts = [make_car(x=0.0, z=10.0, dims=(0.0, 1.63, 3.88))]
        preds = [make_car(x=0.2, z=10.0, dims=(0.0, 1.63, 3.88), score=0.9)]
        result = match_frame(preds, gts, 0.5, "bev")
        assert [(i, j) for i, j, _ in result.pairs] == [(0, 0)]
        with pytest.raises(ValueError, match="degenerate"):
            match_frame(preds, gts, 0.5, "3d")

    def test_metric_validated(self):
        with pytest.raises(ValueError):
            match_frame([], [], 0.5, "2d")

    def test_order_independence_with_distinct_scores(self):
        gts = self.gt()
        preds = self.as_pred(gts, [0.9, 0.8])
        forward = match_frame(preds, gts, 0.5, "3d")
        backward = match_frame(preds[::-1], gts, 0.5, "3d")
        fwd = {(preds[i].score, j) for i, j, _ in forward.pairs}
        bwd = {(preds[::-1][i].score, j) for i, j, _ in backward.pairs}
        assert fwd == bwd


class TestDifficultyFilter:
    def test_counts_on_fixture_frames(self):
        from conftest import frame_annotations
        frames = frame_annotations()
        easy = sum(len(filter_by_difficulty(v, Difficulty.EASY)) for v in frames.values())
        moderate = sum(len(filter_by_difficulty(v, Difficulty.MODERATE))
                       for v in frames.values())
        hard = sum(len(filter_by_difficulty(v, Difficulty.HARD)) for v in frames.values())
        assert (easy, moderate, hard) == (3, 4, 5)

    def test_excludes_other_classes(self):
        annotations = [make_car(class_name="Pedestrian"), make_car()]
        cars = filter_by_difficulty(annotations, Difficulty.HARD)
        assert len(cars) == 1 and cars[0].class_name == "Car"


def single_frame_matches(tp_flags_scores, n_gt):
    """One synthetic frame: list of (score, is_tp) into a MatchResult."""
    pairs, unmatched, scores = [], [], []
    gt_idx = 0
    for i, (score, is_tp) in enumerate(tp_flags_scores):
        scores.append(score)
        if is_tp:
            pairs.append((i, gt_idx, 0.9))
            gt_idx += 1
        else:
            unmatched.append(i)
    return MatchResult(frame_id="000000", pairs=pairs,
                       unmatched_pred_indices=unmatched,
                       unmatched_gt_indices=list(range(gt_idx, n_gt)),
                       pred_scores=scores)


def per_level_envelope_ap(curve, mode):
    """AP from the precision envelope rescanned over the whole curve for
    each grid recall: the definition, as a slow oracle."""
    grid = [k / 10.0 for k in range(11)] if mode == "11" else [k / 40.0 for k in range(1, 41)]
    interpolated = [max((p for r, p in curve if r >= level), default=0.0) for level in grid]
    return sum(interpolated) / len(interpolated)


class TestAveragePrecision:
    @pytest.mark.parametrize("mode", ["11", "40"])
    @pytest.mark.parametrize("seed", range(25))
    def test_equals_per_level_envelope_oracle(self, seed, mode):
        # Three frames whose scores come from a small set, so scores tie
        # within and across frames; every false positive ties the recall
        # of the point before it, and spare ground truths leave the top
        # grid levels above the last recall.
        rng = np.random.default_rng(seed)
        matches, n_tp = [], 0
        for f in range(3):
            events = [(float(rng.choice([0.2, 0.5, 0.8])), bool(rng.random() < 0.4))
                      for _ in range(int(rng.integers(0, 25)))]
            n = sum(tp for _, tp in events)
            n_tp += n
            matches.append(dataclasses.replace(single_frame_matches(events, n),
                                               frame_id=f"{f:06d}"))
        n_gt = max(1, n_tp + int(rng.integers(0, 4)))
        curve = average_precision(matches, n_gt, mode=mode)
        if n_tp == 0:
            assert curve.ap == 0.0
        else:
            assert curve.ap == per_level_envelope_ap(curve.points, mode)

    def test_all_correct(self):
        m = single_frame_matches([(0.9, True), (0.8, True)], n_gt=2)
        assert average_precision([m], 2).ap == pytest.approx(1.0)

    def test_none_correct(self):
        m = single_frame_matches([(0.9, False), (0.8, False)], n_gt=2)
        assert average_precision([m], 2).ap == 0.0

    def test_two_preds_one_gt(self):
        higher = single_frame_matches([(0.9, True), (0.5, False)], n_gt=1)
        lower = single_frame_matches([(0.9, False), (0.5, True)], n_gt=1)
        assert average_precision([higher], 1).ap == pytest.approx(1.0)
        assert average_precision([lower], 1).ap == pytest.approx(6.0 / 11.0)

    def test_needs_ground_truth(self):
        with pytest.raises(ValueError):
            average_precision([], 0)

    def test_score_transform_invariance(self):
        events = [(0.9, True), (0.7, False), (0.5, True), (0.2, False)]
        base = average_precision([single_frame_matches(events, 3)], 3).ap
        squashed = [(s ** 3 / 2, tp) for s, tp in events]
        assert average_precision([single_frame_matches(squashed, 3)], 3).ap == base

    def test_top_false_positive_never_helps(self):
        events = [(0.8, True), (0.6, False), (0.4, True)]
        base = average_precision([single_frame_matches(events, 3)], 3).ap
        spiked = [(0.95, False)] + events
        worse = average_precision([single_frame_matches(spiked, 3)], 3).ap
        assert worse <= base

    def test_forty_point_mode(self):
        m = single_frame_matches([(0.9, False), (0.5, True)], n_gt=1)
        # all 40 grid levels see max precision 0.5; no recall-0 anchor bonus
        assert average_precision([m], 1, mode="40").ap == pytest.approx(0.5)

    def test_curve_points_sorted(self):
        m = single_frame_matches([(0.9, True), (0.7, False), (0.5, True)], n_gt=2)
        curve = average_precision([m], 2)
        recalls = [r for r, _ in curve.points]
        assert recalls == sorted(recalls)


class TestLocalizationReport:
    def test_perfect(self):
        centers = np.array([[1.0, 0.5, 10.0], [-2.0, 1.0, 40.0]])
        report = localization_report(centers, centers)
        assert (report.ra_u, report.ra_v, report.ra_z) == (1.0, 1.0, 1.0)

    def test_single_pair_depth_error(self):
        gt = np.array([[1.0, 0.5, 10.0]])
        pred = np.array([[1.0, 0.5, 9.0]])
        report = localization_report(pred, gt)
        assert report.ra_z == pytest.approx(0.9)
        assert report.ra_u == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            localization_report(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_accuracy_decays_with_depth_under_constant_pixel_error(self):
        # constant pixel error maps to a constant relative lateral error,
        # while a depth error growing like z^2 makes deeper bins worse
        rng = np.random.default_rng(0)
        z = np.concatenate([rng.uniform(lo, lo + 10, 40)
                            for lo in (5, 15, 25, 35, 45, 55, 65, 75)])
        gt = np.stack([np.zeros_like(z), np.ones_like(z), z], axis=1)
        pred = gt.copy()
        pred[:, 2] += 0.002 * z ** 2
        report = localization_report(pred, gt)
        ra_z = [b.ra_z for b in report.depth_bins if b.count]
        assert all(a >= b for a, b in zip(ra_z, ra_z[1:]))

    def test_bins_partition_depth_range(self):
        report = localization_report(np.array([[0.0, 0.0, 89.9]]),
                                     np.array([[0.0, 0.0, 90.0]]))
        edges = [(b.lo, b.hi) for b in report.depth_bins]
        assert edges[0] == (0.0, 10.0)
        assert edges[-1] == (70.0, 90.0)
        assert report.depth_bins[-1].count == 1

    def test_clamped_to_unit_interval(self):
        gt = np.array([[0.0, 0.0, 1.0]])
        pred = np.array([[5.0, 0.0, 1.0]])
        assert localization_report(pred, gt).ra_u == 0.0


class TestEvaluateFrames:
    def test_perfect_predictions_score_everything(self):
        from conftest import frame_annotations
        frames = frame_annotations()
        preds = {}
        for frame, annotations in frames.items():
            preds[frame] = [make_car(x=a.location[0], y=a.location[1], z=a.location[2],
                                     height_px=a.box_height, left=a.box2d[0],
                                     truncation=a.truncation, occlusion=a.occlusion,
                                     yaw=a.rotation_y, score=0.9)
                            for a in annotations if a.class_name == "Car"]
        report = evaluate_frames(frames, preds, thresholds=(0.5, 0.7))
        for difficulty in ("easy", "moderate", "hard"):
            for threshold in ("0.5", "0.7"):
                assert report["ap_3d"][difficulty][threshold] == pytest.approx(1.0)
                assert report["ap_bev"][difficulty][threshold] == pytest.approx(1.0)
        assert report["localization"]["ra_u"] == pytest.approx(1.0)
        assert report["n_gt"] == {"easy": 3, "moderate": 4, "hard": 5}

    def test_empty_predictions_zero_ap(self):
        from conftest import frame_annotations
        frames = frame_annotations()
        report = evaluate_frames(frames, {f: [] for f in frames}, thresholds=(0.5,))
        assert report["ap_3d"]["hard"]["0.5"] == 0.0
        assert report["localization"] is None


def random_split(seed, n_frames=6):
    """Frames whose Car GTs span every tier plus ignored ones, with tied
    prediction scores and a Pedestrian row. Each frame repeats its first
    GT box under a random tier, so predictions on it tie between two
    GTs, or between a GT and an out-of-tier one."""
    # (box height px, truncation, occlusion) of an easy, moderate, hard
    # and ignored GT.
    tiers = [(60.0, 0.0, 0), (30.0, 0.2, 1), (30.0, 0.4, 2), (20.0, 0.0, 0)]
    rng = np.random.default_rng(seed)
    gts, preds = {}, {}
    for k in range(n_frames):
        cars = []
        for t in rng.permutation(len(tiers))[:int(rng.integers(1, 5))]:
            height_px, truncation, occlusion = tiers[t]
            cars.append(make_car(x=float(rng.uniform(-6.0, 6.0)),
                                 z=float(rng.uniform(8.0, 40.0)), height_px=height_px,
                                 truncation=truncation, occlusion=occlusion,
                                 yaw=float(rng.uniform(-np.pi, np.pi))))
        height_px, truncation, occlusion = tiers[int(rng.integers(len(tiers)))]
        left, top = cars[0].box2d[:2]
        cars.append(dataclasses.replace(cars[0], truncation=truncation,
                                        occlusion=occlusion,
                                        box2d=(left, top, left + 90.0, top + height_px)))
        frame_preds = []
        for car in cars[:-1] * 2:
            x, y, z = car.location
            frame_preds.append(make_car(
                x=x + float(rng.normal(0.0, 0.4)), y=y, z=z + float(rng.normal(0.0, 0.6)),
                yaw=car.rotation_y + float(rng.normal(0.0, 0.2)),
                score=float(rng.choice([0.3, 0.6, 0.9]))))
        frame_preds.append(make_car(class_name="Pedestrian", score=0.5))
        frame = f"{k:06d}"
        gts[frame] = cars + [make_car(class_name="Pedestrian", dims=(1.76, 0.6, 0.75))]
        preds[frame] = frame_preds
    return gts, preds


def reference_report(gts_by_frame, preds_by_frame, thresholds, ap_mode="11"):
    """evaluate_frames assembled from public per-frame calls, one
    match_frame per frame, tier, metric and threshold."""
    frames = sorted(gts_by_frame)
    report = {"class": "Car", "frames": len(frames), "n_gt": {}, "ap_3d": {},
              "ap_bev": {}, "pr_curves": {}}
    preds = {f: [p for p in preds_by_frame[f] if p.class_name == "Car"] for f in frames}
    for difficulty in (Difficulty.EASY, Difficulty.MODERATE, Difficulty.HARD):
        name = difficulty.name.lower()
        gts = {f: filter_by_difficulty(gts_by_frame[f], difficulty) for f in frames}
        ignored = {f: [g for g in gts_by_frame[f] if g.class_name == "Car"
                       and assign_difficulty(g) > difficulty] for f in frames}
        n_gt = sum(len(v) for v in gts.values())
        report["n_gt"][name] = n_gt
        for metric, key in (("3d", "ap_3d"), ("bev", "ap_bev")):
            report[key][name] = {}
            for thr in thresholds:
                matches = [match_frame(preds[f], gts[f], thr, metric, frame=f,
                                       ignored_gts=ignored[f]) for f in frames]
                curve = average_precision(matches, n_gt, mode=ap_mode)
                report[key][name][f"{thr:g}"] = curve.ap
                report["pr_curves"][f"{metric}_{name}_{thr:g}"] = curve.points
    pred_centers, gt_centers = [], []
    for f in frames:
        gts = filter_by_difficulty(gts_by_frame[f], Difficulty.HARD)
        for i, j, _ in match_frame(preds[f], gts, min(thresholds), "3d", frame=f).pairs:
            pred_centers.append(preds[f][i].location)
            gt_centers.append(gts[j].location)
    loc = localization_report(np.array(pred_centers), np.array(gt_centers))
    report["localization"] = {
        "iou_threshold": min(thresholds), "count": loc.count,
        "ra_u": loc.ra_u, "ra_v": loc.ra_v, "ra_z": loc.ra_z,
        "depth_bins": [{"lo": b.lo, "hi": b.hi, "count": b.count,
                        "ra_u": b.ra_u, "ra_v": b.ra_v, "ra_z": b.ra_z}
                       for b in loc.depth_bins]}
    return report


class TestSharedOverlaps:
    @pytest.mark.parametrize("seed", range(4))
    def test_table_equals_per_pair_functions(self, seed):
        gts_by_frame, preds_by_frame = random_split(seed)
        for frame, gts in gts_by_frame.items():
            preds = preds_by_frame[frame]
            overlaps = evaluation.frame_overlaps(preds, gts)
            assert overlaps.shape == (2, len(preds), len(gts))
            for i, p in enumerate(preds):
                for j, g in enumerate(gts):
                    a, b = annotation_box3d(p), annotation_box3d(g)
                    assert overlaps[0, i, j] == iou_3d(a, b)
                    assert overlaps[1, i, j] == bev_iou(a, b)

    def test_degenerate_pairs_hold_nan(self):
        # zero volume; zero volume and footprint
        flat, thin = make_car(dims=(0.0, 1.63, 3.88)), make_car(dims=(1.52, 0.0, 3.88))
        overlaps = evaluation.frame_overlaps([flat, thin], [flat, thin, make_car()])
        np.testing.assert_allclose(overlaps, [[[np.nan, np.nan, 0.0],
                                               [np.nan, np.nan, 0.0]],
                                              [[1.0, 0.0, 1.0],
                                               [0.0, np.nan, 0.0]]])

    def test_first_degenerate_pair_read_is_named(self):
        # Every pair is degenerate in 3D. The easy-tier 3D pass reads first:
        # prediction 1 (higher score) before prediction 0, and its tier
        # column (ground truth 1, easy) before its ignored one (ground
        # truth 0, moderate). File order would name (0, 0) instead, and
        # score order without the tier split (1, 0).
        flat = (0.0, 1.63, 3.88)
        gts = [make_car(x=-3.0, dims=flat, height_px=30.0, truncation=0.2, occlusion=1),
               make_car(x=3.0, dims=flat)]
        preds = [make_car(x=-3.0, dims=flat, score=0.2),
                 make_car(x=3.0, dims=flat, score=0.8)]
        assert [assign_difficulty(g) for g in gts] == [Difficulty.MODERATE, Difficulty.EASY]
        with pytest.raises(ValueError, match=r"^frame '000007', prediction 1 and ground "
                                             r"truth 1: both boxes are degenerate$"):
            evaluate_frames({"000007": gts}, {"000007": preds})

    @pytest.mark.parametrize("seed,ap_mode", [(0, "11"), (1, "40"), (2, "11"), (3, "40")])
    def test_report_equals_public_per_frame_assembly(self, seed, ap_mode):
        gts, preds = random_split(seed)
        tiers = {assign_difficulty(g) for v in gts.values() for g in v
                 if g.class_name == "Car"}
        assert tiers == set(Difficulty)
        thresholds = (0.1, 0.25, 0.5, 0.7)
        report = evaluate_frames(gts, preds, thresholds=thresholds, ap_mode=ap_mode)
        assert report == reference_report(gts, preds, thresholds, ap_mode)

    def test_one_clip_per_distinct_pair(self, monkeypatch):
        gts, preds = random_split(5)
        calls = []

        def counting_clip(subject, clip):
            calls.append(1)
            return clip_convex(subject, clip)

        monkeypatch.setattr(evaluation, "clip_convex", counting_clip)
        evaluate_frames(gts, preds, thresholds=(0.3, 0.5, 0.7))
        pairs = sum(sum(p.class_name == "Car" for p in preds[f])
                    * sum(g.class_name == "Car" for g in gts[f]) for f in gts)
        assert len(calls) == pairs
