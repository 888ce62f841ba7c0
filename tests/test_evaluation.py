import dataclasses
import math
import tracemalloc

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
from mono3d.geometry import Box3D, bev_footprint, yaw_matrix
from mono3d.kitti_io import Difficulty, assign_difficulty


def box(cx=0.0, cy=0.0, cz=0.0, h=1.0, w=1.0, length=1.0, yaw=0.0):
    return Box3D(center=(cx, cy, cz), dims=(h, w, length), yaw=yaw)


def reference_monte_carlo_iou_3d(a, b, n_samples=1_000_000, seed=0):
    """Oracle for the chunked sampler: one draw of all samples, mapped to
    the world and then into b's frame by two matmuls."""
    rng = np.random.default_rng(seed)
    ha, wa, la = a.dims
    hb, wb, lb = b.dims
    local = rng.uniform(0.0, 1.0, size=(n_samples, 3))
    local[:, 0] = (local[:, 0] - 0.5) * la
    local[:, 1] = -local[:, 1] * ha
    local[:, 2] = (local[:, 2] - 0.5) * wa
    world = local @ yaw_matrix(a.yaw).T + np.asarray(a.center)
    in_b_frame = (world - np.asarray(b.center)) @ yaw_matrix(b.yaw)
    hits = ((np.abs(in_b_frame[:, 0]) <= lb / 2)
            & (in_b_frame[:, 1] <= 0.0) & (in_b_frame[:, 1] >= -hb)
            & (np.abs(in_b_frame[:, 2]) <= wb / 2))
    vol_a = ha * wa * la
    vol_b = hb * wb * lb
    inter = vol_a * hits.mean()
    return float(inter / (vol_a + vol_b - inter))


def reference_polygon_area(vertices):
    """Oracle for the batched shoelace: 0.5 * (sum x_i z_{i+1} - sum
    x_{i+1} z_i), each sum accumulated in vertex order from 0.0."""
    n = len(vertices)
    forward = backward = 0.0
    for i in range(n):
        (x, z), (x_next, z_next) = vertices[i], vertices[(i + 1) % n]
        forward += x * z_next
        backward += x_next * z
    return 0.5 * (forward - backward)


def reference_clip_convex(subject, clip, counts=None):
    """Oracle for the batched clip: the scalar Sutherland-Hodgman clip,
    one pass per edge over Python tuples. ``counts``, if given, collects
    the vertex count after each edge."""
    output = [tuple(p) for p in subject]
    n_clip = len(clip)
    for k in range(n_clip):
        if len(output) < 3:
            return np.zeros((0, 2))
        a = clip[k]
        b = clip[(k + 1) % n_clip]
        edge = (b[0] - a[0], b[1] - a[1])
        polygon = output
        output = []
        values = [edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) for p in polygon]
        for i, p in enumerate(polygon):
            q = polygon[(i + 1) % len(polygon)]
            vp, vq = values[i], values[(i + 1) % len(polygon)]
            if vp >= 0:
                output.append(p)
            if (vp > 0 > vq) or (vp < 0 < vq):
                t = vp / (vp - vq)
                output.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        if counts is not None:
            counts.append(len(output))
    eps = evaluation.VERTEX_MERGE_EPS
    merged = []
    for p in output:
        if not merged or (abs(p[0] - merged[-1][0]) > eps
                          or abs(p[1] - merged[-1][1]) > eps):
            merged.append(p)
    if len(merged) > 1 and (abs(merged[0][0] - merged[-1][0]) <= eps
                            and abs(merged[0][1] - merged[-1][1]) <= eps):
        merged.pop()
    return np.array(merged) if merged else np.zeros((0, 2))


def reference_pair_ious(a, b):
    """Oracle for one pair's (3D, BEV) IoU: one scalar clip with ``a`` as
    the subject; NaN where both boxes are degenerate under the metric."""
    footprint_a, footprint_b = bev_footprint(a), bev_footprint(b)
    area_a = reference_polygon_area(footprint_a)
    area_b = reference_polygon_area(footprint_b)
    inter = reference_clip_convex(footprint_a, footprint_b)
    inter_area = abs(reference_polygon_area(inter)) if len(inter) >= 3 else 0.0

    def ratio(num, size_a, size_b):
        if size_a <= 0 and size_b <= 0:
            return math.nan
        if size_a <= 0 or size_b <= 0:
            return 0.0
        return num / (size_a + size_b - num)

    y_overlap = min(a.center[1], b.center[1]) - max(a.center[1] - a.dims[0],
                                                    b.center[1] - b.dims[0])
    return (ratio(inter_area * max(0.0, y_overlap), area_a * a.dims[0], area_b * b.dims[0]),
            ratio(inter_area, area_a, area_b))


def clip_one(subject, clip):
    """The batched clip of a single pair, as its intersection's vertices."""
    vertices, counts = clip_convex(np.asarray(subject)[None], np.asarray(clip)[None])
    return vertices[0, :counts[0]]


def area_one(vertices):
    return polygon_area(np.asarray(vertices)[None], np.array([len(vertices)]))[0]


def same(x, y):
    """Bit-for-bit float equality, NaN equal to NaN."""
    return x == y or (math.isnan(x) and math.isnan(y))


class TestPolygonClipping:
    def test_full_overlap(self):
        square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        clipped = clip_one(square, square)
        assert abs(area_one(clipped)) == pytest.approx(4.0)

    def test_disjoint(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        b = a + np.array([5.0, 0.0])
        assert len(clip_one(a, b)) == 0

    def test_half_overlap(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        b = a + np.array([0.5, 0.0])
        clipped = clip_one(a, b)
        assert abs(area_one(clipped)) == pytest.approx(0.5)


class TestBatchedClipOracle:
    """The batched clip, shoelace and IoU assembly equal the scalar
    oracles bit for bit (``==``, NaN included)."""

    def assert_pairs_equal_oracle(self, pairs):
        footprints_a = np.array([bev_footprint(a) for a, _ in pairs])
        footprints_b = np.array([bev_footprint(b) for _, b in pairs])
        vertices, counts = clip_convex(footprints_a, footprints_b)
        for n, (fa, fb) in enumerate(zip(footprints_a, footprints_b)):
            assert np.array_equal(vertices[n, :counts[n]],
                                  reference_clip_convex(fa, fb).reshape(-1, 2))
        areas = polygon_area(footprints_a, np.full(len(pairs), 4))
        assert areas.tolist() == [reference_polygon_area(f) for f in footprints_a]
        preds = [make_car(x=a.center[0], y=a.center[1], z=a.center[2], dims=a.dims,
                          yaw=a.yaw) for a, _ in pairs]
        gts = [make_car(x=b.center[0], y=b.center[1], z=b.center[2], dims=b.dims,
                        yaw=b.yaw) for _, b in pairs]
        overlaps = evaluation.frame_overlaps(preds, gts)
        for n, (a, b) in enumerate(pairs):
            iou, bev = reference_pair_ious(a, b)
            assert same(overlaps[0, n, n], iou) and same(overlaps[1, n, n], bev), n

    def test_random_box_pairs(self):
        self.assert_pairs_equal_oracle(
            [random_box_pair(np.random.default_rng(seed)) for seed in range(200)])

    def test_identical_boxes(self):
        # Every footprint vertex lies on a clip edge: every vp is 0.
        boxes = [box(cx=1.5, cz=20.0, h=1.5, w=1.6, length=3.9, yaw=yaw)
                 for yaw in (0.0, 0.3, -1.2, np.pi / 2, np.pi)]
        self.assert_pairs_equal_oracle([(b, b) for b in boxes])

    def test_boxes_sharing_an_edge(self):
        self.assert_pairs_equal_oracle([
            (box(), box(cx=1.0)), (box(), box(cz=1.0)),
            (box(yaw=np.pi / 2), box(cx=1.0, yaw=np.pi / 2)),
            (box(length=2.0, w=0.5), box(cx=1.0, length=2.0, w=0.5, yaw=np.pi))])

    def test_zero_width_and_zero_length_boxes(self):
        flat_w, flat_l = box(w=0.0), box(length=0.0)
        self.assert_pairs_equal_oracle([
            (flat_w, flat_w), (flat_l, flat_l), (flat_w, flat_l), (flat_w, box()),
            (box(), flat_l), (box(h=0.0), box()), (box(h=0.0), box(h=0.0, cx=0.3))])

    def test_near_collinear_sliver_passes_through_more_than_eight_vertices(self):
        # Eight points on one segment, rounded to doubles, against a clip
        # whose first edge runs along that segment: the rounding flips the
        # sign test back and forth along the sliver.
        shift = np.array([29 * 0.3, 29 * 0.7])
        sliver = np.stack([np.linspace(0.0, 0.7, 8), np.linspace(0.0, 0.3, 8)],
                          axis=1) + shift
        clip = np.array([[0.0, 0.0], [0.7, 0.3], [-2.3, 7.3], [-3.0, 7.0]]) + shift
        counts = []
        expected = reference_clip_convex(sliver, clip, counts)
        assert max(counts) > 8 and len(expected) > 8
        # Batched with a pair that keeps all eight vertices: the buffer
        # is as wide as the larger count.
        square = np.array([[100.0, 100.0], [-100.0, 100.0], [-100.0, -100.0],
                           [100.0, -100.0]])
        vertices, counts = clip_convex(np.stack([sliver, sliver]), np.stack([clip, square]))
        assert np.array_equal(vertices[0, :counts[0]], expected)
        assert np.array_equal(vertices[1, :counts[1]], reference_clip_convex(sliver, square))
        assert counts.tolist() == [len(expected), 8]

    @pytest.mark.parametrize("seed", range(20))
    def test_shoelace_equals_ordered_sum(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        polygon = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-3, 3)
        buffer = np.zeros((2, 12, 2))
        buffer[1, :n] = polygon
        assert polygon_area(buffer, np.array([0, n]))[1] == reference_polygon_area(polygon)

    def test_one_pair_equals_whole_batch(self):
        # Three frames, 2,150 pairs in all: the split's batch spans two
        # chunks, and each pair's IoUs equal those of its one-pair batch.
        rng = np.random.default_rng(11)
        frames = [([random_box_pair(rng)[0] for _ in range(n_rows)],
                   [random_box_pair(rng)[1] for _ in range(n_cols)])
                  for n_rows, n_cols in ((30, 40), (25, 30), (10, 20))]
        assert sum(len(r) * len(c) for r, c in frames) > evaluation._CLIP_CHUNK
        for (rows, cols), overlaps in zip(frames, evaluation._overlap_matrices(frames)):
            assert overlaps.shape == (2, len(rows), len(cols))
            for i, a in enumerate(rows):
                for j, b in enumerate(cols):
                    assert np.array_equal(evaluation._overlap_matrices([([a], [b])])[0][:, 0, 0],
                                          overlaps[:, i, j])

    def test_memory_stays_bounded(self):
        """224 x 224 = 50,176 pairs in one frame. numpy reports its
        allocations to tracemalloc: chunked, the call peaks near 5 MB;
        clipped in one piece, it would peak near 52 MB."""
        rng = np.random.default_rng(3)
        cars = [make_car(x=float(rng.uniform(-20, 20)), z=float(rng.uniform(5, 60)),
                         yaw=float(rng.uniform(-np.pi, np.pi)), score=0.5)
                for _ in range(224)]
        tracemalloc.start()
        try:
            overlaps = evaluation.frame_overlaps(cars, cars)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert overlaps.shape == (2, 224, 224)
        assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MB"


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


class TestMonteCarloIou3D:
    def test_matches_reference_on_criterion_5_pairs(self):
        rng = np.random.default_rng(5)
        for k in range(20):
            a, b = random_box_pair(rng)
            assert monte_carlo_iou_3d(a, b, n_samples=1_000_000, seed=k) == \
                reference_monte_carlo_iou_3d(a, b, n_samples=1_000_000, seed=k)

    @pytest.mark.parametrize("n_samples", [1, 65_535, 65_536, 65_537, 200_000])
    def test_matches_reference_across_chunk_boundaries(self, n_samples):
        a, b = random_box_pair(np.random.default_rng(7))
        assert monte_carlo_iou_3d(a, b, n_samples=n_samples, seed=3) == \
            reference_monte_carlo_iou_3d(a, b, n_samples=n_samples, seed=3)

    @pytest.mark.parametrize("yaw_b", [0.4, 0.4 + np.pi / 2])
    def test_matches_reference_at_equal_and_perpendicular_yaws(self, yaw_b):
        a = box(cx=0.3, cy=0.2, cz=-0.1, h=1.5, w=1.6, length=3.9, yaw=0.4)
        b = box(cx=-0.4, cy=0.5, cz=0.6, h=1.4, w=1.8, length=4.2, yaw=yaw_b)
        assert monte_carlo_iou_3d(a, b, n_samples=200_000, seed=11) == \
            reference_monte_carlo_iou_3d(a, b, n_samples=200_000, seed=11)

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_chunked_draws_equal_one_draw(self, seed):
        """The chunked sampler rests on this: a generator's stream does not
        depend on how its uniform draws are split into calls."""
        rng = np.random.default_rng(seed)
        chunks = [rng.uniform(0.0, 1.0, size=(k, 3)) for k in (1, 65_536, 7, 1000)]
        whole = np.random.default_rng(seed).uniform(0.0, 1.0, size=(66_544, 3))
        assert np.array_equal(np.concatenate(chunks), whole)

    def test_both_degenerate_is_an_error(self):
        flat = Box3D(center=(0.0, 0.0, 10.0), dims=(0.0, 0.0, 0.0), yaw=0.0)
        with pytest.raises(ValueError, match="both boxes are degenerate"):
            monte_carlo_iou_3d(flat, flat, n_samples=1000)

    def test_one_degenerate_box_has_no_overlap(self):
        flat = box(w=0.0)
        assert monte_carlo_iou_3d(flat, box(), n_samples=1000) == 0.0
        assert monte_carlo_iou_3d(box(), flat, n_samples=1000) == 0.0

    def test_memory_stays_bounded(self):
        """numpy reports its allocations to tracemalloc; a one-shot draw of
        4e6 samples alone would hold 96 MB."""
        a, b = random_box_pair(np.random.default_rng(1))
        tracemalloc.start()
        try:
            monte_carlo_iou_3d(a, b, n_samples=4_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


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
        rows = []

        def counting_clip(subjects, clips):
            rows.append(len(subjects))
            return clip_convex(subjects, clips)

        monkeypatch.setattr(evaluation, "clip_convex", counting_clip)
        evaluate_frames(gts, preds, thresholds=(0.3, 0.5, 0.7))
        pairs = sum(sum(p.class_name == "Car" for p in preds[f])
                    * sum(g.class_name == "Car" for g in gts[f]) for f in gts)
        # The whole split's pairs go to the kernel once, in one chunk.
        assert rows == [pairs]

    @pytest.mark.parametrize("thresholds", [(0.3, 0.5, 0.7), (0.7, 0.1, 0.25, 0.5)])
    def test_one_match_per_frame_tier_metric_and_threshold(self, monkeypatch, thresholds):
        # Localization reads the hard tier's 3D pass at the lowest
        # threshold; it runs no pass of its own.
        gts, preds = random_split(6)
        expected = reference_report(gts, preds, thresholds)
        greedy_match = evaluation._greedy_match
        calls = []

        def counting_match(*args):
            calls.append(args)
            return greedy_match(*args)

        monkeypatch.setattr(evaluation, "_greedy_match", counting_match)
        assert evaluate_frames(gts, preds, thresholds=thresholds) == expected
        assert len(calls) == len(gts) * 3 * 2 * len(thresholds)
