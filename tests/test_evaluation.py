import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_car, records, reference_assign_difficulty
from mono3d import evaluation
from mono3d.evaluation import (MatchResult, average_precision, bev_iou, clip_convex, iou_3d,
                               localization_report, monte_carlo_iou_3d, polygon_area,
                               random_box_pair)
from mono3d.geometry import Box3D, bev_footprint, yaw_matrix
from mono3d.kitti_io import DIMS, LOCATION, ROTATION_Y, Difficulty, LabelTable, parse_label_file


def tables(records_by_frame):
    """Each frame's records as one label table."""
    return {frame: LabelTable.of(records) for frame, records in records_by_frame.items()}


def evaluate_frames(gts_by_frame, preds_by_frame, **kwargs):
    """``evaluation.evaluate_frames`` of each side's records, as tables."""
    return evaluation.evaluate_frames(tables(gts_by_frame), tables(preds_by_frame), **kwargs)


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


def frame_table(preds, gts):
    """3D (plane 0) and BEV (plane 1) IoU of every (prediction, ground
    truth) pair of one frame, shape ``(2, len(preds), len(gts))``, from the
    split's overlap pass."""
    def columns(objects, side):
        v = LabelTable.of(objects).values
        return evaluation._box_columns(Box3D(v[:, LOCATION], v[:, DIMS], v[:, ROTATION_Y]),
                                       lambda i: f"{side} {i}")

    rows, cols = np.indices((len(preds), len(gts))).reshape(2, -1)
    return evaluation._pair_overlaps(columns(preds, "prediction"), columns(gts, "ground truth"),
                                     rows, cols).reshape(2, len(preds), len(gts))


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
        overlaps = frame_table(preds, gts)
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
        n_rows, n_cols = np.array([30, 25, 10]), np.array([40, 30, 20])
        rows = [random_box_pair(rng)[0] for _ in range(n_rows.sum())]
        cols = [random_box_pair(rng)[1] for _ in range(n_cols.sum())]

        def stack(boxes):
            center, dims, yaw = (np.array(v, dtype=float)
                                 for v in zip(*((b.center, b.dims, b.yaw) for b in boxes)))
            return evaluation._box_columns(Box3D(center, dims, yaw), str)

        # Frame by frame, each frame's (row, column) matrix row-major.
        pair_rows, pair_cols = np.concatenate(
            [np.indices((r, c)).reshape(2, -1) + [[n_rows[:f].sum()], [n_cols[:f].sum()]]
             for f, (r, c) in enumerate(zip(n_rows, n_cols))], axis=1)
        values = evaluation._pair_overlaps(stack(rows), stack(cols), pair_rows, pair_cols)
        assert values.shape[1] == (n_rows * n_cols).sum() > evaluation._CLIP_CHUNK
        expected = [evaluation._pair_overlaps(stack([a]), stack([b]), [0], [0])[:, 0].tolist()
                    for f, (r, c) in enumerate(zip(n_rows.tolist(), n_cols.tolist()))
                    for a in rows[n_rows[:f].sum():][:r] for b in cols[n_cols[:f].sum():][:c]]
        assert values.T.tolist() == expected

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
            overlaps = frame_table(cars, cars)
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


# Box values that no overlap and no sample can be drawn from: (centre,
# dims, yaw) replacements of a sound Car box.
UNSOUND = {"negated-width-and-length": {"dims": (1.52, -1.63, -3.88)},
           "nan-width": {"dims": (1.52, math.nan, 3.88)},
           "inf-length": {"dims": (1.52, 1.63, math.inf)},
           "inf-centre": {"center": (math.inf, 1.6, 20.0)},
           "nan-yaw": {"yaw": math.nan}}
# Finite box values whose footprint area or volume overflows.
OVERFLOWING = {"huge-depth": {"center": (4.0, 1.6, 1e308)},
               "huge-length": {"dims": (1.52, 1.63, 1e155)},
               "huge-height": {"dims": (1e308, 1.63, 3.88)}}
# Far edge-on boxes: every footprint corner rounds to one depth, so the
# area is a finite 0, but the clip's products would overflow.
FAR = {"far-edge-on": {"center": (0.0, 1.6, 1e308), "yaw": 1.5707963},
       "far-edge-on-1e154": {"center": (0.0, 1.6, 1e154), "yaw": 1.5707963}}
RULES = {**{case: "centre, dims and yaw must be finite, dims non-negative" for case in UNSOUND},
         **{case: "footprint area and volume must be finite" for case in OVERFLOWING},
         **{case: "footprint coordinates must be small enough to clip" for case in FAR}}
BAD = {**UNSOUND, **OVERFLOWING, **FAR}


class TestBoxCheck:
    """Every overlap path and the sampler reject a box whose values are
    not finite, whose dims are negative, whose footprint area or volume
    overflows, or whose footprint is too far out to clip, naming the box.
    An overflow raises no numpy warning."""

    sound = Box3D(center=(0.0, 1.6, 20.0), dims=(1.52, 1.63, 3.88), yaw=-1.2)

    def test_far_box_next_to_the_bound_is_accepted(self):
        far = dataclasses.replace(self.sound, center=(0.0, 1.6, 3e153), yaw=1.5707963)
        assert iou_3d(far, self.sound) == bev_iou(self.sound, far) == 0.0

    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("case", [*BAD])
    @pytest.mark.parametrize("entry", [iou_3d, bev_iou,
                                       lambda a, b: monte_carlo_iou_3d(a, b, n_samples=1000)],
                             ids=["iou_3d", "bev_iou", "monte_carlo_iou_3d"])
    def test_pair_functions(self, entry, case, side):
        bad = dataclasses.replace(self.sound, **BAD[case])
        pair = (bad, self.sound) if side == "a" else (self.sound, bad)
        with pytest.raises(ValueError, match=rf"^box {side}: {RULES[case]}, got "):
            entry(*pair)

    @pytest.mark.parametrize("side", ["prediction", "ground truth"])
    @pytest.mark.parametrize("case", [*BAD])
    def test_evaluate_frames(self, case, side):
        # The unsound box is object 1 of its side in frame 000004: as a
        # prediction it is visited first, as a ground truth it is the
        # frame's first Car; either way the error gives its file position.
        changes = {"center": "location", "dims": "dims", "yaw": "rotation_y"}
        bad = dataclasses.replace(make_car(score=0.8), **{
            changes[k]: v for k, v in BAD[case].items()})
        gts = [make_car(class_name="Pedestrian"), make_car()]
        preds = [make_car(score=0.2), make_car(score=0.8)]
        (gts if side == "ground truth" else preds)[1] = bad
        with pytest.raises(ValueError, match=rf"^frame '000004', {side} 1: {RULES[case]}, got "):
            evaluate_frames({"000003": [make_car()], "000004": gts},
                            {"000003": [make_car(score=0.5)], "000004": preds})


class TestMonteCarloIou3D:
    def test_matches_reference_on_criterion_5_pairs(self):
        rng = np.random.default_rng(5)
        for k in range(20):
            a, b = random_box_pair(rng)
            assert monte_carlo_iou_3d(a, b, n_samples=1_000_000, seed=k) == \
                reference_monte_carlo_iou_3d(a, b, n_samples=1_000_000, seed=k)

    @pytest.mark.parametrize("n_samples", [1, evaluation._MC_CHUNK - 1, evaluation._MC_CHUNK,
                                           evaluation._MC_CHUNK + 1, 65_535, 65_536, 65_537,
                                           200_000])
    def test_matches_reference_across_chunk_boundaries(self, n_samples):
        """Around the first chunk's end, and around 65,536, the end of the
        fourth chunk at 16,384 rows."""
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
        depend on how its uniform draws are split into calls, and
        ``random(out=...)`` into a reused buffer draws what
        ``uniform(0.0, 1.0)`` draws, since 0 + 1 * x is x."""
        sizes = (1, evaluation._MC_CHUNK, 7, 1000)
        whole = np.random.default_rng(seed).uniform(0.0, 1.0, size=(sum(sizes), 3))
        rng = np.random.default_rng(seed)
        chunks = [rng.uniform(0.0, 1.0, size=(k, 3)) for k in sizes]
        assert np.array_equal(np.concatenate(chunks), whole)
        rng = np.random.default_rng(seed)
        buffer = np.empty((max(sizes), 3))
        filled = []
        for k in sizes:
            rng.random(out=buffer[:k])
            filled.append(buffer[:k].copy())
        assert np.array_equal(np.concatenate(filled), whole)

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
        4e6 samples alone would hold 96 MB. The pair overlaps (IoU 0.0127);
        the chunk loop's reused buffers take about 1 MB."""
        rng = np.random.default_rng(1)
        a, b = [random_box_pair(rng) for _ in range(3)][2]
        tracemalloc.start()
        try:
            estimate = monte_carlo_iou_3d(a, b, n_samples=4_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimate > 0.0
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"


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

    def test_mode_checked_without_a_true_positive(self):
        m = single_frame_matches([(0.9, False)], n_gt=1)
        with pytest.raises(ValueError, match="ap mode must be '11' or '40', got 'bogus'"):
            average_precision([m], 1, mode="bogus")

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
        assert (report["ra_u"], report["ra_v"], report["ra_z"]) == (1.0, 1.0, 1.0)

    def test_single_pair_depth_error(self):
        gt = np.array([[1.0, 0.5, 10.0]])
        pred = np.array([[1.0, 0.5, 9.0]])
        report = localization_report(pred, gt)
        assert report["ra_z"] == pytest.approx(0.9)
        assert report["ra_u"] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            localization_report(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"^centres must be two \(N, 3\) arrays, got \(2, 3\) "
                                             r"predicted and \(3, 3\) ground-truth$"):
            localization_report(np.ones((2, 3)), np.ones((3, 3)))

    def test_centres_not_n_by_3_rejected(self):
        with pytest.raises(ValueError, match=r"^centres must be two \(N, 3\) arrays, got \(2, 2\) "
                                             r"predicted and \(2, 2\) ground-truth$"):
            localization_report(np.ones((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_centres_rejected(self, side, value):
        centers = [np.array([[0.0, 1.6, 10.0]]), np.array([[0.0, 1.6, 10.0]])]
        centers[side][0, 2] = value
        with pytest.raises(ValueError, match="^centres must be finite$"):
            localization_report(*centers)

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
        ra_z = [b["ra_z"] for b in report["depth_bins"] if b["count"]]
        assert all(a >= b for a, b in zip(ra_z, ra_z[1:]))

    def test_bins_partition_depth_range(self):
        report = localization_report(np.array([[0.0, 0.0, 89.9]]),
                                     np.array([[0.0, 0.0, 90.0]]))
        edges = [(b["lo"], b["hi"]) for b in report["depth_bins"]]
        assert edges[0] == (0.0, 10.0)
        assert edges[-1] == (70.0, 90.0)
        assert report["depth_bins"][-1]["count"] == 1

    def test_pair_beyond_90_m_counts_overall_but_in_no_bin(self):
        # The last bin is [70, 90]: a deeper pair enters the count and the
        # overall accuracies, and no bin.
        gt = np.array([[0.0, 1.6, 95.5], [0.0, 1.6, 20.0]])
        pred = gt + np.array([[9.55, 0.0, 0.0], [0.0, 0.0, 0.0]])
        report = localization_report(pred, gt)
        assert report["count"] == 2
        assert [b["count"] for b in report["depth_bins"]] == [0, 0, 1, 0, 0, 0, 0, 0]
        assert report["depth_bins"][2]["ra_u"] == 1.0
        assert report["ra_u"] == pytest.approx(1.0 - 0.1 / 2)

    def test_clamped_to_unit_interval(self):
        gt = np.array([[0.0, 0.0, 1.0]])
        pred = np.array([[5.0, 0.0, 1.0]])
        assert localization_report(pred, gt)["ra_u"] == 0.0


class TestEvaluateFrames:
    def test_perfect_predictions_score_everything(self):
        from conftest import frame_annotations
        frames = frame_annotations()
        preds = {}
        for frame, annotations in frames.items():
            preds[frame] = [make_car(x=a.location[0], y=a.location[1], z=a.location[2],
                                     height_px=a.box2d[3] - a.box2d[1], left=a.box2d[0],
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

    def test_ap_mode_checked_without_predictions(self):
        from conftest import frame_annotations
        frames = frame_annotations()
        with pytest.raises(ValueError, match="ap mode must be '11' or '40', got '7'"):
            evaluate_frames(frames, {"000000": []}, ap_mode="7")

    def test_prediction_frame_outside_the_split_is_rejected(self):
        # A 0.9 false positive in frame 000009 would take the AP from 1 to
        # 0.545 if 000009 were in the split; outside it, it is an error.
        gts = {"000000": [make_car()]}
        preds = {"000000": [make_car(score=0.8)], "000009": [make_car(x=8.0, score=0.9)]}
        with pytest.raises(ValueError, match=r"^frame '000009' has predictions but no "
                                             r"ground truth$"):
            evaluate_frames(gts, preds, thresholds=(0.5,))
        report = evaluate_frames({**gts, "000009": []}, preds, thresholds=(0.5,))
        assert report["frames"] == 2
        assert report["ap_3d"]["easy"]["0.5"] == pytest.approx(6 / 11)

    def test_empty_predictions_zero_ap(self):
        from conftest import frame_annotations
        frames = frame_annotations()
        report = evaluate_frames(frames, {f: [] for f in frames}, thresholds=(0.5,))
        assert report["ap_3d"]["hard"]["0.5"] == 0.0
        assert report["localization"] is None


def with_curve_lists(report):
    """``report`` with each precision/recall curve as a list
    ``[[recall, precision], ...]``, so reports compare with ``==``:
    evaluate_frames' (N, 2) arrays and the oracle's lists of tuples both
    become lists of float pairs."""
    return {**report, "pr_curves": {key: [[float(r), float(p)] for r, p in curve]
                                    for key, curve in report["pr_curves"].items()}}


class TestMatchFrame:
    """Greedy matching within a frame, as evaluate_frames runs it."""

    def gts(self):
        return {"000000": [make_car(x=0.0, z=10.0), make_car(x=6.0, z=30.0)]}

    def as_preds(self, gts, scores):
        return {f: [make_car(x=a.location[0], z=a.location[2], score=s)
                    for a, s in zip(v, scores)] for f, v in gts.items()}

    def test_perfect_predictions(self):
        gts = self.gts()
        report = evaluate_frames(gts, self.as_preds(gts, [0.9, 0.8]), thresholds=(0.7,))
        assert with_curve_lists(report)["pr_curves"]["3d_easy_0.7"] == \
            [[0.0, 1.0], [0.5, 1.0], [1.0, 1.0]]
        assert report["localization"]["count"] == 2

    def test_empty_predictions(self):
        report = evaluate_frames(self.gts(), {}, thresholds=(0.5,))
        assert report["n_gt"]["easy"] == 2
        assert with_curve_lists(report)["pr_curves"]["3d_easy_0.5"] == []
        curve = report["pr_curves"]["3d_easy_0.5"]
        assert (curve.shape, curve.dtype) == ((0, 2), np.float64)
        assert report["localization"] is None

    def test_higher_score_wins_contested_gt(self):
        # The 0.8 prediction, second in the file and 0.2 m off, takes the
        # one ground truth; the exact 0.3 one is then a false positive.
        gts = {"000000": [make_car(x=0.0, z=10.0)]}
        preds = {"000000": [make_car(x=0.0, z=10.0, score=0.3),
                            make_car(x=0.2, z=10.0, score=0.8)]}
        report = evaluate_frames(gts, preds, thresholds=(0.5,))
        assert with_curve_lists(report)["pr_curves"]["bev_easy_0.5"] == \
            [[0.0, 1.0], [1.0, 1.0], [1.0, 0.5]]
        assert report["localization"]["ra_u"] == 1.0 - 0.2 / 10.0

    def test_score_required(self):
        gts = {"000000": [make_car()], "000001": [make_car()]}
        preds = {"000001": [make_car(score=0.5), make_car()]}
        with pytest.raises(ValueError, match=r"^frame '000001', prediction 1: no score$"):
            evaluate_frames(gts, preds)

    def test_zero_height_pair_matches_in_bev_only(self):
        # A zero height leaves the footprint whole: a flat prediction
        # matches its ground truth in BEV and has no volume to match in 3D.
        # Flat on both sides, the pair's 3D IoU is undefined.
        flat = (0.0, 1.63, 3.88)
        gts = {"000000": [make_car(x=0.0, z=10.0)]}
        preds = {"000000": [make_car(x=0.2, z=10.0, dims=flat, score=0.9)]}
        report = evaluate_frames(gts, preds, thresholds=(0.5,))
        assert (report["ap_bev"]["easy"]["0.5"], report["ap_3d"]["easy"]["0.5"]) == (1.0, 0.0)
        gts = {"000000": [make_car(x=0.0, z=10.0, dims=flat)]}
        with pytest.raises(ValueError, match=r"^frame '000000', prediction 0 and ground "
                                             r"truth 0: both boxes are degenerate$"):
            evaluate_frames(gts, preds)

    def test_order_independence_with_distinct_scores(self):
        from conftest import frame_annotations
        gts = frame_annotations()
        preds = {f: [make_car(x=a.location[0] + 0.3, z=a.location[2], score=0.9 - 0.1 * k)
                     for k, a in enumerate(v) if a.class_name == "Car"] for f, v in gts.items()}
        reversed_preds = {f: v[::-1] for f, v in preds.items()}
        assert with_curve_lists(evaluate_frames(gts, preds)) == \
            with_curve_lists(evaluate_frames(gts, reversed_preds))


class TestDifficultyFilter:
    def test_counts_on_fixture_frames(self):
        # Each tier counts its own ground truths and every easier one's.
        from conftest import frame_annotations
        report = evaluate_frames(frame_annotations(), {})
        assert report["n_gt"] == {"easy": 3, "moderate": 4, "hard": 5}

    def test_excludes_other_classes(self):
        # A Pedestrian ground truth is not counted, and a Pedestrian
        # prediction on it is not scored.
        pedestrian = make_car(class_name="Pedestrian", dims=(1.76, 0.6, 0.75))
        gts = {"000000": [pedestrian, make_car(x=6.0)]}
        preds = {"000000": [dataclasses.replace(pedestrian, score=0.9)]}
        report = evaluate_frames(gts, preds, thresholds=(0.5,))
        assert report["n_gt"] == {"easy": 1, "moderate": 1, "hard": 1}
        assert with_curve_lists(report)["pr_curves"]["3d_hard_0.5"] == []
        assert report["ap_3d"]["hard"]["0.5"] == 0.0


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


class TestSharedOverlaps:
    @pytest.mark.parametrize("seed", range(4))
    def test_table_equals_per_pair_functions(self, seed):
        gts_by_frame, preds_by_frame = random_split(seed)
        for frame, gts in gts_by_frame.items():
            preds = preds_by_frame[frame]
            overlaps = frame_table(preds, gts)
            assert overlaps.shape == (2, len(preds), len(gts))
            for i, p in enumerate(preds):
                for j, g in enumerate(gts):
                    a, b = (Box3D(o.location, o.dims, o.rotation_y) for o in (p, g))
                    assert overlaps[0, i, j] == iou_3d(a, b)
                    assert overlaps[1, i, j] == bev_iou(a, b)

    def test_degenerate_pairs_hold_nan(self):
        # zero volume; zero volume and footprint
        flat, thin = make_car(dims=(0.0, 1.63, 3.88)), make_car(dims=(1.52, 0.0, 3.88))
        overlaps = frame_table([flat, thin], [flat, thin, make_car()])
        np.testing.assert_allclose(overlaps, [[[np.nan, np.nan, 0.0],
                                               [np.nan, np.nan, 0.0]],
                                              [[1.0, 0.0, 1.0],
                                               [0.0, np.nan, 0.0]]])

    def test_first_degenerate_pair_read_is_named(self):
        # Every pair is degenerate in 3D. The first in (frame, visit rank,
        # column) order is named: prediction 1 (higher score) before
        # prediction 0, and column 0 (ground truth 0) though it is out of
        # the easy tier. File order would name (0, 0) instead.
        flat = (0.0, 1.63, 3.88)
        gts = [make_car(x=-3.0, dims=flat, height_px=30.0, truncation=0.2, occlusion=1),
               make_car(x=3.0, dims=flat)]
        preds = [make_car(x=-3.0, dims=flat, score=0.2),
                 make_car(x=3.0, dims=flat, score=0.8)]
        assert [reference_assign_difficulty(g) for g in gts] == \
            [Difficulty.MODERATE, Difficulty.EASY]
        with pytest.raises(ValueError, match=r"^frame '000007', prediction 1 and ground "
                                             r"truth 0: both boxes are degenerate$"):
            evaluate_frames({"000007": gts}, {"000007": preds})

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
        # One call of the matching kernel runs every (tier, metric,
        # threshold) pass over every frame. Localization reads the hard
        # tier's 3D pass at the lowest threshold; it runs no pass of its own.
        gts, preds = random_split(6)
        report, calls = kernel_evaluate(monkeypatch, gts, preds, thresholds)
        assert with_curve_lists(report) == \
            with_curve_lists(oracle_evaluate(gts, preds, thresholds)[0])
        assert len(calls) == 1
        (*_, n_preds, passes), (matched, _) = calls[0]
        assert len(passes) == 3 * 2 * len(thresholds)
        assert matched.shape == (len(passes), n_preds)
        assert n_preds == sum(p.class_name == "Car" for f in gts for p in preds.get(f, []))


def reference_frame_scores(preds, frame, positions):
    """Oracle for the visiting order: the predictions' scores and their
    order by descending score, then index; a missing score raises, naming
    the frame and the prediction's position in it."""
    for p, position in zip(preds, positions):
        if p.score is None:
            raise ValueError(f"frame {frame!r}, prediction {position}: no score")
    scores = [p.score for p in preds]
    return scores, sorted(range(len(scores)), key=lambda i: (-scores[i], i))


# The oracle's own plane layout: each metric's plane in the overlap
# matrices and its error for a pair degenerate in both boxes.
ORACLE_PLANES = {"3d": (0, "both boxes are degenerate"),
                 "bev": (1, "both footprints are degenerate")}


def reference_greedy_match(overlaps, scores, pred_order, gt_cols, ignored_cols,
                           iou_threshold, metric, frame, positions):
    """Oracle for the matching kernel: the scalar greedy match of one frame
    and pass over columns of the frame's overlap matrix, rows visited in
    ``pred_order``. Ground-truth indices in the result are positions in
    ``gt_cols``. Reading a NaN pair raises, naming the frame and the
    pair's ``positions`` (row's, column's) among the frame's objects."""
    k, message = ORACLE_PLANES[metric]
    rows = overlaps[k].tolist()

    def degenerate(i, col):
        return ValueError(f"frame {frame!r}, prediction {positions[0][i]} and "
                          f"ground truth {positions[1][col]}: {message}")

    gt_taken = [False] * len(gt_cols)
    pairs, unmatched_preds, ignored_preds = [], [], []
    for i in pred_order:
        row = rows[i]
        best_j, best_iou = -1, 0.0
        for j, col in enumerate(gt_cols):
            if gt_taken[j]:
                continue
            v = row[col]
            if v >= iou_threshold and v > best_iou:
                best_j, best_iou = j, v
            elif math.isnan(v):
                raise degenerate(i, col)
        if best_j >= 0:
            gt_taken[best_j] = True
            pairs.append((i, best_j, best_iou))
            continue
        for col in ignored_cols:
            v = row[col]
            if v >= iou_threshold:
                ignored_preds.append(i)
                break
            if math.isnan(v):
                raise degenerate(i, col)
        else:
            unmatched_preds.append(i)
    return MatchResult(frame_id=frame, pairs=pairs,
                       unmatched_pred_indices=sorted(unmatched_preds),
                       unmatched_gt_indices=[j for j, t in enumerate(gt_taken) if not t],
                       pred_scores=scores, ignored_pred_indices=sorted(ignored_preds))


def reference_average_precision(all_matches, n_gt, mode="11"):
    """Oracle for the AP kernel: one Python event list sorted by
    (-score, frame, index), then the envelope over the point list."""
    events = []
    for m in all_matches:
        events += [(m.pred_scores[i], m.frame_id, i, True) for i, _, _ in m.pairs]
        events += [(m.pred_scores[i], m.frame_id, i, False) for i in m.unmatched_pred_indices]
    events.sort(key=lambda e: (-e[0], e[1], e[2]))
    tp, points = 0, []
    for n_scored, event in enumerate(events, start=1):
        tp += event[3]
        points.append((tp / n_gt, tp / n_scored))
    if tp == 0:
        return evaluation.PrecisionRecallCurve(points=points, ap=0.0)
    curve = [(0.0, 1.0)] + points
    recalls = [r for r, _ in curve]
    grid = [k / 10.0 for k in range(11)] if mode == "11" else [k / 40.0 for k in range(1, 41)]
    interpolated = []
    for level in grid:
        first = next((n for n, r in enumerate(recalls) if r >= level), len(curve))
        interpolated.append(max((p for _, p in curve[first:]), default=0.0))
    return evaluation.PrecisionRecallCurve(points=curve, ap=sum(interpolated) / len(interpolated))


def oracle_evaluate(gts_by_frame, preds_by_frame, thresholds, ap_mode="11", overlaps=None):
    """The scalar split evaluation: one reference_greedy_match per frame
    and pass, in pass, then frame order, and one reference AP per pass.
    ``overlaps`` replaces the frames' class overlap matrices. Returns the
    report and, per pass, its (tier, metric plane, threshold) and each
    frame's (match, visiting order, tier columns)."""
    frames = sorted(gts_by_frame)
    report = {"class": "Car", "frames": len(frames), "n_gt": {}, "ap_3d": {},
              "ap_bev": {}, "pr_curves": {}}
    positions = {f: ([k for k, p in enumerate(preds_by_frame.get(f, []))
                      if p.class_name == "Car"],
                     [k for k, g in enumerate(gts_by_frame[f]) if g.class_name == "Car"])
                 for f in frames}
    class_preds = {f: [preds_by_frame[f][k] for k in positions[f][0]] for f in frames}
    class_gts = {f: [gts_by_frame[f][k] for k in positions[f][1]] for f in frames}
    scores = {f: reference_frame_scores(class_preds[f], f, positions[f][0]) for f in frames}
    if overlaps is None:
        overlaps = {f: frame_table(class_preds[f], class_gts[f]) for f in frames}
    tiers = {f: [reference_assign_difficulty(g) for g in class_gts[f]] for f in frames}
    passes, loc_matches = [], []
    for difficulty in (Difficulty.EASY, Difficulty.MODERATE, Difficulty.HARD):
        name = difficulty.name.lower()
        filtered = {f: [j for j, t in enumerate(tiers[f]) if t <= difficulty] for f in frames}
        ignored = {f: [j for j, t in enumerate(tiers[f]) if t > difficulty] for f in frames}
        n_gt = sum(len(v) for v in filtered.values())
        report["n_gt"][name] = n_gt
        for metric, key in (("3d", "ap_3d"), ("bev", "ap_bev")):
            report[key][name] = {}
            for thr in thresholds:
                if n_gt == 0:
                    report[key][name][f"{thr:g}"] = None
                    continue
                matches = [reference_greedy_match(overlaps[f], *scores[f], filtered[f],
                                                  ignored[f], thr, metric, f, positions[f])
                           for f in frames]
                passes.append(((int(difficulty), ORACLE_PLANES[metric][0], thr),
                               {f: (m, scores[f][1], filtered[f])
                                for f, m in zip(frames, matches)}))
                if difficulty == Difficulty.HARD and metric == "3d" and thr == min(thresholds):
                    loc_matches = [(f, m, filtered[f]) for f, m in zip(frames, matches)]
                curve = reference_average_precision(matches, n_gt, mode=ap_mode)
                report[key][name][f"{thr:g}"] = curve.ap
                report["pr_curves"][f"{metric}_{name}_{thr:g}"] = curve.points
    pred_centers, gt_centers = [], []
    for f, match, cols in loc_matches:
        for i, j, _ in match.pairs:
            gt = class_gts[f][cols[j]]
            if gt.location[2] <= 0:
                raise ValueError(f"frame {f!r}, ground truth {positions[f][1][cols[j]]}: "
                                 f"depth {gt.location[2]:g} is not positive")
            pred_centers.append(class_preds[f][i].location)
            gt_centers.append(gt.location)
    report["localization"] = None
    if pred_centers:
        loc = localization_report(np.array(pred_centers), np.array(gt_centers))
        report["localization"] = {
            "iou_threshold": min(thresholds), "count": loc["count"],
            "ra_u": loc["ra_u"], "ra_v": loc["ra_v"], "ra_z": loc["ra_z"],
            "depth_bins": [dict(b) for b in loc["depth_bins"]]}
    return report, passes


def kernel_evaluate(monkeypatch, gts, preds, thresholds, ap_mode="11"):
    """evaluate_frames, with the arguments and results of each call of its
    matching kernel."""
    calls = []
    kernel = evaluation._match_passes

    def spy(*args):
        calls.append((args, kernel(*args)))
        return calls[-1][1]

    monkeypatch.setattr(evaluation, "_match_passes", spy)
    return evaluate_frames(gts, preds, thresholds=thresholds, ap_mode=ap_mode), calls


def outcomes(match, order, cols):
    """A scalar match's (status, matched column) per visit rank."""
    tp = {i: cols[j] for i, j, _ in match.pairs}
    return [("tp", tp[i]) if i in tp else
            ("ignored", -1) if i in match.ignored_pred_indices else ("fp", -1) for i in order]


def assert_kernel_equals_oracle(monkeypatch, gts, preds, thresholds, ap_mode="11",
                                overlaps=None):
    """The kernel's report and per-(pass, frame, rank) outcomes equal the
    oracle's. ``overlaps``, if given, replaces the split's overlaps on
    both sides; its frames' predictions must be visited in file order."""
    expected, oracle_passes = oracle_evaluate(gts, preds, thresholds, ap_mode, overlaps)
    if overlaps is not None:
        flat = np.concatenate([overlaps[f].reshape(2, -1) for f in sorted(gts)], axis=1)
        monkeypatch.setattr(evaluation, "_pair_overlaps", lambda *args: flat)
    report, calls = kernel_evaluate(monkeypatch, gts, preds, thresholds, ap_mode)
    assert with_curve_lists(report) == with_curve_lists(expected)
    assert all((curve.ndim, curve.shape[1], curve.dtype) == (2, 2, np.float64)
               for curve in report["pr_curves"].values())
    assert len(calls) == 1
    (*_, passes), (matched, ignored) = calls[0]
    assert [key for key, _ in oracle_passes] == passes
    frames = sorted(gts)
    # Each frame's Car predictions (rows, in visit order) and ground truths
    # (split indices) follow the earlier frames'.
    n_rows, n_cols = (np.array([sum(a.class_name == "Car" for a in side.get(f, []))
                                for f in frames]) for side in (preds, gts))
    for p, (_, per_frame) in enumerate(oracle_passes):
        for f, start, n, gt_start in zip(frames, (np.cumsum(n_rows) - n_rows).tolist(),
                                         n_rows.tolist(), (np.cumsum(n_cols) - n_cols).tolist()):
            # A matched split index, as a column in its frame.
            got = [("tp", g - gt_start) if g >= 0 else ("ignored", -1) if skip else ("fp", -1)
                   for g, skip in zip(matched[p, start:start + n].tolist(),
                                      ignored[p, start:start + n].tolist())]
            assert got == outcomes(*per_frame[f]), (p, f)
    return report


def tiered_car(tier, **kwargs):
    """A Car ground truth of a given difficulty tier."""
    height_px, truncation, occlusion = {
        Difficulty.EASY: (60.0, 0.0, 0), Difficulty.MODERATE: (30.0, 0.2, 1),
        Difficulty.HARD: (30.0, 0.4, 2), Difficulty.IGNORED: (20.0, 0.0, 0)}[tier]
    car = make_car(height_px=height_px, truncation=truncation, occlusion=occlusion, **kwargs)
    assert reference_assign_difficulty(car) == tier
    return car


def edge_split(seed):
    """random_split plus a frame without predictions, one without Car
    ground truth, and one whose only Car ground truths are out of every
    tier."""
    gts, preds = random_split(seed)
    gts["000100"] = [tiered_car(Difficulty.EASY, x=2.0)]
    preds["000100"] = []
    gts["000101"] = [make_car(class_name="Pedestrian", dims=(1.76, 0.6, 0.75))]
    preds["000101"] = [make_car(x=0.3, score=0.6), make_car(x=-4.0, score=0.6)]
    gts["000102"] = [tiered_car(Difficulty.IGNORED, x=1.0), tiered_car(Difficulty.IGNORED, x=9.0)]
    preds["000102"] = [make_car(x=1.2, score=0.9), make_car(x=9.0, score=0.3),
                       make_car(x=-9.0, score=0.9)]
    return gts, preds


@pytest.fixture(scope="module")
def synthetic_500(tmp_path_factory):
    """The 500-frame `make_synthetic_kitti.py --seed 0` corpus, parsed
    into records."""
    import runpy
    import sys
    from pathlib import Path

    root = tmp_path_factory.mktemp("synthetic") / "corpus"
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_kitti.py"
    argv = sys.argv
    sys.argv = [script.name, "--frames", "500", "--seed", "0", "--out", str(root)]
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv
    frames = (root / "split.txt").read_text().split()
    return tuple({f: records(parse_label_file((root / side / f"{f}.txt").read_text()))
                  for f in frames} for side in ("label_2", "pred"))


WIDE = (0.7, 0.1, 0.25, 0.5)


class TestMatchingKernel:
    """The split's matching kernel equals the scalar greedy match on every
    (pass, frame, rank): status and matched column; and the report equals
    the scalar evaluation's."""

    @pytest.mark.parametrize("ap_mode", ["11", "40"])
    @pytest.mark.parametrize("thresholds", [(0.3, 0.5, 0.7), WIDE])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_splits(self, monkeypatch, seed, thresholds, ap_mode):
        assert_kernel_equals_oracle(monkeypatch, *random_split(seed, n_frames=12),
                                    thresholds, ap_mode)

    @pytest.mark.parametrize("ap_mode", ["11", "40"])
    @pytest.mark.parametrize("seed", range(3))
    def test_empty_and_out_of_tier_frames(self, monkeypatch, seed, ap_mode):
        report = assert_kernel_equals_oracle(monkeypatch, *edge_split(seed), WIDE, ap_mode)
        assert report["frames"] == 9

    @pytest.mark.parametrize("thresholds,ap_mode", [((0.3, 0.5, 0.7), "11"), (WIDE, "40")])
    def test_synthetic_corpus(self, monkeypatch, synthetic_500, thresholds, ap_mode):
        assert_kernel_equals_oracle(monkeypatch, *synthetic_500, thresholds, ap_mode)

    @pytest.mark.parametrize("seed", range(10))
    def test_overlaps_on_the_thresholds_and_tied(self, monkeypatch, seed):
        # Overlaps drawn from the thresholds themselves, 0 and 0.9: values
        # tie within rows and sit exactly on a pass's threshold.
        rng = np.random.default_rng(seed)
        rows, tiers = {}, {}
        for k in range(8):
            n_pred, n_gt = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            rows[f"{k:06d}"] = rng.choice([0.0, 0.1, 0.25, 0.5, 0.7, 0.9],
                                          size=(2, n_pred, n_gt))
            tiers[f"{k:06d}"] = [Difficulty(int(t)) for t in rng.integers(0, 4, n_gt)]
        gts, preds, overlaps = crafted_split(rows, tiers)
        assert_kernel_equals_oracle(monkeypatch, gts, preds, WIDE, overlaps=overlaps)

    def test_only_out_of_tier_ground_truth(self, monkeypatch):
        # No tier holds a ground truth: no pass runs, and every AP is None.
        gts = {"000000": [tiered_car(Difficulty.IGNORED)]}
        preds = {"000000": [make_car(score=0.5)]}
        report = assert_kernel_equals_oracle(monkeypatch, gts, preds, (0.5,))
        assert report["ap_3d"]["hard"] == {"0.5": None}
        assert report["localization"] is None


def crafted_split(rows_by_frame, tiers_by_frame):
    """Frames of Car predictions with strictly descending scores (so they
    are visited in file order) and ground truths of the given tiers,
    whose overlaps are the given ``(2, n_pred, n_gt)`` matrices."""
    gts, preds, overlaps = {}, {}, {}
    for f, rows in rows_by_frame.items():
        overlaps[f] = np.array(rows, dtype=float)
        preds[f] = [make_car(score=1.0 - 0.1 * i) for i in range(overlaps[f].shape[1])]
        gts[f] = [tiered_car(t) for t in tiers_by_frame[f]]
    return gts, preds, overlaps


def degenerate_car(rng):
    """A Car with random dims, one of them zeroed in about half the draws."""
    dims = rng.uniform(0.5, 3.0, size=3)
    if rng.random() < 0.5:
        dims[rng.integers(3)] = 0.0
    return make_car(x=float(rng.uniform(-2.0, 2.0)), z=float(rng.uniform(18.0, 22.0)),
                    yaw=float(rng.uniform(-np.pi, np.pi)), dims=tuple(dims.tolist()))


class TestDegeneratePairs:
    """A pair degenerate in both boxes is rejected before matching: the
    first in (frame, visit rank, column) order is named."""

    @pytest.mark.parametrize("seed", range(10))
    def test_nan_pairs_never_meet_an_overlap(self, seed):
        # The rule rests on this: a box with a zero dimension overlaps
        # nothing, so its row or column is 0 or NaN throughout, and a NaN
        # footprint pair is a NaN volume pair.
        rng = np.random.default_rng(seed)
        overlaps = frame_table([degenerate_car(rng) for _ in range(8)],
                               [degenerate_car(rng) for _ in range(8)])
        nan = np.isnan(overlaps)
        assert nan[0].any() and (overlaps[0] > 0).any()
        assert not (nan[1] & ~nan[0]).any()
        for plane, holes in zip(overlaps, nan):
            lines = np.concatenate([plane[holes.any(axis=1)].ravel(),
                                    plane[:, holes.any(axis=0)].ravel()])
            assert (np.isnan(lines) | (lines == 0.0)).all()

    def test_nans_in_two_frames_name_the_lower_frame(self):
        # Frame 000003 holds a degenerate pair at rank 0, frame 000001 only
        # at rank 1, behind a match.
        flat = (0.0, 1.63, 3.88)
        gts = {"000001": [make_car(x=-3.0), make_car(x=3.0, dims=flat)],
               "000003": [make_car(dims=flat)]}
        preds = {"000001": [make_car(x=-3.0, score=0.9), make_car(x=3.0, dims=flat, score=0.5)],
                 "000003": [make_car(dims=flat, score=0.9)]}
        with pytest.raises(ValueError, match=r"^frame '000001', prediction 1 and ground "
                                             r"truth 1: both boxes are degenerate$"):
            evaluate_frames(gts, preds)

    def test_split_without_tier_ground_truth_is_checked(self):
        # No tier holds a ground truth, so no pass runs; the pair is still
        # rejected.
        flat = (0.0, 1.63, 3.88)
        gts = {"000000": [tiered_car(Difficulty.IGNORED, dims=flat)]}
        preds = {"000000": [make_car(dims=flat, score=0.5)]}
        with pytest.raises(ValueError, match=r"^frame '000000', prediction 0 and ground "
                                             r"truth 0: both boxes are degenerate$"):
            evaluate_frames(gts, preds)

    def test_footprint_only_nan_is_rejected(self):
        # Negative dims, which only API callers can pass, would give a NaN
        # footprint pair whose volume pair is 0; the box check rejects the
        # box itself, before any pair is clipped.
        box = make_car(dims=(-1.52, -1.63, 3.88), score=0.5)
        with pytest.raises(ValueError, match=r"^frame '000000', prediction 0: centre, dims "
                                             r"and yaw must be finite, dims non-negative"):
            evaluate_frames({"000000": [box]}, {"000000": [box]})


class TestPadding:
    def small_split(self, n_frames):
        rng = np.random.default_rng(21)
        gts, preds = {}, {}
        for k in range(n_frames):
            cars = [tiered_car(Difficulty(int(rng.integers(0, 4))),
                               x=float(rng.uniform(-8, 8)), z=float(rng.uniform(8, 40)))
                    for _ in range(int(rng.integers(1, 4)))]
            gts[f"{k:06d}"] = cars
            preds[f"{k:06d}"] = [make_car(x=c.location[0] + float(rng.normal(0, 0.3)),
                                          z=c.location[2], score=float(rng.choice([0.4, 0.8])))
                                 for c in cars]
        return gts, preds

    def peak(self, gts, preds):
        gts, preds = tables(gts), tables(preds)
        tracemalloc.start()
        try:
            report = evaluation.evaluate_frames(gts, preds, thresholds=WIDE)
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_one_crowded_frame_pads_few_others(self):
        """numpy reports its allocations to tracemalloc. Padded to the
        crowded frame's 100 x 20, every frame would hold 2,000 cells, and
        the rank steps' arrays would reach tens of MB."""
        gts, preds = self.small_split(2000)
        _, base = self.peak(gts, preds)
        rng = np.random.default_rng(5)
        gts["002000"] = [tiered_car(Difficulty.EASY, x=float(x), z=30.0)
                         for x in np.linspace(-40, 40, 20)]
        preds["002000"] = [make_car(x=float(rng.uniform(-40, 40)), z=30.0,
                                    score=float(rng.uniform(0, 1))) for _ in range(100)]
        report, crowded = self.peak(gts, preds)
        assert with_curve_lists(report) == with_curve_lists(oracle_evaluate(gts, preds, WIDE)[0])
        assert crowded < 1.25 * base + 2**20, \
            f"{crowded / 2**20:.1f} MB against {base / 2**20:.1f} MB"


class TestThresholds:
    @pytest.mark.parametrize("thresholds", [(0.0,), (math.nan,), (1.5,), (0.5, 0.50), ()])
    def test_rejected_by_evaluate_frames(self, thresholds):
        gts, preds = random_split(0)
        with pytest.raises(ValueError, match="threshold"):
            evaluate_frames(gts, preds, thresholds=thresholds)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="0.5 more than once"):
            evaluation.check_thresholds((0.5, 0.50))

    def test_one_is_accepted(self):
        car = make_car(score=0.5)
        report = evaluate_frames({"000000": [car]}, {"000000": [car]}, thresholds=(1.0,))
        assert report["ap_bev"]["easy"] == {"1": 1.0}
