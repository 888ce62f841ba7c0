import math

import numpy as np
import pytest

from mono3d.geometry import Box2D, Box3D, box3d_corners
from mono3d.locality import FeatureBatch, LinearHead, build_graph, reg_trace
from mono3d.losses import (GridTarget, LossConfig, PredictionBatch, _masked_l1,
                           build_grid_target, confidence_loss, grid_cell, loss_2d,
                           loss_center3d, loss_corners, loss_depth, loss_subgradients)

IMAGE_W, IMAGE_H = 1242.0, 375.0


def small_scene(rows=8, cols=8, n_objects=3, seed=0):
    """A grid target plus a matching perfect prediction."""
    rng = np.random.default_rng(seed)
    boxes, depths, centers, corners = [], [], [], []
    for k in range(n_objects):
        u = (k + 0.5) * IMAGE_W / n_objects
        v = IMAGE_H / 2 + 30 * (k - 1)
        boxes.append(Box2D(center_u=u, center_v=v, width=80.0, height=50.0))
        z = 10.0 + 15.0 * k
        depths.append(z)
        box3d = Box3D(center=(0.5 * k, 1.5, z), dims=(1.5, 1.7, 4.0), yaw=0.3 * k)
        centers.append(box3d.center)
        corners.append(box3d_corners(box3d))
    target = build_grid_target(boxes, depths, np.array(centers), np.array(corners),
                               IMAGE_W, IMAGE_H, rows, cols)

    pred = PredictionBatch.zeros(rows, cols)
    pred.scores[..., 0] = -10.0  # confident empty everywhere
    pred.scores[..., 1] = 10.0
    mask = target.mask
    pred.scores[mask] = (10.0, -10.0)
    pred.box2d = target.box2d.copy()
    pred.z_coa = target.z.copy()
    pred.c_coa = target.c3d.copy()
    pred.corners = target.corners.copy()
    return target, pred


def tiny_graph_inputs(n=4, m=5, seed=0):
    rng = np.random.default_rng(seed)
    batch = FeatureBatch(x=rng.normal(size=(n, m)), u2d=rng.uniform(0, 1, m),
                         z3d=rng.uniform(5, 60, m))
    head = LinearHead(w=rng.normal(size=(2, n)), b=rng.normal(size=2))
    return head, batch, build_graph(batch, 100.0)


class TestL1:
    """The masked L1 kernel behind the box, depth, centre and corner terms:
    the sum of |residual| over occupied cells, and the sign everywhere."""

    mask = np.array([[True, False]])

    def test_identical(self):
        value, sign = _masked_l1(np.zeros((1, 2, 3)), self.mask)
        assert value == 0.0 and not sign.any()

    def test_simple(self):
        value, sign = _masked_l1(np.array([[[1.0, -2.0], [50.0, 50.0]]]), self.mask)
        assert value == 3.0  # the empty cell's residual is masked out
        assert sign.tolist() == [[[1.0, -1.0], [1.0, 1.0]]]

    def test_symmetric(self):
        residual = np.array([[[1.5, -2.0, 0.25], [3.0, 0.0, -1.0]]])
        value, sign = _masked_l1(residual, self.mask)
        negated_value, negated_sign = _masked_l1(-residual, self.mask)
        assert value == negated_value and np.array_equal(sign, -negated_sign)

    def test_length_mismatch(self):
        # A prediction grid that differs from the target's is rejected
        # before any residual is built.
        target, _ = small_scene(rows=8, cols=8)
        with pytest.raises(ValueError, match="grid shapes differ"):
            loss_subgradients(PredictionBatch.zeros(4, 4), target, LossConfig())


class TestConfidenceLoss:
    def test_confident_correct_is_negligible(self):
        scores = np.zeros((2, 2, 2))
        scores[..., 1] = 20.0
        targets = np.zeros((2, 2))
        assert confidence_loss(scores, targets) < 1e-8

    def test_uniform_scores_on_object(self):
        scores = np.zeros((1, 1, 2))
        targets = np.ones((1, 1))
        assert confidence_loss(scores, targets) == pytest.approx(math.log(2))

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(4, 4, 2))
        targets = rng.integers(0, 2, size=(4, 4)).astype(float)
        shifted = scores + 3.7
        assert confidence_loss(shifted, targets) == pytest.approx(
            confidence_loss(scores, targets), rel=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            confidence_loss(np.zeros((1, 1, 2)), np.array([[1.5]]))

    @pytest.mark.parametrize("value", [math.nan, -0.5, 1.5])
    def test_value_and_gradient_check_the_target_range(self, value):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            confidence_loss(np.zeros((1, 1, 2)), np.array([[value]]))
        target = GridTarget.empty(1, 1)
        target.pr_obj[0, 0] = value
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            loss_subgradients(PredictionBatch.zeros(1, 1), target, LossConfig())

    def test_gradient_checks_the_target_shape(self):
        target = GridTarget.empty(2, 2)
        target.pr_obj = np.zeros((2, 3))
        with pytest.raises(ValueError, match="do not match targets"):
            loss_subgradients(PredictionBatch.zeros(2, 2), target, LossConfig())

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=(3, 3, 2))
        targets = rng.integers(0, 2, size=(3, 3)).astype(float)
        target = GridTarget.empty(3, 3)
        target.pr_obj = targets
        pred = PredictionBatch.zeros(3, 3)
        pred.scores = scores
        grad = loss_subgradients(pred, target, LossConfig()).scores
        step = 1e-6
        for idx in np.ndindex(scores.shape):
            plus, minus = scores.copy(), scores.copy()
            plus[idx] += step
            minus[idx] -= step
            fd = (confidence_loss(plus, targets)
                  - confidence_loss(minus, targets)) / (2 * step)
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestGridAssignment:
    def test_cell_of_center(self):
        # the exact midpoint sits on a boundary, which ties to the lower cell
        assert grid_cell(IMAGE_W / 2, IMAGE_H / 2, IMAGE_W, IMAGE_H) == (15, 15)
        assert grid_cell(IMAGE_W / 2 + 1, IMAGE_H / 2 + 1, IMAGE_W, IMAGE_H) == (16, 16)

    def test_boundary_goes_to_lower_index(self):
        cell_w = IMAGE_W / 32
        cell_h = IMAGE_H / 32
        assert grid_cell(cell_w, cell_h, IMAGE_W, IMAGE_H) == (0, 0)
        assert grid_cell(2 * cell_w, 0.0, IMAGE_W, IMAGE_H) == (0, 1)

    def test_corners_clamped(self):
        assert grid_cell(0.0, 0.0, IMAGE_W, IMAGE_H) == (0, 0)
        assert grid_cell(IMAGE_W, IMAGE_H, IMAGE_W, IMAGE_H) == (31, 31)

    def test_occupied_cells_match_object_centres(self):
        target, _ = small_scene()
        assert int(target.has_object.sum()) == 3
        assert np.array_equal(target.pr_obj, target.has_object)


class TestLoss2D:
    def test_perfect_prediction(self):
        target, pred = small_scene()
        assert loss_2d(pred, target, LossConfig()) < 1e-8

    def test_empty_grid_reduces_to_confidence(self):
        target = GridTarget.empty(4, 4)
        pred = PredictionBatch.zeros(4, 4)
        pred.box2d += 5.0
        cfg = LossConfig()
        assert loss_2d(pred, target, cfg) == pytest.approx(
            confidence_loss(pred.scores, target.pr_obj))

    def test_alpha_zero(self):
        target, pred = small_scene()
        pred.box2d += 1.0
        cfg = LossConfig(alpha=0.0)
        assert loss_2d(pred, target, cfg) == pytest.approx(
            confidence_loss(pred.scores, target.pr_obj))

    def test_affine_in_alpha(self):
        target, pred = small_scene()
        pred.box2d += 0.7
        values = [loss_2d(pred, target, LossConfig(alpha=a)) for a in (0.0, 1.0, 2.0)]
        assert values[2] - values[1] == pytest.approx(values[1] - values[0], rel=1e-9)

    def test_shape_mismatch(self):
        target, _ = small_scene(rows=8, cols=8)
        with pytest.raises(ValueError):
            loss_2d(PredictionBatch.zeros(4, 4), target, LossConfig())


class TestLossDepth:
    def test_perfect(self):
        target, pred = small_scene()
        assert loss_depth(pred, target, LossConfig()) == 0.0

    def test_coarse_plus_residual_cancellation(self):
        target, pred = small_scene(n_objects=1)
        mask = target.mask
        pred.z_coa[mask] = target.z[mask] - 1.0
        pred.z_delta[mask] = 1.0
        # z = 10, coarse 9, residual 1: gamma * 1 + 0
        assert loss_depth(pred, target, LossConfig(gamma=10.0)) == pytest.approx(10.0)

    def test_affine_in_gamma(self):
        target, pred = small_scene()
        pred.z_coa += 0.3
        values = [loss_depth(pred, target, LossConfig(gamma=g)) for g in (0.0, 1.0, 2.0)]
        assert values[2] - values[1] == pytest.approx(values[1] - values[0], rel=1e-9)


class TestLossCenter3D:
    def test_perfect_with_zero_weights(self):
        target, pred = small_scene()
        head, batch, graph = tiny_graph_inputs()
        head = LinearHead(w=np.zeros_like(head.w), b=head.b)
        assert loss_center3d(pred, target, head, batch, graph, LossConfig()) == \
            pytest.approx(0.0, abs=1e-12)

    def test_perfect_centers_reduce_to_regularizer(self):
        target, pred = small_scene()
        head, batch, graph = tiny_graph_inputs()
        cfg = LossConfig()
        assert loss_center3d(pred, target, head, batch, graph, cfg) == \
            pytest.approx(reg_trace(head, batch, graph, cfg.beta))

    def test_beta_zero_is_plain_l1(self):
        target, pred = small_scene()
        pred.c_coa += 0.5
        head, batch, graph = tiny_graph_inputs()
        cfg = LossConfig(beta=0.0)
        mask = target.mask
        expected = np.abs(pred.c_coa[mask] + pred.c_delta[mask]
                          - target.c3d[mask]).sum()
        assert loss_center3d(pred, target, head, batch, graph, cfg) == \
            pytest.approx(expected)


class TestLossCorners:
    def test_perfect(self):
        target, pred = small_scene()
        assert loss_corners(pred, target) == 0.0

    def test_single_corner_offset(self):
        target, pred = small_scene(n_objects=1)
        r, c = np.argwhere(target.mask)[0]
        pred.corners[r, c, 2, 0] += 1.0
        assert loss_corners(pred, target) == pytest.approx(1.0)

    def test_corner_order_is_positional(self):
        target, pred = small_scene(n_objects=1)
        r, c = np.argwhere(target.mask)[0]
        swapped = pred.corners.copy()
        swapped[r, c, [0, 2]] = swapped[r, c, [2, 0]]
        pred.corners = swapped
        assert loss_corners(pred, target) > 0.1


class TestIndicatorMasking:
    def test_empty_cell_mutations_are_invisible(self):
        target, pred = small_scene()
        cfg = LossConfig()
        head, batch, graph = tiny_graph_inputs()
        baseline = (loss_2d(pred, target, cfg), loss_depth(pred, target, cfg),
                    loss_center3d(pred, target, head, batch, graph, cfg),
                    loss_corners(pred, target))
        empty = ~target.mask
        pred.box2d[empty] = 123.456
        pred.z_coa[empty] = -55.0
        pred.z_delta[empty] = 7.0
        pred.c_coa[empty] = 99.0
        pred.c_delta[empty] = -3.0
        pred.corners[empty] = 41.5
        mutated = (loss_2d(pred, target, cfg), loss_depth(pred, target, cfg),
                   loss_center3d(pred, target, head, batch, graph, cfg),
                   loss_corners(pred, target))
        assert baseline == mutated  # bit-identical


def perturbed(target, pred, seed):
    """Predictions displaced away from every kink by at least 0.1."""
    rng = np.random.default_rng(seed)
    out = PredictionBatch(
        scores=rng.normal(size=pred.scores.shape),
        box2d=pred.box2d + rng.uniform(0.1, 1.0, pred.box2d.shape)
        * rng.choice([-1.0, 1.0], pred.box2d.shape),
        z_coa=pred.z_coa + rng.uniform(0.1, 1.0, pred.z_coa.shape)
        * rng.choice([-1.0, 1.0], pred.z_coa.shape),
        z_delta=rng.uniform(0.1, 0.4, pred.z_delta.shape),
        c_coa=pred.c_coa + rng.uniform(0.1, 1.0, pred.c_coa.shape)
        * rng.choice([-1.0, 1.0], pred.c_coa.shape),
        c_delta=rng.uniform(0.1, 0.4, pred.c_delta.shape),
        corners=pred.corners + rng.uniform(0.1, 1.0, pred.corners.shape)
        * rng.choice([-1.0, 1.0], pred.corners.shape),
    )
    return out


def central_difference(f, array, idx, step=1e-5):
    plus, minus = array.copy(), array.copy()
    plus[idx] += step
    minus[idx] -= step
    return f(plus), f(minus), step


def check_gradient(loss_of, grad, array, samples, seed):
    rng = np.random.default_rng(seed)
    flat = [tuple(rng.integers(0, s) for s in array.shape) for _ in range(samples)]
    for idx in flat:
        plus, minus, step = central_difference(loss_of, array, idx)
        fd = (plus - minus) / (2 * 1e-5)
        assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)


class TestAnalyticSubgradients:
    def test_loss_2d(self):
        target, base = small_scene()
        pred = perturbed(target, base, 1)
        cfg = LossConfig(alpha=3.0)
        grads = loss_subgradients(pred, target, cfg)
        d_scores, d_box = grads.scores, grads.box2d

        def of_scores(s):
            return loss_2d(PredictionBatch(s, pred.box2d, pred.z_coa, pred.z_delta,
                                           pred.c_coa, pred.c_delta, pred.corners),
                           target, cfg)

        def of_box(b):
            return loss_2d(PredictionBatch(pred.scores, b, pred.z_coa, pred.z_delta,
                                           pred.c_coa, pred.c_delta, pred.corners),
                           target, cfg)

        check_gradient(of_scores, d_scores, pred.scores, 12, 2)
        check_gradient(of_box, d_box, pred.box2d, 12, 3)

    def test_loss_depth(self):
        target, base = small_scene()
        pred = perturbed(target, base, 2)
        cfg = LossConfig(gamma=5.0)
        grads = loss_subgradients(pred, target, cfg)
        d_coa, d_delta = grads.z_coa, grads.z_delta

        def of_coa(z):
            return loss_depth(PredictionBatch(pred.scores, pred.box2d, z, pred.z_delta,
                                              pred.c_coa, pred.c_delta, pred.corners),
                              target, cfg)

        def of_delta(z):
            return loss_depth(PredictionBatch(pred.scores, pred.box2d, pred.z_coa, z,
                                              pred.c_coa, pred.c_delta, pred.corners),
                              target, cfg)

        check_gradient(of_coa, d_coa, pred.z_coa, 12, 4)
        check_gradient(of_delta, d_delta, pred.z_delta, 12, 5)

    def test_loss_center3d(self):
        target, base = small_scene()
        pred = perturbed(target, base, 3)
        head, batch, graph = tiny_graph_inputs()
        cfg = LossConfig()
        grads = loss_subgradients(pred, target, cfg)

        def of_coa(c):
            return loss_center3d(PredictionBatch(pred.scores, pred.box2d, pred.z_coa,
                                                 pred.z_delta, c, pred.c_delta,
                                                 pred.corners),
                                 target, head, batch, graph, cfg)

        def of_delta(c):
            return loss_center3d(PredictionBatch(pred.scores, pred.box2d, pred.z_coa,
                                                 pred.z_delta, pred.c_coa, c,
                                                 pred.corners),
                                 target, head, batch, graph, cfg)

        check_gradient(of_coa, grads.c_coa, pred.c_coa, 12, 6)
        check_gradient(of_delta, grads.c_delta, pred.c_delta, 12, 8)

    def test_loss_corners(self):
        target, base = small_scene()
        pred = perturbed(target, base, 4)
        grad = loss_subgradients(pred, target, LossConfig()).corners

        def of_corners(c):
            return loss_corners(PredictionBatch(pred.scores, pred.box2d, pred.z_coa,
                                                pred.z_delta, pred.c_coa, pred.c_delta,
                                                c), target)

        check_gradient(of_corners, grad, pred.corners, 16, 7)


class TestFractionalIndicator:
    """Values and subgradients read one indicator, ``has_object > 0.5``,
    so a fractional ``has_object`` counts in both or in neither."""

    def test_depth_subgradient_matches_finite_differences(self):
        target, pred = GridTarget.empty(1, 2), PredictionBatch.zeros(1, 2)
        target.has_object[0] = (0.7, 0.3)
        target.z[0] = (2.0, 2.0)
        pred.z_delta[0] = (0.5, 0.5)
        cfg = LossConfig(gamma=1.0)
        grads = loss_subgradients(pred, target, cfg)

        def of_coa(z):
            return loss_depth(PredictionBatch(pred.scores, pred.box2d, z, pred.z_delta,
                                              pred.c_coa, pred.c_delta, pred.corners),
                              target, cfg)

        assert loss_depth(pred, target, cfg) == 3.5  # the 0.7 cell only: 2 + 1.5
        check_gradient(of_coa, grads.z_coa, pred.z_coa, 4, 9)
        assert grads.z_coa.tolist() == [[-2.0, 0.0]]
        assert grads.z_delta.tolist() == [[-1.0, 0.0]]


# Each loss and subgradient as it was written before one kernel gave them
# all: the oracle for byte-for-byte equality on 0/1 indicator grids.
def reference_values(pred, target, cfg, head, batch, graph):
    mask = target.mask
    log_p = pred.scores - np.logaddexp(pred.scores[..., 0], pred.scores[..., 1])[..., None]
    pr_obj = target.pr_obj
    conf = float((-(pr_obj * log_p[..., 0] + (1.0 - pr_obj) * log_p[..., 1])).mean())
    box_term = float(np.abs(pred.box2d[mask] - target.box2d[mask]).sum())
    coarse = float(np.abs(pred.z_coa[mask] - target.z[mask]).sum())
    refined = float(np.abs(pred.z_coa[mask] + pred.z_delta[mask] - target.z[mask]).sum())
    center = float(np.abs(pred.c_coa[mask] + pred.c_delta[mask] - target.c3d[mask]).sum())
    corners = float(np.abs(pred.corners[mask] - target.corners[mask]).sum())
    return (conf + cfg.alpha * box_term, cfg.gamma * coarse + refined,
            center + reg_trace(head, batch, graph, cfg.beta), corners)


def reference_confidence_loss_gradient(scores, pr_obj):
    p = np.exp(scores - np.logaddexp(scores[..., 0], scores[..., 1])[..., None])
    t = np.stack([pr_obj, 1.0 - pr_obj], axis=-1)
    return (p - t) / pr_obj.size


def reference_loss_2d_gradients(pred, target, cfg):
    d_scores = reference_confidence_loss_gradient(pred.scores, target.pr_obj)
    d_box = cfg.alpha * target.has_object[..., None] * np.sign(pred.box2d - target.box2d)
    return d_scores, d_box


def reference_loss_depth_gradients(pred, target, cfg):
    ind = target.has_object
    refined_sign = np.sign(pred.z_coa + pred.z_delta - target.z)
    d_coa = ind * (cfg.gamma * np.sign(pred.z_coa - target.z) + refined_sign)
    d_delta = ind * refined_sign
    return d_coa, d_delta


def reference_loss_center3d_gradients(pred, target):
    ind = target.has_object[..., None]
    sign = ind * np.sign(pred.c_coa + pred.c_delta - target.c3d)
    return sign, sign.copy()


def reference_loss_corners_gradient(pred, target):
    ind = target.has_object[..., None, None]
    return ind * np.sign(pred.corners - target.corners)


def random_grid(rng):
    """A 1-8 x 1-8 grid at 40 % occupancy whose predictions sit on L1 kinks
    in about a third of their entries, and are sometimes all zero."""
    rows, cols = (int(n) for n in rng.integers(1, 9, 2))
    has_object = (rng.random((rows, cols)) < 0.4).astype(float)
    pr_obj = np.where(rng.random((rows, cols)) < 0.5, has_object, rng.random((rows, cols)))
    target = GridTarget(has_object, pr_obj, rng.normal(size=(rows, cols, 4)),
                        rng.normal(size=(rows, cols)), rng.normal(size=(rows, cols, 3)),
                        rng.normal(size=(rows, cols, 8, 3)))

    def near(exact):
        out = np.round(rng.normal(size=exact.shape), 1)
        kink = rng.random(exact.shape) < 0.3
        out[kink] = exact[kink]
        return out * (rng.random() >= 0.2)

    z_coa = near(target.z)
    pred = PredictionBatch(
        scores=rng.normal(size=(rows, cols, 2)) * rng.choice([0.0, 1.0, 30.0]),
        box2d=near(target.box2d), z_coa=z_coa,
        z_delta=np.where(rng.random((rows, cols)) < 0.3, target.z - z_coa, near(target.z)),
        c_coa=near(target.c3d),
        c_delta=np.where(rng.random((rows, cols, 3)) < 0.3, 0.0, near(target.c3d)),
        corners=near(target.corners))
    cfg = LossConfig(alpha=float(rng.choice([0.0, 3.0, 10.0])),
                     gamma=float(rng.choice([0.0, 5.0, 10.0])))
    return target, pred, cfg


class TestReferenceOracle:
    def test_values_and_subgradients_equal_the_references_byte_for_byte(self):
        rng = np.random.default_rng(23)
        head, batch, graph = tiny_graph_inputs()

        def as_bytes(arrays):
            return [(a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]

        for _ in range(500):
            target, pred, cfg = random_grid(rng)
            values = (loss_2d(pred, target, cfg), loss_depth(pred, target, cfg),
                      loss_center3d(pred, target, head, batch, graph, cfg),
                      loss_corners(pred, target))
            assert as_bytes(values) == as_bytes(
                reference_values(pred, target, cfg, head, batch, graph))
            grads = loss_subgradients(pred, target, cfg)
            expected = (*reference_loss_2d_gradients(pred, target, cfg),
                        *reference_loss_depth_gradients(pred, target, cfg),
                        *reference_loss_center3d_gradients(pred, target),
                        reference_loss_corners_gradient(pred, target))
            assert as_bytes([grads.scores, grads.box2d, grads.z_coa, grads.z_delta,
                             grads.c_coa, grads.c_delta, grads.corners]) == as_bytes(expected)


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert (cfg.alpha, cfg.beta, cfg.gamma, cfg.lam) == (10.0, 10.0, 10.0, 100.0)

    @pytest.mark.parametrize("kwargs", [dict(lam=0.0), dict(lam=-5.0),
                                        dict(alpha=-1.0), dict(gamma=-0.1),
                                        dict(lam=float("nan")), dict(lam=float("inf")),
                                        dict(alpha=float("nan")), dict(beta=float("inf")),
                                        dict(gamma=float("nan"))])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LossConfig(**kwargs)
