import math

import numpy as np
import pytest

from mono3d.geometry import Box2D, Box3D, box3d_corners
from mono3d.locality import FeatureBatch, LinearHead, build_graph, reg_trace
from mono3d.losses import (GridTarget, LossConfig, PredictionBatch, build_grid_target,
                           coarse_center, confidence_loss, confidence_loss_gradient,
                           grid_cell, l1, loss_2d, loss_2d_gradients, loss_center3d,
                           loss_center3d_gradients, loss_corners, loss_corners_gradient,
                           loss_depth, loss_depth_gradients)

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
    def test_identical(self):
        assert l1([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_simple(self):
        assert l1([1.0, 2.0], [0.0, 0.0]) == 3.0

    def test_symmetric(self):
        a, b = np.array([1.5, -2.0, 0.25]), np.array([0.0, 4.0, 1.0])
        assert l1(a, b) == l1(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            l1([1.0, 2.0], [1.0])


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

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=(3, 3, 2))
        targets = rng.integers(0, 2, size=(3, 3)).astype(float)
        grad = confidence_loss_gradient(scores, targets)
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
        d_scores, d_box = loss_2d_gradients(pred, target, cfg)

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
        d_coa, d_delta = loss_depth_gradients(pred, target, cfg)

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
        d_coa, d_delta = loss_center3d_gradients(pred, target)
        head, batch, graph = tiny_graph_inputs()
        cfg = LossConfig()

        def of_coa(c):
            return loss_center3d(PredictionBatch(pred.scores, pred.box2d, pred.z_coa,
                                                 pred.z_delta, c, pred.c_delta,
                                                 pred.corners),
                                 target, head, batch, graph, cfg)

        check_gradient(of_coa, d_coa, pred.c_coa, 12, 6)

    def test_loss_corners(self):
        target, base = small_scene()
        pred = perturbed(target, base, 4)
        grad = loss_corners_gradient(pred, target)

        def of_corners(c):
            return loss_corners(PredictionBatch(pred.scores, pred.box2d, pred.z_coa,
                                                pred.z_delta, pred.c_coa, pred.c_delta,
                                                c), target)

        check_gradient(of_corners, grad, pred.corners, 16, 7)


class TestCoarseCenter:
    def test_principal_point(self, calib):
        box = Box2D(center_u=600.0, center_v=170.0, width=50.0, height=40.0)
        assert coarse_center(box, 10.0, calib) == (0.0, 0.0, 10.0)

    def test_matches_inverse_projection(self, calib):
        from mono3d.geometry import inverse_project
        box = Box2D(center_u=712.0, center_v=200.0, width=50.0, height=40.0)
        x, y = inverse_project((712.0, 200.0), 23.0, calib)
        assert coarse_center(box, 23.0, calib) == (x, y, 23.0)

    def test_direct_value(self, calib):
        box = Box2D(center_u=670.0, center_v=170.0, width=50.0, height=40.0)
        assert coarse_center(box, 10.0, calib)[0] == pytest.approx(1.0)

    def test_bad_depth(self, calib):
        box = Box2D(center_u=600.0, center_v=170.0, width=50.0, height=40.0)
        with pytest.raises(ValueError):
            coarse_center(box, 0.0, calib)


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
