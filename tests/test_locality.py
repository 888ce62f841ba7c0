import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mono3d.locality import (FeatureBatch, LinearHead, SimilarityGraph, build_graph,
                             quadratic_form, reg_gradient, reg_pairwise, reg_trace,
                             similarity)


def random_instance(seed, m=None, n=None, scale=1.0):
    rng = np.random.default_rng(seed)
    m = m if m is not None else int(rng.integers(1, 51))
    n = n if n is not None else int(rng.integers(2, 33))
    batch = FeatureBatch(
        x=scale * rng.normal(size=(n, m)),
        u2d=rng.uniform(0, 1, size=m),
        z3d=rng.uniform(1, 85, size=m))
    head = LinearHead(w=rng.normal(size=(2, n)), b=rng.normal(size=2))
    graph = build_graph(batch, 100.0)
    return head, batch, graph


BAD_BANDWIDTHS = [float("nan"), float("inf"), float("-inf"), 0.0, -1.0, -10.0]


class TestSimilarity:
    def test_zero_offsets(self):
        assert similarity(0.3, 0.3, 12.0, 12.0, 100.0) == 1.0

    def test_depth_gap_with_default_bandwidth(self):
        assert similarity(0.0, 0.0, 10.0, 20.0, 100.0) == pytest.approx(
            math.exp(-1), abs=1e-9)

    def test_unit_horizontal_gap(self):
        assert similarity(1.0, 0.0, 5.0, 5.0, 100.0) == pytest.approx(
            math.exp(-1), abs=1e-9)

    @pytest.mark.parametrize("lam", BAD_BANDWIDTHS)
    def test_bad_bandwidth(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and positive"):
            similarity(0.0, 0.0, 1.0, 1.0, lam)

    def test_huge_depth_gap_underflows_to_zero(self):
        assert similarity(0.0, 0.0, 1.0, 2000.0, 100.0) == 0.0

    @given(u1=st.floats(-1, 1), u2=st.floats(-1, 1),
           z1=st.floats(0.5, 90), z2=st.floats(0.5, 90))
    def test_bounds_and_symmetry(self, u1, u2, z1, z2):
        s = similarity(u1, u2, z1, z2)
        assert 0.0 <= s <= 1.0
        assert s == similarity(u2, u1, z2, z1)


class TestBuildGraph:
    @pytest.mark.parametrize("lam", BAD_BANDWIDTHS)
    def test_bad_bandwidth(self, lam):
        _, batch, _ = random_instance(0, m=3)
        with pytest.raises(ValueError, match="lam must be finite and positive"):
            build_graph(batch, lam)

    def test_single_object(self):
        batch = FeatureBatch(x=np.ones((3, 1)), u2d=np.array([0.5]),
                             z3d=np.array([10.0]))
        graph = build_graph(batch, 100.0)
        np.testing.assert_allclose(graph.s, [[1.0]])
        np.testing.assert_allclose(graph.d, [1.0])
        np.testing.assert_allclose(graph.p, [[0.0]])

    def test_identical_pair(self):
        batch = FeatureBatch(x=np.zeros((2, 2)), u2d=np.array([0.4, 0.4]),
                             z3d=np.array([10.0, 10.0]))
        graph = build_graph(batch, 100.0)
        np.testing.assert_allclose(graph.s, [[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(graph.p, [[1.0, -1.0], [-1.0, 1.0]])

    def test_matches_scalar_similarity(self):
        _, batch, graph = random_instance(3, m=6, n=4)
        for i in range(6):
            for j in range(6):
                assert graph.s[i, j] == pytest.approx(similarity(
                    batch.u2d[i], batch.u2d[j], batch.z3d[i], batch.z3d[j], 100.0))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("lam", [1e-3, 100.0, 1e4])
    def test_equals_closed_form_bytes(self, seed, lam):
        rng = np.random.default_rng(seed)
        m = 40
        z = rng.uniform(1, 85, size=m)
        z[rng.integers(0, m, size=10)] = z[0]          # duplicate depths
        u = rng.uniform(0, 1, size=m)
        u[: m // 2] *= 1242.0                            # raw pixels: S underflows
        graph = build_graph(FeatureBatch(x=np.zeros((2, m)), u2d=u, z3d=z), lam)
        du = u[:, None] - u[None, :]
        dz = z[:, None] - z[None, :]
        s = np.exp(-du * du - dz * dz / lam)
        d = s.sum(axis=1)
        assert (s == 0).any()
        assert graph.s.tobytes() == s.tobytes()
        assert graph.d.tobytes() == d.tobytes()
        assert graph.p.tobytes() == (np.diag(d) - s).tobytes()

    @given(seed=st.integers(0, 10_000))
    def test_row_sums_vanish(self, seed):
        _, _, graph = random_instance(seed)
        assert np.abs(graph.p.sum(axis=1)).max() <= 1e-12

    @given(seed=st.integers(0, 10_000))
    def test_laplacian_psd_and_symmetric(self, seed):
        _, _, graph = random_instance(seed)
        assert np.array_equal(graph.p, graph.p.T)
        assert np.linalg.eigvalsh(graph.p).min() >= -1e-9


class TestRegularizerForms:
    def test_single_object_is_zero(self):
        head, batch, graph = random_instance(0, m=1)
        assert reg_pairwise(head, batch, graph, 10.0) == 0.0
        assert reg_trace(head, batch, graph, 10.0) == pytest.approx(0.0, abs=1e-12)

    def test_identical_features_give_zero(self):
        batch = FeatureBatch(x=np.ones((4, 5)), u2d=np.linspace(0, 1, 5),
                             z3d=np.full(5, 30.0))
        head = LinearHead(w=np.random.default_rng(1).normal(size=(2, 4)),
                          b=np.zeros(2))
        graph = build_graph(batch, 100.0)
        assert reg_pairwise(head, batch, graph, 10.0) == pytest.approx(0.0, abs=1e-9)

    def test_hand_worked_two_object_case(self):
        batch = FeatureBatch(x=np.array([[1.0, 0.0], [0.0, 0.0]]),
                             u2d=np.array([0.2, 0.2]), z3d=np.array([10.0, 10.0]))
        head = LinearHead(w=np.eye(2), b=np.zeros(2))
        graph = build_graph(batch, 100.0)
        assert reg_pairwise(head, batch, graph, 10.0) == pytest.approx(10.0)
        assert reg_trace(head, batch, graph, 10.0) == pytest.approx(10.0)

    def test_zero_beta_and_zero_laplacian(self):
        head, batch, graph = random_instance(5, m=7)
        assert reg_trace(head, batch, graph, 0.0) == 0.0
        empty = SimilarityGraph(s=graph.s, d=graph.d,
                                p=np.zeros_like(graph.p), lam=graph.lam)
        assert reg_trace(head, batch, empty, 10.0) == pytest.approx(0.0)

    def test_dimension_mismatch_rejected(self):
        head, batch, graph = random_instance(8, m=5, n=4)
        bad_head = LinearHead(w=np.zeros((2, 7)), b=np.zeros(2))
        with pytest.raises(ValueError):
            reg_trace(bad_head, batch, graph, 10.0)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10_000), beta=st.floats(0.0, 20.0))
    def test_pairwise_equals_trace(self, seed, beta):
        head, batch, graph = random_instance(seed)
        a = reg_pairwise(head, batch, graph, beta)
        b = reg_trace(head, batch, graph, beta)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-9)
        assert a >= -1e-12

    @given(seed=st.integers(0, 10_000))
    def test_bias_invariance(self, seed):
        head, batch, graph = random_instance(seed)
        shifted = LinearHead(w=head.w, b=head.b + 17.0)
        assert reg_pairwise(shifted, batch, graph, 10.0) == \
            reg_pairwise(head, batch, graph, 10.0)

    @given(seed=st.integers(0, 10_000))
    def test_feature_translation_invariance(self, seed):
        head, batch, graph = random_instance(seed)
        offset = np.random.default_rng(seed + 1).normal(size=(batch.x.shape[0], 1))
        moved = FeatureBatch(x=batch.x + offset, u2d=batch.u2d, z3d=batch.z3d)
        assert reg_trace(head, moved, graph, 10.0) == pytest.approx(
            reg_trace(head, batch, graph, 10.0), rel=1e-8, abs=1e-8)

    def test_stronger_similarity_never_decreases_penalty(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 2))
        head = LinearHead(w=rng.normal(size=(2, 4)), b=np.zeros(2))
        batch = FeatureBatch(x=x, u2d=np.array([0.1, 0.9]), z3d=np.array([10.0, 30.0]))
        values = []
        for s12 in (0.1, 0.5, 0.9):
            s = np.array([[1.0, s12], [s12, 1.0]])
            graph = SimilarityGraph(s=s, d=s.sum(1), p=np.diag(s.sum(1)) - s, lam=100.0)
            values.append(reg_trace(head, batch, graph, 10.0))
        assert values[0] < values[1] < values[2]


def finite_difference_gradient(head, batch, graph, beta, step=1e-6):
    grad = np.zeros_like(head.w)
    for i in range(head.w.shape[0]):
        for j in range(head.w.shape[1]):
            plus = head.w.copy()
            minus = head.w.copy()
            plus[i, j] += step
            minus[i, j] -= step
            grad[i, j] = (reg_trace(LinearHead(plus, head.b), batch, graph, beta)
                          - reg_trace(LinearHead(minus, head.b), batch, graph, beta)
                          ) / (2 * step)
    return grad


class TestRegGradient:
    def test_zero_weights(self):
        _, batch, graph = random_instance(2, m=6, n=4)
        head = LinearHead(w=np.zeros((2, 4)), b=np.zeros(2))
        assert np.all(reg_gradient(head, batch, graph, 10.0) == 0.0)

    def test_single_object(self):
        head, batch, graph = random_instance(3, m=1, n=4)
        assert reg_gradient(head, batch, graph, 10.0) == pytest.approx(
            np.zeros((2, 4)), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_central_finite_differences(self, seed):
        head, batch, graph = random_instance(seed, m=5, n=4)
        analytic = reg_gradient(head, batch, graph, 10.0)
        numeric = finite_difference_gradient(head, batch, graph, 10.0)
        denom = max(np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom <= 1e-5


class TestQuadraticForm:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_reg_trace_keeps_the_cheap_association(self, seed):
        head, batch, graph = random_instance(seed)
        y = head.w @ batch.x
        expected = 7.5 * float(np.trace(y @ graph.p @ y.T))
        assert reg_trace(head, batch, graph, 7.5) == expected

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_stack_equals_per_slice_calls_bitwise(self, k):
        rng = np.random.default_rng(k)
        m = np.stack([a @ a.T for a in rng.normal(size=(k, 24, 24))])
        b = rng.normal(size=(k, 2, 24))
        values, grads = quadratic_form(b, m, 10.0)
        assert values.shape == (k,) and grads.shape == (k, 2, 24)
        for i in range(k):
            value, grad = quadratic_form(b[i], m[i], 10.0)
            assert values[i].tobytes() == value.tobytes()
            assert grads[i].tobytes() == grad.tobytes()

    @given(seed=st.integers(0, 10_000))
    def test_weight_form_equals_trace_form(self, seed):
        """B = W with M = X P X^T gives R(W) and the gradient in W directly."""
        head, batch, graph = random_instance(seed)
        value, grad = quadratic_form(head.w, batch.x @ graph.p @ batch.x.T, 3.0)
        assert float(value) == pytest.approx(reg_trace(head, batch, graph, 3.0),
                                             rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(grad, reg_gradient(head, batch, graph, 3.0), rtol=1e-9,
                                   atol=1e-9 * max(np.abs(grad).max(), 1.0))
