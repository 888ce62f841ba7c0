"""Locality-preserving regularisation of a linear 3D-centre head.

Objects close together horizontally in the image and similar in depth
should stay close in 3D. The pairwise similarity

    s_ij = exp(-(u_i - u_j)^2 - (z_i - z_j)^2 / lam)

weights a quadratic penalty on head-output differences,

    R(W) = (beta/2) * sum_ij ||W x_i - W x_j||^2 s_ij,

which collapses to the graph-Laplacian trace form
``beta * tr(W X P X^T W^T)`` with ``P = D - S``. Horizontal offsets are
expected pre-normalised by image width so the exponent stays in range;
raw-pixel offsets are accepted but make off-diagonal similarities
underflow to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_LAMBDA = 100.0
DEFAULT_BETA = 10.0


@dataclass
class FeatureBatch:
    """Head inputs and graph coordinates for M objects.

    ``x`` is n x M with one feature column per object, ``u2d`` the
    horizontal image offsets and ``z3d`` the ground-truth depths. The
    graph is always built from ground truth, never from predictions.
    """

    x: np.ndarray
    u2d: np.ndarray
    z3d: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.u2d = np.asarray(self.u2d, dtype=float)
        self.z3d = np.asarray(self.z3d, dtype=float)
        if self.x.ndim != 2:
            raise ValueError("features must be an n x M matrix")
        m = self.x.shape[1]
        if m < 1 or self.u2d.shape != (m,) or self.z3d.shape != (m,):
            raise ValueError("u2d/z3d must be length-M vectors matching features")
        if np.any(self.z3d <= 0):
            raise ValueError("depths must be positive")

    @property
    def size(self) -> int:
        return self.x.shape[1]


@dataclass
class LinearHead:
    """Weights and bias of the fully connected layer y = W x + b."""

    w: np.ndarray  # 2 x n
    b: np.ndarray  # length 2

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.b = np.asarray(self.b, dtype=float)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.w @ x + self.b[:, None]


@dataclass
class SimilarityGraph:
    """Similarity matrix S, degree vector d, and Laplacian P = D - S."""

    s: np.ndarray
    d: np.ndarray
    p: np.ndarray
    lam: float


def check_lam(lam: float) -> None:
    """Reject a similarity bandwidth that is not finite and positive."""
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam}")


def similarity(u_i: float, u_j: float, z_i: float, z_j: float,
               lam: float = DEFAULT_LAMBDA) -> float:
    """Pairwise similarity in (0, 1]; 1 exactly at zero offsets.

    Computed in log space so a large depth gap underflows the result to 0
    instead of overflowing the depth factor.
    """
    check_lam(lam)
    du = u_i - u_j
    dz = z_i - z_j
    return math.exp(-du * du - dz * dz / lam)


def build_graph(batch: FeatureBatch, lam: float = DEFAULT_LAMBDA) -> SimilarityGraph:
    """Build the all-pairs similarity graph of a batch from ground truth.

    Works in place, with the same float operations in the same order as
    ``np.exp(-du * du - dz * dz / lam)`` and ``np.diag(d) - s``.
    """
    check_lam(lam)
    s = batch.u2d[:, None] - batch.u2d[None, :]
    dz = batch.z3d[:, None] - batch.z3d[None, :]
    s *= s
    np.negative(s, out=s)
    dz *= dz
    dz /= lam
    s -= dz
    del dz
    np.exp(s, out=s)
    d = s.sum(axis=1)
    p = np.diag(d)
    p -= s
    return SimilarityGraph(s=s, d=d, p=p, lam=lam)


def _check_shapes(head: LinearHead, batch: FeatureBatch, graph: SimilarityGraph):
    n, m = batch.x.shape
    if head.w.shape != (2, n):
        raise ValueError(f"head weights {head.w.shape} do not match feature dim {n}")
    if graph.s.shape != (m, m):
        raise ValueError(f"graph size {graph.s.shape} does not match batch size {m}")


def quadratic_form(b: np.ndarray, m: np.ndarray,
                   beta: float) -> tuple[np.ndarray, np.ndarray]:
    """``(beta * tr(B M B^T), 2*beta * B M)`` for symmetric M, from one B @ M.

    The one home of R(W) and its gradient: with B = W X and M = P it is
    the trace form, with B = W and M = X P X^T the same value and the
    gradient in W. ``b`` and ``m`` may be K-stacks of matrices, giving K
    values and K gradients, each bitwise equal to its own 2-D call.
    """
    bm = b @ m
    value = beta * np.trace(bm @ np.swapaxes(b, -1, -2), axis1=-2, axis2=-1)
    return value, 2.0 * beta * bm


def reg_pairwise(head: LinearHead, batch: FeatureBatch, graph: SimilarityGraph,
                 beta: float = DEFAULT_BETA) -> float:
    """Direct double-sum form: (beta/2) * sum_ij ||W x_i - W x_j||^2 s_ij.

    The bias cancels in every difference and cannot affect the value.
    """
    _check_shapes(head, batch, graph)
    y = head.w @ batch.x  # 2 x M
    diff = y[:, :, None] - y[:, None, :]
    sq = np.einsum("kij,kij->ij", diff, diff)
    return 0.5 * beta * float((sq * graph.s).sum())


def reg_trace(head: LinearHead, batch: FeatureBatch, graph: SimilarityGraph,
              beta: float = DEFAULT_BETA) -> float:
    """Laplacian trace form: beta * tr(W X P X^T W^T).

    Equal to :func:`reg_pairwise` on the same inputs; the 2x2 trace
    argument makes this the cheap route.
    """
    _check_shapes(head, batch, graph)
    value, _ = quadratic_form(head.w @ batch.x, graph.p, beta)
    return float(value)


def reg_gradient(head: LinearHead, batch: FeatureBatch, graph: SimilarityGraph,
                 beta: float = DEFAULT_BETA) -> np.ndarray:
    """Gradient of the trace form with respect to W: 2*beta * W X P X^T."""
    _check_shapes(head, batch, graph)
    _, grad = quadratic_form(head.w @ batch.x, graph.p, beta)
    return grad @ batch.x.T
