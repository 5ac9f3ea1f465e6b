"""Numeric kernel: tolerance policy, small geometric operators, rank and
subspace computations.

Every rank decision in the package funnels through rank_and_nullspace so that
a single threshold convention applies everywhere: a singular value counts
toward the rank when it exceeds rtol * sigma_max. The default rtol adapts to
the matrix shape (1e-10 * max(rows, cols)); an explicit policy value overrides
it for all shapes.

Subspaces are always handled through orthonormal column bases. Containment of
span(A) in span(B) is decided by the Frobenius residual of A's basis after
projecting out B: || (I - Q_B Q_B^T) Q_A ||_F < subspace_tol (below 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

#: Named tolerance presets selectable via the BRL_TOLERANCE_PROFILE env var.
TOLERANCE_PROFILES: dict[str, "TolerancePolicy"]

AXIS_UNIT_TOL = 1e-8


@dataclass(frozen=True)
class TolerancePolicy:
    """Numeric thresholds used across the package.

    rank_rtol None means "adaptive": 1e-10 * max(rows, cols) per matrix.
    Every value is finite and positive. rank_rtol is below 1, since a
    threshold of sigma_max or more zeroes every rank, subspace_tol is below
    1, since at 1 a basis can miss a whole direction and still be contained,
    and fd_step is below 1, since the probe runs at unit formation scale,
    where a step of 1 moves an agent by the formation's radius.
    """

    rank_rtol: float | None = None
    subspace_tol: float = 1e-8
    fd_step: float = 1e-6

    def __post_init__(self) -> None:
        if self.rank_rtol is not None:
            check_tolerance("rank_rtol", self.rank_rtol, below=1.0)
        check_tolerance("subspace_tol", self.subspace_tol, below=1.0)
        check_tolerance("fd_step", self.fd_step, below=1.0)

    def effective_rank_rtol(self, shape: tuple[int, int]) -> float:
        if self.rank_rtol is not None:
            return self.rank_rtol
        return 1e-10 * max(shape)


def check_tolerance(name: str, value: float, below: float = math.inf) -> float:
    """value if it is finite and in (0, below), else a ValidationError."""
    if not (math.isfinite(value) and 0 < value < below):
        bound = "" if below == math.inf else f" and below {below:g}"
        raise ValidationError(f"{name} must be finite, positive{bound}; got {value!r}")
    return value


TOLERANCE_PROFILES = {
    "default": TolerancePolicy(),
    "strict": TolerancePolicy(rank_rtol=1e-12, subspace_tol=1e-10, fd_step=1e-7),
    "relaxed": TolerancePolicy(rank_rtol=1e-8, subspace_tol=1e-6, fd_step=1e-5),
}


def skew(x: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix with skew(x) @ y == cross(x, y); a (..., 3)
    stack of vectors gives a (..., 3, 3) stack of matrices."""
    x = np.asarray(x, dtype=float)
    K = np.zeros(x.shape[:-1] + (3, 3))
    K[..., 0, 1], K[..., 0, 2] = -x[..., 2], x[..., 1]
    K[..., 1, 0], K[..., 1, 2] = x[..., 2], -x[..., 0]
    K[..., 2, 0], K[..., 2, 1] = -x[..., 1], x[..., 0]
    return K


def rotation_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation by `angle` about a unit `axis` (Rodrigues form).

    A zero axis is legal and returns the identity; any other non-unit axis,
    NaN included, is rejected rather than silently normalized.
    """
    axis = np.asarray(axis, dtype=float)
    nrm = np.linalg.norm(axis)
    if nrm == 0.0:
        return np.eye(3)
    if not abs(nrm - 1.0) <= AXIS_UNIT_TOL:  # NaN fails too
        raise ValidationError(f"rotation axis must be unit or zero, norm {nrm:.3e}")
    K = skew(axis)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def rotation_exp(w: np.ndarray) -> np.ndarray:
    """Rotation exp(skew(w)): angle ||w|| about w. Identity for w = 0.

    Rodrigues form in w itself, I + sin(t)/t K + (1 - cos(t))/t^2 K^2 with
    K = skew(w) and t = ||w||, so w is never divided by its norm (for tiny w
    the squared norm underflows and w / ||w|| is not unit). Below t = 1e-8
    both coefficients equal their limits 1 and 1/2 to double precision.
    A (..., 3) stack of vectors gives the (..., 3, 3) stack of rotations,
    each equal to the rotation of its vector alone.
    """
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w, axis=-1)[..., None, None]
    small = theta < 1e-8
    t = np.where(small, 1.0, theta)
    a = np.where(small, 1.0, np.sin(t) / t)
    b = np.where(small, 0.5, 2.0 * (np.sin(t / 2.0) / t) ** 2)
    K = skew(w)
    return np.eye(3) + a * K + b * (K @ K)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random element of SO(3) via a normalized quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def rank_and_nullspace(M: np.ndarray, pol: TolerancePolicy | None = None, *,
                       shape: tuple[int, int] | None = None,
                       ) -> tuple[int, np.ndarray]:
    """Numerical rank and an orthonormal kernel basis, via SVD.

    Returns (rank, N) where N has shape (cols, cols - rank) and orthonormal
    columns spanning the kernel. rank + kernel columns always equals the
    column count.

    Tall matrices are first reduced to the cols x cols R factor of a
    Householder QR: M and R share singular values and right singular vectors,
    and no left factor is ever formed. Unlike a Gram matrix, R does not square
    the condition number. The threshold still uses M's shape. Square matrices
    take the thin SVD directly; wide ones need the full Vh, whose extra rows
    span the kernel.

    shape, when given, is the shape of a matrix B that M stands in for with
    the same Gram matrix (M^T M = B^T B, hence the same singular values and
    kernel); the threshold then uses B's shape, so M decides exactly as B.
    """
    pol = pol or TolerancePolicy()
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim {M.ndim}")
    if not np.all(np.isfinite(M)):
        raise NumericalError("matrix contains NaN or Inf")
    if M.size == 0:
        return 0, np.eye(M.shape[1])
    A = np.linalg.qr(M, mode="r") if M.shape[0] > M.shape[1] else M
    _, s, Vh = np.linalg.svd(A, full_matrices=M.shape[0] < M.shape[1])
    rtol = pol.effective_rank_rtol(M.shape if shape is None else shape)
    rank = int(np.sum(s > rtol * (s[0] if s.size else 0.0)))
    return rank, Vh[rank:].T.copy()


def orthonormal_columns(A: np.ndarray, pol: TolerancePolicy | None = None) -> np.ndarray:
    """Orthonormal basis for the column span of A (possibly rank deficient)."""
    pol = pol or TolerancePolicy()
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValidationError("expected a matrix of basis columns")
    if A.shape[1] == 0:
        return A.reshape(A.shape[0], 0)
    if not np.all(np.isfinite(A)):
        raise NumericalError("basis matrix contains NaN or Inf")
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    thresh = pol.effective_rank_rtol(A.shape) * (s[0] if s.size else 0.0)
    r = int(np.sum(s > thresh))
    return U[:, :r].copy()


def subspace_contains(B: np.ndarray, A: np.ndarray,
                      pol: TolerancePolicy | None = None) -> bool:
    """Is span(A) contained in span(B)? Inputs need not be orthonormal."""
    pol = pol or TolerancePolicy()
    QA = orthonormal_columns(A, pol)
    QB = orthonormal_columns(B, pol)
    if QA.shape[0] != QB.shape[0]:
        raise ValidationError("subspaces live in different ambient dimensions")
    if QA.shape[1] == 0:
        return True
    resid = QA - QB @ (QB.T @ QA)
    return bool(np.linalg.norm(resid) < pol.subspace_tol)
