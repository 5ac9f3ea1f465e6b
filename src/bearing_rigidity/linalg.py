"""Numeric kernel: tolerance policy, small geometric operators, rank and
subspace computations.

Every rank decision in the package funnels through rank_and_nullspace, or
its values-only form _rank (which also returns the singular values and the
threshold), so that a single threshold convention applies everywhere: a
singular value counts toward the rank when it exceeds rtol * sigma_max. The
default rtol adapts to the matrix shape (1e-10 * max(rows, cols)); an
explicit policy value overrides it for all shapes. The values-only form
decomposes a wide matrix, or each matrix of a wide stack, as its transpose:
the same singular values, in the orientation LAPACK's gesdd is faster on.

Subspaces are always handled through orthonormal column bases. Containment of
span(A) in span(B) is decided by the Frobenius residual of A's basis after
projecting out B: || (I - Q_B Q_B^T) Q_A ||_F < subspace_tol (below 1).
When B is the kernel of a matrix C with singular values s_i and right
singular vectors v_i, the singular values alone can certify that test: with
s_r the smallest one counted in the rank,
||C Q_A||_F^2 = sum_i s_i^2 ||v_i^T Q_A||^2 >= s_r^2 ||(I - Q_B Q_B^T) Q_A||_F^2,
so in exact arithmetic ||C Q_A||_F < subspace_tol * s_r implies the
residual test without Q_B (engine._residual_bound adds the rounding).
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
    threshold of sigma_max or more zeroes every rank, and at least 1e-14,
    since below that rounding noise counts toward the rank and verdicts
    flip without any error; subspace_tol is below 1, since at 1 a basis
    can miss a whole direction and still be contained, and fd_step is below
    1, since the probe runs at unit formation scale, where a step of 1
    moves an agent by the formation's radius.
    """

    rank_rtol: float | None = None
    subspace_tol: float = 1e-8
    fd_step: float = 1e-6

    def __post_init__(self) -> None:
        if self.rank_rtol is not None:
            check_tolerance("rank_rtol", self.rank_rtol)
            if self.rank_rtol < 1e-14:
                raise ValidationError(f"rank_rtol must be at least 1e-14, got {self.rank_rtol!r}")
        check_tolerance("subspace_tol", self.subspace_tol)
        check_tolerance("fd_step", self.fd_step)

    def effective_rank_rtol(self, shape: tuple[int, int]) -> float:
        if self.rank_rtol is not None:
            return self.rank_rtol
        return 1e-10 * max(shape)


def check_tolerance(name: str, value: float) -> None:
    """A ValidationError unless value is finite and in (0, 1)."""
    if not (math.isfinite(value) and 0 < value < 1):
        raise ValidationError(f"{name} must be finite, positive and below 1; got {value!r}")


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
    NaN included, is rejected rather than silently normalized. A (..., 3)
    stack of axes with a matching (...) stack of angles gives the (..., 3, 3)
    stack of rotations, each equal to the rotation of its pair alone.
    """
    axis = np.asarray(axis, dtype=float)
    nrm = np.linalg.norm(axis, axis=-1)
    bad = (nrm != 0.0) & ~(np.abs(nrm - 1.0) <= AXIS_UNIT_TOL)  # NaN is bad too
    if np.any(bad):
        raise ValidationError(f"rotation axis must be unit or zero, "
                              f"norm {np.extract(bad, nrm)[0]:.3e}")
    angle = np.where(nrm == 0.0, 0.0, angle)[..., None, None]
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
    span the kernel. (Values-only _rank skips the QR, since gesdd makes its
    own, and decomposes a wide matrix as its transpose.)

    shape, when given, is the shape of a matrix B that M stands in for with
    the same Gram matrix (M^T M = B^T B, hence the same singular values and
    kernel); the threshold then uses B's shape, so M decides exactly as B.
    """
    rank, N, _, _ = _rank(M, pol, shape=shape, kernel=True)
    return rank, N


def _rank(M: np.ndarray, pol: TolerancePolicy | None = None, *,
          shape: tuple[int, int] | None = None, kernel: bool = False,
          ) -> tuple[int | np.ndarray, np.ndarray | None, np.ndarray, float | np.ndarray]:
    """(rank, N, s, threshold) as rank_and_nullspace decides them: the same
    checks and threshold; s holds the singular values in descending order,
    and those above threshold (rtol * sigma_max) make up the rank. Without
    kernel, N is None and a tall M is not QR-reduced first: the SVD
    computes singular values only (LAPACK's gesdd reduces a tall matrix
    itself), and a wide M is handed to it as M^T, which has the same
    singular values and which gesdd decomposes faster. They may differ
    from the full SVD's in the last bits: a value that close to the
    threshold may count toward one rank and not the other, so a rank that
    must agree with a kernel is confirmed by rank_and_nullspace, or kept
    clear of the threshold.

    Without kernel, M may also be a (k, rows, cols) stack: each matrix is
    decomposed as it would be alone (numpy's stacked SVD runs LAPACK once
    per matrix), shape is that of one matrix, and rank, s
    and threshold are the k ranks, singular value rows and thresholds, each
    matrix thresholded at its own sigma_max."""
    pol = pol or TolerancePolicy()
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 and (kernel or M.ndim != 3):
        raise ValidationError(f"expected a matrix, got ndim {M.ndim}")
    if not np.all(np.isfinite(M)):
        raise NumericalError("matrix contains NaN or Inf")
    rows, cols = M.shape[-2:]
    if M.size == 0:
        if M.ndim == 3:
            k = M.shape[0]
            return np.zeros(k, dtype=int), None, np.zeros((k, 0)), np.zeros(k)
        return 0, np.eye(cols) if kernel else None, np.zeros(0), 0.0
    if kernel:
        A = np.linalg.qr(M, mode="r") if rows > cols else M
        _, s, Vh = np.linalg.svd(A, full_matrices=rows < cols)
    else:
        s = np.linalg.svd(M.swapaxes(-1, -2) if rows < cols else M, compute_uv=False)
    rtol = pol.effective_rank_rtol(M.shape[-2:] if shape is None else shape)
    if M.ndim == 3:
        threshold = rtol * s[:, 0]
        return np.sum(s > threshold[:, None], axis=1), None, s, threshold
    threshold = rtol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > threshold))
    return rank, Vh[rank:].T.copy() if kernel else None, s, threshold


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


def _residual(QB: np.ndarray, QA: np.ndarray) -> float:
    """||(I - QB QB^T) QA||_F for orthonormal bases QA and QB: below
    subspace_tol, span(QA) lies in span(QB). Zero when QA has no columns."""
    return float(np.linalg.norm(QA - QB @ (QB.T @ QA)))
