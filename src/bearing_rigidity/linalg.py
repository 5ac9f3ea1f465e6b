"""Numeric kernel: tolerance policy, small geometric operators, rank and
subspace computations, and the one certificate that decides a rank from
singular values it was not computed from.

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

Certificates. Three decisions take a rank from singular values other than
those of the matrix decided on, and decompose that matrix where the values
do not settle it. One argument serves all three:

(W) Weyl: sigma_i(A + E) is within ||E||_2 of sigma_i(A) at every index,
    the values beyond min(rows, cols) counting as zeros.
(B) A computed SVD of A is exact for some A + E, and a computed product A X
    is within rounding of the exact one: for an orthonormal X of k columns,
    e = max(A.shape) * eps * ||A||_F * sqrt(k) (_rounding) bounds ||E X||_F
    and that rounding.
(T) Let the threshold t lie in [lo, hi], and each value at hand lie within
    w of the decided matrix's value at its index. A value above hi + w is
    then above t, one at most lo - w at most t (the rank counts values
    above t), and so is a zero or lacking value when lo >= w. So where lo >=
    w and no value lies in (lo - w, hi + w], the count above hi + w is the
    rank at t: _window_rank returns it, or None (a miss), with the Margin
    it decided by.

(1) Containment without a kernel basis (engine._contained_rank). For C with
    values s_i, right vectors v_i and kernel N, and an orthonormal Nk,
    ||C Nk||_F^2 = sum_i s_i^2 ||v_i^T Nk||^2 >= s_r^2 ||(I - N N^T) Nk||_F^2.
    Where C's values clear [t, t] by e (B, for C and Nk), the residual a
    decomposition of C finds is at most (||C Nk||_F + 2 e) / (s_r - e).
(2) A complete kernel inside a kernel (engine._complete_kernel_in). The
    complete factor C_K holds C's rows, so ||C_K y|| >= ||C y||, ker C_K
    lies in N (nu columns), and C_K's threshold lies in [tau_lo, tau_hi] =
    rtol_K [s_1, ||C_K||_F]. Take e for C_K and N, and P = C_K N.
    (i) C's values clear [t, t + tau_hi] by e, so lam = (tau_hi + s_{r+1} +
    e) / (s_r - e) < 1, and a unit y = N a + y' with ||C_K y|| <= tau_hi
    has ||y'|| <= lam, as s_r ||y'|| - s_{r+1} <= ||C y||.
    (ii) P's values clear [tau_lo, f] by e, f = (tau_hi + e + ||C_K||_F lam)
    / sqrt(1 - lam^2). Its k values below give k directions on which C_K is
    below its threshold, and k + 1 such directions y of C_K would give k + 1
    of P, a = N^T y with ||a|| >= sqrt(1 - lam^2) and ||P a|| <= tau_hi +
    ||C_K||_F lam by (i). So N times P's last k right singular vectors lies
    in N and has the dimension of ker C_K.
    (iii) P restricts C_K to span N, so the kernel Nk a decomposition of C_K
    gives has ||C Nk||_F <= the norm p of P's k small values, and a residual
    against N of at most (p + s_{r+1} + 2 e) / (s_r - e), as in (1).
(3) Deflation (scenarios._candidate_ranks). Let Q = [Q1 Q2] be orthogonal,
    Q1 spanning the complete kernel, and delta = ||C_K Q1||_F. A row
    selection C_S of C_K has ||C_S Q1||_2 <= delta, and C_S Q = [C_S Q1,
    C_S Q2] has C_S's values, so (W) puts them within delta of C_S Q2's.
    With e for C_K and Q (two SVDs, the product C_K Q, and Q's distance from
    an orthogonal matrix), the computed values of C_S and C_S Q2 differ by
    at most w = delta + 4 e. C_S's threshold rtol s_1 then lies in rtol
    [s'_1 - w, s'_1 + w], s'_1 the largest of C_S Q2, and where C_S Q2's
    values clear that window by w, their count is C_S's rank.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    from the full SVD's in the last bits, so a rank that must agree with a
    kernel is confirmed by rank_and_nullspace, or by the window test (T).

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


def _rounding(shape: tuple[int, int], norm: float, cols: int) -> float:
    """e of (B) above, for a matrix of shape and Frobenius norm and an
    orthonormal basis of cols columns."""
    return max(shape) * np.finfo(float).eps * norm * np.sqrt(cols)


class Margin(NamedTuple):
    """How far a rank stood from its threshold: sigma_r and sigma_next are
    the smallest singular value above it (inf where none is) and the largest
    at or below it (0 where none is), and slack what the values had to clear
    it by. A stack of rows gives one entry per row in every field."""

    threshold: float | np.ndarray
    sigma_r: float | np.ndarray
    sigma_next: float | np.ndarray
    slack: float | np.ndarray

    def __str__(self) -> str:
        return (f"threshold {self.threshold:.3e}, sigma_r {self.sigma_r:.3e}, "
                f"sigma_r+1 {self.sigma_next:.3e}")


def _margin(s: np.ndarray, threshold, slack: float = 0.0) -> tuple[int | np.ndarray, Margin]:
    """(rank, margin): the count of the singular values s (a row, or a stack
    of rows) above threshold, which broadcasts against s, and its Margin."""
    above = s > threshold
    rank = above.sum(axis=-1)
    return rank, Margin(np.reshape(threshold, rank.shape)[()],
                        np.where(above, s, np.inf).min(axis=-1, initial=np.inf),
                        np.where(above, 0.0, s).max(axis=-1, initial=0.0),
                        np.full(rank.shape, slack)[()])


def _window_rank(s: np.ndarray, lo, hi, slack: float,
                 ) -> tuple[int | np.ndarray | None, Margin]:
    """(rank, margin) by the window test (T) above: the count of the
    singular values s above hi + slack where lo >= slack and no value lies
    in (lo - slack, hi + slack], else None, and the Margin of the count
    above lo. For a stack of rows, lo and hi are columns, and a miss in any
    row misses the stack."""
    rank, margin = _margin(s, lo, slack)
    clear = np.all(lo >= slack) and np.all((s > hi + slack) | (s <= lo - slack))
    return (rank if clear else None), margin
