"""Rigidity matrices, kernel structure, and rigidity verdicts.

Two matrix representations are built from a framework. The per-space form
keeps each space family in its native coordinates: position-only frameworks
get d rows per edge and d columns per agent; heading frameworks add one
heading column per agent; full-pose frameworks get 3 rows per edge and 6
columns per agent. The unified form embeds every agent in the common 6-dof
pose coordinates (3 position + 3 rotation columns per agent, 3 rows per
edge) and masks non-controllable rotation directions through each agent's
rotation-input matrix, leaving structurally zero columns. Heterogeneous
frameworks only exist in the unified form.

One vectorized assembler builds both forms. It computes every edge's
geometry at once, forms the unified 3x3 position and rotation blocks with
batched products, and scatters them by fancy indexing. The per-space form is
a fixed row/column selection of the unified blocks (the first d rows per
edge, the first d position columns per agent, the heading column or all
three rotation columns), scattered straight into its own layout, so the
larger unified matrix is never built on the way. That one selection
(_layout, the only place a layout is chosen, with _unified_columns mapping
each layout column to its unified column) also serves the finite-difference
probe, which lifts every variation into unified coordinates and moves the
state one way for all spaces (_moved_bearings: a chunk of trials at once,
every agent of every trial turned by one stacked rotation_exp and all their
bearings taken in one evaluation, at unit formation scale), and the trivial
basis, whose per-space generators are the unified ones restricted to the
layout. Every reader takes the agents' rotations and rotation inputs from
the framework's own read-only stacks (spaces.Framework), built once per
framework, and the positions it is handed (the framework's, or at unit scale).

Rank decisions do not decompose those measured rows. A bearing's variation
is orthogonal to the bearing, so each edge's d measured rows have rank d-1.
The same assembler also gives factor rows: per edge, W^T times the unified
blocks, W an orthonormal basis of the complement of the world bearing (the
in-plane normal for planar frameworks). Every measured edge block is built
as R_i^T W times its factor block, an orthonormal map, so the factor has
the same Gram matrix, hence the same rank, kernel and singular values,
with 2 rows per edge (1 in the plane) instead of d and no orientations at
all. Verdicts, complete-graph kernels, mixed-team decompositions and
augmentation all decompose the factor, with the rank threshold set by the
measured shape.

Both forms satisfy the same contract: the matrix maps admissible state
variation rates to bearing rates. Variations that never change any bearing
are *trivial*: rigid translations of the whole framework, uniform scaling
toward a point, and coordinated rotations (all agents turning about a common
axis while their positions swing along). A framework is infinitesimally
bearing rigid (IBR) when the kernel of its rigidity matrix is exactly the
kernel of the complete-graph matrix on the same agents, i.e. no flex beyond
what no sensing topology could ever detect; otherwise it is infinitesimally
bearing flexible (IBF). That one condition decides in every space: the
complete kernel always lies in the framework's, so equality is inclusion
plus equal dimension (_contained_rank). For non-degenerate homogeneous
frameworks that is the rank c*n - c - 1, c the controllable degrees of
freedom per agent, which the verdict reports but does not test again.
Inclusion is certified from the factor's singular values and one product
where they settle it (linalg, certificate (1)), so the verdict of a
non-degenerate homogeneous framework is an SVD without vectors.

Each framework is decided once (_decide), at unit formation scale: one
degeneracy test, one complete-graph kernel, one containment test on the
factor, in one record of results (_Decision) read by name. Every function
takes the caller's framework and reads its cached positions at unit scale
(Framework._unit), so a report's verdict and FD probe share them. The
complete kernel is known in closed form for non-degenerate homogeneous
frameworks (the trivial variations above); degenerate (collinear) ones
decompose the factor of the complete edge list, a choice only
_complete_kernel makes (complete_graph_kernel reads it for every
framework; it and the mixed-team split move their bases back to the
caller's scale by one lift, _to_caller_scale, by Framework._radius). A
mixed team decomposes its own factor C with its kernel N anyway, for the
split, and the complete kernel lies inside N, so it is N times the kernel
of the thin product C_K N, C_K the complete graph's factor:
_complete_kernel_in takes it from there, with a certificate (linalg,
certificate (2)) that it has the dimension and passes the containment
test that decomposing C_K would give, and _complete_kernel decides where
the certificate misses. ibr_verdict, the analysis report and augmentation
(scenarios.augment_to_ibr) read that record; only hetero_kernel_analysis
and a mixed team's report build its kernel split (_hetero_split), whose
virtual part is the structurally zero columns: the rotation directions
masked by an agent's rotation input, which no graph on the agents can
measure.

Verdict semantics: infinitesimal bearing rigidity coincides with global
bearing rigidity, and both imply (local) bearing rigidity; in position-only
spaces all three notions coincide. These implications are reported, never
recomputed. One coupling note worth keeping in mind: pairing stacked
positions with unit heading rates is NOT a trivial variation; heading motion
swings measured bearings unless the positions co-rotate about the shared
axis, which is exactly what the coordinated-rotation generator encodes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateConfigurationError, NumericalError,
                     ValidationError)
from .graphs import complete_edges, complete_graph
from .linalg import (Margin, TolerancePolicy, _margin, _rank, _residual, _rounding,
                     _window_rank, orthonormal_columns, rank_and_nullspace,
                     rotation_exp, skew)
from .spaces import (COINCIDENT_TOL, Framework, MetricSpace, _bearings,
                     bearing_rigidity_function, is_non_degenerate)

LABEL_VOCABULARY = frozenset({
    "translation_x", "translation_y", "translation_z", "scaling",
    "coord_rotation_x", "coord_rotation_y", "coord_rotation_z",
    "virtual", "unlabeled",
})

IBR = "IBR"
IBF = "IBF"

# Bytes of one (trials, edges, 3) bearing stack the FD probe holds. Its other
# trial arrays are a few times this (the rotations gathered per edge, three),
# so the probe's memory peak does not grow with its trial count.
_TRIAL_BYTES = 1 << 17

# Edges of the complete graph whose factor rows are assembled and multiplied
# by a mixed team's kernel at a time (_complete_kernel_in).
_PRODUCT_EDGES = 64


@dataclass(frozen=True)
class ColumnBlock:
    """Column ranges owned by one agent: translational and, when present,
    rotational (half-open index pairs)."""

    agent: int
    translation: tuple[int, int]
    rotation: tuple[int, int] | None = None


@dataclass(frozen=True)
class RigidityMatrix:
    """A rigidity matrix with its row/column block structure."""

    matrix: np.ndarray
    representation: str
    row_blocks: tuple[tuple[int, int], ...]
    col_blocks: tuple[ColumnBlock, ...]

    def __post_init__(self) -> None:
        self._seal(np.array(self.matrix, dtype=float))

    @classmethod
    def _adopt(cls, matrix: np.ndarray, representation: str,
               row_blocks: tuple[tuple[int, int], ...],
               col_blocks: tuple[ColumnBlock, ...]) -> "RigidityMatrix":
        """Take over a fresh float array nobody else holds: checked and made
        read-only like a constructor argument, but not copied."""
        rm = object.__new__(cls)
        vars(rm).update(representation=representation, row_blocks=row_blocks,
                        col_blocks=col_blocks)
        rm._seal(matrix)
        return rm

    def _seal(self, M: np.ndarray) -> None:
        if self.representation not in ("per_space", "unified"):
            raise ValidationError(f"unknown representation {self.representation!r}")
        if self.row_blocks and self.row_blocks[-1][1] != M.shape[0]:
            raise ValidationError("row blocks do not tile the matrix")
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace with an orthonormal basis plus labeled raw generators.

    Labels describe the generator columns (one tag each); the basis columns
    are their orthonormalized span and need not align with individual tags.
    """

    ambient_dim: int
    basis: np.ndarray
    labels: tuple[str, ...]
    generators: np.ndarray

    def __post_init__(self) -> None:
        B = np.asarray(self.basis, dtype=float)
        G = np.asarray(self.generators, dtype=float)
        if B.shape[0] != self.ambient_dim or G.shape[0] != self.ambient_dim:
            raise ValidationError("basis/generators do not match the ambient dimension")
        if G.shape[1] != len(self.labels):
            raise ValidationError("one label per generator column required")
        bad = set(self.labels) - LABEL_VOCABULARY
        if bad:
            raise ValidationError(f"unknown labels {sorted(bad)}")
        if B.shape[1] and np.linalg.norm(B.T @ B - np.eye(B.shape[1])) > 1e-9:
            raise ValidationError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class RigidityVerdict:
    """Rank/kernel summary and the rigidity classification of a framework."""

    rank: int
    nullity: int
    expected_rank: int | None
    kernel_equal_to_complete: bool
    classification: str
    degenerate: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class FDCheckResult:
    """Largest relative mismatch between the matrix action and finite
    differences of the bearing function."""

    max_rel_error: float
    step: float
    trials: int
    representation: str


@dataclass(frozen=True)
class HeteroKernelReport:
    """Kernel decomposition of a heterogeneous framework."""

    verdict: RigidityVerdict
    trivial: SubspaceBasis
    virtual: SubspaceBasis
    zero_columns: tuple[int, ...]


def _uses_planar_projector(fw: Framework) -> bool:
    return (fw.is_homogeneous and fw.space.kind in ("rd", "rdxs1")
            and fw.space.d == 2)


def _complement_rows(u: np.ndarray, planar: bool) -> np.ndarray:
    """(m, r, 3) orthonormal rows spanning the complement of each unit
    bearing u: the in-plane normal (r = 1) for planar frameworks, otherwise
    two rows (r = 2) by the branch-free frame of Duff et al. (JCGT 2017)."""
    x, y, z = u.T
    if planar:
        return np.stack([-y, x, np.zeros_like(x)], axis=1)[:, None, :]
    sign = np.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    return np.stack([np.stack([1.0 + sign * x * x * a, sign * b, -sign * x], axis=1),
                     np.stack([b, sign + y * y * a, -y], axis=1)], axis=1)


def _assemble(fw: Framework, P: np.ndarray, edges, d: int, rot_cols: tuple[int, ...],
              factor: bool = False) -> np.ndarray:
    """Scatter the unified blocks of edges (1-based) straight into a layout.

    Edge k = (i, j) with unit bearing u and length dist has the unified
    position block R_i^T P(u) / dist (at agent j's columns, negated at agent
    i's) and the rotation block R_i^T skew(u) V_i (at agent i's), read from
    positions P and fw's rotation and rotation-input stacks. The layout
    keeps rows 3k..3k+d of each edge, position columns c < d of each agent
    (d per agent), then rotation columns rot_cols of each agent's block.

    factor=True gives the factor rows instead: W^T P(u) / dist and
    W^T skew(u) V_i, where the columns of W are the complement rows of u
    (_complement_rows). W W^T is P(u) (with the out-of-plane direction
    dropped for planar frameworks), and u^T skew(u) = 0, so the measured
    rows are built as (R_i^T W) times the factor block. R_i^T W has
    orthonormal columns whose dropped rows are zero, so the factor C of a
    measured matrix B has C^T C = B^T B and needs no orientations: same
    rank, kernel, singular values and zero columns, with 2 rows per edge
    (1 in the plane) instead of d.
    """
    n = fw.n
    E = np.array(edges, dtype=int).reshape(-1, 2) - 1
    heads, tails = E[:, 0], E[:, 1]
    m = len(E)
    diff = P[tails] - P[heads]
    dist = np.linalg.norm(diff, axis=1)
    u = diff / dist[:, None]
    left = _complement_rows(u, _uses_planar_projector(fw))
    r = left.shape[1]
    if not factor:
        Rt = fw._rotations.transpose(0, 2, 1)[heads]
        left, r = Rt @ left.transpose(0, 2, 1) @ left, d
    pos = (left / dist[:, None, None])[:, :r, :d]
    w = len(rot_cols)
    B = np.zeros((m, r, (d + w) * n))
    k = np.arange(m)[:, None, None]
    rr = np.arange(r)[None, :, None]
    c = np.arange(d)
    B[k, rr, d * heads[:, None, None] + c] = -pos
    B[k, rr, d * tails[:, None, None] + c] = pos
    if w:
        rot = (left @ (skew(u) @ fw._rotation_inputs[heads]))[:, :r, rot_cols]
        B[k, rr, d * n + w * heads[:, None, None] + np.arange(w)] = rot
    return B.reshape(r * m, (d + w) * n)


def _measured(fw: Framework, representation: str) -> RigidityMatrix:
    """The assembled matrix of a representation ("auto" too, see _layout)
    with its block structure."""
    representation, d, rot_cols = _layout(fw, representation)
    n, w = fw.n, len(rot_cols)
    rows = tuple((d * e, d * e + d) for e in range(fw.m))
    cols = tuple(ColumnBlock(a + 1, (d * a, d * a + d),
                             (d * n + w * a, d * n + w * a + w) if w else None)
                 for a in range(n))
    B = _assemble(fw, fw._positions, fw.graph.edges, d, rot_cols)
    return RigidityMatrix._adopt(B, representation, rows, cols)


def _layout(fw: Framework, representation: str,
            ) -> tuple[str, int, tuple[int, ...]]:
    """(representation, d, rot_cols), the one place a layout is chosen:
    "auto" resolves to the verdict's form (per_space for a homogeneous
    framework, unified otherwise); d is the rows kept per edge and position
    columns kept per agent, rot_cols the rotation columns kept of each
    agent's unified rotation block (see _assemble and _unified_columns)."""
    if representation == "auto":
        representation = "per_space" if fw.is_homogeneous else "unified"
    if representation == "unified":
        return representation, 3, (0, 1, 2)
    if representation != "per_space":
        raise ValidationError(f"unknown representation {representation!r}")
    if not fw.is_homogeneous:
        raise ValidationError("per-space form needs a homogeneous framework; "
                              "use unified_rigidity_matrix")
    return (representation, fw.space.d,
            {"rd": (), "rdxs1": (2,), "se3": (0, 1, 2)}[fw.space.kind])


def _unified_columns(n: int, d: int, rot_cols: tuple[int, ...]) -> np.ndarray:
    """Unified column index of each column of the (d, rot_cols) layout."""
    agents = 3 * np.arange(n)[:, None]
    pos = agents + np.arange(d)
    rot = 3 * n + agents + np.array(rot_cols, dtype=int)
    return np.concatenate([pos.reshape(-1), rot.reshape(-1)])


def rigidity_matrix(fw: Framework) -> RigidityMatrix:
    """Per-space rigidity matrix of a homogeneous framework.

    Shapes: position-only d*m x d*n; heading d*m x (d+1)*n with all heading
    columns grouped after the position columns; full-pose 3*m x 6*n with the
    rotational half after the translational half. Row block k belongs to the
    k-th canonical measurement edge. Heterogeneous frameworks have no
    per-space form; use unified_rigidity_matrix.
    """
    return _measured(fw, "per_space")


def unified_rigidity_matrix(fw: Framework) -> RigidityMatrix:
    """Unified 3m x 6n rigidity matrix in common pose coordinates.

    Every agent owns 3 position and 3 rotation columns; rotation variations
    pass through the agent's rotation-input matrix, so non-controllable
    rotation directions give identically zero columns. Purely planar
    homogeneous frameworks use the zero-padded planar projector (their
    out-of-plane position columns are then structurally zero as well); every
    other framework, heterogeneous ones included, uses the full 3D projector.
    """
    return _measured(fw, "unified")


def _verdict_factor(fw: Framework, edges) -> tuple[np.ndarray, tuple[int, int]]:
    """Factor rows of fw's verdict matrix on edges at unit scale (fw._unit;
    see _assemble), and that matrix's shape, which sets the rank threshold."""
    _, d, rot_cols = _layout(fw, "auto")
    C = _assemble(fw, fw._unit[0], edges, d, rot_cols, factor=True)
    return C, (d * len(edges), C.shape[1])


def fd_jacobian_check(fw: Framework, pol: TolerancePolicy | None = None,
                      trials: int = 20, seed: int = 0, representation: str = "auto",
                      ) -> FDCheckResult:
    """Probe the rigidity matrix against finite differences of the bearings.

    Random unit variation vectors are drawn over the representation's
    controllable coordinates (the out-of-plane position coordinate of purely
    planar frameworks is frozen; masked rotation coordinates are harmless
    because the rotation-input map zeroes their effect on both sides). For
    each, compares matrix action against (b(state + h*delta) - b(state)) / h
    and reports the largest relative mismatch. Trivial variations give zero
    on both sides. Like the verdict, the probe runs at unit formation scale,
    where the step h is neither lost in rounding nor large against the
    edges, so its error does not change when the formation is scaled.

    Every representation moves the state the same way (_moved_bearings):
    delta is lifted into unified coordinates, positions move by h*dp and
    each rotation by exp(h * skew(V_a dw_a)) from the left, V_a being the
    agent's rotation-input matrix (agents without one keep their rotation).
    All directions are drawn at once, and the trials are moved in chunks of
    at most _TRIAL_BYTES of bearings, each chunk with one stacked
    rotation_exp and one bearing evaluation, and compared as whole arrays
    (the differences and both norms along each trial's row); only each
    direction's length and the matrix action are taken one trial at a
    time. The state's positions, rotations and rotation inputs are the
    framework's own stacks. The compared bearing rows are the first d
    components of each edge's bearing. The step h is pol.fd_step, and
    trials must be >= 1.
    """
    pol = pol or TolerancePolicy()
    if trials < 1:
        raise ValidationError(f"fd trials must be at least 1, got {trials}")
    h = pol.fd_step
    representation, d, rot_cols = _layout(fw, representation)
    P, radius = fw._unit
    B = _assemble(fw, P, fw.graph.edges, d, rot_cols)
    n = fw.n
    edges0 = np.array(fw.graph.edges, dtype=int).reshape(-1, 2) - 1
    R, V = fw._rotations, fw._rotation_inputs
    # one coincidence threshold for every trial: a step of fd_step < 1 at
    # unit scale barely moves the radius
    coincident = COINCIDENT_TOL * radius
    b0 = _bearings(edges0, P, R, coincident)[:, :d].reshape(-1)
    D = np.random.default_rng(seed).standard_normal((trials, B.shape[1]))
    if representation == "unified" and _uses_planar_projector(fw):
        D[:, 2:3 * n:3] = 0.0
    # each trial's own dot product, as np.linalg.norm takes it, so every
    # direction is the one a trial-by-trial normalisation gives to the bit
    D /= np.sqrt([delta.dot(delta) for delta in D])[:, None]
    lift = _unified_columns(n, d, rot_cols)
    step = max(1, _TRIAL_BYTES // (24 * max(1, fw.m)))  # a (step, m, 3) float stack
    errors = []
    for chunk in np.split(D, range(step, trials, step)):
        moved = _moved_bearings(P, R, V, edges0, lift, chunk, h, coincident)
        fd = (moved[:, :, :d].reshape(len(chunk), -1) - b0) / h
        Bd = np.array([B @ delta for delta in chunk])
        errors.append(np.linalg.norm(Bd - fd, axis=1)
                      / np.maximum(1.0, np.linalg.norm(Bd, axis=1)))
    worst = float(np.concatenate(errors).max())
    return FDCheckResult(max_rel_error=worst, step=h, trials=trials,
                         representation=representation)


def _moved_bearings(P: np.ndarray, R: np.ndarray, V: np.ndarray, edges0: np.ndarray,
                    lift: np.ndarray, D: np.ndarray, h: float,
                    coincident: float) -> np.ndarray:
    """(k, m, 3) bearings on edges0 (0-based) of the state with positions P,
    rotations R and rotation inputs V, moved by h along each of the k rows
    of D (columns of one layout, lifted to unified ones by lift): positions
    to P + h*dp, and agent a's rotation to exp(h * skew(V_a dw_a)) R_a, all
    k*n rotations in one stacked rotation_exp and all bearings in one
    _bearings call with the absolute coincidence threshold given."""
    k, n = len(D), len(P)
    full = np.zeros((k, 6 * n))
    full[:, lift] = D
    full = full.reshape(k, 2, n, 3)
    dp, dw = full[:, 0], full[:, 1]
    if V.any():
        R = rotation_exp(h * np.einsum("aij,kaj->kai", V, dw)) @ R
    return _bearings(edges0, P + h * dp, R, coincident)


def _axis_label(axis: np.ndarray) -> str:
    names = ("coord_rotation_x", "coord_rotation_y", "coord_rotation_z")
    for hh, name in enumerate(names):
        e = np.zeros(3)
        e[hh] = 1.0
        if min(np.linalg.norm(axis - e), np.linalg.norm(axis + e)) < 1e-9:
            return name
    return "unlabeled"


def _trivial_generators(P: np.ndarray, rotations) -> tuple[np.ndarray, list[str]]:
    """Trivial variations in unified coordinates, with their labels.

    Columns: translations along x, y, z; scaling about the origin of P; then
    one coordinated rotation per (w, turn) in rotations, where positions
    swing by w x p_a and agent a's unified rotation rates are turn[a] (turn
    is (n, 3), or one 3-vector shared by every agent).
    """
    n = len(P)
    G = np.zeros((6 * n, 4 + len(rotations)))
    for c in range(3):
        G[c:3 * n:3, c] = 1.0
    G[:3 * n, 3] = P.reshape(-1)
    labels = ["translation_x", "translation_y", "translation_z", "scaling"]
    for k, (w, turn) in enumerate(rotations):
        G[:3 * n, 4 + k] = (P @ skew(w).T).reshape(-1)
        G[3 * n:, 4 + k] = np.broadcast_to(turn, (n, 3)).reshape(-1)
        labels.append(_axis_label(w))
    return G, labels


def trivial_variation_basis(fw: Framework, pol: TolerancePolicy | None = None,
                            ) -> SubspaceBasis:
    """Basis of the always-uninformative variations, in per-space coordinates.

    Spanned by rigid translations, uniform scaling about the centroid, and
    (when orientations exist) coordinated rotation about the shared axis, or
    about all three axes for full poses. Requires a homogeneous framework in
    a non-degenerate configuration; the closed-form generators below are only
    a kernel basis under those assumptions. Generators are taken about the
    centroid and normalized before orthonormalization, which leaves their
    span unchanged and keeps the basis well conditioned at any formation
    scale. They are the unified generators restricted to the per-space
    layout: translations within the first d axes, and one coordinated
    rotation per kept rotation column c, about column c of the agents'
    rotation-input matrix.
    """
    pol = pol or TolerancePolicy()
    if not fw.is_homogeneous:
        raise ValidationError("trivial basis formulas apply to homogeneous frameworks")
    report = is_non_degenerate(fw, pol)
    if not report:
        raise DegenerateConfigurationError(report.detail)
    return _trivial_basis(fw, fw._positions, pol)


def _trivial_basis(fw: Framework, P: np.ndarray, pol: TolerancePolicy) -> SubspaceBasis:
    """trivial_variation_basis of a homogeneous framework at positions P,
    which its caller has already found non-degenerate."""
    _, d, rot_cols = _layout(fw, "per_space")
    P = P - P.mean(axis=0)
    V = fw.space.rotation_input()
    G, labels = _trivial_generators(P, [(V[:, c], np.eye(3)[c]) for c in rot_cols])
    keep = [*range(d), *range(3, G.shape[1])]
    G = G[np.ix_(_unified_columns(fw.n, d, rot_cols), keep)]
    basis = orthonormal_columns(G / np.linalg.norm(G, axis=0), pol)
    if basis.shape[1] != G.shape[1]:
        raise NumericalError("trivial generators degenerated; configuration too ill-conditioned")
    return SubspaceBasis(ambient_dim=G.shape[0], basis=basis,
                         labels=tuple(labels[k] for k in keep), generators=G)


def complete_graph_kernel(fw: Framework, pol: TolerancePolicy | None = None,
                          ) -> np.ndarray:
    """Orthonormal kernel basis of the complete-graph matrix on fw's agents.

    Non-degenerate homogeneous frameworks take the closed form: that kernel
    is exactly the trivial variations (trivial_variation_basis; Zhao &
    Zelazo, IEEE TAC 2016). Degenerate and heterogeneous frameworks get the
    SVD of the factor rows of the complete edge list (see _assemble). The
    choice and the kernel are _decide's, at unit formation scale, so the
    dimension is the verdict's at any scale; the basis is then lifted to
    fw's coordinates (position rows scale with the formation) by QR, with
    no second rank threshold.
    """
    pol = pol or TolerancePolicy()
    Nk = _complete_kernel(fw, pol)[0]
    return np.linalg.qr(_to_caller_scale(fw, Nk))[0]


def _complete_kernel(fw: Framework, pol: TolerancePolicy,
                     ) -> tuple[np.ndarray, SubspaceBasis | None, bool]:
    """(Nk, trivial, degenerate) of fw at unit formation scale (fw._unit):
    one degeneracy test, then the complete-graph kernel Nk, from the
    closed-form trivial basis when fw is homogeneous and not degenerate
    (trivial is that basis), otherwise from the decomposed _verdict_factor
    of the complete edge list (trivial None). A mixed team's verdict takes
    it only where _complete_kernel_in's certificate misses."""
    degenerate = not is_non_degenerate(fw._unit[0], pol)
    if fw.is_homogeneous and not degenerate:
        trivial = _trivial_basis(fw, fw._unit[0], pol)
        return trivial.basis, trivial, degenerate
    C, shape = _verdict_factor(fw, complete_edges(fw.n, fw.graph.kind))
    return rank_and_nullspace(C, pol, shape=shape)[1], None, degenerate


def _to_caller_scale(fw: Framework, X: np.ndarray) -> np.ndarray:
    """Columns X of fw's verdict layout (_layout "auto") at unit scale, moved
    to fw's coordinates: position rows times fw's RMS radius, rotation rows
    as they are."""
    _, d, _ = _layout(fw, "auto")
    lift = np.ones((X.shape[0], 1))
    lift[:d * fw.n] = fw._radius
    return lift * X


@dataclass(frozen=True)
class _Decision:
    """One framework decided at unit formation scale (see _decide). N, the
    kernel of fw's factor, is decomposed only for mixed teams, whose split
    reads it; elsewhere it is None unless the singular values missed the
    containment certificate. zero_columns, the structurally zero columns
    (rotation directions an agent's rotation input masks), is None for
    homogeneous frameworks. margin is the Margin of the factor's rank, with
    slack 0 where the factor was decomposed after a missed certificate."""

    fw: Framework
    verdict: RigidityVerdict
    Nk: np.ndarray
    trivial: SubspaceBasis | None
    N: np.ndarray | None
    zero_columns: np.ndarray | None
    margin: Margin


def _decide(fw: Framework, pol: TolerancePolicy) -> _Decision:
    """fw decided once at unit formation scale (fw._unit): one degeneracy
    test, the complete-graph kernel Nk, one containment test on fw's factor
    C and the verdict. Homogeneous frameworks, degenerate ones included,
    take Nk from _complete_kernel (with its closed-form trivial basis) and
    the containment from C's singular values where they certify it
    (_contained_rank). Mixed teams, whose split (_hetero_split) reads the
    kernel N and the zero columns, decompose C with its kernel and find Nk
    inside N with a certificate (_complete_kernel_in); where it misses,
    Nk comes from _complete_kernel and the containment from
    _contained_rank. Results only, no matrix."""
    C, shape = _verdict_factor(fw, fw.graph.edges)
    trivial = zero_columns = None
    if fw.is_homogeneous:
        Nk, trivial, degenerate = _complete_kernel(fw, pol)
        rank, N, margin = _contained_rank(C, shape, Nk, pol)
    else:
        degenerate = not is_non_degenerate(fw._unit[0], pol)
        rank, N, s, threshold = _rank(C, pol, shape=shape, kernel=True)
        Nk, margin = _complete_kernel_in(fw, N, s, threshold, pol)
        if Nk is None:
            Nk = _complete_kernel(fw, pol)[0]
            rank, N, margin = _contained_rank(C, shape, Nk, pol, kernel=True)
        zero_columns = 3 * fw.n + np.flatnonzero(~fw._rotation_inputs.any(axis=1))
    nullity = C.shape[1] - rank
    kernel_eq = nullity == Nk.shape[1]
    notes: list[str] = []
    expected = None
    if fw.is_homogeneous:
        c = fw.space.c
        expected = c * fw.n - c - 1
        if degenerate:
            notes.append("degenerate configuration: kernel equality decides, "
                         "rank target not applied")
    else:
        notes.append("heterogeneous framework: kernel equality decides, "
                     "no single rank target exists")
    if kernel_eq:
        notes.append("infinitesimal rigidity implies global bearing rigidity, "
                     "which implies bearing rigidity")
    verdict = RigidityVerdict(rank=rank, nullity=nullity, expected_rank=expected,
                              kernel_equal_to_complete=kernel_eq,
                              classification=IBR if kernel_eq else IBF,
                              degenerate=degenerate, notes=tuple(notes))
    return _Decision(fw, verdict, Nk, trivial, N, zero_columns, margin)


def _complete_kernel_in(fw: Framework, N: np.ndarray, s: np.ndarray, threshold: float,
                        pol: TolerancePolicy) -> tuple[np.ndarray | None, Margin]:
    """(Nk, margin): the complete-graph kernel of fw at unit scale found
    inside the kernel N (nu columns) of fw's factor C, whose singular values
    s were ranked at threshold: N times the kernel of P = C_K N, C_K the
    complete graph's factor, or None where the certificate (linalg,
    certificate (2)) misses; and the Margin of C's values. Nk has the
    dimension, and passes the containment test, that decomposing C_K
    (_complete_kernel, then _contained_rank) would give. A C_K with fewer
    rows than nu is left to _complete_kernel."""
    edges = complete_edges(fw.n, fw.graph.kind)
    nu = N.shape[1]
    # C_K assembled and multiplied a block of edges at a time: C_K itself is
    # never held, and no tall product packs all of it into every BLAS
    # thread's buffer (see _contained_rank)
    products, squares = [], 0.0
    for i in range(0, len(edges), _PRODUCT_EDGES):
        CK, _ = _verdict_factor(fw, edges[i:i + _PRODUCT_EDGES])
        products.append(CK @ N)
        squares += float(np.vdot(CK, CK))
    P = np.concatenate(products)
    shape = (_layout(fw, "auto")[1] * len(edges), N.shape[0])
    norm = np.sqrt(squares)
    err = _rounding(shape, norm, nu)
    rtol = pol.effective_rank_rtol(shape)
    tau_hi = rtol * norm
    rank, margin = _window_rank(s, threshold, threshold + tau_hi, err)
    if rank is None or P.shape[0] < nu:
        return None, margin
    sigma_r, sigma_next = margin.sigma_r, margin.sigma_next
    lam = (tau_hi + sigma_next + err) / (sigma_r - err)
    _, p, Vh = np.linalg.svd(np.linalg.qr(P, mode="r"))
    rank_p, _ = _window_rank(p, rtol * s[0],
                             (tau_hi + err + norm * lam) / np.sqrt(1.0 - lam * lam), err)
    if rank_p is None or not ((np.linalg.norm(p[rank_p:]) + sigma_next + 2.0 * err)
                              / (sigma_r - err) < pol.subspace_tol):
        return None, margin
    return N @ Vh[rank_p:].T, margin


def ibr_verdict(fw: Framework, pol: TolerancePolicy | None = None) -> RigidityVerdict:
    """Classify a framework as IBR or IBF.

    The deciding test, in every space, is kernel equality with the complete
    graph on the same agents (inclusion plus equal dimension), decided once
    at unit formation scale (_decide). For non-degenerate homogeneous
    frameworks the complete graph's kernel is the closed-form trivial basis;
    degenerate frameworks decompose the complete-graph matrix too, and
    heterogeneous ones find its kernel inside their own, decomposing it
    only where that certificate misses. A complete kernel not contained in
    the framework kernel raises NumericalError. Homogeneous frameworks
    report the rank target c*n - c - 1 as expected_rank, not as a second
    test; degenerate ones are flagged.
    """
    return _decide(fw, pol or TolerancePolicy()).verdict


def _contained_rank(C: np.ndarray, shape: tuple[int, int], Nk: np.ndarray,
                    pol: TolerancePolicy, kernel: bool = False,
                    ) -> tuple[int, np.ndarray | None, Margin]:
    """(rank, N, margin): the rank of the factor C at the threshold of shape,
    once the complete-graph kernel Nk (orthonormal) is known to lie in C's
    kernel N, else NumericalError; and the Margin of that rank. Equal
    dimension, cols - rank == dim Nk, then is kernel equality: as
    subspace_tol < 1 keeps the reverse residual ||(I - Nk Nk^T) N||_F^2 >=
    dim N - dim Nk, inclusion plus equal dimension is equality.

    C's singular values (linalg._rank) and one product C Nk certify the
    containment first (linalg, certificate (1)), and N is then None. Where
    they miss, or the caller reads N (kernel=True), C is decomposed with its
    kernel and the residual decides; that rank and N are returned."""
    if not kernel:
        rank, _, s, threshold = _rank(C, pol, shape=shape)
        err = _rounding(C.shape, np.sqrt(s @ s), Nk.shape[1])
        certified, margin = _window_rank(s, threshold, threshold, err)
        if certified is not None:
            # C Nk column by column: a tall matrix product packs C into every
            # BLAS thread's buffer (1.5 MB more peak RSS on the analyze-large
            # benchmark at 2 threads), a matrix-vector product reads it in place
            CNk = np.linalg.norm([C @ v for v in Nk.T])
            if (CNk + 2.0 * err) / (margin.sigma_r - err) < pol.subspace_tol:
                return rank, None, margin
    rank, N, s, threshold = _rank(C, pol, shape=shape, kernel=True)
    margin = _margin(s, threshold)[1]
    if not _residual(N, Nk) < pol.subspace_tol:
        raise NumericalError(
            "complete-graph kernel not contained in framework kernel; "
            f"tolerances are inconsistent with this matrix ({margin})")
    return rank, N, margin


def _require_comparable(f1: Framework, f2: Framework) -> None:
    if f1.graph != f2.graph:
        raise ValidationError("frameworks have different sensing graphs")
    if f1.space != f2.space:
        raise ValidationError("frameworks have different state spaces")


def bearing_equivalent(f1: Framework, f2: Framework,
                       pol: TolerancePolicy | None = None) -> bool:
    """Do the two frameworks measure identical bearings on their edges?"""
    pol = pol or TolerancePolicy()
    _require_comparable(f1, f2)
    b1 = bearing_rigidity_function(f1).bearings
    b2 = bearing_rigidity_function(f2).bearings
    return bool(np.max(np.abs(b1 - b2), initial=0.0) < pol.subspace_tol)


def bearing_congruent(f1: Framework, f2: Framework,
                      pol: TolerancePolicy | None = None) -> bool:
    """Do the two frameworks agree on every pairwise bearing, not just the
    sensed ones? Checked over the complete graph of the same kind."""
    pol = pol or TolerancePolicy()
    _require_comparable(f1, f2)
    K = complete_graph(f1.graph)
    return bearing_equivalent(f1.with_graph(K), f2.with_graph(K), pol)


def hetero_kernel_analysis(fw: Framework, pol: TolerancePolicy | None = None,
                           ) -> HeteroKernelReport:
    """Kernel decomposition of a heterogeneous framework's unified matrix.

    Splits the kernel into the virtual part (coordinate directions of the
    structurally zero columns, i.e. rotation directions an agent's rotation
    input masks, which no graph on the agents can measure; an agent that
    heads no edge leaves its other rotation columns zero too, but those are
    flexes) and the trivial part (the kernel's intersection with the complement of
    the virtual part). The trivial part is labeled by matching candidate
    generators: translations, uniform scaling, and coordinated rotations
    about the coordinate axes, each agent turning through its own
    rotation-input matrix; a candidate counts as present when its
    residual against the trivial part stays below subspace_tol. Directions
    matched by no candidate are labeled "unlabeled".

    It splits the kernel of ibr_verdict's one decision (_decide) at unit
    formation scale, so dimensions and labels do not change when the
    formation is scaled. The returned generators and bases are in fw's own
    coordinates: a kernel vector's position rows scale with the formation,
    its rotation rows do not.
    """
    if fw.is_homogeneous:
        raise ValidationError("kernel decomposition targets heterogeneous frameworks; "
                              "homogeneous ones have trivial_variation_basis")
    pol = pol or TolerancePolicy()
    return _hetero_split(_decide(fw, pol), pol)


def _hetero_split(decision: _Decision, pol: TolerancePolicy) -> HeteroKernelReport:
    """The split of a mixed team's decided kernel, that of its verdict
    factor at unit scale (see hetero_kernel_analysis)."""
    fw, N, zero_cols = decision.fw, decision.N, decision.zero_columns
    ambient = N.shape[0]
    Qv = np.eye(ambient)[:, zero_cols]
    trimmed = N.copy()
    trimmed[zero_cols, :] = 0.0
    Qt = orthonormal_columns(trimmed, pol)

    P = fw._unit[0] - fw._unit[0].mean(axis=0)
    V = fw._rotation_inputs
    # agent a turns by V_a^T e (row c of V_a), which is angular velocity e
    # whenever e lies in the range of its rotation-input matrix V_a
    candidates, names = _trivial_generators(
        P, [(e, V[:, c]) for c, e in enumerate(np.eye(3))])
    resid = candidates - Qt @ (Qt.T @ candidates)
    hit = (np.linalg.norm(resid, axis=0) / np.linalg.norm(candidates, axis=0)
           < pol.subspace_tol)
    # the translations always lie in the kernel and match: neither is empty
    matched = candidates[:, hit]
    Qm = orthonormal_columns(matched, pol)
    # absolute cutoff: Qt columns are unit, so tiny singular values here
    # mean the matched generators already cover the direction
    U, sv, _ = np.linalg.svd(Qt - Qm @ (Qm.T @ Qt), full_matrices=False)
    extra = U[:, sv > pol.subspace_tol]
    labels = [names[k] for k in np.flatnonzero(hit)] + ["unlabeled"] * extra.shape[1]
    gen_mat = _to_caller_scale(fw, np.hstack([matched, extra]))
    basis = orthonormal_columns(gen_mat / np.linalg.norm(gen_mat, axis=0), pol)
    trivial = SubspaceBasis(ambient_dim=ambient, basis=basis,
                            labels=tuple(labels), generators=gen_mat)
    virtual = SubspaceBasis(ambient_dim=ambient, basis=Qv,
                            labels=("virtual",) * len(zero_cols), generators=Qv)
    return HeteroKernelReport(decision.verdict, trivial, virtual,
                              tuple(zero_cols.tolist()))


def degenerate_trivial_dim(space: MetricSpace, n: int,
                           axis_aligned_with_line: bool = False) -> int:
    """Kernel dimension of the complete-graph matrix for collinear agents.

    Closed forms: position-only n + d - 1; heading spaces n + d, except the
    3D case with the heading axis along the line of agents, which gives
    2n + d - 1; full poses 2n + 4. The alignment flag only applies to 3D
    heading spaces (the planar heading axis can never lie in the plane).
    """
    if not isinstance(space, MetricSpace):
        raise ValidationError("space must be a MetricSpace")
    if n < 3:
        raise ValidationError("need at least 3 agents")
    if space.kind == "rd":
        if axis_aligned_with_line:
            raise ValidationError("position-only spaces have no heading axis")
        return n + space.d - 1
    if space.kind == "rdxs1":
        if space.d == 2:
            if axis_aligned_with_line:
                raise ValidationError("planar heading axis cannot lie along the agents")
            return n + 2
        return (2 * n + space.d - 1) if axis_aligned_with_line else (n + space.d)
    if axis_aligned_with_line:
        raise ValidationError("full-pose spaces need no alignment flag")
    return 2 * n + 4
