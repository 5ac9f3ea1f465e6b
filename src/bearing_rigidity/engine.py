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
(_layout, with _unified_columns mapping each layout column to its unified
column) also serves the finite-difference probe, which lifts every
variation into unified coordinates and moves the state one way for all
spaces (all agents of a trial turned by one stacked rotation_exp, at unit
formation scale), and the trivial basis, whose per-space generators are the
unified ones restricted to the layout.

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
plus equal dimension (_kernel_equal). For non-degenerate homogeneous
frameworks that is the rank c*n - c - 1, c the controllable degrees of
freedom per agent, which the verdict reports but does not test again.

Each framework is decided once (_decide), at unit formation scale: one
degeneracy test, one complete-graph kernel, one factor decomposition. That
kernel is known in closed form for non-degenerate homogeneous frameworks
(the trivial variations above); only degenerate (collinear) and mixed ones
build and decompose the complete graph. _complete_kernel is the only code
that makes that choice, and the public complete_graph_kernel shares it at
the caller's own scale. ibr_verdict, hetero_kernel_analysis (which splits
the decided kernel), the analysis report and augmentation
(scenarios.augment_to_ibr, which reuses the decision's complete-graph
kernel and factor) all read that one decision.

Verdict semantics: infinitesimal bearing rigidity coincides with global
bearing rigidity, and both imply (local) bearing rigidity; in position-only
spaces all three notions coincide. These implications are reported, never
recomputed. One coupling note worth keeping in mind: pairing stacked
positions with unit heading rates is NOT a trivial variation; heading motion
swings measured bearings unless the positions co-rotate about the shared
axis, which is exactly what the coordinated-rotation generator encodes.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateConfigurationError, NumericalError,
                     ValidationError)
from .graphs import complete_graph
from .linalg import (TolerancePolicy, check_tolerance, orthonormal_columns,
                     rank_and_nullspace, rotation_exp, subspace_contains)
from .spaces import (Framework, MetricSpace, bearing_rigidity_function,
                     bearing_stack_raw, is_non_degenerate)

LABEL_VOCABULARY = frozenset({
    "translation_x", "translation_y", "translation_z", "scaling",
    "coord_rotation_x", "coord_rotation_y", "coord_rotation_z",
    "virtual", "unlabeled",
})

IBR = "IBR"
IBF = "IBF"


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
        object.__setattr__(rm, "representation", representation)
        object.__setattr__(rm, "row_blocks", row_blocks)
        object.__setattr__(rm, "col_blocks", col_blocks)
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


def _assemble(fw: Framework, d: int, rot_cols: tuple[int, ...],
              factor: bool = False) -> np.ndarray:
    """Scatter the unified edge blocks straight into a selected layout.

    Edge k = (i, j) with unit bearing u and length dist has the unified
    position block R_i^T P(u) / dist (at agent j's columns, negated at agent
    i's) and the rotation block R_i^T skew(u) V_i (at agent i's). The layout
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
    E = np.array(fw.graph.edges, dtype=int).reshape(-1, 2) - 1
    heads, tails = E[:, 0], E[:, 1]
    m = len(E)
    P = fw.positions()
    diff = P[tails] - P[heads]
    dist = np.linalg.norm(diff, axis=1)
    u = diff / dist[:, None]
    left = _complement_rows(u, _uses_planar_projector(fw))
    r = left.shape[1]
    if not factor:
        Rt = np.array(fw.rotations()).transpose(0, 2, 1)[heads]
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
        V = np.array([fw.space_of(a + 1).rotation_input() for a in range(n)])
        # skew(u) @ V, one column of V at a time
        SV = np.cross(u[:, :, None], V[heads], axisa=1, axisb=1, axisc=1)
        rot = (left @ SV)[:, :r, rot_cols]
        B[k, rr, d * n + w * heads[:, None, None] + np.arange(w)] = rot
    return B.reshape(r * m, (d + w) * n)


def _measured(fw: Framework, representation: str) -> RigidityMatrix:
    """The assembled matrix of a representation with its block structure."""
    d, rot_cols = _layout(fw, representation)
    n, w = fw.n, len(rot_cols)
    rows = tuple((d * e, d * e + d) for e in range(fw.m))
    cols = tuple(ColumnBlock(a + 1, (d * a, d * a + d),
                             (d * n + w * a, d * n + w * a + w) if w else None)
                 for a in range(n))
    return RigidityMatrix._adopt(_assemble(fw, d, rot_cols), representation, rows, cols)


def _layout(fw: Framework, representation: str) -> tuple[int, tuple[int, ...]]:
    """(d, rot_cols) of a representation: the rows kept per edge and position
    columns kept per agent, then the rotation columns kept of each agent's
    unified rotation block (see _assemble and _unified_columns)."""
    if representation == "unified":
        return 3, (0, 1, 2)
    if representation != "per_space":
        raise ValidationError(f"unknown representation {representation!r}")
    if not fw.is_homogeneous:
        raise ValidationError("per-space form needs a homogeneous framework; "
                              "use unified_rigidity_matrix")
    return fw.space.d, {"rd": (), "rdxs1": (2,), "se3": (0, 1, 2)}[fw.space.kind]


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


def _verdict_representation(fw: Framework) -> str:
    return "per_space" if fw.is_homogeneous else "unified"


def _matrix_for_verdict(fw: Framework) -> RigidityMatrix:
    """Per-space matrix of a homogeneous framework, unified otherwise."""
    return rigidity_matrix(fw) if fw.is_homogeneous else unified_rigidity_matrix(fw)


def _verdict_factor(fw: Framework) -> tuple[np.ndarray, tuple[int, int]]:
    """Factor rows of the verdict matrix (see _assemble) and the verdict
    matrix's own shape, which sets the rank threshold."""
    d, rot_cols = _layout(fw, _verdict_representation(fw))
    C = _assemble(fw, d, rot_cols, factor=True)
    return C, (d * fw.m, C.shape[1])


def fd_jacobian_check(fw: Framework, pol: TolerancePolicy | None = None,
                      trials: int = 20, step: float | None = None,
                      seed: int = 0, representation: str = "auto",
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

    Every representation moves the state the same way: delta is lifted into
    unified coordinates, positions move by h*dp and each rotation by
    exp(h * skew(V_a dw_a)) from the left, V_a being the agent's
    rotation-input matrix (agents without one keep their rotation), all
    agents of a trial in one stacked rotation_exp. The compared bearing rows
    are the first d components of each edge's bearing. trials must be >= 1,
    and step, when given, lies in fd_step's range (see TolerancePolicy).
    """
    pol = pol or TolerancePolicy()
    if trials < 1:
        raise ValidationError(f"fd trials must be at least 1, got {trials}")
    h = pol.fd_step if step is None else check_tolerance("step", float(step), below=1.0)
    if representation == "auto":
        representation = _verdict_representation(fw)
    d, rot_cols = _layout(fw, representation)
    fw = _unit_scale(fw)
    B = (rigidity_matrix(fw) if representation == "per_space"
         else unified_rigidity_matrix(fw)).matrix
    n = fw.n
    lift = _unified_columns(n, d, rot_cols)
    V = np.array([fw.space_of(a + 1).rotation_input() for a in range(n)])
    turning = V.any()
    edges0 = [(i - 1, j - 1) for i, j in fw.graph.edges]
    P, R = fw.positions(), np.array(fw.rotations())
    b0 = bearing_stack_raw(edges0, P, R)[:, :d].reshape(-1)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        delta = rng.standard_normal(B.shape[1])
        if representation == "unified" and _uses_planar_projector(fw):
            delta[2:3 * n:3] = 0.0
        delta /= np.linalg.norm(delta)
        full = np.zeros(6 * n)
        full[lift] = delta
        dp, dw = full.reshape(2, n, 3)
        R2 = rotation_exp(h * np.einsum("aij,aj->ai", V, dw)) @ R if turning else R
        b1 = bearing_stack_raw(edges0, P + h * dp, R2)[:, :d].reshape(-1)
        fd = (b1 - b0) / h
        Bd = B @ delta
        err = np.linalg.norm(Bd - fd) / max(1.0, np.linalg.norm(Bd))
        worst = max(worst, float(err))
    return FDCheckResult(max_rel_error=worst, step=h, trials=trials,
                         representation=representation)


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
        G[:3 * n, 4 + k] = np.cross(w, P).reshape(-1)
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
    return _trivial_basis(fw, pol)


def _trivial_basis(fw: Framework, pol: TolerancePolicy) -> SubspaceBasis:
    """trivial_variation_basis of a homogeneous framework its caller has
    already found non-degenerate."""
    d, rot_cols = _layout(fw, "per_space")
    P = fw.positions()
    P -= P.mean(axis=0)
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
    Zelazo, IEEE TAC 2016), so no complete graph is built. Degenerate and
    heterogeneous frameworks have no such closed form and get the SVD of
    the complete-graph matrix in the verdict representation, through its
    factor rows (see _assemble). The choice is _decide's (_complete_kernel),
    made at fw's own scale; a mixed team takes the SVD untested.
    """
    pol = pol or TolerancePolicy()
    degenerate = fw.is_homogeneous and not is_non_degenerate(fw, pol)
    return _complete_kernel(fw, pol, degenerate)[0]


def _complete_kernel(fw: Framework, pol: TolerancePolicy, degenerate: bool,
                     ) -> tuple[np.ndarray, SubspaceBasis | None, tuple | None]:
    """(Nk, trivial, complete_factor): the complete-graph kernel of fw, from
    the closed-form trivial basis when fw is homogeneous and not degenerate
    (trivial is that basis, complete_factor None), otherwise from the
    decomposed _verdict_factor of the complete graph (trivial None)."""
    if fw.is_homogeneous and not degenerate:
        trivial = _trivial_basis(fw, pol)
        return trivial.basis, trivial, None
    factor = _verdict_factor(_complete(fw))
    return rank_and_nullspace(factor[0], pol, shape=factor[1])[1], None, factor


def _complete(fw: Framework) -> Framework:
    """fw's agents on the complete graph of fw's graph kind."""
    return fw.with_graph(complete_graph(fw.graph))


def _rms_radius(fw: Framework) -> float:
    """RMS distance of the agents from their centroid."""
    P = fw.positions()
    return float(np.sqrt(np.mean(np.sum((P - P.mean(axis=0)) ** 2, axis=1))))


def _unit_scale(fw: Framework) -> Framework:
    """The same framework with positions divided by their RMS distance from
    the centroid. Kernels are scale invariant, but translational columns
    scale as 1/length while rotational ones do not, so one relative rank
    threshold only separates both kinds of singular value near unit scale.
    A framework within 1e-12 of unit scale is returned as it is."""
    scale = _rms_radius(fw)
    if abs(scale - 1.0) <= 1e-12:
        return fw
    return dataclasses.replace(
        fw, states=tuple(dataclasses.replace(st, p=st.p / scale) for st in fw.states))


def _decide(fw: Framework, pol: TolerancePolicy) -> tuple:
    """(verdict, unit, part, Nk, complete_factor) of fw, decided once at
    unit formation scale (unit): one degeneracy test, one complete-graph
    kernel Nk (_complete_kernel; complete_factor is the complete graph's
    verdict factor and shape when Nk was decomposed from it, else None) and
    one decomposition of fw's factor. part is the closed-form trivial basis
    (in unit's coordinates) that serves as Nk, None for a degenerate
    homogeneous framework, or a mixed team's HeteroKernelReport."""
    unit = _unit_scale(fw)
    degenerate = not is_non_degenerate(unit, pol)
    Nk, part, complete_factor = _complete_kernel(unit, pol, degenerate)
    C, shape = _verdict_factor(unit)
    rank, N = rank_and_nullspace(C, pol, shape=shape)
    verdict = _classify(fw, pol, rank, N, Nk, degenerate)
    if not fw.is_homogeneous:
        part = HeteroKernelReport(verdict, *_hetero_split(fw, unit, C, N, pol))
    return verdict, unit, part, Nk, complete_factor


def ibr_verdict(fw: Framework, pol: TolerancePolicy | None = None) -> RigidityVerdict:
    """Classify a framework as IBR or IBF.

    The deciding test, in every space, is kernel equality with the complete
    graph on the same agents (inclusion plus equal dimension), decided once
    at unit formation scale (_decide). For non-degenerate homogeneous
    frameworks the complete graph's kernel is the closed-form trivial basis;
    degenerate and heterogeneous frameworks decompose the complete-graph
    matrix too. A complete kernel not contained in the framework kernel
    raises NumericalError. Homogeneous frameworks report the rank target
    c*n - c - 1 as expected_rank, not as a second test; degenerate ones are
    flagged.
    """
    return _decide(fw, pol or TolerancePolicy())[0]


def _classify(fw: Framework, pol: TolerancePolicy, rank_g: int, Ng: np.ndarray,
              Nk: np.ndarray, degenerate: bool) -> RigidityVerdict:
    """The verdict from the framework's rank and kernel Ng, the complete-graph
    kernel Nk (one representation) and the degeneracy test (see ibr_verdict)."""
    kernel_eq = _kernel_equal(Nk, Ng, pol)
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
    classification = IBR if kernel_eq else IBF
    if classification == IBR:
        notes.append("infinitesimal rigidity implies global bearing rigidity, "
                     "which implies bearing rigidity")
    return RigidityVerdict(rank=rank_g, nullity=Ng.shape[1], expected_rank=expected,
                           kernel_equal_to_complete=kernel_eq,
                           classification=classification, degenerate=degenerate,
                           notes=tuple(notes))


def _kernel_equal(Nk: np.ndarray, Ng: np.ndarray, pol: TolerancePolicy) -> bool:
    """Is the kernel Ng the complete-graph kernel Nk (orthonormal bases)? Nk
    lies in Ng, else NumericalError; then, as subspace_tol < 1 keeps the
    reverse residual ||(I - Nk Nk^T) Ng||_F^2 >= dim Ng - dim Nk, equal
    dimension is equality."""
    if not subspace_contains(Ng, Nk, pol):
        raise NumericalError(
            "complete-graph kernel not contained in framework kernel; "
            "tolerances are inconsistent with this matrix")
    return Ng.shape[1] == Nk.shape[1]


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
    structurally zero columns, i.e. rotation directions no agent can use)
    and the trivial part (the kernel's intersection with the complement of
    the virtual part). The trivial part is labeled by matching candidate
    generators: translations, uniform scaling, and coordinated rotations
    about the coordinate axes, each agent turning through its own
    rotation-input matrix; a candidate counts as present when its
    residual against the trivial part stays below subspace_tol. Directions
    matched by no candidate are labeled "unlabeled".

    It splits the kernel ibr_verdict decides on at unit formation scale
    (_decide), so dimensions and labels do not change when the formation is
    scaled. The returned generators and bases are in fw's own coordinates:
    a kernel vector's position rows scale with the formation, its rotation
    rows do not.
    """
    if fw.is_homogeneous:
        raise ValidationError("kernel decomposition targets heterogeneous frameworks; "
                              "homogeneous ones have trivial_variation_basis")
    return _decide(fw, pol or TolerancePolicy())[2]


def _hetero_split(fw: Framework, unit: Framework, C: np.ndarray, N: np.ndarray,
                  pol: TolerancePolicy) -> tuple:
    """(trivial, virtual, zero_columns) of a mixed team's kernel N, that of
    its verdict factor C at unit scale (see hetero_kernel_analysis)."""
    ambient = C.shape[1]
    zero_cols = np.flatnonzero(~C.any(axis=0))
    Qv = np.eye(ambient)[:, zero_cols]
    trimmed = N.copy()
    trimmed[zero_cols, :] = 0.0
    Qt = orthonormal_columns(trimmed, pol)

    P = unit.positions()
    P -= P.mean(axis=0)
    V = np.array([unit.space_of(a + 1).rotation_input() for a in range(fw.n)])
    # agent a turns by V_a^T e (row c of V_a), which is angular velocity e
    # whenever e lies in the range of its rotation-input matrix V_a
    candidates, names = _trivial_generators(
        P, [(e, V[:, c]) for c, e in enumerate(np.eye(3))])
    matched: list[np.ndarray] = []
    labels: list[str] = []
    for g, name in zip(candidates.T, names):
        resid = g - Qt @ (Qt.T @ g)
        if np.linalg.norm(resid) / np.linalg.norm(g) < pol.subspace_tol:
            matched.append(g)
            labels.append(name)
    if matched:
        Qm = orthonormal_columns(np.column_stack(matched), pol)
        leftover = Qt - Qm @ (Qm.T @ Qt)
    else:
        leftover = Qt
    if leftover.size:
        # absolute cutoff: Qt columns are unit, so tiny singular values here
        # mean the matched generators already cover the direction
        U, sv, _ = np.linalg.svd(leftover, full_matrices=False)
        extra = U[:, sv > pol.subspace_tol]
    else:
        extra = np.zeros((ambient, 0))
    for eidx in range(extra.shape[1]):
        matched.append(extra[:, eidx])
        labels.append("unlabeled")
    if matched:
        lift = np.ones((ambient, 1))
        lift[:3 * fw.n] = _rms_radius(fw)
        gen_mat = lift * np.column_stack(matched)
        basis = orthonormal_columns(gen_mat / np.linalg.norm(gen_mat, axis=0), pol)
    else:
        gen_mat = basis = np.zeros((ambient, 0))
    trivial = SubspaceBasis(ambient_dim=ambient, basis=basis,
                            labels=tuple(labels), generators=gen_mat)
    virtual = SubspaceBasis(ambient_dim=ambient, basis=Qv,
                            labels=("virtual",) * len(zero_cols), generators=Qv)
    return trivial, virtual, tuple(zero_cols.tolist())


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
