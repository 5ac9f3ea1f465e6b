"""Independent oracles the tests check the library against.

None of these share code with the assembler or the verdict path:

* incidence_matrices: the incidence matrix of a directed graph and its
  lifted forms, for rebuilding rigidity matrices as block products.
* reduced_rank_oracle: the rank of a position-only rigidity matrix from
  per-edge perpendicular rows.
* pebble_rank: the rank of a count matroid by the (k, l) pebble game, a
  purely combinatorial count; the generic rank of position-only frameworks
  in the plane (2, 3, 1) and in 3-space (3, 4, 2).
* mixed_complete_kernel: generators of a mixed team's complete-graph
  kernel, its structurally zero columns plus the trivial motions
  (mixed_trivial_generators, each labeled as hetero_kernel_analysis
  should label it), each motion checked on the bearing rates of every
  pair of agents.

kernel_inclusion_check is no oracle: it reads the library's complete-graph
kernel and verdict factor, and reports their relation instead of raising as
the verdict does.

The small helpers below have no caller in the library:

* orthogonal_projector: the projector onto the complement of a vector, for
  rebuilding measured edge blocks the textbook way.
* planar_rotation: the 2x2 counter-clockwise rotation.
* orient: the oriented copy of an undirected graph, the edge directions
  the incidence matrices and the position-only oracle read.
* case_study_partition: the mixed case study's edges split by who
  measures, for the criterion that both halves are flexible.
* subspace_contains: is span(A) in span(B), for inputs that need not be
  orthonormal, by the residual of A's basis after projecting out B's.
* subspace_relation: the two-way relation between two spans, from two
  containment tests. The library decides kernel equality by one containment
  test plus equal dimension; the tests keep this relation as its reference.
* unit_scale: a framework at unit formation scale, rebuilt and validated
  through the public constructors; the library keeps only the divided
  positions and their radius (Framework._unit).
"""
import dataclasses
from dataclasses import dataclass

import numpy as np

from bearing_rigidity import (Framework, SensingGraph, TolerancePolicy,
                              ValidationError, complete_graph_kernel, engine,
                              orthonormal_columns, rank_and_nullspace, spaces)


@dataclass(frozen=True)
class IncidenceMatrices:
    """Incidence matrix E, its outgoing part, and their d-dimensional liftings.

    E is n x m with E[i, k] = -1 when edge k leaves vertex i+1 (head) and +1
    when it enters (tail). E_out keeps only the -1 entries. The lifted forms
    replace every entry by entry * I_d.
    """

    E: np.ndarray
    E_out: np.ndarray
    Ebar: np.ndarray
    Ebar_out: np.ndarray
    d: int


def incidence_matrices(g: SensingGraph, d: int) -> IncidenceMatrices:
    """Build incidence matrices for a directed or oriented graph.

    Undirected graphs carry no edge directions, so they are rejected; call
    orient() first.
    """
    if g.kind == "undirected":
        raise ValidationError("incidence matrices need edge directions; orient() first")
    if d < 1:
        raise ValidationError(f"dimension must be positive, got {d}")
    E = np.zeros((g.n, g.m))
    for k, (i, j) in enumerate(g.edges):
        E[i - 1, k] = -1.0
        E[j - 1, k] = 1.0
    E_out = np.where(E < 0, E, 0.0)
    eye = np.eye(d)
    return IncidenceMatrices(E=E, E_out=E_out, Ebar=np.kron(E, eye),
                             Ebar_out=np.kron(E_out, eye), d=d)


def reduced_rank_oracle(positions: np.ndarray, edges, d: int | None = None,
                        pol: TolerancePolicy | None = None) -> int:
    """Rank of a position-only rigidity matrix by an independent construction.

    Builds, per edge, a basis of the directions perpendicular to the edge (a
    single rotated difference vector in the plane, two orthonormal
    complements in 3-space) and stacks +-rows in the endpoint columns. The
    row span per edge equals that of the projector block, so the rank
    matches the assembled matrix, with no projectors, scalings, or incidence
    products involved.
    """
    pol = pol or TolerancePolicy()
    P = np.asarray(positions, dtype=float)
    if P.ndim != 2 or P.shape[1] not in (2, 3):
        raise ValidationError("positions must be (n, 2) or (n, 3)")
    if d is None:
        d = P.shape[1]
    if d == 2 and P.shape[1] == 3:
        P = P[:, :2]
    n = P.shape[0]
    rows = []
    for (i, j) in edges:
        i0, j0 = i - 1, j - 1
        diff = P[j0] - P[i0]
        if d == 2:
            perps = [np.array([diff[1], -diff[0]])]
        else:
            # two orthonormal vectors spanning the complement of diff
            _, _, Vh = np.linalg.svd(diff.reshape(1, 3))
            perps = [Vh[1], Vh[2]]
        for v in perps:
            row = np.zeros(d * n)
            row[d * i0:d * i0 + d] = -v
            row[d * j0:d * j0 + d] = v
            rows.append(row)
    rank, _ = rank_and_nullspace(np.array(rows), pol)
    return rank


def pebble_rank(n: int, edges, k: int, l: int, copies: int) -> int:
    """Size of a largest (k, l)-sparse subset of the graph on vertices 1..n
    with every edge taken `copies` times, by the (k, l) pebble game (Lee &
    Streinu, Discrete Math. 308, 2008); 0 <= l < 2k.

    Every vertex starts with k pebbles. An edge copy is independent when
    l + 1 pebbles can be gathered on its two ends; one of them then covers
    it, and the copy is directed away from the vertex that gave the pebble.
    Pebbles are gathered by reversing a directed path to a vertex that
    still has one. The independent copies are a basis of the count matroid,
    so their number is its rank. Edge directions in the input are ignored.

    (2, 3, 1) is the Laman count, the generic rank of a planar framework
    (Jacobs & Hendrickson, J. Comput. Phys. 1997). In R^d, generic bearing
    rows count each edge d - 1 times against (d, d + 1) (Whiteley, Contemp.
    Math. 197, 1996), so (3, 4, 2) is the generic rank in 3-space.
    """
    pebbles = [k] * (n + 1)
    out: list[list[int]] = [[] for _ in range(n + 1)]

    def fetch(root: int, other: int) -> bool:
        """Move one free pebble to root from a vertex reachable from it,
        searching around both ends of the edge being tested."""
        parent = {root: root, other: other}
        stack = [root]
        while stack:
            u = stack.pop()
            for w in out[u]:
                if w in parent:
                    continue
                parent[w] = u
                if pebbles[w]:
                    pebbles[w] -= 1
                    pebbles[root] += 1
                    while w != root:
                        u = parent[w]
                        out[u].remove(w)
                        out[w].append(u)
                        w = u
                    return True
                stack.append(w)
        return False

    rank = 0
    for a, b in sorted({(min(e), max(e)) for e in edges}):
        for _ in range(copies):
            while pebbles[a] + pebbles[b] <= l and (fetch(a, b) or fetch(b, a)):
                pass
            if pebbles[a] + pebbles[b] > l:
                giver, other = (a, b) if pebbles[a] else (b, a)
                pebbles[giver] -= 1
                out[giver].append(other)
                rank += 1
    return rank


def mixed_complete_kernel(fw: Framework) -> tuple[np.ndarray, np.ndarray]:
    """(virtual, trivial): generators of the complete graph's kernel of a
    mixed team, in unified coordinates (3 position columns per agent, then
    3 rotation columns per agent) at fw's own positions.

    virtual holds the unit vectors of the structurally zero columns: agent
    a's rotation column c where column c of its rotation-input matrix V_a
    is zero, a direction no agent can turn in. trivial holds the candidate
    motions that leave every bearing of the complete graph still
    (mixed_trivial_generators).

    For a non-degenerate team the two spans together are conjectured to be
    the whole complete kernel (the paper states no such theorem for mixed
    teams); the tests check that against the library."""
    n = fw.n
    V = [fw.space_of(a + 1).rotation_input() for a in range(n)]
    masked = [3 * n + 3 * a + c for a in range(n) for c in range(3)
              if not V[a][:, c].any()]
    virtual = np.eye(6 * n)[:, masked]
    trivial = np.column_stack([g for _, g in mixed_trivial_generators(fw)])
    return virtual, trivial


def mixed_trivial_generators(fw: Framework) -> list[tuple[str, np.ndarray]]:
    """(label, generator) of each candidate motion of a mixed team that
    leaves every bearing of the complete graph still, in unified
    coordinates at fw's own positions: translations along x, y and z
    (translation_x, _y, _z), scaling about the centroid (scaling), and a
    coordinated rotation about each axis w of a basis of the axes every
    agent can turn about (the common range of the V_a), with positions
    swinging by w x p_a and agent a's rotation columns V_a^+ w. That basis
    holds the coordinate axes in the common range first, labeled
    coord_rotation_x, _y or _z, then an orthonormal basis of the rest of
    it, each labeled unlabeled. A candidate is kept when, for every
    ordered pair (i, j) with unit bearing u and distance l, the
    world-frame bearing rate P(u) (dp_j - dp_i) / l + u x (V_i dw_i),
    which R_i^T turns into the measured one, vanishes next to the size of
    its two terms."""
    n = fw.n
    P = fw.positions()
    P = P - P.mean(axis=0)
    V = [fw.space_of(a + 1).rotation_input() for a in range(n)]
    # w lies in every range when (I - V_a V_a^+) w = 0 for every agent
    _, sv, Wh = np.linalg.svd(np.vstack([np.eye(3) - v @ np.linalg.pinv(v) for v in V]))
    common = Wh[int(np.sum(sv > 1e-9)):]
    Pc = common.T @ common
    coords = [c for c in range(3) if Pc[c, c] > 1.0 - 1e-9]
    E = np.eye(3)[coords]
    values, vectors = np.linalg.eigh(Pc - E.T @ E)
    axes = [(f"coord_rotation_{'xyz'[c]}", E[i]) for i, c in enumerate(coords)]
    axes += [("unlabeled", w) for w in vectors[:, values > 0.5].T]
    candidates = []
    for c in range(3):
        g = np.zeros(6 * n)
        g[c:3 * n:3] = 1.0
        candidates.append((f"translation_{'xyz'[c]}", g))
    candidates.append(("scaling", np.concatenate([P.reshape(-1), np.zeros(3 * n)])))
    for label, w in axes:
        candidates.append((label, np.concatenate([np.cross(w, P).reshape(-1)]
                                                 + [np.linalg.pinv(v) @ w for v in V])))

    def still(g):
        dp, dw = g[:3 * n].reshape(n, 3), g[3 * n:].reshape(n, 3)
        for i in range(n):
            turn = V[i] @ dw[i]
            for j in range(n):
                if i == j:
                    continue
                diff = P[j] - P[i]
                dist = np.linalg.norm(diff)
                u = diff / dist
                move = dp[j] - dp[i]
                rate = (move - u * (u @ move)) / dist + np.cross(u, turn)
                size = np.linalg.norm(move) / dist + np.linalg.norm(turn)
                if np.linalg.norm(rate) > 1e-9 * size:
                    return False
        return True

    return [(label, g) for label, g in candidates if still(g)]


def kernel_inclusion_check(fw, pol: TolerancePolicy | None = None) -> str:
    """Relation between the complete-graph kernel and the framework kernel,
    both at unit formation scale.

    Healthy outcomes are "equal" (rigid) or "A_subset_B" (the framework has
    extra flexes); anything else signals a numerical problem because removing
    edges can only grow the kernel.
    """
    pol = pol or TolerancePolicy()
    unit = unit_scale(fw)
    C, shape = engine._verdict_factor(unit, unit.graph.edges)
    return subspace_relation(complete_graph_kernel(unit, pol),
                             rank_and_nullspace(C, pol, shape=shape)[1], pol)


def unit_scale(fw: Framework) -> Framework:
    """fw with every position divided by its RMS radius, each state and the
    framework built and validated again."""
    scale = spaces._rms_radius(fw.positions())
    return dataclasses.replace(fw, states=tuple(
        dataclasses.replace(st, p=st.p / scale) for st in fw.states))


def orthogonal_projector(x: np.ndarray) -> np.ndarray:
    """I - x x^T / ||x||^2, the projector onto the complement of span{x}.

    Idempotent, symmetric, annihilates x. Raises on a (numerically) zero
    vector, which upstream means two agents coincide.
    """
    x = np.asarray(x, dtype=float)
    nrm = np.linalg.norm(x)
    if nrm < 1e-12:
        raise ValidationError("projector of a zero vector is undefined")
    u = x / nrm
    return np.eye(x.shape[0]) - np.outer(u, u)


def planar_rotation(angle: float) -> np.ndarray:
    """2x2 counter-clockwise rotation."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def orient(g: SensingGraph) -> SensingGraph:
    """Orientation of an undirected graph: each pair gets the head < tail direction.

    Oriented input is returned unchanged; directed input is rejected because
    collapsing a genuinely directed edge set would silently drop measurements.
    """
    if g.kind == "oriented":
        return g
    if g.kind != "undirected":
        raise ValidationError("orient expects an undirected graph")
    return SensingGraph(g.n, g.edges, "oriented")


def case_study_partition(fw: Framework) -> tuple[Framework, Framework]:
    """Split a complete sensing topology by who measures: the planar agents'
    edges versus the full-pose agent's edges."""
    planar_heads = {i for i in range(1, fw.n + 1) if fw.space_of(i).kind != "se3"}
    e1 = tuple(e for e in fw.graph.edges if e[0] in planar_heads)
    e2 = tuple(e for e in fw.graph.edges if e[0] not in planar_heads)
    if not e1 or not e2:
        raise ValidationError("partition needs both planar and full-pose measuring agents")
    g1 = SensingGraph(fw.n, e1, fw.graph.kind)
    g2 = SensingGraph(fw.n, e2, fw.graph.kind)
    return fw.with_graph(g1), fw.with_graph(g2)


def subspace_contains(B: np.ndarray, A: np.ndarray,
                      pol: TolerancePolicy | None = None) -> bool:
    """Is span(A) contained in span(B)? Inputs need not be orthonormal."""
    pol = pol or TolerancePolicy()
    QA = orthonormal_columns(A, pol)
    QB = orthonormal_columns(B, pol)
    if QA.shape[0] != QB.shape[0]:
        raise ValidationError("subspaces live in different ambient dimensions")
    return float(np.linalg.norm(QA - QB @ (QB.T @ QA))) < pol.subspace_tol


def subspace_relation(A: np.ndarray, B: np.ndarray,
                      pol: TolerancePolicy | None = None) -> str:
    """Relation between span(A) and span(B).

    One of "equal", "A_subset_B", "B_subset_A", "incomparable".
    """
    pol = pol or TolerancePolicy()
    ab = subspace_contains(B, A, pol)
    ba = subspace_contains(A, B, pol)
    if ab and ba:
        return "equal"
    if ab:
        return "A_subset_B"
    if ba:
        return "B_subset_A"
    return "incomparable"
