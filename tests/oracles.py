"""Independent oracles the tests check the library against.

None of these share code with the assembler or the verdict path:

* incidence_matrices: the incidence matrix of a directed graph and its
  lifted forms, for rebuilding rigidity matrices as block products.
* reduced_rank_oracle: the rank of a position-only rigidity matrix from
  per-edge perpendicular rows.
* laman_rank: the generic rank of a planar framework by the 2D pebble game,
  a purely combinatorial count.

kernel_inclusion_check is no oracle: it reads the library's complete-graph
kernel and verdict factor, and reports their relation instead of raising as
the verdict does.

The small helpers below have no caller in the library:

* orthogonal_projector: the projector onto the complement of a vector, for
  rebuilding measured edge blocks the textbook way.
* planar_rotation: the 2x2 counter-clockwise rotation.
* subspace_relation: the two-way relation between two spans, from two
  containment tests. The library decides kernel equality by one containment
  test plus equal dimension; the tests keep this relation as its reference.
"""
from dataclasses import dataclass

import numpy as np

from bearing_rigidity import (SensingGraph, TolerancePolicy, ValidationError,
                              complete_graph_kernel, engine,
                              rank_and_nullspace, subspace_contains)


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


def laman_rank(n: int, edges) -> int:
    """Generic rank of a planar framework on vertices 1..n, by the 2D
    pebble game (Jacobs & Hendrickson, J. Comput. Phys. 1997).

    Every vertex starts with two pebbles. An edge is independent when four
    pebbles can be gathered on its two ends; one of them then covers the
    edge, which is directed away from the vertex that gave it. Pebbles are
    gathered by reversing a directed path to a vertex that still has one.
    The independent edges are a basis of the generic rigidity matroid, so
    their count is the rank. Edge directions in the input are ignored.
    """
    pebbles = [2] * (n + 1)
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
        while pebbles[a] + pebbles[b] < 4 and (fetch(a, b) or fetch(b, a)):
            pass
        if pebbles[a] + pebbles[b] == 4:
            pebbles[a] -= 1
            out[a].append(b)
            rank += 1
    return rank


def kernel_inclusion_check(fw, pol: TolerancePolicy | None = None) -> str:
    """Relation between the complete-graph kernel and the framework kernel,
    both at unit formation scale.

    Healthy outcomes are "equal" (rigid) or "A_subset_B" (the framework has
    extra flexes); anything else signals a numerical problem because removing
    edges can only grow the kernel.
    """
    pol = pol or TolerancePolicy()
    unit = engine._unit_scale(fw)
    C, shape = engine._verdict_factor(unit)
    return subspace_relation(complete_graph_kernel(unit, pol),
                             rank_and_nullspace(C, pol, shape=shape)[1], pol)


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
