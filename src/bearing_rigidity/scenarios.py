"""Framework generators: seeded random frameworks, greedy rigidification,
the mixed ground/aerial case study, and named fixtures.

Everything here is deterministic given the seed; a single generator object
drives all draws in a fixed order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .graphs import SensingGraph, complete_edges, is_connected
from .linalg import TolerancePolicy, _rank, random_rotation, rotation_axis_angle
from .spaces import AgentState, Framework, MetricSpace, is_non_degenerate
from . import engine

PLACEMENTS = ("generic_random", "collinear")
MIN_SEPARATION = 0.15
_RESAMPLE_CAP = 500
# Bytes of candidate factors one stacked rank call holds. The stacks grow as
# n^4 with the formation (candidates times selected rows times columns), so a
# round is split to keep augmentation's memory peak flat.
_STACK_BYTES = 1 << 19


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a random framework."""

    space: MetricSpace | tuple[MetricSpace, ...]
    n: int
    graph_density: float = 1.0
    seed: int = 0
    placement: str = "generic_random"
    collinear_axis: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValidationError("need at least 3 agents")
        if not 0.0 < self.graph_density <= 1.0:
            raise ValidationError("graph_density must be in (0, 1]")
        if self.placement not in PLACEMENTS:
            raise ValidationError(f"unknown placement {self.placement!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if isinstance(self.space, (list, tuple)):
            object.__setattr__(self, "space", tuple(self.space))


def _space_list(spec: GeneratorSpec) -> list[MetricSpace]:
    if isinstance(spec.space, tuple):
        if len(spec.space) != spec.n:
            raise ValidationError("per-agent space list must match n")
        return list(spec.space)
    return [spec.space] * spec.n


def _graph_kind(spec: GeneratorSpec) -> str:
    sp = spec.space
    if isinstance(sp, MetricSpace) and sp.kind == "rd":
        return "undirected"
    return "directed"


def _sample_graph(n: int, density: float, kind: str,
                  rng: np.random.Generator) -> SensingGraph:
    """Connected random graph with ceil(density * complete) edges.

    A random spanning tree guarantees (weak) connectivity; the remaining
    edges are drawn uniformly from the complement.
    """
    pool = list(complete_edges(n, kind))
    target = math.ceil(density * len(pool))
    if target < n - 1:
        raise ValidationError(
            f"density {density} gives {target} edges, too few to connect {n} vertices")
    order = [int(v) + 1 for v in rng.permutation(n)]
    tree = []
    for pos in range(1, n):
        a = order[pos]
        b = order[int(rng.integers(0, pos))]
        if kind == "undirected":
            tree.append((min(a, b), max(a, b)))
        else:
            # arc direction is its own coin flip
            tree.append((a, b) if rng.random() < 0.5 else (b, a))
    chosen = set(tree)
    rest = [e for e in pool if e not in chosen]
    extra = target - len(chosen)
    if extra > 0:
        picks = rng.choice(len(rest), size=extra, replace=False)
        chosen.update(rest[int(t)] for t in picks)
    g = SensingGraph(n, tuple(sorted(chosen)), kind)
    if not is_connected(g):
        raise NumericalError("graph sampling produced a disconnected graph")
    return g


def _generic_positions(spaces: list[MetricSpace], rng: np.random.Generator,
                       min_sep: float) -> np.ndarray:
    """Uniform in a box of side n**(1/dim) (dim 2 if all agents are planar,
    else 3), so the density does not grow with n; planar agents at z = 0."""
    n = len(spaces)
    planar = np.array([s.is_planar for s in spaces])
    side = n ** (1.0 / (2 if planar.all() else 3))
    upper = np.triu_indices(n, 1)
    for _ in range(_RESAMPLE_CAP):
        P = rng.uniform(0.0, side, (n, 3))
        P[planar, 2] = 0.0
        seps = np.linalg.norm(P[:, None] - P[None], axis=2)[upper]
        if seps.min() >= min_sep and is_non_degenerate(P):
            return P
    raise NumericalError("could not draw a well-separated non-degenerate placement")


def _collinear_positions(spec: GeneratorSpec, spaces: list[MetricSpace],
                         rng: np.random.Generator) -> np.ndarray:
    """A seeded line of agents, in the plane z = 0 when any agent is planar:
    planar agents are pinned to that plane, so a line leaving it would not
    stay a line."""
    planar = any(s.is_planar for s in spaces)
    if spec.collinear_axis is not None:
        v = np.asarray(spec.collinear_axis, dtype=float)
        if np.linalg.norm(v) == 0:
            raise ValidationError("collinear axis must be nonzero")
        v = v / np.linalg.norm(v)
        if planar and abs(v[2]) > 1e-12:
            raise ValidationError("teams with a planar agent need an in-plane axis")
    else:
        v = rng.standard_normal(3)
        if planar:
            v[2] = 0.0
        v /= np.linalg.norm(v)
    p0 = rng.uniform(0.0, 1.0, 3)
    if planar:
        p0[2] = 0.0
    # cumulative offsets keep every consecutive separation above the floor
    steps = MIN_SEPARATION + rng.uniform(0.0, 0.3, spec.n)
    offs = np.cumsum(steps)
    return p0 + np.outer(offs, v)


def random_framework(spec: GeneratorSpec) -> Framework:
    """Draw a framework from the recipe. Deterministic in the seed.

    Generic placement resamples until the agents are pairwise separated and
    non-collinear; collinear placement puts them on a seeded line instead
    (for degenerate-case studies). Orientations are uniform in their domain.
    """
    rng = np.random.default_rng(spec.seed)
    spaces = _space_list(spec)
    kind = _graph_kind(spec)
    g = _sample_graph(spec.n, spec.graph_density, kind, rng)
    if spec.placement == "generic_random":
        P = _generic_positions(spaces, rng, MIN_SEPARATION)
    else:
        P = _collinear_positions(spec, spaces, rng)
    states = []
    for a, s in enumerate(spaces):
        if s.kind == "rd":
            states.append(AgentState(p=P[a]))
        elif s.kind == "rdxs1":
            states.append(AgentState(p=P[a], alpha=float(rng.uniform(0.0, 2 * np.pi))))
        else:
            states.append(AgentState(p=P[a], R=random_rotation(rng)))
    space = spec.space if isinstance(spec.space, MetricSpace) else tuple(spaces)
    return Framework(graph=g, space=space, states=tuple(states))


def _candidate_ranks(blocks: np.ndarray, deflated: np.ndarray, slack: float,
                     chosen: np.ndarray, dead: np.ndarray, per_edge: int,
                     pol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """(candidates, ranks): the edges neither chosen nor dead, in canonical
    order, and the rank of the factor of the chosen edges plus each one.
    blocks holds each complete edge's factor rows; per_edge is the measured
    rows per edge, for the threshold shape. Each selection is one row of an
    index array over blocks, sorted so that it keeps the canonical order,
    and the selections are ranked in stacks of at most _STACK_BYTES of
    blocks each.

    A stack is ranked on its deflated rows where a certificate allows, on
    cols - k columns instead of cols. deflated holds each edge's factor rows
    times Q2, the last cols - k columns of an orthogonal Q = [Q1 Q2] whose
    first k span the complete-graph kernel Nk (_deflation), and slack
    is w = delta + 4 e: delta = ||C_K Q1||_F, C_K the complete graph's
    factor (all of blocks), and e = max(C_K.shape) * eps * ||C_K||_F *
    sqrt(cols).

    A selection C_S holds rows of C_K, so ||C_S Q1||_2 <= delta, and C_S Q
    = [C_S Q1, C_S Q2] has C_S's singular values. By Weyl, each of them
    lies within delta of the one of [0, C_S Q2] at the same index, which
    are C_S Q2's padded with zeros. Rounding, as in engine._residual_bound:
    e bounds the backward error of each of the two SVDs, the rounding of
    the product C_K Q (both column blocks, delta is read from it), and Q's
    distance from an orthogonal matrix times ||C_K||. So the computed
    values s of C_S and s' of its deflated rows, s' padded with zeros,
    differ by at most w at every index.

    The threshold C_S's own SVD sets, t = rtol s_1, then lies in the window
    [lo, hi] = rtol [s'_1 - w, s'_1 + w], and so does the deflated one,
    rtol s'_1. Where every s'_i lies above hi + w or below lo - w, and w <
    lo (for the padding zeros), each s_i lies on the same side of t as s'_i
    does of rtol s'_1, and the deflated rank is the one C_S's own SVD
    gives (_certified).
    A stack that misses this for any of its matrices is ranked again on its
    undeflated rows, the same _rank call."""
    base, candidates = np.flatnonzero(chosen), np.flatnonzero(~(chosen | dead))
    selections = np.sort(np.column_stack(
        [np.broadcast_to(base, (candidates.size, base.size)), candidates]), axis=1)
    _, block_rows, cols = blocks.shape
    size = selections.shape[1]
    shape = (per_edge * size, cols)
    rtol = pol.effective_rank_rtol(shape)
    step = max(1, _STACK_BYTES // (size * blocks[0].nbytes))
    ranks = []
    for part in np.split(selections, range(step, len(selections), step)):
        rank, _, s, _ = _rank(
            deflated[part].reshape(len(part), size * block_rows, deflated.shape[2]),
            pol, shape=shape)
        if not _certified(s, rtol, slack):
            rank = _rank(blocks[part].reshape(len(part), size * block_rows, cols),
                         pol, shape=shape)[0]
        ranks.append(rank)
    return candidates, np.concatenate(ranks)


def _certified(s: np.ndarray, rtol: float, slack: float) -> bool:
    """Do the deflated singular value rows s decide the undeflated ranks?
    True when each row clears its threshold window rtol (s_1 +- slack) by
    slack on both sides, and slack lies below the window (see
    _candidate_ranks)."""
    lo, hi = rtol * (s[:, :1] - slack), rtol * (s[:, :1] + slack)
    return bool(np.all(lo > slack) and np.all((s > hi + slack) | (s < lo - slack)))


def _deflation(blocks: np.ndarray, Nk: np.ndarray) -> tuple[np.ndarray, float]:
    """(deflated, slack): each complete edge's factor rows (blocks, whose
    rows make up C_K) times Q2, and the certificate's w = ||C_K Q1||_F +
    4 e (see _candidate_ranks), both read from the one product C_K Q. Q =
    [Q1 Q2] is the orthogonal factor of a complete QR of Nk (k columns), so
    Q1 spans Nk."""
    edges, block_rows, cols = blocks.shape
    C = blocks.reshape(-1, cols)
    CQ = C @ np.linalg.qr(Nk, mode="complete")[0]
    err = max(C.shape) * np.finfo(float).eps * np.linalg.norm(C) * np.sqrt(cols)
    k = Nk.shape[1]
    return (CQ[:, k:].reshape(edges, block_rows, cols - k),
            float(np.linalg.norm(CQ[:, :k]) + 4.0 * err))


def augment_to_ibr(fw: Framework, pol: TolerancePolicy | None = None,
                   ) -> tuple[Framework, tuple[tuple[int, int], ...]]:
    """Greedily add sensing edges until the framework is rigid.

    Each round adds the candidate edge with the largest rank gain of the
    verdict matrix, breaking ties by canonical edge order, until the kernel
    is as small as the complete graph's. It starts from ibr_verdict's own
    decision (engine._decide, at unit formation scale): an IBR verdict
    returns fw unchanged, an inconsistent one raises NumericalError as
    ibr_verdict does, and the final graph takes the verdict's one
    containment test (engine._contained_rank) against its complete-graph
    kernel. Ranks and
    kernels are taken on the verdict matrix's factor rows at unit scale, so
    the added edges do not change when the formation is scaled; the
    returned framework keeps fw's own positions.

    An edge's factor rows depend on that edge alone, so the complete graph's
    factor is assembled once per call from the complete edge list, and every
    rank is taken on a row selection of it: the current edges plus the
    candidate in canonical order, which is exactly the factor of that graph.
    No graph or framework is built per candidate. A round ranks all its
    candidates from singular values alone (linalg._rank, same threshold) in
    stacks of at most _STACK_BYTES (see _candidate_ranks); a round in which
    no candidate raises the rank raises NumericalError. A candidate whose
    rank gain is 0 in one round is never ranked again: rank over a set of
    rows is submodular, so adding edges never raises another edge's gain,
    and a dead edge could not win a later round. The containment test of
    the final selection ranks it once more, from its singular values unless
    its bound is missed, and that rank must be the loop's.

    The complete kernel Nk (k columns) lies in the kernel of every graph on
    the agents, so each selection's rank is decided on cols - k columns:
    the complete factor is multiplied once per call by an orthogonal Q
    whose first k columns span Nk (a complete QR of Nk), and the candidates
    are ranked on the other cols - k columns of that product, at the
    threshold shape of the undeflated rows. Its first k columns give the
    certificate's slack (_candidate_ranks): a stack whose deflated singular
    values stay clear of the threshold by it has the undeflated ranks,
    and any other stack is ranked again on its undeflated rows.
    """
    pol = pol or TolerancePolicy()
    decision = engine._decide(fw, pol)
    if decision.verdict.classification == engine.IBR:
        return fw, ()

    edges = complete_edges(fw.n, fw.graph.kind)
    C, (rows, cols) = engine._verdict_factor(fw, edges)
    blocks = C.reshape(len(edges), -1, cols)
    deflated, slack = _deflation(blocks, decision.Nk)
    per_edge = rows // len(edges)  # measured rows per edge set the threshold

    present = frozenset(fw.graph.edges)
    chosen = np.array([e in present for e in edges])
    dead = np.zeros_like(chosen)
    rank_g = decision.verdict.rank
    added: list[tuple[int, int]] = []
    while rank_g < cols - decision.Nk.shape[1]:
        candidates, ranks = _candidate_ranks(blocks, deflated, slack, chosen, dead,
                                             per_edge, pol)
        if not np.any(ranks > rank_g):
            raise NumericalError("no candidate edge raises the rank, yet the kernel "
                                 "exceeds the complete graph's")
        dead[candidates[ranks == rank_g]] = True  # gain 0 now, so 0 in every later round
        best = int(np.argmax(ranks))  # the first of the largest gains
        rank_g = int(ranks[best])
        chosen[candidates[best]] = True
        added.append(edges[candidates[best]])
    rank_final, _ = engine._contained_rank(blocks[chosen].reshape(-1, cols),
                                           (per_edge * int(chosen.sum()), cols),
                                           decision.Nk, pol)
    if rank_final != rank_g:
        raise NumericalError(f"the augmented graph's rank {rank_final} is not the "
                             f"{rank_g} its edges were chosen by")
    graph = SensingGraph(fw.n, tuple(e for e, c in zip(edges, chosen) if c), fw.graph.kind)
    return fw.with_graph(graph), tuple(added)


def hetero_case_study(seed: int = 0) -> Framework:
    """Three planar heading agents on the ground plus one full-pose agent
    above them, sensing each other completely.

    Ground agents are drawn non-collinear and pairwise separated at zero
    height; the aerial agent hovers strictly above the unit box floor.
    """
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    se2 = MetricSpace.rd_s1(2)
    se3 = MetricSpace.se3()
    for _ in range(_RESAMPLE_CAP):
        ground = rng.uniform(0.0, 1.0, (3, 3))
        ground[:, 2] = 0.0
        seps = [np.linalg.norm(ground[i] - ground[j])
                for i in range(3) for j in range(i + 1, 3)]
        if min(seps) >= MIN_SEPARATION and is_non_degenerate(ground):
            break
    else:
        raise NumericalError("could not place the ground agents")
    aerial = np.array([rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                       rng.uniform(0.5, 1.5)])
    states = [AgentState(p=ground[a], alpha=float(rng.uniform(0.0, 2 * np.pi)))
              for a in range(3)]
    states.append(AgentState(p=aerial, R=random_rotation(rng)))
    g = SensingGraph(4, complete_edges(4, "directed"), "directed")
    return Framework(graph=g, space=(se2, se2, se2, se3), states=tuple(states))


def _triangle_positions() -> np.ndarray:
    return np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, np.sqrt(3.0) / 2.0, 0.0]])


def _square_positions() -> np.ndarray:
    return np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])


def _fixture_triangle_r2_complete() -> Framework:
    g = SensingGraph(3, complete_edges(3, "undirected"), "undirected")
    return Framework(g, MetricSpace.rd(2),
                     tuple(AgentState(p=p) for p in _triangle_positions()))


def _fixture_square_cycle_r2() -> Framework:
    g = SensingGraph(4, ((1, 2), (2, 3), (3, 4), (1, 4)), "undirected")
    return Framework(g, MetricSpace.rd(2),
                     tuple(AgentState(p=p) for p in _square_positions()))


def _fixture_square_diagonal_r2() -> Framework:
    g = SensingGraph(4, ((1, 2), (2, 3), (3, 4), (1, 4), (1, 3)), "undirected")
    return Framework(g, MetricSpace.rd(2),
                     tuple(AgentState(p=p) for p in _square_positions()))


def _fixture_star_r2() -> Framework:
    pts = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                    [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    g = SensingGraph(5, ((1, 2), (1, 3), (1, 4), (1, 5)), "undirected")
    return Framework(g, MetricSpace.rd(2), tuple(AgentState(p=p) for p in pts))


def _fixture_triangle_r2s1_complete() -> Framework:
    g = SensingGraph(3, complete_edges(3, "directed"), "directed")
    headings = (0.3, 1.7, 4.1)
    return Framework(g, MetricSpace.rd_s1(2),
                     tuple(AgentState(p=p, alpha=a)
                           for p, a in zip(_triangle_positions(), headings)))


def _fixture_cube_se3_complete() -> Framework:
    pts = np.array([[x, y, z] for z in (0.0, 1.0) for y in (0.0, 1.0)
                    for x in (0.0, 1.0)])
    g = SensingGraph(8, complete_edges(8, "directed"), "directed")
    axes = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])]
    states = tuple(AgentState(p=pts[a], R=rotation_axis_angle(axes[a % 3], 0.4 * a))
                   for a in range(8))
    return Framework(g, MetricSpace.se3(), states)


FIXTURES = {
    "triangle-r2-complete": _fixture_triangle_r2_complete,
    "square-cycle-r2": _fixture_square_cycle_r2,
    "square-diagonal-r2": _fixture_square_diagonal_r2,
    "star-r2": _fixture_star_r2,
    "triangle-r2s1-complete": _fixture_triangle_r2s1_complete,
    "cube-se3-complete": _fixture_cube_se3_complete,
    "hetero-case-study": hetero_case_study,
}


def fixture(name: str) -> Framework:
    """Named deterministic framework, addressable from the CLI."""
    try:
        return FIXTURES[name]()
    except KeyError:
        raise ValidationError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(FIXTURES))}"
        ) from None
