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
from .linalg import TolerancePolicy, random_rotation, rank_and_nullspace, \
    rotation_axis_angle
from .spaces import AgentState, Framework, MetricSpace, is_non_degenerate
from . import engine

PLACEMENTS = ("generic_random", "collinear")
MIN_SEPARATION = 0.15
_RESAMPLE_CAP = 500


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
    planar = all(s.is_planar for s in spaces)
    if spec.collinear_axis is not None:
        v = np.asarray(spec.collinear_axis, dtype=float)
        if np.linalg.norm(v) == 0:
            raise ValidationError("collinear axis must be nonzero")
        v = v / np.linalg.norm(v)
        if planar and abs(v[2]) > 1e-12:
            raise ValidationError("planar frameworks need an in-plane axis")
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


def augment_to_ibr(fw: Framework, pol: TolerancePolicy | None = None,
                   ) -> tuple[Framework, tuple[tuple[int, int], ...]]:
    """Greedily add sensing edges until the framework is rigid.

    Each round adds the candidate edge with the largest rank gain of the
    verdict matrix, breaking ties by canonical edge order, until the kernel
    is as small as the complete graph's. It starts from ibr_verdict's own
    decision (engine._decide, at unit formation scale): an IBR verdict
    returns fw unchanged, an inconsistent one raises NumericalError as
    ibr_verdict does, and the final kernel takes the verdict's one test
    (engine._kernel_equal) against its complete-graph kernel. Ranks and
    kernels are taken on the verdict matrix's factor rows at unit scale, so
    the added edges do not change when the formation is scaled; the
    returned framework keeps fw's own positions.

    An edge's factor rows depend on that edge alone, so the complete graph's
    factor is assembled once per call (or taken from the decision, which
    builds it for degenerate inputs and mixed teams), and every rank is
    taken on a row selection of it: the current edges plus the candidate,
    in canonical order, which is exactly the factor of that graph. No graph
    or framework is built per candidate, and the winning candidate's kernel
    is the new graph's, so no selection is decomposed twice.
    """
    pol = pol or TolerancePolicy()
    verdict, unit, _, Nk, factor = engine._decide(fw, pol)
    if verdict.classification == engine.IBR:
        return fw, ()

    C, (rows, cols) = factor or engine._verdict_factor(engine._complete(unit))
    edges = complete_edges(fw.n, fw.graph.kind)
    blocks = C.reshape(len(edges), -1, cols)
    per_edge = rows // len(edges)  # measured rows per edge set the threshold

    def rank(selected: list[int]) -> tuple[int, np.ndarray]:
        return rank_and_nullspace(blocks[selected].reshape(-1, cols), pol,
                                  shape=(per_edge * len(selected), cols))

    index = {e: k for k, e in enumerate(edges)}
    current = sorted(index[e] for e in fw.graph.edges)
    rank_g = verdict.rank
    added: list[tuple[int, int]] = []
    while rank_g < cols - Nk.shape[1]:
        have = set(current)
        candidates = [k for k in range(len(edges)) if k not in have]
        best = None
        for k in candidates:
            r, N = rank(sorted(current + [k]))
            if r > rank_g:
                best, rank_g, Ng = k, r, N
        if best is None:
            raise NumericalError("no candidate edge raises the rank, yet the kernel "
                                 "exceeds the complete graph's")
        current = sorted(current + [best])
        added.append(edges[best])
    engine._kernel_equal(Nk, Ng, pol)
    graph = SensingGraph(fw.n, tuple(edges[k] for k in current), fw.graph.kind)
    return fw.with_graph(graph), tuple(added)


def hetero_case_study(seed: int = 0) -> Framework:
    """Three planar heading agents on the ground plus one full-pose agent
    above them, sensing each other completely.

    Ground agents are drawn non-collinear and pairwise separated at zero
    height; the aerial agent hovers strictly above the unit box floor.
    """
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
