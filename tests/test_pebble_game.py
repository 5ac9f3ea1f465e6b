"""Position-only verdicts against a purely combinatorial oracle.

In the plane, infinitesimal bearing rigidity coincides with infinitesimal
distance rigidity (Zhao & Zelazo, IEEE TAC 2016): each edge's bearing row is
its distance row turned by 90 degrees. At generic positions the rank of
both is the Laman rank of the graph, which the 2D pebble game counts
without any arithmetic on positions. In 3-space each edge gives two
independent bearing rows, and the generic rank is the (3, 4) count with
every edge taken twice (parallel redrawings; Whiteley, Contemp. Math. 197,
1996). The heading spaces have no such oracle here.
"""
import numpy as np
import pytest

from bearing_rigidity import (AgentState, Framework, GeneratorSpec,
                              MetricSpace, SensingGraph, TolerancePolicy,
                              augment_to_ibr, complete_edges, ibr_verdict,
                              random_framework)
from oracles import pebble_rank

POL = TolerancePolicy()
R2 = MetricSpace.rd(2)
R3 = MetricSpace.rd(3)


def laman_rank(n, edges):
    return pebble_rank(n, edges, 2, 3, 1)


def r3_rank(n, edges):
    return pebble_rank(n, edges, 3, 4, 2)


@pytest.mark.parametrize("n,edges,rank", [
    (3, complete_edges(3, "undirected"), 3),
    (4, complete_edges(4, "undirected"), 5),
    (4, ((1, 2), (2, 3), (3, 4), (1, 4)), 4),
    # two triangles sharing vertex 3: one hinge short of rigid
    (5, ((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)), 6),
    # K_{3,3} is minimally rigid; one more edge is redundant
    (6, tuple((a, b) for a in (1, 2, 3) for b in (4, 5, 6)), 9),
    (6, tuple((a, b) for a in (1, 2, 3) for b in (4, 5, 6)) + ((1, 2),), 9),
    # K_5 minus an edge: 9 edges, rank 7 = 2n - 3
    (5, complete_edges(5, "undirected")[1:], 7),
    # a directed pair counts once
    (3, ((1, 2), (2, 1), (2, 3)), 2),
])
def test_laman_rank_of_known_graphs(n, edges, rank):
    assert laman_rank(n, edges) == rank


def generic_tree(n, rng):
    """Generic planar positions on a random spanning tree."""
    order = [int(v) + 1 for v in rng.permutation(n)]
    edges = tuple(sorted((min(a, b), max(a, b)) for a, b in
                         ((order[k], order[int(rng.integers(0, k))])
                          for k in range(1, n))))
    P = rng.uniform(0.0, np.sqrt(n), (n, 2))
    return Framework(SensingGraph(n, edges, "undirected"), R2,
                     tuple(AgentState(p=p) for p in P))


def test_verdict_is_rigid_exactly_at_full_laman_rank():
    seen = set()
    for seed in range(60):
        n = 4 + seed % 9
        density = (0.35, 0.5, 0.65, 0.8)[seed % 4]
        fw = random_framework(GeneratorSpec(space=R2, n=n, graph_density=density,
                                            seed=seed))
        laman = laman_rank(n, fw.graph.edges)
        v = ibr_verdict(fw, POL)
        assert (v.classification == "IBR") == (laman == 2 * n - 3)
        assert v.rank == laman
        seen.add(v.classification)
    assert seen == {"IBR", "IBF"}


def test_augmentation_adds_one_laman_rank_per_edge():
    rng = np.random.default_rng(47)
    for n in range(4, 13):
        fw = generic_tree(n, rng)
        start = laman_rank(n, fw.graph.edges)
        out, added = augment_to_ibr(fw, POL)
        assert len(added) == 2 * n - 3 - start
        for k in range(1, len(added) + 1):
            assert laman_rank(n, fw.graph.edges + added[:k]) == start + k
        assert laman_rank(n, out.graph.edges) == 2 * n - 3


@pytest.mark.parametrize("n,edges,rank", [
    (2, ((1, 2),), 2),
    (3, complete_edges(3, "undirected"), 5),
    # K4 is rigid in 3-space: 3n - 4 = 8 of its 12 rows
    (4, complete_edges(4, "undirected"), 8),
    (4, ((1, 2), (2, 3), (3, 4)), 6),
    # two triangles sharing vertex 3 turn about it: 2 * 5 of 3n - 4 = 11
    (5, ((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)), 10),
    # a directed pair counts once
    (3, ((1, 2), (2, 1), (2, 3)), 4),
])
def test_r3_count_of_known_graphs(n, edges, rank):
    assert r3_rank(n, edges) == rank


def test_r3_verdict_rank_is_the_count():
    seen = set()
    for seed in range(120):
        n = 4 + seed % 6
        density = (0.5, 0.6, 0.7, 0.85)[seed % 4]
        fw = random_framework(GeneratorSpec(space=R3, n=n, graph_density=density,
                                            seed=seed))
        count = r3_rank(n, fw.graph.edges)
        v = ibr_verdict(fw, POL)
        assert v.rank == count
        assert (v.classification == "IBR") == (count == 3 * n - 4)
        seen.add(v.classification)
    assert seen == {"IBR", "IBF"}


def test_r3_augmentation_raises_the_count_by_the_rank_gain():
    rng = np.random.default_rng(59)
    for n in range(4, 10):
        tree = generic_tree(n, rng)
        P = rng.uniform(0.0, n ** (1.0 / 3.0), (n, 3))
        fw = Framework(tree.graph, R3, tuple(AgentState(p=p) for p in P))
        start = ibr_verdict(fw, POL).rank
        assert r3_rank(n, fw.graph.edges) == start == 2 * (n - 1)
        out, added = augment_to_ibr(fw, POL)
        assert added
        for k in range(1, len(added) + 1):
            prefix = fw.with_graph(SensingGraph(n, fw.graph.edges + added[:k], "undirected"))
            gain = ibr_verdict(prefix, POL).rank - start
            assert gain > 0
            assert r3_rank(n, prefix.graph.edges) - r3_rank(n, fw.graph.edges) == gain
        assert r3_rank(n, out.graph.edges) == 3 * n - 4
