"""Planar position-only verdicts against a purely combinatorial oracle.

In the plane, infinitesimal bearing rigidity coincides with infinitesimal
distance rigidity (Zhao & Zelazo, IEEE TAC 2016): each edge's bearing row is
its distance row turned by 90 degrees. At generic positions the rank of
both is the Laman rank of the graph, which the 2D pebble game counts
without any arithmetic on positions.
"""
import numpy as np
import pytest

from bearing_rigidity import (AgentState, Framework, GeneratorSpec,
                              MetricSpace, SensingGraph, TolerancePolicy,
                              augment_to_ibr, complete_edges, ibr_verdict,
                              random_framework)
from oracles import laman_rank

POL = TolerancePolicy()
R2 = MetricSpace.rd(2)


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
