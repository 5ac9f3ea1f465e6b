import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bearing_rigidity import (SensingGraph, ValidationError, complete_edges,
                              complete_graph, connected_components,
                              is_connected, orient)
from oracles import incidence_matrices


def test_edges_canonicalized_lexicographically():
    g = SensingGraph(4, ((3, 1), (2, 1), (4, 2)), "undirected")
    assert g.edges == ((1, 2), (1, 3), (2, 4))


def test_directed_keeps_both_orientations():
    g = SensingGraph(3, ((2, 1), (1, 2)), "directed")
    assert g.edges == ((1, 2), (2, 1))
    assert g.m == 2


@pytest.mark.parametrize("bad", [
    ((1, 1),),            # self loop
    ((1, 2), (1, 2)),     # duplicate
    ((0, 2),),            # out of range
    ((1, 5),),            # out of range
])
def test_rejected_edge_lists(bad):
    with pytest.raises(ValidationError):
        SensingGraph(4, bad, "directed")


def test_undirected_duplicate_up_to_reversal_rejected():
    with pytest.raises(ValidationError):
        SensingGraph(3, ((1, 2), (2, 1)), "undirected")


def test_oriented_requires_head_below_tail():
    with pytest.raises(ValidationError):
        SensingGraph(3, ((2, 1),), "oriented")


def test_vertex_count_floor():
    with pytest.raises(ValidationError):
        SensingGraph(2, ((1, 2),), "undirected")


def test_unknown_kind():
    with pytest.raises(ValidationError):
        SensingGraph(3, (), "mixed")


def test_complete_edge_counts():
    assert len(complete_edges(3, "undirected")) == 3
    assert len(complete_edges(3, "directed")) == 6
    assert len(complete_edges(4, "directed")) == 12
    assert len(complete_edges(5, "oriented")) == 10


def test_complete_graph_preserves_kind():
    g = SensingGraph(4, ((1, 2),), "directed")
    k = complete_graph(g)
    assert k.kind == "directed" and k.m == 12


def test_orient_path():
    g = SensingGraph(3, ((1, 2), (3, 2)), "undirected")
    o = orient(g)
    assert o.kind == "oriented"
    assert o.edges == ((1, 2), (2, 3))


def test_undirected_edges_are_stored_oriented():
    # undirected graphs store (min, max) pairs in sorted order, which is
    # exactly their head < tail orientation, so the stored edges are the
    # measurement directions
    g = SensingGraph(4, ((4, 2), (3, 1), (2, 1), (4, 3), (1, 4)), "undirected")
    assert g.edges == orient(g).edges
    assert all(i < j for i, j in g.edges)


def test_orient_rejects_directed():
    with pytest.raises(ValidationError):
        orient(SensingGraph(3, ((1, 2),), "directed"))


def test_incidence_on_directed_path():
    # 1 -> 2 -> 3 with d = 1: columns are the edges, -1 at the head
    g = SensingGraph(3, ((1, 2), (2, 3)), "directed")
    inc = incidence_matrices(g, 1)
    np.testing.assert_array_equal(inc.E, [[-1, 0], [1, -1], [0, 1]])
    np.testing.assert_array_equal(inc.E_out, [[-1, 0], [0, -1], [0, 0]])


def test_incidence_lifting_is_kron():
    g = SensingGraph(4, ((1, 2), (2, 4), (1, 3)), "directed")
    inc = incidence_matrices(g, 3)
    np.testing.assert_array_equal(inc.Ebar, np.kron(inc.E, np.eye(3)))
    np.testing.assert_array_equal(inc.Ebar_out, np.kron(inc.E_out, np.eye(3)))
    assert inc.Ebar.shape == (12, 9)


def test_incidence_rejects_undirected():
    with pytest.raises(ValidationError):
        incidence_matrices(SensingGraph(3, ((1, 2),), "undirected"), 2)


def test_connectivity():
    g = SensingGraph(4, ((1, 2), (3, 4)), "undirected")
    assert not is_connected(g)
    comps = connected_components(g)
    assert sorted(sorted(c) for c in comps) == [[1, 2], [3, 4]]
    assert is_connected(SensingGraph(4, ((1, 2), (2, 3), (3, 4)), "undirected"))


@st.composite
def directed_graphs(draw):
    n = draw(st.integers(3, 7))
    pool = list(complete_edges(n, "directed"))
    k = draw(st.integers(1, len(pool)))
    picks = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k,
                          unique=True))
    return SensingGraph(n, tuple(picks), "directed")


@given(directed_graphs())
@settings(max_examples=40, deadline=None)
def test_incidence_rank_counts_components(g):
    # classic identity: rank of the incidence matrix is n minus the number
    # of weakly connected components
    inc = incidence_matrices(g, 1)
    rank = np.linalg.matrix_rank(inc.E)
    assert rank == g.n - len(connected_components(g))


@given(directed_graphs())
@settings(max_examples=25, deadline=None)
def test_incidence_columns_sum_to_zero(g):
    inc = incidence_matrices(g, 2)
    np.testing.assert_allclose(inc.E.sum(axis=0), 0.0)
    assert np.all(inc.E_out <= 0)
