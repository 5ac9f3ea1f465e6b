"""Metamorphic tests of the verdict: relations that must hold between the
analyses of two frameworks without knowing either answer.

A world rotation moves every position and orientation together, so no
measured bearing changes; relabeling the agents permutes the matrix's rows
and columns. Neither may change the classification, rank, nullity or
degeneracy flag, in any space family or in mixed teams. Planar frameworks
and heading agents keep their plane and axis only under rotations about z,
so those get a z rotation; the others get any rotation.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from bearing_rigidity import (AgentState, Framework, GeneratorSpec, MetricSpace,
                              SensingGraph, TolerancePolicy, hetero_kernel_analysis,
                              ibr_verdict, random_framework, random_rotation,
                              rotation_axis_angle)

POL = TolerancePolicy()
FAMILIES = {"r2": MetricSpace.rd(2), "r3": MetricSpace.rd(3),
            "r2s1": MetricSpace.rd_s1(2),
            "r3s1": MetricSpace.rd_s1(3, (0.0, 0.0, 1.0)), "se3": MetricSpace.se3()}


@st.composite
def frameworks(draw):
    """A generic random framework of one family, or a mixed team cycling
    through two to five families."""
    n = draw(st.integers(4, 7))
    names = draw(st.one_of(
        st.sampled_from(sorted(FAMILIES)).map(lambda k: [k]),
        st.lists(st.sampled_from(sorted(FAMILIES)), min_size=2, max_size=5,
                 unique=True)))
    space = (FAMILIES[names[0]] if len(names) == 1
             else tuple(FAMILIES[names[a % len(names)]] for a in range(n)))
    return random_framework(GeneratorSpec(
        space=space, n=n, graph_density=draw(st.floats(0.5, 1.0)),
        seed=draw(st.integers(0, 10_000))))


def world_rotation(fw, rng):
    """fw turned as a whole: about z when any agent is planar or has a
    heading, about a random axis otherwise."""
    spaces = [fw.space_of(a + 1) for a in range(fw.n)]
    if any(s.is_planar or s.kind == "rdxs1" for s in spaces):
        theta = rng.uniform(0.0, 2 * np.pi)
        Q = rotation_axis_angle(np.array([0.0, 0.0, 1.0]), theta)
    else:
        theta, Q = 0.0, random_rotation(rng)
    states = tuple(AgentState(p=Q @ st.p,
                              alpha=None if st.alpha is None else st.alpha + theta,
                              R=None if st.R is None else Q @ st.R)
                   for st in fw.states)
    return Framework(fw.graph, fw.space, states)


def relabeled(fw, rng):
    """fw with agent a renamed perm[a]."""
    perm = rng.permutation(fw.n)
    order = np.argsort(perm)
    edges = tuple((int(perm[i - 1]) + 1, int(perm[j - 1]) + 1) for i, j in fw.graph.edges)
    space = (fw.space if fw.is_homogeneous
             else tuple(fw.space[k] for k in order))
    return Framework(SensingGraph(fw.n, edges, fw.graph.kind), space,
                     tuple(fw.states[k] for k in order))


def summary(fw):
    v = ibr_verdict(fw, POL)
    return v.classification, v.rank, v.nullity, v.degenerate


@given(frameworks(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_verdict_is_invariant_under_world_rotation(fw, seed):
    assert summary(world_rotation(fw, np.random.default_rng(seed))) == summary(fw)


@given(frameworks(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_verdict_is_invariant_under_relabeling(fw, seed):
    moved = relabeled(fw, np.random.default_rng(seed))
    assert summary(moved) == summary(fw)
    if not fw.is_homogeneous:
        a, b = hetero_kernel_analysis(fw, POL), hetero_kernel_analysis(moved, POL)
        assert b.trivial.labels == a.trivial.labels
        assert b.virtual.dim == a.virtual.dim
