import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bearing_rigidity import (AgentState, CoincidentAgentsError, Framework,
                              MetricSpace, SensingGraph, ValidationError,
                              bearing_rigidity_function, complete_edges,
                              is_non_degenerate, random_rotation,
                              rotation_axis_angle)

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def shared_frame_triangle(points, kind="undirected"):
    g = SensingGraph(len(points), complete_edges(len(points), kind), kind)
    states = tuple(AgentState(p=np.array(p, dtype=float)) for p in points)
    return Framework(g, MetricSpace.rd(2), states)


def bearing(fw, i, j):
    """Measured bearing of edge (i, j), read off the bearing function."""
    stack = bearing_rigidity_function(fw)
    return stack.bearings[stack.edges.index((i, j))]


def test_space_factories_and_shape_constants():
    assert MetricSpace.rd(2).c == 2
    assert MetricSpace.rd(3).c == 3
    assert MetricSpace.rd_s1(2).c == 3
    assert MetricSpace.rd_s1(3, axis=(0.0, 0.0, 1.0)).c == 4
    assert MetricSpace.se3().c == 6
    assert MetricSpace.rd(2).is_planar
    assert not MetricSpace.se3().is_planar
    assert MetricSpace.rd_s1(2).axis == (0.0, 0.0, 1.0)


def test_space_validation():
    with pytest.raises(ValidationError):
        MetricSpace.rd(4)
    with pytest.raises(ValidationError):
        MetricSpace.rd_s1(3)  # 3D heading needs an explicit axis
    with pytest.raises(ValidationError):
        MetricSpace.rd_s1(3, axis=(0.0, 0.0, 2.0))  # not unit
    with pytest.raises(ValidationError):
        MetricSpace.rd_s1(3, axis=(np.nan, 0.0, 0.0))


def test_rotation_input_shapes():
    assert np.all(MetricSpace.rd(2).rotation_input() == 0)
    V = MetricSpace.rd_s1(3, axis=(0.0, 1.0, 0.0)).rotation_input()
    np.testing.assert_array_equal(V[:, 2], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(MetricSpace.se3().rotation_input(), np.eye(3))


def test_agent_state_normalization():
    st2 = AgentState(p=np.array([1.0, 2.0]))
    np.testing.assert_array_equal(st2.p, [1.0, 2.0, 0.0])
    wrapped = AgentState(p=np.zeros(3), alpha=-0.5)
    assert wrapped.alpha == pytest.approx(2 * np.pi - 0.5)
    with pytest.raises(ValidationError):
        AgentState(p=np.zeros(3), alpha=0.1, R=np.eye(3))
    with pytest.raises(ValidationError):
        AgentState(p=np.zeros(3), R=2 * np.eye(3))
    with pytest.raises(ValidationError):
        AgentState(p=np.array([np.nan, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_agent_state_rejects_non_finite_orientation(bad):
    with pytest.raises(ValidationError, match="heading angle"):
        AgentState(p=np.zeros(3), alpha=bad)
    R = np.eye(3)
    R[0, 1] = bad
    with pytest.raises(ValidationError, match="rotation contains"):
        AgentState(p=np.zeros(3), R=R)


def test_framework_collapses_uniform_space_tuple():
    g = SensingGraph(3, complete_edges(3, "directed"), "directed")
    sp = MetricSpace.se3()
    states = tuple(AgentState(p=np.array([float(i), 0.0, i * 0.5]), R=np.eye(3))
                   for i in range(3))
    fw = Framework(g, (sp, sp, sp), states)
    assert fw.is_homogeneous
    assert fw.space == sp


def test_framework_orientation_field_rules():
    g = SensingGraph(3, complete_edges(3, "directed"), "directed")
    pts = [np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]),
           np.array([0.0, 1.0, 0.0])]
    with pytest.raises(ValidationError):
        Framework(g, MetricSpace.rd_s1(2),
                  tuple(AgentState(p=p) for p in pts))  # missing headings
    with pytest.raises(ValidationError):
        Framework(g, MetricSpace.se3(),
                  tuple(AgentState(p=p, alpha=0.1) for p in pts))


def test_graph_kind_pairing():
    pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    fw = shared_frame_triangle(pts)  # undirected works for shared-frame
    assert fw.m == 3
    with pytest.raises(ValidationError):
        shared_frame_triangle(pts, kind="directed")
    g = SensingGraph(3, complete_edges(3, "undirected"), "undirected")
    with pytest.raises(ValidationError):
        Framework(g, MetricSpace.rd_s1(2),
                  tuple(AgentState(p=np.array(p + [0.0]), alpha=0.2) for p in pts))


def test_planar_positions_get_zero_height():
    g = SensingGraph(3, complete_edges(3, "undirected"), "undirected")
    states = (AgentState(p=np.array([0.0, 0.0, 3.0])),
              AgentState(p=np.array([1.0, 0.0, -1.0])),
              AgentState(p=np.array([0.0, 1.0, 0.2])))
    fw = Framework(g, MetricSpace.rd(2), states)
    np.testing.assert_array_equal(fw.positions()[:, 2], 0.0)


def test_coincident_agents_rejected():
    with pytest.raises(CoincidentAgentsError):
        shared_frame_triangle([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    # the first coinciding pair in (i, j) order is the one named
    with pytest.raises(CoincidentAgentsError, match="^agents 2 and 4 coincide$"):
        shared_frame_triangle([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [1.0, 1.0],
                               [2.0, 0.0]])


def test_bearing_hand_values():
    fw = shared_frame_triangle([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(bearing(fw, 1, 2), [1, 0, 0],
                               atol=1e-15)
    np.testing.assert_allclose(bearing(fw, 1, 3), [0, 1, 0],
                               atol=1e-15)
    np.testing.assert_allclose(bearing(fw, 2, 3),
                               [-np.sqrt(0.5), np.sqrt(0.5), 0], atol=1e-15)


def test_heading_rotates_measured_bearing_into_body_frame():
    g = SensingGraph(3, complete_edges(3, "directed"), "directed")
    alpha = 0.7
    states = (AgentState(p=np.array([0.0, 0.0, 0.0]), alpha=alpha),
              AgentState(p=np.array([1.0, 0.0, 0.0]), alpha=0.0),
              AgentState(p=np.array([0.0, 2.0, 0.0]), alpha=0.0))
    fw = Framework(g, MetricSpace.rd_s1(2), states)
    Rz = rotation_axis_angle(np.array([0.0, 0.0, 1.0]), alpha)
    np.testing.assert_allclose(bearing(fw, 1, 2),
                               Rz.T @ np.array([1.0, 0.0, 0.0]), atol=1e-12)


def test_rotation_measured_bearing_se3():
    g = SensingGraph(3, complete_edges(3, "directed"), "directed")
    R = rotation_axis_angle(np.array([0.0, 1.0, 0.0]), 0.4)
    states = (AgentState(p=np.array([0.0, 0.0, 0.0]), R=R),
              AgentState(p=np.array([0.0, 0.0, 2.0]), R=np.eye(3)),
              AgentState(p=np.array([1.0, 1.0, 1.0]), R=np.eye(3)))
    fw = Framework(g, MetricSpace.se3(), states)
    np.testing.assert_allclose(bearing(fw, 1, 2),
                               R.T @ np.array([0.0, 0.0, 1.0]), atol=1e-12)


def test_shared_frame_bearings_are_antisymmetric():
    # heading agents that all face the same way share one frame
    g = SensingGraph(3, complete_edges(3, "directed"), "directed")
    fw = Framework(g, MetricSpace.rd_s1(2), tuple(
        AgentState(p=np.array(p), alpha=0.0)
        for p in ([0.3, -1.2, 0.0], [2.0, 0.5, 0.0], [-0.7, 1.9, 0.0])))
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                np.testing.assert_allclose(bearing(fw, i, j),
                                           -bearing(fw, j, i),
                                           atol=1e-12)


@given(st.floats(0.1, 20.0), st.lists(finite, min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_bearings_invariant_under_scaling_about_any_point(scale, center):
    base = np.array([[0.0, 0.0], [1.6, 0.2], [0.4, 1.1]])
    c = np.array(center)
    scaled = c + scale * (base - c)
    a = bearing_rigidity_function(shared_frame_triangle(base.tolist()))
    b = bearing_rigidity_function(shared_frame_triangle(scaled.tolist()))
    np.testing.assert_allclose(a.bearings, b.bearings, atol=1e-10)


def test_rotating_one_agent_touches_only_its_outgoing_bearings():
    g = SensingGraph(3, complete_edges(3, "directed"), "directed")
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((3, 3))
    Rs = [random_rotation(rng) for _ in range(3)]
    states = tuple(AgentState(p=pts[i], R=Rs[i]) for i in range(3))
    fw = Framework(g, MetricSpace.se3(), states)
    before = bearing_rigidity_function(fw)

    turned = list(states)
    turned[1] = AgentState(p=pts[1], R=random_rotation(rng))
    after = bearing_rigidity_function(Framework(g, MetricSpace.se3(),
                                                tuple(turned)))
    for k, (i, _) in enumerate(before.edges):
        same = np.allclose(before.bearings[k], after.bearings[k], atol=1e-12)
        assert same == (i != 2)


def test_degeneracy_detection():
    good = shared_frame_triangle([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert bool(is_non_degenerate(good))
    bad = shared_frame_triangle([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    report = is_non_degenerate(bad)
    assert not report
    direction = np.abs(report.collinear_direction)
    np.testing.assert_allclose(direction, [1.0, 0.0, 0.0], atol=1e-10)
