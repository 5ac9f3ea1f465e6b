import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bearing_rigidity import (FIXTURES, GeneratorSpec, MIN_SEPARATION,
                              MetricSpace, TolerancePolicy,
                              ValidationError,
                              augment_to_ibr, fixture,
                              hetero_case_study, ibr_verdict, is_connected,
                              is_non_degenerate, random_framework)
from oracles import case_study_partition

POL = TolerancePolicy()
R2 = MetricSpace.rd(2)
SE3 = MetricSpace.se3()


def test_spec_validation():
    with pytest.raises(ValidationError):
        GeneratorSpec(space=R2, n=2)
    with pytest.raises(ValidationError):
        GeneratorSpec(space=R2, n=4, graph_density=0.0)
    with pytest.raises(ValidationError):
        GeneratorSpec(space=R2, n=4, graph_density=1.2)
    with pytest.raises(ValidationError):
        GeneratorSpec(space=R2, n=4, placement="grid")


def test_negative_seeds_are_validation_errors():
    with pytest.raises(ValidationError, match="seed must be non-negative"):
        GeneratorSpec(space=R2, n=4, seed=-1)
    with pytest.raises(ValidationError, match="seed must be non-negative"):
        hetero_case_study(seed=-1)


def test_same_seed_same_framework():
    spec = GeneratorSpec(space=SE3, n=5, graph_density=0.6, seed=42)
    a = random_framework(spec)
    b = random_framework(spec)
    assert a.graph == b.graph
    np.testing.assert_array_equal(a.positions(), b.positions())
    for i in range(1, 6):
        np.testing.assert_array_equal(a.rotation_of(i), b.rotation_of(i))


def test_different_seeds_differ():
    a = random_framework(GeneratorSpec(space=R2, n=5, seed=0))
    b = random_framework(GeneratorSpec(space=R2, n=5, seed=1))
    assert not np.array_equal(a.positions(), b.positions())


@given(st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_generic_draws_are_connected_separated_nondegenerate(seed):
    rng = np.random.default_rng(seed)
    spec = GeneratorSpec(space=SE3, n=int(rng.integers(3, 7)),
                         graph_density=float(rng.uniform(0.3, 1.0)), seed=seed)
    fw = random_framework(spec)
    assert is_connected(fw.graph)
    assert bool(is_non_degenerate(fw))
    P = fw.positions()
    for i in range(fw.n):
        for j in range(i + 1, fw.n):
            assert np.linalg.norm(P[i] - P[j]) >= MIN_SEPARATION


FAMILIES = {"r2": R2, "r3": MetricSpace.rd(3), "r2s1": MetricSpace.rd_s1(2),
            "r3s1": MetricSpace.rd_s1(3, (0.0, 0.0, 1.0)), "se3": SE3}
MIXED_81 = tuple(list(FAMILIES.values())[a % 5] for a in range(81))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("space", [*FAMILIES, "mixed"])
def test_generator_works_at_benchmark_sizes(space, seed):
    """The placement box grows with n, so 80 separated agents still fit."""
    sp = MIXED_81 if space == "mixed" else FAMILIES[space]
    n = 81 if space == "mixed" else 80
    fw = random_framework(GeneratorSpec(space=sp, n=n, graph_density=0.3, seed=seed))
    assert fw.n == n and bool(is_non_degenerate(fw))
    P = fw.positions()
    seps = np.linalg.norm(P[:, None] - P[None], axis=2)[np.triu_indices(n, 1)]
    assert seps.min() >= MIN_SEPARATION


def test_density_too_low_to_connect():
    with pytest.raises(ValidationError):
        random_framework(GeneratorSpec(space=SE3, n=6, graph_density=0.1))


def test_collinear_placement_is_degenerate_and_ordered():
    spec = GeneratorSpec(space=R2, n=5, placement="collinear",
                         collinear_axis=(1.0, 0.0, 0.0), seed=3)
    fw = random_framework(spec)
    assert not is_non_degenerate(fw)
    P = fw.positions()
    assert np.allclose(P[:, 1], P[0, 1])  # all on the horizontal line
    gaps = np.diff(P[:, 0])
    assert np.all(np.abs(gaps) >= MIN_SEPARATION - 1e-12)


def test_collinear_axis_rules():
    with pytest.raises(ValidationError):
        random_framework(GeneratorSpec(space=R2, n=4, placement="collinear",
                                       collinear_axis=(0.0, 0.0, 1.0)))
    with pytest.raises(ValidationError):
        random_framework(GeneratorSpec(space=R2, n=4, placement="collinear",
                                       collinear_axis=(0.0, 0.0, 0.0)))


MIXED_LINE = (MetricSpace.rd_s1(2), SE3, MetricSpace.rd(3)) * 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_collinear_team_with_a_planar_agent_stays_on_a_line(seed):
    # planar agents are pinned to z = 0, so the line is drawn in that plane
    fw = random_framework(GeneratorSpec(space=MIXED_LINE, n=6, seed=seed,
                                        placement="collinear"))
    np.testing.assert_array_equal(fw.positions()[:, 2], 0.0)
    assert not is_non_degenerate(fw)
    assert ibr_verdict(fw, POL).degenerate


def test_a_team_with_a_planar_agent_refuses_an_axis_out_of_the_plane():
    with pytest.raises(ValidationError, match="in-plane axis"):
        random_framework(GeneratorSpec(space=MIXED_LINE, n=6, placement="collinear",
                                       collinear_axis=(1.0, 0.0, 0.5)))
    fw = random_framework(GeneratorSpec(space=MIXED_LINE, n=6, placement="collinear",
                                        collinear_axis=(1.0, 1.0, 0.0)))
    assert not is_non_degenerate(fw)


def test_augment_square_cycle_adds_one_diagonal():
    fw, added = augment_to_ibr(fixture("square-cycle-r2"), POL)
    assert added == ((1, 3),)
    assert ibr_verdict(fw, POL).classification == "IBR"


def test_augment_leaves_rigid_framework_alone():
    tri = fixture("triangle-r2-complete")
    fw, added = augment_to_ibr(tri, POL)
    assert added == ()
    assert fw.graph == tri.graph


def test_augment_star_reaches_rigidity():
    fw, added = augment_to_ibr(fixture("star-r2"), POL)
    assert len(added) >= 1
    assert ibr_verdict(fw, POL).classification == "IBR"
    # every added edge is genuinely new
    assert not (set(added) & set(fixture("star-r2").graph.edges))


def test_augment_raises_where_the_verdict_contradicts_itself():
    # a containment tolerance of 10 would make every kernel look equal to
    # the complete graph's; the policy rejects it before any verdict runs
    with pytest.raises(ValidationError, match="subspace_tol"):
        TolerancePolicy(subspace_tol=10.0)


def test_case_study_layout():
    fw = hetero_case_study(seed=5)
    assert fw.n == 4 and fw.m == 12
    assert not fw.is_homogeneous
    kinds = [fw.space_of(i).kind for i in range(1, 5)]
    assert kinds == ["rdxs1", "rdxs1", "rdxs1", "se3"]
    P = fw.positions()
    np.testing.assert_array_equal(P[:3, 2], 0.0)
    assert P[3, 2] >= 0.5


def test_case_study_partition_split():
    fw = hetero_case_study(seed=0)
    g1, g2 = case_study_partition(fw)
    assert g1.m == 9 and g2.m == 3
    assert all(e[0] != 4 for e in g1.graph.edges)
    assert all(e[0] == 4 for e in g2.graph.edges)
    assert set(g1.graph.edges) | set(g2.graph.edges) == set(fw.graph.edges)


def test_partition_needs_a_mixture():
    with pytest.raises(ValidationError):
        case_study_partition(fixture("triangle-r2s1-complete"))


def test_fixture_registry():
    for name in FIXTURES:
        fw = fixture(name)
        assert fw.n >= 3
    assert fixture("triangle-r2-complete").graph == \
        fixture("triangle-r2-complete").graph
    with pytest.raises(ValidationError) as err:
        fixture("no-such-fixture")
    assert "triangle-r2-complete" in str(err.value)
