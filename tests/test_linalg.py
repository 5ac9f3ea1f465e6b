import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bearing_rigidity import (GeneratorSpec, MetricSpace, NumericalError,
                              TOLERANCE_PROFILES, TolerancePolicy, ValidationError,
                              fd_jacobian_check, fixture, hetero_case_study,
                              ibr_verdict, orthonormal_columns, random_framework,
                              random_rotation, rank_and_nullspace,
                              rotation_axis_angle,
                              rotation_exp, skew)
from oracles import (orthogonal_projector, planar_rotation, subspace_contains,
                     subspace_relation)

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
vectors3 = st.lists(finite, min_size=3, max_size=3).map(np.array)
unit3 = vectors3.filter(lambda v: np.linalg.norm(v) > 0.5).map(
    lambda v: v / np.linalg.norm(v))


def test_policy_defaults_and_profiles():
    pol = TolerancePolicy()
    assert pol.rank_rtol is None
    assert pol.subspace_tol == 1e-8
    assert pol.fd_step == 1e-6
    assert set(TOLERANCE_PROFILES) == {"default", "strict", "relaxed"}
    assert TOLERANCE_PROFILES["strict"].rank_rtol == 1e-12


def test_policy_rejects_nonpositive():
    with pytest.raises(ValidationError):
        TolerancePolicy(rank_rtol=0.0)
    with pytest.raises(ValidationError):
        TolerancePolicy(subspace_tol=-1e-9)


def test_policy_rejects_out_of_range_values():
    # a rank threshold of sigma_max or more zeroes every rank, a containment
    # residual of 1 or more lets a basis miss a whole direction, and the
    # probe runs at unit formation scale, where a step of 1 is the
    # formation's size
    inf, nan = float("inf"), float("nan")
    for bad in ({"rank_rtol": 1.0}, {"rank_rtol": 2.5}, {"rank_rtol": inf},
                {"rank_rtol": nan}, {"subspace_tol": 1.0}, {"subspace_tol": 10.0},
                {"subspace_tol": inf}, {"subspace_tol": nan},
                {"fd_step": 1.0}, {"fd_step": 1e300}, {"fd_step": inf},
                {"fd_step": nan}, {"fd_step": 0.0}, {"fd_step": -1e-6}):
        with pytest.raises(ValidationError, match="finite, positive and below 1"):
            TolerancePolicy(**bad)
    edge = TolerancePolicy(rank_rtol=0.999, subspace_tol=0.999, fd_step=0.5)
    assert (edge.rank_rtol, edge.subspace_tol, edge.fd_step) == (0.999, 0.999, 0.5)
    # the policy is the probe's only step
    assert fd_jacobian_check(fixture("star-r2"), TolerancePolicy(fd_step=1e-5)).step == 1e-5


def rank_rtol_floor_inputs():
    """Inputs whose verdict flips without an error below the floor: a
    collinear heading team (IBF at 1e-15), the complete collinear heading
    graph (IBF at 3e-16), and the mixed case study (rank 24 at 1e-300, so
    not even the translations stay in its kernel)."""
    r2s1 = MetricSpace.rd_s1(2)
    return [random_framework(GeneratorSpec(r2s1, n=40, graph_density=0.5, seed=0,
                                           placement="collinear")),
            random_framework(GeneratorSpec(r2s1, n=6, seed=0, placement="collinear")),
            hetero_case_study(0)]


def test_rank_rtol_below_the_rounding_level_is_rejected():
    for bad in (9.9e-15, 1e-15, 3e-16, 1e-300):
        with pytest.raises(ValidationError, match="at least 1e-14"):
            TolerancePolicy(rank_rtol=bad)
    # at the floor itself every such input decides as by default
    floor = TolerancePolicy(rank_rtol=1e-14)
    for fw in rank_rtol_floor_inputs():
        at_floor, default = ibr_verdict(fw, floor), ibr_verdict(fw)
        assert default.classification == "IBR"
        assert ((at_floor.classification, at_floor.rank, at_floor.nullity)
                == (default.classification, default.rank, default.nullity))


def test_adaptive_rank_threshold_scales_with_shape():
    pol = TolerancePolicy()
    assert pol.effective_rank_rtol((30, 12)) == pytest.approx(3e-9)
    pinned = TolerancePolicy(rank_rtol=1e-10)
    assert pinned.effective_rank_rtol((30, 12)) == 1e-10


@given(unit3)
@settings(max_examples=60, deadline=None)
def test_projector_properties(x):
    P = orthogonal_projector(x)
    np.testing.assert_allclose(P, P.T, atol=1e-12)
    np.testing.assert_allclose(P @ P, P, atol=1e-12)
    np.testing.assert_allclose(P @ x, 0.0, atol=1e-12)
    # eigenvalues are 0 once and 1 twice
    assert np.linalg.matrix_rank(P) == 2


def test_projector_rejects_zero():
    with pytest.raises(ValidationError):
        orthogonal_projector(np.zeros(3))


@given(vectors3, vectors3)
@settings(max_examples=60, deadline=None)
def test_skew_is_cross_product(a, b):
    np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-12)
    np.testing.assert_allclose(skew(a).T, -skew(a), atol=1e-12)


def test_rotation_about_z_quarter_turn():
    R = rotation_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(R @ [0, 1, 0], [-1, 0, 0], atol=1e-12)


def test_rotation_zero_axis_is_identity():
    np.testing.assert_array_equal(rotation_axis_angle(np.zeros(3), 0.3),
                                  np.eye(3))


def test_rotation_rejects_non_unit_axis():
    for axis in ([0.0, 0.0, 2.0], [np.nan, 0.0, 0.0]):
        with pytest.raises(ValidationError):
            rotation_axis_angle(np.array(axis), 0.1)


def test_planar_rotation_quarter_turn():
    R = planar_rotation(np.pi / 2)
    np.testing.assert_allclose(R, [[0, -1], [1, 0]], atol=1e-12)
    np.testing.assert_allclose(planar_rotation(0.0), np.eye(2), atol=1e-15)


@given(vectors3)
@example(np.array([0.0, 0.0, 3.9e-159]))  # squared norm underflows
@example(np.array([1e-9, -2e-9, 0.0]))
@example(np.zeros(3))
@settings(max_examples=40, deadline=None)
def test_exponential_gives_special_orthogonal(w):
    R = rotation_exp(w)
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-10)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_random_rotation_is_special_orthogonal(seed):
    R = random_rotation(np.random.default_rng(seed))
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-10)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)


def test_rank_and_nullspace_on_known_matrix():
    pol = TolerancePolicy()
    M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    rank, null = rank_and_nullspace(M, pol)
    assert rank == 1
    assert null.shape == (3, 2)
    np.testing.assert_allclose(M @ null, 0.0, atol=1e-12)
    np.testing.assert_allclose(null.T @ null, np.eye(2), atol=1e-12)


def test_rank_threshold_uses_the_given_shape():
    # singular values 1 and 5e-9: above 1e-10 * 2 of the 2x2 matrix itself,
    # below 1e-10 * 100 of the 100-row matrix it stands in for
    M = np.diag([1.0, 5e-9])
    assert rank_and_nullspace(M, TolerancePolicy())[0] == 2
    rank, null = rank_and_nullspace(M, TolerancePolicy(), shape=(100, 2))
    assert rank == 1
    np.testing.assert_allclose(np.abs(null[:, 0]), [0.0, 1.0], atol=1e-15)
    # an explicit rank_rtol applies to every shape
    strict = TolerancePolicy(rank_rtol=1e-12)
    assert rank_and_nullspace(M, strict, shape=(100, 2))[0] == 2


def test_rank_rejects_nan():
    with pytest.raises(NumericalError):
        rank_and_nullspace(np.array([[np.nan, 1.0]]), TolerancePolicy())


def test_full_rank_gives_empty_nullspace():
    rank, null = rank_and_nullspace(np.eye(4), TolerancePolicy())
    assert rank == 4 and null.shape == (4, 0)


def test_orthonormal_columns_drops_dependent_ones():
    pol = TolerancePolicy()
    A = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    Q = orthonormal_columns(A, pol)
    assert Q.shape == (3, 1)
    np.testing.assert_allclose(np.linalg.norm(Q[:, 0]), 1.0)


def test_subspace_relations():
    pol = TolerancePolicy()
    e1 = np.array([[1.0], [0.0], [0.0]])
    e12 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    e3 = np.array([[0.0], [0.0], [1.0]])
    assert subspace_contains(e12, e1, pol)
    assert not subspace_contains(e1, e12, pol)
    assert subspace_relation(e1, e12, pol) == "A_subset_B"
    assert subspace_relation(e12, e1, pol) == "B_subset_A"
    assert subspace_relation(e12, e12, pol) == "equal"
    assert subspace_relation(e1, e3, pol) == "incomparable"


def test_subspace_relation_under_change_of_basis():
    pol = TolerancePolicy()
    rng = np.random.default_rng(7)
    Q = np.linalg.qr(rng.standard_normal((5, 3)))[0]
    mixed = Q @ rng.standard_normal((3, 3))  # same span, different basis
    assert subspace_relation(Q, mixed, pol) == "equal"


def low_rank(rng, rows, cols, rank):
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


@pytest.mark.parametrize("rows,cols,rank", [
    (30, 6, 6),    # tall, full column rank
    (30, 6, 4),    # tall, rank deficient
    (4, 10, 4),    # wide
    (3, 10, 2),    # wide, rank deficient
    (8, 8, 8),     # square
    (8, 8, 5),     # square, rank deficient
    (0, 5, 0),     # no rows
    (5, 0, 0),     # no columns
])
def test_rank_and_nullspace_shapes(rows, cols, rank):
    rng = np.random.default_rng(rows * 100 + cols * 10 + rank)
    M = low_rank(rng, rows, cols, rank)
    r, N = rank_and_nullspace(M, TolerancePolicy())
    assert r == rank
    assert N.shape == (cols, cols - rank)
    np.testing.assert_allclose(N.T @ N, np.eye(cols - rank), atol=1e-12)
    assert np.linalg.norm(M @ N) <= 1e-12 * max(1.0, np.linalg.norm(M))


def test_rank_and_nullspace_skips_the_full_left_factor():
    # a full U for 3000 rows would take 3000 * 3000 * 8 B = 72 MB
    import tracemalloc
    M = np.random.default_rng(5).standard_normal((3000, 60))
    tracemalloc.start()
    try:
        rank, N = rank_and_nullspace(M, TolerancePolicy())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rank == 60 and N.shape == (60, 0)
    assert peak < 10 * M.nbytes


def test_exponential_matches_the_axis_angle_form():
    rng = np.random.default_rng(8)
    for scale in (1e-300, 1e-12, 1e-8, 1e-7, 1e-3, 1.0, 3.0, 40.0):
        w = scale * rng.standard_normal(3)
        theta = np.linalg.norm(w)
        ref = (rotation_axis_angle(w / theta, theta) if theta > 1e-100
               else np.eye(3) + skew(w))
        np.testing.assert_allclose(rotation_exp(w), ref, rtol=0, atol=1e-14)
