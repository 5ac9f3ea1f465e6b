import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bearing_rigidity import (AgentState, Framework, GeneratorSpec,
                              MetricSpace, NumericalError, SensingGraph,
                              TolerancePolicy, ValidationError, augment_to_ibr,
                              complete_edges, complete_graph,
                              degenerate_trivial_dim,
                              bearing_equivalent, bearing_congruent,
                              fd_jacobian_check, fixture,
                              hetero_case_study, hetero_kernel_analysis,
                              ibr_verdict, random_framework,
                              rank_and_nullspace, rigidity_matrix, skew,
                              trivial_variation_basis,
                              unified_rigidity_matrix)
from bearing_rigidity import engine
from oracles import (incidence_matrices, kernel_inclusion_check,
                     mixed_complete_kernel, mixed_trivial_generators,
                     orient, orthogonal_projector,
                     reduced_rank_oracle, subspace_contains,
                     subspace_relation, unit_scale)

POL = TolerancePolicy()

SPACES = {
    "r2": MetricSpace.rd(2),
    "r3": MetricSpace.rd(3),
    "r2s1": MetricSpace.rd_s1(2),
    "r3s1": MetricSpace.rd_s1(3, axis=(0.0, 0.0, 1.0)),
    "se3": MetricSpace.se3(),
}


def sample(space_key, n=5, density=1.0, seed=0):
    return random_framework(GeneratorSpec(space=SPACES[space_key], n=n,
                                          graph_density=density, seed=seed))


def blkdiag(blocks):
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def product_form(fw):
    """Rebuild the per-space matrix as scaled-projector blocks times lifted
    incidence transposes, a construction path disjoint from the assembler."""
    sp = fw.space
    g = orient(fw.graph) if fw.graph.kind == "undirected" else fw.graph
    P = fw.positions()
    d = 3 if sp.kind == "se3" else sp.d
    inc = incidence_matrices(g, d)
    pos_blocks, rot_blocks = [], []
    for (i, j) in g.edges:
        diff = P[j - 1] - P[i - 1]
        dist = np.linalg.norm(diff)
        pbar = diff / dist
        R = fw.rotation_of(i)
        if sp.kind == "rd":
            pos_blocks.append(orthogonal_projector(pbar[:d]) / dist
                              if d == 2 else orthogonal_projector(pbar) / dist)
        elif sp.kind == "rdxs1":
            full = R.T @ orthogonal_projector(pbar) / dist
            pos_blocks.append(full[:d, :d] if d == 2 else full)
            rot_blocks.append(-(R.T @ skew(pbar) @ np.array(sp.axis))[:d]
                              .reshape(d, 1))
        else:
            pos_blocks.append(R.T @ orthogonal_projector(pbar) / dist)
            rot_blocks.append(-R.T @ skew(pbar))
    left = blkdiag(pos_blocks) @ inc.Ebar.T
    if sp.kind == "rd":
        return left
    if sp.kind == "rdxs1":
        return np.hstack([left, blkdiag(rot_blocks) @ inc.E_out.T])
    return np.hstack([left, blkdiag(rot_blocks) @ inc.Ebar_out.T])


def product_form_unified(fw):
    g = orient(fw.graph) if fw.graph.kind == "undirected" else fw.graph
    P = fw.positions()
    inc = incidence_matrices(g, 3)
    planar = (fw.is_homogeneous and fw.space.kind in ("rd", "rdxs1")
              and fw.space.d == 2)
    pos_blocks, rot_blocks = [], []
    for (i, j) in g.edges:
        diff = P[j - 1] - P[i - 1]
        dist = np.linalg.norm(diff)
        pbar = diff / dist
        R = fw.rotation_of(i)
        if planar:
            proj = np.zeros((3, 3))
            proj[:2, :2] = orthogonal_projector(pbar[:2])
        else:
            proj = orthogonal_projector(pbar)
        pos_blocks.append(R.T @ proj / dist)
        rot_blocks.append(-R.T @ skew(pbar) @ fw.space_of(i).rotation_input())
    return np.hstack([blkdiag(pos_blocks) @ inc.Ebar.T,
                      blkdiag(rot_blocks) @ inc.Ebar_out.T])


@pytest.mark.parametrize("key", sorted(SPACES))
def test_assembly_matches_product_form(key):
    for seed in range(3):
        fw = sample(key, n=5, density=0.7 if key != "r2" else 1.0, seed=seed)
        np.testing.assert_allclose(rigidity_matrix(fw).matrix,
                                   product_form(fw), atol=1e-13)
        np.testing.assert_allclose(unified_rigidity_matrix(fw).matrix,
                                   product_form_unified(fw), atol=1e-13)


def test_hetero_assembly_matches_product_form():
    for seed in range(3):
        fw = hetero_case_study(seed=seed)
        np.testing.assert_allclose(unified_rigidity_matrix(fw).matrix,
                                   product_form_unified(fw), atol=1e-13)


@pytest.mark.parametrize("key,rows_per_edge,cols", [
    ("r2", 2, lambda n: 2 * n),
    ("r3", 3, lambda n: 3 * n),
    ("r2s1", 2, lambda n: 3 * n),
    ("r3s1", 3, lambda n: 4 * n),
    ("se3", 3, lambda n: 6 * n),
])
def test_per_space_shapes_and_blocks(key, rows_per_edge, cols):
    fw = sample(key, n=4)
    rm = rigidity_matrix(fw)
    assert rm.shape == (rows_per_edge * fw.m, cols(fw.n))
    assert len(rm.row_blocks) == fw.m
    assert rm.row_blocks[-1][1] == rm.shape[0]
    assert len(rm.col_blocks) == fw.n
    has_rot = SPACES[key].has_orientation
    assert all((cb.rotation is not None) == has_rot for cb in rm.col_blocks)
    with pytest.raises(ValueError):
        rm.matrix[0, 0] = 1.0  # read-only


def test_per_space_rejects_heterogeneous():
    with pytest.raises(ValidationError):
        rigidity_matrix(hetero_case_study())


ZERO_COLS_PER_AGENT = {"r2": 4, "r3": 3, "r2s1": 3, "r3s1": 2, "se3": 0}


@pytest.mark.parametrize("key", sorted(ZERO_COLS_PER_AGENT))
def test_unified_zero_column_counts(key):
    fw = sample(key, n=5)
    B = unified_rigidity_matrix(fw).matrix
    assert B.shape == (3 * fw.m, 6 * fw.n)
    zero = sum(1 for j in range(B.shape[1]) if not B[:, j].any())
    assert zero == ZERO_COLS_PER_AGENT[key] * fw.n


@pytest.mark.parametrize("key", sorted(SPACES))
@pytest.mark.parametrize("representation", ["per_space", "unified"])
def test_fd_probe_confirms_matrix(key, representation):
    fw = sample(key, n=4, seed=11)
    res = fd_jacobian_check(fw, POL, trials=10, seed=5,
                            representation=representation)
    assert res.max_rel_error < 1e-5
    assert res.representation == representation
    assert res.step == POL.fd_step


def test_fd_probe_hetero():
    res = fd_jacobian_check(hetero_case_study(seed=2), POL, trials=10)
    assert res.max_rel_error < 1e-5
    assert res.representation == "unified"


def test_auto_layout_is_the_verdict_form():
    # "auto" is resolved in _layout alone: per-space for a homogeneous team,
    # unified for a mixed one
    assert engine._layout(fixture("square-diagonal-r2"), "auto") == ("per_space", 2, ())
    assert engine._layout(sample("se3", n=4), "auto") == ("per_space", 3, (0, 1, 2))
    assert engine._layout(hetero_case_study(0), "auto") == ("unified", 3, (0, 1, 2))
    with pytest.raises(ValidationError, match="unknown representation"):
        engine._layout(fixture("square-diagonal-r2"), "per-space")


@pytest.mark.parametrize("trials", [0, -3])
def test_fd_probe_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValidationError, match="at least 1"):
        fd_jacobian_check(sample("r2", n=4, seed=11), POL, trials=trials)


def test_fd_probe_rejects_out_of_range_steps():
    # the policy is the probe's only step, so an out-of-range step is
    # refused where the policy is built and never reaches the probe
    fw = sample("r2", n=4, seed=11)
    for step in (1.0, 1e300, float("inf"), float("nan"), 0.0, -1e-6):
        with pytest.raises(ValidationError, match="finite, positive and below 1"):
            fd_jacobian_check(fw, dataclasses.replace(POL, fd_step=step))
    with pytest.raises(TypeError):
        fd_jacobian_check(fw, POL, step=1e-5)
    assert fd_jacobian_check(fw, TolerancePolicy(fd_step=1e-5)).step == 1e-5


TRIVIAL_DIMS = {"r2": 3, "r3": 4, "r2s1": 4, "r3s1": 5, "se3": 7}


@pytest.mark.parametrize("key", sorted(TRIVIAL_DIMS))
def test_trivial_basis_annihilated_by_matrix(key):
    fw = sample(key, n=5, seed=3)
    tb = trivial_variation_basis(fw, POL)
    assert tb.dim == TRIVIAL_DIMS[key]
    assert tb.generators.shape[1] == tb.dim
    B = rigidity_matrix(fw).matrix
    assert np.linalg.norm(B @ tb.basis) < 1e-8 * max(np.linalg.norm(B), 1.0)
    assert "scaling" in tb.labels
    assert sum(1 for l in tb.labels if l.startswith("translation")) == \
        (2 if SPACES[key].d == 2 and SPACES[key].kind != "se3" else 3)


def test_trivial_basis_lives_in_kernel():
    fw = sample("se3", n=4, seed=9)
    tb = trivial_variation_basis(fw, POL)
    _, N = rank_and_nullspace(rigidity_matrix(fw).matrix, POL)
    assert subspace_contains(N, tb.basis, POL)


def test_trivial_basis_input_rules():
    with pytest.raises(ValidationError):
        trivial_variation_basis(hetero_case_study(), POL)
    collinear = random_framework(GeneratorSpec(space=SPACES["r2"], n=4,
                                               graph_density=1.0, seed=0,
                                               placement="collinear"))
    with pytest.raises(ValidationError):
        trivial_variation_basis(collinear, POL)


RANK_TARGETS = {
    "r2": lambda n: 2 * n - 3,
    "r3": lambda n: 3 * n - 4,
    "r2s1": lambda n: 3 * n - 4,
    "r3s1": lambda n: 4 * n - 5,
    "se3": lambda n: 6 * n - 7,
}


@pytest.mark.parametrize("key", sorted(RANK_TARGETS))
def test_complete_graph_verdict(key):
    fw = sample(key, n=5, seed=7)
    v = ibr_verdict(fw, POL)
    assert v.classification == "IBR"
    assert v.kernel_equal_to_complete
    assert not v.degenerate
    assert v.rank == v.expected_rank == RANK_TARGETS[key](5)
    assert v.rank + v.nullity == rigidity_matrix(fw).shape[1]
    assert any("implies" in note for note in v.notes)


def test_sparse_graph_goes_flexible():
    star = fixture("star-r2")
    v = ibr_verdict(star, POL)
    assert v.classification == "IBF"
    assert not v.kernel_equal_to_complete
    assert v.rank < v.expected_rank


@pytest.mark.parametrize("key", ["r2", "r2s1", "r3s1", "se3"])
def test_verdict_is_scale_invariant(key):
    # translational columns scale as 1/length, rotational ones do not
    for density in (0.6, 1.0):
        fw = sample(key, n=6, density=density, seed=4)
        base = ibr_verdict(fw, POL)
        for exponent in (-10, -8, 8, 10):
            states = tuple(dataclasses.replace(st, p=st.p * 10.0 ** exponent)
                           for st in fw.states)
            v = ibr_verdict(dataclasses.replace(fw, states=states), POL)
            assert (v.classification, v.rank) == (base.classification, base.rank)


def scaled(fw, factor):
    return dataclasses.replace(fw, states=tuple(
        dataclasses.replace(st, p=st.p * factor) for st in fw.states))


SCALE_SWEEP = [10.0 ** e for e in (-10, -9, -6, -3, 3, 6, 9, 10)]


@pytest.mark.parametrize("key", ["r2", "r2s1", "r3s1", "se3"])
def test_augmentation_is_scale_invariant(key):
    fw = sample(key, n=5, seed=7)
    path = SensingGraph(5, ((1, 2), (2, 3), (3, 4), (4, 5)), fw.graph.kind)
    fw = fw.with_graph(path)
    _, base = augment_to_ibr(fw, POL)
    assert base
    for factor in SCALE_SWEEP:
        moved = scaled(fw, factor)
        out, added = augment_to_ibr(moved, POL)
        assert added == base
        assert out.graph.edges == tuple(sorted(path.edges + added))
        np.testing.assert_array_equal(out.positions(), moved.positions())
        assert ibr_verdict(out, POL).classification == "IBR"


def test_hetero_decomposition_is_scale_invariant():
    fw = hetero_case_study(seed=0)
    base = hetero_kernel_analysis(fw, POL)
    for factor in SCALE_SWEEP:
        moved = scaled(fw, factor)
        rep = hetero_kernel_analysis(moved, POL)
        assert (rep.trivial.dim, rep.trivial.labels) == (base.trivial.dim,
                                                         base.trivial.labels)
        assert (rep.virtual.dim, rep.virtual.labels) == (base.virtual.dim,
                                                         base.virtual.labels)
        assert rep.zero_columns == base.zero_columns
        assert (rep.verdict.rank, rep.verdict.nullity) == (13, 11)
        # the bases are kernel vectors of the caller's own matrix
        B = unified_rigidity_matrix(moved).matrix
        assert np.linalg.norm(B @ rep.trivial.basis) < 1e-8 * np.linalg.norm(B)
        assert not (B @ rep.virtual.basis).any()


@pytest.mark.parametrize("factor", [1e-9, 1e9])
def test_fd_probe_is_scale_invariant(factor):
    # the probe runs at unit scale; on the raw formation a step of 1e-6 is
    # a thousand edge lengths at 1e-9 and lost in rounding at 1e9
    fw = sample("r2", n=6, seed=4)
    base = fd_jacobian_check(fw, POL).max_rel_error
    assert base < 1e-5
    got = fd_jacobian_check(scaled(fw, factor), POL).max_rel_error
    assert got == pytest.approx(base, rel=1e-3)


def test_degenerate_complete_graph_flagged_but_classified():
    collinear = random_framework(GeneratorSpec(space=SPACES["r2"], n=4,
                                               graph_density=1.0, seed=1,
                                               placement="collinear"))
    v = ibr_verdict(collinear, POL)
    assert v.degenerate
    assert v.classification == "IBR"  # kernel equality is trivially true here
    assert any("degenerate" in note for note in v.notes)


def test_kernel_inclusion_outcomes():
    assert kernel_inclusion_check(sample("r3", n=5, seed=2), POL) == "equal"
    assert kernel_inclusion_check(fixture("star-r2"), POL) == "A_subset_B"


@given(st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_complete_kernel_always_inside_graph_kernel(seed):
    rng = np.random.default_rng(seed)
    key = ["r2", "r3", "r2s1", "r3s1", "se3"][seed % 5]
    fw = sample(key, n=int(rng.integers(4, 7)),
                density=float(rng.uniform(0.4, 1.0)), seed=seed)
    assert kernel_inclusion_check(fw, POL) in ("equal", "A_subset_B")


def square(points):
    g = SensingGraph(4, ((1, 2), (2, 3), (3, 4), (1, 4)), "undirected")
    return Framework(g, SPACES["r2"],
                     tuple(AgentState(p=np.array(p, dtype=float))
                           for p in points))


def test_equivalence_and_congruence():
    unit = square([[0, 0], [1, 0], [1, 1], [0, 1]])
    moved = square([[2, 3], [4, 3], [4, 5], [2, 5]])  # translate + scale x2
    assert bearing_equivalent(unit, moved, POL)
    assert bearing_congruent(unit, moved, POL)
    warped = square([[0, 0], [2, 0], [2, 1], [0, 1]])
    assert bearing_equivalent(unit, warped, POL)
    assert not bearing_congruent(unit, warped, POL)


def test_equivalence_needs_matching_structure():
    unit = square([[0, 0], [1, 0], [1, 1], [0, 1]])
    other_graph = unit.with_graph(complete_graph(unit.graph))
    with pytest.raises(ValidationError):
        bearing_equivalent(unit, other_graph, POL)


def test_hetero_kernel_analysis_case_study():
    fw = hetero_case_study(seed=0)
    rep = hetero_kernel_analysis(fw, POL)
    B = unified_rigidity_matrix(fw)
    assert B.shape == (36, 24)
    assert rep.verdict.rank == 13
    assert rep.verdict.nullity == 11
    assert rep.verdict.expected_rank is None
    assert len(rep.zero_columns) == 6
    assert rep.trivial.dim == 5
    assert set(rep.trivial.labels) == {"translation_x", "translation_y",
                                       "translation_z", "scaling",
                                       "coord_rotation_z"}
    assert rep.virtual.dim == 6
    # virtual directions really are kernel directions the matrix never sees
    assert np.linalg.norm(B.matrix @ rep.virtual.basis) == 0.0
    assert np.linalg.norm(B.matrix @ rep.trivial.basis) < 1e-8


def test_a_rotation_no_edge_measures_is_a_flex_not_virtual():
    # the full-pose agent heads no edge, so its rotation columns are zero in
    # this graph's matrix; the complete graph measures them, so they are a
    # flex, not virtual, and with them every agent can turn about z
    spaces = (SPACES["r2s1"],) * 3 + (SPACES["se3"],)
    states = tuple(AgentState(p=np.array(p), alpha=alpha) for p, alpha in
                   (((0.0, 0.0, 0.0), 0.0), ((1.0, 0.0, 0.0), 0.3),
                    ((0.3, 1.0, 0.0), 0.6)))
    states += (AgentState(p=np.array([0.4, 0.3, 1.0]), R=np.eye(3)),)
    edges = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (2, 4), (3, 4))
    fw = Framework(SensingGraph(4, edges, "directed"), spaces, states)
    rep = hetero_kernel_analysis(fw, POL)
    assert (rep.verdict.classification, rep.verdict.nullity) == ("IBF", 14)
    # the rotation-input masks: columns 0 and 1 of each heading agent's block
    assert rep.zero_columns == (12, 13, 15, 16, 18, 19)
    assert rep.virtual.dim == 6
    assert rep.trivial.labels == ("translation_x", "translation_y", "translation_z",
                                  "scaling", "coord_rotation_z",
                                  "unlabeled", "unlabeled", "unlabeled")


MIXED_FAMILIES = {**SPACES, "r3s1x": MetricSpace.rd_s1(3, axis=(1.0, 0.0, 0.0))}


def drawn_mixed_team(seed, families=MIXED_FAMILIES, density=None):
    """A generated team of n = 4 to 10 agents from two to five of the
    families, at density, or at one drawn from 0.3 to 1 when None."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    count = int(rng.integers(2, min(n, 5) + 1))
    chosen = rng.choice(list(families), size=min(count, len(families)), replace=False)
    kinds = list(chosen) + list(rng.choice(chosen, size=n - len(chosen)))
    spaces = tuple(families[k] for k in rng.permutation(kinds))
    if density is None:
        density = float(rng.uniform(0.3, 1.0))
    return random_framework(GeneratorSpec(space=spaces, n=n, seed=seed,
                                          graph_density=density))


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_the_mixed_complete_kernel_is_its_zero_columns_plus_the_trivial_motions(seed):
    # the oracle's span is the complete kernel the library reports and the
    # one its verdict certifies inside the team's own kernel, and the
    # virtual part is exactly the structurally zero columns
    fw = drawn_mixed_team(seed)
    virtual, trivial = mixed_complete_kernel(fw)
    assert subspace_relation(np.hstack([virtual, trivial]),
                             engine.complete_graph_kernel(fw, POL), POL) == "equal"
    decision = engine._decide(fw, POL)
    assert subspace_relation(np.hstack(mixed_complete_kernel(unit_scale(fw))),
                             decision.Nk, POL) == "equal"
    assert virtual.shape[1] == len(decision.zero_columns)
    assert hetero_kernel_analysis(fw, POL).virtual.dim == virtual.shape[1]


LABELED_FAMILIES = {**MIXED_FAMILIES,
                    "r3s1d": MetricSpace.rd_s1(3, axis=(1 / 3, 2 / 3, 2 / 3))}


@pytest.mark.parametrize("keys", [tuple(LABELED_FAMILIES), ("se3", "r3s1d"),
                                  ("se3", "r3s1x"), ("se3", "r2s1", "r3s1")])
@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_a_complete_mixed_team_labels_exactly_the_qualifying_generators(keys, seed):
    # on the complete graph a mixed team is rigid, and its trivial part is
    # labeled by exactly the oracle's qualifying motions, in order: the
    # translations, scaling, the rotation about each coordinate axis every
    # agent can turn about, and one unlabeled direction per other common
    # axis (a tilted heading axis shared with full-pose agents); the
    # smaller family sets share a rotation about a tilted axis, x or z
    fw = drawn_mixed_team(seed, {k: LABELED_FAMILIES[k] for k in keys}, density=1.0)
    report = hetero_kernel_analysis(fw, POL)
    assert report.verdict.classification == "IBR"
    assert report.trivial.labels == tuple(
        label for label, _ in mixed_trivial_generators(fw))


def test_hetero_analysis_rejects_homogeneous():
    with pytest.raises(ValidationError):
        hetero_kernel_analysis(sample("se3"), POL)


@pytest.mark.parametrize("key,n,flag,expect", [
    ("r2", 4, False, 5),
    ("r3", 4, False, 6),
    ("r2s1", 4, False, 6),
    ("r3s1", 4, False, 7),
    ("r3s1", 4, True, 10),
    ("se3", 4, False, 12),
])
def test_degenerate_dim_table(key, n, flag, expect):
    assert degenerate_trivial_dim(SPACES[key], n,
                                  axis_aligned_with_line=flag) == expect


def test_degenerate_dim_validation():
    with pytest.raises(ValidationError):
        degenerate_trivial_dim(SPACES["r2"], 4, axis_aligned_with_line=True)
    with pytest.raises(ValidationError):
        degenerate_trivial_dim(SPACES["r2s1"], 4, axis_aligned_with_line=True)
    with pytest.raises(ValidationError):
        degenerate_trivial_dim(SPACES["se3"], 4, axis_aligned_with_line=True)
    with pytest.raises(ValidationError):
        degenerate_trivial_dim(SPACES["r2"], 2)


@pytest.mark.parametrize("key", ["r2", "r3"])
def test_reduced_oracle_agrees_with_assembled_rank(key):
    for seed in range(4):
        fw = sample(key, n=5, density=0.8, seed=seed)
        B = rigidity_matrix(fw).matrix
        rank, _ = rank_and_nullspace(B, POL)
        edges = orient(fw.graph).edges if fw.graph.kind == "undirected" \
            else fw.graph.edges
        d = fw.space.d
        pts = fw.positions()[:, :d]
        assert reduced_rank_oracle(pts, edges, d=d, pol=POL) == rank


@given(st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_adding_an_edge_never_drops_rank(seed):
    fw = sample("r2", n=5, density=0.5, seed=seed)
    rank0, _ = rank_and_nullspace(rigidity_matrix(fw).matrix, POL)
    missing = [e for e in complete_edges(5, "undirected")
               if e not in fw.graph.edges]
    if not missing:
        return
    e = missing[seed % len(missing)]
    bigger = fw.with_graph(SensingGraph(5, fw.graph.edges + (e,), "undirected"))
    rank1, _ = rank_and_nullspace(rigidity_matrix(bigger).matrix, POL)
    assert rank1 >= rank0


def test_verdict_raises_on_nan():
    fw = sample("r2", n=4)
    with pytest.raises(NumericalError):
        rank_and_nullspace(np.full((3, 3), np.nan), POL)
    # sanity: the healthy path stays healthy
    assert ibr_verdict(fw, POL).classification in ("IBR", "IBF")
