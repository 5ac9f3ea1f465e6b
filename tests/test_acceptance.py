"""Acceptance suite.

Each test covers one numbered criterion and emits one pass/fail line
through the acceptance_record fixture; the lines are echoed together after
the run. Protocol sizes and tolerances are fixed here on purpose: loosening
them is not a fix for a failure.
"""
import dataclasses

import numpy as np

from bearing_rigidity import (GeneratorSpec, MetricSpace, NumericalError,
                              SensingGraph, TolerancePolicy, augment_to_ibr,
                              bearing_congruent, bearing_equivalent,
                              case_study_partition, degenerate_trivial_dim,
                              fd_jacobian_check, fixture, hetero_case_study,
                              hetero_kernel_analysis, ibr_verdict,
                              random_framework, rank_and_nullspace,
                              rigidity_matrix, trivial_variation_basis,
                              unified_rigidity_matrix)
import bearing_rigidity as br
from oracles import kernel_inclusion_check, reduced_rank_oracle

POL = TolerancePolicy()

R2 = MetricSpace.rd(2)
R3 = MetricSpace.rd(3)
R2S1 = MetricSpace.rd_s1(2)
R3S1 = MetricSpace.rd_s1(3, axis=(0.0, 0.0, 1.0))
SE3 = MetricSpace.se3()
ALL_SPACES = (R2, R3, R2S1, R3S1, SE3)


def complete_framework(space, n, seed):
    return random_framework(GeneratorSpec(space=space, n=n, graph_density=1.0,
                                          seed=seed))


def mixed_framework(space, n, density, seed):
    return random_framework(GeneratorSpec(space=space, n=n,
                                          graph_density=density, seed=seed))


def graph_rank(fw):
    rank, _ = rank_and_nullspace(rigidity_matrix(fw).matrix, POL)
    return rank


def test_criterion_01_complete_rank_position_only(acceptance_record):
    trials = bad = 0
    oracle_checked = oracle_bad = 0
    seed = 10_000
    for d in (2, 3):
        space = R2 if d == 2 else R3
        for n in range(3, 9):
            target = d * n - d - 1
            for t in range(50):
                seed += 1
                fw = complete_framework(space, n, seed)
                rank = graph_rank(fw)
                trials += 1
                if rank != target:
                    bad += 1
                if t % 10 == 0:
                    oracle_checked += 1
                    edges = br.orient(fw.graph).edges
                    if reduced_rank_oracle(fw.positions()[:, :d], edges,
                                           d=d, pol=POL) != rank:
                        oracle_bad += 1
    ok = bad == 0 and oracle_bad == 0
    acceptance_record(1, ok,
                      f"position-only complete-graph rank d*n-d-1: "
                      f"{trials - bad}/{trials} exact, independent oracle "
                      f"agreed {oracle_checked - oracle_bad}/{oracle_checked}")


def test_criterion_02_complete_rank_heading_and_pose(acceptance_record):
    cases = [(R2S1, lambda n: 3 * n - 4, 4),
             (R3S1, lambda n: 4 * n - 5, 5),
             (SE3, lambda n: 6 * n - 7, 7)]
    trials = bad = 0
    seed = 20_000
    for space, target, nullity in cases:
        for n in range(3, 9):
            for _ in range(50):
                seed += 1
                fw = complete_framework(space, n, seed)
                rank, N = rank_and_nullspace(rigidity_matrix(fw).matrix, POL)
                trials += 1
                if rank != target(n) or N.shape[1] != nullity:
                    bad += 1
    acceptance_record(2, bad == 0,
                      f"heading/full-pose complete-graph rank and nullity: "
                      f"{trials - bad}/{trials} exact")


def test_criterion_03_rank_and_kernel_tests_agree(acceptance_record):
    trials = bad = 0
    seed = 30_000
    for si, space in enumerate(ALL_SPACES):
        rng = np.random.default_rng(31 + si)
        for t in range(200):
            seed += 1
            n = 4 + t % 4
            density = float(rng.uniform(0.45, 1.0))
            fw = mixed_framework(space, n, density, seed)
            trials += 1
            try:
                v = ibr_verdict(fw, POL)
            except NumericalError:
                bad += 1
                continue
            rank_rigid = v.rank == v.expected_rank
            if v.degenerate or rank_rigid != v.kernel_equal_to_complete:
                bad += 1
    acceptance_record(3, bad == 0,
                      f"rank test agrees with kernel-equality test: "
                      f"{trials - bad}/{trials} frameworks")


def test_criterion_04_trivial_space_annihilated(acceptance_record):
    trials = bad = 0
    worst = 0.0
    seed = 40_000
    for space in ALL_SPACES:
        rng = np.random.default_rng(41)
        for t in range(100):
            seed += 1
            fw = mixed_framework(space, 4 + t % 4,
                                 float(rng.uniform(0.45, 1.0)), seed)
            B = rigidity_matrix(fw).matrix
            tb = trivial_variation_basis(fw, POL)
            rel = np.linalg.norm(B @ tb.basis) / np.linalg.norm(B)
            worst = max(worst, rel)
            trials += 1
            if rel > 1e-8:
                bad += 1
    acceptance_record(4, bad == 0,
                      f"graph matrix annihilates the trivial space: "
                      f"{trials - bad}/{trials} within 1e-8 "
                      f"(worst relative residual {worst:.2e})")


def test_criterion_05_kernel_inclusion(acceptance_record):
    trials = bad = 0
    seed = 50_000
    for space in ALL_SPACES:
        rng = np.random.default_rng(53)
        for t in range(40):
            seed += 1
            fw = mixed_framework(space, 4 + t % 4,
                                 float(rng.uniform(0.45, 1.0)), seed)
            trials += 1
            if kernel_inclusion_check(fw, POL) not in ("equal", "A_subset_B"):
                bad += 1
    acceptance_record(5, bad == 0,
                      f"complete-graph kernel contained in framework kernel: "
                      f"{trials - bad}/{trials}")


def test_criterion_06_finite_difference_probe(acceptance_record):
    trials = bad_err = bad_ratio = 0
    worst_err = 0.0
    seed = 60_000
    for space in ALL_SPACES:
        for t in range(50):
            seed += 1
            fw = complete_framework(space, 4 + t % 2, seed)
            res = fd_jacobian_check(fw, POL, trials=20, seed=seed)
            trials += 1
            worst_err = max(worst_err, res.max_rel_error)
            if res.max_rel_error > 1e-5:
                bad_err += 1
            e4 = fd_jacobian_check(fw, POL, trials=20, step=1e-4,
                                   seed=seed).max_rel_error
            e5 = fd_jacobian_check(fw, POL, trials=20, step=1e-5,
                                   seed=seed).max_rel_error
            ratio = e4 / e5
            if not 5.0 <= ratio <= 20.0:
                bad_ratio += 1
    ok = bad_err == 0 and bad_ratio == 0
    acceptance_record(6, ok,
                      f"finite differences confirm the matrix: "
                      f"{trials - bad_err}/{trials} under 1e-5 at h=1e-6 "
                      f"(worst {worst_err:.2e}), step ratio in [5,20] for "
                      f"{trials - bad_ratio}/{trials}")


def test_criterion_07_mixed_case_study(acceptance_record):
    seeds = range(20)
    bad = 0
    for seed in seeds:
        fw = hetero_case_study(seed=seed)
        B = unified_rigidity_matrix(fw)
        rep = hetero_kernel_analysis(fw, POL)
        g1, g2 = case_study_partition(fw)
        checks = (
            B.shape == (36, 24),
            len(rep.zero_columns) == 6,
            rep.verdict.rank == 13,
            rep.verdict.nullity == 11,
            rep.trivial.dim == 5,
            rep.virtual.dim == 6,
            rep.verdict.classification == "IBR",
            ibr_verdict(g1, POL).classification == "IBF",
            ibr_verdict(g2, POL).classification == "IBF",
        )
        if not all(checks):
            bad += 1
    acceptance_record(7, bad == 0,
                      f"ground/aerial case study (36x24, 6 zero columns, "
                      f"rank 13, trivial 5, virtual 6, subgraphs flexible): "
                      f"{len(seeds) - bad}/{len(seeds)} placements")


def test_criterion_08_degenerate_dimensions(acceptance_record):
    cases = [
        (R2, None, False),
        (R3, None, False),
        (R2S1, None, False),
        (R3S1, (1.0, 0.0, 0.0), False),  # heading axis off the line
        (R3S1, (0.0, 0.0, 1.0), True),   # heading axis along the line
        (SE3, None, False),
    ]
    trials = bad = 0
    seed = 80_000
    for space, axis, aligned in cases:
        for n in range(3, 7):
            expect = degenerate_trivial_dim(space, n,
                                            axis_aligned_with_line=aligned)
            for _ in range(3):
                seed += 1
                fw = random_framework(GeneratorSpec(
                    space=space, n=n, graph_density=1.0, seed=seed,
                    placement="collinear", collinear_axis=axis))
                _, N = rank_and_nullspace(rigidity_matrix(fw).matrix, POL)
                trials += 1
                if N.shape[1] != expect:
                    bad += 1
    acceptance_record(8, bad == 0,
                      f"collinear complete-graph kernel dimensions match the "
                      f"closed forms: {trials - bad}/{trials}")


def test_criterion_09_square_cycle_exemplar(acceptance_record):
    cycle = fixture("square-cycle-r2")
    braced = fixture("square-diagonal-r2")
    v_cycle = ibr_verdict(cycle, POL)
    v_braced = ibr_verdict(braced, POL)
    augmented, added = augment_to_ibr(cycle, POL)
    checks = (
        v_cycle.classification == "IBF" and v_cycle.rank == 4,
        v_braced.classification == "IBR" and v_braced.rank == 5,
        len(added) == 1,
        ibr_verdict(augmented, POL).classification == "IBR",
    )
    acceptance_record(9, all(checks),
                      f"square 4-cycle flexible at rank {v_cycle.rank}, "
                      f"braced square rigid at rank {v_braced.rank}, "
                      f"augmentation added {len(added)} edge")


def test_criterion_10_equivalence_vs_congruence(acceptance_record):
    checks = []

    def shifted(fw, delta):
        states = tuple(dataclasses.replace(st, p=np.asarray(st.p) + delta)
                       for st in fw.states)
        return dataclasses.replace(fw, states=states)

    def scaled(fw, s, center):
        states = tuple(dataclasses.replace(
            st, p=center + s * (np.asarray(st.p) - center)) for st in fw.states)
        return dataclasses.replace(fw, states=states)

    for fw, delta in [
        (fixture("triangle-r2-complete"), np.array([3.0, -1.5, 0.0])),
        (fixture("cube-se3-complete"), np.array([0.4, 2.0, -5.0])),
        (complete_framework(R3S1, 4, 101), np.array([1.0, 1.0, 1.0])),
        (hetero_case_study(seed=4), np.array([-2.0, 0.7, 0.0])),
    ]:
        moved = shifted(fw, delta)
        checks.append(bearing_equivalent(fw, moved, POL))
        checks.append(bearing_congruent(fw, moved, POL))

    for fw in [fixture("triangle-r2-complete"), complete_framework(R3, 5, 102)]:
        grown = scaled(fw, 2.75, np.array([0.3, -0.2, 0.1]))
        checks.append(bearing_equivalent(fw, grown, POL))
        checks.append(bearing_congruent(fw, grown, POL))

    g = SensingGraph(4, ((1, 2), (2, 3), (3, 4), (1, 4)), "undirected")
    unit = fixture("square-cycle-r2")
    warped = dataclasses_square(g, [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0],
                                    [0.0, 1.0]])
    checks.append(bearing_equivalent(unit, warped, POL))
    checks.append(not bearing_congruent(unit, warped, POL))

    acceptance_record(10, all(checks),
                      "translated/scaled copies equivalent and congruent, "
                      "warped square equivalent but not congruent "
                      f"({sum(checks)}/{len(checks)} checks)")


def dataclasses_square(g, points):
    from bearing_rigidity import AgentState, Framework
    return Framework(g, R2, tuple(AgentState(p=np.array(p)) for p in points))


def per_space_selection(space, n, m):
    """Rows and columns of the unified matrix that form the per-space one:
    rows 3k..3k+d of each edge, position columns 3a+c for c < d, then the
    heading column 3n+3a+2 (rdxs1) or all three rotation columns (se3)."""
    d = space.d
    rot = {"rd": (), "rdxs1": (2,), "se3": (0, 1, 2)}[space.kind]
    rows = [3 * k + r for k in range(m) for r in range(d)]
    cols = ([3 * a + c for a in range(n) for c in range(d)]
            + [3 * n + 3 * a + c for a in range(n) for c in rot])
    return rows, cols


def test_criterion_11_unified_matches_per_space(acceptance_record):
    bad = 0
    worst = 0.0
    for space in ALL_SPACES:
        for seed in range(5):
            fw = complete_framework(space, 5, (300 if space == SE3 else 400) + seed)
            rows, cols = per_space_selection(space, fw.n, fw.m)
            diff = np.max(np.abs(unified_rigidity_matrix(fw).matrix[np.ix_(rows, cols)]
                                 - rigidity_matrix(fw).matrix))
            worst = max(worst, diff)
            if diff > 1e-12:
                bad += 1

    masked_bad = 0
    for space in (R2, R3, R2S1, R3S1):
        for seed in range(5):
            fw = complete_framework(space, 5, 400 + seed)
            U = unified_rigidity_matrix(fw).matrix
            live = [j for j in range(U.shape[1]) if U[:, j].any()]
            r_u, N_u = rank_and_nullspace(U[:, live], POL)
            r_p, N_p = rank_and_nullspace(rigidity_matrix(fw).matrix, POL)
            if r_u != r_p or N_u.shape[1] != N_p.shape[1]:
                masked_bad += 1
    ok = bad == 0 and masked_bad == 0
    acceptance_record(11, ok,
                      f"per-space form equals its row/column selection of the "
                      f"unified form entrywise in every space (max diff "
                      f"{worst:.1e}) and ranks/kernels match after masking "
                      f"structural zero columns")
