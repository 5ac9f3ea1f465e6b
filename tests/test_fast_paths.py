"""Fast paths checked against the slow references they replace.

* Verdicts of non-degenerate homogeneous frameworks take the complete-graph
  kernel in closed form (trivial_variation_basis); the reference builds the
  complete graph and decomposes its matrix.
* bearing_stack_raw is vectorized; the reference loops over edges.
* Mixed-team reports take their verdict from the kernel decomposition
  instead of computing it a second time.
* The rigidity matrices are assembled with batched block products and one
  scatter; the reference is the per-edge loop with one branch per space.
* rank_and_nullspace reduces tall matrices to their QR factor R before the
  SVD; the reference decomposes the matrix itself.
* The FD probe and the trivial generators lift every representation into
  unified coordinates through the assembler's column selection; the
  references are the per-kind state updates and generator branches.
* Mixed-team decompositions classify their own kernel; the reference is
  ibr_verdict.
* Every rank decision (verdicts, complete-graph kernels, mixed-team
  decompositions, augmentation) decomposes the factor rows of the verdict
  matrix; the reference decomposes the measured matrix itself.
* The FD probe turns all agents of a trial with one stacked rotation_exp;
  the reference calls it once per vector.
* The assembler hands its fresh array to RigidityMatrix without a copy;
  outside arrays are still copied.
* Augmentation assembles the complete graph's factor once and ranks each
  candidate on a row selection of it; the reference rebuilds the framework
  and assembles its factor for every candidate.
* The verdict and augmentation test degeneracy once and then build the
  trivial basis unchecked; the public trivial_variation_basis still checks.
"""
import dataclasses

import numpy as np
import pytest

from bearing_rigidity import (AgentState, CoincidentAgentsError, ColumnBlock,
                              Framework, GeneratorSpec, MetricSpace,
                              RigidityMatrix, SensingGraph,
                              TolerancePolicy, analysis_report,
                              augment_to_ibr,
                              complete_edges, complete_graph,
                              complete_graph_kernel, hetero_case_study,
                              ibr_verdict, random_framework,
                              random_rotation, rank_and_nullspace,
                              rigidity_matrix, trivial_variation_basis,
                              unified_rigidity_matrix)
from bearing_rigidity import (engine, formats, linalg, orient,
                              orthonormal_columns, rotation_exp, scenarios,
                              skew, spaces)
from bearing_rigidity.spaces import bearing_stack_raw
from oracles import orthogonal_projector, subspace_relation

POL = TolerancePolicy()

SPACES = {
    "r2": MetricSpace.rd(2),
    "r3": MetricSpace.rd(3),
    "r2s1": MetricSpace.rd_s1(2),
    "r3s1z": MetricSpace.rd_s1(3, axis=(0.0, 0.0, 1.0)),
    "r3s1x": MetricSpace.rd_s1(3, axis=(1.0, 0.0, 0.0)),
    "se3": MetricSpace.se3(),
}


def placed_framework(space, n, rng, planar_3d=False):
    """Complete-graph framework with Gaussian positions. planar_3d pins
    3D agents to the plane z = 0."""
    kind = "undirected" if space.kind == "rd" else "directed"
    P = rng.standard_normal((n, 3))
    if space.is_planar or planar_3d:
        P[:, 2] = 0.0
    states = []
    for p in P:
        if space.kind == "rd":
            states.append(AgentState(p=p))
        elif space.kind == "rdxs1":
            states.append(AgentState(p=p, alpha=float(rng.uniform(0.0, 2 * np.pi))))
        else:
            states.append(AgentState(p=p, R=random_rotation(rng)))
    g = SensingGraph(n, complete_edges(n, kind), kind)
    return Framework(g, space, tuple(states))


def spanning_tree(n, kind, rng, extra_prob=0.0):
    """Random spanning tree, plus each remaining edge with extra_prob."""
    order = [int(v) + 1 for v in rng.permutation(n)]
    edges = set()
    for pos in range(1, n):
        a, b = order[pos], order[int(rng.integers(0, pos))]
        if kind == "undirected":
            edges.add((min(a, b), max(a, b)))
        else:
            edges.add((a, b) if rng.random() < 0.5 else (b, a))
    for e in complete_edges(n, kind):
        if e not in edges and rng.random() < extra_prob:
            edges.add(e)
    return SensingGraph(n, tuple(sorted(edges)), kind)


def reference_complete_kernel(fw):
    """Kernel of the assembled complete-graph matrix (the slow path)."""
    return rank_and_nullspace(
        rigidity_matrix(fw.with_graph(complete_graph(fw.graph))).matrix, POL)[1]


def reference_verdict(fw):
    """(classification, rank, nullity) from the complete-graph kernel."""
    rank, Ng = rank_and_nullspace(rigidity_matrix(fw).matrix, POL)
    rel = subspace_relation(reference_complete_kernel(fw), Ng, POL)
    assert rel in ("equal", "A_subset_B")
    return ("IBR" if rel == "equal" else "IBF"), rank, Ng.shape[1]


CLOSED_FORM_CASES = ([pytest.param(key, False, id=key) for key in SPACES]
                     + [pytest.param(key, True, id=f"{key}-in-plane")
                        for key in ("r3", "r3s1x", "se3")])


@pytest.mark.parametrize("key,planar_3d", CLOSED_FORM_CASES)
def test_closed_form_kernel_matches_complete_graph(key, planar_3d):
    space = SPACES[key]
    rng = np.random.default_rng(sum(map(ord, key)) + planar_3d)
    seen = set()
    for n in range(3, 13):
        fw = placed_framework(space, n, rng, planar_3d)
        Nk = reference_complete_kernel(fw)
        assert subspace_relation(trivial_variation_basis(fw, POL).basis, Nk,
                                 POL) == "equal"
        assert subspace_relation(complete_graph_kernel(fw, POL), Nk, POL) == "equal"
        for extra in (0.0, 0.5, 1.0):
            g = (fw.graph if extra == 1.0
                 else spanning_tree(n, fw.graph.kind, rng, extra))
            sub = fw.with_graph(g)
            v = ibr_verdict(sub, POL)
            assert (v.classification, v.rank, v.nullity) == reference_verdict(sub)
            seen.add(v.classification)
    assert seen == {"IBR", "IBF"}


def test_verdict_skips_the_complete_graph_only_when_closed_form_applies(monkeypatch):
    def no_complete_graph(g):
        raise AssertionError("complete graph built")

    monkeypatch.setattr(engine, "complete_graph", no_complete_graph)
    rng = np.random.default_rng(3)
    assert ibr_verdict(placed_framework(SPACES["se3"], 6, rng), POL).classification == "IBR"
    collinear = random_framework(GeneratorSpec(space=SPACES["r2"], n=4, seed=1,
                                               placement="collinear"))
    with pytest.raises(AssertionError, match="complete graph built"):
        ibr_verdict(collinear, POL)
    with pytest.raises(AssertionError, match="complete graph built"):
        ibr_verdict(hetero_case_study(seed=0), POL)


def test_mixed_report_computes_one_verdict(monkeypatch):
    # counts work, not calls of one function: the report decomposes the
    # factor rows of its own unit-scale matrix and of the complete graph's,
    # and assembles those two factors plus the FD probe's unified matrix
    counts = {"rank_and_nullspace": 0, "_assemble": 0, "unified_rigidity_matrix": 0}
    decomposed = []
    for name in counts:
        def counted(*args, _name=name, _original=getattr(engine, name), **kwargs):
            counts[_name] += 1
            if _name == "rank_and_nullspace":
                decomposed.append((args[0].shape, kwargs["shape"]))
            return _original(*args, **kwargs)
        monkeypatch.setattr(engine, name, counted)
    report = analysis_report(hetero_case_study(seed=0), POL)
    assert counts == {"rank_and_nullspace": 2, "_assemble": 3,
                      "unified_rigidity_matrix": 1}
    # 12 edges: 2 factor rows each, 3 measured rows each
    assert decomposed == [((24, 24), (36, 24))] * 2
    assert report["verdict"]["rank"] == 13


def looped_bearings(edges, positions, rotations):
    """Per-edge reference for bearing_stack_raw."""
    out = np.empty((len(edges), 3))
    for k, (i, j) in enumerate(edges):
        diff = positions[j] - positions[i]
        dist = np.linalg.norm(diff)
        if dist < 1e-12:
            raise CoincidentAgentsError(f"agents {i + 1} and {j + 1} coincide")
        out[k] = rotations[i].T @ (diff / dist)
    return out


def test_vectorized_bearings_match_the_loop():
    rng = np.random.default_rng(11)
    for n in (3, 7, 20):
        P = rng.standard_normal((n, 3))
        R = [random_rotation(rng) for _ in range(n)]
        edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and rng.random() < 0.6]
        np.testing.assert_allclose(bearing_stack_raw(edges, P, R),
                                   looped_bearings(edges, P, R),
                                   rtol=0, atol=1e-15)
    assert bearing_stack_raw([], P, R).shape == (0, 3)


def test_vectorized_bearings_name_the_first_coincident_pair():
    rng = np.random.default_rng(12)
    P = rng.standard_normal((6, 3))
    P[3] = P[1]
    P[5] = P[4]
    R = [np.eye(3)] * 6
    edges = [(0, 1), (5, 4), (2, 0), (1, 3), (4, 5)]
    with pytest.raises(CoincidentAgentsError) as slow:
        looped_bearings(edges, P, R)
    with pytest.raises(CoincidentAgentsError) as fast:
        bearing_stack_raw(edges, P, R)
    assert str(fast.value) == str(slow.value) == "agents 6 and 5 coincide"


def looped_rigidity_matrix(fw, representation):
    """Per-edge loop reference for the assembler: (matrix, row blocks,
    (translation, rotation) column ranges per agent)."""
    n = fw.n
    P = fw.positions()
    geo = []
    for i, j in fw.graph.edges:
        diff = P[j - 1] - P[i - 1]
        dist = np.linalg.norm(diff)
        geo.append((i - 1, j - 1, 1.0 / dist, diff / dist))
    m = len(geo)
    sp = fw.space
    planar = fw.is_homogeneous and sp.kind in ("rd", "rdxs1") and sp.d == 2

    def projector(pbar3):
        if not planar:
            return orthogonal_projector(pbar3)
        out = np.zeros((3, 3))
        out[:2, :2] = orthogonal_projector(pbar3[:2])
        return out

    if representation == "unified":
        d, kind = 3, "unified"
    else:
        d, kind = sp.d, sp.kind
    width = {"rd": 0, "rdxs1": 1, "se3": 3, "unified": 3}[kind]
    B = np.zeros((d * m, (d + width) * n))
    for k, (i, j, dij, pbar3) in enumerate(geo):
        R = fw.rotation_of(i + 1)
        r = slice(d * k, d * k + d)
        if kind == "rd":
            blk = dij * orthogonal_projector(pbar3[:d])
        else:
            blk = (dij * R.T @ projector(pbar3))[:d, :d]
        B[r, d * i:d * i + d] = -blk
        B[r, d * j:d * j + d] = blk
        if kind == "rdxs1":
            B[r, d * n + i] = (R.T @ skew(pbar3) @ np.array(sp.axis))[:d]
        elif kind == "se3":
            B[r, 3 * n + 3 * i:3 * n + 3 * i + 3] = R.T @ skew(pbar3)
        elif kind == "unified":
            V = fw.space_of(i + 1).rotation_input()
            B[r, 3 * n + 3 * i:3 * n + 3 * i + 3] = R.T @ skew(pbar3) @ V
    rows = tuple((d * k, d * k + d) for k in range(m))
    cols = tuple(((d * a, d * a + d),
                  (d * n + width * a, d * n + width * a + width) if width else None)
                 for a in range(n))
    return B, rows, cols


def mixed_framework(n, rng, graph):
    """Mixed team cycling through planar heading, 3D position-only, full
    pose and 3D heading (axis x) agents."""
    spaces = (SPACES["r2s1"], SPACES["r3"], SPACES["se3"], SPACES["r3s1x"])
    states = []
    space_of = [spaces[a % len(spaces)] for a in range(n)]
    for s in space_of:
        p = rng.standard_normal(3)
        if s.kind == "rd":
            states.append(AgentState(p=p))
        elif s.kind == "rdxs1":
            states.append(AgentState(p=p, alpha=float(rng.uniform(0.0, 2 * np.pi))))
        else:
            states.append(AgentState(p=p, R=random_rotation(rng)))
    return Framework(graph, tuple(space_of), tuple(states))


def assert_matches_loop(rm, fw, representation):
    B, rows, cols = looped_rigidity_matrix(fw, representation)
    assert rm.shape == B.shape
    np.testing.assert_allclose(rm.matrix, B, rtol=0,
                               atol=1e-14 * max(1.0, np.abs(B).max()))
    assert rm.row_blocks == rows
    assert tuple((cb.translation, cb.rotation) for cb in rm.col_blocks) == cols
    assert tuple(cb.agent for cb in rm.col_blocks) == tuple(range(1, fw.n + 1))


ASSEMBLY_CASES = ([pytest.param(key, False, id=key) for key in SPACES]
                  + [pytest.param(key, True, id=f"{key}-in-plane")
                     for key in ("r3", "r3s1z", "r3s1x", "se3")])


@pytest.mark.parametrize("key,planar_3d", ASSEMBLY_CASES)
def test_assembler_matches_the_loop(key, planar_3d):
    space = SPACES[key]
    rng = np.random.default_rng(sum(map(ord, key)) + 7 * planar_3d)
    for n in (3, 5, 9):
        fw = placed_framework(space, n, rng, planar_3d)
        graphs = [fw.graph, spanning_tree(n, fw.graph.kind, rng, 0.4)]
        if space.kind == "rd":
            graphs += [orient(g) for g in graphs]
        for g in graphs:
            sub = fw.with_graph(g)
            assert_matches_loop(rigidity_matrix(sub), sub, "per_space")
            assert_matches_loop(unified_rigidity_matrix(sub), sub, "unified")


def test_mixed_assembly_matches_the_loop():
    rng = np.random.default_rng(21)
    for n in (4, 6, 9):
        for g in (SensingGraph(n, complete_edges(n, "directed"), "directed"),
                  spanning_tree(n, "directed", rng, 0.3)):
            fw = mixed_framework(n, rng, g)
            assert not fw.is_homogeneous
            assert_matches_loop(unified_rigidity_matrix(fw), fw, "unified")
    fw = hetero_case_study(seed=2)
    assert_matches_loop(unified_rigidity_matrix(fw), fw, "unified")


def test_per_space_assembly_stays_near_its_output_size():
    # the r2 unified matrix would be 4.5x the per-space one at this size
    import tracemalloc
    fw = placed_framework(SPACES["r2"], 80, np.random.default_rng(4))
    tracemalloc.start()
    try:
        rm = rigidity_matrix(fw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rm.shape == (2 * fw.m, 160)
    assert peak < 3 * rm.matrix.nbytes


def test_only_outside_arrays_are_copied():
    import tracemalloc
    A = np.arange(12.0).reshape(4, 3)
    rm = RigidityMatrix(A, "per_space", ((0, 2), (2, 4)), (ColumnBlock(1, (0, 3)),))
    A[0, 0] = 99.0
    assert rm.matrix[0, 0] == 0.0
    assert A.flags.writeable and not rm.matrix.flags.writeable
    with pytest.raises(ValueError):
        rm.matrix[0, 0] = 1.0
    # the assembler's own array is handed over: read-only, and no second
    # copy of the output at the memory peak
    fw = placed_framework(SPACES["r2"], 80, np.random.default_rng(4))
    tracemalloc.start()
    try:
        rm = rigidity_matrix(fw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not rm.matrix.flags.writeable
    assert peak < 1.5 * rm.matrix.nbytes


def direct_rank_and_nullspace(M):
    """The SVD of M itself, without the QR reduction."""
    _, s, Vh = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > POL.effective_rank_rtol(M.shape) * s[0]))
    return rank, Vh[rank:].T, s


def rank_deficient_matrices():
    rng = np.random.default_rng(17)
    for key, space in SPACES.items():
        for n in (4, 7, 10):
            fw = placed_framework(space, n, rng)
            yield f"{key}-complete-{n}", rigidity_matrix(fw).matrix
            yield f"{key}-unified-{n}", unified_rigidity_matrix(fw).matrix
            tree = fw.with_graph(spanning_tree(n, fw.graph.kind, rng, 0.6))
            yield f"{key}-sparse-{n}", rigidity_matrix(tree).matrix
            line = random_framework(GeneratorSpec(space=space, n=n, seed=n,
                                                  placement="collinear"))
            yield f"{key}-collinear-{n}", rigidity_matrix(
                line.with_graph(complete_graph(line.graph))).matrix
    fw = hetero_case_study(seed=1)
    yield "mixed-case-study", unified_rigidity_matrix(fw).matrix
    for rows, cols, rank in ((40, 12, 5), (300, 60, 59), (61, 60, 30)):
        A = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        yield f"random-{rows}x{cols}-rank-{rank}", A


def test_qr_reduced_rank_matches_the_direct_svd():
    tested = 0
    for name, M in rank_deficient_matrices():
        if M.shape[0] <= M.shape[1]:
            continue
        tested += 1
        rank, N = rank_and_nullspace(M, POL)
        ref_rank, ref_N, s = direct_rank_and_nullspace(M)
        assert rank == ref_rank < M.shape[1], name
        assert subspace_relation(N, ref_N, POL) == "equal", name
        s_qr = np.linalg.svd(np.linalg.qr(M, mode="r"), compute_uv=False)
        np.testing.assert_allclose(s_qr, s, rtol=0, atol=1e-13 * s[0], err_msg=name)
    assert tested >= 70


# The FD probe and the trivial generators take their per-space layout from
# the one selection the assembler uses. The references below are the
# per-kind branches that selection replaced.

def reference_apply_variation(fw, representation, delta, h):
    """Raw (positions, rotations) after moving the state by h * delta, one
    branch per space kind."""
    n = fw.n
    P = fw.positions().copy()
    R = fw.rotations()
    if representation == "unified":
        dp = delta[:3 * n].reshape(n, 3)
        dw = delta[3 * n:].reshape(n, 3)
        P += h * dp
        R = [rotation_exp(h * (fw.space_of(a + 1).rotation_input() @ dw[a])) @ R[a]
             for a in range(n)]
        return P, R
    sp = fw.space
    if sp.kind == "rd":
        P[:, :sp.d] += h * delta.reshape(n, sp.d)
        return P, R
    if sp.kind == "rdxs1":
        d = sp.d
        P[:, :d] += h * delta[:d * n].reshape(n, d)
        da = delta[d * n:]
        ax = np.array(sp.axis)
        R = [rotation_exp(h * da[a] * ax) @ R[a] for a in range(n)]
        return P, R
    dp = delta[:3 * n].reshape(n, 3)
    dw = delta[3 * n:].reshape(n, 3)
    P += h * dp
    R = [rotation_exp(h * dw[a]) @ R[a] for a in range(n)]
    return P, R


def reference_bearing_rows(fw, representation, stack):
    if representation == "per_space" and fw.space.kind != "se3" and fw.space.d == 2:
        return stack[:, :2].reshape(-1)
    return stack.reshape(-1)


def reference_fd_error(fw, representation, trials=20, seed=0):
    """max_rel_error of the FD probe with the per-kind state update, one
    rotation_exp call per agent. The probe runs at unit formation scale, so
    compare it against this reference on engine._unit_scale(fw)."""
    h = POL.fd_step
    B = (rigidity_matrix(fw) if representation == "per_space"
         else unified_rigidity_matrix(fw)).matrix
    edges0 = [(i - 1, j - 1) for i, j in fw.graph.edges]
    b0 = reference_bearing_rows(
        fw, representation, bearing_stack_raw(edges0, fw.positions(), fw.rotations()))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        delta = rng.standard_normal(B.shape[1])
        if representation == "unified" and engine._uses_planar_projector(fw):
            delta[2:3 * fw.n:3] = 0.0
        delta /= np.linalg.norm(delta)
        P2, R2 = reference_apply_variation(fw, representation, delta, h)
        b1 = reference_bearing_rows(fw, representation,
                                    bearing_stack_raw(edges0, P2, R2))
        Bd = B @ delta
        err = np.linalg.norm(Bd - (b1 - b0) / h) / max(1.0, np.linalg.norm(Bd))
        worst = max(worst, float(err))
    return worst


def reference_trivial_generators(fw):
    """(generators, labels) of trivial_variation_basis, one branch per kind."""
    sp = fw.space
    n = fw.n
    P = fw.positions()
    P -= P.mean(axis=0)
    d = 3 if sp.kind == "se3" else sp.d
    axis_names = ("translation_x", "translation_y", "translation_z")
    gens, labels = [], []
    if sp.kind == "rd":
        for hh in range(d):
            e = np.zeros(d)
            e[hh] = 1.0
            gens.append(np.tile(e, n))
            labels.append(axis_names[hh])
        gens.append(P[:, :d].reshape(-1))
        labels.append("scaling")
    elif sp.kind == "rdxs1":
        zeros_a = np.zeros(n)
        for hh in range(d):
            e = np.zeros(d)
            e[hh] = 1.0
            gens.append(np.concatenate([np.tile(e, n), zeros_a]))
            labels.append(axis_names[hh])
        gens.append(np.concatenate([P[:, :d].reshape(-1), zeros_a]))
        labels.append("scaling")
        ax = np.array(sp.axis)
        swing = np.array([(skew(ax) @ P[a])[:d] for a in range(n)]).reshape(-1)
        gens.append(np.concatenate([swing, np.ones(n)]))
        labels.append(engine._axis_label(ax))
    else:
        zeros_r = np.zeros(3 * n)
        for hh in range(3):
            e = np.zeros(3)
            e[hh] = 1.0
            gens.append(np.concatenate([np.tile(e, n), zeros_r]))
            labels.append(axis_names[hh])
        gens.append(np.concatenate([P.reshape(-1), zeros_r]))
        labels.append("scaling")
        gens += reference_unified_candidates(fw)[0][4:]
        labels += ["coord_rotation_x", "coord_rotation_y", "coord_rotation_z"]
    return np.column_stack(gens), tuple(labels)


def reference_unified_candidates(fw):
    """Labeled trivial candidates of the mixed-team decomposition, in
    unified coordinates about the centroid. In the rotation about e, agent
    a turns by V_a^T e, V_a its rotation-input matrix."""
    n = fw.n
    P = fw.positions()
    P -= P.mean(axis=0)
    zeros_r = np.zeros(3 * n)
    gens, labels = [], []
    for hh, name in enumerate(("translation_x", "translation_y", "translation_z")):
        e = np.zeros(3)
        e[hh] = 1.0
        gens.append(np.concatenate([np.tile(e, n), zeros_r]))
        labels.append(name)
    gens.append(np.concatenate([P.reshape(-1), zeros_r]))
    labels.append("scaling")
    for hh, name in enumerate(("coord_rotation_x", "coord_rotation_y",
                               "coord_rotation_z")):
        e = np.zeros(3)
        e[hh] = 1.0
        swing = np.array([skew(e) @ P[a] for a in range(n)]).reshape(-1)
        turn = np.concatenate([fw.space_of(a + 1).rotation_input().T @ e
                               for a in range(n)])
        gens.append(np.concatenate([swing, turn]))
        labels.append(name)
    return gens, labels


def reference_hetero_trivial(fw):
    """(labels, generators) of the trivial part of a mixed team, matched
    against reference_unified_candidates at unit scale."""
    unit = engine._unit_scale(fw)
    B = unified_rigidity_matrix(unit).matrix
    _, N = rank_and_nullspace(B, POL)
    trimmed = N.copy()
    trimmed[[j for j in range(B.shape[1]) if not B[:, j].any()], :] = 0.0
    Qt = orthonormal_columns(trimmed, POL)
    matched, labels = [], []
    for g, name in zip(*reference_unified_candidates(unit)):
        if np.linalg.norm(g - Qt @ (Qt.T @ g)) / np.linalg.norm(g) < POL.subspace_tol:
            matched.append(g)
            labels.append(name)
    Qm = orthonormal_columns(np.column_stack(matched), POL)
    sv = np.linalg.svd(Qt - Qm @ (Qm.T @ Qt), compute_uv=False)
    labels += ["unlabeled"] * int(np.sum(sv > POL.subspace_tol))
    lift = np.ones((B.shape[1], 1))
    lift[:3 * fw.n] = engine._rms_radius(fw)
    return tuple(labels), lift * np.column_stack(matched)


REFERENCE_SPACES = {**SPACES,
                    "r3s1d": MetricSpace.rd_s1(3, axis=(1 / 3, 2 / 3, 2 / 3))}
REFERENCE_CASES = ([pytest.param(key, False, id=key) for key in REFERENCE_SPACES]
                   + [pytest.param(key, True, id=f"{key}-in-plane")
                      for key in ("r3", "r3s1z", "r3s1x", "r3s1d", "se3")])


def reference_frameworks(key, planar_3d):
    space = REFERENCE_SPACES[key]
    rng = np.random.default_rng(sum(map(ord, key)) + 5 * planar_3d)
    for n, scale in ((3, 1.0), (5, 1e-3), (8, 1e3)):
        fw = placed_framework(space, n, rng, planar_3d)
        fw = dataclasses.replace(fw, states=tuple(
            dataclasses.replace(st, p=scale * st.p) for st in fw.states))
        yield fw
        yield fw.with_graph(spanning_tree(n, fw.graph.kind, rng, 0.4))


@pytest.mark.parametrize("key,planar_3d", REFERENCE_CASES)
def test_trivial_generators_match_the_per_kind_branches(key, planar_3d):
    for fw in reference_frameworks(key, planar_3d):
        ref, ref_labels = reference_trivial_generators(fw)
        tb = trivial_variation_basis(fw, POL)
        assert tb.labels == ref_labels
        scale = max(1.0, np.abs(ref).max())
        np.testing.assert_allclose(tb.generators, ref, rtol=0, atol=1e-15 * scale)
        P = fw.positions()
        P -= P.mean(axis=0)
        V = np.array([fw.space_of(a + 1).rotation_input() for a in range(fw.n)])
        G, labels = engine._trivial_generators(
            P, [(e, V[:, c]) for c, e in enumerate(np.eye(3))])
        gens, names = reference_unified_candidates(fw)
        assert labels == names
        np.testing.assert_allclose(G, np.column_stack(gens), rtol=0,
                                   atol=1e-15 * scale)


@pytest.mark.parametrize("key,planar_3d", REFERENCE_CASES)
def test_fd_probe_matches_the_per_kind_update(key, planar_3d):
    for fw in reference_frameworks(key, planar_3d):
        for rep in ("per_space", "unified"):
            got = engine.fd_jacobian_check(fw, POL, representation=rep).max_rel_error
            ref = reference_fd_error(engine._unit_scale(fw), rep)
            assert got == pytest.approx(ref, rel=1e-12, abs=0)


def test_mixed_fd_probe_and_labels_match_the_references():
    rng = np.random.default_rng(23)
    for n in (4, 6, 9):
        for g in (SensingGraph(n, complete_edges(n, "directed"), "directed"),
                  spanning_tree(n, "directed", rng, 0.3)):
            fw = mixed_framework(n, rng, g)
            got = engine.fd_jacobian_check(fw, POL).max_rel_error
            ref = reference_fd_error(engine._unit_scale(fw), "unified")
            assert got == pytest.approx(ref, rel=1e-12, abs=0)
    # full-pose agents with x-axis heading agents share a coordinated
    # rotation about x; the heading agents turn in their rotation column 2,
    # not column 0, which the candidate takes from their rotation input
    spaces = tuple(SPACES["se3"] if a % 2 else SPACES["r3s1x"] for a in range(5))
    states = tuple(AgentState(p=rng.standard_normal(3), R=random_rotation(rng)) if a % 2
                   else AgentState(p=rng.standard_normal(3), alpha=0.1 * a)
                   for a in range(5))
    x_team = Framework(SensingGraph(5, complete_edges(5, "directed"), "directed"),
                       spaces, states)
    assert reference_hetero_trivial(x_team)[0][-1] == "coord_rotation_x"
    for fw in [hetero_case_study(seed=seed) for seed in range(3)] + [x_team]:
        got = engine.fd_jacobian_check(fw, POL).max_rel_error
        ref = reference_fd_error(engine._unit_scale(fw), "unified")
        assert got == pytest.approx(ref, rel=1e-12, abs=0)
        hk = engine.hetero_kernel_analysis(fw, POL)
        labels, gens = reference_hetero_trivial(fw)
        assert hk.trivial.labels == labels
        matched = len(labels) - labels.count("unlabeled")
        np.testing.assert_allclose(hk.trivial.generators[:, :matched], gens,
                                   rtol=0, atol=1e-15 * max(1.0, np.abs(gens).max()))
        assert hk.verdict == ibr_verdict(fw, POL)
        zero = np.flatnonzero(~unified_rigidity_matrix(fw).matrix.any(axis=0))
        assert hk.zero_columns == tuple(zero.tolist())
        np.testing.assert_array_equal(hk.virtual.basis, np.eye(6 * fw.n)[:, zero])


# Rank decisions take the factor rows C of the verdict matrix B: per edge
# W^T [-P(u)/l | P(u)/l | skew(u) V_i], W an orthonormal basis of the
# complement of the world bearing u (the in-plane normal for planar
# frameworks). C^T C = B^T B, so the measured matrix B is the reference.

def scaled(fw, factor):
    return dataclasses.replace(fw, states=tuple(
        dataclasses.replace(st, p=factor * st.p) for st in fw.states))


def factor_rows(fw, representation):
    return engine._assemble(fw, *engine._layout(fw, representation), factor=True)


def measured_rows(fw, representation):
    return (rigidity_matrix(fw) if representation == "per_space"
            else unified_rigidity_matrix(fw)).matrix


def padded_singular_values(M, size):
    s = np.linalg.svd(M, compute_uv=False)
    return np.concatenate([s, np.zeros(size - len(s))])


def assert_factor_matches(fw, representation):
    B = measured_rows(fw, representation)
    C = factor_rows(fw, representation)
    per_edge = 1 if engine._uses_planar_projector(fw) else 2
    assert C.shape == (per_edge * fw.m, B.shape[1])
    size = B.shape[1]
    sB, sC = padded_singular_values(B, size), padded_singular_values(C, size)
    assert np.abs(sC - sB).max() <= 1e-12 * sB[0]
    np.testing.assert_array_equal(C.any(axis=0), B.any(axis=0))
    # decisions are made at unit scale, as the verdict makes them
    unit = engine._unit_scale(fw)
    B, C = measured_rows(unit, representation), factor_rows(unit, representation)
    rank_b, N_b = rank_and_nullspace(B, POL)
    rank_c, N_c = rank_and_nullspace(C, POL, shape=B.shape)
    assert rank_c == rank_b
    assert N_c.shape == N_b.shape
    assert subspace_relation(N_c, N_b, POL) == "equal"


FACTOR_SCALES = (1e-10, 1e-5, 1.0, 1e5, 1e10)


@pytest.mark.parametrize("key,planar_3d", REFERENCE_CASES)
def test_factor_rows_match_the_measured_rows(key, planar_3d):
    space = REFERENCE_SPACES[key]
    frameworks = list(reference_frameworks(key, planar_3d))
    if not planar_3d:
        for n in (3, 6):
            line = random_framework(GeneratorSpec(space=space, n=n, seed=n,
                                                  graph_density=0.6,
                                                  placement="collinear"))
            frameworks += [line, line.with_graph(complete_graph(line.graph))]
    for fw in frameworks:
        for factor in FACTOR_SCALES:
            moved = scaled(engine._unit_scale(fw), factor)
            for rep in ("per_space", "unified"):
                assert_factor_matches(moved, rep)
            C, shape = engine._verdict_factor(moved)
            np.testing.assert_array_equal(C, factor_rows(moved, "per_space"))
            assert shape == measured_rows(moved, "per_space").shape


def test_mixed_factor_rows_match_the_measured_rows():
    rng = np.random.default_rng(29)
    frameworks = [hetero_case_study(seed=seed) for seed in range(3)]
    for n in (4, 7):
        for g in (SensingGraph(n, complete_edges(n, "directed"), "directed"),
                  spanning_tree(n, "directed", rng, 0.3)):
            frameworks.append(mixed_framework(n, rng, g))
    for fw in frameworks:
        for factor in FACTOR_SCALES:
            moved = scaled(fw, factor)
            assert_factor_matches(moved, "unified")
            C, shape = engine._verdict_factor(moved)
            np.testing.assert_array_equal(C, factor_rows(moved, "unified"))
            assert shape == measured_rows(moved, "unified").shape


def reference_augmentation(fw):
    """Edges augment_to_ibr adds when every rank is taken on the measured
    verdict matrix (the loop before factor rows)."""
    unit = engine._unit_scale(fw)
    Nk = complete_graph_kernel(unit, POL)
    current, added = unit, []
    while True:
        rank_g, Ng = rank_and_nullspace(engine._matrix_for_verdict(current).matrix, POL)
        if subspace_relation(Nk, Ng, POL) == "equal":
            return tuple(added)
        best_edge, best_rank = None, rank_g
        for e in complete_edges(fw.n, fw.graph.kind):
            if e in current.graph.edges:
                continue
            trial = current.with_graph(
                SensingGraph(fw.n, current.graph.edges + (e,), fw.graph.kind))
            r, _ = rank_and_nullspace(engine._matrix_for_verdict(trial).matrix, POL)
            if r > best_rank:
                best_edge, best_rank = e, r
        assert best_edge is not None
        current = current.with_graph(
            SensingGraph(fw.n, current.graph.edges + (best_edge,), fw.graph.kind))
        added.append(best_edge)


def augmentation_inputs():
    """Flexible inputs of every space, mixed teams included."""
    rng = np.random.default_rng(37)
    inputs = []
    for key, n in (("r2", 8), ("r3", 7), ("r2s1", 6), ("r3s1z", 6), ("r3s1x", 6),
                   ("r3s1d", 6), ("se3", 5)):
        fw = placed_framework(REFERENCE_SPACES[key], n, rng)
        for extra in (0.0, 0.2):
            inputs.append(fw.with_graph(spanning_tree(n, fw.graph.kind, rng, extra)))
    for n in (5, 6):
        inputs.append(mixed_framework(n, rng, spanning_tree(n, "directed", rng, 0.1)))
    case = hetero_case_study(seed=1)
    inputs.append(case.with_graph(spanning_tree(4, "directed", rng)))
    return inputs


AUGMENTATION_SCALES = (1e-9, 1.0, 1e9)


def test_augmentation_on_the_factor_matches_the_measured_loop():
    inputs = augmentation_inputs()
    added_any = 0
    for fw in inputs:
        ref = reference_augmentation(fw)
        for factor in AUGMENTATION_SCALES:
            assert augment_to_ibr(scaled(fw, factor), POL)[1] == ref
        added_any += bool(ref)
    assert added_any == len(inputs)


def reference_rebuild_augmentation(fw):
    """Edges augment_to_ibr adds when every candidate is a new framework
    whose verdict factor is assembled from scratch (the loop before row
    selection). Ranks go through engine's rank_and_nullspace binding, which
    decomposed_inputs records."""
    unit = engine._unit_scale(fw)
    Nk = complete_graph_kernel(unit, POL)
    current, added = unit, []
    while True:
        C, shape = engine._verdict_factor(current)
        rank_g, Ng = engine.rank_and_nullspace(C, POL, shape=shape)
        if subspace_relation(Nk, Ng, POL) == "equal":
            return tuple(added)
        best_edge, best_rank = None, rank_g
        for e in complete_edges(fw.n, fw.graph.kind):
            if e in current.graph.edges:
                continue
            trial = current.with_graph(
                SensingGraph(fw.n, current.graph.edges + (e,), fw.graph.kind))
            C, shape = engine._verdict_factor(trial)
            r, _ = engine.rank_and_nullspace(C, POL, shape=shape)
            if r > best_rank:
                best_edge, best_rank = e, r
        assert best_edge is not None
        current = current.with_graph(
            SensingGraph(fw.n, current.graph.edges + (best_edge,), fw.graph.kind))
        added.append(best_edge)


def test_augmentation_by_row_selection_matches_the_rebuild_loop():
    for fw in augmentation_inputs():
        for factor in AUGMENTATION_SCALES:
            moved = scaled(fw, factor)
            assert augment_to_ibr(moved, POL)[1] == reference_rebuild_augmentation(moved)


def decomposed_inputs(monkeypatch, call):
    """Every (matrix, threshold shape) that call hands to rank_and_nullspace."""
    seen = []

    def recorded(M, pol=None, *, shape=None):
        seen.append((np.array(M), shape))
        return rank_and_nullspace(M, pol, shape=shape)

    with monkeypatch.context() as m:
        m.setattr(engine, "rank_and_nullspace", recorded)
        m.setattr(scenarios, "rank_and_nullspace", recorded)
        call()
    return seen


def without_confirmations(seq, fw, added):
    """The reference's decompositions seq without the one it makes of each
    round's new graph, after checking that it repeats that round's winning
    candidate entry for entry, with the same threshold shape."""
    pool = complete_edges(fw.n, fw.graph.kind)
    have = set(fw.graph.edges)
    rounds = []  # (candidate count, position of the winner among them)
    for e in added:
        candidates = [f for f in pool if f not in have]
        rounds.append((len(candidates), candidates.index(e)))
        have.add(e)
    # before round 0: the complete graph (when it was decomposed), the input
    start = len(seq) - sum(count + 1 for count, _ in rounds)
    assert start in (1, 2)
    kept = seq[:start]
    for count, win in rounds:
        block = seq[start:start + count]
        M, shape = seq[start + count]
        assert shape == block[win][1]
        np.testing.assert_array_equal(M, block[win][0])
        kept += block
        start += count + 1
    return kept


def test_selected_rows_equal_the_rebuilt_factors(monkeypatch):
    # same complete kernel, same start, then per round every candidate: the
    # selected rows are the rebuilt _verdict_factor(trial) entry for entry,
    # with the same threshold shape; augmentation keeps the winner's kernel
    # where the reference decomposes the new graph again
    for fw in augmentation_inputs():
        for factor in (1.0, 1e9):
            moved = scaled(fw, factor)
            got = decomposed_inputs(monkeypatch, lambda: augment_to_ibr(moved, POL))
            added = []
            want = decomposed_inputs(
                monkeypatch, lambda: added.extend(reference_rebuild_augmentation(moved)))
            want = without_confirmations(want, moved, added)
            assert len(got) == len(want) > moved.n
            for (M, shape), (M_ref, shape_ref) in zip(got, want):
                assert shape == shape_ref
                np.testing.assert_array_equal(M, M_ref)


class CallCounter:
    """Counts calls of one function through every listed owner that holds
    it (modules import functions by name, so each binding is patched)."""

    def __init__(self, monkeypatch, name, *owners):
        self.calls = 0
        original = getattr(owners[0], name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        for owner in owners:
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, counted)

    def take(self):
        calls, self.calls = self.calls, 0
        return calls


def test_augmentation_validates_a_bounded_number_of_frameworks(monkeypatch):
    frameworks = CallCounter(monkeypatch, "__post_init__", Framework)
    graphs = CallCounter(monkeypatch, "__post_init__", SensingGraph)
    rng = np.random.default_rng(41)
    fw = placed_framework(SPACES["r2"], 10, rng)
    tree = fw.with_graph(spanning_tree(10, "undirected", rng))
    mixed = mixed_framework(6, rng, spanning_tree(6, "directed", rng))
    for flexible in (tree, mixed):
        frameworks.take(), graphs.take()
        out, added = augment_to_ibr(flexible, POL)
        # a unit-scale copy, its complete graph and the result, however
        # many candidates were ranked
        assert len(added) >= 3
        assert frameworks.take() <= 3
        assert graphs.take() <= 3
        assert ibr_verdict(out, POL).classification == "IBR"


def test_one_degeneracy_test_per_report_and_augmentation(monkeypatch):
    tests = CallCounter(monkeypatch, "is_non_degenerate",
                        spaces, engine, scenarios, formats)
    rng = np.random.default_rng(43)
    fw = placed_framework(SPACES["r3s1z"], 6, rng)
    analysis_report(fw, POL)
    assert tests.take() == 1
    augment_to_ibr(fw.with_graph(spanning_tree(6, "directed", rng)), POL)
    assert tests.take() == 1
    # the public kernel and basis each test once too
    for public in (complete_graph_kernel, trivial_variation_basis):
        public(fw, POL)
        assert tests.take() == 1


def test_kernel_equality_is_one_containment_test(monkeypatch):
    # containment plus equal dimension: one test per decision, and
    # augmentation adds one on its final kernel
    tests = CallCounter(monkeypatch, "subspace_contains", linalg, engine)
    rng = np.random.default_rng(47)
    fw = placed_framework(SPACES["r3s1z"], 6, rng)
    mixed = mixed_framework(5, rng, complete_graph(
        SensingGraph(5, ((1, 2),), "directed")))
    for rigid in (fw, mixed):
        analysis_report(rigid, POL)
        assert tests.take() == 1
        assert augment_to_ibr(rigid, POL)[1] == ()
        assert tests.take() == 1
    for flexible in (fw.with_graph(spanning_tree(6, "directed", rng)),
                     mixed.with_graph(spanning_tree(5, "directed", rng))):
        analysis_report(flexible, POL)
        assert tests.take() == 1
        assert augment_to_ibr(flexible, POL)[1]
        assert tests.take() == 2


def test_containment_tolerance_just_below_one_decides_as_the_default():
    near_one = TolerancePolicy(subspace_tol=0.999)
    star = scenarios.fixture("star-r2")
    assert ibr_verdict(star, near_one).classification == "IBF"
    assert augment_to_ibr(star, near_one)[1] == augment_to_ibr(star, POL)[1]


def one_vector_rotation_exp(w):
    """The Rodrigues step for a single vector, before rotation_exp took
    stacks."""
    theta = float(np.linalg.norm(w))
    K = skew(w)
    if theta < 1e-8:
        a, b = 1.0, 0.5
    else:
        a = np.sin(theta) / theta
        b = 2.0 * (np.sin(theta / 2.0) / theta) ** 2
    return np.eye(3) + a * K + b * (K @ K)


def test_stacked_rotation_exp_matches_one_call_per_vector():
    rng = np.random.default_rng(31)
    axes = rng.standard_normal((4, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    W = np.concatenate([
        np.zeros((1, 3)), [[0.0, 0.0, 3.9e-159]], [[1e-9, -2e-9, 0.0]],
        [[0.0, 0.0, np.pi]], np.pi * axes, (np.pi - 1e-9) * axes,
        (np.pi + 1e-9) * axes,
        rng.standard_normal((12, 3)) * np.logspace(-12, 1, 12)[:, None]])
    R = rotation_exp(W)
    assert R.shape == (len(W), 3, 3)
    for w, Rw in zip(W, R):
        np.testing.assert_array_equal(Rw, rotation_exp(w))
        np.testing.assert_allclose(Rw, one_vector_rotation_exp(w), rtol=0, atol=1e-15)
        np.testing.assert_allclose(Rw.T @ Rw, np.eye(3), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(R[0], np.eye(3))
    np.testing.assert_array_equal(rotation_exp(W.reshape(2, -1, 3)),
                                  R.reshape(2, -1, 3, 3))
    np.testing.assert_array_equal(skew(W), [skew(w) for w in W])
