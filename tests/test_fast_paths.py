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
  SVD (the values-only linalg._rank leaves that reduction to LAPACK); the
  reference decomposes the matrix itself.
* The FD probe and the trivial generators lift every representation into
  unified coordinates through the assembler's column selection; the
  references are the per-kind state updates and generator branches.
* Mixed-team decompositions classify their own kernel; the reference is
  ibr_verdict.
* Every rank decision (verdicts, complete-graph kernels, mixed-team
  decompositions, augmentation) decomposes the factor rows of the verdict
  matrix; the reference decomposes the measured matrix itself.
* The FD probe moves a chunk of trials at once (engine._moved_bearings):
  one stacked rotation_exp for every agent of every trial in the chunk and
  one bearing evaluation, chunks holding at most engine._TRIAL_BYTES of
  bearings; the reference moves one trial at a time and calls rotation_exp
  once per vector. Its trials share the base state's coincidence
  threshold; the reference calls bearing_stack_raw, which takes the radius
  of every state it is given.
* The assembler hands its fresh array to RigidityMatrix without a copy;
  outside arrays are still copied.
* Augmentation assembles the complete graph's factor once and ranks each
  candidate on a row selection of it; the reference rebuilds the framework
  and assembles its factor for every candidate.
* Augmentation ranks candidates from singular values alone (linalg._rank)
  and decomposes only the final graph; the reference is rank_and_nullspace
  on every candidate and every round's new graph.
* Augmentation ranks each round's candidates in stacked _rank calls of at
  most scenarios._STACK_BYTES each, so a few LAPACK calls score a round and
  the memory peak stays below a constant; the reference is one _rank call
  per matrix.
* Augmentation never ranks again a candidate whose rank gain was 0 in an
  earlier round (rank is submodular, so its gain stays 0); the reference
  ranks every candidate in every round.
* The verdict and augmentation test degeneracy once and then build the
  trivial basis unchecked; the public trivial_variation_basis still checks.
* A mixed team's kernel split is built only for its readers (the report and
  hetero_kernel_analysis), and the decision record keeps no matrix, so a
  report's memory peak stays below the FD probe's matrix plus the factor.
* A Framework keeps read-only stacks of its positions, rotations (the
  heading agents' from one stacked rotation_axis_angle) and rotation
  inputs; the references build each agent's rotation and rotation input
  alone.
* A Framework keeps its RMS radius and, cached, its positions at unit
  formation scale with their radius (Framework._unit), divided without
  building or validating any state; the reference (oracles.unit_scale)
  rebuilds every state and the framework through dataclasses.replace.
* Non-degenerate homogeneous verdicts and augmentation's final graph prove
  the complete kernel lies in the factor's kernel from singular values and
  one product (engine._residual_bound), without a kernel basis; the
  reference decomposes the factor with its kernel (rank_and_nullspace) and
  takes the residual.
* A mixed team's verdict finds the complete-graph kernel inside its own
  kernel N, from the product of the complete factor with N
  (engine._complete_kernel_in); the reference decomposes the complete
  factor (engine._complete_kernel) and takes the residual.
"""
import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from bearing_rigidity import (AgentState, CoincidentAgentsError, ColumnBlock,
                              Framework, GeneratorSpec, MetricSpace,
                              NumericalError, RigidityMatrix, SensingGraph,
                              TolerancePolicy, ValidationError,
                              analysis_report, augment_to_ibr,
                              complete_edges, complete_graph,
                              complete_graph_kernel, hetero_case_study,
                              ibr_verdict, random_framework,
                              random_rotation, rank_and_nullspace,
                              rigidity_matrix, trivial_variation_basis,
                              unified_rigidity_matrix)
from bearing_rigidity import (engine, formats, linalg,
                              orthonormal_columns, rotation_exp, scenarios,
                              skew, spaces)
from bearing_rigidity.spaces import bearing_stack_raw
from oracles import (case_study_partition, orient, orthogonal_projector,
                     subspace_relation, unit_scale)

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
    def no_complete_graph(n, kind):
        raise AssertionError("complete graph built")

    monkeypatch.setattr(engine, "complete_edges", no_complete_graph)
    rng = np.random.default_rng(3)
    assert ibr_verdict(placed_framework(SPACES["se3"], 6, rng), POL).classification == "IBR"
    collinear = random_framework(GeneratorSpec(space=SPACES["r2"], n=4, seed=1,
                                               placement="collinear"))
    with pytest.raises(AssertionError, match="complete graph built"):
        ibr_verdict(collinear, POL)
    with pytest.raises(AssertionError, match="complete graph built"):
        ibr_verdict(hetero_case_study(seed=0), POL)


def test_complete_graph_kernel_keeps_the_decided_dimension_at_any_scale():
    # the choice and the decomposition are made at unit scale and only the
    # basis is lifted, so a degenerate line or a mixed team keeps its kernel
    # dimension where a caller-scale threshold would drift
    cases = [random_framework(GeneratorSpec(space=SPACES[key], n=5, seed=1,
                                            placement="collinear"))
             for key in ("r2s1", "r3s1z", "se3")]
    cases += [hetero_case_study(0), placed_framework(SPACES["se3"], 5,
                                                     np.random.default_rng(2))]
    for fw in cases:
        dim = engine._decide(fw, POL).Nk.shape[1]
        for factor in (1e-9, 1e-5, 1.0, 1e5, 1e9):
            moved = scaled(fw, factor)
            K = complete_graph_kernel(moved, POL)
            assert K.shape[1] == dim
            np.testing.assert_allclose(K.T @ K, np.eye(dim), rtol=0, atol=1e-12)
            B = engine._measured(moved.with_graph(complete_graph(moved.graph)), "auto").matrix
            assert np.linalg.norm(B @ K) / np.linalg.norm(B) < 1e-6


def test_mixed_report_computes_one_verdict(monkeypatch):
    # counts work, not calls of one function: the report decomposes the
    # factor rows of its own unit-scale matrix once, with its kernel, and
    # finds the complete kernel inside that kernel from its product with the
    # complete graph's factor; it assembles those two factors plus the FD
    # probe's unified matrix, which the probe takes from the assembler
    # without the public builder
    counts = {"rank_and_nullspace": 0, "_rank": 0, "_assemble": 0,
              "unified_rigidity_matrix": 0}
    decomposed = []
    for name in counts:
        def counted(*args, _name=name, _original=getattr(engine, name), **kwargs):
            counts[_name] += 1
            if _name in ("rank_and_nullspace", "_rank"):
                decomposed.append((args[0].shape, kwargs["shape"]))
            return _original(*args, **kwargs)
        monkeypatch.setattr(engine, name, counted)
    report = analysis_report(hetero_case_study(seed=0), POL)
    assert counts == {"rank_and_nullspace": 0, "_rank": 1, "_assemble": 3,
                      "unified_rigidity_matrix": 0}
    # 12 edges: 2 factor rows each, 3 measured rows each
    assert decomposed == [((24, 24), (36, 24))]
    assert report["verdict"]["rank"] == 13


def test_only_the_readers_of_the_split_build_it(monkeypatch):
    calls = []

    def counted(*args, _original=engine._hetero_split, **kwargs):
        calls.append(1)
        return _original(*args, **kwargs)

    monkeypatch.setattr(engine, "_hetero_split", counted)
    fw = hetero_case_study(seed=0)
    flexible = case_study_partition(fw)[0]
    counts = {}
    for name, call in (("augment", lambda: augment_to_ibr(flexible, POL)),
                       ("verdict", lambda: ibr_verdict(fw, POL)),
                       ("report", lambda: analysis_report(fw, POL))):
        calls.clear()
        call()
        counts[name] = len(calls)
    assert counts == {"augment": 0, "verdict": 0, "report": 1}


def test_report_peaks_below_the_probe_matrix_plus_the_verdict_factor():
    # the decision keeps results only, so a report holding it across the FD
    # probe peaks below the probe's measured matrix plus the verdict's factor
    fw = random_framework(GeneratorSpec(MetricSpace.rd(2), n=80,
                                        graph_density=0.3, seed=0))
    bound = (rigidity_matrix(fw).matrix.nbytes
             + engine._verdict_factor(fw, fw.graph.edges)[0].nbytes)
    tracemalloc.start()
    try:
        analysis_report(fw, POL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


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


def test_stacked_bearings_match_one_call_per_state():
    rng = np.random.default_rng(13)
    n, k = 7, 5
    edges = [(i, j) for i in range(n) for j in range(n)
             if i != j and rng.random() < 0.6]
    P = rng.standard_normal((k, n, 3))
    shared = np.array([random_rotation(rng) for _ in range(n)])
    own = np.array([[random_rotation(rng) for _ in range(n)] for _ in range(k)])
    for R in (shared, own):
        stacked = spaces._bearings(edges, P, R, 1e-12)
        assert stacked.shape == (k, len(edges), 3)
        for t in range(k):
            np.testing.assert_array_equal(
                stacked[t], spaces._bearings(edges, P[t], R if R is shared else R[t],
                                             1e-12))


def test_stacked_bearings_name_the_first_coincidence_of_the_first_state():
    # state 2 meets a coincidence at its second edge, state 3 at its first:
    # the loop over states stops at state 2
    rng = np.random.default_rng(14)
    P = np.repeat(rng.standard_normal((1, 6, 3)), 4, axis=0)
    P[2, 5] = P[2, 4]
    P[3, 2] = P[3, 0]
    R = np.array([np.eye(3)] * 6)
    edges = [(0, 2), (5, 4), (2, 0), (1, 3), (4, 5)]
    with pytest.raises(CoincidentAgentsError) as slow:
        for state in P:
            spaces._bearings(edges, state, R, 1e-12)
    with pytest.raises(CoincidentAgentsError) as fast:
        spaces._bearings(edges, P, R, 1e-12)
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
    compare it against this reference on unit_scale(fw)."""
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
    unit = unit_scale(fw)
    B = unified_rigidity_matrix(unit).matrix
    K = unified_rigidity_matrix(unit.with_graph(complete_graph(unit.graph))).matrix
    _, N = rank_and_nullspace(B, POL)
    trimmed = N.copy()
    trimmed[[j for j in range(K.shape[1]) if not K[:, j].any()], :] = 0.0
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
    lift[:3 * fw.n] = spaces._rms_radius(fw.positions())
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
            ref = reference_fd_error(unit_scale(fw), rep)
            assert got == pytest.approx(ref, rel=1e-12, abs=0)


def test_mixed_fd_probe_and_labels_match_the_references():
    rng = np.random.default_rng(23)
    for n in (4, 6, 9):
        for g in (SensingGraph(n, complete_edges(n, "directed"), "directed"),
                  spanning_tree(n, "directed", rng, 0.3)):
            fw = mixed_framework(n, rng, g)
            got = engine.fd_jacobian_check(fw, POL).max_rel_error
            ref = reference_fd_error(unit_scale(fw), "unified")
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
        ref = reference_fd_error(unit_scale(fw), "unified")
        assert got == pytest.approx(ref, rel=1e-12, abs=0)
        hk = engine.hetero_kernel_analysis(fw, POL)
        labels, gens = reference_hetero_trivial(fw)
        assert hk.trivial.labels == labels
        matched = len(labels) - labels.count("unlabeled")
        np.testing.assert_allclose(hk.trivial.generators[:, :matched], gens,
                                   rtol=0, atol=1e-15 * max(1.0, np.abs(gens).max()))
        assert hk.verdict == ibr_verdict(fw, POL)
        # structurally zero: no row of the complete graph touches them
        complete = unified_rigidity_matrix(fw.with_graph(complete_graph(fw.graph)))
        zero = np.flatnonzero(~complete.matrix.any(axis=0))
        assert hk.zero_columns == tuple(zero.tolist())
        np.testing.assert_array_equal(hk.virtual.basis, np.eye(6 * fw.n)[:, zero])


def test_fd_probe_takes_the_coincidence_radius_once(monkeypatch):
    # every trial reuses the base state's coincidence threshold, so the
    # radius calls do not grow with the trial count; each count takes a
    # fresh framework, as a second probe would reuse the cached radius
    radii = CallCounter(monkeypatch, "_rms_radius", spaces)
    counts = []
    for trials in (1, 20):
        fw = hetero_case_study(seed=0)
        radii.take()
        engine.fd_jacobian_check(fw, POL, trials=trials)
        counts.append(radii.take())
    assert counts[0] == counts[1]


def test_a_report_measures_the_radius_once(monkeypatch):
    # the framework measured its radius when it was built; the report's
    # decision divides the positions to unit scale and measures their
    # radius, which the probe reuses; the mixed-team split lifts its bases
    # by the framework's radius
    rng = np.random.default_rng(73)
    frameworks = (scaled(placed_framework(SPACES["se3"], 6, rng), 1e3),
                  scaled(hetero_case_study(seed=0), 1e-3))
    radii = CallCounter(monkeypatch, "_scaled_radius", spaces)
    for fw in frameworks:
        analysis_report(fw, POL)
        assert radii.take() == 1


def test_fd_probe_evaluates_bearings_once_per_chunk(monkeypatch):
    # one call for the base state and one per chunk of trials, however
    # many trials a chunk holds
    fw = hetero_case_study(seed=0)
    bearings = CallCounter(monkeypatch, "_bearings", spaces, engine)
    three_trials = 3 * fw.m * 3 * 8
    for budget, trials, chunks in ((engine._TRIAL_BYTES, 1, 1),
                                   (engine._TRIAL_BYTES, 20, 1),
                                   (three_trials, 20, 7), (1, 20, 20)):
        monkeypatch.setattr(engine, "_TRIAL_BYTES", budget)
        engine.fd_jacobian_check(fw, POL, trials=trials)
        assert bearings.take() == 1 + chunks


@pytest.mark.parametrize("key,planar_3d", REFERENCE_CASES)
def test_fd_probe_in_chunks_of_one_trial_is_bit_identical(monkeypatch, key, planar_3d):
    def errors():
        return [engine.fd_jacobian_check(fw, POL, representation=rep).max_rel_error
                for fw in reference_frameworks(key, planar_3d)
                for rep in ("per_space", "unified")]

    whole = errors()
    monkeypatch.setattr(engine, "_TRIAL_BYTES", 1)
    assert errors() == whole


def probe_peak(fw, trials):
    tracemalloc.start()
    try:
        engine.fd_jacobian_check(fw, POL, trials=trials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fd_probe_trial_stacks_stay_within_the_budget(monkeypatch):
    # a chunk holds a few arrays the size of its (trials, m, 3) bearing
    # stack (the rotations gathered per edge are three of them), so beyond
    # the directions, drawn at once, 100 trials peak within a few budgets
    # of one trial; one stack of all the trials breaks that bound
    fw = random_framework(GeneratorSpec(MetricSpace.se3(), n=40,
                                        graph_density=0.3, seed=0))
    limit = 100 * 6 * fw.n * 8 + 8 * engine._TRIAL_BYTES

    def growth():
        return probe_peak(fw, 100) - probe_peak(fw, 1)

    assert growth() < limit
    monkeypatch.setattr(engine, "_TRIAL_BYTES", 1 << 60)
    assert growth() > 4 * limit


# Rank decisions take the factor rows C of the verdict matrix B: per edge
# W^T [-P(u)/l | P(u)/l | skew(u) V_i], W an orthonormal basis of the
# complement of the world bearing u (the in-plane normal for planar
# frameworks). C^T C = B^T B, so the measured matrix B is the reference.

def scaled(fw, factor):
    return dataclasses.replace(fw, states=tuple(
        dataclasses.replace(st, p=factor * st.p) for st in fw.states))


def factor_rows(fw, representation, P=None):
    """Factor rows of fw's matrix at positions P, fw's own by default."""
    _, d, rot_cols = engine._layout(fw, representation)
    P = fw._positions if P is None else P
    return engine._assemble(fw, P, fw.graph.edges, d, rot_cols, factor=True)


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
    unit = unit_scale(fw)
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
            moved = scaled(unit_scale(fw), factor)
            for rep in ("per_space", "unified"):
                assert_factor_matches(moved, rep)
            C, shape = engine._verdict_factor(moved, moved.graph.edges)
            np.testing.assert_array_equal(
                C, factor_rows(moved, "per_space", moved._unit[0]))
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
            C, shape = engine._verdict_factor(moved, moved.graph.edges)
            np.testing.assert_array_equal(C, factor_rows(moved, "unified", moved._unit[0]))
            assert shape == measured_rows(moved, "unified").shape


def reference_augmentation(fw):
    """Edges augment_to_ibr adds when every rank is taken on the measured
    verdict matrix (the loop before factor rows)."""
    unit = unit_scale(fw)
    Nk = complete_graph_kernel(unit, POL)
    current, added = unit, []
    while True:
        rank_g, Ng = rank_and_nullspace(engine._measured(current, "auto").matrix, POL)
        if subspace_relation(Nk, Ng, POL) == "equal":
            return tuple(added)
        best_edge, best_rank = None, rank_g
        for e in complete_edges(fw.n, fw.graph.kind):
            if e in current.graph.edges:
                continue
            trial = current.with_graph(
                SensingGraph(fw.n, current.graph.edges + (e,), fw.graph.kind))
            r, _ = rank_and_nullspace(engine._measured(trial, "auto").matrix, POL)
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


def reference_rebuild_augmentation(fw, lazy=False, gains=None):
    """Edges augment_to_ibr adds when every candidate is a new framework
    whose verdict factor is assembled from scratch (the loop before row
    selection). Ranks go through engine's rank_and_nullspace binding, which
    decomposed_inputs records. Every candidate is ranked in every round;
    lazy drops the candidates seen at rank gain 0, as augment_to_ibr does.
    gains, when given, receives each round's {candidate: rank gain}."""
    unit = unit_scale(fw)
    Nk = complete_graph_kernel(unit, POL)
    current, added, dead = unit, [], set()
    while True:
        C, shape = engine._verdict_factor(current, current.graph.edges)
        rank_g, Ng = engine.rank_and_nullspace(C, POL, shape=shape)
        if subspace_relation(Nk, Ng, POL) == "equal":
            return tuple(added)
        best_edge, best_rank, gain = None, rank_g, {}
        for e in complete_edges(fw.n, fw.graph.kind):
            if e in current.graph.edges or e in dead:
                continue
            trial = current.with_graph(
                SensingGraph(fw.n, current.graph.edges + (e,), fw.graph.kind))
            C, shape = engine._verdict_factor(trial, trial.graph.edges)
            r, _ = engine.rank_and_nullspace(C, POL, shape=shape)
            gain[e] = r - rank_g
            if r > best_rank:
                best_edge, best_rank = e, r
        assert best_edge is not None
        if lazy:
            dead.update(e for e, g in gain.items() if g == 0)
        if gains is not None:
            gains.append(gain)
        current = current.with_graph(
            SensingGraph(fw.n, current.graph.edges + (best_edge,), fw.graph.kind))
        added.append(best_edge)


def test_augmentation_by_row_selection_matches_the_rebuild_loop():
    for fw in augmentation_inputs():
        for factor in AUGMENTATION_SCALES:
            moved = scaled(fw, factor)
            assert augment_to_ibr(moved, POL)[1] == reference_rebuild_augmentation(moved)


def test_a_candidate_without_gain_never_gains_later():
    # rank over a set of rows is submodular: adding edges never raises
    # another edge's gain, so an edge that raised nothing in one round
    # raises nothing in any later one, and augmentation may drop it
    inputs, pruned = augmentation_inputs(), 0
    for fw in inputs:
        for factor in AUGMENTATION_SCALES:
            gains, dead = [], set()
            reference_rebuild_augmentation(scaled(fw, factor), gains=gains)
            for gain in gains:
                assert all(gain[e] == 0 for e in dead)
                dead.update(e for e, g in gain.items() if g == 0)
            pruned += bool(dead)
    assert pruned == len(AUGMENTATION_SCALES) * len(inputs)


def test_pruning_ranks_fewer_candidates_in_every_space(monkeypatch):
    # without pruning a round ranks every edge not yet chosen; with it no
    # input ranks more, and some input of every space ranks fewer
    ranked = []

    def counted(M, pol=None, **kwargs):
        ranked.append(len(M))
        return linalg._rank(M, pol, **kwargs)

    monkeypatch.setattr(scenarios, "_rank", counted)
    spaces_seen, fewer = set(), set()
    for fw in augmentation_inputs():
        ranked.clear()
        added = augment_to_ibr(fw, POL)[1]
        total, have = len(complete_edges(fw.n, fw.graph.kind)), len(fw.graph.edges)
        eager = sum(total - chosen for chosen in range(have, have + len(added)))
        key = fw.space if fw.is_homogeneous else "mixed"
        spaces_seen.add(key)
        assert sum(ranked) <= eager
        if sum(ranked) < eager:
            fewer.add(key)
    assert fewer == spaces_seen and len(spaces_seen) == len(REFERENCE_SPACES) + 1


def decomposed_inputs(monkeypatch, call):
    """Every (matrix, threshold shape) that call decomposes one at a time, in
    order, through engine's rank_and_nullspace or its _rank (the containment
    certificate, or a mixed team's kernel), and every one it ranks on
    augmentation's candidate path, which takes stacks only: each matrix of a
    stack is recorded with the stack's shape."""
    seen, ranked = [], []

    def recorded(M, pol=None, *, shape=None):
        seen.append((np.array(M), shape))
        return rank_and_nullspace(M, pol, shape=shape)

    def recorded_values(M, pol=None, *, shape=None, kernel=False):
        assert M.ndim == 2
        seen.append((np.array(M), shape))
        return linalg._rank(M, pol, shape=shape, kernel=kernel)

    def recorded_rank(M, pol=None, *, shape=None, kernel=False):
        assert M.ndim == 3 and not kernel
        ranked.extend((np.array(A), shape) for A in M)
        return linalg._rank(M, pol, shape=shape, kernel=kernel)

    with monkeypatch.context() as m:
        m.setattr(engine, "rank_and_nullspace", recorded)
        m.setattr(engine, "_rank", recorded_values)
        m.setattr(scenarios, "_rank", recorded_rank)
        call()
    return seen, ranked


def split_reference(seq, gains, added):
    """The reference's decompositions seq as (head, candidates, new graphs):
    the head is the complete graph (when it was decomposed) and the input;
    then per round come that round's candidates (the keys of its gains)
    and the new graph, which is checked to repeat that round's winning
    candidate entry for entry, with the same threshold shape."""
    # (candidate count, position of the winner among them)
    rounds = [(len(gain), list(gain).index(e)) for gain, e in zip(gains, added)]
    start = len(seq) - sum(count + 1 for count, _ in rounds)
    assert start in (1, 2)
    head, candidates, new_graphs = seq[:start], [], []
    for count, win in rounds:
        block = seq[start:start + count]
        M, shape = seq[start + count]
        assert shape == block[win][1]
        np.testing.assert_array_equal(M, block[win][0])
        candidates += block
        new_graphs.append((M, shape))
        start += count + 1
    return head, candidates, new_graphs


def assert_same_inputs(got, want):
    assert len(got) == len(want)
    for (M, shape), (M_ref, shape_ref) in zip(got, want):
        assert shape == shape_ref
        np.testing.assert_array_equal(M, M_ref)


def test_selected_rows_equal_the_rebuilt_factors(monkeypatch):
    # same complete kernel, same start, then per round every candidate not
    # yet seen at gain 0: each matrix of the stacks the rank-only path ranks
    # is the rebuilt _verdict_factor(trial) entry for entry, in candidate
    # order and with the same threshold shape, whether a round fits one
    # stack or takes one stack per candidate; augmentation then ranks only
    # the final graph (from its singular values, for its containment
    # test), where the reference decomposes every round's new graph; a mixed
    # team's complete kernel is found inside its own (the reference
    # decomposes the complete graph first), so the library decomposes no
    # complete graph
    budgets = ((1.0, scenarios._STACK_BYTES), (1e9, 1))
    for fw in augmentation_inputs():
        for factor, budget in budgets:
            monkeypatch.setattr(scenarios, "_STACK_BYTES", budget)
            moved = scaled(fw, factor)
            got, ranked = decomposed_inputs(monkeypatch, lambda: augment_to_ibr(moved, POL))
            added, gains = [], []
            want, none = decomposed_inputs(monkeypatch, lambda: added.extend(
                reference_rebuild_augmentation(moved, lazy=True, gains=gains)))
            head, candidates, new_graphs = split_reference(want, gains, added)
            assert none == [] and len(candidates) > moved.n
            assert_same_inputs(ranked, candidates)
            assert_same_inputs(got, head[-1:] + new_graphs[-1:])


RANK_SCALES = (1e-9, 1.0, 1e9)


def test_stacked_ranks_match_one_call_per_matrix():
    # each matrix of a stack, tall or wide, is thresholded at its own
    # sigma_max: a copy scaled by 2**-40 keeps its rank although its
    # singular values all lie below the others' threshold
    tested = 0
    for name, M in rank_deficient_matrices():
        for factor in RANK_SCALES:
            for A in (factor * M, factor * M.T):
                stack = np.stack([A, 2.0 ** -40 * A, A])
                for shape in (None, (3 * A.shape[0], A.shape[1])):
                    rank, _, s, threshold = linalg._rank(A, POL, shape=shape)
                    ranks, N, S, thresholds = linalg._rank(stack, POL, shape=shape)
                    assert N is None
                    assert ranks.tolist() == [rank] * 3, (name, factor, shape)
                    # each matrix's own singular values and threshold
                    for k in (0, 2):
                        np.testing.assert_array_equal(S[k], s)
                        assert thresholds[k] == threshold
                    tested += 1
    assert tested >= 70 * len(RANK_SCALES) * 4
    ranks, N, S, thresholds = linalg._rank(np.zeros((0, 4, 3)), POL)
    assert ranks.shape == thresholds.shape == (0,) and S.shape == (0, 0)
    with pytest.raises(ValidationError, match="ndim 3"):
        linalg._rank(np.zeros((2, 4, 3)), POL, kernel=True)


def test_rank_only_path_matches_rank_and_nullspace():
    # same rank; the singular values are the full SVD's to rounding, and
    # the threshold is rtol * sigma_max at the given shape, which the
    # values counted in the rank exceed and the others do not
    tested = 0
    for name, M in rank_deficient_matrices():
        for factor in RANK_SCALES:
            A = factor * M
            stand_in = (3 * A.shape[0], A.shape[1])
            for shape in (None, stand_in):
                rank, N, s, threshold = linalg._rank(A, POL, shape=shape)
                assert N is None
                ref_rank, ref_N, ref_s, ref_threshold = linalg._rank(
                    A, POL, shape=shape, kernel=True)
                assert rank == ref_rank == rank_and_nullspace(A, POL, shape=shape)[0], \
                    (name, factor)
                assert ref_N.shape[1] == A.shape[1] - rank
                assert np.abs(s - ref_s).max() <= 1e-13 * ref_s[0]
                assert threshold == pytest.approx(ref_threshold, rel=1e-13)
                rtol = POL.effective_rank_rtol(A.shape if shape is None else shape)
                assert threshold == rtol * s[0]
                assert np.all(s[:rank] > threshold) and np.all(s[rank:] <= threshold)
                tested += 1
    assert tested >= 70 * len(RANK_SCALES) * 2
    rank, N, s, threshold = linalg._rank(np.zeros((0, 3)), POL, kernel=True)
    assert (rank, s.size, threshold) == (0, 0, 0.0)
    np.testing.assert_array_equal(N, np.eye(3))


def stacked_calls(fw, gains):
    """The stacked _rank calls augmentation makes on fw, given the lazy
    reference's gains: per round, its candidates split into stacks whose
    matrices hold at most scenarios._STACK_BYTES (at least one matrix per
    stack)."""
    edges = complete_edges(fw.n, fw.graph.kind)
    block_bytes = engine._verdict_factor(fw, edges)[0].nbytes // len(edges)
    calls = 0
    for have, gain in enumerate(gains, start=len(fw.graph.edges)):
        per_stack = max(1, scenarios._STACK_BYTES // ((have + 1) * block_bytes))
        calls += -(-len(gain) // per_stack)
    return calls


def test_augmentation_decomposes_once_beyond_the_decision(monkeypatch):
    # the candidates are ranked without rank_and_nullspace, in one stacked
    # call per round when the round fits the budget and in one per stack
    # otherwise; beyond the verdict's own work, the final graph's
    # containment test is one values-only SVD and no kernel
    inputs = augmentation_inputs()
    rounds = []
    for fw in inputs:
        rounds.append([])
        reference_rebuild_augmentation(fw, lazy=True, gains=rounds[-1])
    full = CallCounter(monkeypatch, "rank_and_nullspace", linalg, engine, spaces)
    values = CallCounter(monkeypatch, "_rank", engine)
    ranked = CallCounter(monkeypatch, "_rank", scenarios)
    default = scenarios._STACK_BYTES
    for budget in (default, 4096):
        monkeypatch.setattr(scenarios, "_STACK_BYTES", budget)
        split = 0
        for fw, gains in zip(inputs, rounds):
            engine._decide(fw, POL)
            decided, certified = full.take(), values.take()
            assert ranked.take() == 0
            # one _rank call decides: values only for a homogeneous
            # framework, with the kernel for a mixed team, whose split reads
            # it and whose complete kernel is found inside it
            assert certified == 1
            added = augment_to_ibr(fw, POL)[1]
            assert added and len(added) == len(gains)
            assert full.take() == decided
            assert values.take() == certified + 1
            calls = ranked.take()
            assert calls == stacked_calls(fw, gains) >= len(added)
            split += calls > len(added)
        assert split == (0 if budget == default else len(inputs))


AUGMENTATION_PEAK_BYTES = 1_250_000


def augmentation_peak(fw):
    tracemalloc.start()
    try:
        augment_to_ibr(fw, POL)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_augmentation_peaks_below_a_constant(monkeypatch):
    # the stacks of one round hold at most _STACK_BYTES of candidates, so
    # the peak stays flat as the formation grows; one stack of all the
    # candidates grows as n^4 and breaks the bound on the larger tree
    rng = np.random.default_rng(59)
    trees = []
    for key, n in (("se3", 10), ("r3s1z", 16)):
        fw = placed_framework(SPACES[key], n, rng)
        trees.append(fw.with_graph(spanning_tree(n, fw.graph.kind, rng)))
    for tree in trees:
        assert augmentation_peak(tree) < AUGMENTATION_PEAK_BYTES
    monkeypatch.setattr(scenarios, "_STACK_BYTES", 1 << 60)
    assert augmentation_peak(trees[-1]) > 4 * AUGMENTATION_PEAK_BYTES


def test_final_rank_must_be_the_chosen_one(monkeypatch):
    # a final containment test whose rank disagrees with the ranked
    # candidates is a numerical error, not a silently different kernel
    flexible = scenarios.fixture("star-r2")

    def one_short_on_more_edges(C, shape, Nk, pol, kernel=False,
                                _original=engine._contained_rank):
        rank, N = _original(C, shape, Nk, pol, kernel)
        # the verdict's own test keeps its rank; the augmented graph's loses one
        return (rank - 1 if shape[0] > 2 * flexible.m else rank), N

    monkeypatch.setattr(engine, "_contained_rank", one_short_on_more_edges)
    with pytest.raises(NumericalError, match="rank"):
        augment_to_ibr(flexible, POL)


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
        # a unit-scale copy and the result, however many candidates were
        # ranked: the complete graph is an edge list, not a framework
        assert len(added) >= 3
        assert frameworks.take() <= 2
        assert graphs.take() <= 1
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


def test_homogeneous_report_makes_three_svds(monkeypatch):
    # the degeneracy test, the trivial basis and the verdict factor, whose
    # SVD computes singular values only: the containment test takes them
    # and one product, with no kernel basis, for rigid and flexible alike
    calls = []

    def recorded(*args, _original=np.linalg.svd, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return _original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    rng = np.random.default_rng(53)
    for key in ("r2", "r3s1z", "se3"):
        fw = placed_framework(SPACES[key], 6, rng)
        for sub in (fw, fw.with_graph(spanning_tree(6, fw.graph.kind, rng, 0.3))):
            report = analysis_report(sub, POL)
            assert calls == [True, True, False], report["verdict"]
            calls.clear()


def test_kernel_equality_is_one_containment_test(monkeypatch):
    # containment plus equal dimension: one containment test per
    # homogeneous decision, and augmentation adds one on its final graph,
    # each passed by the certificate without the residual; a mixed team's
    # decision finds the complete kernel inside its own kernel, which
    # proves the containment with no test at all
    tests = CallCounter(monkeypatch, "_contained_rank", engine)
    residuals = CallCounter(monkeypatch, "_residual", linalg, engine)
    rng = np.random.default_rng(47)
    fw = placed_framework(SPACES["r3s1z"], 6, rng)
    mixed = mixed_framework(5, rng, complete_graph(
        SensingGraph(5, ((1, 2),), "directed")))
    for rigid in (fw, mixed):
        analysis_report(rigid, POL)
        assert (tests.take(), residuals.take()) == (rigid.is_homogeneous, 0)
        assert augment_to_ibr(rigid, POL)[1] == ()
        assert (tests.take(), residuals.take()) == (rigid.is_homogeneous, 0)
    for flexible in (fw.with_graph(spanning_tree(6, "directed", rng)),
                     mixed.with_graph(spanning_tree(5, "directed", rng))):
        analysis_report(flexible, POL)
        assert (tests.take(), residuals.take()) == (flexible.is_homogeneous, 0)
        assert augment_to_ibr(flexible, POL)[1]
        assert (tests.take(), residuals.take()) == (1 + flexible.is_homogeneous, 0)


def test_containment_tolerance_just_below_one_decides_as_the_default():
    near_one = TolerancePolicy(subspace_tol=0.999)
    star = scenarios.fixture("star-r2")
    assert ibr_verdict(star, near_one).classification == "IBF"
    assert augment_to_ibr(star, near_one)[1] == augment_to_ibr(star, POL)[1]


# A non-degenerate homogeneous verdict certifies that the complete kernel Nk
# lies in its factor's kernel from the factor's singular values and one
# product C Nk (engine._residual_bound); the slow reference decomposes the
# factor with its kernel and takes the residual.

JITTERS = (1e-12, 1e-11, 1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 1e-6, 1e-5)


def exact_decision(fw):
    """(classification, rank, nullity) of fw from the decomposition of its
    unit-scale factor and the residual test, or NumericalError where that
    residual is not below subspace_tol."""
    Nk = engine._complete_kernel(fw, POL)[0]
    C, shape = engine._verdict_factor(fw, fw.graph.edges)
    rank, N = rank_and_nullspace(C, POL, shape=shape)
    if not linalg._residual(N, Nk) < POL.subspace_tol:
        return NumericalError
    return ("IBR" if N.shape[1] == Nk.shape[1] else "IBF"), rank, N.shape[1]


def fast_decision(fw):
    try:
        v = ibr_verdict(fw, POL)
    except NumericalError:
        return NumericalError
    return v.classification, v.rank, v.nullity


def jittered_line(space, jitter):
    """The complete graph on six agents of a generated line, each agent's y
    moved by jitter * default_rng(0).standard_normal() in agent order."""
    line = random_framework(GeneratorSpec(space=space, n=6, seed=3,
                                          placement="collinear"))
    rng = np.random.default_rng(0)
    states = []
    for st in line.states:
        p = st.p.copy()
        p[1] += jitter * rng.standard_normal()
        states.append(dataclasses.replace(st, p=p))
    return dataclasses.replace(line, graph=complete_graph(line.graph), states=tuple(states))


def certificate_inputs(key):
    """Generic frameworks of one space on their complete graph, a spanning
    tree and a tree with 30% of the other edges (and no edges at all, a
    zero factor), then the exact line and jittered lines."""
    space = REFERENCE_SPACES[key]
    rng = np.random.default_rng(sum(map(ord, key)) + 61)
    for n in (4, 7, 10):
        fw = placed_framework(space, n, rng)
        for g in (fw.graph, spanning_tree(n, fw.graph.kind, rng),
                  spanning_tree(n, fw.graph.kind, rng, 0.3)):
            yield fw.with_graph(g)
    yield fw.with_graph(SensingGraph(n, (), fw.graph.kind))
    for jitter in (0.0, *JITTERS):
        yield jittered_line(space, jitter)


@pytest.mark.parametrize("key", list(REFERENCE_SPACES))
def test_certified_containment_decides_as_the_residual(key):
    # rank, nullity, class and the raised error all match the decomposed
    # reference; both outcomes of each kind occur
    outcomes = set()
    for fw in certificate_inputs(key):
        for factor in RANK_SCALES:
            moved = scaled(fw, factor)
            want = exact_decision(moved)
            assert fast_decision(moved) == want
            outcomes.add(want if want is NumericalError else want[0])
    assert {"IBR", "IBF"} <= outcomes


def test_collinear_decisions_decompose_no_kernel():
    # only a mixed team's split reads the factor's kernel, so a degenerate
    # homogeneous verdict is certified from singular values like any other
    for space in SPACES.values():
        for density in (0.5, 1.0):
            line = random_framework(GeneratorSpec(space=space, n=6, seed=1,
                                                  graph_density=density,
                                                  placement="collinear"))
            decision = engine._decide(line, POL)
            assert decision.verdict.degenerate
            assert decision.N is None and decision.zero_columns is None


def test_the_jittered_line_that_fails_the_residual_still_raises():
    # at a jitter of 1e-8 the decomposed residual misses subspace_tol
    # by rounding of the kernel (its singular values straddle the
    # threshold), and ||C Nk|| / s_r alone would pass; the rounding terms
    # make the bound miss, so the residual decides and raises
    fw = jittered_line(SPACES["r2"], 1e-8)
    assert exact_decision(fw) is NumericalError
    Nk = engine._complete_kernel(fw, POL)[0]
    C, shape = engine._verdict_factor(fw, fw.graph.edges)
    rank, _, s, threshold = linalg._rank(C, POL, shape=shape)
    assert np.linalg.norm(C @ Nk) < POL.subspace_tol * s[rank - 1]
    assert not engine._residual_bound(C, Nk, rank, s, threshold) < POL.subspace_tol
    with pytest.raises(NumericalError, match="not contained"):
        ibr_verdict(fw, POL)


def tilted(Nk, v, eps):
    """Nk with its first column turned by eps toward v, orthonormalized."""
    T = Nk.copy()
    T[:, 0] += eps * v
    return np.linalg.qr(T)[0]


def test_the_residual_bound_holds_wherever_it_is_finite():
    # on every input, and on complete kernels tilted toward the right
    # singular vector of s_r (where ||C Nk|| / s_r is the residual itself),
    # the computed residual never exceeds the bound
    finite = tight = 0
    for key in REFERENCE_SPACES:
        for fw in certificate_inputs(key):
            Nk = engine._complete_kernel(fw, POL)[0]
            C, shape = engine._verdict_factor(fw, fw.graph.edges)
            rank, _, s, threshold = linalg._rank(C, POL, shape=shape)
            _, N = rank_and_nullspace(C, POL, shape=shape)
            if not rank:  # no edges: the kernel is everything
                assert engine._residual_bound(C, Nk, rank, s, threshold) == 0.0
                assert linalg._residual(N, Nk) == 0.0
                continue
            v = np.linalg.svd(C)[2][rank - 1]
            # a singular value within rounding of the threshold gives none
            near = [s[rank - 1] * (1 - 1e-15)]
            if rank < s.size:
                near.append(s[rank] * (1 + 1e-15))
            for t in near:
                assert engine._residual_bound(C, Nk, rank, s, t) == np.inf
            for eps in (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
                K = tilted(Nk, v, eps)
                bound = engine._residual_bound(C, K, rank, s, threshold)
                if bound == np.inf:
                    continue
                residual = linalg._residual(N, K)
                assert residual <= bound, (key, eps)
                finite += 1
                tight += eps > 0 and residual > 0.5 * bound
    assert finite > 500 and tight > 100


def test_a_missed_bound_falls_back_to_the_residual(monkeypatch):
    # a kernel tilted 4 * subspace_tol toward the singular vector of s_r
    # misses the bound and the residual raises; a bound taken at sigma_max
    # would pass it, since s_r lies below sigma_max / 10 here
    rng = np.random.default_rng(67)
    fw = placed_framework(SPACES["se3"], 8, rng)
    fw = fw.with_graph(spanning_tree(8, "directed", rng, 0.5))
    C, shape = engine._verdict_factor(fw, fw.graph.edges)
    rank, _, s, _ = linalg._rank(C, POL, shape=shape)
    assert s[0] > 10 * s[rank - 1]
    v = np.linalg.svd(C)[2][rank - 1]

    def tilted_kernel(fw, pol, _original=engine._complete_kernel):
        Nk, trivial, degenerate = _original(fw, pol)
        return tilted(Nk, v, 4 * pol.subspace_tol), trivial, degenerate

    residuals = CallCounter(monkeypatch, "_residual", linalg, engine)
    want = fast_decision(fw)
    assert residuals.take() == 0
    with monkeypatch.context() as m:
        m.setattr(engine, "_complete_kernel", tilted_kernel)
        with pytest.raises(NumericalError, match="not contained"):
            ibr_verdict(fw, POL)
        assert residuals.take() == 1
    # with no bound at all every containment test takes the residual, and
    # decides as before
    monkeypatch.setattr(engine, "_residual_bound", lambda *args: np.inf)
    assert fast_decision(fw) == want
    assert residuals.take() == 1


# A mixed team's complete-graph kernel is found inside its own kernel N as N
# times the kernel of C_K N (engine._complete_kernel_in), with a certificate
# that it has the dimension and passes the containment test that
# decomposing the complete factor C_K gives; the reference is that
# decomposition (engine._complete_kernel) and the containment test, which
# the decision also falls back to.

def generated_mixed_teams():
    """Generated mixed teams of two to five space families, n = 4 to 30,
    densities 0.2 to 1."""
    rng = np.random.default_rng(71)
    keys = list(SPACES)
    for t, n in enumerate((4, 4, 5, 6, 7, 8, 10, 12, 15, 20, 25, 30)):
        families = rng.choice(keys, size=2 + t % 4, replace=False)
        kinds = list(families) + list(rng.choice(families, size=n - len(families)))
        spaces = tuple(SPACES[k] for k in rng.permutation(kinds))
        density = (0.2, 0.45, 0.7, 1.0)[t % 4]
        yield random_framework(GeneratorSpec(space=spaces, n=n, graph_density=density,
                                             seed=t))


def test_the_certified_complete_kernel_decides_as_the_decomposed_one(monkeypatch):
    # same dimension and span as the complete factor's kernel, the same
    # verdict, kernel N and zero columns, and a forced certificate miss
    # falls back to the decomposition with the same verdict; rigid and
    # flexible teams are all certified
    certified, classes = [], set()

    def recorded(*args, _original=engine._complete_kernel_in):
        Nk = _original(*args)
        certified.append(Nk is not None)
        return Nk

    monkeypatch.setattr(engine, "_complete_kernel_in", recorded)
    for fw in generated_mixed_teams():
        for factor in RANK_SCALES:
            moved = scaled(fw, factor)
            fast = engine._decide(moved, POL)
            with monkeypatch.context() as m:
                m.setattr(engine, "_complete_kernel_in", lambda *args: None)
                slow = engine._decide(moved, POL)
            Nk = engine._complete_kernel(moved, POL)[0]
            assert fast.Nk.shape == slow.Nk.shape == Nk.shape
            assert subspace_relation(fast.Nk, Nk, POL) == "equal"
            np.testing.assert_allclose(fast.Nk.T @ fast.Nk, np.eye(Nk.shape[1]),
                                       rtol=0, atol=1e-12)
            assert fast.verdict == slow.verdict
            np.testing.assert_array_equal(fast.N, slow.N)
            np.testing.assert_array_equal(fast.zero_columns, slow.zero_columns)
            classes.add(fast.verdict.classification)
    assert classes == {"IBR", "IBF"}
    assert all(certified) and len(certified) == 3 * len(list(generated_mixed_teams()))


def test_a_certified_mixed_report_decomposes_no_complete_graph(monkeypatch):
    # neither the complete factor nor anything of its shape is decomposed,
    # for a rigid team and for a flexible one
    shapes = []
    for name in ("svd", "qr"):
        def recorded(a, *args, _original=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    complete = CallCounter(monkeypatch, "_complete_kernel", engine)
    rng = np.random.default_rng(73)
    classes = set()
    for n, extra in ((12, 0.6), (9, 0.1)):
        fw = mixed_framework(n, rng, spanning_tree(n, "directed", rng, extra))
        classes.add(analysis_report(fw, POL)["verdict"]["classification"])
        assert complete.take() == 0
        assert shapes and (2 * len(complete_edges(n, "directed")), 6 * n) not in shapes
        shapes.clear()
    assert classes == {"IBR", "IBF"}


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


def one_axis_rotation(axis, angle):
    """The Rodrigues form for one unit axis, before rotation_axis_angle took
    stacks."""
    K = skew(np.asarray(axis, dtype=float))
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def reference_rotation(fw, i):
    """World-from-body rotation of agent i, one agent at a time (what
    Framework.rotation_of computed before the framework kept a stack)."""
    s, st = fw.space_of(i), fw.states[i - 1]
    if s.kind == "rd":
        return np.eye(3)
    if s.kind == "rdxs1":
        return one_axis_rotation(s.axis, st.alpha)
    return np.asarray(st.R)


def stack_frameworks():
    rng = np.random.default_rng(61)
    for key, space in REFERENCE_SPACES.items():
        for n in (3, 7):
            yield placed_framework(space, n, rng)
    for n in (4, 9):
        yield mixed_framework(n, rng, SensingGraph(n, complete_edges(n, "directed"),
                                                   "directed"))
    yield hetero_case_study(2)


def test_stacked_rotation_axis_angle_matches_one_call_per_axis():
    rng = np.random.default_rng(67)
    axes = rng.standard_normal((20, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    axes[:4] = np.eye(3)[[0, 1, 2, 2]]
    axes[4] = 0.0
    angles = rng.uniform(-10.0, 10.0, 20)
    R = linalg.rotation_axis_angle(axes, angles)
    assert R.shape == (20, 3, 3)
    for a, t, Ra in zip(axes, angles, R):
        np.testing.assert_array_equal(Ra, linalg.rotation_axis_angle(a, float(t)))
        np.testing.assert_array_equal(Ra, np.eye(3) if not a.any()
                                      else one_axis_rotation(a, float(t)))
    with pytest.raises(ValidationError, match="norm 2.000e\\+00"):
        linalg.rotation_axis_angle(np.vstack([axes[:3], 2.0 * axes[5]]), angles[:4])


def test_framework_stacks_match_the_per_agent_rotations_and_inputs():
    for fw in stack_frameworks():
        R, V = fw._rotations, fw._rotation_inputs
        assert R.shape == V.shape == (fw.n, 3, 3)
        for i in range(1, fw.n + 1):
            np.testing.assert_array_equal(R[i - 1], reference_rotation(fw, i))
            np.testing.assert_array_equal(fw.rotation_of(i), reference_rotation(fw, i))
            np.testing.assert_array_equal(V[i - 1], fw.space_of(i).rotation_input())
        np.testing.assert_array_equal(fw.rotations(), R)
        np.testing.assert_array_equal(fw._positions, [st.p for st in fw.states])


def test_framework_stacks_are_read_only_and_positions_a_fresh_copy():
    for fw in stack_frameworks():
        for stack in (fw._positions, fw._rotations, fw._rotation_inputs, fw._unit[0]):
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0] = 1.0
        assert not fw.rotation_of(1).flags.writeable
        P = fw.positions()
        assert P.flags.writeable and not np.shares_memory(P, fw._positions)
        P -= P.mean(axis=0)
        assert not np.array_equal(P, fw._positions)


def test_the_unchecked_unit_copy_equals_the_validated_copy(monkeypatch):
    checks = [CallCounter(monkeypatch, "__post_init__", AgentState),
              CallCounter(monkeypatch, "__post_init__", Framework)]
    rng = np.random.default_rng(71)
    frameworks = [*stack_frameworks(), placed_framework(SPACES["r2"], 5, rng, True)]
    for fw in frameworks:
        for factor in (1e-9, 3.0, 1e9):
            moved = scaled(fw, factor)
            [c.take() for c in checks]
            want = unit_scale(moved)
            assert [c.take() for c in checks] == [fw.n, 1]
            P, radius = moved._unit
            assert [c.take() for c in checks] == [0, 0]
            np.testing.assert_array_equal(P, want._positions)
            assert not P.flags.writeable and moved._unit[0] is P
            # the radius is the one the divided positions give, as the
            # validated copy measured it
            assert radius == want._radius == spaces._rms_radius(P)
            # the validated copy is at unit scale already, so it keeps its
            # own positions, and the probe gives the same on both
            assert want._unit == (want._positions, want._radius)
            assert (engine.fd_jacobian_check(moved, POL)
                    == engine.fd_jacobian_check(want, POL))


def unit_radius_square():
    """The r2 4-cycle on (1, 0), (0, 1), (-1, 0), (0, -1): RMS radius 1."""
    g = SensingGraph(4, ((1, 2), (2, 3), (3, 4), (1, 4)), "undirected")
    return Framework(g, SPACES["r2"], tuple(
        AgentState(p=p) for p in ((1, 0), (0, 1), (-1, 0), (0, -1))))


def test_unit_scale_leaves_no_reference_cycle():
    # a framework already at unit scale keeps its own positions as its unit
    # ones; nothing it caches refers back to it, so dropping it frees it
    # without the cyclic collector, at radius 1 and at any other
    gc.collect()
    gc.disable()
    try:
        for factor in (1.0, 2.0):
            fw = scaled(unit_radius_square(), factor)
            assert (fw._radius == 1.0) == (factor == 1.0)
            assert (fw._unit[0] is fw._positions) == (factor == 1.0)
            del fw
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_report_builds_no_framework_or_state(monkeypatch):
    # the decision and the probe read the input's unit-scale positions:
    # no state or framework is built, checked or left behind
    checks = [CallCounter(monkeypatch, "__post_init__", AgentState),
              CallCounter(monkeypatch, "__post_init__", Framework)]
    rng = np.random.default_rng(79)
    frameworks = [scaled(placed_framework(SPACES["se3"], 6, rng), 1e3),
                  scaled(hetero_case_study(seed=0), 1e-3),
                  scaled(unit_radius_square(), 5.0), unit_radius_square()]

    def live():
        gc.collect()
        objects = gc.get_objects()
        return [sum(isinstance(o, cls) for o in objects) for cls in (AgentState, Framework)]

    before = live()
    [c.take() for c in checks]
    for fw in frameworks:
        analysis_report(fw, POL)
    assert [c.take() for c in checks] == [0, 0]
    assert live() == before
