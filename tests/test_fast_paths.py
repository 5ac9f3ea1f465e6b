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
"""
import numpy as np
import pytest

from bearing_rigidity import (AgentState, CoincidentAgentsError, Framework,
                              GeneratorSpec, MetricSpace, SensingGraph,
                              TolerancePolicy, analysis_report,
                              complete_edges, complete_graph,
                              complete_graph_kernel, hetero_case_study,
                              ibr_verdict, random_framework,
                              random_rotation, rank_and_nullspace,
                              rigidity_matrix, subspace_relation,
                              trivial_variation_basis, unified_rigidity_matrix)
from bearing_rigidity import engine, orient, orthogonal_projector, skew
from bearing_rigidity.spaces import bearing_stack_raw, measurement_edges

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
    calls = []
    original = engine.ibr_verdict

    def counted(fw, pol=None):
        calls.append(fw)
        return original(fw, pol)

    monkeypatch.setattr(engine, "ibr_verdict", counted)
    report = analysis_report(hetero_case_study(seed=0), POL)
    assert len(calls) == 1
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
    for i, j in measurement_edges(fw):
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
