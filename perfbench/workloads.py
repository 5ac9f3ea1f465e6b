"""The three benchmark workloads: seeded inputs, the timed op, and its checks.

Inputs are made here from the workload seed with the benchmark's own
placement (uniform in a box of side n**(1/dim), pairwise separated), so the
program under test only ever receives finished frameworks or files. Every
op's output is checked outside the timed section against seed-independent
invariants and, at DEFAULT_SEED, against outputs stored in
expected_seed0.json.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from bearing_rigidity import cli, engine, formats, scenarios
from bearing_rigidity.graphs import SensingGraph
from bearing_rigidity.linalg import TolerancePolicy
from bearing_rigidity.spaces import AgentState, Framework, MetricSpace

DEFAULT_SEED = 0
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected_seed0.json")
FD_TRIALS = 20
# FD probe error allowed on the benchmark's placements (step 1e-6, agents at
# least MIN_SEPARATION apart); seen values stay below 1e-6.
FD_MAX_REL_ERROR = 1e-4
MIN_SEPARATION = 0.25
BATCH_FILES = 293
BATCH_SUBDIRS = 30
BATCH_SHUFFLE_SEED = 1902
POL = TolerancePolicy()

SPACES = {
    "r2": lambda: MetricSpace.rd(2),
    "r3": lambda: MetricSpace.rd(3),
    "r2s1": lambda: MetricSpace.rd_s1(2),
    "r3s1": lambda: MetricSpace.rd_s1(3, (0.0, 0.0, 1.0)),
    "se3": lambda: MetricSpace.se3(),
}


# ------------------------------------------------------------------ inputs

@dataclass
class Spec:
    """A generated framework as plain data: what the program is given."""

    name: str
    spaces: list[str]          # one shorthand per agent
    kind: str                  # graph kind
    edges: list[tuple[int, int]]
    positions: np.ndarray      # (n, 3); planar agents have z = 0
    alphas: list[float | None]
    rotations: list[np.ndarray | None]

    @property
    def n(self) -> int:
        return len(self.spaces)

    @property
    def homogeneous(self) -> bool:
        return len(set(self.spaces)) == 1

    def c(self) -> int:
        """Controllable dofs per agent of a homogeneous framework."""
        return {"r2": 2, "r3": 3, "r2s1": 3, "r3s1": 4, "se3": 6}[self.spaces[0]]

    def columns(self) -> int:
        """Column count of the matrix the verdict is computed on."""
        return self.c() * self.n if self.homogeneous else 6 * self.n

    def framework(self) -> Framework:
        sp = [SPACES[s]() for s in self.spaces]
        states = tuple(AgentState(p=self.positions[a], alpha=self.alphas[a],
                                  R=self.rotations[a]) for a in range(self.n))
        return Framework(SensingGraph(self.n, tuple(self.edges), self.kind),
                         sp[0] if self.homogeneous else tuple(sp), states)

    def to_json(self) -> dict:
        """Framework document in the CLI's file schema."""
        def space_doc(s: str) -> dict:
            return {"r2": {"type": "rd", "d": 2}, "r3": {"type": "rd", "d": 3},
                    "r2s1": {"type": "rdxs1", "d": 2},
                    "r3s1": {"type": "rdxs1", "d": 3, "axis": [0.0, 0.0, 1.0]},
                    "se3": {"type": "se3"}}[s]
        agents = []
        for a, s in enumerate(self.spaces):
            p = self.positions[a].tolist()
            entry: dict[str, Any] = {"p": p[:2] if s in ("r2", "r2s1") else p}
            if self.alphas[a] is not None:
                entry["alpha"] = self.alphas[a]
            if self.rotations[a] is not None:
                entry["R"] = self.rotations[a].tolist()
            agents.append(entry)
        space = (space_doc(self.spaces[0]) if self.homogeneous
                 else [space_doc(s) for s in self.spaces])
        return {"space": space, "agents": agents,
                "graph": {"n": self.n, "kind": self.kind,
                          "edges": [list(e) for e in self.edges]}}


def _mixed_spaces(n: int) -> list[str]:
    """Ground r2s1 agents for the first half, then alternating se3 and r3."""
    half = (n + 1) // 2
    return ["r2s1"] * half + ["se3" if k % 2 == 0 else "r3" for k in range(n - half)]


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _positions(spaces: list[str], rng: np.random.Generator) -> np.ndarray:
    """Uniform in a box of side n**(1/dim), each agent at least
    MIN_SEPARATION from the ones before it. Planar agents sit at z = 0."""
    n = len(spaces)
    planar = [s in ("r2", "r2s1") for s in spaces]
    dim = 2 if all(planar) else 3
    side = n ** (1.0 / dim)
    P = np.zeros((n, 3))
    for a in range(n):
        while True:
            p = rng.uniform(0.0, side, 3)
            if planar[a]:
                p[2] = 0.0
            if a == 0 or np.min(np.linalg.norm(P[:a] - p, axis=1)) >= MIN_SEPARATION:
                P[a] = p
                break
    return P


def _pool(n: int, kind: str) -> list[tuple[int, int]]:
    if kind == "directed":
        return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _graph(n: int, kind: str, rng: np.random.Generator, *,
           density: float | None = None, extra: int | None = None,
           extra_share: float | None = None) -> list[tuple[int, int]]:
    """A random spanning tree plus extra edges drawn from the rest.

    Exactly one of: density (total edges = ceil(density * complete), at
    least the tree), extra (a fixed number), extra_share (a share of the
    remaining edges)."""
    order = [int(v) + 1 for v in rng.permutation(n)]
    tree = set()
    for pos in range(1, n):
        a, b = order[pos], order[int(rng.integers(0, pos))]
        if kind == "undirected":
            tree.add((min(a, b), max(a, b)))
        else:
            tree.add((a, b) if rng.random() < 0.5 else (b, a))
    pool = _pool(n, kind)
    rest = [e for e in pool if e not in tree]
    if density is not None:
        k = max(0, math.ceil(density * len(pool)) - len(tree))
    elif extra is not None:
        k = extra
    else:
        k = round(extra_share * len(rest))
    picks = rng.choice(len(rest), size=min(k, len(rest)), replace=False)
    return sorted(tree | {rest[int(t)] for t in picks})


def make_spec(name: str, space: str, n: int, rng: np.random.Generator,
              **graph_args) -> Spec:
    """One framework: space shorthand or "mixed", n agents, graph recipe."""
    spaces = _mixed_spaces(n) if space == "mixed" else [space] * n
    kind = "undirected" if space in ("r2", "r3") else "directed"
    edges = (_pool(n, kind) if graph_args.pop("complete", False)
             else _graph(n, kind, rng, **graph_args))
    P = _positions(spaces, rng)
    alphas = [float(rng.uniform(0.0, 2 * np.pi)) if s in ("r2s1", "r3s1") else None
              for s in spaces]
    rots = [_rotation(rng) if s == "se3" else None for s in spaces]
    return Spec(name, spaces, kind, edges, P, alphas, rots)


def spec_from_framework(name: str, fw: Framework) -> Spec:
    """Plain-data view of a program-built framework (the named fixtures)."""
    def short(s: MetricSpace) -> str:
        if s.kind == "se3":
            return "se3"
        return f"r{s.d}" + ("s1" if s.kind == "rdxs1" else "")
    return Spec(name, [short(fw.space_of(a)) for a in range(1, fw.n + 1)],
                fw.graph.kind, list(fw.graph.edges), fw.positions(),
                [st.alpha for st in fw.states],
                [None if st.R is None else np.asarray(st.R) for st in fw.states])


# ------------------------------------------------------------------ checks

def rd_rank_oracle(spec: Spec) -> int:
    """Rank of a position-only matrix built independently of the program:
    per edge, the directions perpendicular to it, +- in the endpoint
    columns; same threshold convention (1e-10 * max(shape) * sigma_max)."""
    d = 2 if spec.spaces[0] == "r2" else 3
    P = spec.positions[:, :d]
    rows = []
    for i, j in spec.edges:
        diff = P[j - 1] - P[i - 1]
        if d == 2:
            perps = [np.array([diff[1], -diff[0]])]
        else:
            perps = list(np.linalg.svd(diff.reshape(1, 3))[2][1:])
        for v in perps:
            row = np.zeros(d * spec.n)
            row[d * (i - 1):d * i] = -v
            row[d * (j - 1):d * j] = v
            rows.append(row)
    M = np.array(rows)
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > 1e-10 * max(M.shape) * s[0]))


def verdict_problems(spec: Spec, classification: str, rank: int, nullity: int,
                     degenerate: bool) -> list[str]:
    """Seed-independent invariants on one verdict."""
    out = []
    if rank + nullity != spec.columns():
        out.append(f"rank {rank} + nullity {nullity} != columns {spec.columns()}")
    if degenerate:
        out.append("generic placement reported degenerate")
    if spec.homogeneous and not degenerate:
        c = spec.c()
        target = c * spec.n - c - 1
        if (classification == "IBR") != (rank == target):
            out.append(f"{classification} but rank {rank} vs target {target}")
    if spec.homogeneous and spec.spaces[0] in ("r2", "r3"):
        oracle = rd_rank_oracle(spec)
        if rank != oracle:
            out.append(f"rank {rank} != independent oracle {oracle}")
    if classification not in ("IBR", "IBF"):
        out.append(f"unknown classification {classification!r}")
    return out


def _diff(what: str, got: Any, want: Any) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


# --------------------------------------------------------------- workloads

@dataclass
class Op:
    """One timed call. run() returns the raw output; check(output, expected)
    returns a list of problems, empty when the output is correct. expected
    is the stored output at DEFAULT_SEED, or None at other seeds."""

    name: str
    items: int
    run: Callable[[], Any]
    check: Callable[[Any, dict | None], list[str]]


def _analyze_specs(rng: np.random.Generator) -> list[Spec]:
    specs = []
    for n in (20, 40):
        for sp in ("r2", "r3", "r2s1", "r3s1", "se3"):
            specs.append(make_spec(f"{sp}-n{n}-d0.3", sp, n, rng, density=0.3))
    specs.append(make_spec("r2-n80-d0.3", "r2", 80, rng, density=0.3))
    specs.append(make_spec("mixed-n30-d0.3", "mixed", 30, rng, density=0.3))
    for sp in ("r2", "se3"):
        specs.append(make_spec(f"{sp}-n20-tree+8%", sp, 20, rng, extra_share=0.08))
    return specs


def _augment_specs(rng: np.random.Generator) -> list[Spec]:
    """Two already-rigid inputs for the early exit, then three inputs of
    each flexible kind: how many edges the greedy loop adds depends on the
    drawn graph (one more or fewer in 3D), so single inputs would make the
    latency percentiles follow the seed. With 20 ops a pass, the median
    falls inside the r3s1 group and p64 inside the mixed group, not on the
    edge between two groups."""
    specs = [make_spec("r2s1-n10-complete", "r2s1", 10, rng, complete=True),
             make_spec("se3-n10-complete", "se3", 10, rng, complete=True)]
    for copy in "abc":
        for sp, n in (("r2", 12), ("r3", 12), ("r2s1", 10), ("r3s1", 10),
                      ("se3", 10), ("mixed", 10)):
            specs.append(make_spec(f"{sp}-n{n}-tree+3{copy}", sp, n, rng, extra=3))
    return specs


def _batch_specs(rng: np.random.Generator) -> list[Spec]:
    """BATCH_FILES generated files plus the named fixtures. The space cycles
    fastest, then n over 4..12, so every (space, n) pair appears; densities
    follow a golden-ratio sequence over 0.2..0.8, the same for every seed."""
    cycle = ("r2", "r3", "r2s1", "r3s1", "se3", "mixed")
    specs = []
    for k in range(BATCH_FILES):
        sp = cycle[k % len(cycle)]
        n = 4 + (k // len(cycle)) % 9
        density = 0.2 + 0.6 * ((k * 0.6180339887498949) % 1.0)
        specs.append(make_spec(f"f{k:03d}-{sp}-n{n}", sp, n, rng, density=density))
    for name in sorted(scenarios.FIXTURES):
        specs.append(spec_from_framework(name, scenarios.fixture(name)))
    return specs


def _analyze_op(spec: Spec, seed: int) -> Op:
    fw = spec.framework()

    def run():
        return formats.dumps(formats.analysis_report(fw, POL, seed=seed,
                                                     fd_trials=FD_TRIALS))

    def check(text: str, expected: dict | None) -> list[str]:
        doc = json.loads(text)
        v = doc["verdict"]
        probs = verdict_problems(spec, v["classification"], v["rank"], v["nullity"],
                                 v["degenerate"])
        fd = doc["fd_check"]["max_rel_error"]
        if not fd < FD_MAX_REL_ERROR:
            probs.append(f"fd_check.max_rel_error {fd:.3e} >= {FD_MAX_REL_ERROR}")
        if expected is not None:
            probs += _diff("output", analyze_summary(doc), expected)
        return probs

    return Op(spec.name, 1, run, check)


def analyze_summary(doc: dict) -> dict:
    v = doc["verdict"]
    return {"verdict": {k: v[k] for k in ("classification", "rank", "nullity")},
            "subspaces": doc["subspaces"]}


def _augment_op(spec: Spec) -> Op:
    fw = spec.framework()

    def run():
        return scenarios.augment_to_ibr(fw, POL)

    def check(result, expected: dict | None) -> list[str]:
        out_fw, added = result
        added = [tuple(e) for e in added]
        probs = []
        if set(added) & set(spec.edges):
            probs.append("added an edge the input already had")
        probs += _diff("edges", list(out_fw.graph.edges), sorted(spec.edges + added))
        v = engine.ibr_verdict(out_fw, POL)
        if v.classification != "IBR":
            probs.append(f"augmented framework re-checks as {v.classification}")
        probs += verdict_problems(
            dataclasses.replace(spec, edges=list(out_fw.graph.edges)),
            v.classification, v.rank, v.nullity, v.degenerate)
        if expected is not None:
            probs += _diff("output", augment_summary(result), expected)
        return probs

    return Op(spec.name, 1, run, check)


def augment_summary(result) -> dict:
    return {"added": [list(e) for e in result[1]]}


def _batch_op(subdir: str, specs: list[Spec]) -> Op:
    by_file = {f"{s.name}.json": s for s in specs}

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["batch", subdir])
        return code, buf.getvalue()

    def check(result, expected: dict | None) -> list[str]:
        code, text = result
        probs = [] if code == 0 else [f"exit code {code}"]
        rows = batch_rows(text)
        probs += _diff("files", sorted(rows), sorted(by_file))
        for fname, row in sorted(rows.items()):
            spec = by_file.get(fname)
            if spec is None:
                continue
            if row is None:
                probs.append(f"{fname}: ERROR line")
                continue
            cls, rank, nullity, degenerate = row
            probs += [f"{fname}: {p}" for p in
                      verdict_problems(spec, cls, rank, nullity, degenerate)]
        if expected is not None:
            probs += _diff("output", batch_summary(result), expected)
        return probs

    return Op(os.path.basename(subdir), len(specs), run, check)


def batch_summary(result) -> dict:
    return {f: None if r is None else list(r[:3])
            for f, r in sorted(batch_rows(result[1]).items())}


def batch_rows(text: str) -> dict[str, tuple | None]:
    """file -> (class, rank, nullity, degenerate), or None for an ERROR line."""
    rows: dict[str, tuple | None] = {}
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) < 4:
            continue
        if parts[1] == "ERROR":
            rows[parts[0]] = None
        else:
            rows[parts[0]] = (parts[1], int(parts[2]), int(parts[3]),
                              "degenerate" in parts[4:])
    return rows


def build(workload: str, seed: int, workdir: str | None) -> list[Op]:
    """Generate the workload's inputs from the seed and return its ops in
    pass order. batch-mixed writes its files under workdir."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    if workload == "analyze-large":
        ops = [_analyze_op(s, seed) for s in _analyze_specs(rng)]
    elif workload == "augment-sparse":
        ops = [_augment_op(s) for s in _augment_specs(rng)]
    elif workload == "batch-mixed":
        specs = _batch_specs(rng)
        # a fixed shuffle, so every sub-directory mixes spaces and sizes
        order = np.random.default_rng(BATCH_SHUFFLE_SEED).permutation(len(specs))
        size = -(-len(specs) // BATCH_SUBDIRS)
        groups = [[specs[int(k)] for k in order[g * size:(g + 1) * size]]
                  for g in range(BATCH_SUBDIRS)]
        ops = []
        for g, group in enumerate(groups):
            sub = os.path.join(workdir, f"batch{g:02d}")
            os.makedirs(sub)
            for s in group:
                with open(os.path.join(sub, f"{s.name}.json"), "w",
                          encoding="utf-8") as fh:
                    json.dump(s.to_json(), fh)
            ops.append(_batch_op(sub, group))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


SUMMARIES = {"analyze-large": lambda text: analyze_summary(json.loads(text)),
             "augment-sparse": augment_summary, "batch-mixed": batch_summary}


def load_expected(workload: str, seed: int) -> dict | None:
    """Stored per-op outputs of the workload at DEFAULT_SEED; None otherwise."""
    if seed != DEFAULT_SEED:
        return None
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


WORKLOADS = ("analyze-large", "augment-sparse", "batch-mixed")
# The cheapest op of each workload: the untimed warm-up, and the whole
# pass in a smoke run.
SMALLEST = {"analyze-large": "r2-n20-d0.3", "augment-sparse": "r2s1-n10-complete",
            "batch-mixed": "batch00"}
