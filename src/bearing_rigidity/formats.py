"""File formats: framework JSON, matrix CSV with block sidecar, verdict and
analysis-report JSON, and DOT graph export.

All JSON written by this module is serialized with sorted keys and a fixed
indent so identical analyses produce byte-identical documents.
"""
from __future__ import annotations

import json
from typing import Any

import numpy as np

from . import engine
from .errors import ParseError
from .graphs import SensingGraph
from .linalg import TolerancePolicy
from .spaces import AgentState, Framework, MetricSpace

SCHEMA_VERSION = "1"


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------- framework

def space_to_json(s: MetricSpace) -> dict:
    if s.kind == "se3":
        return {"type": "se3"}
    out = {"type": s.kind, "d": s.d}
    if s.kind == "rdxs1" and s.d == 3:
        out["axis"] = list(s.axis)
    return out


def json_int(value: Any, what: str) -> int:
    """A JSON integer. Floats, strings and booleans are rejected rather than
    coerced, so 3.7 never becomes 3 and "12" never becomes a pair."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def json_number(value: Any, what: str) -> float:
    """A JSON number. Strings and booleans are rejected rather than
    coerced, so "0" is never read as a coordinate."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{what} must be a number, got {value!r}")
    return float(value)


def _json_numbers(value: Any, what: str) -> Any:
    """Nested JSON lists of numbers, with their nesting kept."""
    if isinstance(value, list):
        return [_json_numbers(v, what) for v in value]
    return json_number(value, what)


def _json_vector(value: Any, what: str) -> list[float]:
    """A flat JSON list of numbers: a nested list is a parse error, not
    flattened."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list of numbers, got {value!r}")
    return [json_number(v, f"{what} entry") for v in value]


def space_from_json(obj: Any) -> MetricSpace:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError("space must be an object with a 'type' key")
    t = obj["type"]
    if t == "se3":
        return MetricSpace.se3()
    if t == "rd":
        return MetricSpace.rd(json_int(obj.get("d", 3), "space 'd'"))
    if t == "rdxs1":
        d = json_int(obj.get("d", 3), "space 'd'")
        axis = obj.get("axis")
        if axis is not None:
            axis = _json_vector(axis, "space 'axis'")
        return MetricSpace.rd_s1(d, axis)
    raise ParseError(f"unknown space type {t!r}")


def graph_to_json(g: SensingGraph) -> dict:
    return {"n": g.n, "kind": g.kind, "edges": [list(e) for e in g.edges]}


def graph_from_json(obj: Any) -> SensingGraph:
    if not isinstance(obj, dict):
        raise ParseError("graph must be an object")
    try:
        n = json_int(obj["n"], "graph 'n'")
        kind = obj["kind"]
        raw_edges = obj["edges"]
    except KeyError as exc:
        raise ParseError(f"graph object is malformed: missing {exc}") from exc
    if not isinstance(raw_edges, list):
        raise ParseError("graph 'edges' must be a list")
    edges = []
    for e in raw_edges:
        if not isinstance(e, list) or len(e) != 2:
            raise ParseError(f"edge {e!r} is not a pair of vertex numbers")
        edges.append(tuple(json_int(v, "edge endpoint") for v in e))
    return SensingGraph(n, tuple(edges), kind)


def framework_to_json(fw: Framework) -> dict:
    if isinstance(fw.space, tuple):
        space = [space_to_json(s) for s in fw.space]
    else:
        space = space_to_json(fw.space)
    agents = []
    for idx, st in enumerate(fw.states):
        s = fw.space_of(idx + 1)
        entry: dict[str, Any] = {"p": [float(v) for v in st.p]}
        if s.is_planar:
            entry["p"] = entry["p"][:2]
        if st.alpha is not None:
            entry["alpha"] = float(st.alpha)
        if st.R is not None:
            entry["R"] = [[float(v) for v in row] for row in np.asarray(st.R)]
        agents.append(entry)
    return {"space": space, "graph": graph_to_json(fw.graph), "agents": agents}


def framework_from_json(obj: Any) -> Framework:
    if not isinstance(obj, dict):
        raise ParseError("framework document must be a JSON object")
    missing = {"space", "graph", "agents"} - set(obj)
    if missing:
        raise ParseError(f"framework document lacks keys: {sorted(missing)}")
    graph = graph_from_json(obj["graph"])
    raw_space = obj["space"]
    if isinstance(raw_space, list):
        space: MetricSpace | tuple[MetricSpace, ...] = tuple(
            space_from_json(s) for s in raw_space)
    else:
        space = space_from_json(raw_space)
    raw_agents = obj["agents"]
    if not isinstance(raw_agents, list):
        raise ParseError("'agents' must be a list")
    states = []
    for a, entry in enumerate(raw_agents):
        if not isinstance(entry, dict) or "p" not in entry:
            raise ParseError(f"agent {a + 1} needs a position 'p'")
        p = _json_vector(entry["p"], f"agent {a + 1} position")
        if len(p) not in (2, 3):
            raise ParseError(f"agent {a + 1}: position must be a 2- or 3-list")
        alpha = entry.get("alpha")
        if alpha is not None:
            alpha = json_number(alpha, f"agent {a + 1} heading 'alpha'")
        R = entry.get("R")
        if R is not None:
            R = _json_numbers(R, f"agent {a + 1} rotation entry")
        try:
            states.append(AgentState(
                p=np.asarray(p, dtype=float), alpha=alpha,
                R=None if R is None else np.asarray(R, dtype=float)))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"agent {a + 1} is malformed: {exc}") from exc
    return Framework(graph=graph, space=space, states=tuple(states))


def load_framework(path: str) -> Framework:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return framework_from_json(doc)


# ------------------------------------------------------- matrices and verdicts

def write_matrix_csv(rm: engine.RigidityMatrix, prefix: str) -> tuple[str, str]:
    """Write the matrix row-major at full precision plus a JSON sidecar
    describing the block structure. Returns the two paths."""
    csv_path = prefix + ".csv"
    sidecar_path = prefix + ".blocks.json"
    np.savetxt(csv_path, rm.matrix, delimiter=",", fmt="%.17g")
    sidecar = {
        "representation": rm.representation,
        "shape": list(rm.shape),
        "row_blocks": [list(b) for b in rm.row_blocks],
        "col_blocks": [
            {
                "agent": cb.agent,
                "translation": list(cb.translation),
                "rotation": None if cb.rotation is None else list(cb.rotation),
            }
            for cb in rm.col_blocks
        ],
    }
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        fh.write(dumps(sidecar))
    return csv_path, sidecar_path


def verdict_to_json(v: engine.RigidityVerdict) -> dict:
    return {
        "rank": v.rank,
        "nullity": v.nullity,
        "expected_rank": v.expected_rank,
        "kernel_equal_to_complete": v.kernel_equal_to_complete,
        "classification": v.classification,
        "degenerate": v.degenerate,
        "notes": list(v.notes),
    }


def _subspace_summary(basis: engine.SubspaceBasis) -> dict:
    return {"dim": basis.dim, "labels": list(basis.labels)}


def analysis_report(fw: Framework, pol: TolerancePolicy | None = None,
                    seed: int = 0, fd_trials: int = 20,
                    timing_seconds: float | None = None) -> dict:
    """Full analysis of one framework as a JSON-ready dictionary.

    Contains the framework summary, the rigidity verdict, subspace
    dimensions, and a finite-difference consistency probe. With the default
    timing of None the document is byte-identical across runs for identical
    inputs, seeds, and tolerances.
    """
    pol = pol or TolerancePolicy()
    subspaces: dict[str, Any] = {}
    # one decision at unit scale; the FD probe reuses its unit-scale copy
    verdict, unit, part = engine._decide(fw, pol)[:3]
    if part is None:
        subspaces["trivial"] = None
        subspaces["note"] = ("degenerate configuration: closed-form trivial "
                             "basis unavailable")
    elif fw.is_homogeneous:
        subspaces["trivial"] = _subspace_summary(part)
    else:
        subspaces["trivial"] = _subspace_summary(part.trivial)
        subspaces["virtual"] = _subspace_summary(part.virtual)
        subspaces["zero_columns"] = list(part.zero_columns)
    fd = engine.fd_jacobian_check(unit, pol, trials=fd_trials, seed=seed)

    if isinstance(fw.space, tuple):
        space_doc: Any = [space_to_json(s) for s in fw.space]
    else:
        space_doc = space_to_json(fw.space)

    return {
        "schema_version": SCHEMA_VERSION,
        "framework": {
            "n": fw.n,
            "m": fw.m,
            "graph_kind": fw.graph.kind,
            "homogeneous": fw.is_homogeneous,
            "space": space_doc,
            "degenerate": verdict.degenerate,
        },
        "verdict": verdict_to_json(verdict),
        "subspaces": subspaces,
        "fd_check": {
            "max_rel_error": fd.max_rel_error,
            "step": fd.step,
            "trials": fd.trials,
            "representation": fd.representation,
        },
        "tolerances": {
            "rank_rtol": pol.rank_rtol,
            "subspace_tol": pol.subspace_tol,
            "fd_step": pol.fd_step,
        },
        "seed": seed,
        "timing_seconds": timing_seconds,
    }


# --------------------------------------------------------------------- DOT

def export_dot(fw: Framework, added_edges: tuple[tuple[int, int], ...] = ()) -> str:
    """DOT document of the sensing graph with pinned 2D node positions.

    Edges listed in added_edges carry a distinct style (dashed, with an
    `added` attribute) so augmentations are visible at a glance.
    """
    directed = fw.graph.kind == "directed"
    connector = "->" if directed else "--"
    lines = ["digraph framework {" if directed else "graph framework {"]
    lines.append('  node [shape=circle];')
    P = fw.positions()
    for a in range(fw.n):
        x, y = P[a, 0], P[a, 1]
        lines.append(f'  v{a + 1} [label="{a + 1}", pos="{x:.6g},{y:.6g}!"];')
    added = set(added_edges)
    for (i, j) in fw.graph.edges:
        if (i, j) in added:
            lines.append(f'  v{i} {connector} v{j} [style=dashed, color=blue, added="true"];')
        else:
            lines.append(f'  v{i} {connector} v{j};')
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = [
    "SCHEMA_VERSION", "dumps", "space_to_json", "space_from_json",
    "graph_to_json", "graph_from_json", "framework_to_json",
    "framework_from_json", "load_framework", "write_matrix_csv",
    "verdict_to_json", "analysis_report", "export_dot",
]
