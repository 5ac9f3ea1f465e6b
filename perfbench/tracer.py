"""Outside-in tracing: wrap the program's public functions, record spans.

Each traced name is wrapped once, and every attribute of every loaded
bearing_rigidity module that refers to the original object is rebound to
the wrapper, because functions are imported by name across modules (for
example rank_and_nullspace into engine and scenarios). The two dataclass
constructors are traced through their __post_init__. A name the program no
longer defines is skipped and reported with zero calls.

Spans are (name, start, end, parent index, op id, size) tuples kept in
memory; the caller writes them out when the run ends.
"""
from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable

PACKAGE = "bearing_rigidity"


def _matrix_mb(args, kwargs, result) -> float:
    rows, cols = args[0].shape
    return rows * cols * 8 / 1e6


def _rows(args, kwargs, result) -> float:
    return result.shape[0]


def _edges_added(args, kwargs, result) -> float:
    return len(result[1])


# traced name -> (module, attribute path, size hook or None). The size hook
# computes a per-call figure (input MB, matrix rows, edges added) from the
# arguments and result.
TARGETS: dict[str, tuple[str, str, Callable | None]] = {
    "linalg.rank_and_nullspace": ("linalg", "rank_and_nullspace", _matrix_mb),
    "linalg.orthonormal_columns": ("linalg", "orthonormal_columns", None),
    "linalg.subspace_relation": ("linalg", "subspace_relation", None),
    "engine.rigidity_matrix": ("engine", "rigidity_matrix", _rows),
    "engine.unified_rigidity_matrix": ("engine", "unified_rigidity_matrix", None),
    "engine.ibr_verdict": ("engine", "ibr_verdict", None),
    "engine.fd_jacobian_check": ("engine", "fd_jacobian_check", None),
    "engine.trivial_variation_basis": ("engine", "trivial_variation_basis", None),
    "engine.hetero_kernel_analysis": ("engine", "hetero_kernel_analysis", None),
    "spaces.Framework.init": ("spaces", "Framework.__post_init__", None),
    "spaces.is_non_degenerate": ("spaces", "is_non_degenerate", None),
    "spaces.bearing_stack_raw": ("spaces", "bearing_stack_raw", None),
    "graphs.SensingGraph.init": ("graphs", "SensingGraph.__post_init__", None),
    "scenarios.augment_to_ibr": ("scenarios", "augment_to_ibr", _edges_added),
    "formats.load_framework": ("formats", "load_framework", None),
    "formats.analysis_report": ("formats", "analysis_report", None),
    "formats.dumps": ("formats", "dumps", None),
    "cli.cmd_batch": ("cli", "cmd_batch", None),
}


class Tracer:
    """Records spans while op_id is set; passes calls straight through
    otherwise (set-up, warm-up and output checks are not traced)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int, float | None]] = []
        self.op_id: int | None = None
        self.ops = 0
        self.installed: list[str] = []
        self._stack: list[int] = []

    def begin_op(self) -> None:
        self.ops += 1
        self.op_id = self.ops

    def end_op(self) -> None:
        self.op_id = None

    def wrap(self, name: str, fn: Callable, size: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent, self.op_id, None))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op_id, None)
            if size is not None:
                try:
                    self.spans[idx] = (name, start, end, parent, self.op_id,
                                       float(size(args, kwargs, result)))
                except (AttributeError, TypeError, ValueError, IndexError):
                    pass
            return result
        return traced

    def install(self) -> None:
        """Wrap every target the program defines and rebind all references."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, (mod, path, size) in TARGETS.items():
            module = sys.modules.get(f"{PACKAGE}.{mod}")
            owner: Any = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                continue
            wrapper = self.wrap(name, original, size)
            if len(parts) > 1:
                # a method: the class attribute is the only reference
                setattr(owner, parts[-1], wrapper)
            else:
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
            self.installed.append(name)


def summarize(spans, items: int) -> dict[str, dict[str, float]]:
    """Per traced name: calls, self seconds and summed size, each divided
    by `items` (the frameworks processed while tracing). Self time is a
    span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {name: {"calls": 0.0, "self_s": 0.0, "size": 0.0} for name in TARGETS}
    for k, (name, start, end, _, _, size) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["self_s"] += max(0.0, end - start - child_time[k])
        agg["size"] += size or 0.0
    return {name: {key: value / items for key, value in agg.items()}
            for name, agg in out.items()}


def descendants_of(spans, ancestor: str, name: str) -> int:
    """Number of `name` spans that have an `ancestor` span above them."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent >= 0
    return count
