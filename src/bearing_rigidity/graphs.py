"""Sensing graphs.

Vertices are numbered 1..n. An edge (i, j) points from its head i (the agent
taking the measurement) to its tail j (the agent being measured). Three kinds
are supported:

* ``undirected``  -- measurement direction irrelevant; edges stored (min, max)
* ``directed``    -- arbitrary ordered pairs, (i, j) and (j, i) may coexist
* ``oriented``    -- one direction chosen per undirected pair, stored head < tail

Edge lists are canonicalized to lexicographic order on construction, so edge
label k always refers to the k-th pair in that order. Row blocks of every
matrix built downstream follow the same order.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

GRAPH_KINDS = ("undirected", "directed", "oriented")


@dataclass(frozen=True)
class SensingGraph:
    """Vertex count, edge list and kind. Immutable after construction."""

    n: int
    edges: tuple[tuple[int, int], ...]
    kind: str = "directed"

    def __post_init__(self) -> None:
        if self.kind not in GRAPH_KINDS:
            raise ValidationError(f"unknown graph kind {self.kind!r}")
        if not isinstance(self.n, int) or self.n < 3:
            raise ValidationError(f"vertex count must be an integer >= 3, got {self.n!r}")
        canon = []
        for e in self.edges:
            if len(e) != 2:
                raise ValidationError(f"edge {e!r} is not a pair")
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValidationError(f"self loop at vertex {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValidationError(f"edge ({i}, {j}) out of range 1..{self.n}")
            if self.kind == "undirected":
                canon.append((min(i, j), max(i, j)))
            elif self.kind == "oriented":
                if i > j:
                    raise ValidationError(
                        f"oriented edges are stored head < tail, got ({i}, {j})"
                    )
                canon.append((i, j))
            else:
                canon.append((i, j))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValidationError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)


def complete_edges(n: int, kind: str) -> tuple[tuple[int, int], ...]:
    """All edges of the complete graph on n vertices, canonical order."""
    if kind == "directed":
        return tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def complete_graph(g: SensingGraph) -> SensingGraph:
    """Complete graph on the same vertex set, same kind."""
    return SensingGraph(g.n, complete_edges(g.n, g.kind), g.kind)


def connected_components(g: SensingGraph) -> list[set[int]]:
    """Weakly connected components (edge directions ignored), as vertex sets."""
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    seen: set[int] = set()
    comps = []
    for v in range(1, g.n + 1):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def is_connected(g: SensingGraph) -> bool:
    return len(connected_components(g)) == 1
