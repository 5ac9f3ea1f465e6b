"""Agent state spaces, frameworks, and bearing measurements.

A framework couples a sensing graph with one agent state per vertex. Each
agent lives in one of three state spaces:

* ``rd``     -- position only, in the plane (d=2) or in 3-space (d=3)
* ``rdxs1``  -- position plus a single heading angle about a fixed axis
               (the out-of-plane axis when d=2, a chosen unit axis when d=3)
* ``se3``    -- position plus a full rotation

A framework is homogeneous when every agent shares the same space and
heterogeneous otherwise. Positions are always stored as 3-vectors; planar
spaces pin the third coordinate to zero.

The bearing measured along edge (i, j) is the unit vector from agent i to
agent j expressed in agent i's frame: R_i^T (p_j - p_i) / ||p_j - p_i||.
Reversing an edge negates the bearing only when both agents share a frame,
which is why directed graphs are required whenever orientations are present.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentAgentsError, ValidationError
from .graphs import SensingGraph
from .linalg import TolerancePolicy, rotation_axis_angle

SPACE_KINDS = ("rd", "rdxs1", "se3")
COINCIDENT_TOL = 1e-12
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class MetricSpace:
    """State space descriptor for a single agent (or a whole framework)."""

    kind: str
    d: int = 3
    axis: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in SPACE_KINDS:
            raise ValidationError(f"unknown space kind {self.kind!r}")
        if self.kind == "se3":
            if self.d != 3 or self.axis is not None:
                raise ValidationError("se3 is three-dimensional and has no axis")
            return
        if self.d not in (2, 3):
            raise ValidationError(f"dimension must be 2 or 3, got {self.d}")
        if self.kind == "rd":
            if self.axis is not None:
                raise ValidationError("position-only spaces have no rotation axis")
            return
        # rdxs1
        if self.d == 2:
            if self.axis is not None and tuple(self.axis) != (0.0, 0.0, 1.0):
                raise ValidationError("planar heading axis is fixed out of plane")
            object.__setattr__(self, "axis", (0.0, 0.0, 1.0))
        else:
            if self.axis is None:
                raise ValidationError("rdxs1 with d=3 needs a unit axis")
            ax = np.asarray(self.axis, dtype=float)
            if ax.shape != (3,) or not abs(np.linalg.norm(ax) - 1.0) <= 1e-8:
                raise ValidationError("rotation axis must be a unit 3-vector")
            object.__setattr__(self, "axis", tuple(float(v) for v in ax))

    @staticmethod
    def rd(d: int) -> "MetricSpace":
        return MetricSpace("rd", d)

    @staticmethod
    def rd_s1(d: int, axis=None) -> "MetricSpace":
        if axis is not None:
            axis = tuple(float(v) for v in np.asarray(axis, dtype=float))
        return MetricSpace("rdxs1", d, axis)

    @staticmethod
    def se3() -> "MetricSpace":
        return MetricSpace("se3", 3)

    @property
    def is_planar(self) -> bool:
        return self.d == 2

    @property
    def has_orientation(self) -> bool:
        return self.kind != "rd"

    @property
    def c(self) -> int:
        """Number of controllable degrees of freedom per agent."""
        if self.kind == "rd":
            return self.d
        if self.kind == "rdxs1":
            return self.d + 1
        return 6

    def rotation_input(self) -> np.ndarray:
        """3x3 matrix mapping the unified rotational variation of one agent
        to its angular velocity: zero for rd, axis in the last column for
        rdxs1, identity for se3."""
        V = np.zeros((3, 3))
        if self.kind == "rdxs1":
            V[:, 2] = self.axis
        elif self.kind == "se3":
            V = np.eye(3)
        return V


@dataclass(frozen=True)
class AgentState:
    """Position plus optional orientation: a heading angle or a rotation."""

    p: np.ndarray
    alpha: float | None = None
    R: np.ndarray | None = None

    def __post_init__(self) -> None:
        p = np.array(self.p, dtype=float).reshape(-1)
        if p.shape == (2,):
            p = np.append(p, 0.0)
        if p.shape != (3,):
            raise ValidationError(f"position must be a 2- or 3-vector, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValidationError("position contains NaN or Inf")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        if self.alpha is not None and self.R is not None:
            raise ValidationError("give a heading angle or a rotation, not both")
        if self.alpha is not None:
            alpha = float(self.alpha)
            if not np.isfinite(alpha):
                raise ValidationError("heading angle is NaN or Inf")
            object.__setattr__(self, "alpha", alpha % TWO_PI)
        if self.R is not None:
            R = np.array(self.R, dtype=float)
            if R.shape != (3, 3):
                raise ValidationError("rotation must be 3x3")
            if not np.all(np.isfinite(R)):
                raise ValidationError("rotation contains NaN or Inf")
            if np.linalg.norm(R.T @ R - np.eye(3)) > 1e-8 or np.linalg.det(R) < 0:
                raise ValidationError("rotation is not orthonormal with det +1")
            R.setflags(write=False)
            object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class Framework:
    """A sensing graph with one agent state per vertex.

    `space` is either one MetricSpace shared by all agents or a tuple with
    one entry per agent. A per-agent tuple whose entries are all equal is
    collapsed to the shared form, so homogeneity is a property of content.
    """

    graph: SensingGraph
    space: MetricSpace | tuple[MetricSpace, ...]
    states: tuple[AgentState, ...]

    def __post_init__(self) -> None:
        n = self.graph.n
        sp = self.space
        if isinstance(sp, (list, tuple)):
            sp = tuple(sp)
            if len(sp) != n:
                raise ValidationError(f"need one space per agent ({n}), got {len(sp)}")
            if any(not isinstance(s, MetricSpace) for s in sp):
                raise ValidationError("per-agent spaces must be MetricSpace instances")
            if all(s == sp[0] for s in sp):
                sp = sp[0]
        elif not isinstance(sp, MetricSpace):
            raise ValidationError("space must be a MetricSpace or a tuple of them")
        object.__setattr__(self, "space", sp)

        states = tuple(self.states)
        if len(states) != n:
            raise ValidationError(f"need one state per agent ({n}), got {len(states)}")

        fixed = []
        for idx, st in enumerate(states):
            s = sp[idx] if isinstance(sp, tuple) else sp
            if s.kind == "rd" and (st.alpha is not None or st.R is not None):
                raise ValidationError(f"agent {idx + 1} is position-only but has an orientation")
            if s.kind == "rdxs1" and st.alpha is None:
                raise ValidationError(f"agent {idx + 1} needs a heading angle")
            if s.kind == "rdxs1" and st.R is not None:
                raise ValidationError(f"agent {idx + 1} takes a heading angle, not a rotation")
            if s.kind == "se3" and st.R is None:
                raise ValidationError(f"agent {idx + 1} needs a rotation")
            if s.kind == "se3" and st.alpha is not None:
                raise ValidationError(f"agent {idx + 1} takes a rotation, not a heading angle")
            if s.is_planar and st.p[2] != 0.0:
                p = st.p.copy()
                p[2] = 0.0
                st = dataclasses.replace(st, p=p)
            fixed.append(st)
        object.__setattr__(self, "states", tuple(fixed))

        if self.is_homogeneous and sp.kind == "rd":
            if self.graph.kind == "directed":
                raise ValidationError(
                    "position-only frameworks use undirected or oriented graphs")
        elif self.graph.kind != "directed":
            raise ValidationError("frameworks with orientations need a directed graph")

        P = self.positions()
        dist = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2)
        close = np.argwhere(np.triu(dist < COINCIDENT_TOL, k=1))
        if close.size:
            i, j = close[0]
            raise CoincidentAgentsError(f"agents {i + 1} and {j + 1} coincide")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def is_homogeneous(self) -> bool:
        return isinstance(self.space, MetricSpace)

    def space_of(self, i: int) -> MetricSpace:
        """Space of agent i (1-based)."""
        if isinstance(self.space, tuple):
            return self.space[i - 1]
        return self.space

    def positions(self) -> np.ndarray:
        """All agent positions as an (n, 3) array."""
        return np.array([st.p for st in self.states])

    def rotation_of(self, i: int) -> np.ndarray:
        """World-from-body rotation of agent i (1-based); identity for rd."""
        s = self.space_of(i)
        st = self.states[i - 1]
        if s.kind == "rd":
            return np.eye(3)
        if s.kind == "rdxs1":
            return rotation_axis_angle(np.array(s.axis), st.alpha)
        return np.asarray(st.R)

    def rotations(self) -> list[np.ndarray]:
        return [self.rotation_of(i) for i in range(1, self.n + 1)]

    def with_graph(self, g: SensingGraph) -> "Framework":
        """Same agents, different sensing graph (revalidated)."""
        return dataclasses.replace(self, graph=g)


@dataclass(frozen=True)
class BearingStack:
    """Stacked unit bearings, one 3-vector per edge in canonical edge order."""

    bearings: np.ndarray
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        b = np.asarray(self.bearings, dtype=float)
        if b.ndim != 2 or b.shape[1] != 3 or b.shape[0] != len(self.edges):
            raise ValidationError("bearing stack must be (m, 3) matching the edge list")
        norms = np.linalg.norm(b, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValidationError("bearings must be unit vectors")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "bearings", b)

    @property
    def m(self) -> int:
        return len(self.edges)


def bearing_stack_raw(edges, positions: np.ndarray, rotations) -> np.ndarray:
    """(m, 3) bearing stack from raw arrays; edges are 0-based (head, tail).

    No framework validation happens here; finite-difference probing relies on
    evaluating bearings at perturbed raw states. A coincident pair raises,
    naming the first such edge in the given order.
    """
    E = np.asarray(edges, dtype=int).reshape(-1, 2)
    heads, tails = E[:, 0], E[:, 1]
    P = np.asarray(positions, dtype=float)
    diff = P[tails] - P[heads]
    dist = np.linalg.norm(diff, axis=1)
    close = np.flatnonzero(dist < COINCIDENT_TOL)
    if close.size:
        i, j = E[close[0]]
        raise CoincidentAgentsError(f"agents {i + 1} and {j + 1} coincide")
    R = np.asarray(rotations, dtype=float)
    return np.einsum("kab,ka->kb", R[heads], diff / dist[:, None])


def bearing_rigidity_function(fw: Framework) -> BearingStack:
    """All edge bearings of the framework, in canonical edge order."""
    edges = fw.graph.edges
    P = fw.positions()
    R = fw.rotations()
    b = bearing_stack_raw([(i - 1, j - 1) for i, j in edges], P, R)
    return BearingStack(bearings=b, edges=edges)


@dataclass(frozen=True)
class DegeneracyReport:
    """Outcome of the collinearity test on a configuration."""

    non_degenerate: bool
    collinear_direction: np.ndarray | None
    detail: str

    def __bool__(self) -> bool:
        return self.non_degenerate


def is_non_degenerate(fw_or_positions, pol: TolerancePolicy | None = None,
                      ) -> DegeneracyReport:
    """A configuration is non-degenerate when its centered positions have
    rank at least 2, i.e. the agents are not all on one line.

    Accepts a Framework or an (n, 2)/(n, 3) position array. The report
    carries the line direction when the test fails.
    """
    pol = pol or TolerancePolicy()
    if isinstance(fw_or_positions, Framework):
        P = fw_or_positions.positions()
    else:
        P = np.asarray(fw_or_positions, dtype=float)
        if P.ndim != 2 or P.shape[1] not in (2, 3):
            raise ValidationError("positions must be an (n, 2) or (n, 3) array")
        if P.shape[1] == 2:
            P = np.hstack([P, np.zeros((P.shape[0], 1))])
    C = P - P.mean(axis=0)
    _, s, Vh = np.linalg.svd(C, full_matrices=False)
    thresh = pol.effective_rank_rtol(C.shape) * (s[0] if s.size else 0.0)
    if s[0] <= 0.0:
        return DegeneracyReport(False, None, "all agents at one point")
    if s[1] > thresh:
        return DegeneracyReport(True, None, "configuration spans at least a plane section")
    v = Vh[0]
    return DegeneracyReport(False, v, f"agents collinear along {np.round(v, 6).tolist()}")
