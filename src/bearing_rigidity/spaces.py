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

A framework is validated once, when built, and keeps read-only stacks for
every reader: its (n, 3) positions and, from first use, its (n, 3, 3)
rotations and rotation inputs. It keeps its RMS radius too, and caches
its positions at unit formation scale with their radius (Framework._unit).

The bearing measured along edge (i, j) is the unit vector from agent i to
agent j expressed in agent i's frame: R_i^T (p_j - p_i) / ||p_j - p_i||.
Reversing an edge negates the bearing only when both agents share a frame,
which is why directed graphs are required whenever orientations are present.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoincidentAgentsError, ValidationError
from .graphs import SensingGraph
from .linalg import (AXIS_UNIT_TOL, TolerancePolicy, rank_and_nullspace,
                     rotation_axis_angle)

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
            # entries beyond 1 are refused before the norm they could overflow
            if (ax.shape != (3,) or np.abs(ax).max() > 1.0 + AXIS_UNIT_TOL
                    or not abs(np.linalg.norm(ax) - 1.0) <= AXIS_UNIT_TOL):
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
            # an orthonormal matrix has every entry in [-1, 1]; larger ones
            # are refused before the product, which they could overflow
            if (np.abs(R).max() > 1.0 + 1e-8 or np.linalg.norm(R.T @ R - np.eye(3)) > 1e-8
                    or np.linalg.det(R) < 0):
                raise ValidationError("rotation is not orthonormal with det +1")
            R.setflags(write=False)
            object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class Framework:
    """A sensing graph with one agent state per vertex.

    `space` is either one MetricSpace shared by all agents or a tuple with
    one entry per agent. A per-agent tuple whose entries are all equal is
    collapsed to the shared form, so homogeneity is a property of content.
    Two agents coincide when at most COINCIDENT_TOL times the positions'
    RMS radius apart, at any scale; agents all at one point coincide.
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

        P = np.array([st.p for st in self.states])
        P.setflags(write=False)
        object.__setattr__(self, "_positions", P)
        radius, e = _scaled_radius(P)
        object.__setattr__(self, "_radius", math.ldexp(radius, e))
        P = np.ldexp(P, -e)
        dist = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2)
        close = np.argwhere(np.triu(dist <= COINCIDENT_TOL * radius, k=1))
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
        """All agent positions as a fresh (n, 3) array."""
        return self._positions.copy()

    @cached_property
    def _rotations(self) -> np.ndarray:
        """Read-only (n, 3, 3) world-from-body rotations: identity for rd
        agents, the heading agents' in one stacked rotation_axis_angle."""
        R = np.tile(np.eye(3), (self.n, 1, 1))
        heading, axes, angles = [], [], []
        for a, st in enumerate(self.states):
            if st.R is not None:
                R[a] = st.R
            elif st.alpha is not None:
                heading.append(a)
                axes.append(self.space_of(a + 1).axis)
                angles.append(st.alpha)
        if heading:
            R[heading] = rotation_axis_angle(np.array(axes), np.array(angles))
        R.setflags(write=False)
        return R

    @cached_property
    def _rotation_inputs(self) -> np.ndarray:
        """Read-only (n, 3, 3) stack of the agents' MetricSpace.rotation_input."""
        spaces = self.space if isinstance(self.space, tuple) else (self.space,)
        return np.broadcast_to(np.array([s.rotation_input() for s in spaces]), (self.n, 3, 3))

    def rotation_of(self, i: int) -> np.ndarray:
        """World-from-body rotation of agent i (1-based); identity for rd."""
        return self._rotations[i - 1]

    def rotations(self) -> list[np.ndarray]:
        return list(self._rotations)

    def with_graph(self, g: SensingGraph) -> "Framework":
        """Same agents, different sensing graph (revalidated)."""
        return dataclasses.replace(self, graph=g)

    @cached_property
    def _unit(self) -> tuple[np.ndarray, float]:
        """(P, radius): the read-only positions at unit formation scale,
        where one relative rank threshold separates translational singular
        values (which scale as 1/length) from rotational ones, and their RMS
        radius, 1 to rounding. P is _positions when _radius is within 1e-12
        of 1, else _positions / _radius; rotations do not scale."""
        if abs(self._radius - 1.0) <= 1e-12:
            return self._positions, self._radius
        P = self._positions / self._radius
        P.setflags(write=False)
        return P, _rms_radius(P)


def _scaled_radius(P: np.ndarray) -> tuple[float, int]:
    """(r, e): the RMS distance r of the points P / 2**e (one per row) from
    their centroid, where 2**e is the least power of two above their
    largest centered coordinate (e = 0 when all points are one).

    Squares of coordinates beyond about 1e154 overflow and those below
    about 1e-162 underflow, so lengths are taken on P / 2**e. Sums of
    coordinates near the top of the float range overflow too, so P is
    first divided by the least power of two above its largest coordinate
    and centered after. Dividing by a power of two is exact, and so are
    the sums, squares, square roots and ratios of the quotients: r * 2**e,
    and distances taken on P / 2**e and scaled back, are bit-identical to
    those taken on P wherever those are finite and nonzero, and
    comparisons between them come out the same."""
    f = math.frexp(float(np.abs(P).max()))[1]
    P = np.ldexp(P, -f)
    C = P - P.sum(axis=0) / len(P)
    e = math.frexp(float(np.abs(C).max()))[1]
    C = np.ldexp(C, -e)
    return math.sqrt((C * C).sum(axis=1).sum() / len(P)), e + f


def _rms_radius(P: np.ndarray) -> float:
    """RMS distance of the points P (one per row) from their centroid."""
    return math.ldexp(*_scaled_radius(P))


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
    evaluating bearings at perturbed raw states. A coincident pair (see
    Framework) raises, naming the first such edge in the given order.
    """
    P = np.asarray(positions, dtype=float)
    radius, e = _scaled_radius(P)
    return _bearings(edges, np.ldexp(P, -e), rotations, COINCIDENT_TOL * radius)


def _bearings(edges, positions: np.ndarray, rotations, coincident: float) -> np.ndarray:
    """bearing_stack_raw with the absolute coincidence threshold given:
    agents at distance <= coincident raise.

    positions may be a (k, n, 3) stack of k states, and rotations a
    (k, n, 3, 3) stack or one (n, 3, 3) set shared by all of them; the
    (k, m, 3) result equals one call per state, and a coincidence names
    the first coincident edge of the first state that has one."""
    E = np.asarray(edges, dtype=int).reshape(-1, 2)
    heads, tails = E[:, 0], E[:, 1]
    P = np.asarray(positions, dtype=float)
    diff = P[..., tails, :] - P[..., heads, :]
    dist = np.linalg.norm(diff, axis=-1)
    close = np.flatnonzero(dist <= coincident)
    if close.size:
        i, j = E[close[0] % len(E)]
        raise CoincidentAgentsError(f"agents {i + 1} and {j + 1} coincide")
    diff /= dist[..., None]
    R = np.asarray(rotations, dtype=float)
    return np.einsum("...kab,...ka->...kb", R[..., heads, :, :], diff)


def bearing_rigidity_function(fw: Framework) -> BearingStack:
    """All edge bearings of the framework, in canonical edge order."""
    edges = fw.graph.edges
    b = bearing_stack_raw([(i - 1, j - 1) for i, j in edges], fw._positions, fw._rotations)
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
    rank at least 2 (rank_and_nullspace), i.e. the agents are not all on
    one line.

    Accepts a Framework or an (n, 2)/(n, 3) position array. The report
    carries the line direction when the rank is 1: the cross product of
    the two kernel vectors.
    """
    pol = pol or TolerancePolicy()
    if isinstance(fw_or_positions, Framework):
        P = fw_or_positions._positions
    else:
        P = np.asarray(fw_or_positions, dtype=float)
        if P.ndim != 2 or P.shape[1] not in (2, 3):
            raise ValidationError("positions must be an (n, 2) or (n, 3) array")
        if P.shape[1] == 2:
            P = np.hstack([P, np.zeros((P.shape[0], 1))])
    rank, N = rank_and_nullspace(P - P.mean(axis=0), pol)
    if rank == 0:
        return DegeneracyReport(False, None, "all agents at one point")
    if rank >= 2:
        return DegeneracyReport(True, None, "configuration spans at least a plane section")
    v = np.cross(N[:, 0], N[:, 1])
    return DegeneracyReport(False, v, f"agents collinear along {np.round(v, 6).tolist()}")
