"""Exact rational primitives for 3-space: intervals, boxes, lines, planes,
and scale-plus-translate maps.

Every coordinate is a `fractions.Fraction` and every predicate is decided
exactly, so boundary contact (shared interval endpoints, touching faces,
grazing edges) counts as intersection.  There is no floating-point path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

Rat = Fraction

Triple = tuple[Rat, Rat, Rat]


def rat(value: Rat | int | str) -> Rat:
    """Coerce an int, a "p/q" string, or a Fraction to an exact rational."""
    return value if isinstance(value, Fraction) else Fraction(value)


def format_rat(value: Rat) -> str:
    """Render as "p/q" (reduced, q > 0) or plain "p" when q == 1."""
    return str(value)


# ---------------------------------------------------------------------------
# vector helpers on coordinate triples


def dot(u: Triple, v: Triple) -> Rat:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u: Triple, v: Triple) -> Triple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def vsub(u: Triple, v: Triple) -> Triple:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def vadd(u: Triple, v: Triple) -> Triple:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def vscale(s: Rat, u: Triple) -> Triple:
    return (s * u[0], s * u[1], s * u[2])


def is_zero(u: Triple) -> bool:
    return u[0] == 0 and u[1] == 0 and u[2] == 0


def integer_rows(rows) -> list[tuple[int, ...]]:
    """Rows of rationals scaled by one common factor, the least common
    multiple of all their denominators, so every entry is an integer.  A
    uniform scaling preserves every incidence, so sweeps run on machine
    integers."""
    scale = math.lcm(1, *(v.denominator for row in rows for v in row))
    return [tuple(v.numerator * (scale // v.denominator) for v in row) for row in rows]


# ---------------------------------------------------------------------------
# points and directions


@dataclass(frozen=True)
class Point3:
    x: Rat
    y: Rat
    z: Rat

    @classmethod
    def of(cls, x, y, z) -> "Point3":
        return cls(rat(x), rat(y), rat(z))

    def as_tuple(self) -> Triple:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class Dir3:
    """A direction in 3-space, canonicalized so its first nonzero
    coordinate equals 1.  Canonical form identifies opposite vectors,
    which makes parallelism and line set-equality plain field equality.
    """

    dx: Rat
    dy: Rat
    dz: Rat

    def __post_init__(self):
        for lead in (self.dx, self.dy, self.dz):
            if lead != 0:
                break
        else:
            raise ValueError("direction must not be the zero vector")
        if lead != 1:
            object.__setattr__(self, "dx", self.dx / lead)
            object.__setattr__(self, "dy", self.dy / lead)
            object.__setattr__(self, "dz", self.dz / lead)

    @classmethod
    def of(cls, dx, dy, dz) -> "Dir3":
        return cls(rat(dx), rat(dy), rat(dz))

    @classmethod
    def between(cls, p: Point3, q: Point3) -> "Dir3":
        return cls(q.x - p.x, q.y - p.y, q.z - p.z)

    def as_tuple(self) -> Triple:
        return (self.dx, self.dy, self.dz)


# ---------------------------------------------------------------------------
# intervals and boxes


@dataclass(frozen=True)
class Interval:
    """A closed, non-empty interval [lo, hi] with lo <= hi."""

    lo: Rat
    hi: Rat

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @classmethod
    def of(cls, lo, hi) -> "Interval":
        return cls(rat(lo), rat(hi))


@dataclass(frozen=True)
class Box3:
    """A closed axis-aligned box, the product of three non-empty intervals."""

    xr: Interval
    yr: Interval
    zr: Interval

    @classmethod
    def from_bounds(cls, xlo, xhi, ylo, yhi, zlo, zhi) -> "Box3":
        return cls(Interval.of(xlo, xhi), Interval.of(ylo, yhi), Interval.of(zlo, zhi))


# ---------------------------------------------------------------------------
# lines and planes


@dataclass(frozen=True)
class Line3:
    base: Point3
    dir: Dir3

    def point_at(self, t: Rat) -> Point3:
        d = self.dir
        return Point3(self.base.x + t * d.dx, self.base.y + t * d.dy, self.base.z + t * d.dz)

    def contains_point(self, p: Point3) -> bool:
        return is_zero(cross(vsub(p.as_tuple(), self.base.as_tuple()), self.dir.as_tuple()))


class LineRelation(Enum):
    IDENTICAL = "identical"
    MEET = "meet"
    PARALLEL = "parallel-disjoint"
    SKEW = "skew"


@dataclass(frozen=True)
class LineMeeting:
    kind: LineRelation
    point: Point3 | None = None


def line_line_relation(l1: Line3, l2: Line3) -> LineMeeting:
    """Exact classification of a pair of lines, with the common point
    when they meet in exactly one point."""
    d1 = l1.dir.as_tuple()
    d2 = l2.dir.as_tuple()
    w = vsub(l2.base.as_tuple(), l1.base.as_tuple())
    if l1.dir == l2.dir:
        if is_zero(cross(w, d1)):
            return LineMeeting(LineRelation.IDENTICAL)
        return LineMeeting(LineRelation.PARALLEL)
    n = cross(d1, d2)
    if dot(w, n) != 0:
        return LineMeeting(LineRelation.SKEW)
    s = dot(cross(w, d2), n) / dot(n, n)
    p = l1.point_at(s)
    assert l2.contains_point(p)
    return LineMeeting(LineRelation.MEET, p)


@dataclass(frozen=True)
class Plane3:
    """The plane { p : normal . p = offset } with canonical normal."""

    normal: Dir3
    offset: Rat

    def contains_point(self, p: Point3) -> bool:
        return dot(self.normal.as_tuple(), p.as_tuple()) == self.offset

    def contains_line(self, l: Line3) -> bool:
        return self.contains_point(l.base) and dot(self.normal.as_tuple(), l.dir.as_tuple()) == 0

    def point_on(self) -> Point3:
        """A deterministic representative point of the plane."""
        n = self.normal.as_tuple()
        coords = [Fraction(0)] * 3
        lead = 0 if n[0] != 0 else (1 if n[1] != 0 else 2)
        coords[lead] = self.offset / n[lead]
        return Point3(*coords)


class PlaneRelation(Enum):
    MEET = "meet"
    CONTAINED = "contained"
    PARALLEL = "parallel-disjoint"


@dataclass(frozen=True)
class PlaneMeeting:
    kind: PlaneRelation
    point: Point3 | None = None


def line_plane_meet(l: Line3, plane: Plane3) -> PlaneMeeting:
    """Exact classification of a line against a plane, with the crossing
    point when the line is transversal."""
    n = plane.normal.as_tuple()
    nd = dot(n, l.dir.as_tuple())
    if nd == 0:
        if plane.contains_point(l.base):
            return PlaneMeeting(PlaneRelation.CONTAINED)
        return PlaneMeeting(PlaneRelation.PARALLEL)
    t = (plane.offset - dot(n, l.base.as_tuple())) / nd
    return PlaneMeeting(PlaneRelation.MEET, l.point_at(t))


def perp_in_plane(plane: Plane3, line: Line3) -> Dir3:
    """The direction within ``plane`` perpendicular to ``line``.

    Requires the line to lie in the plane; the result is the canonical
    form of normal x dir, so it satisfies u . dir = 0 and u . normal = 0.
    """
    if not plane.contains_line(line):
        raise ValueError("line is not contained in the plane")
    u = cross(plane.normal.as_tuple(), line.dir.as_tuple())
    return Dir3(*u)


# ---------------------------------------------------------------------------
# scale-plus-translate maps


@dataclass(frozen=True)
class Homothety1D:
    """x -> scale * x + shift on the rational line, with scale > 0."""

    scale: Rat
    shift: Rat

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be strictly positive")


@dataclass(frozen=True)
class Homothety3D:
    """p -> scale * p + shift in 3-space, with scale > 0."""

    scale: Rat
    shift: Point3

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be strictly positive")

    def apply_point(self, p: Point3) -> Point3:
        s = self.scale
        return Point3(s * p.x + self.shift.x, s * p.y + self.shift.y, s * p.z + self.shift.z)

    def apply_line(self, l: Line3) -> Line3:
        # Positive uniform scaling preserves canonical directions exactly.
        return Line3(self.apply_point(l.base), l.dir)
