"""Exact rational primitives for 3-space: points, directions, intervals,
boxes and lines, and the one integer grid every family keeps its
objects on.

Every coordinate is exact: a `fractions.Fraction` in an object, an integer
on a family's grid (``to_grid``).  Every predicate is decided exactly, so
boundary contact (shared interval endpoints, touching faces, grazing
edges) counts as intersection.  There is no floating-point path.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

Rat = Fraction

Triple = tuple[Rat, Rat, Rat]

_WRITTEN = re.compile(r"(-?\d+)(?:/(\d+))?", re.ASCII)  # as format_rat writes; other strings go to Fraction(str)
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")  # as Fraction reads an exponent: \d is any Unicode digit


def rat(value: Rat | int | str) -> Rat:
    """Coerce an int, a "p/q" string, or a Fraction to an exact rational.
    A string whose exponent has more than four digits is a ValueError,
    since Fraction would expand it in full."""
    if type(value) is str and (written := _WRITTEN.fullmatch(value)):
        return Fraction(int(written[1]), int(written[2] or 1))
    if type(value) is str and (exponent := _EXPONENT.search(value)) and (
            len(exponent[1]) > 4300 or abs(int(exponent[1])) > 9999):  # int() would refuse more, unnamed
        raise ValueError(f"exponent of more than four digits: {value!r}")
    return value if isinstance(value, Fraction) else Fraction(value)


def format_rat(value: Rat) -> str:
    """Render as "p/q" (reduced, q > 0) or plain "p" when q == 1."""
    return str(value)


def format_ratio(numerator: int, denominator: int) -> str:
    """``format_rat`` of numerator / denominator, for denominator > 0, made
    without the Fraction."""
    g = math.gcd(numerator, denominator)
    return str(numerator // g) if g == denominator else f"{numerator // g}/{denominator // g}"


# ---------------------------------------------------------------------------
# vector helpers on coordinate triples


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def to_grid(rows, read=rat) -> tuple[int, list[tuple[int, ...]]]:
    """The least common denominator of the rows' entries and the rows times
    it, so every entry is an integer: a uniform scaling, which keeps every
    incidence.  An entry written as ``format_rat`` writes it is split into
    its integers; ``read``, which gives any other entry's rational, runs
    once per distinct entry."""
    ratios = {v: _ratio(v, read) for v in set(itertools.chain.from_iterable(rows))}
    den = math.lcm(1, *(q for _, q in ratios.values()))
    ints = {v: p * (den // q) for v, (p, q) in ratios.items()}
    return den, [tuple(map(ints.__getitem__, row)) for row in rows]


def _ratio(value, read) -> tuple[int, int]:
    """The reduced numerator and denominator of ``value``: a written "p" or "p/q"
    string with q > 0 split without a Fraction, any other value as ``read`` gives it."""
    if type(value) is str and (written := _WRITTEN.fullmatch(value)):
        p, q = int(written[1]), int(written[2] or 1)
        if q:
            g = math.gcd(p, q)
            return p // g, q // g
    value = read(value)  # a zero denominator raises here, as it does for Fraction
    return value.numerator, value.denominator


def grid_maps(maps, p: int, den: int = 1) -> tuple[int, list[tuple[int, int]]]:
    """The least multiple ``grid`` of ``den`` on which each map
    u / p -> (a / b) u / p + c / d of the integers (a, b, c, d), b, d > 0,
    in the list ``maps`` is integer affine on the integers u of a grid of
    denominator ``p``, and each map's (k, t), with
    (a / b) u / p + c / d = (k u + t) / grid for every u."""
    slopes = (b * p // math.gcd(a, b * p) for a, b, _, _ in maps)  # the denominator of a / (b p)
    grid = math.lcm(den, *slopes, *(d // math.gcd(c, d) for _, _, c, d in maps))
    return grid, [(grid * a // (b * p), grid * c // d) for a, b, c, d in maps]


# ---------------------------------------------------------------------------
# value objects


class Value:
    """Equal to an object of its own class whose ``compared`` attributes are
    equal, and hashed by them, as a frozen dataclass is."""

    compared: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.compared)

    def __eq__(self, other) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


# ---------------------------------------------------------------------------
# points and directions


class Point3(Value):
    compared = ("x", "y", "z")

    def __init__(self, x: Rat, y: Rat, z: Rat):
        self.x, self.y, self.z = x, y, z

    @classmethod
    def of(cls, x, y, z) -> "Point3":
        return cls(rat(x), rat(y), rat(z))

    def as_tuple(self) -> Triple:
        return (self.x, self.y, self.z)


class Dir3(Value):
    """A direction in 3-space, canonicalized so its first nonzero
    coordinate equals 1.  Canonical form identifies opposite vectors,
    which makes parallelism and line set-equality plain field equality.
    """

    compared = ("dx", "dy", "dz")

    def __init__(self, dx: Rat, dy: Rat, dz: Rat):
        lead = dx or dy or dz
        if not lead:
            raise ValueError("direction must not be the zero vector")
        self.dx, self.dy, self.dz = (dx, dy, dz) if lead == 1 else (dx / lead, dy / lead, dz / lead)

    @classmethod
    def of(cls, dx, dy, dz) -> "Dir3":
        return cls(rat(dx), rat(dy), rat(dz))

    def as_tuple(self) -> Triple:
        return (self.dx, self.dy, self.dz)


# ---------------------------------------------------------------------------
# intervals and boxes


class Interval(Value):
    """A closed, non-empty interval [lo, hi] with lo <= hi."""

    compared = ("lo", "hi")

    def __init__(self, lo: Rat, hi: Rat):
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        self.lo, self.hi = lo, hi

    @classmethod
    def of(cls, lo, hi) -> "Interval":
        return cls(rat(lo), rat(hi))


class Box3(Value):
    """A closed axis-aligned box, the product of three non-empty intervals."""

    compared = ("xr", "yr", "zr")

    def __init__(self, xr: Interval, yr: Interval, zr: Interval):
        self.xr, self.yr, self.zr = xr, yr, zr

    @classmethod
    def from_bounds(cls, xlo, xhi, ylo, yhi, zlo, zhi) -> "Box3":
        return cls(Interval.of(xlo, xhi), Interval.of(ylo, yhi), Interval.of(zlo, zhi))


# ---------------------------------------------------------------------------
# lines


class Line3(Value):
    compared = ("base", "dir")

    def __init__(self, base: Point3, dir: Dir3):
        self.base, self.dir = base, dir
