"""Straight lines in 3-space: the double-shift line system, cycle bases
on the moment curve, and the certificate-driven recursion through a
transversal plane.

Algebraically independent coordinates are replaced by seeded rational
samples plus exhaustive exact verification: a sample is accepted only if
its intersection graph is exactly the expected one, and rejected samples
are recorded.

A family keeps its lines on one integer grid: a common denominator for
the base points and, per line, an integer base row and a primitive
direction row.  It frames, slides, sweeps, checks and writes them as
rows; line objects are views made on demand.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable
from fractions import Fraction
from functools import cache, cached_property, partial

from . import graphs, recursion
from .budget import Budget
from .errors import BudgetExhausted, ConstructionError
from .gallai import ProviderPolicy
from .geometry import Dir3, Line3, Point3, Rat, cross, dot, format_rat, format_ratio, grid_maps, rat, to_grid

SAMPLE_ATTEMPTS = 64  # value sets build_shift_system tries before it gives up
FRAME_HEIGHT = 8  # largest coordinate of the integer directions choose_frame tries
SWEEP_BLOCK = 128  # later lines packed into one integer per coordinate by the line sweep

Row = tuple[int, int, int]  # a base point times its grid's denominator, or a direction row


def _lead(v: Row) -> int:
    return next(c for c in v if c)


def direction_row(v: Row) -> Row:
    """The primitive integer row with a positive leading entry along the
    nonzero integer vector ``v``: each direction has one row, so parallel
    lines have equal rows."""
    g = math.gcd(*v)
    if g == 0:
        raise ValueError("direction must not be the zero vector")
    g = g if _lead(v) > 0 else -g
    return (v[0] // g, v[1] // g, v[2] // g)


# ---------------------------------------------------------------------------
# the intersection sweep


def line_intersection_edges(rows) -> list[tuple[int, int]]:
    """All index pairs (i, j) of lines meeting in exactly one point, in
    (i, j) order, from their integer Plücker rows (d, m = b x d) on one grid.
    Identical lines, whose rows are equal, are not listed here; a family
    names the first pair of them (``identical``) and treats it as fatal.

    Two lines meet in exactly one point iff their directions differ and
    b.n = b'.n for n = d x d', which on the rows reads d'.m = -d.m'.  The
    lines are grouped by direction, and each pair of groups with more than
    one line between them is joined on that key, in time linear in their
    sizes.  The one-line groups (a shift system has only these) are tested
    against each other by big-integer products (``_packed_meets``).
    """
    groups: dict[Row, list[tuple[int, Row]]] = {}
    for i, (d, m) in enumerate(rows):
        groups.setdefault(d, []).append((i, m))
    several = [(d, g) for d, g in groups.items() if len(g) > 1]
    alone = [(d, g) for d, g in groups.items() if len(g) == 1]
    meets = []
    for a, (d1, g1) in enumerate(several):
        for d2, g2 in several[a + 1:] + alone:
            keyed: dict[int, list[int]] = {}
            for i, m in g1:
                keyed.setdefault(dot(d2, m), []).append(i)
            for j, m in g2:
                meets.extend((min(i, j), max(i, j)) for i in keyed.get(-dot(d1, m), ()))
    meets.extend(_packed_meets([(g[0][0], d, g[0][1]) for d, g in alone]))
    meets.sort()
    return meets


def _slot_size(single) -> int:
    """The least ``size`` with B < 3 * 2^(8 size - 3), for ``_packed_meets``'s bound B on the rows
    ``single``: B < 3 * 2^k exactly when B // 3 < 2^k."""
    tops = [max(map(abs, column)) for column in zip(*(d + m for _, d, m in single))]
    return ((2 * sum(a * b for a, b in zip(tops, tops[3:])) // 3).bit_length() + 10) // 8


def _packed_meets(single) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of lines (index, d, m) in index order, with
    pairwise distinct directions, for which d.m' + d'.m = 0.

    Each block of later rows (m', d') is packed into six integers, one per coordinate, at
    ``size`` bytes a row, so six products give every d.m' + d'.m of the block at once.  Each
    |d.m' + d'.m| is at most B = 2 sum_k max|d_k| max|m_k| < 3 * 2^(8 size - 3) (``_slot_size``),
    so once 2^(8 size - 1) is added, each slot lies strictly between 2^(8 size - 3) and
    7 * 2^(8 size - 3): no carry crosses a slot, no slot's top byte is zero, and so every match
    of ``hit`` (the bytes of 2^(8 size - 1)) is one whole slot, whose pair meets."""
    size = _slot_size(single)
    hit = bytes(size - 1) + b"\x80"
    blocks = []
    for start in range(0, len(single), SWEEP_BLOCK):
        rows = single[start:start + SWEEP_BLOCK]
        packed = [sum(c << 8 * size * s for s, c in enumerate(column)) for column in zip(*(m + d for _, d, m in rows))]
        blocks.append((start, rows, packed, int.from_bytes(hit * len(rows), "little")))
    meets = []
    for a, (i, d, m) in enumerate(single):
        x, y, z, u, v, w = d + m
        for start, rows, (p, q, r, s, t, o), bias in blocks[a // SWEEP_BLOCK:]:
            slots = (x * p + y * q + z * r + u * s + v * t + w * o + bias).to_bytes(size * len(rows), "little")
            at = slots.find(hit)
            while at >= 0:
                if start + at // size > a:
                    meets.append((i, rows[at // size][0]))
                at = slots.find(hit, at + size)
    return meets


# ---------------------------------------------------------------------------
# families


class LineFamily(recursion.Family):
    """Lines on one integer grid (see ``recursion.Family``), swept once when
    they are put on it: line i passes through ``rows[i][0]`` divided by
    ``den``, the least common denominator of the base points, along
    ``rows[i][1]``.  ``identical`` is the first pair of identical lines, or
    None; families do not compare it."""

    def __init__(self, lines, claimed_girth, claimed_chromatic, provenance=None, den=None):
        """The family of the line objects ``lines`` or, given ``den``, of
        the grid rows ``lines``, each a base row and a direction row."""
        if den is None:
            den, lines = self.grid([(*l.base.as_tuple(), *l.dir.as_tuple()) for l in lines])
        common = math.gcd(den, *(c for b, _ in lines for c in b))  # keep den least, so equal families are equal
        if common > 1:
            den, lines = den // common, [(tuple(c // common for c in b), d) for b, d in lines]
        plucker = [(d, cross(b, d)) for b, d in lines]  # equal exactly for identical lines
        first: dict[tuple, int] = {}
        pairs = [(first.setdefault(row, j), j) for j, row in enumerate(plucker)]
        vars(self).update(den=den, rows=tuple(lines), claimed_girth=claimed_girth, claimed_chromatic=claimed_chromatic,
                          provenance={} if provenance is None else provenance, meets=line_intersection_edges(plucker),
                          identical=min((p for p in pairs if p[0] != p[1]), default=None))

    @property
    def lines(self) -> tuple[Line3, ...]:
        """The lines as objects, made anew on each call."""
        dirs = {d: Dir3(*map(Fraction, d)) for d in {d for _, d in self.rows}}
        return tuple(Line3(Point3(*(Fraction(c, self.den) for c in b)), dirs[d]) for b, d in self.rows)

    kind, key = "line-family", "lines"
    entries = tuple((name, j) for name in ("base", "dir") for j in range(3))  # the rationals labels writes

    @staticmethod
    def grid(entries, read=rat) -> tuple[int, list[tuple[Row, Row]]]:
        """The grid of the lines whose entries are a base point and a direction,
        rationals or what ``read`` parses: the bases' least common denominator,
        and per line its base row and direction row.  Each distinct direction
        is put on a grid of its own once; a zero one is refused by its path."""
        den, bases = to_grid([e[:3] for e in entries], read)
        dirs: dict[tuple, Row] = {}
        for i, e in enumerate(entries):
            if (d := tuple(e[3:])) not in dirs:
                if not any(v := to_grid([d], read)[1][0]):
                    raise ValueError(f"{LineFamily.key}[{i}].dir must not be the zero vector")
                dirs[d] = direction_row(v)
        return den, [(b, dirs[tuple(e[3:])]) for b, e in zip(bases, entries)]

    def labels(self) -> list[dict]:
        """Each line's base point and direction, scaled to a leading 1, as
        "p/q" strings; each distinct grid value is formatted once."""
        text = {c: format_ratio(c, self.den) for c in {c for b, _ in self.rows for c in b}}
        dirs = {d: [format_ratio(c, lead) for c in d] for d in {d for _, d in self.rows} for lead in (_lead(d),)}
        return [{"base": [text[x], text[y], text[z]], "dir": list(dirs[d])} for (x, y, z), d in self.rows]

    def intersection_edges(self) -> list[tuple[int, int]]:
        """All meeting index pairs; identical lines violate the family
        invariant and are fatal."""
        if self.identical is not None:
            raise ConstructionError(f"identical lines in family: {self.identical[0]}, {self.identical[1]}")
        return self.meets

    def structure(self) -> recursion.StructureReport:
        return check_line_structure(self)


class ShiftSystem(LineFamily):
    """The lines of a strictly increasing value set: one shift line per
    ascending triple (a, b, c), t -> (ab + bc + t, abc + bt, ab^2c + (ab +
    bc)t), in ``itertools.combinations`` order, both derived from
    ``values`` when the system is made, the lines straight onto the grid
    (``_shift_grid``).  ``verification`` says whether its exact
    intersection graph is the double shift graph; it claims nothing else.
    Its scene writes each line's triple (``labels``) beside the line's
    family labels."""

    kind = "shift-system"
    compared = (*LineFamily.compared, "values", "triples")

    def __init__(self, values, provenance=None):
        if len(values) < 3:
            raise ValueError(f"a shift system needs at least 3 values, got {len(values)}")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError("shift system values must be strictly increasing")
        den, rows = _shift_grid(values)
        super().__init__(rows, None, 1, provenance, den=den)
        vars(self).update(values=values, triples=tuple(itertools.combinations(values, 3)))

    @cached_property
    def verification(self) -> tuple[bool, dict | None]:
        """``verify_shift_system``'s (ok, diagnostic), taken on first use."""
        return verify_shift_system(self)

    def labels(self) -> list[list[str]]:
        return [[format_rat(a), format_rat(b), format_rat(c)] for a, b, c in self.triples]

    def structure(self) -> recursion.StructureReport:
        """Both entries from the one ``verification``, whose first bad pair is the
        first edge in which the swept graph and the double shift graph differ."""
        ok, diagnostic = self.verification
        report = recursion.StructureReport()
        report.add("shift-system-exact", ok, "" if ok else str(diagnostic))
        side = "" if ok else "spurious" if diagnostic["reason"] == "spurious incidence" else "missing"
        report.add("graph-equals-double-shift", ok, "" if ok else str((side, diagnostic["pair"])))
        return report


# ---------------------------------------------------------------------------
# double-shift system


def _shift_grid(values) -> tuple[int, list[tuple[Row, Row]]]:
    """The grid rows of the shift line of every ascending triple of
    ``values`` (see ``ShiftSystem``), in combinations order.  With the values on their grid,
    q a, q b, q c = A, B, C, the base point (ab + bc, abc, ab^2c) is
    ((AB + BC) q^2, ABC q, AB^2C) / q^4 and the direction (1, b, ab + bc)
    is along (q^2, B q, AB + BC)."""
    q, (ints,) = to_grid([values])
    rows = []
    for a, b, c in itertools.combinations(ints, 3):
        s = a * b + b * c
        rows.append(((s * q * q, a * b * c * q, a * b * b * c), direction_row((q * q, b * q, s))))
    return q**4, rows


def double_shift_edges(n: int) -> list[tuple[int, int]]:
    """The double shift graph's edges (a,b,c) ~ (b,c,d) on the ascending triples from {1..n},
    numbered in combinations order, which lists them in (i, j) order."""
    if n < 3:
        raise ValueError("need n >= 3")
    index = {t: i for i, t in enumerate(itertools.combinations(range(1, n + 1), 3))}
    return [(i, index[b, c, f]) for (_, b, c), i in index.items() for f in range(c + 1, n + 1)]


def double_shift_graph(n: int) -> graphs.GeoGraph:
    """Vertices: ascending triples from {1..n}; (a,b,c) ~ (b,c,d)."""
    return graphs.GeoGraph(math.comb(n, 3), double_shift_edges(n))


def verify_shift_system(system: ShiftSystem) -> tuple[bool, dict | None]:
    """Exact check that the system's intersection graph is the double
    shift graph: its swept meeting pairs, and its identical pair if any,
    against the graph's edges.  Every line is its triple's shift line l,
    so the lines of (a,b,c) and (b,c,d) that meet do so at the designed
    point, by the identity l(a,b,c)(cd) = l(b,c,d)(ab) = (ab+bc+cd,
    abc+bcd, ab^2c+abcd+bc^2d).  Returns (True, None) or (False,
    diagnostic) naming the first bad pair in (i, j) order, the sorted edge
    lists' ``graphs.first_difference`` or, before it, the identical pair.
    """
    diff = graphs.first_difference(system.meets, double_shift_edges(len(system.values)))
    # an identical pair is never swept: one that is a designed meet is missing, so no later than the first difference
    if system.identical is not None and (diff is None or system.identical < diff[1]):
        diff = ("spurious", system.identical)
    if diff is None:
        return True, None
    return False, {"pair": diff[1], "reason": "spurious incidence" if diff[0] == "spurious" else "expected meet"}


def build_shift_system(n: int, seed: int = 0) -> ShiftSystem:
    """Sample a value set deterministically from the seed and accept its
    system only if the exact intersection graph matches the double shift
    graph; otherwise resample, recording the rejection.
    """
    rejected = []
    for attempt in range(SAMPLE_ATTEMPTS):
        rng = random.Random(seed * 1_000_003 + attempt)
        values = tuple(Fraction(v) for v in sorted(rng.sample(range(1, 40 * n * n + 1), n)))
        provenance = {
            "kind": "shift-system", "n": n, "seed": seed, "attempt": attempt, "rejected_samples": list(rejected)
        }
        system = ShiftSystem(values, provenance)
        ok, diagnostic = system.verification
        if ok:
            return system
        rejected.append({"values": list(values), "diagnostic": str(diagnostic)})
    raise ConstructionError(
        f"no valid sample within {SAMPLE_ATTEMPTS} attempts", {"rejected": rejected}
    )


# ---------------------------------------------------------------------------
# base families


def single_line_family() -> LineFamily:
    return LineFamily([((0, 0, 0), (1, 0, 0))], None, 1, {"kind": "base-single"}, den=1)


def meeting_pair_lines() -> LineFamily:
    """Two lines through the origin along the x and y axes."""
    rows = [((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 0))]
    return recursion.checked_base(LineFamily(rows, None, 2, {"kind": "base-pair"}, den=1))


def odd_cycle_lines(n: int) -> LineFamily:
    """Realize the n-cycle (n odd, >= 5) as edge-lines of a closed spatial
    polygon with vertices on the moment curve (t, t^2, t^3).

    Any four distinct moment-curve points are affinely independent, so
    edge-lines with disjoint vertex pairs are skew; consecutive edges meet
    exactly at their shared polygon vertex.  The edge set is re-verified
    against the abstract cycle before returning.
    """
    if n < 5 or n % 2 == 0:
        raise ValueError("need an odd cycle length of at least 5")
    pts = [(i, i * i, i * i * i) for i in range(n)]
    rows = [(p, direction_row(tuple(b - a for a, b in zip(p, pts[(i + 1) % n])))) for i, p in enumerate(pts)]
    fam = LineFamily(rows, n, 3, {"kind": "base-odd-cycle", "n": n}, den=1)
    return recursion.checked_base(fam)


# ---------------------------------------------------------------------------
# transversal frames


class TransversalFrame:
    """A plane crossed by every family line at a distinct point, an axis
    line inside it with all crossing points projecting to distinct axis
    parameters, and the in-plane direction perpendicular to the axis.

    The plane is {x : normal . x = offset * lead}, where lead is the
    normal's first nonzero entry, so ``offset`` is the plane's offset for
    the normal scaled to a leading 1.  The axis runs along ``axis`` through
    ``origin``, the point offset times the unit vector at that entry.
    ``normal``, ``axis`` and ``perp`` are direction rows."""

    def __init__(self, normal: Row, offset: int, axis: Row, perp: Row):
        self.normal, self.offset, self.axis, self.perp = normal, offset, axis, perp

    @property
    def origin(self) -> Row:
        lead = next(i for i, c in enumerate(self.normal) if c)
        return tuple(self.offset if i == lead else 0 for i in range(3))


def _canonical_dirs():
    """All direction rows of height (largest absolute entry) at most
    FRAME_HEIGHT, by height, then in the lexicographic order of the
    direction scaled to a leading 1."""
    for height in range(1, FRAME_HEIGHT + 1):
        yield from _dirs_of_height(height)


@cache
def _dirs_of_height(height: int) -> tuple[Row, ...]:
    scale = math.lcm(*range(1, height + 1))  # a multiple of every leading entry, so the sort keys are exact
    rows = [v for v in itertools.product(range(-height, height + 1), repeat=3)
            if max(map(abs, v)) == height and math.gcd(*v) == 1 and _lead(v) > 0]
    return tuple(sorted(rows, key=lambda v: tuple(c * scale // _lead(v) for c in v)))


def _offsets():
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def _crossings(frame: TransversalFrame, fam: LineFamily) -> tuple[int, list[Row]] | None:
    """Where each line of ``fam`` crosses the frame's plane, as integer
    rows over one common denominator, returned with it; None when some
    line does not cross the plane."""
    n = frame.normal
    slopes = {d: dot(n, d) for d in {d for _, d in fam.rows}}
    if 0 in slopes.values():
        return None
    q = math.lcm(*slopes.values())
    level = frame.offset * _lead(n) * fam.den  # the plane, on the family's grid
    # b + (level - n.b) / (n.d) d, times q
    hits = [tuple(q * c + (level - dot(n, b)) * (q // slopes[d]) * e for c, e in zip(b, d)) for b, d in fam.rows]
    return fam.den * q, hits


def axis_params(frame: TransversalFrame, fam: LineFamily) -> list[Rat]:
    """The axis parameter of each line's crossing point p: (p - origin) . a
    / (a . a), for a the axis direction scaled to a leading 1."""
    q, hits = _crossings(frame, fam)
    a = frame.axis
    at_origin, lead, norm = q * dot(frame.origin, a), _lead(a), dot(a, a)
    return [Fraction(lead * (dot(h, a) - at_origin), q * norm) for h in hits]


def frame_conditions(frame: TransversalFrame, fam: LineFamily) -> list[str]:
    """The failed genericity conditions (empty when the frame is valid):
    (1) every line transversal, (2) distinct crossing points, (3) distinct
    axis projections, (4) for every non-parallel direction pair (d, d*),
    (normal x (d x d*)) . axis is nonzero."""
    crossings = _crossings(frame, fam)
    if crossings is None:
        return ["transversal"]
    failures = []
    hits = crossings[1]
    if len(set(hits)) != len(hits):
        failures.append("distinct-traces")
    if len({dot(h, frame.axis) for h in hits}) != len(hits):
        failures.append("distinct-projections")
    # direction rows are parallel only when equal
    dirs = {d for _, d in fam.rows}
    if any(dot(cross(frame.normal, cross(d, e)), frame.axis) == 0 for d, e in itertools.combinations(dirs, 2)):
        failures.append("parallel-plane-pairs")
    return failures


def _meeting_points(fam: LineFamily) -> list[tuple[Row, int]]:
    """Each meeting point of the family as an integer row and its
    denominator: b + s d on line (b, d) at s = ((b* - b) x d*) . N / N . N,
    with N = d x d* for the other line (b*, d*)."""
    points = []
    for i, j in fam.intersection_edges():
        (b, d), (c, e) = fam.rows[i], fam.rows[j]
        normal = cross(d, e)
        size = dot(normal, normal)
        s = dot(cross(tuple(y - x for x, y in zip(b, c)), e), normal)
        points.append((tuple(size * x + s * y for x, y in zip(b, d)), fam.den * size))
    return points


def choose_frame(fam: LineFamily) -> TransversalFrame:
    """Deterministic enumeration of candidate planes and axis directions,
    accepting the first frame whose four genericity conditions all hold.

    Plane normals and axis directions run over direction rows in height
    order; offsets are chosen directly to dodge the finitely many
    crossing-point collisions.  The search is finite: it ends once the
    directions up to FRAME_HEIGHT run out, with a BudgetExhausted that
    reports which condition kept failing.
    """
    dirs = {d for _, d in fam.rows}
    meets = _meeting_points(fam)
    rejections = {"transversal": 0, "distinct-traces": 0, "distinct-projections": 0, "parallel-plane-pairs": 0}
    for normal in _canonical_dirs():
        if any(dot(normal, d) == 0 for d in dirs):
            rejections["transversal"] += 1
            continue
        lead = _lead(normal)
        levels = [(dot(normal, p), lead * q) for p, q in meets]
        bad_offsets = {v // w for v, w in levels if v % w == 0}
        offset = next(o for o in _offsets() if o not in bad_offsets)
        for axis in _canonical_dirs():
            if dot(axis, normal) != 0:
                continue
            frame = TransversalFrame(normal, offset, axis, direction_row(cross(normal, axis)))
            failures = frame_conditions(frame, fam)
            if not failures:
                return frame
            for f in failures:
                rejections[f] += 1
    raise BudgetExhausted(f"no frame within height {FRAME_HEIGHT}; rejection counts: {rejections}")


def make_ground_lines(values, frame: TransversalFrame) -> tuple[int, list[tuple[Row, Row]]]:
    """One line per axis parameter, as grid rows with the grid's
    denominator: inside the plane, through the axis point, in the
    perpendicular direction.  Pairwise parallel-disjoint."""
    values = sorted(rat(v) for v in values)
    if len(set(values)) != len(values):
        raise ValueError("ground line parameters must be distinct")
    lead = _lead(frame.axis)
    den, (steps,) = to_grid([[x / lead for x in values]])
    base = [den * c for c in frame.origin]
    return den, [(tuple(c + t * a for c, a in zip(base, frame.axis)), frame.perp) for t in steps]


# ---------------------------------------------------------------------------
# recursion


def _slot(d_n: Row, d_p: Row, slide: Row) -> Callable[[Row], tuple[tuple, int]]:
    """Where a base row v with direction d_n sits against the lines of
    direction d_p under integer multiples of ``slide``, as a function of v
    giving (class, whole).

    The key of v is (v . (d_n x d_p),), or v x d_p when d_n == d_p
    (direction rows are parallel only when equal); two lines meet or
    coincide exactly when their keys agree.  Keys are linear, so sliding
    by t adds t * step, step being the key of ``slide``.  With s the first
    nonzero entry of step and k the key's entry there, class = (s * key -
    k * step, k mod s) and whole = k // s: sliding by t adds t to whole and
    keeps class, which makes each tested offset one integer lookup.  When
    step is zero, the class is the key."""
    if d_n == d_p:
        key = lambda v: cross(v, d_p)
    else:
        normal = cross(d_n, d_p)
        key = lambda v: (dot(v, normal),)
    step = key(slide)
    at = next((i for i, c in enumerate(step) if c), None)
    if at is None:
        return lambda v: ((key(v), None), 0)
    s = step[at]

    def slot(v: Row) -> tuple[tuple, int]:
        own = key(v)
        k = own[at]
        return (tuple(s * c - k * t for c, t in zip(own, step)), k % s), k // s

    return slot


class _PlacedLines:
    """Placed lines, as grid rows, filed by slot per placed direction d_p and
    (image direction d_n, slide); each line once per (d_n, slide), when next
    asked for."""

    def __init__(self, rows=()):
        self._bases: dict[Row, list[Row]] = {}  # d_p -> bases
        self._slots: dict[tuple, tuple[Callable, dict, int]] = {}  # (d_p, d_n, slide) -> (slot, class -> wholes, filed)
        self.add(rows)

    def __len__(self) -> int:
        return sum(len(bases) for bases in self._bases.values())

    def add(self, rows) -> None:
        for base, d in rows:
            self._bases.setdefault(d, []).append(base)

    def slots(self, d_n: Row, slide: Row):
        """(slot of d_n against d_p, class -> wholes of the placed lines of
        direction d_p) for each d_p."""
        for d_p, bases in self._bases.items():
            slot, classes, filed = self._slots.get((d_p, d_n, slide)) or (_slot(d_n, d_p, slide), {}, 0)
            for base in bases[filed:]:
                cls, whole = slot(base)
                classes.setdefault(cls, set()).add(whole)
            self._slots[d_p, d_n, slide] = slot, classes, len(bases)
            yield slot, classes


def forbidden_offsets(images_at_zero, placed: _PlacedLines, slide: Row) -> Callable[[int], bool]:
    """An exact membership test for the integer multiples of ``slide`` by
    which sliding the image rows would make some image line meet or
    coincide with an already placed line, all rows on one grid.

    Sliding an image by t adds t to its whole and keeps its class (see
    _slot), so the forbidden offsets are the differences w - whole over
    each (image, placed direction) pair of one class, gathered once into
    a set: each tested offset costs one lookup.  The slide's key is
    nonzero for the parent's direction pairs (the frame's plane-pair
    condition) and for parallel lines (every line crosses the plane).  A
    pair whose slide key is zero and that is coplanar at offset 0 stays
    coplanar at every offset: that raises ConstructionError here.
    """
    forbidden: set[int] = set()
    for base, d_n in images_at_zero:
        for slot, classes in placed.slots(d_n, slide):
            cls, whole = slot(base)
            if cls not in classes:
                continue
            if cls[1] is None:
                raise ConstructionError("line pair stays coplanar under every slide offset")
            forbidden.update(w - whole for w in classes[cls])

    def is_forbidden(t: int) -> bool:
        k = int(t)
        if k != t:
            raise ValueError(f"slide offsets are integers, not {t}")
        return k in forbidden

    return is_forbidden


def embed_copy_lines(parent: LineFamily, frame: TransversalFrame, maps, den: int = 1) -> tuple[int, list[list]]:
    """The parent's image under each copy's map in ``maps``, the integers
    (a, b, c, d) of scale a / b and shift c / d (``map_ratios``), at slide
    offset 0, as rows on one grid: the least multiple of ``den`` on which
    every map is integer affine on the parent's rows.

    A copy with 1-D axis map x -> s x + h maps p -> s p + (1 - s) B + h a,
    where B is the axis point and a the axis direction scaled to a leading
    1: a scaling about the axis point the 1-D map fixes (a pure slide
    along the axis when s = 1).  It preserves the plane, so each image
    line still crosses it at one point whose axis parameter is the 1-D
    map of its parent's; the image therefore meets exactly its own ground
    line.  Directions are unchanged.
    """
    p, lead = parent.den, _lead(frame.axis)
    grid, ints = grid_maps([(a, b, c, d * lead) for a, b, c, d in maps], p, den)
    out = []
    for k, t in ints:  # k = grid s / p and t = grid h / lead, so (1 - s) B is (grid - k p) B on the grid
        shift = [(grid - k * p) * o + t * e for o, e in zip(frame.origin, frame.axis)]
        out.append([(tuple(k * c + w for c, w in zip(b, shift)), d) for b, d in parent.rows])
    return grid, out


def recursion_step_lines(
    parent: LineFamily,
    colors: int,
    girth: int,
    provider,
    budget: Budget | None = None,
) -> LineFamily:
    """One chromatic lift (see ``recursion.lift``) in the line geometry:
    parallel ground lines in a transversal plane at the certificate
    elements, plus one scaled-and-slid copy of the parent per certificate
    copy, with slide offsets chosen to forbid any cross-copy incidence."""
    return recursion.lift(parent, colors, girth, provider, budget, _place_lines)


def _place_lines(parent: LineFamily, certify) -> recursion.Placement:
    frame = choose_frame(parent)
    params = axis_params(frame, parent)
    cert = certify(params)
    ground_den, ground = make_ground_lines(cert.elements, frame)
    lead = _lead(frame.perp)  # a slide by one unit of the perpendicular scaled to a leading 1 is integer on the grid
    den, images = embed_copy_lines(parent, frame, cert.map_ratios(), math.lcm(ground_den, lead))
    ground = [(tuple(c * (den // ground_den) for c in b), d) for b, d in ground]
    slide = tuple(den // lead * c for c in frame.perp)
    copies: list[list] = []
    placed = _PlacedLines()
    offsets_used: list[int] = []
    for baseline in images:
        is_forbidden = forbidden_offsets(baseline, placed, slide)
        offset = next(o for o in _offsets() if not is_forbidden(o))
        rows = baseline if offset == 0 else [(tuple(c + offset * w for c, w in zip(b, slide)), d) for b, d in baseline]
        offsets_used.append(offset)
        copies.append(rows)
        placed.add(rows)
    extra = {"parent_params": params, "offsets": offsets_used}
    return recursion.Placement(parent, cert, ground, copies, extra, partial(LineFamily, den=den))


def check_line_structure(fam: LineFamily) -> recursion.StructureReport:
    """Exact structural sweep mirroring the box checks (see
    ``recursion.check_structure``): no two lines identical, ground lines
    pairwise parallel-disjoint, and a recursion output's graph its model,
    with every copy line on the ground line at its own parameter."""
    return recursion.check_structure(fam, _check_line_copies)


def _check_line_copies(report: recursion.StructureReport, fam: LineFamily, faults: dict[str, str]) -> None:
    report.add("no-identical-lines", fam.identical is None, "" if fam.identical is None else f"pair {fam.identical}")
    # two lines are parallel-disjoint exactly when their Plücker rows (d, b x d) share the direction d but differ
    ground = enumerate((d, cross(b, d)) for b, d in fam.rows[:len(fam.provenance["certificate"].elements)])
    bad = next(((i, j) for (i, p), (j, q) in itertools.combinations(ground, 2) if p[0] != q[0] or p == q), None)
    detail = faults.get("ground", "") if bad is None else f"ground pair {bad}"
    report.add("ground-pairwise-parallel-disjoint", not detail, detail)
    detail = faults.get("count", faults.get("placed", ""))
    report.add("copy-meets-exactly-own-ground", not detail, detail)
    report.add("no-cross-copy-incidences", "cross" not in faults, faults.get("cross", ""))


# ---------------------------------------------------------------------------
# top-level construction


def build_line_family(girth: int, colors: int, policy: ProviderPolicy | None = None) -> LineFamily:
    """A line family with girth >= girth needing at least ``colors``
    colors (see ``recursion.build_family``); bases and iteration mirror
    the box construction."""
    return recursion.build_family(
        girth, colors, policy, (single_line_family, meeting_pair_lines, odd_cycle_lines), recursion_step_lines
    )
