"""Straight lines in 3-space: the double-shift line system, cycle bases
on the moment curve, and the certificate-driven recursion through a
transversal plane.

Algebraically independent coordinates are replaced by seeded rational
samples plus exhaustive exact verification: a sample is accepted only if
its intersection graph is exactly the expected one, and rejected samples
are recorded.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import graphs, recursion
from .budget import Budget
from .errors import BudgetExhausted, ConstructionError
from .gallai import HomotheticCopy, ProviderPolicy
from .geometry import (
    Dir3,
    Homothety3D,
    Line3,
    Plane3,
    PlaneRelation,
    Point3,
    Rat,
    Triple,
    cross,
    dot,
    format_rat,
    integer_rows,
    line_line_relation,
    line_plane_meet,
    perp_in_plane,
    rat,
    vadd,
    vscale,
    vsub,
)

SAMPLE_ATTEMPTS = 64  # value sets build_shift_system tries before it gives up
FRAME_HEIGHT = 8  # largest coordinate of the integer directions choose_frame tries
SWEEP_BLOCK = 128  # later lines packed into one integer per coordinate by the line sweep


def line_to_doc(line: Line3) -> dict:
    b, d = line.base, line.dir
    return {
        "base": [format_rat(b.x), format_rat(b.y), format_rat(b.z)],
        "dir": [format_rat(d.dx), format_rat(d.dy), format_rat(d.dz)],
    }


# ---------------------------------------------------------------------------
# the intersection sweep


def _integer_rows(lines) -> list[tuple[Triple, Triple]]:
    """Each line as integer Plücker coordinates (d, m = b x d).  The base
    points b share one common scale (``integer_rows``); each direction d
    takes its own, which leaves it primitive with a positive leading entry
    because Dir3 is canonical, so parallel lines have equal d, and two
    lines of one call are identical exactly when their rows are equal."""
    bases = integer_rows([l.base.as_tuple() for l in lines])
    rows = []
    for b, l in zip(bases, lines):
        (d,) = integer_rows([l.dir.as_tuple()])
        rows.append((d, cross(b, d)))
    return rows


def line_intersection_edges(rows) -> list[tuple[int, int]]:
    """All index pairs (i, j) of lines meeting in exactly one point, in
    (i, j) order, from the lines' integer rows (``_integer_rows``).
    Identical lines, whose rows are equal, are not listed here; a family
    names the first pair of them (``identical``) and treats it as fatal.

    Two lines meet in exactly one point iff their directions differ and
    b.n = b'.n for n = d x d', which on the rows reads d'.m = -d.m'.  The
    lines are grouped by direction, and each pair of groups with more than
    one line between them is joined on that key, in time linear in their
    sizes.  The one-line groups (a shift system has only these) are tested
    against each other by big-integer products (``_packed_meets``).
    """
    groups: dict[Triple, list[tuple[int, Triple]]] = {}
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


def _packed_meets(single) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of lines (index, d, m) in index order, with
    pairwise distinct directions, for which d.m' + d'.m = 0.

    Each block of later rows (m', d') is packed into six integers, one per
    coordinate, at ``size`` bytes a row, so six products give every d.m' +
    d'.m of the block at once.  |d.m' + d'.m| <= 6 max|d| max|m| <
    6 * 2^(8 size - 4), so once 2^(8 size - 1) is added, each slot lies
    strictly between 2^(8 size - 3) and 7 * 2^(8 size - 3): no carry crosses
    a slot, no slot's top byte is zero, and so every match of ``hit`` (the
    bytes of 2^(8 size - 1)) is one whole slot, whose pair meets."""
    size = (max((abs(c) for _, d, _ in single for c in d), default=0).bit_length()
            + max((abs(c) for _, _, m in single for c in m), default=0).bit_length() + 11) // 8
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


class _SweptLines:
    """A line family sweeps its lines once, when it is made: ``rows`` are
    their integer rows (``_integer_rows``), ``meets`` the meeting pairs in
    (i, j) order, and ``identical`` the first pair of equal rows, which
    are the identical lines, or None."""

    rows: list[tuple[Triple, Triple]]
    meets: list[tuple[int, int]]
    identical: tuple[int, int] | None

    def __post_init__(self):
        rows = _integer_rows(self.lines)
        first: dict[tuple, int] = {}
        pairs = [(first.setdefault(row, j), j) for j, row in enumerate(rows)]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "meets", line_intersection_edges(rows))
        object.__setattr__(self, "identical", min((p for p in pairs if p[0] != p[1]), default=None))

    def __len__(self) -> int:
        return len(self.lines)

    def intersection_edges(self) -> list[tuple[int, int]]:
        """All meeting index pairs; identical lines violate the family
        invariant and are fatal."""
        if self.identical is not None:
            raise ConstructionError(f"identical lines in family: {self.identical[0]}, {self.identical[1]}")
        return self.meets


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class LineFamily(_SweptLines):
    lines: tuple[Line3, ...]
    claimed_girth: int | None
    claimed_chromatic: int
    provenance: dict = field(default_factory=dict)

    def labels(self) -> list[dict]:
        return [line_to_doc(l) for l in self.lines]

    def structure(self) -> recursion.StructureReport:
        return check_line_structure(self)


@dataclass(frozen=True)
class ShiftSystem(_SweptLines):
    """The lines of a value set: one ``shift_line`` per ascending triple,
    in ``itertools.combinations`` order, both derived from ``values``
    when the system is made.  ``verification`` says whether its exact
    intersection graph is the double shift graph; it claims nothing else."""

    claimed_girth = None
    claimed_chromatic = 1

    values: tuple[Rat, ...]
    provenance: dict = field(default_factory=dict)
    triples: tuple[tuple[Rat, Rat, Rat], ...] = field(init=False)
    lines: tuple[Line3, ...] = field(init=False)

    def __post_init__(self):
        if len(self.values) < 3:
            raise ValueError(f"a shift system needs at least 3 values, got {len(self.values)}")
        object.__setattr__(self, "triples", tuple(itertools.combinations(self.values, 3)))
        object.__setattr__(self, "lines", tuple(shift_line(*t) for t in self.triples))
        super().__post_init__()

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


def shift_line(a, b, c) -> Line3:
    """The line t -> (ab + bc + t, abc + bt, ab^2c + (ab + bc)t): base point
    (ab+bc, abc, ab^2c), direction (1, b, ab+bc)."""
    a, b, c = rat(a), rat(b), rat(c)
    if not a < b < c:
        raise ValueError("shift line needs a < b < c")
    return Line3(
        Point3(a * b + b * c, a * b * c, a * b * b * c),
        Dir3(Fraction(1), b, a * b + b * c),
    )


def double_shift_graph(n: int) -> graphs.GeoGraph:
    """Vertices: ascending triples from {1..n}; (a,b,c) ~ (b,c,d)."""
    if n < 3:
        raise ValueError("need n >= 3")
    triples = list(itertools.combinations(range(1, n + 1), 3))
    index = {t: i for i, t in enumerate(triples)}
    edges = []
    for a, b, c in triples:
        for f in range(c + 1, n + 1):
            edges.append((index[(a, b, c)], index[(b, c, f)]))
    return graphs.GeoGraph(len(triples), edges)


def verify_shift_system(system: ShiftSystem) -> tuple[bool, dict | None]:
    """Exact check that the system's intersection graph is the double
    shift graph: its swept meeting pairs, and its identical pair if any,
    against the graph's edges.  Every line is its triple's ``shift_line``,
    so the lines of (a,b,c) and (b,c,d) that meet do so at the designed
    point, by the identity l(a,b,c)(cd) = l(b,c,d)(ab) = (ab+bc+cd,
    abc+bcd, ab^2c+abcd+bc^2d).  Returns (True, None) or (False,
    diagnostic) naming the first bad pair in (i, j) order.
    """
    expected = double_shift_graph(len(system.values)).edges
    meets = set(system.meets)
    suspects = expected | meets | ({system.identical} if system.identical else set())
    for i, j in sorted(suspects):
        if (i, j) not in expected:
            return False, {"pair": (i, j), "reason": "spurious incidence"}
        if (i, j) not in meets:
            return False, {"pair": (i, j), "reason": "expected meet"}
    return True, None


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
    return LineFamily((Line3(Point3.of(0, 0, 0), Dir3.of(1, 0, 0)),), None, 1, {"kind": "base-single"})


def meeting_pair_lines() -> LineFamily:
    """Two lines through the origin along the x and y axes."""
    a = Line3(Point3.of(0, 0, 0), Dir3.of(1, 0, 0))
    b = Line3(Point3.of(0, 0, 0), Dir3.of(0, 1, 0))
    return recursion.checked_base(LineFamily((a, b), None, 2, {"kind": "base-pair"}))


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
    pts = [Point3.of(i, i * i, i * i * i) for i in range(n)]
    lines = tuple(
        Line3(pts[i], Dir3.between(pts[i], pts[(i + 1) % n])) for i in range(n)
    )
    fam = LineFamily(lines, n, 3, {"kind": "base-odd-cycle", "n": n})
    return recursion.checked_base(fam)


# ---------------------------------------------------------------------------
# transversal frames


@dataclass(frozen=True)
class TransversalFrame:
    """A plane crossed by every family line at a distinct point, an axis
    line inside it with all crossing points projecting to distinct axis
    parameters, and the in-plane perpendicular direction."""

    plane: Plane3
    axis: Line3
    perp: Dir3

    def param_of(self, p: Point3) -> Rat:
        d = self.axis.dir.as_tuple()
        return dot(vsub(p.as_tuple(), self.axis.base.as_tuple()), d) / dot(d, d)


def _canonical_dirs():
    """All canonical rational directions representable by integer vectors
    of height at most FRAME_HEIGHT, ordered (height, then lexicode)."""
    seen: set = set()
    for h in range(1, FRAME_HEIGHT + 1):
        batch = []
        for v in itertools.product(range(-h, h + 1), repeat=3):
            if v == (0, 0, 0) or max(abs(c) for c in v) != h:
                continue
            t = Dir3.of(*v).as_tuple()
            if t not in seen:
                seen.add(t)
                batch.append(t)
        batch.sort()
        for t in batch:
            yield Dir3(*t)


def _offsets():
    yield Fraction(0)
    k = 1
    while True:
        yield Fraction(k)
        yield Fraction(-k)
        k += 1


def frame_conditions(frame: TransversalFrame, lines) -> list[str]:
    """The failed genericity conditions (empty when the frame is valid):
    (1) every line transversal, (2) distinct crossing points, (3) distinct
    axis projections, (4) for every non-parallel direction pair (d, d*),
    (normal x (d x d*)) . axis-dir is nonzero."""
    failures = []
    nvec = frame.plane.normal.as_tuple()
    dvec = frame.axis.dir.as_tuple()
    hits = []
    for l in lines:
        meet = line_plane_meet(l, frame.plane)
        if meet.kind != PlaneRelation.MEET:
            failures.append("transversal")
            return failures
        hits.append(meet.point.as_tuple())
    if len(set(hits)) != len(hits):
        failures.append("distinct-traces")
    if len({dot(h, dvec) for h in hits}) != len(hits):
        failures.append("distinct-projections")
    # canonical directions are parallel only when equal
    dirs = {l.dir.as_tuple() for l in lines}
    if any(dot(cross(nvec, cross(d, e)), dvec) == 0 for d, e in itertools.combinations(dirs, 2)):
        failures.append("parallel-plane-pairs")
    return failures


def choose_frame(fam: LineFamily) -> TransversalFrame:
    """Deterministic enumeration of candidate planes and axis directions,
    accepting the first frame whose four genericity conditions all hold.

    Plane normals and axis directions run over canonical rational
    directions in height order; offsets are chosen directly to dodge the
    finitely many crossing-point collisions.  The search is finite: it
    ends once the directions up to FRAME_HEIGHT run out, with a
    BudgetExhausted that reports which condition kept failing.
    """
    lines = fam.lines
    dirs = [l.dir.as_tuple() for l in lines]
    meets = [line_line_relation(lines[i], lines[j]).point.as_tuple() for i, j in fam.intersection_edges()]
    rejections = {"transversal": 0, "distinct-traces": 0, "distinct-projections": 0, "parallel-plane-pairs": 0}
    for normal in _canonical_dirs():
        nvec = normal.as_tuple()
        if any(dot(nvec, d) == 0 for d in dirs):
            rejections["transversal"] += 1
            continue
        bad_offsets = {dot(nvec, p) for p in meets}
        offset = next(o for o in _offsets() if o not in bad_offsets)
        plane = Plane3(normal, offset)
        for axis_dir in _canonical_dirs():
            if dot(axis_dir.as_tuple(), nvec) != 0:
                continue
            axis = Line3(plane.point_on(), axis_dir)
            frame = TransversalFrame(plane, axis, perp_in_plane(plane, axis))
            failures = frame_conditions(frame, lines)
            if not failures:
                return frame
            for f in failures:
                rejections[f] += 1
    raise BudgetExhausted(f"no frame within height {FRAME_HEIGHT}; rejection counts: {rejections}")


def make_ground_lines(values, frame: TransversalFrame) -> list[Line3]:
    """One line per axis parameter: inside the plane, through the axis
    point, in the perpendicular direction.  Pairwise parallel-disjoint."""
    values = sorted(rat(v) for v in values)
    if len(set(values)) != len(values):
        raise ValueError("ground line parameters must be distinct")
    return [Line3(frame.axis.point_at(x), frame.perp) for x in values]


# ---------------------------------------------------------------------------
# recursion


def _slot(v: Triple, u: Triple, d_n: Triple, d_p: Triple) -> tuple[tuple, int]:
    """Where base v with direction d_n sits against lines of direction d_p
    under slides along u, as (class, whole).  The key of v is
    (v . (d_n x d_p),), or v x d_p when d_n == d_p (canonical directions
    are parallel only when equal); two lines meet or coincide exactly when
    their keys agree.  Keys are linear, so key(v) = r + (whole + frac) *
    key(u) with r[i] = 0 at the first i where key(u)[i] != 0, and class =
    (r, frac): sliding by an integer t adds t to whole.  When key(u) is
    zero, the class is the key.  The split is what makes each tested
    offset one integer lookup: testing key(v) + t * key(u) against the
    placed keys directly is shorter, but builds and hashes a rational
    key per offset, and copies can slide a hundred offsets or more."""
    if d_n == d_p:
        key, step = cross(v, d_p), cross(u, d_p)
    else:
        m = cross(d_n, d_p)
        key, step = (dot(v, m),), (dot(u, m),)
    if not any(step):
        return (key, None), 0
    lam = next(k / s for k, s in zip(key, step) if s)
    whole = math.floor(lam)
    return (tuple(k - lam * s for k, s in zip(key, step)), lam - whole), whole


class _PlacedLines:
    """Placed lines filed by slot per placed direction d_p and (image direction
    d_n, slide direction u); each line once per (d_n, u), when next asked for."""

    def __init__(self, lines=()):
        self._bases: dict[Triple, list[Triple]] = {}  # d_p -> bases
        self._slots: dict[tuple, tuple[dict, int]] = {}  # (d_p, d_n, u) -> (class -> wholes, bases filed)
        self.add(lines)

    def __len__(self) -> int:
        return sum(len(bases) for bases in self._bases.values())

    def add(self, lines) -> None:
        for line in lines:
            self._bases.setdefault(line.dir.as_tuple(), []).append(line.base.as_tuple())

    def slots(self, d_n: Triple, u: Triple):
        """(d_p, class -> wholes of the placed lines of direction d_p) for each d_p."""
        for d_p, bases in self._bases.items():
            classes, filed = self._slots.get((d_p, d_n, u), ({}, 0))
            for base in bases[filed:]:
                cls, whole = _slot(base, u, d_n, d_p)
                classes.setdefault(cls, set()).add(whole)
            self._slots[d_p, d_n, u] = classes, len(bases)
            yield d_p, classes


def forbidden_offsets(images_at_zero, placed: _PlacedLines, frame: TransversalFrame) -> Callable[[int], bool]:
    """An exact membership test for the integer slide offsets at which some
    image line would meet or coincide with an already placed line.

    Sliding an image by t along the frame's perpendicular u adds t to its
    whole and keeps its class (see _slot), so each (image, placed
    direction) pair costs one integer lookup per tested offset.  key(u) is
    nonzero for the parent's direction pairs (the frame's plane-pair
    condition) and for parallel lines (every line crosses the plane).  A
    pair with key(u) zero that is coplanar at offset 0 stays coplanar at
    every offset: that raises ConstructionError here.
    """
    u = frame.perp.as_tuple()
    probes = []
    for img in images_at_zero:
        base, d_n = img.base.as_tuple(), img.dir.as_tuple()
        for d_p, classes in placed.slots(d_n, u):
            cls, whole = _slot(base, u, d_n, d_p)
            if cls not in classes:
                continue
            if cls[1] is None:
                raise ConstructionError("line pair stays coplanar under every slide offset")
            probes.append((whole, classes[cls]))

    def is_forbidden(t: int) -> bool:
        k = int(t)
        if k != t:
            raise ValueError(f"slide offsets are integers, not {t}")
        return any(whole + k in wholes for whole, wholes in probes)

    return is_forbidden


def embed_copy_lines(
    parent: LineFamily,
    frame: TransversalFrame,
    copy: HomotheticCopy,
    offset: Rat,
) -> list[Line3]:
    """The image of the parent under p -> s p + (1 - s) B + h a + offset u,
    where x -> s x + h is the copy's 1-D axis map, B the axis base point,
    a the axis direction and u the in-plane perpendicular: a scaling
    about the axis point the 1-D map fixes (a pure slide along the axis
    when s = 1), then a slide by offset along u.

    Both pieces preserve the plane, so each image line still crosses it at
    one point whose axis parameter is the 1-D map of its parent's; the
    image therefore meets exactly its own ground line.
    """
    scale, h = copy.map.scale, copy.map.shift
    base, a, u = frame.axis.base.as_tuple(), frame.axis.dir.as_tuple(), frame.perp.as_tuple()
    shift = vadd(vadd(vscale(1 - scale, base), vscale(h, a)), vscale(rat(offset), u))
    mapping = Homothety3D(scale, Point3(*shift))
    return [mapping.apply_line(l) for l in parent.lines]


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
    params = [frame.param_of(line_plane_meet(l, frame.plane).point) for l in parent.lines]
    cert = certify(params)
    ground = make_ground_lines(cert.elements, frame)
    copies: list[list[Line3]] = []
    placed = _PlacedLines()
    offsets_used: list[Rat] = []
    for copy in cert.copies:
        baseline = embed_copy_lines(parent, frame, copy, 0)
        is_forbidden = forbidden_offsets(baseline, placed, frame)
        offset = next(o for o in _offsets() if not is_forbidden(o))
        images = baseline if offset == 0 else embed_copy_lines(parent, frame, copy, offset)
        offsets_used.append(offset)
        copies.append(images)
        placed.add(images)
    extra = {"geometry": "lines", "parent_params": params, "offsets": offsets_used}
    return recursion.Placement(parent, cert, ground, copies, extra, LineFamily)


def check_line_structure(fam: LineFamily) -> recursion.StructureReport:
    """Exact structural sweep mirroring the box checks (see
    ``recursion.check_structure``): no two lines identical; ground lines
    pairwise parallel-disjoint; every copy line meets exactly one ground
    line, the one at its own mapped parameter; no cross-copy incidence;
    each copy's internal graph matches the parent's."""
    return recursion.check_structure(fam, _check_line_copies)


def _check_line_copies(report: recursion.StructureReport, fam: LineFamily, edges: recursion.CopyEdges) -> None:
    identical = fam.identical
    report.add(
        "no-identical-lines", identical is None, "" if identical is None else f"pair {identical}"
    )

    # two lines are parallel-disjoint exactly when their rows share the
    # direction d but differ
    ground, rows = edges.ground, fam.rows
    bad_ground = next(
        ((i, j) for i in ground for j in ground if i < j and (rows[i][0] != rows[j][0] or rows[i] == rows[j])),
        None,
    )
    report.add(
        "ground-pairwise-parallel-disjoint",
        bad_ground is None,
        "" if bad_ground is None else f"ground pair {bad_ground}",
    )

    bad = _misplaced_copy_line(fam.provenance, edges)
    report.add(
        "copy-meets-exactly-own-ground",
        bad is None,
        "" if bad is None else f"line {bad[0]} meets ground {bad[1]}, expected [{bad[2]}]",
    )

    cross = edges.cross
    report.add("no-cross-copy-incidences", not cross, "" if not cross else f"cross-copy pair {cross[0]}")


def _misplaced_copy_line(prov: dict, edges: recursion.CopyEdges):
    """The first copy line, in block order, that does not meet exactly the
    ground line at its own mapped parameter, as (line, ground lines met,
    expected ground line); None when every copy line does.  Parent line p
    lies at parent_params[p], the ground set's point of rank r, so copy c
    maps it to c.image[r]; the lines each copy line meets are listed in
    ground order, since ground lines come first."""
    cert = prov["certificate"]
    rank = {t: r for r, t in enumerate(cert.ground.points)}
    ranks = [rank[t] for t in prov["parent_params"]]
    ground_at = dict(zip(cert.elements, edges.ground))
    for copy, members in zip(cert.copies, edges.copies):
        for r, i in zip(ranks, members):
            expected_g = ground_at[copy.image[r]]
            if edges.ground_met[i] != [expected_g]:
                return i, edges.ground_met[i], expected_g
    return None


# ---------------------------------------------------------------------------
# top-level construction


def build_line_family(girth: int, colors: int, policy: ProviderPolicy | None = None) -> LineFamily:
    """A line family with girth >= girth needing at least ``colors``
    colors (see ``recursion.build_family``); bases and iteration mirror
    the box construction."""
    return recursion.build_family(
        girth, colors, policy, (single_line_family, meeting_pair_lines, odd_cycle_lines), recursion_step_lines
    )
