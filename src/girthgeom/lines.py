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

from . import graphs
from .budget import Budget, as_budget
from .errors import BudgetExhausted, ConstructionError
from .gallai import GroundSet, HomotheticCopy, ProviderPolicy, certificate_to_doc
from .geometry import (
    Dir3,
    Homothety3D,
    Line3,
    LineRelation,
    Plane3,
    PlaneRelation,
    Point3,
    Rat,
    Triple,
    cross,
    dot,
    format_rat,
    is_zero,
    line_line_relation,
    line_plane_meet,
    perp_in_plane,
    rat,
    vadd,
    vscale,
    vsub,
)
from .structure import StructureReport


def line_to_doc(line: Line3) -> dict:
    b, d = line.base, line.dir
    return {
        "base": [format_rat(b.x), format_rat(b.y), format_rat(b.z)],
        "dir": [format_rat(d.dx), format_rat(d.dy), format_rat(d.dz)],
    }


def line_from_doc(doc: dict) -> Line3:
    return Line3(Point3.of(*doc["base"]), Dir3.of(*doc["dir"]))


# ---------------------------------------------------------------------------
# fast exact pairwise classification

_KIND_IDENTICAL, _KIND_MEET, _KIND_PARALLEL, _KIND_SKEW = range(4)


def _integer_rows(lines) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """Scale all base points by one common factor (a uniform scaling, which
    preserves every pairwise relation) and each direction by its own, so
    the sweep runs on machine integers."""
    denom = math.lcm(
        *(c.denominator for l in lines for c in l.base.as_tuple()), 1
    )
    rows = []
    for l in lines:
        b = tuple(int(c * denom) for c in l.base.as_tuple())
        d = l.dir.as_tuple()
        dd = math.lcm(*(c.denominator for c in d))
        rows.append((b, tuple(int(c * dd) for c in d)))
    return rows


def _relation_kind(row1, row2) -> int:
    (b1, d1), (b2, d2) = row1, row2
    n = (
        d1[1] * d2[2] - d1[2] * d2[1],
        d1[2] * d2[0] - d1[0] * d2[2],
        d1[0] * d2[1] - d1[1] * d2[0],
    )
    w = (b2[0] - b1[0], b2[1] - b1[1], b2[2] - b1[2])
    if n == (0, 0, 0):
        c = (
            w[1] * d1[2] - w[2] * d1[1],
            w[2] * d1[0] - w[0] * d1[2],
            w[0] * d1[1] - w[1] * d1[0],
        )
        return _KIND_IDENTICAL if c == (0, 0, 0) else _KIND_PARALLEL
    if w[0] * n[0] + w[1] * n[1] + w[2] * n[2] != 0:
        return _KIND_SKEW
    return _KIND_MEET


def _sweep(rows) -> tuple[list[tuple[int, int]], tuple[int, int] | None]:
    """All meeting index pairs in (i, j) order, and the first identical pair or None."""
    meets = []
    identical = None
    for i, row in enumerate(rows):
        for j in range(i + 1, len(rows)):
            kind = _relation_kind(row, rows[j])
            if kind == _KIND_MEET:
                meets.append((i, j))
            elif kind == _KIND_IDENTICAL and identical is None:
                identical = (i, j)
    return meets, identical


def line_intersection_edges(lines) -> list[tuple[int, int]]:
    """All meeting index pairs; identical lines violate the family
    invariant and are fatal."""
    edges, identical = _sweep(_integer_rows(lines))
    if identical is not None:
        raise ConstructionError(f"identical lines in family: {identical[0]}, {identical[1]}")
    return edges


# ---------------------------------------------------------------------------
# families


@dataclass
class LineFamily:
    lines: tuple[Line3, ...]
    claimed_girth: int | None
    claimed_chromatic: int
    provenance: dict = field(default_factory=dict)

    def labels(self) -> list[dict]:
        return [line_to_doc(l) for l in self.lines]

    def intersection_edges(self) -> list[tuple[int, int]]:
        return line_intersection_edges(self.lines)


@dataclass
class ShiftSystem:
    """Lines indexed by ascending value triples from a sampled set, whose
    exact intersection graph is the double shift graph."""

    values: tuple[Rat, ...]
    triples: tuple[tuple[Rat, Rat, Rat], ...]
    lines: tuple[Line3, ...]
    provenance: dict = field(default_factory=dict)

    def labels(self) -> list[list[str]]:
        return [[format_rat(a), format_rat(b), format_rat(c)] for a, b, c in self.triples]

    def intersection_edges(self) -> list[tuple[int, int]]:
        return line_intersection_edges(self.lines)


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


def shift_meeting_point(a, b, c, d) -> Point3:
    """Where the lines of (a,b,c) and (b,c,d) meet: the first evaluated at
    t = cd, which equals the second evaluated at t = ab."""
    a, b, c, d = rat(a), rat(b), rat(c), rat(d)
    return shift_line(a, b, c).point_at(c * d)


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
    return graphs.GeoGraph(triples, edges)


def _shift_adjacent(t1, t2) -> bool:
    return (t1[1], t1[2]) == (t2[0], t2[1]) or (t2[1], t2[2]) == (t1[0], t1[1])


def verify_shift_system(system: ShiftSystem) -> tuple[bool, dict | None]:
    """Exact check that the system's graph is the double shift graph with
    all meets at the designed points and no spurious incidences.

    Returns (True, None) or (False, diagnostic) naming the first bad pair.
    """
    triples = system.triples
    rows = _integer_rows(system.lines)
    for i in range(len(triples)):
        for j in range(i + 1, len(triples)):
            kind = _relation_kind(rows[i], rows[j])
            if _shift_adjacent(triples[i], triples[j]):
                if kind != _KIND_MEET:
                    return False, {"pair": (i, j), "reason": "expected meet"}
                t1, t2 = sorted((triples[i], triples[j]))
                expected = shift_meeting_point(t1[0], t1[1], t1[2], t2[2])
                rel = line_line_relation(system.lines[i], system.lines[j])
                if rel.point != expected:
                    return False, {"pair": (i, j), "reason": "meet at unexpected point"}
            elif kind in (_KIND_MEET, _KIND_IDENTICAL):
                return False, {"pair": (i, j), "reason": "spurious incidence"}
    return True, None


def build_shift_system(n: int, seed: int = 0, max_attempts: int = 64) -> ShiftSystem:
    """Sample a value set deterministically from the seed, build the
    triple lines, and accept only if the exact intersection graph matches
    the double shift graph; otherwise resample, recording the rejection.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rejected = []
    for attempt in range(max_attempts):
        rng = random.Random(seed * 1_000_003 + attempt)
        values = tuple(Fraction(v) for v in sorted(rng.sample(range(1, 40 * n * n + 1), n)))
        triples = tuple(itertools.combinations(values, 3))
        lines = tuple(shift_line(*t) for t in triples)
        system = ShiftSystem(
            values, triples, lines, {"kind": "shift-system", "n": n, "seed": seed, "attempt": attempt}
        )
        ok, diagnostic = verify_shift_system(system)
        if ok:
            system.provenance["rejected_samples"] = rejected
            return system
        rejected.append({"values": [format_rat(v) for v in values], "diagnostic": str(diagnostic)})
    raise ConstructionError(
        f"no valid sample within {max_attempts} attempts", {"rejected": rejected}
    )


# ---------------------------------------------------------------------------
# base families


def single_line_family() -> LineFamily:
    return LineFamily((Line3(Point3.of(0, 0, 0), Dir3.of(1, 0, 0)),), None, 1, {"kind": "base-single"})


def meeting_pair_lines() -> LineFamily:
    """Two lines through the origin along the x and y axes."""
    a = Line3(Point3.of(0, 0, 0), Dir3.of(1, 0, 0))
    b = Line3(Point3.of(0, 0, 0), Dir3.of(0, 1, 0))
    fam = LineFamily((a, b), None, 2, {"kind": "base-pair"})
    if fam.intersection_edges() != [(0, 1)]:
        raise ConstructionError("pair base is not a single edge")
    return fam


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
    got = graphs.intersection_graph(fam)
    same, witness = graphs.graph_equals_expected(got, graphs.cycle_graph(n), list(range(n)))
    if not same:
        raise ConstructionError(f"odd cycle line realization failed for n={n}", witness)
    return fam


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

    def point_at(self, t: Rat) -> Point3:
        return self.axis.point_at(rat(t))

    def param_of(self, p: Point3) -> Rat:
        d = self.axis.dir.as_tuple()
        return dot(vsub(p.as_tuple(), self.axis.base.as_tuple()), d) / dot(d, d)


def _canonical_dirs(max_height: int):
    """All canonical rational directions representable by integer vectors
    of bounded height, deterministically ordered (height, then lexicode)."""
    seen: set = set()
    for h in range(1, max_height + 1):
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
    if len({h for h in hits}) != len(hits):
        failures.append("distinct-traces")
    for i in range(len(hits)):
        for j in range(i + 1, len(hits)):
            if dot(vsub(hits[i], hits[j]), dvec) == 0:
                failures.append("distinct-projections")
                break
        else:
            continue
        break
    dirs = [l.dir.as_tuple() for l in lines]
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            m = cross(dirs[i], dirs[j])
            if is_zero(m):
                continue
            if dot(cross(nvec, m), dvec) == 0:
                failures.append("parallel-plane-pairs")
                return failures
    return failures


def choose_frame(fam: LineFamily, budget: Budget | int | None = None, max_height: int = 8) -> TransversalFrame:
    """Deterministic enumeration of candidate planes and axis directions,
    accepting the first frame whose four genericity conditions all hold.

    Plane normals and axis directions run over canonical rational
    directions in height order; offsets are chosen directly to dodge the
    finitely many crossing-point collisions.  On exhaustion, the error
    reports which condition kept failing.
    """
    budget = as_budget(budget, label="frame search")
    lines = fam.lines
    dirs = [l.dir.as_tuple() for l in lines]
    meets = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            rel = line_line_relation(lines[i], lines[j])
            if rel.kind == LineRelation.MEET:
                meets.append(rel.point.as_tuple())
            elif rel.kind == LineRelation.IDENTICAL:
                raise ConstructionError(f"identical lines in family: {i}, {j}")
    rejections = {"transversal": 0, "distinct-traces": 0, "distinct-projections": 0, "parallel-plane-pairs": 0}
    for normal in _canonical_dirs(max_height):
        budget.spend()
        nvec = normal.as_tuple()
        if any(dot(nvec, d) == 0 for d in dirs):
            rejections["transversal"] += 1
            continue
        bad_offsets = {dot(nvec, p) for p in meets}
        offset = next(o for o in _offsets() if o not in bad_offsets)
        plane = Plane3(normal, offset)
        for axis_dir in _canonical_dirs(max_height):
            if dot(axis_dir.as_tuple(), nvec) != 0:
                continue
            budget.spend()
            axis = Line3(plane.point_on(), axis_dir)
            frame = TransversalFrame(plane, axis, perp_in_plane(plane, axis))
            failures = frame_conditions(frame, lines)
            if not failures:
                return frame
            for f in failures:
                rejections[f] += 1
    raise BudgetExhausted(
        f"no frame within height {max_height}; rejection counts: {rejections}",
        used=budget.used,
        limit=budget.max_nodes,
    )


def make_ground_lines(values, frame: TransversalFrame) -> list[Line3]:
    """One line per axis parameter: inside the plane, through the axis
    point, in the perpendicular direction.  Pairwise parallel-disjoint."""
    values = sorted(rat(v) for v in values)
    if len(set(values)) != len(values):
        raise ValueError("ground line parameters must be distinct")
    return [Line3(frame.point_at(x), frame.perp) for x in values]


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
    zero, the class is the key."""
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
    avoid=(),
) -> list[Line3]:
    """The image of the parent under the 3-D realization of the copy's 1-D
    axis map (scaling about its fixed point on the axis, or a pure slide
    along the axis), then translated by offset along the perpendicular.

    Both pieces preserve the plane, so each image line still crosses it at
    one point whose axis parameter is the 1-D map of its parent's; the
    image therefore meets exactly its own ground line.  If any image line
    meets or coincides with a line in ``avoid``, the offset is in the
    forbidden set and the call fails so the caller can retry.
    """
    offset = rat(offset)
    scale = copy.map.scale
    axis_vec = frame.axis.dir.as_tuple()
    perp_vec = frame.perp.as_tuple()
    if scale == 1:
        shift = vadd(vscale(copy.map.shift, axis_vec), vscale(offset, perp_vec))
    else:
        center = frame.point_at(copy.map.fixed_point()).as_tuple()
        shift = vadd(vscale(1 - scale, center), vscale(offset, perp_vec))
    mapping = Homothety3D(scale, Point3(*shift))
    images = [mapping.apply_line(l) for l in parent.lines]
    if avoid and forbidden_offsets(images, _PlacedLines(avoid), frame)(0):
        raise ConstructionError(f"offset {offset} conflicts with an already placed line")
    return images


def recursion_step_lines(
    parent: LineFamily,
    colors: int,
    girth: int,
    provider,
    verify_parent: bool = True,
    budget: Budget | int | None = None,
) -> LineFamily:
    """One chromatic lift in the line geometry: parallel ground lines in a
    transversal plane at the certificate elements, plus one scaled-and-slid
    copy of the parent per certificate copy, with slide offsets chosen to
    forbid any cross-copy incidence.  All structural claims are asserted
    exactly before returning."""
    parent_graph = graphs.intersection_graph(parent)
    parent_girth = graphs.girth(parent_graph)
    if parent_girth < girth:
        raise ConstructionError(f"parent girth {parent_girth} is below the target {girth}")
    if verify_parent and colors > 1:
        budget = as_budget(budget, label="parent chromatic verification")
        refutation = graphs.is_k_colorable(parent_graph, colors - 1, budget)
        if refutation.status == "colorable":
            raise ConstructionError(
                f"parent admits a {colors - 1}-coloring; it does not need {colors} colors"
            )
        if refutation.status == "inconclusive":
            raise ConstructionError(
                f"could not verify the parent needs {colors} colors within budget"
            )

    frame = choose_frame(parent)
    params = []
    for l in parent.lines:
        meet = line_plane_meet(l, frame.plane)
        params.append(frame.param_of(meet.point))
    ground_set = GroundSet.of(params)
    cert = provider(ground_set, colors, girth)

    ground = make_ground_lines(cert.elements, frame)
    lines: list[Line3] = list(ground)
    copy_blocks: list[list[int]] = []
    placed = _PlacedLines()
    offsets_used: list[Rat] = []
    for copy in cert.copies:
        baseline = embed_copy_lines(parent, frame, copy, 0)
        is_forbidden = forbidden_offsets(baseline, placed, frame)
        offset = next(o for o in _offsets() if not is_forbidden(o))
        images = baseline if offset == 0 else embed_copy_lines(parent, frame, copy, offset)
        offsets_used.append(offset)
        start = len(lines)
        lines.extend(images)
        copy_blocks.append(list(range(start, start + len(images))))
        placed.add(images)

    lift_certified = cert.flags.all_true()
    out = LineFamily(
        tuple(lines),
        girth,
        colors + 1 if lift_certified else colors,
        {
            "kind": "recursion",
            "geometry": "lines",
            "girth_param": girth,
            "colors_before": colors,
            "blocks": {"ground": list(range(len(ground))), "copies": copy_blocks},
            "parent_edges": [list(e) for e in sorted(parent_graph.edges)],
            "parent_size": len(parent.lines),
            "parent_params": [format_rat(t) for t in params],
            "offsets": [format_rat(o) for o in offsets_used],
            "certificate": certificate_to_doc(cert),
            "chromatic_lift_certified": lift_certified,
            "parent": parent.provenance,
        },
    )
    report = check_line_structure(out)
    if not report.ok:
        fail = report.first_failure()
        raise ConstructionError(f"structural assertion failed: {fail.name}", fail.detail)

    out_girth = graphs.girth(graphs.intersection_graph(out))
    floor_bound = min(parent_girth, 3 * math.ceil(girth / 3))
    if out_girth < floor_bound:
        raise ConstructionError(
            f"girth lift violated: got {out_girth}, expected at least {floor_bound}"
        )
    return out


def check_line_structure(fam: LineFamily) -> StructureReport:
    """Exact structural sweep mirroring the box checks: ground lines
    pairwise parallel-disjoint; every copy line meets exactly one ground
    line, the one at its own mapped parameter; no cross-copy incidence;
    each copy's internal graph matches the parent's."""
    report = StructureReport()
    prov = fam.provenance
    kind = prov.get("kind")
    if kind == "recursion":
        _check_line_recursion(report, fam, prov)
    elif kind == "base-odd-cycle":
        got = graphs.intersection_graph(fam)
        same, witness = graphs.graph_equals_expected(
            got, graphs.cycle_graph(prov["n"]), list(range(prov["n"]))
        )
        report.add("graph-equals-cycle", same, "" if same else str(witness))
    elif kind == "base-pair":
        report.add("graph-is-single-edge", fam.intersection_edges() == [(0, 1)])
    elif kind == "base-single":
        report.add("graph-is-single-vertex", fam.intersection_edges() == [])
    else:
        report.add("structure-model", True, "no construction model; invariants only")
    return report


def _check_line_recursion(report: StructureReport, fam: LineFamily, prov: dict) -> None:
    ground = prov["blocks"]["ground"]
    copy_blocks = [list(c) for c in prov["blocks"]["copies"]]
    owner = {}
    for ci, members in enumerate(copy_blocks):
        for i in members:
            owner[i] = ci
    rows = _integer_rows(fam.lines)
    meets, identical = _sweep(rows)
    report.add(
        "no-identical-lines", identical is None, "" if identical is None else f"pair {identical}"
    )
    meet_set = set(meets)

    bad_ground = next(
        (
            (i, j)
            for i in ground
            for j in ground
            if i < j and _relation_kind(rows[i], rows[j]) != _KIND_PARALLEL
        ),
        None,
    )
    report.add(
        "ground-pairwise-parallel-disjoint",
        bad_ground is None,
        "" if bad_ground is None else f"ground pair {bad_ground}",
    )

    cert = prov["certificate"]
    elements = [rat(x) for x in cert["elements"]]
    element_index = {x: gi for gi, x in zip(ground, elements)}
    parent_params = [rat(t) for t in prov["parent_params"]]
    copies = cert["copies"]

    bad = None
    for ci, members in enumerate(copy_blocks):
        scale, shift = rat(copies[ci]["scale"]), rat(copies[ci]["shift"])
        for p, i in enumerate(members):
            expected_value = scale * parent_params[p] + shift
            expected_g = element_index[expected_value]
            met = [g for g in ground if (min(g, i), max(g, i)) in meet_set]
            if met != [expected_g]:
                bad = (i, met, expected_g)
                break
        if bad:
            break
    report.add(
        "copy-meets-exactly-own-ground",
        bad is None,
        "" if bad is None else f"line {bad[0]} meets ground {bad[1]}, expected [{bad[2]}]",
    )

    # the first cross-copy meeting pair in block order
    rank = {i: r for r, i in enumerate(owner)}
    cross_pair = min(
        (p for p in meets if p[0] in owner and p[1] in owner and owner[p[0]] != owner[p[1]]),
        key=lambda p: (rank[p[0]], rank[p[1]]),
        default=None,
    )
    report.add(
        "no-cross-copy-incidences",
        cross_pair is None,
        "" if cross_pair is None else f"cross-copy pair {cross_pair}",
    )

    parent_edges = {tuple(e) for e in prov["parent_edges"]}
    bad_block = None
    for ci, members in enumerate(copy_blocks):
        pos = {v: p for p, v in enumerate(members)}
        got = set()
        for ii in members:
            for jj in members:
                if ii < jj and (ii, jj) in meet_set:
                    got.add(tuple(sorted((pos[ii], pos[jj]))))
        if got != parent_edges:
            bad_block = (ci, sorted(got ^ parent_edges)[:1])
            break
    report.add(
        "copy-graph-matches-parent",
        bad_block is None,
        "" if bad_block is None else f"copy {bad_block[0]} differs at {bad_block[1]}",
    )


# ---------------------------------------------------------------------------
# top-level construction


def build_line_family(girth: int, colors: int, policy: ProviderPolicy | None = None) -> LineFamily:
    """A line family with girth >= girth needing at least ``colors``
    colors (certified when the certificates verify); bases and iteration
    mirror the box construction."""
    if girth < 3 or colors < 1:
        raise ValueError("need girth >= 3 and colors >= 1")
    policy = policy or ProviderPolicy()
    if colors == 1:
        return single_line_family()
    if colors == 2:
        return meeting_pair_lines()
    if policy.name == "pigeonhole":
        fam = meeting_pair_lines()
        start = 2
    else:
        n = max(5, girth)
        if n % 2 == 0:
            n += 1
        fam = odd_cycle_lines(n)
        start = 3
    for k in range(start, colors):
        provider = policy.provider()
        fam = recursion_step_lines(fam, k, girth, provider, budget=policy.chroma_budget)
    return fam
