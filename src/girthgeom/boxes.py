"""Grounded square boxes: axis-aligned boxes with square horizontal
cross-section touching the x = y plane along one vertical edge, lying in
the half-space x >= y.

Two such boxes intersect iff their trace distance is at most the smaller
side and their vertical extents overlap, which is what makes the cycle
bases and the certificate-driven recursion work.  Every construction here
re-verifies its own structural claims exactly before returning.

A family keeps its boxes on one integer grid, a common denominator and
one row of six integers per box, and builds, checks, sweeps and writes
them as rows; box objects are views made on demand.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, insort
from fractions import Fraction
from functools import partial

from . import recursion
from .budget import Budget
from .errors import ConstructionError
from .gallai import GallaiCertificate, ProviderPolicy
from .geometry import Box3, Rat, Value, format_ratio, grid_maps, rat, to_grid

Row = tuple[int, int, int, int, int, int]  # (xlo, xhi, ylo, yhi, zlo, zhi), each times the grid's denominator


def _fault(xlo, xhi, ylo, yhi, zlo, zhi) -> str | None:
    """The first grounded-square check the bounds (rationals or grid integers) fail, or None."""
    if xlo != yhi:
        return "box does not touch the x = y plane in an edge"
    if not xhi - xlo == yhi - ylo > 0:
        return "horizontal cross-section must be a non-degenerate square"
    if not zlo < zhi:
        return "box must have non-empty interior"


class GroundedSquareBox(Value):
    """A closed box [t, t+s] x [t-s, t] x [zlo, zhi] with side s > 0.

    The minimum x equals the maximum y, so the box touches the plane
    x = y exactly in the vertical edge above (t, t); every interior point
    has x > y.  The trace is that contact coordinate t.
    """

    compared = ("box",)

    def __init__(self, box: Box3):
        if fault := _fault(*_bounds(box)):
            raise ValueError(fault)
        self.box = box


def _bounds(b: Box3) -> tuple[Rat, ...]:
    return b.xr.lo, b.xr.hi, b.yr.lo, b.yr.hi, b.zr.lo, b.zr.hi


# ---------------------------------------------------------------------------
# families


class BoxFamily(recursion.Family):
    """Grounded square boxes (see ``recursion.Family``): box i has the
    bounds ``rows[i]`` divided by ``den``, the least common denominator of
    all bounds; ``boxes`` makes them as objects."""

    def __init__(self, boxes, claimed_girth, claimed_chromatic, provenance=None, den=None):
        """The family of the grounded square boxes ``boxes`` or, given ``den``,
        of the rows ``boxes`` on that grid, each a grounded square box."""
        den, rows = to_grid([_bounds(b.box) for b in boxes]) if den is None else (den, boxes)
        for i, row in enumerate(rows):
            if fault := _fault(*row):
                raise ValueError(f"boxes[{i}]: {fault}")
        common = math.gcd(den, *itertools.chain.from_iterable(rows))  # keep den least, so equal families are equal
        rows = tuple(rows) if common == 1 else tuple(tuple(v // common for v in row) for row in rows)
        vars(self).update(den=den // common, rows=rows, claimed_girth=claimed_girth,
                          claimed_chromatic=claimed_chromatic, provenance={} if provenance is None else provenance,
                          meets=box_intersection_edges(rows))

    @property
    def boxes(self) -> tuple[GroundedSquareBox, ...]:
        """The boxes as objects, made anew on each call."""
        return tuple(GroundedSquareBox(Box3.from_bounds(*(Fraction(v, self.den) for v in row))) for row in self.rows)

    def traces(self) -> list[Rat]:
        return [Fraction(row[0], self.den) for row in self.rows]

    kind, key = "grounded-box-family", "boxes"
    entries = tuple((axis, j) for axis in "xyz" for j in range(2))  # the rationals labels writes, in row order
    grid = staticmethod(to_grid)

    def labels(self) -> list[dict]:
        """Each box's bounds as "p/q" strings, each distinct value formatted once."""
        text = {v: format_ratio(v, self.den) for v in set(itertools.chain.from_iterable(self.rows))}
        return [{"x": [text[a], text[b]], "y": [text[c], text[d]], "z": [text[e], text[f]]}
                for a, b, c, d, e, f in self.rows]

    def structure(self) -> recursion.StructureReport:
        return check_box_structure(self)


def box_intersection_edges(rows) -> list[tuple[int, int]]:
    """All intersecting index pairs of the grid rows ``rows``, in (i, j)
    order, decided exactly.

    The sweep visits the boxes by rising z-low and keeps those whose
    z-range still reaches it in a heap keyed by z-high.  Grounded squares
    meet in x and y exactly when their traces are at most the smaller side
    apart (``BoxFamily`` refuses other rows), so the active boxes of side
    s are filed by class c = s.bit_length(), sorted by trace, and a box
    reads class c only within min(s, 2^c) of its trace.  Copies sit in
    disjoint z-slots (``plan_embeddings``), so the work follows the output.
    """
    active: list[tuple] = []  # heap of (z-high, (trace, side, index), the list of its class)
    classes: dict[int, list] = {}  # 2^c -> the (trace, side, index) of class c, sorted
    edges = []
    for i in sorted(range(len(rows)), key=[row[4] for row in rows].__getitem__):
        t, xh, _, _, zl, zh = rows[i]
        s = xh - t
        while active and active[0][0] < zl:  # strict: boxes are closed, so touching z-faces meet
            _, box, members = heapq.heappop(active)
            del members[bisect_left(members, box)]
            if not members:  # an empty class would still be read
                del classes[1 << box[1].bit_length()]
        for bound, members in classes.items():
            reach = min(s, bound)
            for t2, s2, j in members[bisect_left(members, (t - reach,)):bisect_left(members, (t + reach + 1,))]:
                if -s2 <= t - t2 <= s2:  # and |t - t2| <= reach <= s
                    edges.append((j, i) if j < i else (i, j))
        members = classes.setdefault(1 << s.bit_length(), [])
        insort(members, (t, s, i))
        heapq.heappush(active, (zh, (t, s, i), members))
    edges.sort()
    return edges


# ---------------------------------------------------------------------------
# base families


def _square(t: int, s: int, zlo: int, zhi: int) -> Row:
    """The row of the box [t, t+s] x [t-s, t] x [zlo, zhi]: trace t, side s."""
    return (t, t + s, t - s, t, zlo, zhi)


def single_box_family() -> BoxFamily:
    return BoxFamily([_square(0, 1, 0, 1)], None, 1, {"kind": "base-single"}, den=1)


def meeting_pair_family() -> BoxFamily:
    """Two overlapping grounded square boxes: the smallest base whose
    intersection graph needs two colors."""
    rows = [_square(0, 2, 0, 1), _square(1, 2, 0, 1)]
    return recursion.checked_base(BoxFamily(rows, None, 2, {"kind": "base-pair"}, den=1))


def odd_cycle_boxes(n: int) -> BoxFamily:
    """Realize the n-cycle (n odd, >= 5) as grounded square boxes.

    Vertices 0..n-2 sit on a path of traces 0, 10, ..., 10(n-2): interior
    boxes are small so only consecutive traces are within reach, and the
    wide end boxes are kept apart by distance.  Vertex n-1 closes the
    cycle from the midpoint trace; its vertical extent meets only the two
    end boxes, which kills every chord through it.  The resulting edge set
    is checked against the abstract cycle before returning.
    """
    if n < 5 or n % 2 == 0:
        raise ValueError("need an odd cycle length of at least 5")
    far = 5 * (n - 2)
    path = [_square(10 * i, max(15, far), 0, 20) if i in (0, n - 2) else _square(10 * i, 10, 0, 10) for i in range(n - 1)]
    fam = BoxFamily([*path, _square(far, max(20, far), 15, 20)], n, 3, {"kind": "base-odd-cycle", "n": n}, den=1)
    return recursion.checked_base(fam)


# ---------------------------------------------------------------------------
# recursion machinery


def make_ground_boxes(values, eps) -> tuple[int, list[Row]]:
    """One thin box [x, x+eps] x [x-eps, x] x [0, 1] per value, as grid rows
    with the grid's denominator; requires 0 < eps strictly below the least
    gap so the boxes stay disjoint."""
    values = sorted(rat(v) for v in values)
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    gaps = [b - a for a, b in zip(values, values[1:])]
    if gaps and eps >= min(gaps):
        raise ValueError(f"eps {eps} is not below the least value gap {min(gaps)}")
    den, (ints,) = to_grid([[*values, eps]])  # every bound is a value plus or minus eps, so this is their grid
    return den, [_square(x, ints[-1], 0, den) for x in ints[:-1]]


def plan_embeddings(parent: BoxFamily, cert: GallaiCertificate) -> list[tuple[tuple, tuple, tuple]]:
    """Each copy with its map (``map_ratios``) and its map of heights, as
    the integers (a, b, c, d) of scale a / b and shift c / d, which puts
    the parent's full vertical extent onto the copy's own slot: [0, 1] cut
    into equal closed slots, each shrunk at both ends by a quarter of its
    length."""
    count = len(cert.copies)
    zlo, zhi = min(row[4] for row in parent.rows), max(row[5] for row in parent.rows)
    height = zhi - zlo  # z / den -> (z - zlo) / (2 count height) + (4 j + 1) / (4 count): slots of length 1 / (2 count)
    return [(copy, m, (parent.den, 2 * count * height, (4 * j + 1) * height - 2 * zlo, 4 * count * height))
            for j, (copy, m) in enumerate(zip(cert.copies, cert.map_ratios()))]


def embed_copy_boxes(parent: BoxFamily, embeddings, ground_den: int, ground: list[Row]) -> tuple[int, list[list[Row]]]:
    """The parent's image under each embedding (a copy's positions among
    the ``ground`` rows, its map, which acts on x and y, and a map of
    heights, each as ``plan_embeddings`` gives them) as rows on one grid:
    the least multiple of ``ground_den`` on which every map is integer
    affine on the parent's rows.  The traces a copy places must be those
    of the ground rows at its positions."""
    grid, maps = grid_maps([m for _, horizontal, vertical in embeddings for m in (horizontal, vertical)],
                           parent.den, ground_den)
    traces = sorted({row[0] for row in parent.rows})
    out = []
    for (copy, _, _), (a, b), (s, t) in zip(embeddings, maps[::2], maps[1::2]):
        mapped, image = [a * u + b for u in traces], [ground[p][0] * (grid // ground_den) for p in copy]
        if mapped != image:
            raise ConstructionError("copy domain mismatch: parent traces do not map onto the copy image",
                                    {"grid": grid, "mapped": mapped, "image": image})
        out.append([(a * xl + b, a * xh + b, a * yl + b, a * yh + b, s * zl + t, s * zh + t)
                    for xl, xh, yl, yh, zl, zh in parent.rows])
    return grid, out


def normalize_traces(fam: BoxFamily) -> BoxFamily:
    """Make all traces pairwise distinct without changing the graph.

    Whole blocks (the ground boxes, each embedded copy) are slid rigidly
    along the x = y diagonal by distinct offsets below half the least
    critical quantity, so every strict overlap, gap, and grazing contact
    survives.  The graph is re-swept afterwards and must match exactly.
    """
    rows = fam.rows
    traces = [row[0] for row in rows]
    if len(set(traces)) == len(traces):
        return fam
    # rigid blocks: a recursion output's ground boxes and each of its copies; otherwise each box alone
    prov = fam.provenance
    blocks = (recursion.block_layout(prov["certificate"]) if prov.get("kind") == "recursion"
              else [[i] for i in range(len(rows))])
    block_of = {i: bi for bi, members in enumerate(blocks) for i in members}

    critical = [abs(a - b) for a, b in itertools.combinations(traces, 2) if a != b]
    for i, j in itertools.combinations(range(len(rows)), 2):
        if block_of[i] != block_of[j]:
            (xl, xh, yl, yh, _, _), (xl2, xh2, yl2, yh2, _, _) = rows[i], rows[j]
            critical += (abs(q) for q in (xh - xl2, xh2 - xl, yh - yl2, yh2 - yl) if q != 0)
    if not critical:
        raise ConstructionError("cannot normalize traces: no safe perturbation size exists")
    # the quantum min(critical) / (den * spread) is one unit of a grid spread times finer
    spread = 2 * (len(blocks) + 1)
    quantum = min(critical)

    used: set[int] = set()
    shifted: list[Row | None] = [None] * len(rows)
    for members in blocks:
        own = [traces[i] * spread for i in members]
        for j in range(len(blocks) + 1):
            delta = j * quantum
            if all(t + delta not in used for t in own):
                break
        else:
            raise ConstructionError("trace normalization ran out of offsets")
        used.update(t + delta for t in own)
        for i in members:  # along the x = y diagonal, which keeps each box grounded
            xl, xh, yl, yh, zl, zh = (v * spread for v in rows[i])
            shifted[i] = (xl + delta, xh + delta, yl + delta, yh + delta, zl, zh)

    if len(used) != len(rows):
        raise ConstructionError("trace normalization left duplicate traces")
    out = BoxFamily(shifted, fam.claimed_girth, fam.claimed_chromatic, {**fam.provenance, "traces_normalized": True},
                    den=fam.den * spread)
    if out.meets != fam.meets:
        raise ConstructionError("trace normalization changed the intersection graph")
    return out


def recursion_step_boxes(
    parent: BoxFamily,
    colors: int,
    girth: int,
    provider,
    budget: Budget | None = None,
) -> BoxFamily:
    """One chromatic lift (see ``recursion.lift``): thin ground boxes at the
    certificate elements plus one scaled copy of the parent per
    certificate copy, each in its own z-slot.  The parent's traces are
    made pairwise distinct first."""
    return recursion.lift(parent, colors, girth, provider, budget, _place_boxes)


def _place_boxes(parent: BoxFamily, certify) -> recursion.Placement:
    parent = normalize_traces(parent)
    cert = certify(parent.traces())
    elements = cert.elements
    eps = min((b - a for a, b in zip(elements, elements[1:])), default=Fraction(1)) / 3
    ground_den, ground = make_ground_boxes(elements, eps)
    den, copies = embed_copy_boxes(parent, plan_embeddings(parent, cert), ground_den, ground)
    ground = [tuple(v * (den // ground_den) for v in row) for row in ground]
    return recursion.Placement(parent, cert, ground, copies, {}, partial(BoxFamily, den=den))


def check_box_structure(fam: BoxFamily) -> recursion.StructureReport:
    """Exact structural sweep of a family against its construction model
    (see ``recursion.check_structure``): a recursion output's graph must
    be its model, with every copy box on the ground box at its own trace,
    and a base's its kind's graph."""
    return recursion.check_structure(fam, _check_box_copies)


def _check_box_copies(report: recursion.StructureReport, fam: BoxFamily, faults: dict[str, str]) -> None:
    report.add("ground-pairwise-disjoint", "ground" not in faults, faults.get("ground", ""))
    report.add("copy-meets-exactly-one-ground", "count" not in faults, faults.get("count", ""))
    if "count" not in faults:  # a copy box on the ground box at another trace fails before its ranks are read
        rows, meets, m = fam.rows, fam.meets, len(fam.provenance["certificate"].elements)
        off = min(((v, rows[g][0]) for g, v in meets[:bisect_left(meets, (m,))] if v >= m and rows[g][0] != rows[v][0]),
                  default=None)
        detail = (faults.get("placed", "") if off is None
                  else f"box {off[0]} meets ground box at trace {Fraction(off[1], fam.den)}")
        report.add("copy-meets-own-ground", not detail, detail)
    report.add("no-cross-copy-intersections", "cross" not in faults, faults.get("cross", ""))


# ---------------------------------------------------------------------------
# top-level construction


def build_box_family(girth: int, colors: int, policy: ProviderPolicy | None = None) -> BoxFamily:
    """A grounded square box family with girth >= girth whose graph needs
    at least ``colors`` colors (see ``recursion.build_family``)."""
    return recursion.build_family(
        girth, colors, policy, (single_box_family, meeting_pair_family, odd_cycle_boxes), recursion_step_boxes
    )
