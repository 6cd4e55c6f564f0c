"""Grounded square boxes: axis-aligned boxes with square horizontal
cross-section touching the x = y plane along one vertical edge, lying in
the half-space x >= y.

Two such boxes intersect iff their trace distance is at most the smaller
side and their vertical extents overlap, which is what makes the cycle
bases and the certificate-driven recursion work.  Every construction here
re-verifies its own structural claims exactly before returning.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import recursion
from .budget import Budget
from .errors import ConstructionError
from .gallai import GallaiCertificate, HomotheticCopy, ProviderPolicy
from .geometry import AxisMap3, Box3, Homothety1D, Interval, Rat, format_rat, integer_rows, rat


@dataclass(frozen=True)
class GroundedSquareBox:
    """A closed box [t, t+s] x [t-s, t] x [zlo, zhi] with side s > 0.

    The minimum x equals the maximum y, so the box touches the plane
    x = y exactly in the vertical edge above (t, t); every interior point
    has x > y.  The trace is that contact coordinate t.
    """

    box: Box3

    def __post_init__(self):
        x, y, z = self.box.xr, self.box.yr, self.box.zr
        if x.lo != y.hi:
            raise ValueError("box does not touch the x = y plane in an edge")
        if x.lo == x.hi or x.length != y.length:
            raise ValueError("horizontal cross-section must be a non-degenerate square")
        if z.lo == z.hi:
            raise ValueError("box must have non-empty interior")

    @classmethod
    def of(cls, trace, side, zlo, zhi) -> "GroundedSquareBox":
        t, s = rat(trace), rat(side)
        return cls(Box3.from_bounds(t, t + s, t - s, t, zlo, zhi))

    @property
    def trace(self) -> Rat:
        return self.box.xr.lo

    @property
    def side(self) -> Rat:
        return self.box.xr.length


def box_to_doc(b: GroundedSquareBox) -> dict:
    bb = b.box
    return {
        "x": [format_rat(bb.xr.lo), format_rat(bb.xr.hi)],
        "y": [format_rat(bb.yr.lo), format_rat(bb.yr.hi)],
        "z": [format_rat(bb.zr.lo), format_rat(bb.zr.hi)],
    }


def box_from_doc(doc: dict, read=rat) -> GroundedSquareBox:
    return GroundedSquareBox(Box3(*(Interval(read(lo), read(hi)) for lo, hi in (doc["x"], doc["y"], doc["z"]))))


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class BoxFamily:
    """A finite collection of grounded square boxes with its claimed graph
    properties.  Claims are never trusted: girth and chromatic number are
    recomputed exactly whenever they matter, from the one intersection
    sweep the family makes of itself (``meets``)."""

    boxes: tuple[GroundedSquareBox, ...]
    claimed_girth: int | None  # None: the construction claims no finite cycle
    claimed_chromatic: int
    provenance: dict = field(default_factory=dict)
    # all intersecting index pairs in (i, j) order, swept once when the family is made
    meets: list[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "meets", box_intersection_edges(self.boxes))

    def __len__(self) -> int:
        return len(self.boxes)

    def traces(self) -> list[Rat]:
        return [b.trace for b in self.boxes]

    def labels(self) -> list[dict]:
        return [box_to_doc(b) for b in self.boxes]

    def intersection_edges(self) -> list[tuple[int, int]]:
        return self.meets

    def structure(self) -> recursion.StructureReport:
        return check_box_structure(self)

    def blocks(self) -> list[list[int]]:
        """Rigid sub-collections for trace perturbation: the ground boxes
        as one block and each embedded copy as one block; otherwise every
        box is its own block."""
        prov = self.provenance
        if prov.get("kind") == "recursion":
            return [list(prov["blocks"]["ground"])] + [list(c) for c in prov["blocks"]["copies"]]
        return [[i] for i in range(len(self.boxes))]


def box_intersection_edges(boxes) -> list[tuple[int, int]]:
    """All intersecting index pairs in (i, j) order, decided exactly.

    Coordinates are moved onto a common integer grid first
    (``integer_rows``).  The sweep visits the boxes by rising z-low and
    keeps those whose z-range still reaches it in a heap keyed by z-high;
    only these are tested in x and y.  The copies of a recursion step sit
    in disjoint z-slots (``plan_embeddings``), so the work follows the
    output, not the number of pairs.
    """
    rows = integer_rows([(b.xr.lo, b.xr.hi, b.yr.lo, b.yr.hi, b.zr.lo, b.zr.hi) for b in (gb.box for gb in boxes)])
    active: list[tuple[int, ...]] = []  # heap of (z-high, index, x-low, x-high, y-low, y-high)
    edges = []
    for i in sorted(range(len(rows)), key=lambda i: rows[i][4]):
        xl, xh, yl, yh, zl, zh = rows[i]
        while active and active[0][0] < zl:  # strict: boxes are closed, so touching z-faces meet
            heapq.heappop(active)
        for _, j, xl2, xh2, yl2, yh2 in active:
            if xl <= xh2 and xl2 <= xh and yl <= yh2 and yl2 <= yh:
                edges.append((min(i, j), max(i, j)))
        heapq.heappush(active, (zh, i, xl, xh, yl, yh))
    edges.sort()
    return edges


# ---------------------------------------------------------------------------
# base families


def single_box_family() -> BoxFamily:
    box = GroundedSquareBox.of(0, 1, 0, 1)
    return BoxFamily((box,), None, 1, {"kind": "base-single"})


def meeting_pair_family() -> BoxFamily:
    """Two overlapping grounded square boxes: the smallest base whose
    intersection graph needs two colors."""
    a = GroundedSquareBox(Box3.from_bounds(0, 2, -2, 0, 0, 1))
    b = GroundedSquareBox(Box3.from_bounds(1, 3, -1, 1, 0, 1))
    return recursion.checked_base(BoxFamily((a, b), None, 2, {"kind": "base-pair"}))


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
    end_side = max(15, far)
    bridge_side = max(20, far)
    boxes = []
    for i in range(n - 1):
        if i == 0 or i == n - 2:
            boxes.append(GroundedSquareBox.of(10 * i, end_side, 0, 20))
        else:
            boxes.append(GroundedSquareBox.of(10 * i, 10, 0, 10))
    boxes.append(GroundedSquareBox.of(far, bridge_side, 15, 20))
    fam = BoxFamily(tuple(boxes), n, 3, {"kind": "base-odd-cycle", "n": n})
    return recursion.checked_base(fam)


# ---------------------------------------------------------------------------
# recursion machinery


def make_ground_boxes(values, eps) -> list[GroundedSquareBox]:
    """One thin box [x, x+eps] x [x-eps, x] x [0, 1] per value; requires
    0 < eps strictly below the least gap so the boxes stay disjoint."""
    values = sorted(rat(v) for v in values)
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    gaps = [b - a for a, b in zip(values, values[1:])]
    if gaps and eps >= min(gaps):
        raise ValueError(f"eps {eps} is not below the least value gap {min(gaps)}")
    return [GroundedSquareBox.of(x, eps, 0, 1) for x in values]


@dataclass(frozen=True)
class CopyEmbedding:
    """How one copy is realized: its 1-D map on traces, its private slice
    of [0, 1] in z, and the combined axis-wise box map."""

    copy: HomotheticCopy
    z_interval: Interval
    axis_map: AxisMap3


def plan_embeddings(parent: BoxFamily, cert: GallaiCertificate) -> list[CopyEmbedding]:
    """Disjoint z-slots for the copies: [0, 1] cut into equal closed
    pieces, each shrunk at both ends so distinct slots cannot touch; the
    parent's full vertical extent is mapped onto each slot."""
    count = len(cert.copies)
    zlo = min(b.box.zr.lo for b in parent.boxes)
    zhi = max(b.box.zr.hi for b in parent.boxes)
    margin = Fraction(1, 4 * count)
    out = []
    for j, copy in enumerate(cert.copies):
        slot = Interval(Fraction(j, count) + margin, Fraction(j + 1, count) - margin)
        vertical = Homothety1D(slot.length / (zhi - zlo), slot.lo - slot.length / (zhi - zlo) * zlo)
        out.append(CopyEmbedding(copy, slot, AxisMap3.of(copy.map, vertical)))
    return out


def embed_copy_boxes(parent: BoxFamily, embeddings) -> list[list[GroundedSquareBox]]:
    """The image of the parent family under each embedding, box for box:
    each embedding maps the parent's distinct coordinates once and
    assembles its boxes by index.  The traces it places must be its
    copy's image."""
    flat: dict[Rat, int] = {}  # distinct x and y coordinates -> index
    tall: dict[Rat, int] = {}  # distinct z coordinates -> index
    rows = [
        [flat.setdefault(v, len(flat)) for v in (b.xr.lo, b.xr.hi, b.yr.lo, b.yr.hi)]
        + [tall.setdefault(v, len(tall)) for v in (b.zr.lo, b.zr.hi)]
        for b in (gb.box for gb in parent.boxes)
    ]
    traces = [flat[t] for t in sorted(set(parent.traces()))]
    out = []
    for emb in embeddings:
        xs = [emb.axis_map.fx.apply(v) for v in flat]
        zs = [emb.axis_map.fz.apply(v) for v in tall]
        mapped = tuple(xs[i] for i in traces)
        if mapped != emb.copy.image:
            raise ConstructionError(
                "copy domain mismatch: parent traces do not map onto the copy image",
                {"mapped": mapped, "image": emb.copy.image},
            )
        out.append([GroundedSquareBox(Box3(Interval(xs[a], xs[b]), Interval(xs[c], xs[d]), Interval(zs[e], zs[f])))
                    for a, b, c, d, e, f in rows])
    return out


def normalize_traces(fam: BoxFamily) -> BoxFamily:
    """Make all traces pairwise distinct without changing the graph.

    Whole blocks (the ground boxes, each embedded copy) are slid rigidly
    along the x = y diagonal by distinct offsets below half the least
    critical quantity, so every strict overlap, gap, and grazing contact
    survives.  The graph is re-swept afterwards and must match exactly.
    """
    traces = fam.traces()
    if len(set(traces)) == len(traces):
        return fam
    blocks = fam.blocks()
    block_of = {}
    for bi, members in enumerate(blocks):
        for i in members:
            block_of[i] = bi
    before = fam.intersection_edges()

    critical = [abs(a - b) for a, b in itertools.combinations(traces, 2) if a != b]
    n = len(fam.boxes)
    for i in range(n):
        for j in range(i + 1, n):
            if block_of[i] == block_of[j]:
                continue
            bi, bj = fam.boxes[i].box, fam.boxes[j].box
            for ri, rj in ((bi.xr, bj.xr), (bi.yr, bj.yr)):
                for q in (ri.hi - rj.lo, rj.hi - ri.lo):
                    if q != 0:
                        critical.append(abs(q))
    if not critical:
        raise ConstructionError("cannot normalize traces: no safe perturbation size exists")
    quantum = min(critical) / (2 * (len(blocks) + 1))

    used: set[Rat] = set()
    shifted: list[GroundedSquareBox | None] = [None] * n
    for bi, members in enumerate(blocks):
        own = [fam.boxes[i].trace for i in members]
        for j in range(len(blocks) + 1):
            delta = j * quantum
            if all(t + delta not in used for t in own):
                break
        else:
            raise ConstructionError("trace normalization ran out of offsets")
        used.update(t + delta for t in own)
        for i in members:  # along the x = y diagonal, which keeps each box grounded
            b = fam.boxes[i]
            shifted[i] = GroundedSquareBox.of(b.trace + delta, b.side, b.box.zr.lo, b.box.zr.hi)

    out = BoxFamily(
        tuple(shifted),
        fam.claimed_girth,
        fam.claimed_chromatic,
        {**fam.provenance, "traces_normalized": True},
    )
    new_traces = out.traces()
    if len(set(new_traces)) != len(new_traces):
        raise ConstructionError("trace normalization left duplicate traces")
    if out.intersection_edges() != before:
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
    ground = make_ground_boxes(elements, eps)
    copies = embed_copy_boxes(parent, plan_embeddings(parent, cert))
    return recursion.Placement(parent, cert, ground, copies, {"geometry": "boxes"})


def check_box_structure(fam: BoxFamily) -> recursion.StructureReport:
    """Exact structural sweep of a family against its construction model
    (see ``recursion.check_structure``).

    Recursion outputs must satisfy: ground boxes pairwise disjoint; every
    copy box meets exactly one ground box, namely the one at its own
    trace; no box from one copy meets a box from another; and each copy's
    internal graph matches the parent's.  Base families must match their
    expected graph exactly.
    """
    return recursion.check_structure(fam, _check_box_copies)


def _check_box_copies(report: recursion.StructureReport, fam: BoxFamily, edges: recursion.CopyEdges) -> None:
    ground_pairs = edges.ground_pairs
    report.add(
        "ground-pairwise-disjoint",
        not ground_pairs,
        "" if not ground_pairs else f"intersecting ground pair {ground_pairs[0]}",
    )

    met = edges.ground_met
    bad_count = next((i for i in met if len(met[i]) != 1), None)
    report.add(
        "copy-meets-exactly-one-ground",
        bad_count is None,
        "" if bad_count is None else f"box {bad_count} meets {len(met[bad_count])} ground boxes",
    )
    if bad_count is None:
        traces = fam.traces()
        mismatched = next((i for i in met if traces[met[i][0]] != traces[i]), None)
        report.add(
            "copy-meets-own-ground",
            mismatched is None,
            ""
            if mismatched is None
            else f"box {mismatched} meets ground box at trace {traces[met[mismatched][0]]}",
        )
    report.add(
        "no-cross-copy-intersections",
        not edges.cross,
        "" if not edges.cross else f"intersecting cross-copy pair {edges.cross[0]}",
    )


# ---------------------------------------------------------------------------
# top-level construction


def build_box_family(girth: int, colors: int, policy: ProviderPolicy | None = None) -> BoxFamily:
    """A grounded square box family with girth >= girth whose graph needs
    at least ``colors`` colors (see ``recursion.build_family``)."""
    return recursion.build_family(
        girth, colors, policy, (single_box_family, meeting_pair_family, odd_cycle_boxes), recursion_step_boxes
    )
