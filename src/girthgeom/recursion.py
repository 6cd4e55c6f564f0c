"""The family base, the chromatic lift and the structure checks shared by
the box and the line geometry; each geometry supplies only its rows, how
it places its ground objects and copies, and the structure checks whose
names or logic are its own.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from . import graphs
from .budget import Budget
from .errors import BudgetExhausted, ConstructionError
from .gallai import GallaiCertificate, GroundSet, ProviderPolicy


@dataclass(frozen=True, init=False)
class Family:
    """A finite family of objects on one integer grid, with its claims:
    object i is ``rows[i]``, in its kind's form, over ``den``, the least
    denominator its kind keeps.  Claims are never trusted; girth and
    chromatic number are recomputed exactly from the one sweep the family
    makes of itself when it is made, its meeting pairs in (i, j) order
    (``meets``).  A kind read from a scene declares its format beside the
    ``labels()`` that writes it: the scene ``kind``, the ``key`` of its
    object list, ``entries`` (the path of each rational of one object) and
    ``grid(entries, read)`` (the den and rows of all objects' entries)."""

    # the constructors differ by kind, and a shift system derives all four, so replace refuses them
    den: int = field(init=False)
    rows: tuple = field(init=False)
    claimed_girth: int | None = field(init=False)  # None: the construction claims no finite cycle
    claimed_chromatic: int = field(init=False)
    provenance: dict
    meets: list[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.rows)

    def intersection_edges(self) -> list[tuple[int, int]]:
        return self.meets


class Placement(NamedTuple):
    """What a geometry placed in one step, with the parent as it was copied, its own
    provenance entries (none, or a line step's parameters and offsets) and
    ``family(objects, girth, colors, provenance)``."""

    parent: object
    cert: GallaiCertificate
    ground: list
    copies: list[list]
    provenance: dict
    family: Callable


def lift(
    parent,
    colors: int,
    girth: int,
    provider,
    budget: Budget | None,
    place: Callable,
):
    """One chromatic lift of ``parent``, which must have girth >= girth and
    no proper coloring with colors - 1 colors.  A parent that has such a
    coloring is a ConstructionError; a refutation that runs out of
    ``budget`` first raises BudgetExhausted, before anything is placed.

    ``place(parent, certify)`` places one thin ground object per element
    of the certificate ``certify(values)`` returns for the parent's ground
    values, and one homothetic copy of the parent per certificate copy.
    That certificate must be for those values, ``colors`` and ``girth``,
    or the lift is a ConstructionError; the provenance records it, and
    the parameters of the step are read from it.  The output's structure
    (its ``structure()``, and that its first copy induces the parent's
    graph) and its girth floor min(parent girth, 3 ceil(girth / 3)) are
    asserted before returning; any violation is a fatal construction bug.
    """
    parent_graph = graphs.intersection_graph(parent)
    parent_girth = graphs.girth(parent_graph)
    if parent_girth < girth:
        raise ConstructionError(f"parent girth {parent_girth} is below the target {girth}")
    if colors > 1:
        budget = budget or Budget(label="parent chromatic verification")
        refuted = graphs.is_k_colorable(parent_graph, colors - 1, budget).refuted
        if refuted is False:
            raise ConstructionError(
                f"parent admits a {colors - 1}-coloring; it does not need {colors} colors"
            )
        if refuted is None:
            raise BudgetExhausted(
                f"could not verify the parent needs {colors} colors within budget",
                used=budget.used,
                limit=budget.max_nodes,
            )

    def certify(values) -> GallaiCertificate:
        ground = GroundSet.of(values)
        cert = provider(ground, colors, girth)
        if (cert.ground, cert.colors, cert.girth) != (ground, colors, girth):
            raise ConstructionError(
                f"the provider's certificate is not for the {ground.size} ground values, {colors} colors "
                f"and girth {girth} it was asked for",
                {"ground_set": cert.ground.points, "colors": cert.colors, "girth": cert.girth},
            )
        return cert

    placed = place(parent, certify)
    out = placed.family(
        tuple(itertools.chain(placed.ground, *placed.copies)),
        girth,
        colors + 1 if placed.cert.flags.all_true() else colors,
        {"kind": "recursion", **placed.provenance, "certificate": placed.cert, "parent": placed.parent.provenance},
    )
    fail = out.structure().first_failure()
    if fail is not None:
        raise ConstructionError(f"structural assertion failed: {fail.name}", fail.detail)
    induced, want = set(parent_edges(placed.cert, out.meets)), parent_graph.edges
    if induced != want:
        raise ConstructionError("structural assertion failed: copy-graph-matches-parent",
                                f"copy 0 differs at {sorted(induced ^ want)[:1]}")

    out_girth = graphs.girth(graphs.intersection_graph(out))
    floor_bound = min(parent_girth, 3 * math.ceil(girth / 3))
    if out_girth < floor_bound:
        raise ConstructionError(
            f"girth lift violated: got {out_girth}, expected at least {floor_bound}"
        )
    return out


def block_layout(cert: GallaiCertificate) -> list[list[int]]:
    """The blocks of the objects of a lift by ``cert``, in order: one ground
    object per element, then one block per copy, an image of the parent
    with one object per point of the ground set."""
    m, size = len(cert.elements), cert.ground.size
    return [list(range(m)), *(list(range(m + j * size, m + (j + 1) * size)) for j in range(len(cert.copies)))]


def parent_edges(cert: GallaiCertificate, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The parent's graph as the lift by ``cert`` records it: the pairs
    among the sorted ``edges`` of its objects that its first copy block
    induces, as positions in the copy.  They are one slice of ``edges``."""
    m, size = len(cert.elements), cert.ground.size
    return [(u - m, v - m) for u, v in edges[bisect_left(edges, (m,)):bisect_left(edges, (m + size,))]
            if v < m + size]


def build_family(girth: int, colors: int, policy: ProviderPolicy | None, bases, step):
    """A family with girth >= girth whose graph needs at least ``colors``
    colors (certified when the certificates verify).

    ``bases`` are the geometry's constructors of one object, of a meeting
    pair, and of an odd cycle of a given length.  One and two colors come
    from the first two; three come from an odd cycle of length
    max(5, girth), rounded up to odd.  More colors iterate ``step`` from
    there; with the pigeonhole policy the iteration starts from the pair
    instead, which is how the nine-object cycle families arise.
    """
    if girth < 3 or colors < 1:
        raise ValueError("need girth >= 3 and colors >= 1")
    policy = policy or ProviderPolicy()
    single, pair, odd_cycle = bases
    if colors == 1:
        return single()
    if colors == 2 or policy.name == "pigeonhole":
        fam, start = pair(), 2
    else:
        n = max(5, girth)
        if n % 2 == 0:
            n += 1
        fam, start = odd_cycle(n), 3
    for k in range(start, colors):
        budget = Budget(policy.chroma_budget, "parent chromatic verification")
        fam = step(fam, k, girth, policy.provider(), budget=budget)
    return fam


# base kind -> the name of its structure check
BASE_CHECKS = {"base-single": "graph-is-single-vertex", "base-pair": "graph-is-single-edge",
               "base-odd-cycle": "graph-equals-cycle"}


def base_graph(prov: dict) -> graphs.GeoGraph:
    """The graph of the base kind ``prov`` names: one vertex, one edge, or the n-cycle."""
    if prov["kind"] == "base-odd-cycle":
        return graphs.cycle_graph(prov["n"])
    return graphs.GeoGraph(1, []) if prov["kind"] == "base-single" else graphs.GeoGraph(2, [(0, 1)])


def checked_base(fam):
    """A base family, returned once its own structure check passes."""
    fail = fam.structure().first_failure()
    if fail is not None:
        raise ConstructionError(f"base realization failed: {fail.name}", fail.detail)
    return fam


# ---------------------------------------------------------------------------
# structure


@dataclass
class StructureCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class StructureReport:
    """Named pass/fail results of one structural sweep."""

    checks: list[StructureCheck] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(StructureCheck(name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def first_failure(self) -> StructureCheck | None:
        return next((c for c in self.checks if not c.ok), None)

    def to_doc(self) -> list[dict]:
        return [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks]


class CopyEdges:
    """The edges of a lift by ``cert`` filed by the blocks of
    ``block_layout``.  Each list is in edge order: pairs of ground objects,
    the ground objects each copy object meets, pairs from two different
    copies, and each copy's own edges as pairs of positions in the copy."""

    def __init__(self, cert: GallaiCertificate, edges):
        m, size = len(cert.elements), cert.ground.size
        self.ground_pairs: list[tuple[int, int]] = []
        self.ground_met: dict[int, list[int]] = {i: [] for i in range(m, m + len(cert.copies) * size)}
        self.cross: list[tuple[int, int]] = []
        self.intra: list[set[tuple[int, int]]] = [set() for _ in cert.copies]
        for u, v in edges:
            if v < m:
                self.ground_pairs.append((u, v))
            elif u < m:
                self.ground_met[v].append(u)
            elif (u - m) // size == (v - m) // size:
                self.intra[(u - m) // size].add(((u - m) % size, (v - m) % size))
            else:
                self.cross.append((u, v))


def misplaced_copy_object(cert: GallaiCertificate, ground_met: dict[int, list[int]]) -> str | None:
    """How the copy objects of a lift by ``cert`` fail to meet their own
    ground objects, or None: object i of the first copy meets the ground
    object at rank r_i of its image, each rank once, and object i of every
    copy the one at rank r_i of its own.  ``ground_met`` lists the ground
    objects each copy object meets (``CopyEdges``)."""
    m, size, images = len(cert.elements), cert.ground.size, cert.copies
    first = [ground_met[m + i] for i in range(size)] if images else []
    if images and sorted(first) != [[g] for g in images[0]]:
        return f"copy 0 meets ground objects {first}, not each of {list(images[0])} once"
    ranks = [images[0].index(g) for g, in first]
    return next((f"object {i} meets ground {ground_met[i]}, expected [{copy[r]}]" for j, copy in enumerate(images)
                 for i, r in enumerate(ranks, m + j * size) if ground_met[i] != [copy[r]]), None)


def check_structure(fam, check_copies: Callable) -> StructureReport:
    """Exact structural sweep of a family against its construction model.

    Base families must have exactly their kind's graph (``base_graph``).
    A recursion output is checked by ``check_copies(report, fam,
    CopyEdges)`` for its ground objects and how the copies meet them and
    each other, then here for each copy's own graph against the first
    copy's, which the provenance records as the parent's graph
    (``parent_edges``).  Its provenance is taken to fit its objects, as
    ``lift`` and the scene reader make sure it does.
    """
    report = StructureReport()
    prov = fam.provenance
    kind = prov.get("kind")
    if kind == "recursion":
        edges = CopyEdges(prov["certificate"], fam.meets)
        check_copies(report, fam, edges)
        first = edges.intra[0] if edges.intra else set()
        bad_block = next(((ci, sorted(got ^ first)[:1]) for ci, got in enumerate(edges.intra) if got != first), None)
        report.add(
            "copy-graph-matches-parent",
            bad_block is None,
            "" if bad_block is None else f"copy {bad_block[0]} differs at {bad_block[1]}",
        )
    elif kind in BASE_CHECKS:
        got, want = graphs.intersection_graph(fam), base_graph(prov)
        same, witness = graphs.graph_equals_expected(got, want) if got.n == want.n else (False, f"{got.n} objects")
        report.add(BASE_CHECKS[kind], same, "" if same else str(witness))
    else:
        report.add("structure-model", True, "no construction model; invariants only")
    return report
