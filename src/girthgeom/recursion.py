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
    diff = graphs.first_difference(parent_edges(placed.cert, out.meets), parent_graph.edges)
    if diff is not None:
        raise ConstructionError("structural assertion failed: copy-graph-matches-parent",
                                f"copy 0 differs at {[diff[1]]}")

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


def copy_ranks(prov: dict, edges: list[tuple[int, int]]) -> list[int] | None:
    """rho of the recursion level ``prov`` whose objects meet in the sorted
    ``edges``: object i of each copy lies at the ground point of rank
    rho(i) of the copy's image, each rank once; None when the level fixes
    no such ranks.  A level that stores ``parent_params`` (lines) holds the
    point of rank rho(i) as its i-th parameter; any other level reads rho
    from its first copy, whose object i meets one ground object, the one
    of rank rho(i) of its image."""
    cert = prov["certificate"]
    m, size = len(cert.elements), cert.ground.size
    if "parent_params" in prov:
        ranks = [bisect_left(cert.ground.points, t) for t in prov["parent_params"]]
    elif cert.copies:
        first = sorted((v, g) for g, v in edges[:bisect_left(edges, (m,))] if m <= v < m + size)
        rank = {g: r for r, g in enumerate(cert.copies[0])}
        ranks = [rank.get(g, -1) for _, g in first] if [v for v, _ in first] == list(range(m, m + size)) else []
    else:
        ranks = list(range(size))
    return ranks if sorted(ranks) == list(range(size)) else None


def lifted_edges(cert: GallaiCertificate, ranks, parent: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The sorted edges of L(P, cert, rho), the model of a lift by ``cert``
    of the graph P with the sorted edges ``parent``, rho the ``ranks``:
    object i of copy j, at m + j size + i, meets the ground object at rank
    rho(i) of the copy's image, and each copy block induces P."""
    m, size = len(cert.elements), cert.ground.size
    starts = range(m, m + len(cert.copies) * size, size)
    placed = sorted((copy[r], start + i) for copy, start in zip(cert.copies, starts) for i, r in enumerate(ranks))
    return placed + [(start + a, start + b) for start in starts for a, b in parent]


def level_faults(prov: dict, edges: list[tuple[int, int]]) -> dict[str, str]:
    """How the sorted ``edges`` of the recursion level ``prov`` differ from
    its model, L(P, cert, rho) (``lifted_edges``), with P the graph its
    first copy induces (``parent_edges``) and rho its ``copy_ranks``: none
    when they are the model, else the first fault of each rule they break,
    in this order: two ground objects meet ("ground"); a copy object meets
    other than one ground object ("count"), or, when each meets one, not
    the one rho puts it on ("placed"); two copies meet ("cross"); a copy
    block induces other edges than P ("copy")."""
    cert = prov["certificate"]
    m, size = len(cert.elements), cert.ground.size
    ranks = copy_ranks(prov, edges)
    model = lifted_edges(cert, range(size) if ranks is None else ranks, parent_edges(cert, edges))
    if ranks is not None and edges == model:
        return {}
    diff = sorted(set(edges).symmetric_difference(model))
    met: dict[int, list[int]] = {}
    for g, v in edges[:bisect_left(edges, (m,))]:
        met.setdefault(v, []).append(g)
    moved = sorted({v for g, v in diff if g < m <= v})
    count = [f"copy object {v} meets {len(met.get(v, ()))} ground objects" for v in moved if len(met.get(v, ())) != 1]
    if count:
        placed = []
    elif ranks is None:
        placed = [f"copy 0 meets ground objects {[met[v] for v in range(m, m + size)]}, not each of "
                  f"{list(cert.copies[0])} once"]
    else:
        placed = [f"object {v} meets ground {met[v]}, expected [{cert.copies[(v - m) // size][ranks[(v - m) % size]]}]"
                  for v in moved]
    blocks = [(u, v, u - (u - m) % size) for u, v in diff if u >= m]  # with the first object of u's copy
    found = {"ground": [f"intersecting ground pair {e}" for e in diff if e[1] < m], "count": count, "placed": placed,
             "cross": [f"intersecting cross-copy pair {(u, v)}" for u, v, a in blocks if v >= a + size],
             "copy": [f"copy {(a - m) // size} differs at [{(u - a, v - a)}]" for u, v, a in blocks if v < a + size]}
    return {rule: texts[0] for rule, texts in found.items() if texts}


def check_structure(fam, check_copies: Callable) -> StructureReport:
    """Exact structural sweep of a family against its construction model:
    a base's graph must be its kind's (``base_graph``), and a recursion
    output's its model (``level_faults``).  ``check_copies(report, fam,
    faults)`` reports the faults of its ground objects and of how its
    copies meet them and each other, and this the faults of its copy
    blocks.  Its provenance is taken to fit its objects, as ``lift`` and
    the scene reader make sure."""
    report = StructureReport()
    prov = fam.provenance
    kind = prov.get("kind")
    if kind == "recursion":
        faults = level_faults(prov, fam.meets)
        check_copies(report, fam, faults)
        report.add("copy-graph-matches-parent", "copy" not in faults, faults.get("copy", ""))
    elif kind in BASE_CHECKS:
        edges, want = fam.intersection_edges(), base_graph(prov)  # not meets: it refuses identical lines
        witness = graphs.first_difference(edges, want.edges) if len(fam) == want.n else f"{len(fam)} objects"
        report.add(BASE_CHECKS[kind], witness is None, "" if witness is None else str(witness))
    else:
        report.add("structure-model", True, "no construction model; invariants only")
    return report
