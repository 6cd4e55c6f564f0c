"""The chromatic lift and the structure checks shared by the box and the
line geometry; each geometry supplies only how it places its ground
objects and copies, and the structure checks whose names or logic are its
own.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from . import graphs
from .budget import Budget
from .errors import BudgetExhausted, ConstructionError
from .gallai import GallaiCertificate, GroundSet, ProviderPolicy, certificate_to_doc


class Placement(NamedTuple):
    """What a geometry placed in one step, with the parent as it was copied
    and its own provenance entries ("geometry" and any extras)."""

    parent: object
    cert: GallaiCertificate
    ground: list
    copies: list[list]
    provenance: dict


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
    The output's structure (its ``structure()``) and its girth floor
    min(parent girth, 3 ceil(girth / 3)) are asserted before returning;
    any violation is a fatal construction bug.
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

    placed = place(parent, lambda values: provider(GroundSet.of(values), colors, girth))
    objects = list(placed.ground)
    copy_blocks: list[list[int]] = []
    for images in placed.copies:
        copy_blocks.append(list(range(len(objects), len(objects) + len(images))))
        objects.extend(images)

    lift_certified = placed.cert.flags.all_true()
    out = type(placed.parent)(
        tuple(objects),
        girth,
        colors + 1 if lift_certified else colors,
        {
            "kind": "recursion",
            **placed.provenance,
            "girth_param": girth,
            "colors_before": colors,
            "blocks": {"ground": list(range(len(placed.ground))), "copies": copy_blocks},
            "parent_edges": [list(e) for e in sorted(parent_graph.edges)],
            "parent_size": parent_graph.n,
            "certificate": certificate_to_doc(placed.cert),
            "chromatic_lift_certified": lift_certified,
            "parent": placed.parent.provenance,
        },
    )
    fail = out.structure().first_failure()
    if fail is not None:
        raise ConstructionError(f"structural assertion failed: {fail.name}", fail.detail)

    out_girth = graphs.girth(graphs.intersection_graph(out))
    floor_bound = min(parent_girth, 3 * math.ceil(girth / 3))
    if out_girth < floor_bound:
        raise ConstructionError(
            f"girth lift violated: got {out_girth}, expected at least {floor_bound}"
        )
    return out


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
    """The edges of a recursion output filed by the blocks of its
    provenance, which partition its objects, each list in edge order:
    pairs of ground objects, the ground objects each copy object meets,
    pairs from two different copies, and each copy's own edges as pairs
    of positions in the copy."""

    def __init__(self, blocks: dict, edges):
        self.ground = list(blocks["ground"])
        self.copies = [list(c) for c in blocks["copies"]]
        self.owner: dict[int, int] = {}
        pos: dict[int, int] = {}
        for ci, members in enumerate(self.copies):
            for p, i in enumerate(members):
                self.owner[i], pos[i] = ci, p
        ground = set(self.ground)
        self.ground_pairs: list[tuple[int, int]] = []
        self.ground_met: dict[int, list[int]] = {i: [] for i in self.owner}
        self.cross: list[tuple[int, int]] = []
        self.intra: list[set[tuple[int, int]]] = [set() for _ in self.copies]
        for u, v in edges:
            if u in ground and v in ground:
                self.ground_pairs.append((u, v))
            elif u in ground or v in ground:
                g, c = (u, v) if u in ground else (v, u)
                self.ground_met[c].append(g)
            elif self.owner[u] == self.owner[v]:
                self.intra[self.owner[u]].add(tuple(sorted((pos[u], pos[v]))))
            else:
                self.cross.append((u, v))


def check_structure(fam, check_copies: Callable) -> StructureReport:
    """Exact structural sweep of a family against its construction model.

    Base families must have exactly their expected graph.  A recursion
    output is checked by ``check_copies(report, fam, CopyEdges)`` for its
    ground objects and how the copies meet them and each other, then here
    for each copy's own graph against the parent's.  Blocks that do not
    partition its objects, so leave some unchecked, or a copy block of
    another size than the parent, are a ValueError.
    """
    report = StructureReport()
    prov = fam.provenance
    kind = prov.get("kind")
    if kind == "recursion":
        blocks = prov["blocks"]
        members = list(itertools.chain(blocks["ground"], *blocks["copies"]))
        if any(type(i) is not int for i in members) or sorted(members) != list(range(len(fam))):
            raise ValueError(f"blocks ground and copies do not partition the {len(fam)} objects")
        if any(len(c) != prov["parent_size"] for c in blocks["copies"]):
            raise ValueError(f"a copy block does not hold the {prov['parent_size']} objects of the parent")
        edges = CopyEdges(blocks, fam.meets)
        check_copies(report, fam, edges)
        parent_edges = {tuple(e) for e in prov["parent_edges"]}
        bad_block = next(
            ((ci, sorted(got ^ parent_edges)[:1]) for ci, got in enumerate(edges.intra) if got != parent_edges),
            None,
        )
        report.add(
            "copy-graph-matches-parent",
            bad_block is None,
            "" if bad_block is None else f"copy {bad_block[0]} differs at {bad_block[1]}",
        )
    elif kind == "base-odd-cycle":
        got = graphs.intersection_graph(fam)
        same, witness = graphs.graph_equals_expected(got, graphs.cycle_graph(prov["n"]))
        report.add("graph-equals-cycle", same, "" if same else str(witness))
    elif kind == "base-pair":
        report.add("graph-is-single-edge", fam.intersection_edges() == [(0, 1)])
    elif kind == "base-single":
        report.add("graph-is-single-vertex", fam.intersection_edges() == [])
    else:
        report.add("structure-model", True, "no construction model; invariants only")
    return report
