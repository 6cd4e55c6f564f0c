"""Coloring certificates over finite rational sets.

A certificate packages a ground set T, a finite set X, and the complete
list of scaled-and-shifted copies of T inside X, each kept as the
positions of its points in X, together with three
verified properties: every k-coloring of X leaves some copy monochromatic
(checked by exhaustive refutation search), no small collection of copies
chains into a cycle, and the copy list is complete.  Providers choose X;
``derive_certificate`` derives its copies and verdicts, and the verifier
runs the same derivation and compares the stored copy list with it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

from .budget import DEFAULT_NODES, Budget
from .errors import BudgetExhausted, ProviderFailure, ProviderRefusal
from .geometry import Rat, format_rat, format_ratio, rat, to_grid
from .graphs import GeoGraph, shortest_cycle


@dataclass(frozen=True)
class GroundSet:
    """A strictly increasing tuple of at least two rationals."""

    points: tuple[Rat, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("ground set needs at least two points")
        if any(a >= b for a, b in zip(self.points, self.points[1:])):
            raise ValueError("ground set must be strictly increasing")

    @classmethod
    def of(cls, values) -> "GroundSet":
        return cls(tuple(sorted(rat(v) for v in values)))

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class CopyCycleWitness:
    """Distinct copies C_0..C_{j-1} and distinct element positions
    x_0..x_{j-1} with x_i in C_i and in C_{i+1} (indices cyclic)."""

    copies: tuple[tuple[int, ...], ...]
    elements: tuple[int, ...]


def validate_cycle_witness(witness: CopyCycleWitness) -> None:
    j = len(witness.copies)
    if j < 2 or len(witness.elements) != j:
        raise ValueError("witness needs >= 2 copies and one element per copy pair")
    images = [set(c) for c in witness.copies]
    if len(set(witness.copies)) != j:
        raise ValueError("witness copies are not distinct")
    if len(set(witness.elements)) != j:
        raise ValueError("witness elements are not distinct")
    for i, x in enumerate(witness.elements):
        if x not in images[i] or x not in images[(i + 1) % j]:
            raise ValueError(f"element {x} not shared by copies {i} and {(i + 1) % j}")


@dataclass
class CertificateFlags:
    """The three verdicts on a certificate; None means not yet decided
    (budget-gated).  A verification also keeps the avoiding coloring it
    found, the shortest copy cycle, and the nodes its budget has spent."""

    coloring_ok: bool | None = None
    sparsity_ok: bool | None = None
    copies_complete: bool | None = None
    note: str = ""
    # what a verification found on the way; flags compare as their document does
    counterexample: tuple[int, ...] | None = field(default=None, repr=False, compare=False)
    cycle: CopyCycleWitness | None = field(default=None, repr=False, compare=False)
    nodes: int = field(default=0, repr=False, compare=False)

    @property
    def verdicts(self) -> tuple[bool | None, bool | None, bool | None]:
        return self.coloring_ok, self.sparsity_ok, self.copies_complete

    def all_true(self) -> bool:
        return all(v is True for v in self.verdicts)


@dataclass
class GallaiCertificate:
    ground: GroundSet
    elements: tuple[Rat, ...]
    copies: tuple[tuple[int, ...], ...]  # each the ascending positions of its image in elements
    colors: int
    girth: int
    flags: CertificateFlags = field(default_factory=CertificateFlags)

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
            raise ValueError("certificate elements must be strictly increasing")
        if self.colors < 1:
            raise ValueError("colors must be positive")
        if self.girth < 3:
            raise ValueError("girth parameter must be at least 3")
        if any(not 0 <= p < len(self.elements) for c in self.copies for p in c):
            raise ValueError("copy positions escape the certificate elements")

    def map_ratios(self) -> Iterator[tuple[int, int, int, int]]:
        """Each copy's map, derived, never stored, as its scale p / q and shift r / s, yielded as
        integers (p, q, r, s) with q, s > 0: the positive scale-and-shift that sends the ground
        set's least and greatest points lo and hi to the copy's first and last elements, and so
        its other points to the others.  On the elements' grid (``to_grid``) of denominator e the
        ground set spans a / b steps, so an image that starts at u / e and spans v steps has
        scale w / a for w = v b, and shift u / e - (w / a) lo."""
        (lo, *_, hi), (e, (grid,)) = self.ground.points, to_grid([self.elements])
        span = (hi - lo) * e
        a, b, n, d = span.numerator, span.denominator, lo.numerator, lo.denominator
        for c in self.copies:
            u, w = grid[c[0]], (grid[c[-1]] - grid[c[0]]) * b
            yield w, a, u * a * d - w * n * e, e * a * d


# ---------------------------------------------------------------------------
# normalization and copy enumeration


def normalize_ground_set(ground: GroundSet) -> tuple[int, ...]:
    """Rescale a rational ground set onto integers with minimum 0 and
    difference gcd 1."""
    _, (raw,) = to_grid([[p - ground.points[0] for p in ground.points]])
    g = math.gcd(*raw)
    return tuple(r // g for r in raw)


def enumerate_copies(ground: GroundSet, elements: tuple[Rat, ...]) -> tuple[tuple[int, ...], ...]:
    """All images of the ground set under positive scale-and-shift maps
    that land inside ``elements``, in ascending image order, each as the
    positions of its points in ``elements``.

    A map with positive scale sends min to min and max to max, so each
    candidate is determined by the images of the two extremes; interior
    points are then membership-tested, on integers: the elements on one
    grid (``to_grid``), the ground set in normal form, whose gcd is
    1, so an image is on the grid only when q = (b - a) / span is an
    integer, and then its points are a + q * t.
    """
    ints = normalize_ground_set(ground)
    interior = ints[1:-1]
    _, (grid,) = to_grid([elements])
    position = {x: p for p, x in enumerate(grid)}
    out: list[tuple[int, ...]] = []
    for i, a in enumerate(grid):
        for j in range(i + 1, len(grid)):
            q, r = divmod(grid[j] - a, ints[-1])
            if r == 0 and all(a + q * t in position for t in interior):
                out.append((i, *(position[a + q * t] for t in interior), j))
    return tuple(out)


# ---------------------------------------------------------------------------
# copy-cycle search


def find_copy_cycle(copies, max_copies: int) -> CopyCycleWitness | None:
    """Exhaustively decide whether at most ``max_copies`` distinct copies
    chain into a cycle; return a shortest witness if so.

    A cycle through j copies is exactly a 2j-cycle of the bipartite
    incidence graph between copies and elements, so this is a shortest
    cycle of that graph, found by the same search as family girth.
    """
    if max_copies < 2:
        raise ValueError("a cycle involves at least two copies")
    copies = tuple(copies)
    vertex: dict[int, int] = {}  # element position -> incidence vertex, numbered after the copies
    edges = [(ci, vertex.setdefault(p, len(copies) + len(vertex))) for ci, c in enumerate(copies) for p in c]
    elements = list(vertex)
    cycle = shortest_cycle(GeoGraph(len(copies) + len(elements), edges))
    if cycle is None or len(cycle) > 2 * max_copies:
        return None
    # rotate so the cycle starts at a copy vertex, then read off the pairs
    if cycle[0] >= len(copies):
        cycle = cycle[1:] + cycle[:1]
    witness = CopyCycleWitness(
        tuple(copies[v] for v in cycle[0::2]), tuple(elements[v - len(copies)] for v in cycle[1::2])
    )
    validate_cycle_witness(witness)
    return witness


# ---------------------------------------------------------------------------
# coloring refutation


def find_avoiding_coloring(
    n: int, colors: int, copy_indices: list[tuple[int, ...]], budget: Budget
) -> tuple[int, ...] | None:
    """Search for a coloring of n points avoiding a monochromatic copy;
    None after exhausting the (symmetry-reduced) tree.

    Colors are tried in ascending order with a first-use canonical cap, so
    the first hit is the lexicographically least avoiding coloring; the
    least avoiding coloring is itself in canonical form, so the cap never
    skips it and exhaustion refutes all colorings.  With no points the
    empty coloring avoids every copy, since there are none.

    Copies list their positions in ascending order and are numbered by
    first member.  One integer ``alive`` holds bit i k + c while copy i's
    first member has color c and so does every inner member colored so
    far.  Coloring q with c is one step, ``alive & kept | opened`` with
    the pair ``step[q][c]``: it sets bit c of each copy that q opens and
    clears the other colors of each copy that q is inside.  A copy ending
    at p forbids c there exactly when its bit c is alive.  Each depth
    keeps the alive bits it started from, its cap, and the mask of colors
    it has still to try, none above the cap and none forbidden; a point
    with no color to try is never entered.  A point's masks are built on
    its first visit, only as wide as the copies opened up to it.
    """
    if n == 0:
        return ()
    group = (1 << colors) - 1
    copies = sorted(copy_indices)
    roles: list[tuple[list[int], ...]] = [([], [], []) for _ in range(n)]  # copies a point opens, is inside, ends
    for i, (head, *inner, tail) in enumerate(copies):
        roles[head][0].append(i)
        for p in inner:
            roles[p][1].append(i)
        roles[tail][2].append(i)
    # bit d of every copy, and the mask that drops color d
    stripe = [(((1 << len(copies) * colors) - 1) // group << d, ~(1 << d)) for d in range(colors)]
    step: list[list[tuple[int, int]]] = [[]] * n
    ends = [0] * n  # every bit of each copy ending at the point

    def build(q: int) -> None:
        width = (bisect_left(copies, (q + 1,)) * colors >> 3) + 1  # bytes for the copies opened up to q
        masks = []
        for ids in roles[q]:  # bit i k of each copy i
            bits = bytearray(width)
            for i in ids:
                bits[i * colors >> 3] |= 1 << (i * colors & 7)
            masks.append(int.from_bytes(bits, "little"))
        first, inner, last = masks
        step[q] = [(~(inner * (group ^ 1 << c)), first << c) for c in range(colors)]
        ends[q] = last * group

    assigned, alive_at, cap, untried = [0] * n, [0] * n, [0] * n, [0] * n
    untried[0] = group & 1
    build(0)
    limit = budget.max_nodes - budget.used
    nodes = pos = reached = 0
    try:
        while pos >= 0:
            allowed = untried[pos]
            if not allowed:
                pos -= 1
                continue
            c = (allowed & -allowed).bit_length() - 1
            untried[pos] = allowed & (allowed - 1)
            nodes += 1
            if nodes > limit:
                raise BudgetExhausted(
                    "coloring search budget exhausted", budget.used + nodes, budget.max_nodes
                )
            assigned[pos] = c
            kept, opened = step[pos][c]
            alive = alive_at[pos] & kept | opened
            top = cap[pos]
            pos += 1
            if pos == n:
                return tuple(assigned)
            if pos > reached:
                build(pos)
                reached = pos
            alive_at[pos] = alive
            top = cap[pos] = top + 1 if c == top < colors - 1 else top
            allowed = (2 << top) - 1
            done = alive & ends[pos]
            if done:
                for bits, clear in stripe:
                    if done & bits:
                        allowed &= clear
            if allowed:
                untried[pos] = allowed
            else:
                pos -= 1
        return None
    finally:
        budget.used += nodes


# ---------------------------------------------------------------------------
# derivation and verification


def derive_certificate(
    ground: GroundSet, elements: tuple[Rat, ...], colors: int, girth: int, budget: Budget | None = None
) -> GallaiCertificate:
    """The certificate on ``elements`` with every copy of the ground set
    in them, and the verdicts those copies give: the shortest copy cycle
    decides sparsity and refutation search the coloring property.

    A found avoiding coloring is kept as the counterexample.  Budget
    exhaustion leaves coloring_ok as None, which is reported distinctly
    from False.  The copy list is complete by construction.
    """
    copies = enumerate_copies(ground, elements)
    flags = _verdicts(elements, copies, colors, _short_copy_cycle(copies, girth), budget)
    return GallaiCertificate(ground, elements, copies, colors, girth, flags)


def _short_copy_cycle(copies, girth: int) -> CopyCycleWitness | None:
    """A copy cycle of at most girth // 3 copies, which breaks sparsity
    at this girth, or None; no search runs when no such cycle can exist."""
    return find_copy_cycle(copies, girth // 3) if girth // 3 >= 2 and len(copies) >= 2 else None


def _verdicts(
    elements, copies, colors: int, cycle: CopyCycleWitness | None, budget: Budget | None
) -> CertificateFlags:
    """The flags ``derive_certificate`` gives ``elements`` from all their
    ``copies`` and their short copy ``cycle``; the search calls it on the
    copies it has enumerated, once their cycle search has found none."""
    budget = budget or Budget(label="certificate verification")
    try:
        counterexample = find_avoiding_coloring(len(elements), colors, copies, budget)
        coloring_ok = counterexample is None
    except BudgetExhausted:
        counterexample = coloring_ok = None
    return CertificateFlags(
        coloring_ok, cycle is None, True, counterexample=counterexample, cycle=cycle, nodes=budget.used
    )


def verify_certificate(cert: GallaiCertificate, budget: Budget | None = None) -> CertificateFlags:
    """The verdicts ``derive_certificate`` reaches from the certificate's
    own ground set, elements, colors and girth; the stored copy list is
    complete when its copies are the derived ones."""
    derived = derive_certificate(cert.ground, cert.elements, cert.colors, cert.girth, budget)
    derived.flags.copies_complete = set(cert.copies) == set(derived.copies)
    return derived.flags


# ---------------------------------------------------------------------------
# providers

# Least N such that every coloring of {1..N} with the given number of
# colors has a monochromatic arithmetic progression of the given length.
# Only entries the in-repo refutation search reproduces are listed;
# 2-term progressions reduce to the pigeonhole value colors + 1.
VDW_TABLE: dict[tuple[int, int], int] = {
    (2, 3): 9,
    (3, 3): 27,
}


def pigeonhole_certificate(
    ground: GroundSet, colors: int, girth: int, budget: Budget | None = None
) -> GallaiCertificate:
    """Degenerate base provider for two-point ground sets: X = {1..k+1},
    the progression provider's two-term case.

    Any two points form a copy of a two-point set, so some pair is always
    monochromatic.  Pairs of copies share at most one element, hence no
    2-cycles; any three points chain into a 3-cycle of pairs, which the
    derivation finds and the provider refuses once 3-cycles matter
    (girth >= 9, k >= 2).  The coloring property is verified within
    ``budget``.
    """
    if ground.size != 2:
        raise ProviderRefusal("pigeonhole provider needs a two-point ground set")
    return vdw_certificate(ground, colors, girth, budget=budget)


def vdw_certificate(
    ground: GroundSet,
    colors: int,
    girth: int,
    length_hint: int | None = None,
    budget: Budget | None = None,
) -> GallaiCertificate:
    """Arithmetic-progression provider: X = {1..N} for an N long enough
    that a monochromatic progression covering the normalized ground set
    is unavoidable.

    N comes from the built-in table (or colors+1 for two-point sets)
    unless a ``length_hint`` is supplied.  Every verdict is the one
    ``derive_certificate`` gives, reached in the search's order: a short
    copy cycle is a refusal that names the witness, before any
    refutation runs; an avoiding coloring is a failure; and if the
    budget runs out the certificate is returned with the coloring flag
    left undecided and a note, never silently.
    """
    ints = normalize_ground_set(ground)
    terms = ints[-1] + 1
    if length_hint is not None:
        n_elems = length_hint
    elif terms == 2:
        n_elems = colors + 1
    elif (colors, terms) in VDW_TABLE:
        n_elems = VDW_TABLE[(colors, terms)]
    else:
        raise ProviderRefusal(
            f"no table entry for {colors} colors and {terms}-term progressions; "
            f"pass a length hint"
        )
    elements = tuple(Fraction(i) for i in range(1, n_elems + 1))
    copies = enumerate_copies(ground, elements)
    if (cycle := _short_copy_cycle(copies, girth)) is not None:
        raise ProviderRefusal(
            f"progression set contains a short copy cycle at this girth; witness uses {len(cycle.copies)} copies"
        )
    cert = GallaiCertificate(ground, elements, copies, colors, girth, _verdicts(elements, copies, colors, None, budget))
    if cert.flags.coloring_ok is False:
        raise ProviderFailure(
            f"set of {len(cert.elements)} elements admits an avoiding coloring: "
            f"{cert.flags.counterexample}"
        )
    if cert.flags.coloring_ok is None:
        cert.flags.note = "unverified-by-table: coloring search exceeded budget"
    return cert


def search_certificate(
    ground: GroundSet, colors: int, girth: int, budget: Budget | None = None
) -> GallaiCertificate:
    """Explicit search for a valid certificate over subsets of {1..N} for
    growing N, smallest sets first.

    Candidates without copies or with a short copy cycle are skipped;
    every other candidate gets the verdicts ``derive_certificate`` would
    give it, once, from the copies already enumerated and the copy cycle
    already searched for, under the search's budget, and the first whose
    coloring property holds is returned.  Exhausting the budget raises;
    that is a statement about the budget, never about nonexistence.  One
    lemma stops the search up front: with two or more colors X needs
    three points, and any three points chain three pair copies into a
    3-cycle, so a two-point ground set cannot reach girth >= 9.
    """
    from itertools import combinations

    if girth >= 9 and ground.size == 2 and colors >= 2:
        raise ProviderRefusal("two-point ground sets cannot reach girth >= 9 with two or more colors")
    budget = budget or Budget(label="certificate search")
    top = 0
    while True:
        top += 1
        for size in range(1, top + 1):
            for rest in combinations(range(1, top), size - 1):
                budget.spend()
                elements = tuple(Fraction(v) for v in rest + (top,))
                copies = enumerate_copies(ground, elements)
                if not copies or _short_copy_cycle(copies, girth) is not None:
                    continue
                flags = _verdicts(elements, copies, colors, None, budget)
                if flags.coloring_ok is None:
                    raise BudgetExhausted("certificate search budget exhausted", budget.used, budget.max_nodes)
                if flags.coloring_ok:
                    return GallaiCertificate(ground, elements, copies, colors, girth, flags)


# ---------------------------------------------------------------------------
# provider selection


@dataclass
class ProviderPolicy:
    """How the recursive constructions acquire their certificates.

    name: "auto" picks pigeonhole for two-point ground sets and vdw for
    larger ones; the other names force one provider, and only "search"
    runs the explicit search.  Budgets are node counts, and every provider
    spends at most certificate_budget; the hint feeds the progression
    provider.
    """

    name: str = "auto"  # auto | pigeonhole | vdw | search
    vdw_length_hint: int | None = None
    certificate_budget: int = DEFAULT_NODES
    chroma_budget: int = DEFAULT_NODES

    def provider(self):
        return partial(make_certificate, self)


def make_certificate(
    policy: ProviderPolicy, ground: GroundSet, colors: int, girth: int
) -> GallaiCertificate:
    """The certificate of the provider the policy names; the one place
    where "auto" resolves to a provider."""
    name = policy.name
    if name == "auto":
        name = "pigeonhole" if ground.size == 2 else "vdw"
    budget = Budget(policy.certificate_budget, name)
    if name == "pigeonhole":
        return pigeonhole_certificate(ground, colors, girth, budget)
    if name == "vdw":
        return vdw_certificate(ground, colors, girth, policy.vdw_length_hint, budget)
    if name == "search":
        return search_certificate(ground, colors, girth, budget)
    raise ValueError(f"unknown provider name: {policy.name!r}")


# ---------------------------------------------------------------------------
# document form


def certificate_to_doc(cert: GallaiCertificate) -> dict:
    elements = [format_rat(x) for x in cert.elements]  # each formatted once, and each image written with them
    return {
        "kind": "gallai-certificate",
        "ground_set": [format_rat(t) for t in cert.ground.points],
        "elements": elements,
        "copies": [
            {"scale": format_ratio(p, q), "shift": format_ratio(r, s), "image": [elements[i] for i in copy]}
            for copy, (p, q, r, s) in zip(cert.copies, cert.map_ratios())
        ],
        "colors": cert.colors,
        "girth": cert.girth,
        "flags": {
            "coloring_ok": cert.flags.coloring_ok,
            "sparsity_ok": cert.flags.sparsity_ok,
            "copies_complete": cert.flags.copies_complete,
            "note": cert.flags.note,
        },
    }


def certificate_from_doc(doc: dict, read=rat) -> GallaiCertificate:
    """The certificate a document holds.  A copy is read as the positions
    of its image among the elements, as the writer writes them, and
    accepted only if that image is a copy of the ground set
    (``_is_copy``); no copy is enumerated, so that ``verify_certificate``
    makes the one enumeration a check needs.  A stored scale or shift that
    is not its map's is left to the writer's compare."""
    flags_doc = doc["flags"]
    verdicts = [flags_doc[name] for name in ("coloring_ok", "sparsity_ok", "copies_complete")]
    flags = CertificateFlags(*(None if v is None else bool(v) for v in verdicts), note=str(flags_doc["note"]))
    ground, elements = GroundSet(tuple(map(read, doc["ground_set"]))), tuple(map(read, doc["elements"]))
    cert = GallaiCertificate(ground, elements, (), int(doc["colors"]), int(doc["girth"]), flags)
    position = {format_rat(x): p for p, x in enumerate(elements)}
    copies = [tuple(position.get(x, -1) for x in entry["image"]) for entry in doc["copies"]]
    ints, (grid,) = normalize_ground_set(ground), to_grid([elements])[1]
    if (i := next((i for i, copy in enumerate(copies) if not _is_copy(ints, grid, copy)), None)) is not None:
        image = doc["copies"][i]["image"]
        raise ValueError(f"copies[{i}].image is {image!r}, not the written elements of a copy of the ground set")
    return replace(cert, copies=tuple(copies))


def _is_copy(ints: tuple[int, ...], grid: list[int], copy: tuple[int, ...]) -> bool:
    """Whether ``enumerate_copies`` gives the positions ``copy`` (-1 for none) among elements on the
    integer ``grid`` for the ground set in normal form ``ints``: a + q t for each point t, with q > 0."""
    if len(copy) != len(ints) or min(copy) < 0:
        return False
    a = grid[copy[0]]
    q, r = divmod(grid[copy[-1]] - a, ints[-1])
    return r == 0 < q and all(grid[p] == a + q * t for p, t in zip(copy, ints))
