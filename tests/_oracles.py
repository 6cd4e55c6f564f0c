"""Independent brute-force oracles used only by the tests.

These deliberately take different routes from the library: cycle
enumeration instead of BFS, plain vertex-order color enumeration instead
of saturation-ordered backtracking, ratio tests instead of map
construction.  They are slow and only run at oracle scale.  The
exceptions are the library's own earlier fast paths, kept as references
the current ones must match exactly: ``scan_is_k_colorable``, the
coloring search with a linear scan for the next vertex, which the
incremental selection must match node for node;
``rescan_avoiding_coloring``, the refutation search that rescans a
position's copies at every visit, which the search on alive-copy bits
must match node for node; the two all-pairs intersection
sweeps, which the output-sensitive sweeps must match pair for pair;
``zheap_box_edges``, the z-sweep that tests every active pair of boxes,
which the sweep by side class must match pair for pair;
``dict_shortest_cycle``, the girth search with two dicts per root, which
the search on arrays must match cycle for cycle; ``set_graph``, the
frozenset edges and neighbour sets a graph was kept as, which its sorted
lists must hold in order; ``set_first_difference``, the compare of two
edge sets, which the compare of sorted lists must match in side and pair;
``set_scan_shift_system``, the set scan behind the shift check's list
compare, which its diagnostics must match; ``stdlib_dumps_doc``,
the standard library's indented encoder, which the scene writer must
match byte for byte;
``fraction_copies``, the copy enumeration in exact Fractions, which the
integer-grid enumeration must match copy for copy; and the box family's
Fraction path, which its integer grid must match: ``box_to_doc`` and
``box_from_doc`` for the labels and the scene reader,
``fraction_base_boxes`` and ``fraction_make_ground_boxes`` for the
bases and the ground boxes, ``fraction_embed_copy_boxes`` for the copy
embedding, and
``fraction_normalize_traces`` for trace normalization; and the line
family's Fraction path, which its integer grid must match: the line and
plane relations, ``line_to_doc`` and ``line_from_doc`` for the labels
and the scene reader, ``fraction_choose_frame`` for the frame search and
its axis parameters, and ``fraction_embed_copy_lines`` for the copy map.
``shift_line``, the Fraction closed form of a shift line, is the reference
for the rows a shift system derives on integers, and
``brute_verify_shift_system`` tests every pair of a shift system with the
Fraction line relation, and each designed meet against
``shift_meeting_point``.  ``reference_level_faults`` files a recursion
level's edges rule by rule, as the library did before it compared each
level with one model, which that compare must match in verdict and in
the first fault it names.  The small geometry and file helpers at the end
are used only by the tests, too.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from girthgeom.boxes import BoxFamily, GroundedSquareBox
from girthgeom.budget import Budget
from girthgeom.errors import BudgetExhausted, ConstructionError
from girthgeom.gallai import certificate_to_doc
from girthgeom.geometry import Box3, Dir3, Interval, Line3, Point3, Rat, Triple, cross, dot, format_rat, rat
from girthgeom.graphs import ColoringCertificate, _bipartite
from girthgeom.lines import FRAME_HEIGHT, double_shift_edges
from girthgeom.scenes import write_doc


def brute_girth(n: int, edges: set[tuple[int, int]]) -> int | float:
    """Shortest cycle by exhaustive simple-path extension from each least
    vertex, closing back to the start."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = math.inf

    def extend(start: int, path: list[int], seen: set[int]):
        nonlocal best
        if len(path) >= best:
            return
        for w in sorted(adj[path[-1]]):
            if w == start and len(path) >= 3:
                best = min(best, len(path))
            elif w > start and w not in seen:
                seen.add(w)
                path.append(w)
                extend(start, path, seen)
                path.pop()
                seen.remove(w)

    for s in range(n):
        extend(s, [s], {s})
    return best


def dict_shortest_cycle(graph) -> list[int] | None:
    """The per-root BFS of ``graphs.shortest_cycle`` with a dict of
    distances and a dict of parents per root: the reference the search on
    arrays must match, returned cycle included."""
    best: int | float = math.inf
    shortest = None
    adj = graph.adj
    floor = 4 if _bipartite(adj) else 3
    for root in range(graph.n):
        if best == floor:
            break
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                du = dist[u]
                if 2 * du >= best:
                    continue
                for w in adj[u]:
                    if w < root:
                        continue
                    if w not in dist:
                        dist[w] = du + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and parent[w] != u and du + dist[w] + 1 < best:
                        best = du + dist[w] + 1
                        shortest = parent, u, w
            frontier = nxt
    if shortest is None:
        return None
    parent, u, w = shortest
    up = [u]
    while parent[up[-1]] != -1:
        up.append(parent[up[-1]])
    index = {v: i for i, v in enumerate(up)}
    down = [w]
    while down[-1] not in index:
        down.append(parent[down[-1]])
    return up[: index[down[-1]] + 1] + down[-2::-1]


def set_graph(n: int, edges) -> tuple[list[tuple[int, int]], list[list[int]]]:
    """The edge set and the neighbour sets of the graph on 0..n-1 with the
    pairs ``edges`` (repeats and reversed pairs allowed), each listed in order."""
    pairs = frozenset((u, v) if u < v else (v, u) for u, v in edges)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return sorted(pairs), [sorted(a) for a in adj]


def set_first_difference(edges, model) -> tuple[str, tuple[int, int]] | None:
    """The least pair of either set difference of two edge sets: ("spurious",
    pair) from ``edges`` less ``model``, or ("missing", pair) from ``model``
    less ``edges``; None when the sets are equal."""
    spurious = sorted(set(edges) - set(model))
    missing = sorted(set(model) - set(edges))
    if not spurious and not missing:
        return None
    if spurious and (not missing or spurious[0] <= missing[0]):
        return "spurious", spurious[0]
    return "missing", missing[0]


def brute_is_colorable(n: int, edges: set[tuple[int, int]], k: int) -> bool:
    """Colorings enumerated in plain vertex order, no symmetry breaking."""
    if n == 0:
        return True
    if k <= 0:
        return False
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if v < u:
            u, v = v, u
        adj[v].append(u)  # only earlier neighbors matter in order

    colors = [0] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        for c in range(k):
            if all(colors[j] != c for j in adj[i]):
                colors[i] = c
                if place(i + 1):
                    return True
        return False

    return place(0)


def brute_chromatic(n: int, edges: set[tuple[int, int]]) -> int:
    k = 0
    while not brute_is_colorable(n, edges, k):
        k += 1
    return k


def scan_is_k_colorable(graph, k: int, budget=None) -> ColoringCertificate:
    """The saturation-ordered backtracking search with a linear scan for the
    next vertex at every node: the reference for the library's search,
    which must visit the same tree, spend the same nodes and return the
    same assignment."""
    budget = budget or Budget(label=f"{k}-coloring")
    n = graph.n
    if n == 0:
        return ColoringCertificate(k, "colorable", (), 0)
    if k <= 0:
        return ColoringCertificate(k, "refuted", None, 0)
    adj = graph.adj
    colors = [-1] * n
    counts = [[0] * k for _ in range(n)]  # counts[w][c]: colored neighbors of w using c
    sat = [0] * n                         # distinct colors among colored neighbors
    nodes = 0

    def select() -> int:
        best_v, best_key = -1, (-1, -1, 1)
        for v in range(n):
            if colors[v] == -1:
                key = (sat[v], len(adj[v]), -v)
                if key > best_key:
                    best_key, best_v = key, v
        return best_v

    def assign(v: int, c: int) -> None:
        colors[v] = c
        for w in adj[v]:
            cw = counts[w]
            if cw[c] == 0:
                sat[w] += 1
            cw[c] += 1

    def unassign(v: int, c: int) -> None:
        colors[v] = -1
        for w in adj[v]:
            cw = counts[w]
            cw[c] -= 1
            if cw[c] == 0:
                sat[w] -= 1

    # frames: [vertex, color currently assigned (-1 if none), colors introduced above]
    stack: list[list[int]] = [[select(), -1, 0]]
    while stack:
        frame = stack[-1]
        v, cur, intro = frame
        if cur != -1:
            unassign(v, cur)
        cap = min(k - 1, intro)
        c = cur + 1
        while c <= cap and counts[v][c] > 0:
            c += 1
        if c > cap:
            stack.pop()
            continue
        nodes += 1
        try:
            budget.spend()
        except BudgetExhausted:
            return ColoringCertificate(k, "inconclusive", None, nodes)
        assign(v, c)
        frame[1] = c
        if len(stack) == n:
            assignment = tuple(colors)
            assert all(assignment[u] != assignment[v] for u, v in graph.edges)
            return ColoringCertificate(k, "colorable", assignment, nodes)
        stack.append([select(), -1, max(intro, c + 1)])
    return ColoringCertificate(k, "refuted", None, nodes)


def rescan_avoiding_coloring(
    n: int, colors: int, copy_indices: list[tuple[int, ...]], budget: Budget
) -> tuple[int, ...] | None:
    """``gallai.find_avoiding_coloring`` as it was before each frame kept
    its forbidden colors: the same tree, rescanning the copies ending at a
    position each time the search returns to it."""
    if n == 0:
        return ()
    by_last: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for idx in copy_indices:
        by_last[idx[-1]].append(idx[:-1])
    assigned = [-1] * n
    limit = budget.max_nodes - budget.used
    nodes = 0
    # frames: [color currently tried at this position, colors introduced above]
    stack: list[list[int]] = [[-1, 0]]
    try:
        while stack:
            pos = len(stack) - 1
            frame = stack[-1]
            cur, intro = frame
            forbidden = 0
            for prefix in by_last[pos]:
                c0 = assigned[prefix[0]]
                for j in prefix[1:]:
                    if assigned[j] != c0:
                        break
                else:
                    forbidden |= 1 << c0
            cap = min(colors - 1, intro)
            c = cur + 1
            while c <= cap and (forbidden >> c) & 1:
                c += 1
            if c > cap:
                assigned[pos] = -1
                stack.pop()
                continue
            nodes += 1
            if nodes > limit:
                raise BudgetExhausted(
                    "coloring search budget exhausted", budget.used + nodes, budget.max_nodes
                )
            frame[0] = c
            assigned[pos] = c
            if pos + 1 == n:
                return tuple(assigned)
            stack.append([-1, max(intro, c + 1)])
        return None
    finally:
        budget.used += nodes


def brute_coloring_search(n: int, k: int, copy_indices) -> tuple[int, ...] | None:
    """Full enumeration of all k**n colorings; first one avoiding every
    monochromatic copy, in lexicographic order."""
    for assignment in itertools.product(range(k), repeat=n):
        if all(len({assignment[i] for i in copy}) > 1 for copy in copy_indices):
            return assignment
    return None


def brute_copies(ground, elements) -> set[tuple[Fraction, ...]]:
    """Images of the ground set inside elements, recognized by equality of
    normalized difference ratios rather than by constructing maps."""
    pts = list(ground.points)
    span = pts[-1] - pts[0]
    shape = tuple((t - pts[0]) / span for t in pts)
    out = set()
    for subset in itertools.combinations(sorted(elements), len(pts)):
        sub_span = subset[-1] - subset[0]
        if sub_span == 0:
            continue
        if tuple((x - subset[0]) / sub_span for x in subset) == shape:
            out.add(tuple(subset))
    return out


def fraction_copies(ground, elements) -> tuple[tuple[Homothety1D, tuple[Rat, ...]], ...]:
    """The copy enumeration computed in exact Fractions: every pair of
    elements as the images of the two extremes, each interior image
    computed and membership-tested, as (map, image) pairs.  The library's
    integer-grid enumeration must match it copy for copy, maps included."""
    pts = ground.points
    span = pts[-1] - pts[0]
    interior = pts[1:-1]
    universe = set(elements)
    out = []
    for i, a in enumerate(elements):
        for b in elements[i + 1:]:
            scale = (b - a) / span
            shift = a - scale * pts[0]
            mids = tuple(scale * t + shift for t in interior)
            if all(v in universe for v in mids):
                out.append((Homothety1D(scale, shift), (a, *mids, b)))
    return tuple(out)


def all_graphs(n: int):
    """Every labeled graph on n vertices, as (n, edge set)."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield n, {pairs[i] for i in range(len(pairs)) if (mask >> i) & 1}


def brute_forbidden_offsets(images_at_zero, placed_lines, u) -> set[Fraction]:
    """Every multiple of the slide vector ``u`` (a rational triple) by
    which sliding the image lines makes one meet or coincide with a placed
    line, solved pair by pair: each (image, placed) pair gives at most one
    bad value, from a linear equation in the offset."""
    bad = set()
    for img in images_at_zero:
        b_n = img.base.as_tuple()
        d_n = img.dir.as_tuple()
        for other in placed_lines:
            w = vsub(other.base.as_tuple(), b_n)
            m = cross(d_n, other.dir.as_tuple())
            if not is_zero(m):
                lead = dot(u, m)
                if lead == 0:
                    if dot(w, m) == 0:
                        raise ConstructionError("line pair stays coplanar under every slide offset")
                    continue
                bad.add(dot(w, m) / lead)
            else:
                cu = cross(u, d_n)
                idx = next(i for i in range(3) if cu[i] != 0)
                cw = cross(w, d_n)
                t = cw[idx] / cu[idx]
                if all(cw[i] == t * cu[i] for i in range(3)):
                    bad.add(t)
    return bad


def shift_line(a, b, c) -> Line3:
    """The shift line of (a, b, c) in Fractions, t -> (ab + bc + t, abc +
    bt, ab^2c + (ab + bc)t): base point (ab+bc, abc, ab^2c), direction (1,
    b, ab+bc).  The reference for the rows a shift system derives on
    integers."""
    a, b, c = rat(a), rat(b), rat(c)
    if not a < b < c:
        raise ValueError("shift line needs a < b < c")
    return Line3(
        Point3(a * b + b * c, a * b * c, a * b * b * c),
        Dir3(Fraction(1), b, a * b + b * c),
    )


def shift_meeting_point(a, b, c, d):
    """Where the lines of (a,b,c) and (b,c,d) meet: the first evaluated at
    t = cd, which equals the second evaluated at t = ab."""
    a, b, c, d = rat(a), rat(b), rat(c), rat(d)
    return point_at(shift_line(a, b, c), c * d)


def brute_verify_shift_system(system) -> tuple[bool, dict | None]:
    """The double-shift check pair by pair in (i, j) order with the
    Fraction line relation: lines of adjacent triples must meet at the
    designed point, and no other pair may meet or coincide."""
    triples, lines = system.triples, system.lines
    for i, j in itertools.combinations(range(len(triples)), 2):
        t1, t2 = triples[i], triples[j]
        rel = line_line_relation(lines[i], lines[j])
        if (t1[1], t1[2]) == (t2[0], t2[1]) or (t2[1], t2[2]) == (t1[0], t1[1]):
            if rel.kind != LineRelation.MEET:
                return False, {"pair": (i, j), "reason": "expected meet"}
            a, b = sorted((t1, t2))
            if rel.point != shift_meeting_point(a[0], a[1], a[2], b[2]):
                return False, {"pair": (i, j), "reason": "meet at unexpected point"}
        elif rel.kind in (LineRelation.MEET, LineRelation.IDENTICAL):
            return False, {"pair": (i, j), "reason": "spurious incidence"}
    return True, None


def set_scan_shift_system(system) -> tuple[bool, dict | None]:
    """The shift check by sets: every pair of the swept meeting pairs, of
    the double shift graph's edges and the identical pair, in sorted order,
    the first one not an edge named "spurious incidence" and the first edge
    not met "expected meet"."""
    expected, meets = set(double_shift_edges(len(system.values))), set(system.meets)
    suspects = expected | meets | ({system.identical} if system.identical else set())
    for i, j in sorted(suspects):
        if (i, j) not in expected:
            return False, {"pair": (i, j), "reason": "spurious incidence"}
        if (i, j) not in meets:
            return False, {"pair": (i, j), "reason": "expected meet"}
    return True, None


def reference_copy_cycle(copies, max_copies: int):
    """Shortest copy cycle of at most max_copies copies, by a BFS of its
    own over (kind, index) vertices of the copy-element incidence graph,
    rooted at copies only, each the positions of its elements; returns
    (copies, elements) of a shortest witness, or None."""
    copies = tuple(copies)
    elem_ids: dict = {}
    for c in copies:
        for x in c:
            elem_ids.setdefault(x, len(elem_ids))
    adj: dict = {}
    for ci, c in enumerate(copies):
        for x in c:
            adj.setdefault((0, ci), []).append((1, elem_ids[x]))
            adj.setdefault((1, elem_ids[x]), []).append((0, ci))
    for v in adj:
        adj[v].sort()

    def extract(u, w, parent):
        path_u = [u]
        while parent[path_u[-1]] is not None:
            path_u.append(parent[path_u[-1]])
        index_u = {v: i for i, v in enumerate(path_u)}
        path_w = [w]
        while path_w[-1] not in index_u:
            path_w.append(parent[path_w[-1]])
        cycle = path_u[: index_u[path_w[-1]] + 1] + path_w[-2::-1]
        return cycle if len(cycle) >= 3 else None

    best_len, best_cycle = math.inf, None
    for ci in range(len(copies)):
        root = (0, ci)
        if root not in adj:
            continue
        dist, parent, frontier = {root: 0}, {root: None}, [root]
        while frontier:
            nxt = []
            for u in frontier:
                if 2 * dist[u] >= best_len:
                    continue
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and parent.get(w) != u:
                        cycle = extract(u, w, parent)
                        if cycle is not None and len(cycle) < best_len:
                            best_len, best_cycle = len(cycle), cycle
            frontier = nxt
        if best_len == 4:
            break
    if best_cycle is None or best_len > 2 * max_copies:
        return None
    start = next(i for i, v in enumerate(best_cycle) if v[0] == 0)
    ring = best_cycle[start:] + best_cycle[:start]
    elems = {i: x for x, i in elem_ids.items()}
    return tuple(copies[v[1]] for v in ring[0::2]), tuple(elems[v[1]] for v in ring[1::2])


# ---------------------------------------------------------------------------
# all-pairs intersection sweeps


def all_pairs_box_edges(boxes) -> list[tuple[int, int]]:
    """Every pair of boxes tested on a common integer grid, in (i, j)
    order: the reference for the library's z-sweep."""
    rows = _box_integer_rows(boxes)
    edges = []
    for i in range(len(rows)):
        xl, xh, yl, yh, zl, zh = rows[i]
        for j in range(i + 1, len(rows)):
            xl2, xh2, yl2, yh2, zl2, zh2 = rows[j]
            if xl <= xh2 and xl2 <= xh and yl <= yh2 and yl2 <= yh and zl <= zh2 and zl2 <= zh:
                edges.append((i, j))
    return edges


def zheap_box_edges(rows) -> list[tuple[int, int]]:
    """The z-sweep over grid rows that tests a box in x and y against every
    box still active in z: the reference for the sweep by side class, at
    sizes where the all-pairs loop is slow."""
    active: list[tuple[int, ...]] = []  # heap of (z-high, index, x-low, x-high, y-low, y-high)
    edges = []
    for i in sorted(range(len(rows)), key=lambda i: rows[i][4]):
        xl, xh, yl, yh, zl, zh = rows[i]
        while active and active[0][0] < zl:
            heapq.heappop(active)
        for _, j, xl2, xh2, yl2, yh2 in active:
            if xl <= xh2 and xl2 <= xh and yl <= yh2 and yl2 <= yh:
                edges.append((min(i, j), max(i, j)))
        heapq.heappush(active, (zh, i, xl, xh, yl, yh))
    edges.sort()
    return edges


def _box_integer_rows(boxes) -> list[tuple[int, int, int, int, int, int]]:
    bounds = [box_bounds(b) for b in boxes]
    scale = math.lcm(*(v.denominator for row in bounds for v in row))
    return [tuple(int(v * scale) for v in row) for row in bounds]


def all_pairs_line_edges(lines) -> list[tuple[int, int]]:
    """Every pair of lines tested for meeting in exactly one point, on
    integer rows, in (i, j) order: the reference for the library's sweep
    by direction class."""
    rows = _line_integer_rows(lines)
    meets = []
    for i, row in enumerate(rows):
        for j in range(i + 1, len(rows)):
            if _rows_meet(row, rows[j]):
                meets.append((i, j))
    return meets


def _line_integer_rows(lines) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """All base points scaled by one common factor, each direction by its
    own."""
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


def _rows_meet(row1, row2) -> bool:
    """Whether two integer rows are lines meeting in exactly one point:
    not parallel, and coplanar."""
    (b1, d1), (b2, d2) = row1, row2
    n = (
        d1[1] * d2[2] - d1[2] * d2[1],
        d1[2] * d2[0] - d1[0] * d2[2],
        d1[0] * d2[1] - d1[1] * d2[0],
    )
    if n == (0, 0, 0):
        return False
    return (b2[0] - b1[0]) * n[0] + (b2[1] - b1[1]) * n[1] + (b2[2] - b1[2]) * n[2] == 0


# ---------------------------------------------------------------------------
# the box family's Fraction path, the reference for its integer grid


def square_box(trace, side, zlo, zhi) -> GroundedSquareBox:
    """The box [t, t+s] x [t-s, t] x [zlo, zhi] of trace t and side s."""
    t, s = rat(trace), rat(side)
    return GroundedSquareBox(Box3.from_bounds(t, t + s, t - s, t, zlo, zhi))


def trace(b: GroundedSquareBox) -> Rat:
    """Where the box touches the x = y plane: its least x."""
    return b.box.xr.lo


def side(b: GroundedSquareBox) -> Rat:
    return b.box.xr.hi - b.box.xr.lo


def fraction_base_boxes(kind: str, n: int = 0) -> tuple[GroundedSquareBox, ...]:
    """The boxes of the base ``kind`` ("single", "pair" or "odd-cycle" of
    length n) in Fractions: the reference for the bases' grid rows."""
    if kind == "single":
        return (square_box(0, 1, 0, 1),)
    if kind == "pair":
        return (GroundedSquareBox(Box3.from_bounds(0, 2, -2, 0, 0, 1)), GroundedSquareBox(Box3.from_bounds(1, 3, -1, 1, 0, 1)))
    far = 5 * (n - 2)
    ends = max(15, far)
    path = [square_box(10 * i, ends, 0, 20) if i in (0, n - 2) else square_box(10 * i, 10, 0, 10) for i in range(n - 1)]
    return (*path, square_box(far, max(20, far), 15, 20))


def fraction_make_ground_boxes(values, eps) -> list[GroundedSquareBox]:
    """One thin box [x, x+eps] x [x-eps, x] x [0, 1] per value, in Fractions."""
    return [square_box(x, eps, 0, 1) for x in sorted(map(rat, values))]


def box_bounds(b: GroundedSquareBox) -> tuple[Rat, ...]:
    bb = b.box
    return bb.xr.lo, bb.xr.hi, bb.yr.lo, bb.yr.hi, bb.zr.lo, bb.zr.hi


def box_to_doc(b) -> dict:
    """A box's document, each bound formatted on its own."""
    bb = b.box
    return {
        "x": [format_rat(bb.xr.lo), format_rat(bb.xr.hi)],
        "y": [format_rat(bb.yr.lo), format_rat(bb.yr.hi)],
        "z": [format_rat(bb.zr.lo), format_rat(bb.zr.hi)],
    }


def box_from_doc(doc: dict, read=rat) -> GroundedSquareBox:
    """The box of one box document, each bound parsed by ``read``."""
    return GroundedSquareBox(Box3(*(Interval(read(lo), read(hi)) for lo, hi in (doc["x"], doc["y"], doc["z"]))))


def line_from_doc(doc: dict, read=rat) -> Line3:
    """The line of one line document, each entry parsed by ``read``."""
    return Line3(Point3(*map(read, doc["base"])), Dir3(*map(read, doc["dir"])))


def axis_map_box(maps, b) -> Box3:
    """The image of a box under a pair of 1-D homotheties, the first on x
    and y and the second on z, interval by interval."""
    horizontal, vertical = maps
    axis = lambda f, iv: Interval(apply(f, iv.lo), apply(f, iv.hi))
    return Box3(axis(horizontal, b.xr), axis(horizontal, b.yr), axis(vertical, b.zr))


def fraction_embed_copy_boxes(parent, embeddings) -> list[list[GroundedSquareBox]]:
    """Each embedding (a copy's positions, its map, which acts on x and y,
    and a map of heights) applied to the parent box by box in Fractions:
    the reference for the library's embedding on the grid."""
    return [[GroundedSquareBox(axis_map_box((horizontal, vertical), b.box)) for b in parent.boxes]
            for _, horizontal, vertical in embeddings]


def fraction_normalize_traces(fam):
    """Trace normalization with every critical quantity and offset in
    Fractions: the reference for the library's normalization on the grid,
    which must give the same family."""
    boxes, traces = fam.boxes, fam.traces()
    if len(set(traces)) == len(traces):
        return fam
    prov = fam.provenance
    if prov.get("kind") == "recursion":  # ground boxes, one per element, then one block per copy of the parent
        cert = prov["certificate"]
        m, size = len(cert.elements), cert.ground.size
        blocks = [list(range(m))] + [list(range(m + j * size, m + (j + 1) * size)) for j in range(len(cert.copies))]
    else:
        blocks = [[i] for i in range(len(boxes))]
    block_of = {i: bi for bi, members in enumerate(blocks) for i in members}
    before = fam.intersection_edges()
    critical = [abs(a - b) for a, b in itertools.combinations(traces, 2) if a != b]
    for i, j in itertools.combinations(range(len(boxes)), 2):
        if block_of[i] == block_of[j]:
            continue
        bi, bj = boxes[i].box, boxes[j].box
        for ri, rj in ((bi.xr, bj.xr), (bi.yr, bj.yr)):
            for q in (ri.hi - rj.lo, rj.hi - ri.lo):
                if q != 0:
                    critical.append(abs(q))
    if not critical:
        raise ConstructionError("cannot normalize traces: no safe perturbation size exists")
    quantum = min(critical) / (2 * (len(blocks) + 1))
    used = set()
    shifted = [None] * len(boxes)
    for members in blocks:
        own = [trace(boxes[i]) for i in members]
        for j in range(len(blocks) + 1):
            delta = j * quantum
            if all(t + delta not in used for t in own):
                break
        else:
            raise ConstructionError("trace normalization ran out of offsets")
        used.update(t + delta for t in own)
        for i in members:
            b = boxes[i]
            shifted[i] = square_box(trace(b) + delta, side(b), b.box.zr.lo, b.box.zr.hi)
    out = BoxFamily(tuple(shifted), fam.claimed_girth, fam.claimed_chromatic,
                    {**fam.provenance, "traces_normalized": True})
    if len(set(out.traces())) != len(out) or out.intersection_edges() != before:
        raise ConstructionError("trace normalization failed")
    return out


# ---------------------------------------------------------------------------
# the line family's Fraction path, the reference for its integer grid


def vsub(u: Triple, v: Triple) -> Triple:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def vadd(u: Triple, v: Triple) -> Triple:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def vscale(s: Rat, u: Triple) -> Triple:
    return (s * u[0], s * u[1], s * u[2])


def is_zero(u: Triple) -> bool:
    return u[0] == 0 and u[1] == 0 and u[2] == 0


def point_at(line: Line3, t: Rat) -> Point3:
    """The point base + t dir of a line, dir scaled to a leading 1."""
    return Point3(*vadd(line.base.as_tuple(), vscale(t, line.dir.as_tuple())))


def contains_point(line: Line3, p: Point3) -> bool:
    return is_zero(cross(vsub(p.as_tuple(), line.base.as_tuple()), line.dir.as_tuple()))


def line_to_doc(line: Line3) -> dict:
    """A line's document, each entry formatted on its own."""
    b, d = line.base, line.dir
    return {
        "base": [format_rat(b.x), format_rat(b.y), format_rat(b.z)],
        "dir": [format_rat(d.dx), format_rat(d.dy), format_rat(d.dz)],
    }


class LineRelation(Enum):
    IDENTICAL = "identical"
    MEET = "meet"
    PARALLEL = "parallel-disjoint"
    SKEW = "skew"


@dataclass(frozen=True)
class LineMeeting:
    kind: LineRelation
    point: Point3 | None = None


def line_line_relation(l1: Line3, l2: Line3) -> LineMeeting:
    """Exact classification of a pair of lines, with the common point
    when they meet in exactly one point."""
    d1 = l1.dir.as_tuple()
    d2 = l2.dir.as_tuple()
    w = vsub(l2.base.as_tuple(), l1.base.as_tuple())
    if l1.dir == l2.dir:
        if is_zero(cross(w, d1)):
            return LineMeeting(LineRelation.IDENTICAL)
        return LineMeeting(LineRelation.PARALLEL)
    n = cross(d1, d2)
    if dot(w, n) != 0:
        return LineMeeting(LineRelation.SKEW)
    p = point_at(l1, dot(cross(w, d2), n) / dot(n, n))
    assert contains_point(l2, p)
    return LineMeeting(LineRelation.MEET, p)


@dataclass(frozen=True)
class Plane3:
    """The plane { p : normal . p = offset } with canonical normal."""

    normal: Dir3
    offset: Rat

    def contains_point(self, p: Point3) -> bool:
        return dot(self.normal.as_tuple(), p.as_tuple()) == self.offset

    def contains_line(self, l: Line3) -> bool:
        return self.contains_point(l.base) and dot(self.normal.as_tuple(), l.dir.as_tuple()) == 0

    def point_on(self) -> Point3:
        """A deterministic representative point of the plane."""
        n = self.normal.as_tuple()
        coords = [Fraction(0)] * 3
        lead = 0 if n[0] != 0 else (1 if n[1] != 0 else 2)
        coords[lead] = self.offset / n[lead]
        return Point3(*coords)


class PlaneRelation(Enum):
    MEET = "meet"
    CONTAINED = "contained"
    PARALLEL = "parallel-disjoint"


@dataclass(frozen=True)
class PlaneMeeting:
    kind: PlaneRelation
    point: Point3 | None = None


def line_plane_meet(l: Line3, plane: Plane3) -> PlaneMeeting:
    """Exact classification of a line against a plane, with the crossing
    point when the line is transversal."""
    n = plane.normal.as_tuple()
    nd = dot(n, l.dir.as_tuple())
    if nd == 0:
        if plane.contains_point(l.base):
            return PlaneMeeting(PlaneRelation.CONTAINED)
        return PlaneMeeting(PlaneRelation.PARALLEL)
    t = (plane.offset - dot(n, l.base.as_tuple())) / nd
    return PlaneMeeting(PlaneRelation.MEET, point_at(l, t))


def perp_in_plane(plane: Plane3, line: Line3) -> Dir3:
    """The direction within ``plane`` perpendicular to ``line``, which must
    lie in it: the canonical form of normal x dir."""
    if not plane.contains_line(line):
        raise ValueError("line is not contained in the plane")
    return Dir3(*cross(plane.normal.as_tuple(), line.dir.as_tuple()))


@dataclass(frozen=True)
class Homothety3D:
    """p -> scale * p + shift in 3-space, with scale > 0."""

    scale: Rat
    shift: Point3

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be strictly positive")

    def apply_point(self, p: Point3) -> Point3:
        s = self.scale
        return Point3(s * p.x + self.shift.x, s * p.y + self.shift.y, s * p.z + self.shift.z)

    def apply_line(self, l: Line3) -> Line3:
        # positive uniform scaling preserves canonical directions exactly
        return Line3(self.apply_point(l.base), l.dir)


@dataclass(frozen=True)
class FractionFrame:
    """A transversal frame in Fractions: a plane, an axis line inside it,
    and the in-plane direction perpendicular to the axis."""

    plane: Plane3
    axis: Line3
    perp: Dir3

    def param_of(self, p: Point3) -> Rat:
        d = self.axis.dir.as_tuple()
        return dot(vsub(p.as_tuple(), self.axis.base.as_tuple()), d) / dot(d, d)


def fraction_canonical_dirs():
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


def _fraction_offsets():
    yield Fraction(0)
    k = 1
    while True:
        yield Fraction(k)
        yield Fraction(-k)
        k += 1


def fraction_frame_conditions(frame: FractionFrame, lines) -> list[str]:
    """The failed genericity conditions of a Fraction frame, in the order
    the library lists them."""
    failures = []
    nvec = frame.plane.normal.as_tuple()
    dvec = frame.axis.dir.as_tuple()
    hits = []
    for l in lines:
        meet = line_plane_meet(l, frame.plane)
        if meet.kind != PlaneRelation.MEET:
            return ["transversal"]
        hits.append(meet.point.as_tuple())
    if len(set(hits)) != len(hits):
        failures.append("distinct-traces")
    if len({dot(h, dvec) for h in hits}) != len(hits):
        failures.append("distinct-projections")
    dirs = {l.dir.as_tuple() for l in lines}
    if any(dot(cross(nvec, cross(d, e)), dvec) == 0 for d, e in itertools.combinations(dirs, 2)):
        failures.append("parallel-plane-pairs")
    return failures


def fraction_choose_frame(lines) -> tuple[FractionFrame, list[Rat]]:
    """The frame search in Fractions, on line objects, with the axis
    parameter of each line's crossing point: the reference for the
    library's search on the grid, which must pick the same frame."""
    lines = list(lines)
    dirs = [l.dir.as_tuple() for l in lines]
    meets = [
        rel.point.as_tuple()
        for l1, l2 in itertools.combinations(lines, 2)
        if (rel := line_line_relation(l1, l2)).kind == LineRelation.MEET
    ]
    for normal in fraction_canonical_dirs():
        nvec = normal.as_tuple()
        if any(dot(nvec, d) == 0 for d in dirs):
            continue
        bad_offsets = {dot(nvec, p) for p in meets}
        plane = Plane3(normal, next(o for o in _fraction_offsets() if o not in bad_offsets))
        for axis_dir in fraction_canonical_dirs():
            if dot(axis_dir.as_tuple(), nvec) != 0:
                continue
            axis = Line3(plane.point_on(), axis_dir)
            frame = FractionFrame(plane, axis, perp_in_plane(plane, axis))
            if not fraction_frame_conditions(frame, lines):
                return frame, [frame.param_of(line_plane_meet(l, plane).point) for l in lines]
    raise AssertionError("no frame within FRAME_HEIGHT")


def fraction_make_ground_lines(values, frame: FractionFrame) -> list[Line3]:
    """One line per axis parameter, through the axis point, along the
    frame's perpendicular."""
    return [Line3(point_at(frame.axis, rat(x)), frame.perp) for x in sorted(values)]


def fraction_embed_copy_lines(lines, frame: FractionFrame, copy_map, offset) -> list[Line3]:
    """The image of the lines under p -> s p + (1 - s) B + h a + offset u
    for the copy map x -> s x + h, applied line by line as a Fraction
    homothety: the reference for the library's copy map on the grid."""
    scale, h = copy_map.scale, copy_map.shift
    base, a, u = frame.axis.base.as_tuple(), frame.axis.dir.as_tuple(), frame.perp.as_tuple()
    shift = vadd(vadd(vscale(1 - scale, base), vscale(h, a)), vscale(rat(offset), u))
    mapping = Homothety3D(scale, Point3(*shift))
    return [mapping.apply_line(l) for l in lines]


# ---------------------------------------------------------------------------
# recursion levels, rule by rule


def reference_level_faults(prov: dict, size: int, edges) -> list[tuple[str, str]]:
    """Every fault of the level ``prov`` of ``size`` objects meeting in the
    sorted pairs ``edges``, by the rules the library checked one by one
    before it compared each level with one model, as (rule, text) in rule
    order.  A base must have its kind's graph ("base").  A recursion's
    edges are filed by block: no two ground objects meet ("ground"); each
    copy object meets one ground object ("count"), and once each does, the
    one at its own rank of its copy's image ("placed"), the ranks read
    from a line level's ``parent_params`` or else from the ground objects
    the first copy meets, each once; no two copies meet ("cross"); and
    every copy induces what the first does ("copy")."""
    kind = prov["kind"]
    if kind != "recursion":
        n = {"base-single": 1, "base-pair": 2}.get(kind) or prov["n"]  # one vertex, one edge or C_n
        want = sorted({(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}) if n > 2 else [(0, 1)][:n - 1]
        return [] if (size, list(edges)) == (n, want) else [("base", f"{size} objects and edges {list(edges)}")]
    cert = prov["certificate"]
    m, step, images = len(cert.elements), cert.ground.size, cert.copies
    ground_pairs, cross_pairs = [], []
    met: dict[int, list[int]] = {i: [] for i in range(m, size)}
    intra: list[set] = [set() for _ in images]
    for u, v in edges:
        if v < m:
            ground_pairs.append((u, v))
        elif u < m:
            met[v].append(u)
        elif (u - m) // step == (v - m) // step:
            intra[(u - m) // step].add(((u - m) % step, (v - m) % step))
        else:
            cross_pairs.append((u, v))
    faults = [("ground", f"intersecting ground pair {e}") for e in ground_pairs]
    faults += [("count", f"copy object {i} meets {len(g)} ground objects") for i, g in met.items() if len(g) != 1]
    if images and not any(rule == "count" for rule, _ in faults):
        first = [met[m + i] for i in range(step)]
        if "parent_params" in prov:
            ranks = [sorted(cert.ground.points).index(t) for t in prov["parent_params"]]
        elif sorted(first) == [[g] for g in images[0]]:
            ranks = [list(images[0]).index(g) for g, in first]
        else:
            ranks = None
            faults.append(("placed", f"copy 0 meets ground objects {first}, not each of {list(images[0])} once"))
        faults += [("placed", f"object {i} meets ground {met[i]}, expected [{copy[r]}]")
                   for j, copy in enumerate(images) for i, r in enumerate(ranks or (), m + j * step)
                   if met[i] != [copy[r]]]
    faults += [("cross", f"intersecting cross-copy pair {e}") for e in cross_pairs]
    faults += [("copy", f"copy {j} differs at {sorted(got ^ intra[0])[:1]}") for j, got in enumerate(intra)
               if got != intra[0]]
    return faults


def reference_parent_graph(prov: dict, edges) -> tuple[int, list[tuple[int, int]]]:
    """The size and sorted edges of the graph the recursion level ``prov``
    records for its parent: those its first copy block induces."""
    cert = prov["certificate"]
    m, step = len(cert.elements), cert.ground.size
    return step, sorted((u - m, v - m) for u, v in edges if m <= u and v < m + step)


# ---------------------------------------------------------------------------
# helpers used only by the tests


def intervals_intersect(a, b) -> bool:
    """Closed intervals intersect iff each starts before the other ends."""
    return a.lo <= b.hi and b.lo <= a.hi


def box_intersects(a, b) -> bool:
    """Closed boxes intersect iff all three coordinate intervals overlap."""
    return intervals_intersect(a.xr, b.xr) and intervals_intersect(a.yr, b.yr) and intervals_intersect(a.zr, b.zr)


@dataclass(frozen=True)
class Homothety1D:
    """x -> scale * x + shift on the rational line, with scale > 0."""

    scale: Rat
    shift: Rat

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be strictly positive")


def identity_map() -> Homothety1D:
    """x -> x."""
    return Homothety1D(Fraction(1), Fraction(0))


def ratios(m: Homothety1D) -> tuple[int, int, int, int]:
    """The integers (a, b, c, d) of the scale a / b and shift c / d of
    ``m``, the form in which the lift takes a map."""
    return m.scale.numerator, m.scale.denominator, m.shift.numerator, m.shift.denominator


def homotheties(cert) -> list[Homothety1D]:
    """Each copy's map of ``cert`` (``map_ratios``) as a Homothety1D."""
    return [Homothety1D(Fraction(a, b), Fraction(c, d)) for a, b, c, d in cert.map_ratios()]


def apply(m, value):
    """The image of a rational under the 1-D homothety ``m``."""
    return m.scale * value + m.shift


def homothety_box(f, b):
    """The image of a box under a 3-D homothety ``f``."""
    axis = lambda iv, c: Interval(f.scale * iv.lo + c, f.scale * iv.hi + c)
    return Box3(axis(b.xr, f.shift.x), axis(b.yr, f.shift.y), axis(b.zr, f.shift.z))


def plane_of(nx, ny, nz, offset) -> Plane3:
    """The plane nx x + ny y + nz z = offset; canonicalizing the normal
    divides the offset by the same leading coefficient."""
    nx, ny, nz, offset = rat(nx), rat(ny), rat(nz), rat(offset)
    lead = next((c for c in (nx, ny, nz) if c != 0), None)
    if lead is None:
        raise ValueError("plane normal must not be zero")
    return Plane3(Dir3(nx, ny, nz), offset / lead)


def reference_bad_ground_pair(lines, ground):
    """The first pair i < j of ground indices, in ground order, whose lines
    the pairwise classification does not call parallel-disjoint."""
    return next(
        (
            (i, j)
            for i in ground
            for j in ground
            if i < j and line_line_relation(lines[i], lines[j]).kind != LineRelation.PARALLEL
        ),
        None,
    )


def same_line(a, b) -> bool:
    """Set equality: same direction and base offset parallel to it."""
    return a.dir == b.dir and contains_point(a, b.base)


def stdlib_dumps_doc(doc) -> str:
    """The scene writer's reference: the standard library's encoder with
    sorted keys and an indent of two."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_certificate(path, cert) -> None:
    write_doc(path, certificate_to_doc(cert))
