"""Exact graph analyses for geometric families: intersection graphs,
girth, colorability, chromatic number, and expected-graph comparison.

Coloring searches are budgeted by node expansions and are deterministic:
the same graph and budget always explore the same tree.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .budget import Budget


class GeoGraph:
    """A simple undirected graph on the vertices 0..n-1: ``edges`` is the
    sorted list of its pairs (u, v), u < v, each once, and ``adj[v]`` the
    ascending list of v's neighbours."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        self.n = n
        edges = list(edges)
        # a dict keeps the given order, so edges given sorted, as every sweep gives them, sort in one pass
        self.edges = sorted(dict.fromkeys([e if e[0] < e[1] else (e[1], e[0]) for e in edges]))
        if not all(0 <= u < v < n for u, v in self.edges):
            u, v = next((u, v) for u, v in edges if u == v or not (0 <= u < n and 0 <= v < n))
            raise ValueError(f"loop at vertex {u}" if u == v else f"edge ({u}, {v}) out of range")
        self.adj = adj = [[] for _ in range(n)]
        for u, v in self.edges:  # in order, so each list ascends: first its lower neighbours, then its higher
            adj[u].append(v)
            adj[v].append(u)

    @property
    def m(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, GeoGraph) and self.n == other.n and self.edges == other.edges

    def __repr__(self) -> str:
        return f"GeoGraph(n={self.n}, m={self.m})"


def cycle_graph(n: int) -> GeoGraph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return GeoGraph(n, [(i, (i + 1) % n) for i in range(n)])


def intersection_graph(family) -> GeoGraph:
    """Exact intersection graph of a geometric family.

    The family supplies its own meeting pairs through
    ``intersection_edges()``; vertex i is the family's i-th object.
    """
    return GeoGraph(len(family), family.intersection_edges())


# ---------------------------------------------------------------------------
# girth


def shortest_cycle(graph: GeoGraph) -> list[int] | None:
    """A shortest cycle as its vertex sequence, None for forests.

    Per-vertex BFS: every non-tree edge (u, w) seen from a root yields a
    closed walk of length dist(u) + dist(w) + 1 through that root, which
    never undercuts a shortest cycle, and is tight for some root on one.
    Each root searches only the vertices from itself up, which is still
    tight from the lowest vertex of a shortest cycle.  The search stops
    once no shorter cycle can exist: 3, or 4 for a bipartite graph.
    The cycle is read off the shortest walk: the tree paths from u and w
    up to their lowest common ancestor, closed by the edge.  Distances and
    parents are kept in two arrays, reset after each root.
    """
    best: int | float = math.inf
    shortest = None
    adj = graph.adj
    floor = 4 if _bipartite(adj) else 3
    dist = [-1] * graph.n  # -1: not reached from the current root
    parent = [-1] * graph.n
    for root in range(graph.n):
        if best == floor:
            break
        dist[root] = 0
        parent[root] = -1
        queue = [root]  # by distance; the loop visits what it appends
        for u in queue:
            du = dist[u]
            if 2 * du >= best:
                break
            up = parent[u]
            for w in adj[u]:
                if w < root or w == up:
                    continue
                dw = dist[w]
                if dw == -1:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif du + dw + 1 < best:  # not u's child either: w is listed once, and found before u got to it
                    best = du + dw + 1
                    shortest = parent.copy(), u, w
        for v in queue:
            dist[v] = -1
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


def _bipartite(adj) -> bool:
    """Whether the graph 2-colours, so that it has no odd cycle."""
    side = [-1] * len(adj)
    for s in range(len(adj)):
        if side[s] != -1:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if side[w] == -1:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def girth(graph: GeoGraph) -> int | float:
    """Length of a shortest cycle, math.inf for forests."""
    cycle = shortest_cycle(graph)
    return math.inf if cycle is None else len(cycle)


# ---------------------------------------------------------------------------
# coloring


class ColoringCertificate:
    """Outcome of a k-colorability search.

    status is "colorable" with a checked proper assignment, "refuted"
    after an exhaustive backtracking run, or "inconclusive" when the node
    budget ran out first.
    """

    def __init__(self, colors: int, status: str, assignment: tuple[int, ...] | None, nodes: int):
        self.colors, self.status, self.assignment, self.nodes = colors, status, assignment, nodes

    @property
    def refuted(self) -> bool | None:
        """The verdict that k colors do not suffice; None when the budget
        ran out first."""
        return None if self.status == "inconclusive" else self.status == "refuted"


def is_k_colorable(graph: GeoGraph, k: int, budget: Budget | None = None) -> ColoringCertificate:
    """Proper k-coloring or exhaustive refutation, by backtracking with
    color-symmetry breaking (each vertex may use at most one color beyond
    those already introduced).  The next vertex is the uncolored one of
    highest saturation (distinct colors among its colored neighbors), then
    highest degree, then lowest index.

    The state is bitsets over the vertices ranked by (degree, -index), so
    the top bit wins a tie: ``near_c[c]`` holds the ranks with a neighbor
    colored c, and the slice ``sat[s]`` those with more than s distinct
    neighbor colors.  Coloring rank r with c moves r's neighbors outside
    ``near_c[c]`` up the slices in at most k big-integer steps, and each
    depth keeps the words it replaced for the backtrack.  r's neighbor mask
    is built when r is first colored, so a search that ends early builds
    few.  With Delta + 1 colors, Delta the largest degree, the search never
    backtracks, and it never opens a color above Delta, so it runs with
    min(k, Delta + 1); the certificate keeps k."""
    budget = budget or Budget(label=f"{k}-coloring")
    n = graph.n
    if n == 0:
        return ColoringCertificate(k, "colorable", (), 0)
    if k <= 0:
        return ColoringCertificate(k, "refuted", None, 0)
    adj = graph.adj
    colors = min(k, max(map(len, adj)) + 1)
    ranked = sorted(range(n), key=lambda v: (len(adj[v]), -v))
    rank = {v: r for r, v in enumerate(ranked)}
    near: list[int | None] = [None] * n  # near[r]: the ranks adjacent to rank r
    near_c = [0] * colors
    sat = [0] * colors
    uncolored = (1 << n) - 1
    # per depth: the rank colored there, its color (-1 before the first),
    # the highest color it may take, and the near_c word and slices it replaced
    at_rank, at_color, at_cap = [0] * n, [-1] * n, [0] * n
    at_near, at_sat = [0] * n, [sat] * n
    limit = budget.max_nodes - budget.used
    nodes = depth = 0
    at_rank[0] = n - 1
    try:
        while depth >= 0:
            r, cur = at_rank[depth], at_color[depth]
            bit = 1 << r
            if cur == -1:
                uncolored ^= bit
                at_sat[depth] = sat
            else:
                near_c[cur] = at_near[depth]
                sat = at_sat[depth]
            cap = at_cap[depth]
            c = cur + 1
            while c <= cap and near_c[c] & bit:
                c += 1
            if c > cap:
                uncolored ^= bit
                at_color[depth] = -1
                depth -= 1
                continue
            nodes += 1
            if nodes > limit:
                return ColoringCertificate(k, "inconclusive", None, nodes)
            at_color[depth] = c
            mask = near[r]
            if mask is None:
                mask = near[r] = sum(1 << rank[w] for w in adj[ranked[r]])
            old = at_near[depth] = near_c[c]
            near_c[c] = old | mask
            carry = mask & ~old
            if carry:
                sat = sat.copy()
                for s in range(colors):
                    level = sat[s]
                    sat[s] = level | carry
                    carry &= level
                    if not carry:
                        break
            if depth == n - 1:
                assignment = [0] * n
                for d in range(n):
                    assignment[ranked[at_rank[d]]] = at_color[d]
                assert all(assignment[u] != assignment[v] for u, v in graph.edges)
                return ColoringCertificate(k, "colorable", tuple(assignment), nodes)
            depth += 1
            for level in reversed(sat):
                top = level & uncolored
                if top:
                    break
            else:
                top = uncolored
            at_rank[depth] = top.bit_length() - 1
            at_cap[depth] = cap + 1 if c == cap < colors - 1 else cap
        return ColoringCertificate(k, "refuted", None, nodes)
    finally:
        budget.used += nodes


class ChromaticResult:
    """Exact chromatic number with its two certificates: an optimal proper
    coloring and the exhaustive refutation one color below (when any);
    status is "exact" or "inconclusive"."""

    def __init__(self, value: int | None, coloring: ColoringCertificate | None,
                 refutation: ColoringCertificate | None, status: str):
        self.value, self.coloring, self.refutation, self.status = value, coloring, refutation, status


def chromatic_number(
    graph: GeoGraph, budget: Budget | None = None, refutation: ColoringCertificate | None = None
) -> ChromaticResult:
    """Exact chromatic number, refutation-first: colorability at k is
    decided only after every smaller color count has been refuted.  A
    ``refutation`` of this graph that the caller already ran, if it
    refuted k colors, starts the search at k + 1 instead of 1."""
    budget = budget or Budget(label="chromatic")
    if graph.n == 0:
        empty = ColoringCertificate(0, "colorable", (), 0)
        return ChromaticResult(0, empty, None, "exact")
    if refutation is not None and not refutation.refuted:
        refutation = None
    k = 1 if refutation is None else refutation.colors + 1
    while True:
        cert = is_k_colorable(graph, k, budget)
        if cert.status == "colorable":
            return ChromaticResult(k, cert, refutation, "exact")
        if cert.status == "inconclusive":
            return ChromaticResult(None, None, refutation, "inconclusive")
        refutation = cert
        k += 1


# ---------------------------------------------------------------------------
# expected-graph comparison


def first_difference(edges: list[tuple[int, int]], model: list[tuple[int, int]]) -> tuple[str, tuple[int, int]] | None:
    """None when the sorted pair lists ``edges`` and ``model`` are equal, else the least pair one
    of them alone holds, as ("spurious", pair) when ``edges`` holds it and ("missing", pair) when
    ``model`` does: the lesser pair at the first index where they differ."""
    if edges == model:
        return None
    for a, b in zip(edges, model):
        if a != b:
            return ("spurious", a) if a < b else ("missing", b)
    return ("spurious", edges[len(model)]) if len(edges) > len(model) else ("missing", model[len(edges)])


def graph_equals_expected(graph: GeoGraph, expected: GeoGraph) -> tuple[bool, tuple[str, tuple[int, int]] | None]:
    """Edge-set equality of two graphs on the same vertices: (True, None), or
    (False, the ``first_difference`` of the graph's edges from the expected ones)."""
    if graph.n != expected.n:
        raise ValueError("vertex counts differ")
    witness = first_difference(graph.edges, expected.edges)
    return witness is None, witness


# ---------------------------------------------------------------------------
# DIMACS export


def to_dimacs(graph: GeoGraph) -> str:
    """DIMACS edge format, 1-indexed, vertices in family order."""
    lines = [f"p edge {graph.n} {graph.m}"]
    for u, v in graph.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
