import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthgeom import (
    Budget,
    GeoGraph,
    chromatic_number,
    cycle_graph,
    girth,
    graph_equals_expected,
    intersection_graph,
    is_k_colorable,
    meeting_pair_family,
    meeting_pair_lines,
    odd_cycle_boxes,
    recursion_step_boxes,
    recursion_step_lines,
    to_dimacs,
)
from girthgeom.gallai import ProviderPolicy
from girthgeom.graphs import first_difference, shortest_cycle
from girthgeom.lines import build_shift_system, double_shift_graph

from _oracles import (
    all_graphs,
    brute_chromatic,
    brute_girth,
    brute_is_colorable,
    dict_shortest_cycle,
    scan_is_k_colorable,
    set_first_difference,
    set_graph,
)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    return n, edges


class TestGirth:
    def test_cycles(self):
        assert girth(cycle_graph(9)) == 9
        assert girth(cycle_graph(5)) == 5

    def test_forest(self):
        g = GeoGraph(4, [(0, 1), (1, 2), (1, 3)])
        assert girth(g) == math.inf

    def test_empty(self):
        assert girth(GeoGraph(3, [])) == math.inf

    def test_triangle_with_tail(self):
        g = GeoGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        assert girth(g) == 3

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (2, 5), (1, 1)], "edge (2, 5) out of range"),
            ([(0, 1), (1, 1), (2, 5)], "loop at vertex 1"),
            ([(5, 0)], "edge (5, 0) out of range"),
            ([(2, 1), (-1, 2)], "edge (-1, 2) out of range"),
        ],
    )
    def test_the_first_bad_edge_is_named(self, edges, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GeoGraph(3, iter(edges))

    def test_matches_oracle_on_random(self):
        for seed in range(60):
            n, edges = random_graph(8, 0.35, seed)
            assert girth(GeoGraph(n, edges)) == brute_girth(n, edges)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return n, set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_shortest_cycle_is_a_shortest_simple_cycle(graph):
    n, edges = graph
    cycle = shortest_cycle(GeoGraph(n, edges))
    expected = brute_girth(n, edges)
    if cycle is None:
        assert expected == math.inf
        return
    assert len(cycle) == expected
    assert len(set(cycle)) == len(cycle) >= 3
    for u, w in zip(cycle, cycle[1:] + cycle[:1]):
        assert (min(u, w), max(u, w)) in edges


@st.composite
def _shaped_graphs(draw):
    """Small graphs of a drawn shape: any, a forest (each vertex joined to at
    most one earlier one), bipartite (edges only across a drawn split), or
    disconnected (two graphs side by side, no edge between them)."""
    n = draw(st.integers(0, 11))
    shape = draw(st.sampled_from(["any", "forest", "bipartite", "disconnected"]))
    if shape == "forest":
        parents = [draw(st.integers(-1, v - 1)) for v in range(n)]
        return n, {(p, v) for v, p in enumerate(parents) if p >= 0}
    side = [draw(st.booleans()) for _ in range(n)]
    cut = draw(st.integers(0, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if shape == "any" or (shape == "bipartite" and side[i] != side[j])
             or (shape == "disconnected" and (i < cut) == (j < cut))]
    return n, set(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else set()


@settings(max_examples=400, deadline=None)
@given(_shaped_graphs())
def test_shortest_cycle_is_the_dict_search_cycle(graph):
    # certificate witnesses are read off this cycle, so the search on arrays
    # must return the very cycle the search with dicts per root returned
    n, edges = graph
    g = GeoGraph(n, edges)
    cycle = shortest_cycle(g)
    assert cycle == dict_shortest_cycle(g)
    assert (math.inf if cycle is None else len(cycle)) == brute_girth(n, edges)


@pytest.mark.parametrize(
    "make",
    [
        lambda: intersection_graph(recursion_step_boxes(odd_cycle_boxes(5), 1, 4,
                                                        ProviderPolicy("vdw", vdw_length_hint=100).provider())),
        lambda: intersection_graph(recursion_step_lines(meeting_pair_lines(), 2, 4,
                                                        ProviderPolicy("vdw", vdw_length_hint=25).provider())),
        lambda: double_shift_graph(7),
        lambda: GeoGraph(12, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (6, 7), (7, 8), (8, 9), (9, 6)]),
    ],
    ids=["box-step", "line-step", "double-shift-7", "path-triangle-square"],
)
def test_shortest_cycle_is_the_dict_search_cycle_on_larger_graphs(make):
    g = make()
    assert shortest_cycle(g) == dict_shortest_cycle(g) is not None


class TestColoring:
    def test_c5_two_colors_refuted(self):
        assert is_k_colorable(cycle_graph(5), 2).status == "refuted"

    def test_c5_three_colors(self):
        cert = is_k_colorable(cycle_graph(5), 3)
        assert cert.status == "colorable"
        edges = cycle_graph(5).edges
        assert all(cert.assignment[u] != cert.assignment[v] for u, v in edges)

    def test_budget_inconclusive(self):
        cert = is_k_colorable(cycle_graph(9), 2, Budget(2))
        assert cert.status == "inconclusive"

    def test_chromatic_examples(self):
        assert chromatic_number(cycle_graph(9)).value == 3
        g = GeoGraph(3, [])
        assert chromatic_number(g).value == 1

    def test_chromatic_returns_refutation(self):
        result = chromatic_number(cycle_graph(5))
        assert result.value == 3
        assert result.refutation is not None
        assert result.refutation.colors == 2
        assert result.refutation.status == "refuted"

    def test_matches_oracle_on_random(self):
        for seed in range(40):
            n, edges = random_graph(7, 0.4, seed)
            g = GeoGraph(n, edges)
            assert chromatic_number(g).value == brute_chromatic(n, edges)
            for k in (1, 2, 3):
                assert (is_k_colorable(g, k).status == "colorable") == brute_is_colorable(
                    n, edges, k
                )

    def test_exhaustive_small(self):
        for n, edges in all_graphs(4):
            g = GeoGraph(n, edges)
            assert girth(g) == brute_girth(n, edges)
            assert chromatic_number(g).value == brute_chromatic(n, edges)


@st.composite
def coloring_graphs(draw):
    n = draw(st.integers(0, 30))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return GeoGraph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


def same_search(graph, k, nodes=None):
    """The library search and the linear-scan reference, each with its own
    budget of ``nodes`` (None: the default), give the same status,
    assignment and node count, and leave their budgets equally spent."""
    fast_budget = Budget() if nodes is None else Budget(nodes)
    scan_budget = Budget() if nodes is None else Budget(nodes)
    fast = is_k_colorable(graph, k, fast_budget)
    scan = scan_is_k_colorable(graph, k, scan_budget)
    assert (fast.status, fast.assignment, fast.nodes, fast_budget.used) == (
        scan.status, scan.assignment, scan.nodes, scan_budget.used)


@settings(max_examples=150, deadline=None)
@given(coloring_graphs())
def test_search_matches_linear_scan_reference(graph):
    for k in range(6):
        for budget in (None, 1, 7, 60):
            same_search(graph, k, budget)


@pytest.mark.parametrize("n", range(7, 18))
def test_search_matches_linear_scan_reference_on_double_shift_graphs(n):
    for k in (2, 3, 4):
        same_search(double_shift_graph(n), k)


def _vdw(length):
    return ProviderPolicy("vdw", vdw_length_hint=length).provider()


@pytest.mark.parametrize(
    "step",
    [lambda: recursion_step_boxes(odd_cycle_boxes(5), 1, 4, _vdw(100)),
     lambda: recursion_step_lines(meeting_pair_lines(), 2, 4, _vdw(25))],
    ids=["4020-boxes", "625-lines"],
)
def test_search_matches_linear_scan_reference_on_recursion_steps(step):
    # large sparse graphs, where most vertices are never colored before the
    # search ends: 1 and 17 nodes on the boxes, 1 and 74 on the lines
    graph = intersection_graph(step())
    for k in (1, 2):
        same_search(graph, k)
        same_search(graph, k, 5)


def test_one_budget_covers_every_color_count():
    # chromatic_number refutes 1 and 2 colors, then colors with 3, all
    # from the budget it is given
    budget = Budget()
    result = chromatic_number(intersection_graph(build_shift_system(18, 0)), budget)
    assert (result.refutation.nodes, result.coloring.nodes) == (18, 40_060)
    assert budget.used == 1 + 18 + 40_060


@pytest.mark.parametrize("n, seed, nodes", [(18, 0, 40_060), (19, 1, 148_330)])
def test_shift_system_chromatic_number_and_node_count(n, seed, nodes):
    result = chromatic_number(intersection_graph(build_shift_system(n, seed)))
    assert (result.status, result.value, result.coloring.nodes) == ("exact", 3, nodes)


class TestIntersectionGraph:
    def test_box_family(self):
        g = intersection_graph(odd_cycle_boxes(5))
        assert g == cycle_graph(5)

    def test_pair(self):
        g = intersection_graph(meeting_pair_family())
        assert sorted(g.edges) == [(0, 1)]


class TestGraphEquality:
    def test_identity(self):
        ok, witness = graph_equals_expected(cycle_graph(5), cycle_graph(5))
        assert ok and witness is None

    def test_spurious_edge_reported(self):
        g = GeoGraph(3, [(0, 1), (1, 2), (0, 2)])
        expected = GeoGraph(3, [(0, 1), (1, 2)])
        ok, witness = graph_equals_expected(g, expected)
        assert not ok
        assert witness == ("spurious", (0, 2))

    def test_missing_edge_reported(self):
        g = GeoGraph(3, [(0, 1)])
        expected = GeoGraph(3, [(0, 1), (1, 2)])
        ok, witness = graph_equals_expected(g, expected)
        assert not ok
        assert witness == ("missing", (1, 2))


@st.composite
def _edge_lists(draw):
    """A vertex count and pairs of distinct vertices, some repeated and some reversed."""
    n = draw(st.integers(0, 12))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=30))
    if not edges:
        return n, []
    again = st.sampled_from(edges).flatmap(lambda e: st.sampled_from([e, e[::-1]]))
    return n, edges + draw(st.lists(again, max_size=5))


@settings(max_examples=300, deadline=None)
@given(_edge_lists())
def test_edges_and_adjacency_are_the_sets_in_order(graph):
    n, edges = graph
    g = GeoGraph(n, edges)
    assert (g.edges, g.adj) == set_graph(n, edges)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_first_difference_is_the_set_compare(data):
    """Two sorted edge lists, equal or one to three pairs apart: the least
    pair held by one alone, and its side, are the set compare's."""
    n = data.draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = sorted(data.draw(st.sets(st.sampled_from(pairs))))
    model = sorted(set(edges) ^ data.draw(st.sets(st.sampled_from(pairs), max_size=3)))
    witness = first_difference(edges, model)
    assert witness == set_first_difference(edges, model)
    assert graph_equals_expected(GeoGraph(n, edges), GeoGraph(n, model)) == (witness is None, witness)


class TestDimacs:
    def test_header(self):
        text = to_dimacs(cycle_graph(3))
        assert text.splitlines()[0] == "p edge 3 3"
        assert "e 1 2" in text
