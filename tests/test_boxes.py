import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthgeom import (
    Box3,
    BoxFamily,
    ConstructionError,
    GeoGraph,
    GroundedSquareBox,
    ProviderPolicy,
    build_box_family,
    check_box_structure,
    chromatic_number,
    cycle_graph,
    embed_copy_boxes,
    girth,
    graph_equals_expected,
    intersection_graph,
    make_ground_boxes,
    meeting_pair_family,
    normalize_traces,
    odd_cycle_boxes,
    recursion_step_boxes,
    single_box_family,
)
from girthgeom.boxes import plan_embeddings
from girthgeom.gallai import GroundSet, pigeonhole_certificate
from girthgeom.geometry import to_grid

from _oracles import (
    Homothety1D,
    all_pairs_box_edges,
    apply,
    box_bounds,
    box_to_doc,
    fraction_base_boxes,
    fraction_embed_copy_boxes,
    fraction_make_ground_boxes,
    fraction_normalize_traces,
    identity_map,
    ratios,
    side,
    square_box,
    trace,
)


def pigeonhole_provider(ground, colors, girth_param):
    return pigeonhole_certificate(ground, colors, girth_param)


class TestGroundedSquareBox:
    def test_gadget_trace(self):
        eps = F(1, 3)
        b = GroundedSquareBox(Box3.from_bounds(5, 5 + eps, 5 - eps, 5, 0, 1))
        assert trace(b) == 5

    def test_trace_examples(self):
        assert trace(GroundedSquareBox(Box3.from_bounds(0, 2, -2, 0, 0, 1))) == 0
        assert trace(GroundedSquareBox(Box3.from_bounds(10, 25, -5, 10, 0, 20))) == 10

    def test_rejects_non_grounded(self):
        with pytest.raises(ValueError):
            GroundedSquareBox(Box3.from_bounds(0, 1, 0, 1, 0, 1))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            GroundedSquareBox(Box3.from_bounds(0, 2, -1, 0, 0, 1))

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ((0, 2, 0, 1, 0, 0), "does not touch the x = y plane"),  # every check fails: the first one names it
            ((0, 0, 0, 0, 0, 0), "non-degenerate square"),
            ((0, 2, -1, 0, 0, 0), "non-degenerate square"),
            ((0, 1, -1, 0, 1, 1), "non-empty interior"),
        ],
    )
    def test_first_failed_check_names_the_error(self, bounds, message):
        with pytest.raises(ValueError, match=message):
            GroundedSquareBox(Box3.from_bounds(*bounds))


class TestOddCycleBoxes:
    def test_five_matches_frozen_parameters(self):
        fam = odd_cycle_boxes(5)
        params = [(trace(b), side(b), b.box.zr.lo, b.box.zr.hi) for b in fam.boxes]
        assert params == [
            (0, 15, 0, 20),
            (10, 10, 0, 10),
            (20, 10, 0, 10),
            (30, 15, 0, 20),
            (15, 20, 15, 20),
        ]

    def test_five_is_cycle(self):
        g = intersection_graph(odd_cycle_boxes(5))
        ok, _ = graph_equals_expected(g, cycle_graph(5))
        assert ok
        assert girth(g) == 5
        assert chromatic_number(g).value == 3

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_general_odd_cycles(self, n):
        fam = odd_cycle_boxes(n)
        g = intersection_graph(fam)
        ok, witness = graph_equals_expected(g, cycle_graph(n))
        assert ok, witness
        assert girth(g) == n

    def test_rejects_even_or_small(self):
        with pytest.raises(ValueError):
            odd_cycle_boxes(4)
        with pytest.raises(ValueError):
            odd_cycle_boxes(3)

    def test_traces_distinct(self):
        traces = odd_cycle_boxes(9).traces()
        assert len(set(traces)) == len(traces)


class TestMakeGroundBoxes:
    def test_three_values(self):
        den, rows = make_ground_boxes([1, 2, 3], F(1, 3))
        assert (den, rows[0]) == (3, (3, 4, 2, 3, 0, 3))
        fam = BoxFamily(rows, None, 1, den=den)
        assert fam.intersection_edges() == []

    def test_single_value(self):
        assert make_ground_boxes([0], F(1, 2)) == (2, [(0, 1, -1, 0, 0, 2)])

    def test_eps_at_gap_rejected(self):
        with pytest.raises(ValueError):
            make_ground_boxes([0, 1], 1)

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=1, max_size=8),
           st.fractions(min_value=F(1, 30), max_value=1, max_denominator=30))
    def test_rows_are_the_grid_of_the_fraction_boxes(self, values, fraction):
        gaps = [b - a for a, b in zip(sorted(values), sorted(values)[1:])]
        eps = fraction * min(gaps, default=1) / 2  # strictly below the least gap
        expected = to_grid([box_bounds(b) for b in fraction_make_ground_boxes(values, eps)])
        assert make_ground_boxes(values, eps) == expected


@pytest.mark.parametrize("make, kind, n", [(single_box_family, "single", 0), (meeting_pair_family, "pair", 0),
                                           *((lambda n=n: odd_cycle_boxes(n), "odd-cycle", n) for n in (5, 7, 9, 13))])
def test_bases_are_the_grid_of_the_fraction_boxes(make, kind, n):
    fam = make()
    assert (fam.den, list(fam.rows)) == to_grid([box_bounds(b) for b in fraction_base_boxes(kind, n)])


def views(grid, rows) -> list[GroundedSquareBox]:
    return [GroundedSquareBox(Box3.from_bounds(*(F(v, grid) for v in row))) for row in rows]


def ground_boxes(values):
    """The ground boxes at ``values``, as ``make_ground_boxes`` makes them
    for a lift: their grid's denominator and rows."""
    values = sorted(values)
    return make_ground_boxes(values, min((b - a for a, b in zip(values, values[1:])), default=F(1)) / 3)


def embedding(copy, horizontal, vertical) -> tuple:
    """A copy's positions with its map and its map of heights, each a
    Homothety1D, in the integers ``embed_copy_boxes`` takes."""
    return copy, ratios(horizontal), ratios(vertical)


class TestEmbedCopyBoxes:
    def test_identity_copy_keeps_parent(self):
        parent = meeting_pair_family()
        grid, (rows,) = embed_copy_boxes(parent, [embedding((0, 1), identity_map(), identity_map())],
                                         *ground_boxes([0, 1]))
        assert tuple(views(grid, rows)) == parent.boxes

    def test_pair_copy_traces(self):
        parent = meeting_pair_family()
        cert = pigeonhole_certificate(GroundSet.of(parent.traces()), 2, 6)
        emb = plan_embeddings(parent, cert)[0]  # copy {1, 2}
        grid, (rows,) = embed_copy_boxes(parent, [emb], *ground_boxes(cert.elements))
        images = views(grid, rows)
        assert [trace(b) for b in images] == [F(1), F(2)]
        count = len(cert.copies)  # slot 0 is [0, 1 / count] shrunk by a quarter of its length at each end
        assert all(b.box.zr.lo >= F(1, 4 * count) and b.box.zr.hi <= F(3, 4 * count) for b in images)

    def test_small_copy_graph_isomorphic(self):
        parent = odd_cycle_boxes(5)
        mapping = Homothety1D(F(1, 100), F(7))
        image = [apply(mapping, t) for t in sorted(parent.traces())]
        grid, (rows,) = embed_copy_boxes(parent, [embedding((0, 1, 2, 3, 4), mapping, identity_map())],
                                         *ground_boxes(image))
        got = intersection_graph(BoxFamily(rows, None, 1, den=grid))
        assert got == intersection_graph(parent)

    def test_domain_mismatch_rejected(self):
        parent = meeting_pair_family()
        with pytest.raises(ConstructionError, match="copy domain mismatch"):
            embed_copy_boxes(parent, [embedding((0, 1), identity_map(), identity_map())], *ground_boxes([3, 4]))

    @pytest.mark.parametrize("copy", [(0, 2), (1, 2)])
    def test_positions_off_the_map_rejected(self, copy):
        # the traces 0 and 1 map onto the ground boxes at 0 and 1, not at the copy's positions
        parent = meeting_pair_family()
        with pytest.raises(ConstructionError, match="copy domain mismatch"):
            embed_copy_boxes(parent, [embedding(copy, identity_map(), identity_map())], *ground_boxes([0, 1, 2]))


# bounds from small pools with mixed denominators, so traces, sides and
# z-ends repeat and boxes touch, nest and share traces
_traces = st.sampled_from([F(v, 2) for v in range(-3, 4)] + [F(1, 3), F(-2, 7)])
_sides = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2, 5)])
_z_ends = st.lists(st.sampled_from([F(0), F(1, 3), F(1), F(2), F(5, 6)]), min_size=2, max_size=2, unique=True)


@st.composite
def grounded_boxes(draw, max_size=6):
    boxes = []
    for _ in range(draw(st.integers(1, max_size))):
        zlo, zhi = sorted(draw(_z_ends))
        boxes.append(square_box(draw(_traces), draw(_sides), zlo, zhi))
    return tuple(boxes)


@st.composite
def embedding_cases(draw):
    """A parent whose boxes share traces, sides and z-ends, a few
    embeddings of it with random positive maps, and the ground boxes at
    the traces they place."""
    parent = BoxFamily(draw(grounded_boxes()), None, 1, {})
    scales = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
    shifts = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    maps = [(Homothety1D(draw(scales), draw(shifts)), Homothety1D(draw(scales), draw(shifts)))
            for _ in range(draw(st.integers(1, 4)))]
    images = [[apply(horizontal, t) for t in sorted(set(parent.traces()))] for horizontal, _ in maps]
    values = sorted({x for image in images for x in image})
    embeddings = [(tuple(map(values.index, image)), *m) for image, m in zip(images, maps)]
    return parent, embeddings, ground_boxes(values)


@settings(max_examples=200, deadline=None)
@given(embedding_cases())
def test_embedding_on_the_grid_matches_the_fraction_map(case):
    parent, embeddings, (ground_den, ground) = case
    grid, copies = embed_copy_boxes(parent, [embedding(*e) for e in embeddings], ground_den, ground)
    assert grid % ground_den == 0
    assert [views(grid, rows) for rows in copies] == fraction_embed_copy_boxes(parent, embeddings)


class TestGrid:
    @settings(max_examples=200, deadline=None)
    @given(grounded_boxes(max_size=10))
    def test_the_grid_gives_back_its_boxes_labels_and_meets(self, boxes):
        fam = BoxFamily(boxes, None, 1)
        assert fam.boxes == boxes
        assert fam.labels() == [box_to_doc(b) for b in boxes]
        assert fam.meets == all_pairs_box_edges(boxes)
        assert fam.den == math.lcm(*(v.denominator for b in fam.labels() for axis in b.values() for v in map(F, axis)))

    def test_the_grid_is_reduced_to_its_least_denominator(self):
        fam = odd_cycle_boxes(5)
        finer = BoxFamily([tuple(6 * v for v in row) for row in fam.rows], 5, 3, fam.provenance, den=6 * fam.den)
        assert finer == fam and finer.den == 1

    @pytest.mark.parametrize(
        "row, message",
        [
            ((0, 2, 0, 1, 0, 1), r"boxes\[1\]: box does not touch the x = y plane"),
            ((0, 2, -1, 0, 0, 1), r"boxes\[1\]: horizontal cross-section must be a non-degenerate square"),
            ((1, 0, 2, 1, 0, 1), r"boxes\[1\]: horizontal cross-section must be a non-degenerate square"),
            ((0, 1, -1, 0, 1, 0), r"boxes\[1\]: box must have non-empty interior"),
        ],
    )
    def test_every_row_is_checked(self, row, message):
        with pytest.raises(ValueError, match=message):
            BoxFamily([(0, 1, -1, 0, 0, 1), row], None, 1, den=3)


class TestNormalizeTraces:
    def test_distinct_family_unchanged(self):
        fam = odd_cycle_boxes(5)
        assert normalize_traces(fam) is fam

    def test_two_disjoint_equal_traces(self):
        a = square_box(0, 1, 0, 1)
        b = square_box(0, 1, 5, 6)  # same trace, z-disjoint
        fam = BoxFamily((a, b), None, 1, {})
        fixed = normalize_traces(fam)
        assert len(set(fixed.traces())) == 2
        assert fixed.intersection_edges() == fam.intersection_edges() == []

    def test_two_intersecting_equal_traces(self):
        a = square_box(0, 2, 0, 1)
        b = square_box(0, 1, 0, 1)
        fam = BoxFamily((a, b), None, 1, {})
        fixed = normalize_traces(fam)
        assert len(set(fixed.traces())) == 2
        assert fixed.intersection_edges() == [(0, 1)]

    def test_c9_matches_the_fraction_reference(self):
        # the lift of C9 that ``build boxes --g 6 --k 4 --provider pigeonhole`` makes normalizes it first
        c9 = build_box_family(6, 3, ProviderPolicy("pigeonhole"))
        fixed, expected = normalize_traces(c9), fraction_normalize_traces(c9)
        assert fixed == expected and fixed.labels() == [box_to_doc(b) for b in expected.boxes]

    @settings(max_examples=200, deadline=None)
    @given(grounded_boxes(max_size=8))
    def test_matches_the_fraction_reference(self, boxes):
        fam = BoxFamily(boxes, None, 1, {})
        try:
            expected = fraction_normalize_traces(fam)
        except ConstructionError:
            with pytest.raises(ConstructionError):
                normalize_traces(fam)
        else:
            assert normalize_traces(fam) == expected

    def test_recursion_output_normalizes_by_blocks(self):
        c9 = recursion_step_boxes(meeting_pair_family(), 2, 6, pigeonhole_provider)
        assert len(set(c9.traces())) < len(c9.boxes)  # duplicates exist
        fixed = normalize_traces(c9)
        assert len(set(fixed.traces())) == len(fixed.boxes)
        assert intersection_graph(fixed) == intersection_graph(c9)


class TestRecursionStep:
    def test_nine_box_cycle(self):
        c9 = recursion_step_boxes(meeting_pair_family(), 2, 6, pigeonhole_provider)
        assert len(c9.boxes) == 9
        g = intersection_graph(c9)
        # cycle order: ground 1, copy{1,2}, ground 2, copy{2,3}, ground 3, copy{1,3} back
        order = [0, 3, 4, 1, 7, 8, 2, 6, 5]
        nine_cycle = GeoGraph(9, [(order[i], order[(i + 1) % 9]) for i in range(9)])
        ok, witness = graph_equals_expected(g, nine_cycle)
        assert ok, witness
        assert girth(g) == 9
        assert chromatic_number(g).value == 3
        assert c9.claimed_chromatic == 3
        assert c9.provenance["certificate"].flags.all_true()

    def test_structure_report_all_ok(self):
        c9 = recursion_step_boxes(meeting_pair_family(), 2, 6, pigeonhole_provider)
        report = check_box_structure(c9)
        assert report.ok
        names = {c.name for c in report.checks}
        assert names == {
            "ground-pairwise-disjoint",
            "copy-meets-exactly-one-ground",
            "copy-meets-own-ground",
            "no-cross-copy-intersections",
            "copy-graph-matches-parent",
        }

    def test_vdw_hint_step_structural(self):
        parent = odd_cycle_boxes(5)
        policy = ProviderPolicy("vdw", vdw_length_hint=31)
        fam = recursion_step_boxes(parent, 1, 4, policy.provider())
        assert len(fam.boxes) == 31 + 65 * 5
        assert check_box_structure(fam).ok
        assert fam.claimed_chromatic == 2
        assert girth(intersection_graph(fam)) == 5

    def test_unverified_certificate_does_not_lift_claim(self):
        parent = odd_cycle_boxes(5)
        policy = ProviderPolicy("vdw", vdw_length_hint=30, certificate_budget=25)
        fam = recursion_step_boxes(parent, 3, 4, policy.provider())
        assert fam.claimed_chromatic == 3  # not lifted
        assert not fam.provenance["certificate"].flags.all_true()
        assert check_box_structure(fam).ok

    def test_parent_girth_too_small_rejected(self):
        with pytest.raises(ConstructionError):
            recursion_step_boxes(odd_cycle_boxes(5), 3, 6, pigeonhole_provider)

    def test_parent_chromatic_claim_refuted(self):
        # a pair is 2-colorable, so it cannot serve as a "needs 3 colors" parent
        with pytest.raises(ConstructionError):
            recursion_step_boxes(meeting_pair_family(), 3, 6, pigeonhole_provider)

    def test_duplicate_trace_parent_normalized(self):
        c9 = recursion_step_boxes(meeting_pair_family(), 2, 6, pigeonhole_provider)
        # c9 has duplicate traces; a further step must normalize first.
        # Use a pigeonhole-compatible trick: build from a two-box subfamily
        # with equal traces.
        a = square_box(0, 2, 0, 1)
        b = square_box(0, 1, 0, 1)
        fam = BoxFamily((a, b), None, 2, {})
        out = recursion_step_boxes(fam, 2, 6, pigeonhole_provider)
        assert check_box_structure(out).ok
        assert girth(intersection_graph(out)) == 9


class TestBuildBoxFamily:
    def test_single(self):
        fam = build_box_family(3, 1)
        assert len(fam.boxes) == 1
        assert len(single_box_family().boxes) == 1

    def test_pair(self):
        fam = build_box_family(3, 2)
        assert len(fam.boxes) == 2

    def test_base_cycle_for_three_colors(self):
        fam = build_box_family(5, 3)
        assert fam.provenance["kind"] == "base-odd-cycle"
        assert girth(intersection_graph(fam)) == 5

    def test_girth_six_uses_seven_cycle(self):
        fam = build_box_family(6, 3)
        assert fam.provenance["kind"] == "base-odd-cycle"
        assert fam.provenance["n"] == 7

    def test_pigeonhole_policy_recurses_from_pair(self):
        fam = build_box_family(6, 3, ProviderPolicy("pigeonhole"))
        assert len(fam.boxes) == 9
        g = intersection_graph(fam)
        assert girth(g) == 9
        assert chromatic_number(g).value == 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_box_family(2, 1)
        with pytest.raises(ValueError):
            build_box_family(3, 0)

    def test_four_colors_exhausts_search_budget(self):
        # the step beyond an odd-cycle base needs a certificate for a
        # five-point ground set, far beyond a small search budget
        from girthgeom import BudgetExhausted

        with pytest.raises(BudgetExhausted):
            build_box_family(3, 4, ProviderPolicy("search", certificate_budget=2000))


class TestNegativeControls:
    @pytest.mark.parametrize(
        "prov, boxes, name, detail",
        [
            ({"kind": "base-single"}, [(0, 1), (5, 1)], "graph-is-single-vertex", "2 objects"),
            ({"kind": "base-pair"}, [(0, 1), (5, 1)], "graph-is-single-edge", "('missing', (0, 1))"),
            ({"kind": "base-pair"}, [(0, 2), (1, 2), (5, 1)], "graph-is-single-edge", "3 objects"),
            ({"kind": "base-odd-cycle", "n": 3}, [(0, 2), (1, 2), (5, 1)], "graph-equals-cycle", "('missing', (0, 2))"),
        ],
        ids=["single-of-two", "pair-apart", "pair-of-three", "cycle-open"],
    )
    def test_a_base_without_its_kinds_graph_fails_structure(self, prov, boxes, name, detail):
        # a base is checked against its kind's whole graph, object count included
        fam = BoxFamily(tuple(square_box(t, s, 0, 1) for t, s in boxes), None, 1, prov)
        report = check_box_structure(fam)
        assert [(c.name, c.ok, c.detail) for c in report.checks] == [(name, False, detail)]

    def test_corrupted_recursion_fails_structure(self):
        c9 = recursion_step_boxes(meeting_pair_family(), 2, 6, pigeonhole_provider)
        bad_boxes = list(c9.boxes)
        bad_boxes[2] = square_box(2, 1, 0, 1)  # ground box moved onto trace 2
        bad = BoxFamily(tuple(bad_boxes), c9.claimed_girth, c9.claimed_chromatic, c9.provenance)
        report = check_box_structure(bad)
        assert not report.ok
        failure = report.first_failure()
        assert failure.name == "ground-pairwise-disjoint"
        assert "(1, 2)" in failure.detail
