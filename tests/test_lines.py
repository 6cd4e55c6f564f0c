import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    Homothety1D,
    LineRelation,
    all_pairs_line_edges,
    apply,
    brute_forbidden_offsets,
    brute_verify_shift_system,
    contains_point,
    fraction_choose_frame,
    fraction_embed_copy_lines,
    fraction_make_ground_lines,
    identity_map,
    line_line_relation,
    line_plane_meet,
    line_to_doc,
    point_at,
    ratios,
    reference_bad_ground_pair,
    same_line,
    set_scan_shift_system,
    shift_line,
    shift_meeting_point,
    vadd,
    vsub,
)
from girthgeom import lines as linemod
from girthgeom import (
    BudgetExhausted,
    ConstructionError,
    Dir3,
    Line3,
    LineFamily,
    Point3,
    ProviderPolicy,
    ShiftSystem,
    build_line_family,
    build_shift_system,
    check_line_structure,
    choose_frame,
    chromatic_number,
    cycle_graph,
    double_shift_graph,
    embed_copy_lines,
    girth,
    graph_equals_expected,
    intersection_graph,
    make_ground_lines,
    meeting_pair_lines,
    odd_cycle_lines,
    recursion_step_lines,
    single_line_family,
    verify_shift_system,
)
from girthgeom.gallai import pigeonhole_certificate
from girthgeom.geometry import dot
from girthgeom.lines import _offsets, _PlacedLines, axis_params, forbidden_offsets, frame_conditions


def pigeonhole_provider(ground, colors, girth_param):
    return pigeonhole_certificate(ground, colors, girth_param)


class TestShiftLine:
    def test_base_and_direction(self):
        l = shift_line(1, 2, 3)
        assert l.base == Point3.of(8, 6, 12)
        assert l.dir == Dir3.of(1, 2, 8)
        l2 = shift_line(2, 3, 5)
        assert l2.base == Point3.of(21, 30, 90)
        assert l2.dir == Dir3.of(1, 3, 21)

    def test_parameter_identity(self):
        # evaluating consecutive triples at the crossed parameters agrees
        a, b, c, d = F(1), F(2), F(3), F(5)
        assert point_at(shift_line(a, b, c), c * d) == point_at(shift_line(b, c, d), a * b)
        assert shift_meeting_point(a, b, c, d) == Point3.of(23, 36, 132)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            shift_line(2, 1, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.fractions(min_value=-20, max_value=20, max_denominator=7), min_size=4, max_size=4))
    def test_identity_for_arbitrary_quadruples(self, values):
        """The identity verify_shift_system relies on for designed lines,
        over negative and fractional values too."""
        a, b, c, d = sorted(values)
        first, second = shift_line(a, b, c), shift_line(b, c, d)
        point = point_at(first, c * d)
        assert point == point_at(second, a * b) == shift_meeting_point(a, b, c, d)
        assert contains_point(first, point) and contains_point(second, point)


class TestDoubleShiftGraph:
    def test_small_counts(self):
        g3 = double_shift_graph(3)
        assert (g3.n, g3.m) == (1, 0)
        g4 = double_shift_graph(4)
        assert (g4.n, g4.m) == (4, 1)
        triples = list(itertools.combinations(range(1, 5), 3))
        assert [(triples[u], triples[v]) for u, v in g4.edges] == [((1, 2, 3), (2, 3, 4))]
        g5 = double_shift_graph(5)
        assert (g5.n, g5.m) == (10, 5)

    def test_chromatic_values(self):
        assert chromatic_number(double_shift_graph(3)).value == 1
        assert chromatic_number(double_shift_graph(4)).value == 2
        assert chromatic_number(double_shift_graph(5)).value == 2

    def test_g5_is_forest(self):
        assert girth(double_shift_graph(5)) == math.inf

    def test_edge_count_is_quadruple_count(self):
        for n in range(3, 9):
            assert double_shift_graph(n).m == math.comb(n, 4)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_edge_list_is_the_graphs_in_order(self, n):
        triples = list(itertools.combinations(range(1, n + 1), 3))
        rule = [(i, j) for i, s in enumerate(triples) for j, t in enumerate(triples) if s[1:] == t[:2]]
        assert linemod.double_shift_edges(n) == sorted(double_shift_graph(n).edges) == sorted(rule)


class TestBuildShiftSystem:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_graph_matches_double_shift(self, n):
        system = build_shift_system(n, seed=1)
        ok, diagnostic = verify_shift_system(system)
        assert ok, diagnostic
        g = intersection_graph(system)
        expected = double_shift_graph(n)
        same, witness = graph_equals_expected(g, expected)
        assert same, witness

    def test_n3_single_line(self):
        system = build_shift_system(3, seed=0)
        assert len(system.lines) == 1
        assert chromatic_number(intersection_graph(system)).value == 1

    def test_n5_forest_two_colors(self):
        system = build_shift_system(5, seed=0)
        g = intersection_graph(system)
        assert g.m == 5
        assert girth(g) == math.inf
        assert chromatic_number(g).value == 2

    def test_deterministic(self):
        assert build_shift_system(5, seed=7).values == build_shift_system(5, seed=7).values

    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.fractions(min_value=-20, max_value=20, max_denominator=12), min_size=3, max_size=7))
    def test_grid_holds_each_triples_shift_line(self, values):
        """The rows made from the values on integers are the Fraction shift
        lines, over negative values and mixed denominators."""
        system = ShiftSystem(tuple(sorted(values)))
        lines = tuple(shift_line(*t) for t in system.triples)
        assert system.lines == lines
        assert LineFamily.labels(system) == [line_to_doc(l) for l in lines]

    def test_values_out_of_order_are_refused(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ShiftSystem((F(1), F(3), F(3), F(4)))

    def test_adjacent_pairs_meet_at_designed_points(self):
        system = build_shift_system(6, seed=2)
        vals = system.values
        for a, b, c, d in itertools.combinations(vals, 4):
            i = system.triples.index((a, b, c))
            j = system.triples.index((b, c, d))
            rel = line_line_relation(system.lines[i], system.lines[j])
            assert rel.kind == LineRelation.MEET
            assert rel.point == shift_meeting_point(a, b, c, d)


class TestOddCycleLines:
    @pytest.mark.parametrize("n", [5, 7, 9])
    def test_cycles(self, n):
        fam = odd_cycle_lines(n)
        g = intersection_graph(fam)
        ok, witness = graph_equals_expected(g, cycle_graph(n))
        assert ok, witness
        assert girth(g) == n

    def test_nonconsecutive_lines_skew(self):
        fam = odd_cycle_lines(5)
        rel = line_line_relation(fam.lines[0], fam.lines[2])
        assert rel.kind == LineRelation.SKEW

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            odd_cycle_lines(6)


def _views(den, rows):
    """Grid rows on the grid ``den`` as line objects."""
    return LineFamily(rows, None, 1, den=den).lines


def _moved_pair():
    """The meeting pair scaled by 7/3 and moved by (-5/2, 1/3, 4/7)."""
    base = meeting_pair_lines()
    shift = (F(-5, 2), F(1, 3), F(4, 7))
    lines = tuple(Line3(Point3(*(F(7, 3) * c + t for c, t in zip(l.base.as_tuple(), shift))), l.dir) for l in base.lines)
    return LineFamily(lines, None, 2, dict(base.provenance))


def _assert_frame_matches_reference(fam):
    """The frame and the axis parameters choose_frame finds on the grid are
    the ones the Fraction search finds on the line objects."""
    frame = choose_frame(fam)
    ref, params = fraction_choose_frame(fam.lines)
    assert (Dir3.of(*frame.normal), frame.offset) == (ref.plane.normal, ref.plane.offset)
    assert Line3(Point3.of(*frame.origin), Dir3.of(*frame.axis)) == ref.axis
    assert Dir3.of(*frame.perp) == ref.perp
    assert axis_params(frame, fam) == params
    assert frame_conditions(frame, fam) == []


# mixed denominators; directions are drawn as any nonzero rational vector,
# scaled and negated, and a line is new or through a point of an earlier one
_rats = st.fractions(min_value=-6, max_value=6, max_denominator=12)
_raw_dirs = st.sampled_from([(1, 0, 0), (0, 2, 0), (0, 0, -3), (1, 1, 0), (2, 0, -2), (F(1, 2), F(3, 2), F(5, 2)), (-1, 2, 3)])
_dir_scales = st.sampled_from([F(1), F(-1), F(2), F(-1, 3), F(5, 7)])


@st.composite
def _raw_lines(draw):
    bases, dirs = [], []
    for _ in range(draw(st.integers(1, 10))):
        scale = draw(_dir_scales)
        dirs.append(tuple(scale * c for c in draw(_raw_dirs)))
        if bases and draw(st.booleans()):
            i, t = draw(st.integers(0, len(bases) - 1)), draw(_rats)
            bases.append(tuple(x + t * y for x, y in zip(bases[i], dirs[i])))
        else:
            bases.append(tuple(draw(_rats) for _ in range(3)))
    return bases, dirs


class TestGrid:
    @settings(max_examples=150, deadline=None)
    @given(_raw_lines())
    def test_matches_the_line_objects(self, drawn):
        """The grid of raw base and direction vectors gives back their
        lines, is the grid of those lines, writes each as ``line_to_doc``
        does, and sweeps the pairs the all-pairs oracle finds."""
        bases, dirs = drawn
        lines = tuple(Line3(Point3(*b), Dir3(*d)) for b, d in zip(bases, dirs))
        den, rows = LineFamily.grid([(*b, *d) for b, d in zip(bases, dirs)])
        fam = LineFamily(rows, None, 1, den=den)
        assert fam.lines == lines
        assert LineFamily(lines, None, 1) == fam
        assert fam.labels() == [line_to_doc(l) for l in lines]
        assert fam.meets == all_pairs_line_edges(lines)
        same = [(i, j) for j in range(len(lines)) for i in range(j) if same_line(lines[i], lines[j])]
        assert fam.identical == min(same, default=None)

    def test_zero_direction_is_refused(self):
        with pytest.raises(ValueError, match="zero vector"):
            LineFamily.grid([(0, 0, 0, F(0), F(0), F(0))])


class TestChooseFrame:
    def test_two_vertical_lines(self):
        fam = LineFamily(
            (
                Line3(Point3.of(0, 0, 0), Dir3.of(0, 0, 1)),
                Line3(Point3.of(1, 0, 0), Dir3.of(0, 0, 1)),
            ),
            None,
            1,
            {},
        )
        frame = choose_frame(fam)
        assert frame_conditions(frame, fam) == []
        # parallel family: the plane-pair condition is vacuous
        params = axis_params(frame, fam)
        assert params[0] != params[1]

    def test_line_inside_candidate_plane_rejected(self):
        # the first candidate plane is z = 0; a line inside it must be skipped
        fam = LineFamily(
            (
                Line3(Point3.of(0, 0, 0), Dir3.of(1, 0, 0)),
                Line3(Point3.of(0, 0, 0), Dir3.of(0, 1, 0)),
            ),
            None,
            2,
            {},
        )
        frame = choose_frame(fam)
        assert frame_conditions(frame, fam) == []
        # both lines lie in z = 0, so that normal cannot have been accepted
        assert frame.normal != (0, 0, 1)

    def test_frame_reverifies_idempotently(self):
        fam = meeting_pair_lines()
        frame = choose_frame(fam)
        assert frame_conditions(frame, fam) == []
        assert frame_conditions(frame, fam) == []

    @pytest.mark.parametrize("n", [5, 7, 9, 11])
    def test_cycle_matches_fraction_reference(self, n):
        _assert_frame_matches_reference(odd_cycle_lines(n))

    def test_pigeonhole_output_matches_fraction_reference(self):
        fam = build_line_family(6, 3, ProviderPolicy("pigeonhole"))
        assert len(fam) == 9
        _assert_frame_matches_reference(fam)

    @settings(max_examples=60, deadline=None)
    @given(
        which=st.sampled_from([meeting_pair_lines, lambda: odd_cycle_lines(5), _moved_pair]),
        scale=st.fractions(min_value=F(1, 7), max_value=7, max_denominator=7).filter(lambda s: s > 0),
        shift=st.tuples(*[st.fractions(min_value=-5, max_value=5, max_denominator=12)] * 3),
    )
    def test_rational_images_match_fraction_reference(self, which, scale, shift):
        """Scaled and moved families, whose base points have mixed
        denominators, get the reference's frame and parameters."""
        fam = which()
        lines = tuple(Line3(Point3(*(scale * c + t for c, t in zip(l.base.as_tuple(), shift))), l.dir) for l in fam.lines)
        _assert_frame_matches_reference(LineFamily(lines, None, 1))


class TestMakeGroundLines:
    def test_two_points_on_axis(self):
        fam = LineFamily(
            (
                Line3(Point3.of(0, 0, 1), Dir3.of(0, 0, 1)),
                Line3(Point3.of(1, 0, 0), Dir3.of(0, 0, 1)),
            ),
            None,
            1,
            {},
        )
        frame = choose_frame(fam)
        ground = _views(*make_ground_lines([0, 1], frame))
        assert len(ground) == 2
        rel = line_line_relation(ground[0], ground[1])
        assert rel.kind == LineRelation.PARALLEL

    def test_all_parallel(self):
        frame = choose_frame(meeting_pair_lines())
        ground = _views(*make_ground_lines([1, 2, 3], frame))
        for i in range(3):
            for j in range(i + 1, 3):
                assert line_line_relation(ground[i], ground[j]).kind == LineRelation.PARALLEL

    @settings(max_examples=40, deadline=None)
    @given(values=st.sets(st.fractions(min_value=-9, max_value=9, max_denominator=30), min_size=1, max_size=6))
    def test_matches_fraction_reference(self, values):
        parent = odd_cycle_lines(5)
        ref, _ = fraction_choose_frame(parent.lines)
        assert _views(*make_ground_lines(values, choose_frame(parent))) == tuple(fraction_make_ground_lines(values, ref))


_PARENTS = [meeting_pair_lines(), odd_cycle_lines(5), _moved_pair()]
_FRAMES = [choose_frame(p) for p in _PARENTS]
_REFS = [fraction_choose_frame(p.lines)[0] for p in _PARENTS]


def _copy(scale, shift):
    return Homothety1D(F(scale), F(shift))


def _slid(rows, slide, t):
    return [(tuple(c + t * w for c, w in zip(b, slide)), d) for b, d in rows]


def _embed(which, maps, den=1):
    """The images of parent ``which`` under the copy ``maps`` at offset 0
    on one grid, a multiple of ``den``, with the grid's slide by one unit
    of the frame's perpendicular scaled to a leading 1, as the recursion
    lays them out."""
    frame = _FRAMES[which]
    lead = linemod._lead(frame.perp)
    grid, images = embed_copy_lines(_PARENTS[which], frame, list(map(ratios, maps)), math.lcm(den, lead))
    return grid, images, tuple(grid // lead * c for c in frame.perp)


class TestEmbedCopyLines:
    def test_identity_copy_zero_offset(self):
        parent = meeting_pair_lines()
        copy = identity_map()
        den, (images,), _ = _embed(0, [copy])
        assert all(same_line(a, b) for a, b in zip(_views(den, images), parent.lines))

    def test_translation_copy_preserves_graph(self):
        parent = meeting_pair_lines()
        copy = Homothety1D(F(1), F(5))
        den, (images,), _ = _embed(0, [copy])
        assert intersection_graph(LineFamily(images, None, 1, den=den)) == intersection_graph(parent)

    def test_conflicting_offset_rejected_then_next_works(self):
        copy = identity_map()
        _, (first,), slide = _embed(0, [copy])
        is_forbidden = forbidden_offsets(first, _PlacedLines(first), slide)
        assert is_forbidden(0)
        assert not is_forbidden(1)

    @settings(max_examples=100, deadline=None)
    @given(
        which=st.sampled_from(range(len(_PARENTS))),
        maps=st.lists(st.tuples(st.fractions(min_value=F(1, 9), max_value=5, max_denominator=9).filter(lambda s: s > 0),
                                st.fractions(min_value=-6, max_value=6, max_denominator=10)), min_size=1, max_size=4),
        offset=st.integers(-5, 5),
    )
    def test_matches_fraction_reference(self, which, maps, offset):
        """Every copy's rows, slid by ``offset`` units, are the Fraction
        homothety's image lines."""
        copies = [_copy(*m) for m in maps]
        den, images, slide = _embed(which, copies)
        for copy, rows in zip(copies, images):
            expected = fraction_embed_copy_lines(_PARENTS[which].lines, _REFS[which], copy, offset)
            assert _views(den, _slid(rows, slide, offset)) == tuple(expected)


def _place_copies(which, copies, extra=()):
    """Place each copy at its first free offset, the way the recursion
    does, checking the index against the all-pairs oracle at every copy,
    and each placed copy against the Fraction copy map.  ``extra`` are
    line objects placed first.  Returns the chosen offsets."""
    parent, ref = _PARENTS[which], _REFS[which]
    extra_den, extra_rows = LineFamily.grid([(*l.base.as_tuple(), *l.dir.as_tuple()) for l in extra])
    den, images, slide = _embed(which, copies, extra_den)
    placed = list(extra)
    index = _PlacedLines([(tuple(c * (den // extra_den) for c in b), d) for b, d in extra_rows])
    chosen = []
    for copy, baseline in zip(copies, images):
        try:
            bad = brute_forbidden_offsets(_views(den, baseline), placed, ref.perp.as_tuple())
        except ConstructionError:
            with pytest.raises(ConstructionError, match="coplanar under every slide offset"):
                forbidden_offsets(baseline, index, slide)
            return chosen + ["coplanar"]
        is_forbidden = forbidden_offsets(baseline, index, slide)
        assert len(index) == len(placed)
        assert all(is_forbidden(t) for t in bad if t.denominator == 1)
        for t in itertools.islice(_offsets(), 8):
            assert is_forbidden(t) == (t in bad)
        offset = next(o for o in _offsets() if not is_forbidden(o))
        assert offset == next(o for o in _offsets() if o not in bad)
        images = _slid(baseline, slide, offset)
        assert _views(den, images) == tuple(fraction_embed_copy_lines(parent.lines, ref, copy, offset))
        placed.extend(_views(den, images))
        index.add(images)
        chosen.append(offset)
    return chosen


_scales = st.one_of(st.just(F(1)), st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3))
_shifts = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _plane_coordinates(frame, line):
    """Where a line crosses the Fraction frame's plane, as (axis parameter,
    coordinate along the frame's perpendicular)."""
    point = line_plane_meet(line, frame.plane).point
    u = frame.perp.as_tuple()
    return frame.param_of(point), dot(vsub(point.as_tuple(), frame.axis.base.as_tuple()), u) / dot(u, u)


@settings(max_examples=100, deadline=None)
@given(
    which=st.sampled_from(range(len(_PARENTS))),
    scale=st.just(F(1)) | st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3).filter(lambda s: s != 1),
    shift=_shifts,
    offset=st.integers(-5, 5),
)
def test_copy_line_crosses_the_plane_where_its_map_says(which, scale, shift, offset):
    """Every image line keeps its parent's direction and crosses the plane
    at the 1-D map of its parent's axis parameter, off the axis by the
    parent's perpendicular coordinate times the scale, plus the offset."""
    parent, ref = _PARENTS[which], _REFS[which]
    copy = _copy(scale, shift)
    den, (rows,), slide = _embed(which, [copy])
    for line, image in zip(parent.lines, _views(den, _slid(rows, slide, offset))):
        p, q = _plane_coordinates(ref, line)
        assert image.dir == line.dir
        assert _plane_coordinates(ref, image) == (apply(copy, p), scale * q + offset)


class TestForbiddenOffsets:
    @settings(max_examples=80, deadline=None)
    @given(
        which=st.sampled_from(range(len(_PARENTS))),
        maps=st.lists(st.tuples(_scales, _shifts), min_size=1, max_size=5),
        repeats=st.lists(st.integers(0, 4), max_size=3),
        extras=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), _shifts, st.integers(0, 5), st.just(F(0)) | _shifts),
            max_size=3,
        ),
    )
    def test_first_free_offset_matches_oracle(self, which, maps, repeats, extras):
        """Placed lines are earlier copies (repeating one forces a parallel
        coincidence at offset 0) and extra lines through a point of an
        image at offset 0, along a parent direction (a meeting) or along the
        frame's perpendicular (coplanar under every offset), optionally
        lifted off that point."""
        parent, ref = _PARENTS[which], _REFS[which]
        copies = [_copy(*m) for m in maps]
        copies += [copies[r % len(copies)] for r in repeats]
        dirs = [l.dir for l in parent.lines] + [ref.perp]
        extra = []
        for k, i, s, j, lift in extras:
            image = fraction_embed_copy_lines(parent.lines, ref, copies[k % len(copies)], 0)[i % len(parent.lines)]
            point = point_at(image, s)
            point = Point3(point.x, point.y, point.z + lift)
            extra.append(Line3(point, dirs[j % len(dirs)]))
        _place_copies(which, copies, extra)

    def test_repeated_copy_slides_off_zero(self):
        chosen = _place_copies(1, [_copy(2, 1), _copy(2, 1), _copy(2, 1)])
        assert chosen[0] == 0 and 0 not in chosen[1:]

    def test_meeting_line_slides_off_zero(self):
        parent, ref = _PARENTS[0], _REFS[0]
        image = fraction_embed_copy_lines(parent.lines, ref, _copy(1, 3), 0)[0]
        crossing = Line3(point_at(image, F(5, 2)), parent.lines[1].dir)
        assert _place_copies(0, [_copy(1, 3)], [crossing]) != [0]
        with pytest.raises(ValueError):
            forbidden_offsets([], _PlacedLines(), _FRAMES[0].perp)(F(1, 2))

    def test_coplanar_under_every_offset_raises(self):
        parent, ref = _PARENTS[0], _REFS[0]
        image = fraction_embed_copy_lines(parent.lines, ref, _copy(1, 3), 0)[0]
        along_perp = Line3(point_at(image, F(5, 2)), ref.perp)
        assert _place_copies(0, [_copy(1, 3)], [along_perp]) == ["coplanar"]


class TestRecursionStep:
    def test_nine_line_cycle(self):
        c9 = recursion_step_lines(meeting_pair_lines(), 2, 6, pigeonhole_provider)
        assert len(c9.lines) == 9
        g = intersection_graph(c9)
        assert girth(g) == 9
        assert chromatic_number(g).value == 3
        assert g.n == 9 and g.m == 9  # a single 9-cycle
        assert c9.claimed_chromatic == 3
        assert check_line_structure(c9).ok

    def test_girth_lift_invariant(self):
        c9 = recursion_step_lines(meeting_pair_lines(), 2, 6, pigeonhole_provider)
        out_girth = girth(intersection_graph(c9))
        assert out_girth >= min(math.inf, 3 * math.ceil(6 / 3))

    def test_unverified_parent_refused(self):
        # a meeting pair is 2-colorable: it cannot serve a "needs 3 colors" step
        with pytest.raises(ConstructionError):
            recursion_step_lines(meeting_pair_lines(), 3, 6, pigeonhole_provider)

    def test_vdw_hint_step_structural(self):
        # a widened pair certificate: every 2-coloring of {1..12} has a
        # monochromatic pair, and all C(12, 2) pairs are copies
        parent = meeting_pair_lines()
        policy = ProviderPolicy("vdw", vdw_length_hint=12)
        fam = recursion_step_lines(parent, 2, 4, policy.provider())
        assert len(fam.lines) == 12 + 66 * 2
        assert check_line_structure(fam).ok
        assert fam.claimed_chromatic == 3
        assert girth(intersection_graph(fam)) == 9


class TestBuildLineFamily:
    def test_bases(self):
        assert len(single_line_family().lines) == 1
        assert len(build_line_family(3, 1).lines) == 1
        assert len(build_line_family(3, 2).lines) == 2

    def test_pentagon(self):
        fam = build_line_family(5, 3)
        assert fam.provenance["kind"] == "base-odd-cycle"
        assert girth(intersection_graph(fam)) == 5

    def test_pigeonhole_policy(self):
        fam = build_line_family(6, 3, ProviderPolicy("pigeonhole"))
        g = intersection_graph(fam)
        assert girth(g) == 9
        assert chromatic_number(g).value == 3


class TestNegativeControls:
    def test_identical_lines_rejected_by_graph(self):
        l = Line3(Point3.of(0, 0, 0), Dir3.of(1, 2, 3))
        fam = LineFamily((l, Line3(Point3.of(1, 2, 3), Dir3.of(2, 4, 6))), None, 1, {})
        with pytest.raises(ConstructionError):
            intersection_graph(fam)

    def test_corrupted_recursion_fails_structure(self):
        c9 = recursion_step_lines(meeting_pair_lines(), 2, 6, pigeonhole_provider)
        bad_lines = list(c9.lines)
        bad_lines[0] = bad_lines[1]  # duplicate a ground line
        bad = LineFamily(tuple(bad_lines), c9.claimed_girth, c9.claimed_chromatic, c9.provenance)
        report = check_line_structure(bad)
        assert not report.ok

    def test_budget_exhaustion_in_frame_search(self, monkeypatch):
        monkeypatch.setattr(linemod, "FRAME_HEIGHT", 0)
        with pytest.raises(BudgetExhausted, match="rejection counts"):
            choose_frame(meeting_pair_lines())


@pytest.fixture(scope="module")
def lifted_pair():
    """The pigeonhole lift of the meeting pair: 3 ground lines and 3 copies."""
    return recursion_step_lines(meeting_pair_lines(), 2, 6, pigeonhole_provider)


class TestGroundCheck:
    @settings(max_examples=150, deadline=None)
    @given(
        which=st.integers(0, 2),
        how=st.sampled_from(["move", "tilt", "duplicate"]),
        vec=st.tuples(*[st.integers(-2, 2)] * 3),
        t=st.integers(-3, 3),
    )
    def test_matches_pairwise_oracle(self, lifted_pair, which, how, vec, t):
        """One ground line moved by vec, tilted by vec, or replaced by ground
        line t with its base slid to parameter t: set-equal lines with
        other bases, meeting and skew lines, and still-parallel ones."""
        fam = lifted_pair
        ground = range(len(fam.provenance["certificate"].elements))  # the ground lines come first
        lines = list(fam.lines)
        line = lines[ground[which]]
        if how == "move":
            lines[ground[which]] = Line3(Point3(*vadd(line.base.as_tuple(), vec)), line.dir)
        elif how == "tilt" and any(vadd(line.dir.as_tuple(), vec)):
            lines[ground[which]] = Line3(line.base, Dir3(*vadd(line.dir.as_tuple(), vec)))
        elif how == "duplicate":
            other = lines[ground[t % len(ground)]]
            lines[ground[which]] = Line3(point_at(other, F(t)), other.dir)
        mutated = LineFamily(tuple(lines), fam.claimed_girth, fam.claimed_chromatic, fam.provenance)
        report = check_line_structure(mutated)
        check = next(c for c in report.checks if c.name == "ground-pairwise-parallel-disjoint")
        bad = reference_bad_ground_pair(lines, ground)
        assert (check.ok, check.detail) == (bad is None, "" if bad is None else f"ground pair {bad}")


def _without_meet(system: ShiftSystem, k: int) -> tuple[int, int]:
    """Drop the system's k-th meeting pair from its sweep, as a sweep that
    missed a designed meet would; returns the dropped pair."""
    meets = list(system.meets)
    dropped = meets.pop(k % len(meets))
    object.__setattr__(system, "meets", meets)
    return dropped


@functools.cache
def _shift_values(n: int) -> tuple:
    return build_shift_system(n, seed=1).values


class TestVerifyShiftSystem:
    @settings(max_examples=150, deadline=None)
    @given(
        values=st.sets(st.integers(-5, 40), min_size=3, max_size=7)
        | st.sets(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=3, max_size=6)
    )
    def test_matches_pairwise_oracle(self, values):
        """Narrow value ranges give spurious incidences; the verdict and
        the pair it names must be the pairwise oracle's."""
        system = ShiftSystem(tuple(F(v) for v in sorted(values)))
        assert verify_shift_system(system) == brute_verify_shift_system(system)

    def test_designed_meets_take_no_incidence_test(self, monkeypatch):
        """Every line is its triple's shift line, so the check compares
        meeting pairs only: no line object or point is made."""
        system = build_shift_system(9, seed=1)

        def refuse(*args):
            raise AssertionError("verify_shift_system made a line or a point")

        for name in ("_shift_grid", "Line3", "Point3", "Dir3"):
            monkeypatch.setattr(linemod, name, refuse)
        assert verify_shift_system(system) == (True, None)

    def test_a_matching_system_builds_no_graph(self, monkeypatch):
        """Equal sorted edge lists decide a good system: no GeoGraph is made."""
        system = build_shift_system(18, seed=0)
        monkeypatch.setattr(linemod.graphs, "GeoGraph", None)
        assert verify_shift_system(system) == (True, None)

    def test_an_identical_pair_is_named_when_the_edges_match(self):
        system = build_shift_system(6, seed=1)
        object.__setattr__(system, "identical", (0, 1))
        assert verify_shift_system(system) == (False, {"pair": (0, 1), "reason": "spurious incidence"})

    def test_no_system_holds_an_undesigned_line(self):
        """A system is made from its values alone, and each line is its
        triple's shift line, in combinations order."""
        built = build_shift_system(6, seed=1)
        assert built.triples == tuple(itertools.combinations(built.values, 3))
        assert built.lines == tuple(shift_line(*t) for t in built.triples)
        with pytest.raises(TypeError):
            ShiftSystem(built.values, built.provenance, built.triples, built.lines)
        with pytest.raises(TypeError):  # a system is a plain class, so replace refuses it
            dataclasses.replace(built, rows=built.rows[::-1])

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(4, 8), data=st.data())
    def test_diagnostics_are_the_set_scan(self, n, data):
        """DS_n with one to three pairs added to or dropped from its sweep,
        and at times an identical pair, a designed meet (so not swept) or
        not: the list compare names what the set scan named."""
        system = ShiftSystem(_shift_values(n))
        pairs = list(itertools.combinations(range(len(system.triples)), 2))
        meets = set(system.meets) ^ data.draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=3))
        identical = data.draw(st.none() | st.sampled_from(linemod.double_shift_edges(n)) | st.sampled_from(pairs))
        object.__setattr__(system, "meets", sorted(meets - {identical}))
        object.__setattr__(system, "identical", identical)
        assert verify_shift_system(system) == set_scan_shift_system(system)

    @pytest.mark.parametrize("k", [0, 7, -1])
    def test_a_missing_designed_meet_is_named(self, k):
        system = build_shift_system(7, seed=1)
        dropped = _without_meet(system, k)
        assert verify_shift_system(system) == (False, {"pair": dropped, "reason": "expected meet"})

    def test_every_reason_comes_up(self):
        rng = random.Random(1)
        reasons = set()
        for _ in range(120):
            values = rng.sample(range(-5, rng.choice([7, 60])), rng.randint(4, 6))
            system = ShiftSystem(tuple(F(v) for v in sorted(values)))
            doctored = rng.random() < 0.2
            if doctored:
                _without_meet(system, rng.randrange(len(system.meets)))
            result = verify_shift_system(system)
            if not doctored:
                assert result == brute_verify_shift_system(system)
            reasons.add(None if result[0] else result[1]["reason"])
        assert reasons == {None, "expected meet", "spurious incidence"}
