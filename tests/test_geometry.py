import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthgeom import Box3, Dir3, Interval, Line3, LineFamily, Point3, rat
from girthgeom.geometry import cross, dot, grid_maps, to_grid

from _oracles import (
    Homothety1D,
    Homothety3D,
    LineRelation,
    PlaneRelation,
    apply,
    axis_map_box,
    box_intersects,
    homothety_box,
    identity_map,
    intervals_intersect,
    line_line_relation,
    line_plane_meet,
    perp_in_plane,
    plane_of,
    same_line,
)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)
positive_rationals = st.fractions(min_value=F(1, 8), max_value=10, max_denominator=8)


def box(xlo, xhi, ylo, yhi, zlo, zhi):
    return Box3.from_bounds(xlo, xhi, ylo, yhi, zlo, zhi)


class TestRat:
    def test_parse_and_format(self):
        assert str(rat("3/6")) == "1/2"
        assert str(rat("-4/2")) == "-2"
        assert rat(5) == F(5)
        assert rat("7") == F(7)

    def test_denominator_positive_reduced(self):
        v = rat("6/4")
        assert (v.numerator, v.denominator) == (3, 2)

    @settings(max_examples=400)
    @given(st.from_regex(r"-?[0-9]{1,25}(/[0-9]{1,25})?", fullmatch=True)
           | st.from_regex(r"\s*[-+]?[0-9_]{0,4}[/.eE]?[-+0-9_]{0,4}\s*", fullmatch=True)
           | st.text(max_size=6)
           | st.sampled_from(["1/0", "-0/0", "+1", " 1", "1 ", "1_0", "١", "1/", "/2", "--1", "1.5", "1e3", "", "1" * 5000]))
    def test_strings_read_as_fraction_reads_them(self, text):
        # the written form is read without Fraction's parser: same value, same error
        def outcome(read):
            try:
                value = read(text)
            except (ValueError, ZeroDivisionError) as exc:
                return type(exc), str(exc)
            return type(value), value, value.numerator, value.denominator

        assert outcome(rat) == outcome(F)


class TestInterval:
    def test_shared_endpoint(self):
        assert intervals_intersect(Interval.of(0, 1), Interval.of(1, 2))

    def test_disjoint(self):
        assert not intervals_intersect(Interval.of(0, 1), Interval.of(2, 3))

    def test_overlap(self):
        assert intervals_intersect(Interval.of(0, 2), Interval.of(1, 3))

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            Interval.of(2, 1)


class TestBoxIntersects:
    def test_overlap(self):
        b1 = box(0, 2, -2, 0, 0, 1)
        b2 = box(1, 3, -1, 1, 0, 1)
        assert box_intersects(b1, b2)

    def test_identical(self):
        b = box(0, 1, 0, 1, 0, 1)
        assert box_intersects(b, b)

    def test_ground_gadgets_disjoint(self):
        # thin boxes at 1 and 2 with side 1/3 cannot reach each other
        eps = F(1, 3)
        b1 = box(1, 1 + eps, 1 - eps, 1, 0, 1)
        b2 = box(2, 2 + eps, 2 - eps, 2, 0, 1)
        assert not box_intersects(b1, b2)


class TestLineLineRelation:
    def test_axes_meet_at_origin(self):
        l1 = Line3(Point3.of(0, 0, 0), Dir3.of(1, 0, 0))
        l2 = Line3(Point3.of(0, 0, 0), Dir3.of(0, 1, 0))
        rel = line_line_relation(l1, l2)
        assert rel.kind == LineRelation.MEET
        assert rel.point == Point3.of(0, 0, 0)

    def test_parallel_disjoint(self):
        l1 = Line3(Point3.of(0, 0, 0), Dir3.of(1, 0, 0))
        l2 = Line3(Point3.of(0, 1, 0), Dir3.of(1, 0, 0))
        assert line_line_relation(l1, l2).kind == LineRelation.PARALLEL

    def test_identical_other_base(self):
        l1 = Line3(Point3.of(0, 0, 0), Dir3.of(1, 2, 3))
        l2 = Line3(Point3.of(2, 4, 6), Dir3.of(-1, -2, -3))
        assert line_line_relation(l1, l2).kind == LineRelation.IDENTICAL
        assert same_line(l1, l2)

    def test_skew(self):
        l1 = Line3(Point3.of(0, 0, 0), Dir3.of(1, 0, 0))
        l2 = Line3(Point3.of(0, 0, 1), Dir3.of(0, 1, 0))
        assert line_line_relation(l1, l2).kind == LineRelation.SKEW

    def test_shift_lines_meet(self):
        from _oracles import shift_line

        rel = line_line_relation(shift_line(1, 2, 3), shift_line(2, 3, 5))
        assert rel.kind == LineRelation.MEET
        assert rel.point == Point3.of(23, 36, 132)


class TestLinePlane:
    def test_meet(self):
        l = Line3(Point3.of(1, 2, 0), Dir3.of(0, 0, 1))
        meet = line_plane_meet(l, plane_of(0, 0, 1, 5))
        assert meet.kind == PlaneRelation.MEET
        assert meet.point == Point3.of(1, 2, 5)

    def test_contained(self):
        l = Line3(Point3.of(0, 0, 5), Dir3.of(1, 0, 0))
        assert line_plane_meet(l, plane_of(0, 0, 1, 5)).kind == PlaneRelation.CONTAINED

    def test_parallel(self):
        l = Line3(Point3.of(0, 0, 4), Dir3.of(1, 0, 0))
        assert line_plane_meet(l, plane_of(0, 0, 1, 5)).kind == PlaneRelation.PARALLEL


class TestPerpInPlane:
    def test_x_axis_in_floor(self):
        p = plane_of(0, 0, 1, 0)
        l = Line3(Point3.of(0, 0, 0), Dir3.of(1, 0, 0))
        assert perp_in_plane(p, l) == Dir3.of(0, 1, 0)

    def test_diagonal_in_floor(self):
        p = plane_of(0, 0, 1, 0)
        l = Line3(Point3.of(0, 0, 0), Dir3.of(1, 1, 0))
        assert perp_in_plane(p, l) == Dir3.of(1, -1, 0)

    def test_diagonal_plane(self):
        # the x = y plane, line along (1, 1, 0)
        p = plane_of(1, -1, 0, 0)
        l = Line3(Point3.of(0, 0, 0), Dir3.of(1, 1, 0))
        u = perp_in_plane(p, l)
        assert dot(u.as_tuple(), l.dir.as_tuple()) == 0
        assert dot(u.as_tuple(), p.normal.as_tuple()) == 0

    def test_rejects_line_outside_plane(self):
        p = plane_of(0, 0, 1, 0)
        l = Line3(Point3.of(0, 0, 1), Dir3.of(1, 0, 0))
        with pytest.raises(ValueError):
            perp_in_plane(p, l)


class TestHomotheties:
    def test_scalar(self):
        assert apply(Homothety1D(F(2), F(1)), F(3)) == F(7)

    def test_axis_map_on_unit_box(self):
        b = axis_map_box((identity_map(), Homothety1D(F(1, 2), F(0))), box(0, 1, 0, 1, 0, 1))
        assert b == box(0, 1, 0, 1, 0, F(1, 2))

    def test_identity_interval(self):
        iv = Interval.of(F(1, 3), F(7, 2))
        assert axis_map_box((identity_map(), identity_map()), Box3(iv, iv, iv)) == Box3(iv, iv, iv)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            Homothety1D(F(0), F(1))


class TestLineKeys:
    def test_family_identical_matches_set_equality(self):
        l1 = Line3(Point3.of(0, 0, 0), Dir3.of(1, 2, 3))
        l2 = Line3(Point3.of(2, 4, 6), Dir3.of(-2, -4, -6))
        l3 = Line3(Point3.of(0, 1, 0), Dir3.of(1, 2, 3))
        assert LineFamily((l1, l2), None, 1).identical == (0, 1)
        assert LineFamily((l1, l3), None, 1).identical is None


class TestHomothety3DOnBoxes:
    def test_box_image(self):
        f = Homothety3D(F(2), Point3.of(1, 0, -1))
        b = homothety_box(f, box(0, 1, 0, 1, 0, 1))
        assert b == box(1, 3, 0, 2, -1, 1)


class TestDirCanonical:
    def test_first_nonzero_is_one(self):
        assert Dir3.of(2, 4, 6) == Dir3.of(1, 2, 3)
        assert Dir3.of(-1, 5, 0) == Dir3.of(1, -5, 0)
        assert Dir3.of(0, -2, 4) == Dir3.of(0, 1, -2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Dir3.of(0, 0, 0)


# ---------------------------------------------------------------------------
# property tests


@st.composite
def boxes(draw):
    xlo, ylo, zlo = draw(rationals), draw(rationals), draw(rationals)
    w, h, d = draw(positive_rationals), draw(positive_rationals), draw(positive_rationals)
    return Box3.from_bounds(xlo, xlo + w, ylo, ylo + h, zlo, zlo + d)


@st.composite
def axis_maps(draw):
    horizontal = Homothety1D(draw(positive_rationals), draw(rationals))
    vertical = Homothety1D(draw(positive_rationals), draw(rationals))
    return horizontal, vertical


@st.composite
def lines(draw):
    base = Point3(draw(rationals), draw(rationals), draw(rationals))
    d = (draw(rationals), draw(rationals), draw(rationals))
    if d == (F(0), F(0), F(0)):
        d = (F(1), F(0), F(0))
    return Line3(base, Dir3(*d))


@st.composite
def homotheties_3d(draw):
    return Homothety3D(
        draw(positive_rationals),
        Point3(draw(rationals), draw(rationals), draw(rationals)),
    )


@settings(max_examples=200, deadline=None)
@given(boxes(), boxes(), axis_maps())
def test_axis_maps_preserve_box_intersection(b1, b2, m):
    assert box_intersects(b1, b2) == box_intersects(axis_map_box(m, b1), axis_map_box(m, b2))


@settings(max_examples=200, deadline=None)
@given(lines(), lines(), homotheties_3d())
def test_homothety_preserves_line_relation(l1, l2, f):
    before = line_line_relation(l1, l2)
    after = line_line_relation(f.apply_line(l1), f.apply_line(l2))
    assert before.kind == after.kind
    if before.kind == LineRelation.MEET:
        assert after.point == f.apply_point(before.point)


@settings(max_examples=200, deadline=None)
@given(lines(), st.fractions(min_value=-10, max_value=10, max_denominator=6))
def test_perp_postconditions(line, offset):
    normal = cross(line.dir.as_tuple(), (F(1), F(2), F(5)))
    if normal == (F(0), F(0), F(0)):
        normal = cross(line.dir.as_tuple(), (F(3), F(1), F(0)))
    plane = plane_of(*normal, dot(normal, line.base.as_tuple()))
    u = perp_in_plane(plane, line)
    assert dot(u.as_tuple(), line.dir.as_tuple()) == 0
    assert dot(u.as_tuple(), plane.normal.as_tuple()) == 0


def _integer_on(grid: int, maps, p: int) -> bool:
    """Whether every map u / p -> (a / b) u / p + c / d is integer affine on
    the grid of denominator ``grid``: grid a / (b p) and grid c / d are integers."""
    return all(grid * a % (b * p) == 0 and grid * c % d == 0 for a, b, c, d in maps)


# scales and shifts as integers in any terms, not only the lowest, as the certificate gives them
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-60, 60).filter(bool), st.integers(1, 12), st.integers(-60, 60),
                          st.integers(1, 12)), max_size=4),
       st.integers(1, 36), st.integers(1, 12), st.integers(-50, 50))
def test_grid_maps_is_the_least_grid_of_every_map(maps, p, den, u):
    grid, pairs = grid_maps(maps, p, den)
    assert grid % den == 0 and len(pairs) == len(maps)
    for (a, b, c, d), (k, t) in zip(maps, pairs):
        assert F(k * u + t, grid) == F(a, b) * F(u, p) + F(c, d)
    assert _integer_on(grid, maps, p)
    assert not any(_integer_on(d, maps, p) for d in range(den, grid, den) if grid % d == 0)


def test_to_grid_splits_written_strings_in_lowest_terms():
    # no Fraction is made of a written string, and the grid is still the least one
    assert to_grid([["2/4", "3", "-6/8"], ["0/5", "-7"]]) == (4, [(2, 12, -3), (0, -28)])
    assert to_grid([["2/4", F(1, 3)]]) == (6, [(3, 2)])


@pytest.mark.parametrize("entry", ["1/0", "-3/00", "x", "1.5", " 2", "+2", "1e3", "٣"])
def test_to_grid_reads_any_other_string_as_a_fraction(entry):
    # a zero denominator or another form goes through ``rat``, whose value and error it keeps
    try:
        want = rat(entry)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            to_grid([[entry]])
    else:
        assert to_grid([[entry]]) == (want.denominator, [(want.numerator,)])
