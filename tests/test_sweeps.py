"""The output-sensitive intersection sweeps against the all-pairs loops
they replaced: the same pairs, in the same (i, j) order."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthgeom import (
    BoxFamily,
    Dir3,
    Line3,
    LineFamily,
    Point3,
    build_shift_system,
    meeting_pair_lines,
    odd_cycle_boxes,
    recursion_step_boxes,
    recursion_step_lines,
)
from girthgeom.boxes import box_intersection_edges
from girthgeom.gallai import ProviderPolicy
from girthgeom import lines as linemod
from girthgeom.geometry import cross, dot
from girthgeom.lines import _packed_meets, line_intersection_edges

from _oracles import all_pairs_box_edges, all_pairs_line_edges, point_at, same_line, square_box, zheap_box_edges


def _plucker(lines):
    """The lines' integer Plücker rows (d, b x d) on their grid."""
    _, rows = LineFamily.grid([(*l.base.as_tuple(), *l.dir.as_tuple()) for l in lines])
    return [(d, cross(b, d)) for b, d in rows]

# few distinct z-endpoints, so equal, nested and touching z-ranges are common
_z_ends = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2)])
_traces = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_sides = st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3)


@st.composite
def _grounded_box(draw):
    zlo, zhi = sorted(draw(st.lists(_z_ends, min_size=2, max_size=2, unique=True)))
    return square_box(draw(_traces), draw(_sides), zlo, zhi)


@st.composite
def _ground_and_copies(draw):
    """Boxes shaped like a lift's: long-lived boxes that span every height,
    thin like ground boxes or wide, among short boxes in z-slots of their
    own, in a drawn order."""
    traces = st.integers(-40, 40)
    ground = [square_box(t, draw(st.sampled_from([1, 2, 3, 31, 32, 33, 60])), 0, 100)
              for t in draw(st.lists(traces, max_size=8))]
    copies = []
    for slot in range(draw(st.integers(0, 5))):
        for _ in range(draw(st.integers(1, 4))):
            zlo = 10 + 15 * slot + draw(st.integers(0, 5))
            copies.append(square_box(draw(traces), draw(st.integers(1, 40)), zlo, zlo + draw(st.integers(1, 10))))
    return draw(st.permutations(ground + copies))


class TestBoxSweep:
    @settings(deadline=None)
    @given(st.lists(_grounded_box(), max_size=14))
    def test_matches_all_pairs(self, boxes):
        assert box_intersection_edges(BoxFamily(tuple(boxes), None, 1).rows) == all_pairs_box_edges(boxes)

    @pytest.mark.parametrize(
        "z_ranges, edges",
        [
            ([(1, 2), (0, 1)], [(0, 1)]),  # z-high of the second is the z-low of the first
            ([(0, 1), (F(3, 2), 2), (0, 1)], [(0, 2)]),
            ([(0, 2), (F(1, 2), 1), (F(1, 3), F(1, 2))], [(0, 1), (0, 2), (1, 2)]),  # nested
            ([(F(1, 2), 1), (0, F(1, 3))], []),
        ],
    )
    def test_z_contact_cases(self, z_ranges, edges):
        boxes = [square_box(0, 1, zlo, zhi) for zlo, zhi in z_ranges]
        assert box_intersection_edges(BoxFamily(tuple(boxes), None, 1).rows) == edges == all_pairs_box_edges(boxes)

    @settings(deadline=None)
    @given(_ground_and_copies())
    def test_long_lived_boxes_among_short_ones(self, boxes):
        assert box_intersection_edges(BoxFamily(tuple(boxes), None, 1).rows) == all_pairs_box_edges(boxes)

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 7, 40])
    def test_sides_at_the_edges_of_their_classes(self, c):
        # sides 2^c - 1, 2^c and 2^c + 1 fall in classes c, c + 1 and c + 1,
        # and traces this far apart meet exactly when within the smaller side
        sides = [2**c - 1, 2**c, 2**c + 1]
        traces = [0, *sides, *(-s for s in sides), 2 * sides[0], 2 * sides[2]]
        boxes = [square_box(t, s, 0, 1) for t in traces for s in sides]
        rows = BoxFamily(tuple(boxes), None, 1).rows
        assert [(row[0], row[1] - row[0]) for row in rows] == [(t, s) for t in traces for s in sides]
        assert box_intersection_edges(rows) == all_pairs_box_edges(boxes)

    @pytest.mark.parametrize(
        "first, second, meet",
        [
            ((0, 4, 0, 1), (2, 2, 0, 1), True),  # y-faces touch at y = 0
            ((0, 4, 0, 1), (-2, 2, 0, 1), True),  # x-faces touch at x = 0
            ((0, 2, 0, 1), (2, 2, 0, 1), True),  # the vertical edges above (2, 0) touch
            ((0, 2, 0, 1), (3, 2, 0, 1), False),
            ((0, 4, 0, 1), (-3, 2, 0, 1), False),  # one apart in x
            ((0, 2, 0, 1), (2, 2, 1, 2), True),  # edges touch in xy, faces in z: a corner
            ((0, 2, 0, 1), (2, 2, F(3, 2), 2), False),
            ((0, 2, 0, 1), (1, 1, 1, 3), True),  # z-faces touch
        ],
    )
    def test_touching_faces_and_edges(self, first, second, meet):
        for boxes in ([square_box(*first), square_box(*second)], [square_box(*second), square_box(*first)]):
            assert box_intersection_edges(BoxFamily(tuple(boxes), None, 1).rows) == ([(0, 1)] if meet else [])
            assert all_pairs_box_edges(boxes) == ([(0, 1)] if meet else [])


# a few directions with zero components; scaled and negated copies of them
# must land in the same direction class
_dirs = st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, -1), (0, 2, 1), (1, 2, 3), (2, -1, 1)])
_dir_scales = st.sampled_from([F(1), F(-1), F(2), F(-1, 2), F(3, 2)])
_coords = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def _lines(draw):
    """Lines that are new, parallel to an earlier one, identical to an
    earlier one (another base point and a scaled direction), or through a
    point of an earlier one."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["new", "parallel", "identical", "through"])) if lines else "new"
        src = draw(st.sampled_from(lines)) if lines else None
        d = draw(_dirs) if kind in ("new", "through") else src.dir.as_tuple()
        d = tuple(draw(_dir_scales) * c for c in d)
        if kind in ("identical", "through"):
            base = point_at(src, draw(_coords))
        else:
            base = Point3(draw(_coords), draw(_coords), draw(_coords))
        lines.append(Line3(base, Dir3.of(*d)))
    return lines


class TestLineSweep:
    @settings(deadline=None)
    @given(_lines())
    def test_matches_all_pairs(self, lines):
        assert line_intersection_edges(_plucker(lines)) == all_pairs_line_edges(lines)
        same = [(i, j) for j in range(len(lines)) for i in range(j) if same_line(lines[i], lines[j])]
        assert LineFamily(tuple(lines), None, 1).identical == min(same, default=None)

    def test_direction_classes(self):
        base = Point3.of(0, 0, 0)
        lines = [
            Line3(base, Dir3.of(2, 4, 6)),
            Line3(Point3.of(1, 0, 0), Dir3.of(-1, -2, -3)),  # parallel: never listed
            Line3(base, Dir3.of(1, 2, 3)),  # identical to the first: never listed
            Line3(Point3.of(F(1, 2), 1, F(3, 2)), Dir3.of(0, 0, 1)),  # through (1/2, 1, 3/2) on line 0
        ]
        assert line_intersection_edges(_plucker(lines)) == [(0, 3), (2, 3)] == all_pairs_line_edges(lines)


# large, negative and fractional coordinates with mixed denominators
_big = st.fractions(min_value=-(10**15), max_value=10**15, max_denominator=10**4)


@st.composite
def _distinct_direction_lines(draw):
    """Lines with pairwise distinct directions, each new or through a point
    of an earlier one, swept in blocks of a drawn size."""
    dirs = draw(st.lists(st.tuples(_big, _big, _big).filter(any), max_size=12, unique_by=lambda d: Dir3.of(*d)))
    lines = []
    for d in dirs:
        if lines and draw(st.booleans()):
            base = point_at(draw(st.sampled_from(lines)), draw(_big))
        else:
            base = Point3(draw(_big), draw(_big), draw(_big))
        lines.append(Line3(base, Dir3.of(*d)))
    return lines, draw(st.sampled_from([1, 2, 3, 5, linemod.SWEEP_BLOCK]))


def _pairwise(rows):
    """The reference for the packed test: d.m' + d'.m == 0, one pair at a time."""
    return [(i, j) for a, (i, d, m) in enumerate(rows) for j, e, n in rows[a + 1:] if dot(d, n) + dot(e, m) == 0]


# slot-width edges: 2^k - 1 and 2^k move the bit length of max|d| max|m|, and
# so the bytes per slot; pairs such as 2^13 - 1 with 2^7 - 1, or 2^38 - 1 with
# itself, bring the bound B (see _extreme_rows) within 1 % of 3 * 2^(8 size - 3),
# where a slot has no spare bit
_bounds = st.sampled_from([1, 2, 3, 127, 128, 2**13 - 1, 2**31 - 1, 2**31, 2**38 - 1, 2**62 + 1])


@st.composite
def _extreme_rows(draw):
    """Integer rows (index, d, m) whose entries are mostly +-max|d|, +-max|m|,
    near them, or zero, so d.m' + d'.m reaches +-B, for B = 2 sum_k max|d_k|
    max|m_k| (6 max|d| max|m| when every coordinate can reach the maxima),
    and cancels to 0 from large terms; up to three blocks of them, picked
    from a pool of a dozen rows."""
    big_d, big_m = draw(_bounds), draw(_bounds)

    def entry(bound):
        return st.sampled_from([bound, bound - 1, 1, 0, -1, 1 - bound, -bound]) | st.integers(-bound, bound)

    rows = st.tuples(st.tuples(*[entry(big_d)] * 3), st.tuples(*[entry(big_m)] * 3))
    pool = draw(st.lists(rows, min_size=1, max_size=12))
    pick = draw(st.randoms(use_true_random=False))
    return [(i, *pick.choice(pool)) for i in range(draw(st.integers(0, 3 * linemod.SWEEP_BLOCK)))]


class TestPackedMeets:
    @settings(deadline=None, max_examples=100)
    @given(_distinct_direction_lines())
    def test_matches_all_pairs(self, drawn):
        lines, block = drawn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linemod, "SWEEP_BLOCK", block)
            assert line_intersection_edges(_plucker(lines)) == all_pairs_line_edges(lines)

    @settings(deadline=None, max_examples=60)
    @given(_extreme_rows())
    def test_rows_at_the_slot_bound(self, rows):
        assert _packed_meets(rows) == _pairwise(rows)

    @pytest.mark.parametrize(
        "big_d, big_m",
        [(1, 1), (3, 3), (3, 5), (2**31, 2**31 - 1), (2**62 + 1, 2**70), (2**13 - 1, 2**7 - 1),
         (2**38 - 1, 2**38 - 1), (2**13 - 1, 2**8 - 1), (2**31 - 1, 2**38 - 1)],
    )
    def test_extreme_values_fill_their_slots(self, big_d, big_m):
        # every value here is 0 or +-B = 2 sum_k max|d_k| max|m_k| = 6 max|d| max|m|, the bound
        # the slot width is chosen for
        rows = [(i, (s * big_d,) * 3, (t * big_m,) * 3) for i, (s, t) in enumerate([(1, 1), (-1, 1), (1, -1)] * 50)]
        assert {abs(dot(d, n) + dot(e, m)) for _, d, m in rows for _, e, n in rows} == {0, 6 * big_d * big_m}
        assert _packed_meets(rows) == _pairwise(rows) != []

    @pytest.mark.parametrize("value", [-1, 0, 1])
    def test_large_terms_that_cancel_to_value(self, value):
        # d.m' = big_d big_m + value and d'.m = -big_d big_m, around rows of the same widths
        big_d, big_m = 2**40 + 1, 2**62 - 1
        pair = [((big_d, 1, 0), (0, 0, big_m)), ((0, 0, -big_d), (big_m, value, 0))]
        filler = [((big_d, big_d, 1), (big_m, -big_m, 7))] * 200
        rows = [(i, d, m) for i, (d, m) in enumerate(filler[:150] + pair + filler[150:])]
        assert ((150, 151) in _packed_meets(rows)) == (value == 0)
        assert _packed_meets(rows) == _pairwise(rows)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_exact_meet_and_near_miss(self, offset):
        # d x d' = (-b, 0, 1), so moving the second base by offset along z
        # makes d.m' + d'.m on the integer rows exactly +-offset
        a, b = 10**9 + 7, -(10**12)
        p = Point3.of(-(10**15), 3 * 10**14, 10**13 + 1)
        lines = [
            Line3(Point3.of(1, 2, 3), Dir3.of(1, -1, 5)),  # meets neither
            Line3(p, Dir3.of(1, a, b)),
            Line3(Point3(p.x, p.y, p.z + offset), Dir3.of(1, a + 1, b)),
        ]
        (_, (d, m), (e, n)) = _plucker(lines)
        assert abs(dot(d, n) + dot(e, m)) == abs(offset)
        assert line_intersection_edges(_plucker(lines)) == ([(1, 2)] if offset == 0 else []) == all_pairs_line_edges(lines)

    @pytest.mark.parametrize("extra, size", [(0, 10), (1, 11)])
    def test_maxima_tens_of_bits_apart(self, extra, size):
        # d of bit lengths (1, 14, 29) and m of (78, 56, 41), as a shift system's rows are
        # anti-aligned, with sum_k max|d_k| max|m_k| = 3 * 2^76 - 1 + extra: so B sits one even
        # step below 3 * 2^77, the most 10-byte slots take, or on it
        d1, d2, m1, m2 = 2**13 + 5, 2**28 + 3, 2**55 + 11, 2**40 + 9
        top_d, top_m = (1, d1, d2), (3 * 2**76 - 1 + extra - d1 * m1 - d2 * m2, m1, m2)
        filler = [(top_d, top_m), (tuple(-c for c in top_d), tuple(-c for c in top_m))] * 50
        cancel = []  # x + d1 m1 + d2 m2 = value, with terms of 69 and 70 bits
        for value in (-1, 0, 1):
            cancel += [((1, d1, 0), (0, 0, m2)), ((0, 0, d2), (value - d1 * m1 - d2 * m2, m1, 0))]
        rows = [(i, d, m) for i, (d, m) in enumerate(filler[:70] + cancel + filler[70:] + filler)]
        bound = 2 * (3 * 2**76 - 1 + extra)
        assert max(abs(dot(d, n) + dot(e, m)) for _, d, m in rows for _, e, n in rows) == bound
        assert linemod._slot_size(rows) == size
        assert _packed_meets(rows) == _pairwise(rows)
        assert {(70, 71), (72, 73), (74, 75)} & set(_packed_meets(rows)) == {(72, 73)}

    @pytest.mark.parametrize("n, seed, old", [(18, 0, 13), (21, 1, 14)])
    def test_shift_rows_take_ten_byte_slots(self, n, seed, old):
        # the old width, from 6 max|d| max|m|, was (bits of max|d| + bits of max|m| + 11) // 8
        rows = [(i, d, cross(b, d)) for i, (b, d) in enumerate(build_shift_system(n, seed=seed).rows)]
        old_width = (max(abs(c) for _, d, _ in rows for c in d).bit_length()
                     + max(abs(c) for _, _, m in rows for c in m).bit_length() + 11) // 8
        assert (linemod._slot_size(rows), old_width) == (10, old)

    def test_shift_system_over_two_blocks(self):
        lines = build_shift_system(11).lines
        assert len(lines) == 165 > linemod.SWEEP_BLOCK
        assert line_intersection_edges(_plucker(lines)) == all_pairs_line_edges(lines)
        assert len(line_intersection_edges(_plucker(lines))) == 330  # C(11, 4) designed meets


class TestBenchmarkSizedSteps:
    """One recursion step at the sizes of the box-step and line-step
    benchmark workloads."""

    def test_box_step(self):
        fam = recursion_step_boxes(odd_cycle_boxes(5), 1, 4, ProviderPolicy("vdw", vdw_length_hint=100).provider())
        assert len(fam.boxes) == 4020
        assert fam.meets == all_pairs_box_edges(fam.boxes) == zheap_box_edges(fam.rows)
        assert len(fam.meets) == 7840

    def test_line_step(self):
        fam = recursion_step_lines(meeting_pair_lines(), 2, 4, ProviderPolicy("vdw", vdw_length_hint=25).provider())
        assert len(fam.lines) == 625
        assert fam.meets == all_pairs_line_edges(fam.lines)
        assert len(fam.meets) == 900
