"""The output-sensitive intersection sweeps against the all-pairs loops
they replaced: the same pairs, in the same (i, j) order."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthgeom import (
    Dir3,
    GroundedSquareBox,
    Line3,
    Point3,
    meeting_pair_lines,
    odd_cycle_boxes,
    recursion_step_boxes,
    recursion_step_lines,
)
from girthgeom.boxes import box_intersection_edges
from girthgeom.gallai import ProviderPolicy
from girthgeom.lines import line_intersection_edges

from _oracles import all_pairs_box_edges, all_pairs_line_edges

# few distinct z-endpoints, so equal, nested and touching z-ranges are common
_z_ends = st.sampled_from([F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2)])
_traces = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_sides = st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3)


@st.composite
def _grounded_box(draw):
    zlo, zhi = sorted(draw(st.lists(_z_ends, min_size=2, max_size=2, unique=True)))
    return GroundedSquareBox.of(draw(_traces), draw(_sides), zlo, zhi)


class TestBoxSweep:
    @settings(deadline=None)
    @given(st.lists(_grounded_box(), max_size=14))
    def test_matches_all_pairs(self, boxes):
        assert box_intersection_edges(boxes) == all_pairs_box_edges(boxes)

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
        boxes = [GroundedSquareBox.of(0, 1, zlo, zhi) for zlo, zhi in z_ranges]
        assert box_intersection_edges(boxes) == edges == all_pairs_box_edges(boxes)


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
            base = src.point_at(draw(_coords))
        else:
            base = Point3(draw(_coords), draw(_coords), draw(_coords))
        lines.append(Line3(base, Dir3.of(*d)))
    return lines


class TestLineSweep:
    @settings(deadline=None)
    @given(_lines())
    def test_matches_all_pairs(self, lines):
        assert line_intersection_edges(lines) == all_pairs_line_edges(lines)

    def test_direction_classes(self):
        base = Point3.of(0, 0, 0)
        lines = [
            Line3(base, Dir3.of(2, 4, 6)),
            Line3(Point3.of(1, 0, 0), Dir3.of(-1, -2, -3)),  # parallel: never listed
            Line3(base, Dir3.of(1, 2, 3)),  # identical to the first: never listed
            Line3(Point3.of(F(1, 2), 1, F(3, 2)), Dir3.of(0, 0, 1)),  # through (1/2, 1, 3/2) on line 0
        ]
        assert line_intersection_edges(lines) == [(0, 3), (2, 3)] == all_pairs_line_edges(lines)


class TestBenchmarkSizedSteps:
    """One recursion step at the sizes of the box-step and line-step
    benchmark workloads."""

    def test_box_step(self):
        fam = recursion_step_boxes(odd_cycle_boxes(5), 1, 4, ProviderPolicy("vdw", vdw_length_hint=100).provider())
        assert len(fam.boxes) == 4020
        assert fam.meets == all_pairs_box_edges(fam.boxes)
        assert len(fam.meets) == 7840

    def test_line_step(self):
        fam = recursion_step_lines(meeting_pair_lines(), 2, 4, ProviderPolicy("vdw", vdw_length_hint=25).provider())
        assert len(fam.lines) == 625
        assert fam.meets == all_pairs_line_edges(fam.lines)
        assert len(fam.meets) == 900
