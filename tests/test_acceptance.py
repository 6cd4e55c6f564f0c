"""Acceptance suite: one test per criterion, each printing a PASS line
with its headline numbers.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

import girthgeom as gg
from girthgeom import Budget, BudgetExhausted, GroundSet
from girthgeom.boxes import BoxFamily, make_ground_boxes
from girthgeom.cli import EXIT_BUDGET, main
from girthgeom.gallai import (
    GallaiCertificate,
    enumerate_copies,
    pigeonhole_certificate,
    verify_certificate,
)
from girthgeom.lines import frame_conditions
from girthgeom.recursion import parent_edges

from _oracles import box_intersects, brute_chromatic, brute_girth, point_at, shift_line


def _passed(n, message):
    print(f"\nACCEPTANCE {n}: PASS — {message}")


def pigeonhole_provider(ground, colors, girth_param):
    return pigeonhole_certificate(ground, colors, girth_param)


def test_criterion_1_pentagon_box_base():
    t0 = time.perf_counter()
    fam = gg.odd_cycle_boxes(5)
    # all 10 pairwise predicates against the abstract 5-cycle
    cycle_edges = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    for i in range(5):
        for j in range(i + 1, 5):
            expected = (i, j) in cycle_edges
            assert box_intersects(fam.boxes[i].box, fam.boxes[j].box) == expected
    g = gg.intersection_graph(fam)
    assert gg.girth(g) == 5
    chrom = gg.chromatic_number(g)
    assert chrom.value == 3 and chrom.status == "exact"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(1, f"5-box pentagon: exact 5-cycle, girth 5, chromatic 3 in {elapsed:.3f}s")


def test_criterion_2_box_recursion_end_to_end():
    t0 = time.perf_counter()
    parent = gg.meeting_pair_family()
    fam = gg.recursion_step_boxes(parent, 2, 6, pigeonhole_provider)
    assert len(fam.boxes) == 9
    assert fam.provenance["certificate"].elements == (1, 2, 3)
    g = gg.intersection_graph(fam)
    order = [0, 3, 4, 1, 7, 8, 2, 6, 5]
    nine_cycle = gg.GeoGraph(9, [(order[i], order[(i + 1) % 9]) for i in range(9)])
    same, witness = gg.graph_equals_expected(g, nine_cycle)
    assert same, witness
    assert gg.girth(g) == 9 >= 6
    chrom = gg.chromatic_number(g)
    assert chrom.value == 3 and chrom.status == "exact"
    assert chrom.refutation is not None and chrom.refutation.colors == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(2, f"pair + pigeonhole -> 9 boxes, 9-cycle, chromatic 3, girth 9 in {elapsed:.3f}s")


_INSTANCES = None


def _constructed_instances():
    """Every recursion output exercised by the suite, in both geometries
    (built once and shared between the structural and girth-law criteria)."""
    global _INSTANCES
    if _INSTANCES is not None:
        return _INSTANCES
    box_c9 = gg.recursion_step_boxes(gg.meeting_pair_family(), 2, 6, pigeonhole_provider)
    line_c9 = gg.recursion_step_lines(gg.meeting_pair_lines(), 2, 6, pigeonhole_provider)
    box_mid = gg.recursion_step_boxes(
        gg.odd_cycle_boxes(5), 1, 4, gg.ProviderPolicy("vdw", vdw_length_hint=31).provider()
    )
    box_flagged = gg.recursion_step_boxes(
        gg.odd_cycle_boxes(5),
        3,
        4,
        gg.ProviderPolicy("vdw", vdw_length_hint=30, certificate_budget=25).provider(),
    )
    line_mid = gg.recursion_step_lines(
        gg.meeting_pair_lines(), 2, 4, gg.ProviderPolicy("vdw", vdw_length_hint=31).provider()
    )
    _INSTANCES = [
        ("box-9", box_c9, gg.check_box_structure),
        ("line-9", line_c9, gg.check_line_structure),
        ("box-356", box_mid, gg.check_box_structure),
        ("box-330-flagged", box_flagged, gg.check_box_structure),
        ("line-961", line_mid, gg.check_line_structure),
    ]
    return _INSTANCES


def test_criterion_3_structural_lemma_suite():
    sizes = []
    for name, fam, checker in _constructed_instances():
        t0 = time.perf_counter()
        report = checker(fam)
        elapsed = time.perf_counter() - t0
        assert report.ok, (name, report.first_failure())
        assert elapsed < 10.0, name
        sizes.append(f"{name}({len(fam.boxes) if hasattr(fam, 'boxes') else len(fam.lines)} objects {elapsed:.2f}s)")
    # 2000 disjoint ground boxes: the quadratic sweep stays within budget
    t0 = time.perf_counter()
    den, rows = make_ground_boxes(range(1, 2001), F(1, 3))
    big = BoxFamily(rows, None, 1, den=den)
    elapsed = time.perf_counter() - t0
    assert big.meets == []
    assert elapsed < 10.0
    sizes.append(f"ground-2000({elapsed:.2f}s)")
    _passed(3, "structural sweeps exact and in budget: " + ", ".join(sizes))


def test_criterion_4_girth_lift_law():
    checked = []
    for name, fam, _ in _constructed_instances():
        prov = fam.provenance
        assert prov["kind"] == "recursion"
        cert = prov["certificate"]
        girth_param = cert.girth
        parent_graph = gg.GeoGraph(cert.ground.size, parent_edges(cert, fam.meets))
        parent_girth = gg.girth(parent_graph)
        out_girth = gg.girth(gg.intersection_graph(fam))
        bound = min(parent_girth, 3 * math.ceil(girth_param / 3))
        assert out_girth >= bound, (name, out_girth, bound)
        checked.append(f"{name}: {out_girth} >= {bound}")
    _passed(4, "; ".join(checked))


def test_criterion_5_shift_systems():
    t_total = time.perf_counter()
    chromatics = []
    elapsed_10 = None
    for n in range(3, 11):
        t0 = time.perf_counter()
        system = gg.build_shift_system(n, seed=1)
        # (a) crossed-parameter identity on all consecutive triple pairs
        for a, b, c, d in itertools.combinations(system.values, 4):
            assert point_at(shift_line(a, b, c), c * d) == point_at(shift_line(b, c, d), a * b)
        # (b) graph equals the double shift graph, no spurious incidences
        ok, diagnostic = gg.verify_shift_system(system)
        assert ok, diagnostic
        g = gg.intersection_graph(system)
        expected = gg.double_shift_graph(n)
        same, witness = gg.graph_equals_expected(g, expected)
        assert same, witness
        # (c) exact chromatic values
        chrom = gg.chromatic_number(g, Budget(50_000_000))
        assert chrom.status == "exact"
        chromatics.append(chrom.value)
        if n == 10:
            elapsed_10 = time.perf_counter() - t0
            assert g.n == 120 and g.n * (g.n - 1) // 2 == 7140
    assert chromatics[:3] == [1, 2, 2]
    assert all(a <= b for a, b in zip(chromatics, chromatics[1:]))
    assert elapsed_10 < 30.0
    _passed(
        5,
        f"systems n=3..10 verified; chromatics {chromatics} nondecreasing; "
        f"n=10 (120 lines, 7140 pair tests) in {elapsed_10:.2f}s; total {time.perf_counter()-t_total:.2f}s",
    )


def test_criterion_6_line_recursion_end_to_end():
    t0 = time.perf_counter()
    parent = gg.meeting_pair_lines()
    fam = gg.recursion_step_lines(parent, 2, 6, pigeonhole_provider)
    assert len(fam.lines) == 9
    g = gg.intersection_graph(fam)
    assert g.m == 9 and gg.girth(g) == 9
    chrom = gg.chromatic_number(g)
    assert chrom.value == 3 and chrom.status == "exact"
    # frame genericity conditions re-verify on the parent
    frame = gg.choose_frame(parent)
    assert frame_conditions(frame, parent) == []
    assert frame_conditions(frame, parent) == []  # idempotent
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(6, f"pair + pigeonhole -> 9 lines, 9-cycle, chromatic 3, girth 9 in {elapsed:.3f}s")


def test_criterion_7_progression_thresholds_reproduced():
    ground = GroundSet.of([0, 1, 2])

    def cert(upper, colors):
        elements = tuple(F(i) for i in range(1, upper + 1))
        return GallaiCertificate(ground, elements, enumerate_copies(ground, elements), colors, 4)

    # two colors: refuted at 9, witnessed at 8 by the expected partition
    report9 = verify_certificate(cert(9, 2))
    assert report9.coloring_ok is True
    report8 = verify_certificate(cert(8, 2))
    assert report8.coloring_ok is False
    assert report8.counterexample == (0, 0, 1, 1, 0, 0, 1, 1)
    classes = {0: [], 1: []}
    for value, color in zip(range(1, 9), report8.counterexample):
        classes[color].append(value)
    assert classes == {0: [1, 2, 5, 6], 1: [3, 4, 7, 8]}
    # and that partition really avoids monochromatic 3-term progressions
    for cls in classes.values():
        for x, y, z in itertools.combinations(cls, 3):
            assert y - x != z - y

    # three colors: a valid coloring exists at 26, none at 27
    t0 = time.perf_counter()
    report26 = verify_certificate(cert(26, 3), Budget(500_000_000))
    assert report26.coloring_ok is False
    report27 = verify_certificate(cert(27, 3), Budget(500_000_000))
    assert report27.coloring_ok is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _passed(
        7,
        f"thresholds reproduced by search: 2 colors at 9 (witness {{1,2,5,6}}/{{3,4,7,8}} at 8), "
        f"3 colors at 27 (colorable at 26), refutation {report27.nodes} nodes in {elapsed:.1f}s",
    )


def test_criterion_8_oracle_equivalence():
    t0 = time.perf_counter()
    count = 0
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = {pairs[i] for i in range(len(pairs)) if (mask >> i) & 1}
            g = gg.GeoGraph(n, edges)
            assert gg.girth(g) == brute_girth(n, edges)
            assert gg.chromatic_number(g).value == brute_chromatic(n, edges)
            count += 1
    random_count = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = 7 + (seed % 2)
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
        g = gg.GeoGraph(n, edges)
        assert gg.girth(g) == brute_girth(n, edges)
        assert gg.chromatic_number(g).value == brute_chromatic(n, edges)
        random_count += 1
    elapsed = time.perf_counter() - t0
    _passed(
        8,
        f"exact agreement with brute force on {count} exhaustive graphs (<= 6 vertices) "
        f"and {random_count} random 7-8 vertex graphs in {elapsed:.1f}s",
    )


def test_criterion_9_search_failure_path(tmp_path):
    # library level: structured budget failure, explicitly not a nonexistence claim
    with pytest.raises(BudgetExhausted) as exc_info:
        gg.search_certificate(GroundSet.of([0, 1, 2]), 2, 9, Budget(5000))
    assert exc_info.value.used > exc_info.value.limit == 5000

    # CLI level: exit code and report shape
    report_path = tmp_path / "search-report.json"
    code = main(
        ["gallai", "search", "--T", "0,1,2", "--k", "2", "--g", "9",
         "--budget", "5000", "--out", str(report_path)]
    )
    assert code == EXIT_BUDGET
    import json

    report = json.loads(report_path.read_text())
    assert report["status"] == "budget-exhausted"
    assert report["results"]["found"] is False
    assert report["results"]["limit"] == 5000
    assert report["results"]["nodes"] > 5000

    # anything the search does return passes the verifier
    found = gg.search_certificate(GroundSet.of([0, 1, 2]), 2, 4, Budget(10_000_000))
    assert verify_certificate(found).all_true()
    _passed(9, "budget-limited search fails with exit 3 and a structured report; "
               "successful searches return fully verified certificates")
