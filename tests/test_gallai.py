import math
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from girthgeom import (
    Budget,
    BudgetExhausted,
    GallaiCertificate,
    GroundSet,
    ProviderFailure,
    ProviderRefusal,
    enumerate_copies,
    find_copy_cycle,
    normalize_ground_set,
    pigeonhole_certificate,
    search_certificate,
    vdw_certificate,
    verify_certificate,
)
from girthgeom import gallai
from girthgeom.gallai import (
    CopyCycleWitness,
    ProviderPolicy,
    certificate_from_doc,
    certificate_to_doc,
    derive_certificate,
    find_avoiding_coloring,
    make_certificate,
    validate_cycle_witness,
)
from girthgeom.cli import main
from girthgeom.geometry import format_rat
from girthgeom.scenes import load_certificate

from _oracles import (
    apply,
    brute_coloring_search,
    brute_copies,
    fraction_copies,
    homotheties,
    reference_copy_cycle,
    rescan_avoiding_coloring,
    save_certificate,
)


def elems(*values):
    return tuple(F(v) for v in values)


class TestNormalize:
    def test_half_steps(self):
        assert normalize_ground_set(GroundSet.of([F(1, 2), 1, F(3, 2)])) == (0, 1, 2)

    def test_identity(self):
        assert normalize_ground_set(GroundSet.of([0, 1])) == (0, 1)

    def test_gcd_fifteen(self):
        assert normalize_ground_set(GroundSet.of([10, 25, 40, 55, 70])) == (0, 1, 2, 3, 4)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(max_denominator=12), min_size=2, max_size=6, unique=True))
    def test_a_positive_map_sends_the_integers_onto_the_ground_set(self, values):
        # minimum 0 and difference gcd 1: the ground set is lo + s * ints for one s > 0
        ground = GroundSet.of(values)
        ints = normalize_ground_set(ground)
        lo, scale = ground.points[0], (ground.points[-1] - ground.points[0]) / ints[-1]
        assert ints[0] == 0 and math.gcd(*ints) == 1
        assert tuple(lo + scale * i for i in ints) == ground.points


def copies_of(ground: GroundSet, elements):
    """The certificate of the copies of ``ground`` in ``elements``, which
    derives their maps."""
    return GallaiCertificate(ground, elements, enumerate_copies(ground, elements), 1, 3)


class TestEnumerateCopies:
    def test_pairs(self):
        copies = enumerate_copies(GroundSet.of([0, 1]), elems(1, 2, 3))
        assert copies == ((0, 1), (0, 2), (1, 2))

    def test_progressions_in_nine(self):
        cert = copies_of(GroundSet.of([0, 1, 2]), elems(*range(1, 10)))
        assert len(cert.copies) == 16
        assert Counter(m.scale for m in homotheties(cert)) == {F(1): 7, F(2): 5, F(3): 3, F(4): 1}

    def test_asymmetric_shape_single_copy(self):
        copies = enumerate_copies(GroundSet.of([0, 1, 3]), elems(0, 1, 2, 3))
        assert copies == ((0, 1, 3),)

    def test_witness_map_reproduces_image(self):
        cert = copies_of(GroundSet.of([0, 2, 3]), elems(*range(13)))
        for c, m in zip(cert.copies, homotheties(cert)):
            assert tuple(apply(m, t) for t in cert.ground.points) == tuple(cert.elements[p] for p in c)

    @pytest.mark.parametrize(
        "ground,universe",
        [
            ([0, 1], range(1, 7)),
            ([0, 1, 2], range(1, 10)),
            ([0, 2, 3, 7], range(0, 17)),
            ([F(1, 2), 1, F(3, 2)], [F(i, 2) for i in range(12)]),
        ],
    )
    def test_matches_ratio_oracle(self, ground, universe):
        gs = GroundSet.of(ground)
        xs = tuple(sorted(F(v) for v in universe))
        assert {tuple(xs[p] for p in c) for c in enumerate_copies(gs, xs)} == brute_copies(gs, xs)


@st.composite
def copy_instances(draw):
    """A ground set and an element set, each on its own rational lattice
    (so copies are frequent), plus a few off-lattice elements."""
    lattice = st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6)
    origin = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    g_unit, g_origin, x_unit, x_origin = draw(lattice), draw(origin), draw(lattice), draw(origin)
    ground = draw(st.lists(st.integers(-4, 6), min_size=2, max_size=5, unique=True))
    picks = draw(st.lists(st.integers(-10, 14), max_size=16, unique=True))
    extras = draw(st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=5), max_size=3))
    elements = {x_origin + x_unit * p for p in picks} | set(extras)
    return GroundSet.of([g_origin + g_unit * t for t in ground]), tuple(sorted(elements))


class TestEnumerateCopiesOracle:
    @settings(max_examples=400, deadline=None)
    @given(copy_instances())
    @example((GroundSet.of([0, 1]), ()))
    @example((GroundSet.of([0, 1, 3]), elems(5)))
    @example((GroundSet.of([F(-1, 2), F(1, 3)]), (F(-7, 3), F(-1, 4), F(2, 5))))
    @example((GroundSet.of([F(-3, 2), F(-1, 2), F(5, 2)]), tuple(F(v, 4) for v in range(-12, 12))))
    def test_matches_the_fraction_loop(self, instance):
        """The copies are the Fraction loop's images, in its order, as
        positions among the elements, and their derived maps are its maps."""
        ground, elements = instance
        cert = copies_of(ground, elements)
        want = fraction_copies(ground, elements)
        assert [tuple(elements[p] for p in c) for c in cert.copies] == [image for _, image in want]
        assert all(c == tuple(sorted(set(c))) for c in cert.copies)
        assert homotheties(cert) == [m for m, _ in want]


class TestCopyCycles:
    def test_three_pairs_form_triangle(self):
        copies = [(1, 2), (1, 3), (2, 3)]
        witness = find_copy_cycle(copies, 3)
        assert witness is not None
        assert len(witness.copies) == 3
        validate_cycle_witness(witness)

    def test_no_two_cycle_among_pairs(self):
        copies = [(1, 2), (1, 3), (2, 3)]
        assert find_copy_cycle(copies, 2) is None

    def test_single_copy_never_cycles(self):
        copies = [(1, 2)]
        assert find_copy_cycle(copies, 3) is None

    def test_two_cycle_needs_two_shared_elements(self):
        copies = enumerate_copies(GroundSet.of([0, 1, 2]), elems(1, 2, 3, 4))
        # {1,2,3} and {2,3,4} share elements 2 and 3, at positions 1 and 2
        witness = find_copy_cycle(copies, 2)
        assert witness is not None
        assert len(witness.copies) == 2 and sorted(witness.elements) == [1, 2]
        validate_cycle_witness(witness)

    def test_any_three_points_of_pairs_cycle(self):
        for universe in (elems(1, 2, 3), elems(0, 4, 9), elems(1, 2, 3, 4, 5)):
            copies = enumerate_copies(GroundSet.of([0, 1]), universe)
            assert find_copy_cycle(copies, 3) is not None

    def test_max_copies_below_two_rejected(self):
        with pytest.raises(ValueError):
            find_copy_cycle([(1, 2), (2, 3)], 1)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sets(st.integers(0, 12), min_size=2, max_size=4),
        st.sets(st.integers(-6, 30), max_size=14),
        st.integers(2, 4),
    )
    def test_matches_reference_search(self, ground, universe, max_copies):
        copies = enumerate_copies(GroundSet.of(ground), elems(*sorted(universe)))
        witness = find_copy_cycle(copies, max_copies)
        reference = reference_copy_cycle(copies, max_copies)
        assert (witness is None) == (reference is None)
        if witness is not None:
            validate_cycle_witness(witness)
            assert len(witness.copies) == len(reference[0]) <= max_copies

    def test_witness_validation_rejects_bad(self):
        copies = [(1, 2), (2, 3)]
        with pytest.raises(ValueError):
            validate_cycle_witness(
                CopyCycleWitness(tuple(copies), (2, 5))
            )


def make_cert(ground, universe, colors, girth):
    gs = GroundSet.of(ground)
    xs = elems(*universe)
    return GallaiCertificate(gs, xs, enumerate_copies(gs, xs), colors, girth)


class TestVerify:
    def test_pigeonhole_cert(self):
        report = verify_certificate(make_cert([0, 1], [1, 2, 3], 2, 8))
        assert report.all_true()

    def test_two_color_nine(self):
        report = verify_certificate(make_cert([0, 1, 2], range(1, 10), 2, 4))
        assert report.coloring_ok is True
        assert report.sparsity_ok and report.copies_complete

    def test_two_color_eight_counterexample(self):
        report = verify_certificate(make_cert([0, 1, 2], range(1, 9), 2, 4))
        assert report.coloring_ok is False
        # elements 1..8: classes {1,2,5,6} and {3,4,7,8}
        assert report.counterexample == (0, 0, 1, 1, 0, 0, 1, 1)

    def test_incomplete_copies_detected(self):
        cert = make_cert([0, 1, 2], range(1, 10), 2, 4)
        cert = GallaiCertificate(
            cert.ground, cert.elements, cert.copies[:-1], cert.colors, cert.girth
        )
        report = verify_certificate(cert)
        assert report.copies_complete is False

    @pytest.mark.parametrize("copy", [(0, 9, 18), (-1, 0, 1)])
    def test_copy_positions_out_of_range_refused(self, copy):
        cert = make_cert([0, 1, 2], range(1, 10), 2, 4)
        with pytest.raises(ValueError, match="copy positions escape the certificate elements"):
            GallaiCertificate(cert.ground, cert.elements, (*cert.copies, copy), cert.colors, cert.girth)

    def test_budget_exhaustion_distinct_from_false(self):
        report = verify_certificate(make_cert([0, 1, 2], range(1, 28), 3, 4), Budget(50))
        assert report.coloring_ok is None

    def test_refutation_matches_brute_force(self):
        for universe, colors in [
            (range(1, 9), 2),
            (range(1, 10), 2),
            (range(1, 12), 3),
            (range(1, 13), 2),
            ([0, 1, 2, 4, 8, 9], 2),
        ]:
            gs = GroundSet.of([0, 1, 2])
            xs = elems(*universe)
            idx = list(enumerate_copies(gs, xs))
            ours = find_avoiding_coloring(len(xs), colors, idx, Budget(10_000_000))
            brute = brute_coloring_search(len(xs), colors, idx)
            assert ours == brute

    @staticmethod
    def _run(search, n, colors, copies, budget):
        try:
            return search(n, colors, copies, budget), budget.used
        except BudgetExhausted as exc:
            return ("exhausted", exc.used, exc.limit), budget.used

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 16),
        colors=st.integers(0, 4),
        raw=st.lists(st.sets(st.integers(0, 15), min_size=2, max_size=6), max_size=30),
        spent=st.integers(0, 5),
        small=st.integers(0, 60),
        order=st.randoms(use_true_random=False),
    )
    def test_search_matches_the_rescanning_search_node_for_node(self, n, colors, raw, spent, small, order):
        """Keeping one alive bit per copy and color searches the same tree:
        the same coloring or refutation, the same nodes, and the same
        exhaustion point under a small budget.  Copies of two points have
        no inner member; the copy list may come in any order and repeat a
        copy."""
        members = ({i % n for i in c} for c in raw)
        copies = sorted({tuple(sorted(m)) for m in members if len(m) >= 2})
        shuffled = copies + copies[: len(copies) // 2]
        order.shuffle(shuffled)
        for listed in (copies, shuffled):
            for limit in (10_000_000, spent + small):
                ours = self._run(find_avoiding_coloring, n, colors, listed, Budget(limit, used=spent))
                reference = self._run(rescan_avoiding_coloring, n, colors, listed, Budget(limit, used=spent))
                assert ours == reference

    def test_search_matches_the_rescanning_search_on_wide_masks(self):
        # 3-APs of [200] at 3 colors: 9,900 copies, and the 2,504 opened by position 26 take 7,512 alive bits
        xs = elems(*range(1, 201))
        copies = list(enumerate_copies(GroundSet.of(range(3)), xs))
        ours = self._run(find_avoiding_coloring, 200, 3, copies, Budget(5_000))
        assert ours == self._run(rescan_avoiding_coloring, 200, 3, copies, Budget(5_000))
        assert ours == (("exhausted", 5_001, 5_000), 5_001)

    @pytest.mark.parametrize(
        "terms, n, colors, refuted, nodes",
        [(3, 27, 3, True, 112_547), (4, 35, 2, True, 10_175), (3, 26, 3, False, 11_912)],
        ids=["w33-refuted", "4ap35-refuted", "3ap26-colored"],
    )
    def test_search_matches_the_rescanning_search_at_real_scale(self, terms, n, colors, refuted, nodes):
        # W(3;3) = 27 and W(4;2) = 35: the trees the certificates pin
        xs = elems(*range(1, n + 1))
        copies = list(enumerate_copies(GroundSet.of(range(terms)), xs))
        ours = self._run(find_avoiding_coloring, n, colors, copies, Budget(10_000_000))
        assert ours == self._run(rescan_avoiding_coloring, n, colors, copies, Budget(10_000_000))
        result, used = ours
        assert used == nodes and (result is None) == refuted


class TestDerive:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sets(st.integers(0, 6), min_size=2, max_size=3),
        st.sets(st.integers(-4, 12), max_size=11),
        st.integers(1, 3),
        st.integers(3, 8),
        st.integers(1, 400),
    )
    def test_verify_reaches_the_derived_verdicts(self, ground, universe, colors, girth, nodes):
        cert = derive_certificate(GroundSet.of(ground), elems(*sorted(universe)), colors, girth, Budget(nodes))
        assert cert.copies == enumerate_copies(cert.ground, cert.elements)
        report = verify_certificate(cert, Budget(nodes))
        assert report.verdicts == cert.flags.verdicts
        assert report.copies_complete is True
        assert (report.counterexample, report.cycle, report.nodes) == (
            cert.flags.counterexample, cert.flags.cycle, cert.flags.nodes
        )
        if cert.copies:
            dropped = GallaiCertificate(cert.ground, cert.elements, cert.copies[1:], colors, girth)
            report = verify_certificate(dropped, Budget(nodes))
            assert report.verdicts == (cert.flags.coloring_ok, cert.flags.sparsity_ok, False)


@pytest.fixture
def copy_enumerations(monkeypatch):
    """The element counts of every ``enumerate_copies`` call."""
    calls = []
    original = gallai.enumerate_copies

    def counted(ground, elements):
        calls.append(len(elements))
        return original(ground, elements)

    monkeypatch.setattr(gallai, "enumerate_copies", counted)
    return calls


@pytest.mark.parametrize(
    "provide, ground, colors, girth, size",
    [
        (vdw_certificate, [0, 1, 2], 2, 4, 9),
        (vdw_certificate, [0, 1, 2], 3, 4, 27),
        (pigeonhole_certificate, [0, 1], 3, 6, 4),
    ],
)
def test_progression_certificate_enumerates_its_copies_once(copy_enumerations, provide, ground, colors, girth, size):
    assert provide(GroundSet.of(ground), colors, girth).flags.all_true()
    assert copy_enumerations == [size]


def test_gallai_check_enumerates_the_copies_once(copy_enumerations, tmp_path, capsys):
    # the reader tests each stored copy by itself, and the verifier enumerates them all
    path = tmp_path / "cert.json"
    save_certificate(path, vdw_certificate(GroundSet.of([F(1, 2), F(3, 2), F(5, 2)]), 2, 4))
    copy_enumerations.clear()
    assert load_certificate(path).copies and copy_enumerations == []
    assert main(["gallai", "check", str(path)]) == 0
    assert copy_enumerations == [9] and '"copies_complete": true' in capsys.readouterr().out


@settings(max_examples=200, deadline=None)
@given(copy_instances(), st.lists(st.integers(-1, 15), min_size=1, max_size=5))
@example((GroundSet.of([0, 1, 2]), elems(1, 2, 3)), [1, 1, 1])
def test_a_stored_copy_is_read_when_the_enumeration_holds_it(instance, positions):
    # the reader's test of one stored copy accepts exactly the enumerated copies
    ground, elements = instance
    held = enumerate_copies(ground, elements)
    doc = certificate_to_doc(GallaiCertificate(ground, elements, (), 1, 3))
    for copies in (held, (tuple(p if p < len(elements) else -1 for p in positions), *held)):
        doc["copies"] = [{"image": [format_rat(elements[p]) if p >= 0 else "-" for p in c]} for c in copies]
        if set(copies) <= set(held):
            assert certificate_from_doc(doc).copies == copies
        else:
            with pytest.raises(ValueError, match=re.escape("copies[0].image is ")):
                certificate_from_doc(doc)


class TestPigeonholeProvider:
    def test_two_colors(self):
        cert = pigeonhole_certificate(GroundSet.of([0, 1]), 2, 6)
        assert cert.elements == elems(1, 2, 3)
        assert len(cert.copies) == 3
        assert cert.flags.all_true()

    def test_three_colors(self):
        cert = pigeonhole_certificate(GroundSet.of([0, 1]), 3, 4)
        assert cert.elements == elems(1, 2, 3, 4)

    def test_refuses_large_girth(self):
        with pytest.raises(ProviderRefusal):
            pigeonhole_certificate(GroundSet.of([0, 1]), 2, 9)

    def test_refuses_large_ground_set(self):
        with pytest.raises(ProviderRefusal):
            pigeonhole_certificate(GroundSet.of([0, 1, 2]), 2, 6)

    @pytest.mark.parametrize("points", [[0, 1], [F(-5, 9), F(7, 3)]])
    def test_is_two_term_progression_case(self, points):
        ground = GroundSet.of(points)
        for colors in range(1, 9):
            for girth_param in range(3, 9):
                ours = certificate_to_doc(pigeonhole_certificate(ground, colors, girth_param))
                assert ours == certificate_to_doc(vdw_certificate(ground, colors, girth_param, length_hint=None))


class TestVdwProvider:
    def test_two_colors_three_terms(self):
        cert = vdw_certificate(GroundSet.of([0, 1, 2]), 2, 4)
        assert len(cert.elements) == 9
        assert cert.flags.all_true()

    def test_scaled_ground_set(self):
        cert = vdw_certificate(GroundSet.of([0, 2, 4]), 2, 4)
        assert len(cert.elements) == 9
        assert normalize_ground_set(cert.ground) == (0, 1, 2)

    def test_refuses_girth_nine(self):
        with pytest.raises(ProviderRefusal):
            vdw_certificate(GroundSet.of([0, 1, 2]), 2, 9)

    def test_refusal_spends_no_refutation(self):
        # the short copy cycle is found before any coloring search runs,
        # which would spend 112,547 nodes refuting W(3;3) for nothing
        budget = Budget()
        with pytest.raises(ProviderRefusal):
            vdw_certificate(GroundSet.of([0, 1, 2]), 3, 9, budget=budget)
        assert budget.used == 0

    def test_refuses_two_cycles_at_girth_six(self):
        # dense progression sets contain pairs of copies sharing two points
        with pytest.raises(ProviderRefusal):
            vdw_certificate(GroundSet.of([0, 1, 2]), 2, 6)

    def test_no_table_entry_without_hint(self):
        with pytest.raises(ProviderRefusal):
            vdw_certificate(GroundSet.of([0, 1, 2, 3]), 2, 4)

    def test_bad_hint_is_failure(self):
        with pytest.raises(ProviderFailure):
            vdw_certificate(GroundSet.of([0, 1, 2]), 2, 4, length_hint=8)

    def test_budget_gated_hint_flagged(self):
        cert = vdw_certificate(
            GroundSet.of([0, 10, 15, 20, 30]), 3, 4, length_hint=30, budget=Budget(25)
        )
        assert cert.flags.coloring_ok is None
        assert "unverified" in cert.flags.note

    def test_pair_ground_set_any_colors(self):
        cert = vdw_certificate(GroundSet.of([0, 1]), 4, 4)
        assert len(cert.elements) == 5


class TestSearchProvider:
    def test_finds_nine_for_progressions(self):
        cert = search_certificate(GroundSet.of([0, 1, 2]), 2, 4, Budget(10_000_000))
        assert cert.elements == elems(*range(1, 10))
        assert cert.flags.all_true()

    def test_matches_pigeonhole(self):
        cert = search_certificate(GroundSet.of([0, 1]), 2, 6, Budget(1_000_000))
        assert len(cert.elements) == 3

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExhausted):
            search_certificate(GroundSet.of([0, 1, 2]), 2, 9, Budget(2000))

    def test_one_budget_covers_the_search(self):
        # finding {1..9} spends 2,417 nodes, its own refutation included
        ground = GroundSet.of([0, 1, 2])
        with pytest.raises(BudgetExhausted):
            search_certificate(ground, 2, 4, Budget(2416))
        budget = Budget(2417)
        cert = search_certificate(ground, 2, 4, budget)
        assert cert.elements == elems(*range(1, 10)) and cert.flags.all_true()
        assert budget.used == 2417

    def test_enumerates_and_refutes_each_candidate_once(self, monkeypatch):
        # at girth 4 no cycle filter applies: every set with a copy is refuted
        with_copies, refutations = [], []
        enumerate_, refute = gallai.enumerate_copies, gallai.find_avoiding_coloring

        def counted_enumerate(ground, elements):
            copies = enumerate_(ground, elements)
            with_copies.append((elements, bool(copies)))
            return copies

        def counted_refute(*args):
            refutations.append(args[0])
            return refute(*args)

        monkeypatch.setattr(gallai, "enumerate_copies", counted_enumerate)
        monkeypatch.setattr(gallai, "find_avoiding_coloring", counted_refute)
        cert = search_certificate(GroundSet.of([0, 1, 2]), 2, 4, Budget(10_000))
        assert len({xs for xs, _ in with_copies}) == len(with_copies)
        assert len(refutations) == sum(found for _, found in with_copies)
        assert with_copies[-1][0] == cert.elements == elems(*range(1, 10))

    def test_searches_each_copy_cycle_once(self, monkeypatch):
        # at girth 6 a candidate with two or more copies may hold a 2-copy
        # cycle: the search looks for it once, and a survivor's verdicts reuse that
        several, searched = [], []
        enumerate_, find = gallai.enumerate_copies, gallai.find_copy_cycle

        def counted_enumerate(ground, elements):
            copies = enumerate_(ground, elements)
            if len(copies) >= 2:
                several.append(copies)
            return copies

        def counted_find(copies, max_copies):
            searched.append(copies)
            return find(copies, max_copies)

        monkeypatch.setattr(gallai, "enumerate_copies", counted_enumerate)
        monkeypatch.setattr(gallai, "find_copy_cycle", counted_find)
        with pytest.raises(BudgetExhausted):
            search_certificate(GroundSet.of([0, 1, 3]), 2, 6, Budget(2000))
        assert len(several) > 100
        assert searched == several

    def test_refuses_pairs_at_girth_nine(self):
        with pytest.raises(ProviderRefusal, match="two-point ground sets"):
            search_certificate(GroundSet.of([0, 1]), 2, 9, Budget(1000))

    def test_single_color(self):
        cert = search_certificate(GroundSet.of([0, 1, 2]), 1, 4, Budget(100_000))
        assert len(cert.copies) >= 1
        assert cert.flags.all_true()


class TestGirthNine:
    """Girth >= 9 forbids copy 3-cycles; the progression providers get
    that verdict from the derivation (the search's two-point lemma at
    k >= 2 is in TestSearchProvider)."""

    @pytest.mark.parametrize("name", ["auto", "pigeonhole", "vdw", "search"])
    def test_single_color_pair_has_one_copy(self, name):
        cert = make_certificate(ProviderPolicy(name), GroundSet.of([0, 1]), 1, 9)
        assert cert.elements == elems(1, 2) and len(cert.copies) == 1
        assert cert.flags.all_true()
        assert verify_certificate(cert).verdicts == (True, True, True)

    @pytest.mark.parametrize("name", ["auto", "pigeonhole", "vdw"])
    def test_progression_refusal_names_the_witness(self, name):
        with pytest.raises(ProviderRefusal, match="short copy cycle.*witness uses 3 copies"):
            make_certificate(ProviderPolicy(name), GroundSet.of([0, 1]), 2, 9)


def _outcome(policy, ground, colors, girth):
    """The certificate document a policy yields, or its refusal message."""
    try:
        return certificate_to_doc(make_certificate(policy, GroundSet.of(ground), colors, girth))
    except ProviderRefusal as exc:
        return f"refused: {exc}"


class TestAutoProvider:
    @pytest.mark.parametrize(
        "ground, colors, girth, hint, budget, named",
        [
            ([0, 1], 3, 6, None, 2_000_000, "pigeonhole"),
            ([F(-5, 9), F(7, 3)], 2, 9, None, 2_000_000, "pigeonhole"),
            ([0, 1], 8, 6, None, 3, "pigeonhole"),
            ([0, 1, 2], 2, 4, None, 2_000_000, "vdw"),
            ([0, 1, 2], 2, 6, None, 2_000_000, "vdw"),
            ([0, 1, 2, 3, 4], 3, 4, None, 2_000_000, "vdw"),
            ([0, 10, 15, 20, 30], 3, 4, 30, 25, "vdw"),
        ],
    )
    def test_same_as_named_provider_and_never_searches(self, monkeypatch, ground, colors, girth, hint, budget, named):
        def no_search(*args, **kwargs):
            raise AssertionError("auto reached the explicit search")

        monkeypatch.setattr(gallai, "search_certificate", no_search)
        auto = _outcome(ProviderPolicy("auto", hint, budget), ground, colors, girth)
        assert auto == _outcome(ProviderPolicy(named, hint, budget), ground, colors, girth)


class TestCertificateDocs:
    def test_roundtrip(self):
        cert = pigeonhole_certificate(GroundSet.of([0, 1]), 2, 6)
        doc = certificate_to_doc(cert)
        again = certificate_from_doc(doc)
        assert again.ground == cert.ground
        assert again.elements == cert.elements
        assert again.copies == cert.copies
        assert again.flags.all_true()

    @pytest.mark.parametrize(
        "ground, universe",
        [([0, 1], [F(k, 4) for k in range(-5, 6)]), ([F(-1, 3), F(1, 6), F(2, 3)], [F(k, 6) for k in range(-7, 12)]),
         ([F(1, 2), F(7, 2)], [F(k, 3) for k in range(-4, 20)])],
    )
    def test_copy_maps_written_as_their_rationals(self, ground, universe):
        # the writer formats the integers of map_ratios(); negative shifts and every denominator included
        cert = copies_of(GroundSet.of(ground), tuple(universe))
        written = [(c["scale"], c["shift"]) for c in certificate_to_doc(cert)["copies"]]
        assert written == [(str(m.scale), str(m.shift)) for m in homotheties(cert)]
        assert any("/" in t and t.startswith("-") for _, t in written)

    def test_rationals_as_strings(self):
        cert = pigeonhole_certificate(GroundSet.of([F(1, 2), F(3, 2)]), 2, 6)
        doc = certificate_to_doc(cert)
        assert doc["ground_set"] == ["1/2", "3/2"]
