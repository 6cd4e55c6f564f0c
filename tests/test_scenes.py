import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from girthgeom import (
    BoxFamily,
    LineFamily,
    ShiftSystem,
    build_shift_system,
    meeting_pair_family,
    meeting_pair_lines,
    odd_cycle_boxes,
    odd_cycle_lines,
    recursion_step_boxes,
    recursion_step_lines,
    single_box_family,
)
from girthgeom import lines as linemod
from girthgeom import scenes
from girthgeom.errors import SceneFormatError
from girthgeom.gallai import pigeonhole_certificate, vdw_certificate
from girthgeom import geometry
from girthgeom.geometry import _ratio, rat
from girthgeom.scenes import (
    dumps_doc,
    load_certificate,
    load_scene,
    save_scene,
    scene_from_doc,
    scene_to_doc,
)

from _oracles import box_from_doc, line_from_doc, save_certificate, stdlib_dumps_doc


def provider(ground, colors, girth):
    return pigeonhole_certificate(ground, colors, girth)


class TestBoxScenes:
    def test_roundtrip_base(self):
        fam = odd_cycle_boxes(5)
        again = scene_from_doc(scene_to_doc(fam))
        assert again.boxes == fam.boxes
        assert again.claimed_girth == 5 and again.claimed_chromatic == 3

    def test_roundtrip_recursion(self):
        fam = recursion_step_boxes(meeting_pair_family(), 2, 6, provider)
        doc = scene_to_doc(fam)
        again = scene_from_doc(doc)
        assert again.boxes == fam.boxes
        assert again.provenance == fam.provenance

    def test_rationals_serialized_as_strings(self):
        fam = recursion_step_boxes(meeting_pair_family(), 2, 6, provider)
        doc = scene_to_doc(fam)
        assert doc["boxes"][0]["x"] == ["1", "4/3"]

    def test_invalid_box_rejected(self):
        doc = scene_to_doc(odd_cycle_boxes(5))
        doc["boxes"][0]["x"] = ["0", "1"]  # breaks the square invariant
        with pytest.raises(SceneFormatError):
            scene_from_doc(doc)


class TestLineScenes:
    def test_roundtrip(self):
        fam = recursion_step_lines(meeting_pair_lines(), 2, 6, provider)
        again = scene_from_doc(scene_to_doc(fam))
        assert again.lines == fam.lines

    def test_odd_cycle_roundtrip(self):
        fam = odd_cycle_lines(7)
        again = scene_from_doc(scene_to_doc(fam))
        assert again.lines == fam.lines


class TestShiftScenes:
    def test_roundtrip(self):
        system = build_shift_system(5, seed=3)
        again = scene_from_doc(scene_to_doc(system))
        assert again.values == system.values
        assert again.triples == system.triples
        assert again.lines == system.lines

    def test_tampered_line_rejected(self):
        system = build_shift_system(4, seed=0)
        doc = scene_to_doc(system)
        doc["lines"][0]["base"] = ["0", "0", "0"]
        with pytest.raises(SceneFormatError):
            scene_from_doc(doc)

    def test_load_compares_strings_and_makes_rows_once(self, monkeypatch):
        doc = json.loads(dumps_doc(scene_to_doc(build_shift_system(6, seed=1))))
        calls = []
        monkeypatch.setattr(scenes, "_entries", lambda *a: calls.append("entries"))
        original = linemod._shift_grid
        monkeypatch.setattr(linemod, "_shift_grid", lambda values: calls.append("rows") or original(values))
        assert scene_to_doc(scene_from_doc(doc)) == doc
        assert calls == ["rows"]


class TestSceneFiles:
    def test_save_load(self, tmp_path):
        fam = odd_cycle_boxes(5)
        path = tmp_path / "scene.json"
        save_scene(path, fam)
        again = load_scene(path)
        assert again.boxes == fam.boxes

    def test_unknown_kind(self):
        with pytest.raises(SceneFormatError):
            scene_from_doc({"kind": "mystery"})

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SceneFormatError):
            load_scene(path)

    def test_deterministic_bytes(self):
        fam = odd_cycle_boxes(5)
        assert dumps_doc(scene_to_doc(fam)) == dumps_doc(scene_to_doc(odd_cycle_boxes(5)))


# strings that need escaping or are not ASCII, besides whatever text draws
_strings = st.text() | st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", "é", "\u2028", "😀", "\ud800", "1/3"])
_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200)
            | st.floats(allow_nan=True, allow_infinity=True) | _strings)
_documents = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_strings, inner, max_size=4),
    max_leaves=40,
)


# keys that a template must escape or encode, over which dicts share key sets often
_KEYS = ["a", "%s", "%", 'q"%d', "é", "\u2028"]
_cells = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.sampled_from(["x", "%s", '"', "é", "😀", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
    | st.fixed_dictionaries({}, optional=dict.fromkeys(_KEYS, inner)).flatmap(
        lambda d: st.sampled_from([d, dict(reversed(d.items()))])),
    max_leaves=30,
)
_tables = st.lists(_cells, min_size=2, max_size=12)
# one of each kind of sibling; the writer is also tried on 1,000 of them interleaved
_MIXED = [None, True, False, 2.5, -7, "s", [], {}, {"x": 1, "y": ["a"]}, {"%s": None}, [1, "2"], [[3], {}, 4.0]]


class TestWriter:
    """``dumps_doc`` writes what the standard library's indented encoder
    writes (``stdlib_dumps_doc``), byte for byte; every document the suite
    writes is compared with it as well (``conftest.py``)."""

    @settings(max_examples=300, deadline=None)
    @given(_documents)
    def test_matches_the_stdlib_encoder(self, doc):
        assert dumps_doc(doc) == stdlib_dumps_doc(doc)

    @pytest.mark.parametrize(
        "doc", [{}, [], {"a": {}, "b": [], "c": [[]], "d": [{}]}, (), {"t": (1, ("x",))}, [[[[1]]]], "", 0, None],
    )
    def test_empty_and_nested_containers(self, doc):
        assert dumps_doc(doc) == stdlib_dumps_doc(doc)

    @pytest.mark.parametrize(
        "make",
        [lambda: recursion_step_boxes(odd_cycle_boxes(5), 1, 4, lambda g, k, gi: vdw_certificate(g, k, gi, 100)),
         lambda: recursion_step_lines(meeting_pair_lines(), 2, 4, lambda g, k, gi: vdw_certificate(g, k, gi, 25)),
         lambda: build_shift_system(9, seed=2)],
        ids=["box-step", "line-step", "shift"],
    )
    def test_scene_and_labels(self, make):
        obj = make()
        for doc in (scene_to_doc(obj), {"labels": obj.labels()}):
            assert dumps_doc(doc) == stdlib_dumps_doc(doc)

    @settings(max_examples=300, deadline=None)
    @given(_tables)
    @example([{"a": [[1, 2], [3], [], [4, 5], (6, 7), ()],
               "%s": [{"x": 1}, {"y": 2}, {"y": 3, "x": 4}, {}, {"x": 5, "y": 6}],
               'q"%d': [True, None, 1.5, 2, "é", '"']},
              {"%s": 0, 'q"%d': "😀", "a": {}}])
    @example([_MIXED[i % len(_MIXED)] for i in range(1000)])
    def test_siblings_of_one_shape_and_of_several_match_the_stdlib_encoder(self, doc):
        # the writer fills one template for a depth of one shape and writes a
        # depth of several value by value, so siblings share shapes here:
        # dicts over a few key sets in either key order, lists and tuples of
        # a few lengths, among scalars of every kind
        assert dumps_doc(doc) == stdlib_dumps_doc(doc)


class TestProvenanceIntegers:
    @pytest.mark.parametrize(
        "where, value, message",
        [
            (("blocks", "ground", 0), 0.0, "provenance.blocks.ground[0] is 0.0, its writer writes 0"),
            (("blocks", "copies", 1, 0), True, "provenance.blocks.copies[1][0] is True, its writer writes 5"),
            (("blocks", "copies", 1), 5, "provenance.blocks.copies[1] is 5, its writer writes [5, 6]"),
            (("parent_edges", 0, 1), "1", "provenance.parent_edges[0][1] is '1', its writer writes 1"),
        ],
    )
    def test_an_integer_of_another_type_is_named(self, where, value, message):
        # blocks and parent edges are not read but derived, and compared
        # with the writer's integers by type as well as by value
        doc = scene_to_doc(recursion_step_boxes(meeting_pair_family(), 2, 6, provider))
        node = doc["provenance"]
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        with pytest.raises(SceneFormatError, match=re.escape(message)):
            scene_from_doc(doc)


class TestCertificateFiles:
    def test_save_load(self, tmp_path):
        from girthgeom.gallai import GroundSet

        cert = pigeonhole_certificate(GroundSet.of([0, 1]), 2, 6)
        path = tmp_path / "cert.json"
        save_certificate(path, cert)
        again = load_certificate(path)
        assert again.elements == cert.elements
        assert again.copies == cert.copies

    def test_bad_certificate(self, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({"kind": "gallai-certificate", "ground_set": ["0"]}))
        with pytest.raises(SceneFormatError):
            load_certificate(path)


def _per_call_scene(doc):
    """The scene of a document with every rational parsed by its own
    ``rat`` call: the reference for the per-document reader."""
    if doc["kind"] == "shift-system":
        provenance = scenes._read_provenance(doc["provenance"], rat, "shift")
        system = ShiftSystem(tuple(rat(v) for v in doc["values"]), provenance)
        assert tuple(tuple(rat(x) for x in entry["triple"]) for entry in doc["lines"]) == system.triples
        assert tuple(line_from_doc(entry) for entry in doc["lines"]) == system.lines
        return system
    family, key, read = (BoxFamily, "boxes", box_from_doc) if "boxes" in doc else (LineFamily, "lines", line_from_doc)
    provenance = scenes._read_provenance(doc["provenance"], rat, key)
    return family(tuple(read(o) for o in doc[key]), doc["g"], doc["k"], provenance)


def _rational_strings(node):
    """Every string in a document that reads as a rational, but for a
    certificate's copies: their images are read as positions among its
    elements, and their scales and shifts only compared with the writer's."""
    if isinstance(node, dict):
        node = [v for k, v in node.items() if not (k == "copies" and node.get("kind") == "gallai-certificate")]
    if isinstance(node, list):
        for child in node:
            yield from _rational_strings(child)
    elif isinstance(node, str):
        try:
            rat(node)
        except ValueError:
            return
        yield node


def _assert_parsed_once(monkeypatch, doc, key, names):
    """Loading ``doc`` twice parses every rational string of its provenance
    once per load, and puts the objects' entries, repeated ones included,
    on the grid by splitting them into integers, with no Fraction made of
    any of them."""
    strings = [v for obj in doc[key] for name in names for v in obj[name]]
    rationals = set(_rational_strings(doc["provenance"]))
    parsed, split = [], []
    monkeypatch.setattr(scenes, "rat", lambda v: parsed.append(v) or rat(v))
    monkeypatch.setattr(geometry, "_ratio", lambda v, read: split.append(v) or _ratio(v, read))
    scene_from_doc(doc)
    assert sorted(parsed) == sorted(rationals) and len(strings) > len(set(strings))
    assert {v for v in split if type(v) is str} == set(strings)
    scene_from_doc(doc)  # no cache outlives its document
    assert len(parsed) == 2 * len(rationals)


class TestPerDocumentParsing:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: recursion_step_boxes(odd_cycle_boxes(5), 1, 4, lambda g, k, gi: vdw_certificate(g, k, gi, 30)),
            single_box_family,
            lambda: recursion_step_lines(meeting_pair_lines(), 2, 6, provider),
            lambda: build_shift_system(6, seed=1),
        ],
        ids=["box-step", "single-box", "line-step", "shift"],
    )
    def test_scene_equals_per_call_parsing(self, make):
        doc = json.loads(dumps_doc(scene_to_doc(make())))
        assert scene_from_doc(doc) == _per_call_scene(doc)

    def test_certificate_equals_per_call_parsing(self, tmp_path):
        from girthgeom.gallai import GroundSet, certificate_from_doc

        cert = vdw_certificate(GroundSet.of([F(-1, 2), F(1, 3), F(7, 6)]), 2, 4)
        path = tmp_path / "cert.json"
        save_certificate(path, cert)
        assert load_certificate(path) == certificate_from_doc(json.loads(path.read_text()))

    def test_each_distinct_string_is_parsed_once_per_document(self, monkeypatch):
        doc = scene_to_doc(recursion_step_boxes(meeting_pair_family(), 2, 6, provider))
        _assert_parsed_once(monkeypatch, doc, "boxes", "xyz")

    def test_each_distinct_line_string_is_parsed_once_per_document(self, monkeypatch):
        doc = scene_to_doc(recursion_step_lines(meeting_pair_lines(), 2, 6, provider))
        _assert_parsed_once(monkeypatch, doc, "lines", ("base", "dir"))

    def test_line_reader_makes_no_line_object(self, monkeypatch):
        # the reader puts the strings on the grid, and the compare writes from it
        doc = scene_to_doc(recursion_step_lines(meeting_pair_lines(), 2, 4, lambda g, k, gi: vdw_certificate(g, k, gi, 12)))

        def refuse(*args):
            raise AssertionError("the line reader made a line object")

        for name in ("Line3", "Point3", "Dir3"):
            monkeypatch.setattr(linemod, name, refuse)
        assert scene_to_doc(scene_from_doc(doc)) == doc
