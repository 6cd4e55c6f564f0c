import json

import pytest

from girthgeom import (
    build_shift_system,
    meeting_pair_family,
    meeting_pair_lines,
    odd_cycle_boxes,
    odd_cycle_lines,
    recursion_step_boxes,
    recursion_step_lines,
)
from girthgeom.errors import SceneFormatError
from girthgeom.gallai import pigeonhole_certificate
from girthgeom.scenes import (
    dumps_doc,
    load_certificate,
    load_scene,
    save_scene,
    scene_from_doc,
    scene_to_doc,
)

from _oracles import save_certificate


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
