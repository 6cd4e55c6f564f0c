"""Scene and certificate files: JSON documents with every rational as a
"p/q" string (plain "p" for integers).

Documents are written with sorted keys and a fixed layout so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .boxes import BoxFamily, box_from_doc, box_to_doc
from .errors import SceneFormatError
from .gallai import GallaiCertificate, certificate_from_doc, certificate_to_doc
from .geometry import format_rat, rat
from .lines import LineFamily, ShiftSystem, line_from_doc, line_to_doc, shift_line


def dumps_doc(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_doc(path, doc: dict) -> None:
    Path(path).write_text(dumps_doc(doc))


def read_doc(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise SceneFormatError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"not valid JSON: {path}: {exc}") from exc


def _claim(value):
    return None if value is None else int(value)


# ---------------------------------------------------------------------------
# scene documents


def box_family_to_doc(fam: BoxFamily) -> dict:
    return {
        "kind": "grounded-box-family",
        "g": fam.claimed_girth,
        "k": fam.claimed_chromatic,
        "boxes": [box_to_doc(b) for b in fam.boxes],
        "provenance": fam.provenance,
    }


def box_family_from_doc(doc: dict) -> BoxFamily:
    try:
        boxes = tuple(box_from_doc(b) for b in doc["boxes"])
        return BoxFamily(boxes, _claim(doc.get("g")), int(doc["k"]), doc.get("provenance", {}))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise SceneFormatError(f"bad grounded-box-family document: {exc}") from exc


def line_family_to_doc(fam: LineFamily) -> dict:
    return {
        "kind": "line-family",
        "g": fam.claimed_girth,
        "k": fam.claimed_chromatic,
        "lines": [line_to_doc(l) for l in fam.lines],
        "provenance": fam.provenance,
    }


def line_family_from_doc(doc: dict) -> LineFamily:
    try:
        lines = tuple(line_from_doc(l) for l in doc["lines"])
        return LineFamily(lines, _claim(doc.get("g")), int(doc["k"]), doc.get("provenance", {}))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise SceneFormatError(f"bad line-family document: {exc}") from exc


def shift_system_to_doc(system: ShiftSystem) -> dict:
    return {
        "kind": "shift-system",
        "n": len(system.values),
        "values": [format_rat(v) for v in system.values],
        "lines": [
            {"triple": [format_rat(a), format_rat(b), format_rat(c)], **line_to_doc(l)}
            for (a, b, c), l in zip(system.triples, system.lines)
        ],
        "provenance": system.provenance,
    }


def shift_system_from_doc(doc: dict) -> ShiftSystem:
    try:
        values = tuple(rat(v) for v in doc["values"])
        triples = tuple(tuple(rat(x) for x in entry["triple"]) for entry in doc["lines"])
        lines = tuple(line_from_doc(entry) for entry in doc["lines"])
        for t, l in zip(triples, lines):
            if shift_line(*t) != l:
                raise SceneFormatError(f"stored line does not match its triple {t}")
        return ShiftSystem(values, triples, lines, doc.get("provenance", {}))
    except SceneFormatError:
        raise
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise SceneFormatError(f"bad shift-system document: {exc}") from exc


def scene_to_doc(obj) -> dict:
    if isinstance(obj, BoxFamily):
        return box_family_to_doc(obj)
    if isinstance(obj, LineFamily):
        return line_family_to_doc(obj)
    if isinstance(obj, ShiftSystem):
        return shift_system_to_doc(obj)
    raise TypeError(f"not a scene object: {type(obj).__name__}")


def scene_from_doc(doc: dict):
    kind = doc.get("kind")
    if kind == "grounded-box-family":
        return box_family_from_doc(doc)
    if kind == "line-family":
        return line_family_from_doc(doc)
    if kind == "shift-system":
        return shift_system_from_doc(doc)
    raise SceneFormatError(f"unknown scene kind: {kind!r}")


def save_scene(path, obj) -> None:
    write_doc(path, scene_to_doc(obj))


def load_scene(path):
    return scene_from_doc(read_doc(path))


# ---------------------------------------------------------------------------
# certificate files


def save_certificate(path, cert: GallaiCertificate) -> None:
    write_doc(path, certificate_to_doc(cert))


def load_certificate(path) -> GallaiCertificate:
    try:
        return certificate_from_doc(read_doc(path))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise SceneFormatError(f"bad certificate document: {exc}") from exc
