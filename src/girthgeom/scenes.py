"""Scene and certificate files: JSON documents with every rational as a
"p/q" string (plain "p" for integers).

Documents are written with sorted keys and a fixed layout so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
from functools import partial
from pathlib import Path

from .boxes import BoxFamily, box_from_doc
from .errors import SceneFormatError
from .gallai import GallaiCertificate, certificate_from_doc
from .geometry import format_rat, rat
from .lines import LineFamily, ShiftSystem, line_from_doc, line_to_doc, shift_line


def dumps_doc(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_doc(path, doc: dict) -> None:
    """Write ``doc`` to ``path``, creating missing parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_doc(doc))


def read_doc(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise SceneFormatError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"not valid JSON: {path}: {exc}") from exc


def _parse(kind: str, doc, read):
    """``read(doc)``, with a malformed field reported as a SceneFormatError
    that names the document kind."""
    try:
        return read(doc)
    except (KeyError, IndexError, AttributeError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise SceneFormatError(f"bad {kind} document: {exc}") from exc


# ---------------------------------------------------------------------------
# scene documents


def _family_to_doc(kind: str, key: str, fam) -> dict:
    return {
        "kind": kind,
        "g": fam.claimed_girth,
        "k": fam.claimed_chromatic,
        key: fam.labels(),
        "provenance": fam.provenance,
    }


def _read_family(family, key: str, read_object, doc: dict):
    objects = tuple(read_object(o) for o in doc[key])
    g = doc.get("g")
    return family(objects, None if g is None else int(g), int(doc["k"]), doc.get("provenance", {}))


def _shift_system_to_doc(system: ShiftSystem) -> dict:
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


def _read_shift_system(doc: dict) -> ShiftSystem:
    values = tuple(rat(v) for v in doc["values"])
    triples = tuple(tuple(rat(x) for x in entry["triple"]) for entry in doc["lines"])
    lines = tuple(line_from_doc(entry) for entry in doc["lines"])
    for t, l in zip(triples, lines):
        if shift_line(*t) != l:
            raise SceneFormatError(f"stored line does not match its triple {t}")
    if triples != tuple(itertools.combinations(values, 3)):
        raise SceneFormatError("shift-system triples are not the ascending triples of its values, in order")
    return ShiftSystem(values, triples, lines, doc.get("provenance", {}))


# scene kind -> (class, writer, reader)
_SCENES = {
    "grounded-box-family": (
        BoxFamily,
        partial(_family_to_doc, "grounded-box-family", "boxes"),
        partial(_read_family, BoxFamily, "boxes", box_from_doc),
    ),
    "line-family": (
        LineFamily,
        partial(_family_to_doc, "line-family", "lines"),
        partial(_read_family, LineFamily, "lines", line_from_doc),
    ),
    "shift-system": (ShiftSystem, _shift_system_to_doc, _read_shift_system),
}


def scene_to_doc(obj) -> dict:
    for scene_class, to_doc, _ in _SCENES.values():
        if isinstance(obj, scene_class):
            return to_doc(obj)
    raise TypeError(f"not a scene object: {type(obj).__name__}")


def scene_from_doc(doc: dict):
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in _SCENES:
        raise SceneFormatError(f"unknown scene kind: {kind!r}")
    return _parse(kind, doc, _SCENES[kind][2])


def save_scene(path, obj) -> None:
    write_doc(path, scene_to_doc(obj))


def load_scene(path):
    return scene_from_doc(read_doc(path))


# ---------------------------------------------------------------------------
# certificate files


def load_certificate(path) -> GallaiCertificate:
    return _parse("certificate", read_doc(path), certificate_from_doc)
