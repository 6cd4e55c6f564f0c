"""Scene and certificate files: JSON documents with every rational as a
"p/q" string (plain "p" for integers).

Documents are written with sorted keys and a fixed layout so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

from .boxes import BoxFamily, box_from_doc
from .errors import SceneFormatError
from .gallai import GallaiCertificate, certificate_from_doc
from .geometry import Rat, format_rat, rat
from .lines import LineFamily, ShiftSystem, line_from_doc, line_to_doc


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


class _Rationals(dict):
    """The rationals of one document: each distinct string is parsed once,
    by ``rat`` like any other value."""

    def __missing__(self, text: str) -> Rat:
        self[text] = rat(text)
        return self[text]

    def __call__(self, value) -> Rat:
        return self[value] if isinstance(value, str) else rat(value)


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


def _read_family(family, key: str, read_object, doc: dict, read):
    objects = tuple(read_object(o, read) for o in doc[key])
    g, k = doc.get("g"), doc["k"]
    if type(k) is not int or k < 1 or not (g is None or type(g) is int and g >= 3):
        raise ValueError(f"k must be an integer >= 1 and g one >= 3 or null, got g={g!r}, k={k!r}")
    return family(objects, g, k, doc.get("provenance", {}))


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


def _read_shift_system(doc: dict, read) -> ShiftSystem:
    """The system of the stored values, accepted only if the document is
    the one its writer makes, string for string: the triples, then each
    line entry, then every other field."""
    system = ShiftSystem(tuple(map(read, doc["values"])), doc["provenance"])
    written = _shift_system_to_doc(system)
    if [entry["triple"] for entry in doc["lines"]] != [entry["triple"] for entry in written["lines"]]:
        raise SceneFormatError("shift-system triples are not the ascending triples of its values, in order")
    for t, entry, expected in zip(system.triples, doc["lines"], written["lines"]):
        if entry != expected:
            raise SceneFormatError(f"stored line does not match its triple {t}")
    for key in sorted(doc.keys() | written.keys()):
        if doc.get(key) != written.get(key):
            raise SceneFormatError(f"shift-system field {key!r} is not the one its values give")
    return system


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
    read = _SCENES[kind][2]
    return _parse(kind, doc, lambda d: read(d, _Rationals()))


def save_scene(path, obj) -> None:
    write_doc(path, scene_to_doc(obj))


def load_scene(path):
    return scene_from_doc(read_doc(path))


# ---------------------------------------------------------------------------
# certificate files


def load_certificate(path) -> GallaiCertificate:
    return _parse("certificate", read_doc(path), lambda d: certificate_from_doc(d, _Rationals()))
