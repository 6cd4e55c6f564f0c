"""Scene and certificate files: JSON documents with every rational as a
"p/q" string (plain "p" for integers).

Documents are written with sorted keys and a fixed layout so identical
inputs produce byte-identical files.  A document loads only if the writer
gives it back from the object it makes, value for value (``_load``).
"""

from __future__ import annotations

import itertools
import json
from functools import cache, partial
from pathlib import Path

from .boxes import BoxFamily, box_from_doc
from .errors import SceneFormatError
from .gallai import GallaiCertificate, certificate_from_doc, certificate_to_doc
from .geometry import format_rat, rat
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


def _parse(kind: str, doc, read):
    """``read(doc)``, with a malformed field reported as a SceneFormatError
    that names the document kind and, for a missing key, the key."""
    try:
        return read(doc)
    except (KeyError, IndexError, AttributeError, ValueError, TypeError, ArithmeticError) as exc:
        detail = f"{exc.args[0]} is missing" if type(exc) is KeyError else exc
        raise SceneFormatError(f"bad {kind} document: {detail}") from exc


_ABSENT = object()


def _difference(stored, written, path: str = "") -> str | None:
    """Where ``stored`` first differs from ``written``, in sorted key and
    list order, or None.  A scalar must have the writer's type too, since
    ``6.0 == 6`` and ``True == 1``; equal lists pass on ``==``, because the
    writer puts only strings and dicts of strings in lists, and
    ``provenance``, which it copies verbatim, is the stored object itself."""
    same_type = type(stored) is type(written)
    if stored is written or same_type and type(written) is not dict and stored == written:
        return None
    if same_type and type(written) is dict:
        keys = sorted(stored.keys() | written.keys())
        steps = ((f"{path}.{k}" if path else k, stored.get(k, _ABSENT), written.get(k, _ABSENT)) for k in keys)
    elif same_type and type(written) is list:
        pairs = itertools.zip_longest(stored, written, fillvalue=_ABSENT)
        steps = ((f"{path}[{i}]", a, b) for i, (a, b) in enumerate(pairs))
    else:
        shown = "missing" if stored is _ABSENT else repr(stored)
        return f"{path} is {shown}, its writer writes {'nothing' if written is _ABSENT else repr(written)}"
    return next(filter(None, (_difference(a, b, where) for where, a, b in steps)), None)


def _load(kind: str, doc, read, write):
    """The object ``read`` makes of ``doc``, accepted only if ``write``
    gives back the same document: layout, whitespace and key order are
    free, every value is the writer's own.  ``read`` parses each distinct
    rational of the document once."""
    obj = _parse(kind, doc, lambda d: read(d, cache(rat)))
    found = _difference(doc, write(obj))
    if found:
        raise SceneFormatError(f"bad {kind} document: {found}")
    return obj


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
    g, k = None if doc["g"] is None else int(doc["g"]), int(doc["k"])
    if k < 1 or g is not None and g < 3:
        raise ValueError(f"k must be an integer >= 1 and g one >= 3 or null, got g={doc['g']!r}, k={doc['k']!r}")
    return family(objects, g, k, doc["provenance"])


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
    return ShiftSystem(tuple(map(read, doc["values"])), doc["provenance"])


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
    if not isinstance(kind, str) or kind not in _SCENES:
        raise SceneFormatError(f"bad scene document: unknown kind {kind!r}")
    _, write, read = _SCENES[kind]
    return _load(kind, doc, read, write)


def save_scene(path, obj) -> None:
    write_doc(path, scene_to_doc(obj))


def load_scene(path):
    return scene_from_doc(read_doc(path))


# ---------------------------------------------------------------------------
# certificate files


def load_certificate(path) -> GallaiCertificate:
    return _load("certificate", read_doc(path), certificate_from_doc, certificate_to_doc)
