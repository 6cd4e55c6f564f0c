"""Scene and certificate files: JSON documents with every rational as a
"p/q" string (plain "p" for integers).

Documents are written with sorted keys and a fixed layout so identical
inputs produce byte-identical files.  A document loads only if the writer
gives it back from the object it makes, value for value (``_load``).
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii as _string
from fractions import Fraction
from functools import cache, partial
from operator import itemgetter
from pathlib import Path

from .boxes import BoxFamily
from .errors import SceneFormatError
from .gallai import GallaiCertificate, certificate_from_doc, certificate_to_doc
from .geometry import format_rat, rat
from .lines import LineFamily, ShiftSystem
from .recursion import BASE_CHECKS, base_graph, block_layout, level_faults, parent_edges


def dumps_doc(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` and a newline, written one depth at a time (``_texts``)."""
    return _texts([doc], "\n")[0] + "\n"


def _texts(values: list, newline: str) -> list[str]:
    """The indented texts of ``values``, all at one depth of a document of
    plain dicts, lists and scalars, where ``newline`` and the indent of
    that depth start a line.  Strings or integers alone are encoded by one
    ``map``; dicts of one key order, or non-empty lists of one length, fill
    one ``%`` template (``_fill``).  A depth of several shapes is written
    value by value, and an empty container or other scalar by ``json.dumps``."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(_string, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    shapes = set(map(tuple, values)) if kinds == {dict} else set(map(len, values)) if kinds <= {list, tuple} else ()
    if len(shapes) == 1 and (shape := shapes.pop()):
        return _fill(values, shape, newline)
    if len(values) == 1:
        return [json.dumps(values[0])]
    return [_texts([value], newline)[0] for value in values]


def _fill(group: list, shape, newline: str) -> list[str]:
    """The texts of the containers in ``group``, all of one ``shape`` (a
    dict's keys or a list's length): one template filled with the texts of
    their members, which a list writes one depth deeper in one call, and a
    dict, whose values are alike at one key, in one call per key."""
    inner = newline + "  "
    if type(shape) is tuple:
        keys = sorted(shape)
        template = "{" + ",".join(inner + _string(k).replace("%", "%%") + ": %s" for k in keys) + newline + "}"
        return list(map(template.__mod__, zip(*(_texts(list(map(itemgetter(k), group)), inner) for k in keys))))
    template = "[" + ",".join([inner + "%s"] * shape) + newline + "]"
    return list(map(template.__mod__, zip(*[iter(_texts(list(itertools.chain.from_iterable(group)), inner))] * shape)))


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, creating missing parent directories; a
    path that cannot be written is a SceneFormatError."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
    except OSError as exc:
        raise SceneFormatError(f"cannot write {path}: {exc.strerror}") from None


def write_doc(path, doc: dict) -> None:
    write_text(path, dumps_doc(doc))


def read_doc(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise SceneFormatError(f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # also bytes that are not UTF-8, and over-long integers
        raise SceneFormatError(f"not valid JSON: {path}: {exc}") from exc


_MALFORMED = (KeyError, IndexError, AttributeError, ValueError, TypeError, ArithmeticError)


def _detail(exc: Exception) -> str:
    return f"{exc.args[0]} is missing" if type(exc) is KeyError else str(exc)


def _parse(kind: str, doc, read):
    """``read(doc)``, with a malformed field reported as a SceneFormatError
    that names the document kind and, for a missing key, the key."""
    try:
        return read(doc)
    except _MALFORMED as exc:
        raise SceneFormatError(f"bad {kind} document: {_detail(exc)}") from exc


_ABSENT = object()


def _difference(stored, written, path: str = "") -> str | None:
    """Where ``stored`` first differs from ``written``, in sorted key and
    list order, or None.  A value must have the writer's type too, since
    ``6.0 == 6`` and ``True == 1``.  In lists the writer puts only strings,
    integers, lists of integers and dicts with no number in them, so equal
    lists are equal by type as well unless the stored one holds a float or
    bool, as an entry or an entry's entry."""
    same_type = type(stored) is type(written)
    if stored is written or same_type and type(written) is not dict and stored == written and (
            type(stored) is not list or {float, bool}.isdisjoint(map(type, _flattened(stored)))):
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


def _flattened(values: list):
    """The entries of ``values``, or of its entries when they are lists."""
    return itertools.chain.from_iterable(values) if values and type(values[0]) is list else values


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
# provenance: how a scene was made

_BASES = {"base-single": {}, "base-pair": {}, "base-odd-cycle": {"n": int}}
_RECURSION = {"certificate": GallaiCertificate, "parent": dict}
# scene geometry -> provenance kind -> its fields besides "kind": a JSON type,
# Fraction for a rational, a certificate, or a list or dict of these; the
# parent (a dict) is a provenance of the same geometry
_PROVENANCE = {
    "boxes": {**_BASES, "recursion": _RECURSION},
    "lines": {**_BASES, "recursion": {**_RECURSION, "parent_params": [Fraction], "offsets": [Fraction]}},
    "shift": {"shift-system": {"n": int, "seed": int, "attempt": int,
                               "rejected_samples": [{"values": [Fraction], "diagnostic": str}]}},
}


def _fields(prov: dict, geometry: str) -> dict:
    """The fields of one provenance level: those of its kind, none when an
    object made by hand has no kind, and ``traces_normalized`` when
    ``boxes.normalize_traces`` has marked it."""
    fields = {"kind": str, **_PROVENANCE[geometry][prov["kind"]]} if "kind" in prov else {}
    return {**fields, "traces_normalized": bool} if "traces_normalized" in prov else fields


def _read_field(spec, value, read, path: str):
    """``value`` read as ``spec`` says; a value of another JSON type, or a
    rational or certificate that does not read, is a ValueError naming its
    path."""
    if spec is GallaiCertificate:
        value = _read_field(dict, value, read, path)
    if spec is Fraction or spec is GallaiCertificate:
        try:
            return read(value) if spec is Fraction else certificate_from_doc(value, read)
        except _MALFORMED as exc:
            raise ValueError(f"{path}: {_detail(exc)}") from exc
    expected = spec if type(spec) is type else type(spec)
    if type(value) is not expected:
        shown = "missing" if value is _ABSENT else repr(value)
        raise ValueError(f"{path} is {shown}, not of type {expected.__name__}")
    if type(spec) is dict:
        return {k: _read_field(s, value.get(k, _ABSENT), read, f"{path}.{k}") for k, s in spec.items()}
    if type(spec) is list:
        return [_read_field(spec[0], v, read, f"{path}[{i}]") for i, v in enumerate(value)]
    return value


def _read_provenance(doc, read, geometry: str, path: str = "provenance") -> dict:
    """The provenance ``doc`` holds, read level by level through ``parent``."""
    kind = _read_field(dict, doc, read, path).get("kind")
    if "kind" in doc and _read_field(str, kind, read, f"{path}.kind") not in _PROVENANCE[geometry]:
        raise ValueError(f"{path}.kind is {kind!r}, not a provenance kind of {geometry}")
    prov = _read_field(_fields(doc, geometry), doc, read, path)
    if kind == "recursion":
        prov["parent"] = _read_provenance(prov["parent"], read, geometry, f"{path}.parent")
    return prov


def _write_field(spec, value):
    if type(spec) is dict:
        return {k: _write_field(s, value[k]) for k, s in spec.items()}
    if type(spec) is list:
        return [_write_field(spec[0], v) for v in value]
    return format_rat(value) if spec is Fraction else certificate_to_doc(value) if spec is GallaiCertificate else value


def _provenance_to_doc(prov: dict, geometry: str, edges) -> dict:
    """The provenance document of a family with the sorted meeting pairs
    ``edges``.  A recursion's geometry comes from the scene kind, its parent
    edges from ``edges`` (``recursion.parent_edges``), and its blocks and
    the rest from its certificate, not from stored values, so a document
    that states them otherwise fails the compare."""
    doc = _write_field(_fields(prov, geometry), prov)
    if prov.get("kind") == "recursion":
        cert, graph = prov["certificate"], parent_edges(prov["certificate"], edges)
        ground, *copies = block_layout(cert)
        doc.update(geometry=geometry, girth_param=cert.girth, colors_before=cert.colors, parent_size=cert.ground.size,
                   blocks={"ground": ground, "copies": copies}, parent_edges=[list(e) for e in graph],
                   chromatic_lift_certified=cert.flags.all_true(),
                   parent=_provenance_to_doc(prov["parent"], geometry, graph))
    return doc


def _check_fit(prov: dict, size: int, edges, path: str = "provenance", below: bool = False) -> None:
    """A ValueError unless the family provenance at ``path`` fits its
    ``size`` objects and their sorted meeting pairs ``edges``: a cycle has
    n objects; a recursion one per certificate element, then one per point
    of the ground set for each certificate copy, a line recursion's parent
    parameters are the ground set's points and its offsets one integer per
    copy, and its parent fits the graph its first copy induces
    (``recursion.parent_edges``).  Below the top, a level's graph is its
    model: a base's is its kind's graph (``recursion.base_graph``), and a
    recursion's L(P, cert, rho) (``recursion.level_faults``, whose first
    fault is named); at the top the structure report checks it."""
    kind = prov.get("kind")
    if kind == "base-odd-cycle" and not 3 <= prov["n"] == size:
        raise ValueError(f"{path}.n is {prov['n']}, not the {size} objects of the cycle")
    if below and kind in BASE_CHECKS and (size, edges) != ((base := base_graph(prov)).n, base.edges):
        raise ValueError(f"{path}.kind is {kind!r}, but the level above records {size} objects and edges {edges}")
    if kind != "recursion":
        return
    cert = prov["certificate"]
    m, step = len(cert.elements), cert.ground.size
    if m + len(cert.copies) * step != size:
        raise ValueError(f"{path}.certificate does not lay out the {size} objects: one ground object per "
                         f"certificate element, then {step} per certificate copy")
    if "parent_params" in prov and sorted(prov["parent_params"]) != list(cert.ground.points):
        raise ValueError(f"{path}.parent_params are not the points of the certificate's ground set")
    if len(prov.get("offsets", cert.copies)) != len(cert.copies):
        raise ValueError(f"{path}.offsets do not hold one slide offset per certificate copy")
    if (i := next((i for i, t in enumerate(prov.get("offsets", ())) if t.denominator != 1), None)) is not None:
        raise ValueError(f"{path}.offsets[{i}] is {format_rat(prov['offsets'][i])}, not an integer slide offset")
    if below and (fault := next(iter(level_faults(prov, edges).values()), None)):
        raise ValueError(f"{path} does not fit the graph the level above records: {fault}")
    _check_fit(prov["parent"], step, parent_edges(cert, edges), f"{path}.parent", below=True)


# ---------------------------------------------------------------------------
# scene documents


def _family_to_doc(fam) -> dict:
    return {
        "kind": fam.kind,
        "g": fam.claimed_girth,
        "k": fam.claimed_chromatic,
        fam.key: fam.labels(),
        "provenance": _provenance_to_doc(fam.provenance, fam.key, fam.meets),
    }


def _entries(docs, family, read) -> None:
    """A ValueError naming the first rational entry of the object documents
    in ``docs``, the list at ``family.key``, that is missing or does not read."""
    for i, obj in enumerate(docs):
        for name, j in family.entries:
            try:
                read(obj[name][j])
            except _MALFORMED as exc:
                where = f"{family.key}[{i}].{name}" + ("" if type(exc) is KeyError else f"[{j}]")
                missing = type(exc) in (KeyError, IndexError)
                raise ValueError(f"{where} is missing" if missing else f"{where}: {exc}") from exc


def _read_family(family, doc: dict, read):
    """A scene of the kind ``family``, made on the grid of its objects' entries."""
    docs = doc[family.key]
    try:
        den, rows = family.grid([[obj[name][j] for name, j in family.entries] for obj in docs], read)
    except _MALFORMED:
        _entries(docs, family, read)  # reads them again, to name the one that fails
        raise
    g = None if doc["g"] is None else _read_field(int, doc["g"], read, "g")
    k = _read_field(int, doc["k"], read, "k")
    if k < 1 or g is not None and g < 3:
        raise ValueError(f"k must be an integer >= 1 and g one >= 3 or null, got g={g!r}, k={k!r}")
    fam = family(rows, g, k, _read_provenance(doc["provenance"], read, family.key), den=den)
    _check_fit(fam.provenance, len(rows), fam.meets)
    return fam


def _shift_system_to_doc(system: ShiftSystem) -> dict:
    return {
        "kind": system.kind,
        "n": len(system.values),
        "values": [format_rat(v) for v in system.values],
        "lines": [{"triple": triple, **line} for triple, line in zip(system.labels(), LineFamily.labels(system))],
        # n is derived from the values, like the top-level n
        "provenance": {**_provenance_to_doc(system.provenance, "shift", system.meets), "n": len(system.values)},
    }


def _read_shift_system(doc: dict, read) -> ShiftSystem:
    return ShiftSystem(tuple(map(read, doc["values"])), _read_provenance(doc["provenance"], read, "shift"))


# scene kind -> (class, writer, reader)
_SCENES = {cls.kind: (cls, _family_to_doc, partial(_read_family, cls)) for cls in (BoxFamily, LineFamily)}
_SCENES[ShiftSystem.kind] = (ShiftSystem, _shift_system_to_doc, _read_shift_system)


def scene_to_doc(obj) -> dict:
    for scene_class, to_doc, _ in _SCENES.values():
        if type(obj) is scene_class:
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
