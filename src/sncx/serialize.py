"""JSON interchange for complexes, strata, fans, scripts and reports.

Writers are byte-deterministic: canonical face order, sorted keys, two
space indent, trailing newline.  Reading a file we wrote and writing it
again reproduces the bytes exactly.

``dumps(doc)`` returns exactly ``json.dumps(doc, indent=2, sort_keys=True)
+ "\n"``.  With an indent, CPython's ``json`` runs its pure-Python
encoder, so ``dumps`` writes the documents the CLI produces itself.  It
dispatches on exact type: a ``dict`` with ``str`` keys, a ``list`` or
``tuple``, a ``str`` (through the C ``encode_basestring_ascii`` the
stdlib encoder calls), an ``int`` (through ``int.__repr__``, as there),
``True``, ``False`` and ``None``; a list of only ``str`` or only ``int``
items is written with one join.  Anything else -- a float, a key that is
not a ``str``, a subclass of any of these types, an object ``json``
cannot encode, or nesting deeper than ``_MAX_DEPTH`` (which also catches
a cycle) -- sends the whole document through that ``json.dumps`` call,
so it gets the stdlib's bytes or its exception and message.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _esc

from .complexes import CombinatorialComplex
from .errors import DescriptorInvalid
from .transforms import BlowupMove


def complex_to_dict(c: CombinatorialComplex) -> dict:
    return {"faces": c.to_records()}


def complex_from_dict(doc: dict) -> CombinatorialComplex:
    faces = doc.get("faces") if isinstance(doc, dict) else None
    if not isinstance(faces, list):
        raise DescriptorInvalid(
            "a complex is an object whose 'faces' is a list of face records")
    return CombinatorialComplex(faces)


_int = int.__repr__
_MAX_DEPTH = 64
_PAD = ["\n" + "  " * d for d in range(_MAX_DEPTH + 1)]


class _Fallback(Exception):
    """The document holds something ``_write`` leaves to ``json.dumps``."""


def _write(o, depth: int) -> str:
    """``o`` as ``json.dumps`` writes it at nesting ``depth``."""
    t = type(o)
    if t is dict:
        if not o:
            return "{}"
        if depth == _MAX_DEPTH:
            raise _Fallback
        try:
            keys = sorted(o)
        except TypeError:       # keys of mixed types
            raise _Fallback from None
        items = []
        for k in keys:
            if type(k) is not str:
                raise _Fallback
            v = o[k]
            tv = type(v)
            if tv is str:
                items.append(_esc(k) + ": " + _esc(v))
            elif tv is int:
                items.append(_esc(k) + ": " + _int(v))
            else:
                items.append(_esc(k) + ": " + _write(v, depth + 1))
        inner = _PAD[depth + 1]
        return "{" + inner + ("," + inner).join(items) + _PAD[depth] + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        if depth == _MAX_DEPTH:
            raise _Fallback
        kinds = set(map(type, o))
        if kinds == {str}:
            body = map(_esc, o)
        elif kinds == {int}:
            body = map(_int, o)
        else:
            body = [_write(v, depth + 1) for v in o]
        inner = _PAD[depth + 1]
        return "[" + inner + ("," + inner).join(body) + _PAD[depth] + "]"
    if t is str:
        return _esc(o)
    if t is int:
        return _int(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    raise _Fallback


def dumps(doc) -> str:
    try:
        return _write(doc, 0) + "\n"
    except _Fallback:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dumps_complex(c: CombinatorialComplex) -> str:
    return dumps(complex_to_dict(c))


def loads_complex(text: str) -> CombinatorialComplex:
    return complex_from_dict(json.loads(text))


def script_to_list(script) -> list:
    return [m.as_json() for m in script]


def script_from_list(items) -> tuple:
    if not isinstance(items, list):
        raise DescriptorInvalid("a script is a list of moves")
    return tuple(BlowupMove.from_json(d) for d in items)


def write_complex(path, c: CombinatorialComplex) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_complex(c))


def read_complex(path) -> CombinatorialComplex:
    with open(path, encoding="utf-8") as fh:
        return loads_complex(fh.read())
