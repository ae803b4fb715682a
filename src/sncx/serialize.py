"""JSON interchange for complexes, strata, fans, scripts and reports.

Writers are byte-deterministic: canonical face order, sorted keys, two
space indent, trailing newline.  Reading a file we wrote and writing it
again reproduces the bytes exactly.

``dumps(doc)`` returns exactly ``json.dumps(doc, indent=2, sort_keys=True,
default=_default) + "\n"``, where ``_default`` turns a complex ``c`` into
``complex_to_dict(c)``.  With an indent, CPython's ``json`` runs its
pure-Python encoder, so ``dumps`` writes the documents the CLI produces
itself.  It dispatches on exact type: a ``dict`` with ``str`` keys, a
``list`` or ``tuple``, a ``str`` (through the C ``encode_basestring_ascii``
the stdlib encoder calls), an ``int`` (through ``int.__repr__``, as
there), ``True``, ``False`` and ``None``; a list of only ``str`` or only
``int`` items is written with one join.  A ``CombinatorialComplex`` is
written as its face records straight from the complex's own maps, with
one template per record shape, and no record dicts are built.  Anything
else -- a float, a key that is not a ``str``, a subclass of any of these
types, an object ``json`` cannot encode, or nesting deeper than
``_MAX_DEPTH`` (which also catches a cycle) -- sends the whole document
through that ``json.dumps`` call, so it gets the stdlib's bytes or its
exception and message.
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
    if t is CombinatorialComplex:
        return _write_complex(o, depth)
    raise _Fallback


def _write_complex(c: CombinatorialComplex, depth: int) -> str:
    """``complex_to_dict(c)`` as ``_write`` writes it at nesting ``depth``.

    The fields follow :meth:`CombinatorialComplex._rewritten`: a label
    only where it differs from the id, a delta order only above dimension
    0 on a Delta complex, a level only on a filtered complex.
    """
    if depth + 3 >= _MAX_DEPTH:     # its facet lists would reach the limit
        raise _Fallback
    order = c._order
    if not order:
        return "{" + _PAD[depth + 1] + '"faces": []' + _PAD[depth] + "}"
    is_delta = c._is_delta
    ids, below, _above, live, labels, levels = c._num[:6]
    esc = list(map(_esc, ids))          # each id escaped once, by slot
    key = c._slot_key()
    p2, p3, p4 = _PAD[depth + 2], _PAD[depth + 3], _PAD[depth + 4]
    sep, end = "," + p4, p3 + "]"

    def written(xs):
        return "[" + p4 + sep.join(map(esc.__getitem__, xs)) + end if xs else "[]"

    def template(has_delta, has_label):
        keys = (["delta_order"] * has_delta + ["dim", "facets", "id"]
                + ["label"] * has_label + ["level"] * (levels is not None))
        return "{" + p3 + ("," + p3).join(f'"{k}": %s' for k in keys) + p2 + "}"

    shapes = {(dl, lb): template(dl, lb) for dl in (False, True)
              for lb in (False, True)}
    out = []
    for f, x, d in zip(order, live, c._grades()):
        label, xs = labels[x], below[x]
        has_delta, has_label = is_delta and d > 0, label != f
        # the facets in canonical order: the slots sorted by position
        args = (_int(d), written(sorted(xs, key=key) if is_delta else xs), esc[x])
        if has_delta:
            args = (written(xs), *args)
        if has_label:
            args += (_esc(label),)
        if levels is not None:
            args += (_int(levels[x]),)
        out.append(shapes[has_delta, has_label] % args)
    return ("{" + _PAD[depth + 1] + '"faces": [' + p2 + ("," + p2).join(out)
            + _PAD[depth + 1] + "]" + _PAD[depth] + "}")


def _default(o):
    # what ``json.dumps`` calls on a value it cannot encode itself
    if isinstance(o, CombinatorialComplex):
        return complex_to_dict(o)
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    f"is not JSON serializable")


def dumps(doc) -> str:
    try:
        return _write(doc, 0) + "\n"
    except _Fallback:
        return json.dumps(doc, indent=2, sort_keys=True, default=_default) + "\n"


def dumps_complex(c: CombinatorialComplex) -> str:
    return dumps(c)


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
