"""JSON interchange for complexes, strata, fans, scripts and reports.

Writers are byte-deterministic: canonical face order, sorted keys, two
space indent, trailing newline.  Reading a file we wrote and writing it
again reproduces the bytes exactly.
"""

from __future__ import annotations

import json

from .complexes import CombinatorialComplex
from .errors import DescriptorInvalid
from .transforms import BlowupMove


def complex_to_dict(c: CombinatorialComplex) -> dict:
    return {"faces": c.to_records()}


def complex_from_dict(doc: dict) -> CombinatorialComplex:
    return CombinatorialComplex(doc["faces"])


def dumps(doc) -> str:
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
