"""Batch front-end.

Subcommands parse structured inputs, run a pipeline, and emit a
deterministic report: same inputs give byte-identical output across
runs.  Exit codes: 0 success, 1 domain error
(with a machine-readable error object), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .complexes import CombinatorialComplex
from .errors import DescriptorInvalid, SncxError
from .homology import _as_reduced, homology, wedge_certificate
from .newton import _w0_report, newton_polyhedron, torus_hypersurface_boundary_complex
from .serialize import (
    complex_from_dict,
    complex_to_dict,
    dumps,
    script_from_list,
    script_to_list,
)
from .snc import dual_complex, fan_from_json, realize_boundary, strata_from_json, toric_link
from .transforms import run_blowup_script

FORMATS_HELP = """\
input schemas (JSON):
  complex       {"faces": [{"id", "dim", "facets": [...],
                 "label"?, "delta_order"?: [...], "level"?}]}
  strata        {"components": [{"label", "level"?}],
                 "strata": [{"indices": [...], "label",
                             "parents": {"<index>": "<label>"}}]}
  fan           {"rays": [[...]], "cones": [[ray indices]]}
  script        [{"case": 1 | 2 | 3 | "attach", "face"?, "base"?,
                  "attach"?: [...], "vertex"?, "new_vertex"?, "level"?}]
  support       [[exponent vector], ...]   (or {"points": [...]})
  polytope      [[lattice point], ...]     (or {"points": [...]})
  subsets       [[vertex, ...], ...]       (or {"faces": [...], "n"?})
"""


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DescriptorInvalid(f"input {path} is not UTF-8 JSON: {exc}") from exc
    except RecursionError as exc:
        raise DescriptorInvalid(
            f"input {path} nests too deeply to read: {exc}") from exc


def _list_of(doc, key: str, what: str) -> list:
    # the list itself, or the object holding it under ``key``
    items = doc.get(key) if isinstance(doc, dict) else doc
    if not isinstance(items, list):
        raise DescriptorInvalid(
            f"a {what} is a list of {key}, or an object whose {key!r} is one")
    return items


def _summary(c, h=None) -> dict:
    return {
        "f_vector": list(c.f_vector()),
        "euler_characteristic": c.euler_characteristic(),
        "homology": (homology(c) if h is None else h).as_json(),
    }


def _homology_report(path: str, reduced: bool) -> dict:
    c = complex_from_dict(_load_json(path))
    h = homology(c)
    return {**_summary(c, _as_reduced(h) if reduced else h),
            "components": h.betti(0), "reduced": reduced}


def _run_homology(args) -> dict:
    return {"reports": [{"input": path, "sha256": _sha256(path),
                         **_homology_report(path, args.reduced)}
                        for path in args.inputs]}


def _run_transform(args) -> dict:
    c = complex_from_dict(_load_json(args.complex))
    script = script_from_list(_load_json(args.script))
    final, log = run_blowup_script(c, script)
    last = log.steps[-1]
    return {
        "inputs": [{"path": args.complex, "sha256": _sha256(args.complex)},
                   {"path": args.script, "sha256": _sha256(args.script)}],
        "log": log.as_json(),
        "final": {"f_vector": last["f_vector"],
                  "euler_characteristic": final.euler_characteristic(),
                  "homology": last["homology"]},
        "final_complex": final,
    }


def _run_dual(args) -> dict:
    desc = strata_from_json(_load_json(args.input))
    c = dual_complex(desc)
    return {"input": args.input, "sha256": _sha256(args.input),
            **_summary(c), "complex": c}


def _run_toric_link(args) -> dict:
    fan = fan_from_json(_load_json(args.input))
    c = toric_link(fan)
    return {"input": args.input, "sha256": _sha256(args.input),
            **_summary(c), "complex": c}


def _run_realize(args) -> dict:
    doc = _load_json(args.input)
    faces = _list_of(doc, "faces", "subsets document")
    ground = doc.get("n") if isinstance(doc, dict) else None
    c, script = realize_boundary(faces, n=ground)
    return {"input": args.input, "sha256": _sha256(args.input),
            **_summary(c), "complex": c,
            "script": script_to_list(script)}


def _run_newton(args) -> dict:
    np_ = newton_polyhedron(_list_of(_load_json(args.input), "points", "support"))
    report, model = _w0_report(np_)
    if args.variant != "both":
        report["predicted_variant"] = args.variant
        report["predicted_count"] = report["predicted"][args.variant]
    report["model_complex"] = model
    report["input"] = args.input
    report["sha256"] = _sha256(args.input)
    return report


def _run_torus_boundary(args) -> dict:
    c = torus_hypersurface_boundary_complex(
        _list_of(_load_json(args.input), "points", "polytope"))
    h = homology(c)
    return {"input": args.input, "sha256": _sha256(args.input),
            **_summary(c, h),
            "reduced_homology": _as_reduced(h).as_json(),
            "complex": c}


def _run_certify(args) -> dict:
    c = complex_from_dict(_load_json(args.input))
    cert = wedge_certificate(c, args.sphere_dim)
    return {"input": args.input, "sha256": _sha256(args.input),
            "sphere_dim": args.sphere_dim,
            "verdict": str(cert),
            "status": cert.status, "count": cert.count,
            "detail": cert.detail, "witness": cert.witness}


def _render_text(doc, indent=0) -> str:
    pad = "  " * indent
    if isinstance(doc, CombinatorialComplex):
        doc = complex_to_dict(doc)
    if not isinstance(doc, (dict, list)):
        return f"{pad}{doc}"
    items = ([(f"{k}:", doc[k]) for k in sorted(doc)] if isinstance(doc, dict)
             else [("-", v) for v in doc])
    lines = []
    for head, v in items:
        if isinstance(v, (dict, list, CombinatorialComplex)):
            lines += [pad + head, _render_text(v, indent + 1)]
        else:
            lines.append(f"{pad}{head} {v}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sncx",
        description="dual complex engine: homology, blowup moves, "
                    "toric links, Newton polyhedron pipelines",
        epilog=FORMATS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"sncx {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("homology", help="Betti numbers and torsion of complexes")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--reduced", action="store_true")
    common(p)

    p = sub.add_parser("transform", help="replay a blowup script with a homology log")
    p.add_argument("complex")
    p.add_argument("script")
    common(p)

    p = sub.add_parser("dual", help="dual complex of a strata description")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("toric-link", help="link of the origin of a fan")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("realize", help="realize a subset-closed complex as a boundary complex")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("newton", help="resolution complex pipeline of a monomial support")
    p.add_argument("input")
    p.add_argument("--variant", choices=("literal", "interior", "both"),
                   default="both")
    common(p)

    p = sub.add_parser("torus-boundary", help="boundary complex of a nondegenerate torus hypersurface")
    p.add_argument("input")
    common(p)

    p = sub.add_parser("certify", help="wedge-of-spheres certificate for a complex")
    p.add_argument("input")
    p.add_argument("--sphere-dim", type=int, required=True)
    common(p)

    return parser


_parser = None     # built on the first ``main`` call


def main(argv=None) -> int:
    """Run one subcommand; return its exit code.

    ``main`` may be called any number of times in one process (a batch
    driver, a test suite, the benchmark's worker).  The argument parser
    is built once per process, on the first call, and reused: parsing
    gives each call a fresh namespace, and the subcommand's runner is
    looked up by name at call time.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        report = globals()["_run_" + args.command.replace("-", "_")](args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"sncx: no such input: {exc.filename}\n")
        return 2
    except (SncxError, KeyError, TypeError, ValueError) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(dumps(err) if args.format == "json"
                         else _render_text(err) + "\n")
        return 1
    envelope = {"tool": "sncx", "version": __version__,
                "command": args.command, "report": report}
    if args.format == "json":
        sys.stdout.write(dumps(envelope))
    else:
        sys.stdout.write(_render_text(envelope) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
