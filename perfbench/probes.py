"""Per-layer probes: replay a subcommand through the layers' public API.

The probes time calls into ``sncx.*``, ``sncx.newton.*`` and
``sncx.serialize.*`` from outside, in the order the CLI subcommand
makes them, so that no code in the program changes.  They are
best-effort: if an entry point disappears or changes shape, the replay
of that item stops, the metrics it did not reach are reported missing
by ``run.py``, and the end-to-end run is unaffected.

Two metrics are derived from a second, separate call:

- ``homology.square_zero_s`` times ``ChainComplex(cx.bases, cx.matrices)``,
  which repeats the square-zero check ``chain_complex`` makes;
- ``homology.chain_build_s`` is ``chain_complex()`` minus that time.

These "aside" calls, like ``normal_fan`` for ``newton.fan_s``, are not
steps of the subcommand, so they are left out of ``covered``, the time
the replayed steps account for; ``run.py`` reports ``cli.self_s`` as the
CLI's own time for the item minus ``covered``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# the budgets wedge_certificate uses by default
TIETZE_BUDGET = 20000
COLLAPSE_BUDGET = 4000


class Tracer:
    """Accumulates per-metric times and counts over one replay.

    A span's value is its duration minus the aside spans inside it, so
    that the extra calls the probes make (and their own bookkeeping) are
    neither charged to a layer nor to ``covered``.
    """

    def __init__(self):
        self.values = defaultdict(float)
        self.seen = set()
        self._frames = [[0.0, 0.0]]    # per open span: [covered, aside time]

    @contextmanager
    def span(self, name=None, aside=False):
        frame = [0.0, 0.0]
        self._frames.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._frames.pop()
            parent = self._frames[-1]
            net = dt - frame[1]
            if name is not None:
                self.values[name] += net
                self.seen.add(name)
            if aside:
                parent[1] += dt
            else:
                parent[0] += net
                parent[1] += frame[1]

    def time(self, name, fn, *args, aside=False, **kwargs):
        with self.span(name, aside=aside):
            return fn(*args, **kwargs)

    def count(self, name, n=1):
        self.values[name] += n
        self.seen.add(name)

    def bookkeeping(self):
        """A block of probe-only work, excluded from every span."""
        return self.span(aside=True)

    @property
    def covered(self) -> float:
        return self._frames[0][0]


def _nnz(matrix) -> int:
    if hasattr(matrix, "flat"):
        return sum(1 for x in matrix.flat if x)
    if isinstance(matrix, dict):
        return sum(len(col) if isinstance(col, dict) else 1
                   for col in matrix.values())
    return sum(1 for col in matrix for x in col if x)


def _read_json(tr, path):
    def load():
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    return tr.time("serialize.parse_s", load)


def _load_complex(tr, path):
    from sncx import serialize
    c = tr.time("complexes.build_s", serialize.complex_from_dict,
                _read_json(tr, path))
    tr.count("complexes.faces", len(c.face_ids))
    return c


def _homology(tr, c, reduced=False):
    """Mirror ``sncx.homology``; return its (degree, betti, torsion) rows."""
    import sncx as S
    if c.is_empty:
        return [(-1, 1, ())] if reduced else []
    tr.count("homology.calls")
    if not c.has_delta:
        c = tr.time("complexes.order_complex_s", c.order_complex)
        tr.count("complexes.faces", len(c.face_ids))
    cx = tr.time("homology.chain_complex_s", S.chain_complex, c)
    tr.time("homology.square_zero_s", S.ChainComplex, cx.bases, cx.matrices,
            aside=True)
    with tr.bookkeeping():
        tr.count("homology.boundary_cells", sum(len(b) for b in cx.bases.values()))
        tr.count("homology.boundary_nnz", sum(_nnz(m) for m in cx.matrices.values()))
    top = cx.top_degree
    ranks, torsion = {}, {}
    for k in range(1, top + 1):
        res = tr.time("snf.reduce_s", S.smith_normal_form, cx.boundary(k))
        tr.count("snf.rank", res.rank)
        ranks[k] = res.rank
        torsion[k - 1] = tuple(d for d in res.invariant_factors if d > 1)
    rows = []
    for k in range(top + 1):
        b = len(cx.bases.get(k, ())) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        rows.append((k, b - (1 if reduced and k == 0 else 0), torsion.get(k, ())))
    return rows


def _dump_complex(tr, c):
    from sncx import serialize
    tr.time("serialize.dump_s", serialize.complex_to_dict, c)


def _replay_homology(tr, args):
    for path in args:
        c = _load_complex(tr, path)
        _homology(tr, c)


def _snapshot(tr, c):
    with tr.span("transforms.snapshot_s"):
        # mirrors the log snapshot run_blowup_script takes after each step
        _homology(tr, c)
        if c.has_levels:
            for m in range(1, c.max_level() + 1):
                sub = tr.time("transforms.level_subcomplex_s",
                              c.level_subcomplex, m)
                tr.count("transforms.level_subcomplexes")
                _homology(tr, sub)


def _replay_transform(tr, args):
    import sncx as S
    from sncx import serialize
    c = _load_complex(tr, args[0])
    script = tr.time("serialize.parse_s", serialize.script_from_list,
                     _read_json(tr, args[1]))
    _snapshot(tr, c)
    for move in script:
        c = tr.time("transforms.move_s", S.blowup_move, c, move)
        tr.count("transforms.moves")
        tr.count("complexes.faces", len(c.face_ids))
        _snapshot(tr, c)
    _homology(tr, c)
    _dump_complex(tr, c)


def _replay_realize(tr, args):
    import sncx as S
    from sncx import serialize
    doc = _read_json(tr, args[0])
    faces = doc["faces"] if isinstance(doc, dict) else doc
    c, script = tr.time("snc.realize_s", S.realize_boundary, faces)
    tr.count("snc.script_moves", len(script))
    tr.count("complexes.faces", len(c.face_ids))
    _homology(tr, c)
    _dump_complex(tr, c)
    tr.time("serialize.dump_s", serialize.script_to_list, script)


def _points(doc):
    return doc["points"] if isinstance(doc, dict) else doc


def _replay_newton(tr, args):
    import sncx as S
    np_ = tr.time("newton.polyhedron_s", S.newton_polyhedron,
                  _points(_read_json(tr, args[0])))
    tr.count("newton.points", len(np_.points))
    tr.count("newton.facets", len(np_.facets))
    tr.count("newton.faces", len(np_.faces))
    tr.time("newton.fan_s", S.normal_fan, np_, aside=True)
    tr.time("newton.report_s", S.w0_report, np_)
    model = tr.time("newton.resolution_s", S.resolution_complex, np_)
    _dump_complex(tr, model)


def _replay_torus(tr, args):
    import sncx as S
    c = tr.time("newton.torus_s", S.torus_hypersurface_boundary_complex,
                _points(_read_json(tr, args[0])))
    _homology(tr, c, reduced=True)
    _homology(tr, c)
    _dump_complex(tr, c)


def _pi1(tr, c):
    import sncx as S
    pres = tr.time("presentations.pi1_s", S.fundamental_group_presentation, c)
    tr.count("presentations.generators_in", pres.generators)
    tr.count("presentations.relators_in", len(pres.relators))
    out, _status = tr.time("presentations.tietze_s", S.tietze_simplify, pres,
                           TIETZE_BUDGET)
    tr.count("presentations.generators_out", out.generators)
    tr.count("presentations.relators_out", len(out.relators))


def _replay_certify(tr, args):
    """Mirror ``wedge_certificate`` for sphere dimension d >= 1."""
    import sncx as S
    d = int(args[args.index("--sphere-dim") + 1])
    c = _load_complex(tr, args[0])
    rows = _homology(tr, c, reduced=True)
    if any(t for _k, _b, t in rows) or any(b for k, b, _t in rows if k != d):
        return                                  # refuted by homology
    m = sum(b for k, b, _t in rows if k == d)
    if d >= 2 and m == 0:
        ok, seq = tr.time("homology.collapse_s", S.collapse_to_point, c,
                          COLLAPSE_BUDGET)
        tr.count("homology.collapse_pairs", len(seq))
        if ok:
            return
    _pi1(tr, c)


REPLAYS = {
    "homology": _replay_homology,
    "transform": _replay_transform,
    "realize": _replay_realize,
    "newton": _replay_newton,
    "torus-boundary": _replay_torus,
    "certify": _replay_certify,
}


def replay(argv, out_text) -> dict:
    """Replay one CLI invocation; ``out_text`` is what the CLI printed."""
    from sncx import serialize
    tr = Tracer()
    error = None
    t0 = time.perf_counter()
    try:
        REPLAYS[argv[0]](tr, argv[1:])
        if out_text:
            tr.time("serialize.dump_s", serialize.dumps, json.loads(out_text))
            tr.count("serialize.bytes_out", len(out_text.encode("utf-8")))
    except Exception as exc:  # noqa: BLE001 - a probe that no longer fits
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return {"values": dict(tr.values), "seen": sorted(tr.seen),
            "covered": tr.covered, "elapsed": elapsed, "error": error}
