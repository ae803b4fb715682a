"""The benchmark's item runner.

A separate process, so that ``run.py`` can hold each item to a deadline
by killing it, even inside a long numpy loop where no signal handler
runs.  It reads one JSON request per line on stdin and answers with one
JSON line per request:

- ``{"op": "cli", "argv": [...]}`` runs ``sncx.cli.main(argv)`` with
  stdout captured and answers ``code``, ``out``, ``elapsed``, ``error``
  and ``ref_s``, the mean time of a fixed reference loop run right
  before and right after the CLI call (see ``reference_s``);
- ``{"op": "replay", "argv": [...], "out": "..."}`` replays the same
  subcommand through the layers' public functions, timing each call
  (see ``probes.py``), and answers ``values``, ``seen``, ``covered``,
  ``elapsed``, ``error``.

Every answer also carries the process's peak resident set size so far.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout


REF_LOOPS = 300_000


def reference_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed.

    On a host whose cores are shared, the speed of this process drifts by
    a quarter from one ten-second stretch to the next.  ``run.py`` scales
    each item's wall time by this loop's time, measured in the same
    process next to it, so that the end-to-end times follow the program
    and not that drift.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(REF_LOOPS):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_cli(main, argv) -> dict:
    buf = io.StringIO()
    error = None
    code = None
    ref_before = reference_s()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        error = f"SystemExit({exc.code!r})"
    except Exception as exc:  # noqa: BLE001 - reported per item by run.py
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    ref_s = (ref_before + reference_s()) / 2
    return {"code": code, "out": buf.getvalue(), "elapsed": elapsed,
            "error": error, "ref_s": ref_s}


def serve(proto_in, proto_out) -> None:
    from sncx.cli import main
    import probes
    proto_out.write(json.dumps({"ready": True}) + "\n")
    proto_out.flush()
    for line in proto_in:
        req = json.loads(line)
        if req["op"] == "cli":
            resp = _run_cli(main, req["argv"])
        elif req["op"] == "replay":
            resp = probes.replay(req["argv"], req["out"])
        else:
            resp = {"error": f"unknown op {req['op']!r}"}
        resp["rss_kb"] = _peak_rss_kb()
        proto_out.write(json.dumps(resp) + "\n")
        proto_out.flush()


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)
    # answers go to the original stdout; anything the library prints
    # goes to stderr instead of into the protocol
    proto_out = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    try:
        serve(sys.stdin, proto_out)
    except Exception:  # noqa: BLE001 - run.py sees the closed pipe
        traceback.print_exc()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
