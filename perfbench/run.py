"""The sncx benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a fixed list of items, each one ``sncx`` CLI
invocation on inputs that ``gen.py`` writes from the seed.  Items run
one after another in a worker process (``worker.py``) through
``sncx.cli.main``, each under a deadline that kills the worker if it is
missed.  Every item's answer is checked against a reference that does not
come from the code under test, and its stdout against the sha256 digest
recorded at the seed commit (``digests.json``).

With ``--trace 0`` the run makes passes over the item list, and repeats
the workload's largest item between items, until ``--seconds`` is used
up, and prints the end-to-end metrics.  Their times are scaled to a
nominal host speed: each item's wall time, and each set-up's, is
multiplied by REF_NOMINAL_S over the time of a fixed reference loop run
in the same process right before and after it (``worker.reference_s``),
so that they follow the program and not the drifting speed of a shared
host.  With ``--trace 1`` each item's untraced run is followed by a
traced replay through the layers' public functions (``probes.py``) and
the run prints the per-layer metrics.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402

WORK_DIR = ".perfbench-work"
SETUP_REPS = 5
STARTUP_TIMEOUT_S = 120.0
RECORDING = object()    # digest placeholder while digests.json is recorded
REPEAT_SHARE = 0.5      # of an untraced run spent on the largest item
# seconds of worker.reference_s() at the nominal host speed (its usual time
# on a 2-vCPU x86-64 VM with CPython 3); end-to-end item times are scaled to it
REF_NOMINAL_S = 0.05

# Worker and set-up processes stay single-threaded.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

COMMON_LAYERS = ("serialize.parse_s", "serialize.dump_s", "serialize.bytes_out",
                 "cli.self_s")
HOMOLOGY = ("homology.square_zero_s", "homology.chain_build_s",
            "homology.boundary_nnz", "homology.boundary_cells", "homology.calls")
SNF = ("snf.reduce_s", "snf.rank")
COMPLEXES = ("complexes.build_s", "complexes.faces")
# the per-layer metrics each workload exercises; a probe that yields none
# of its values on such a workload is reported missing
EXPECTED = {
    "subdivision-homology": HOMOLOGY + SNF + COMPLEXES,
    "certify-skeleta": COMPLEXES + (
        "homology.collapse_s", "homology.collapse_pairs",
        "presentations.pi1_s", "presentations.tietze_s",
        "presentations.generators_in", "presentations.relators_in",
        "presentations.generators_out", "presentations.relators_out"),
    "newton-supports": (
        "newton.polyhedron_s", "newton.points", "newton.facets", "newton.faces",
        "newton.fan_s", "newton.resolution_s", "newton.report_s", "newton.torus_s"),
    "blowup-replay": HOMOLOGY + SNF + COMPLEXES + (
        "transforms.move_s", "transforms.moves", "transforms.snapshot_s",
        "transforms.level_subcomplexes", "snc.realize_s", "snc.script_moves"),
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def set_up(workload: str, seed: int, out_dir: str, reps: int, smallest: bool):
    """Run the set-up step ``reps`` times in fresh interpreters.

    Returns the manifest and the per-rep set-up seconds, scaled to the
    nominal host speed like the item times (``host_scaled``).  Every rep
    must write the same bytes.
    """
    times = []
    digest = None
    for _ in range(reps):
        shutil.rmtree(out_dir, ignore_errors=True)
        cmd = [sys.executable, os.path.join("perfbench", "gen.py"),
               "--workload", workload, "--seed", str(seed), "--out", out_dir]
        if smallest:
            cmd.append("--smallest")
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=STARTUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed ({proc.returncode}):\n{proc.stderr}")
        took = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(took["setup_s"] * REF_NOMINAL_S / took["ref_s"])
        d = _tree_digest(out_dir)
        if digest is not None and d != digest:
            raise SystemExit("set-up is not deterministic: inputs differ between reps")
        digest = d
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh), times


class Worker:
    """One ``worker.py`` process; restarted after a missed deadline."""

    def __init__(self):
        self.proc = None
        self.peak_rss_kb = 0

    def _start(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join("perfbench", "worker.py")],
            cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE)
        if not (self._read(STARTUP_TIMEOUT_S) or {}).get("ready"):
            self.close(kill=True)
            raise SystemExit("the worker did not start")

    def _read(self, timeout):
        fd = self.proc.stdout.fileno()
        end = time.monotonic() + timeout
        buf = bytearray()
        while not buf.endswith(b"\n"):
            remaining = end - time.monotonic()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return {"error": "the worker exited"}
            buf += chunk
        return json.loads(buf)

    def request(self, req: dict, deadline: float):
        """Answer of the worker, or None if the deadline passed first."""
        if self.proc is None:
            self._start()
        try:
            self.proc.stdin.write(json.dumps(req).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            resp = {"error": "the worker exited"}
        else:
            resp = self._read(deadline)
        if resp is None or "rss_kb" not in resp:
            self.close(kill=True)
            return resp
        self.peak_rss_kb = max(self.peak_rss_kb, resp["rss_kb"])
        return resp

    def close(self, kill=False):
        """Stop the worker: at once with ``kill``, else once it is idle."""
        if self.proc is None:
            return
        if kill:
            self.proc.kill()
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


# -- reference checks ----------------------------------------------------------

def _nonzero(rows) -> list:
    return [[r["degree"], r["betti"], r["torsion"]] for r in rows
            if r["betti"] or r["torsion"]]


def _render(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def check_answer(item: dict, report: dict, done: dict):
    """None if the report matches the item's reference, else the problem.

    Returns the string "undecided" for a certificate that is not decided
    on an item allowed to be undecided.
    """
    ref = item["ref"]
    kind = ref["kind"]
    if kind == "homology":
        got = _nonzero(report["reports"][0]["homology"])
        return None if got == ref["nonzero"] else f"homology {got} != {ref['nonzero']}"
    if kind == "certify":
        got = (report["status"], report["count"])
        if got == (ref["status"], ref["count"]):
            return None
        if item.get("may_be_undecided") and got[0] in (
                "rational-homology-wedge", "inconclusive"):
            return "undecided"
        return f"certificate {got} != {(ref['status'], ref['count'])}"
    if kind == "newton":
        got, want = report["computed_top_count"], report["predicted"]["interior"]
        return None if got == want else f"computed_top_count {got} != interior {want}"
    if kind == "torus":
        got = _nonzero(report["reduced_homology"])
        return None if got == ref["reduced_nonzero"] else \
            f"reduced homology {got} != {ref['reduced_nonzero']}"
    if kind == "transform":
        log = report["log"]
        if log["homology_constant"] is not True:
            return "homology_constant is not true"
        start = _nonzero(log["steps"][0]["homology"])
        final = _nonzero(report["final"]["homology"])
        if start != ref["nonzero"] or final != ref["nonzero"]:
            return f"start {start} / final {final} homology != {ref['nonzero']}"
        return None
    if kind == "realize":
        got = _nonzero(report["homology"])
        return None if got == ref["nonzero"] else f"homology {got} != {ref['nonzero']}"
    if kind == "realize-replay":
        source = done.get(item["script_from"])
        if source is None:
            return "no realize report to compare with"
        if _render(report["final_complex"]) != _render(source["complex"]):
            return "replayed final_complex differs from the realized complex"
        return None
    raise ValueError(f"unknown reference kind {kind!r}")


def judge(item: dict, resp, deadline: float, digest, done: dict):
    """Classify one CLI run: (outcome, message, report or None).

    Outcomes: "verified", "undecided" (only for items allowed to be
    undecided: the deadline passed, the CLI raised, or the certificate
    was not decided) and "failed".
    """
    lenient = item.get("may_be_undecided", False)
    if resp is None:
        return ("undecided" if lenient else "failed"), \
            f"missed the {deadline:g} s deadline", None
    if resp.get("error") or resp.get("code") is None:
        return ("undecided" if lenient else "failed"), \
            f"raised {resp.get('error')}", None
    if resp["code"] != 0:
        return "failed", f"exit code {resp['code']}: {resp['out'][:200]!r}", None
    try:
        report = json.loads(resp["out"])["report"]
        problem = check_answer(item, report, done)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return "failed", f"unreadable report: {type(exc).__name__}: {exc}", None
    if problem == "undecided":
        return "undecided", f"certificate {report['status']}", report
    if problem:
        return "failed", problem, report
    actual = _sha256_bytes(resp["out"].encode("utf-8"))
    if digest is RECORDING:
        return "verified", None, report
    if digest is None:
        if lenient:
            return ("verified", "decided; no digest recorded (it was undecided "
                    "when digests.json was recorded)", report)
        return "failed", "no stdout digest recorded for this item", report
    if actual != digest:
        return "failed", f"stdout sha256 {actual} != recorded {digest}", report
    return "verified", None, report


# -- passes --------------------------------------------------------------------

def _prepare_chain(item: dict, done: dict) -> None:
    """Write the script a chained item replays from its source's report."""
    source = done.get(item.get("script_from"))
    if source is not None:
        with open(item["argv"][2], "w", encoding="utf-8") as fh:
            fh.write(_render(source["script"]) + "\n")


def run_item(worker: Worker, item: dict, deadline: float, digest, done: dict) -> dict:
    """Run one item through the CLI and judge it."""
    if "script_from" in item:
        _prepare_chain(item, done)
    resp = worker.request({"op": "cli", "argv": item["argv"]}, deadline)
    outcome, message, report = judge(item, resp, deadline, digest, done)
    if report is not None:
        done[item["name"]] = report
    return {"item": item, "outcome": outcome, "message": message,
            "elapsed": deadline if resp is None else resp.get("elapsed", deadline),
            "ref_s": None if resp is None else resp.get("ref_s"),
            "out": None if resp is None else resp.get("out")}


def run_pass(worker: Worker, manifest: dict, digests: dict,
             recording: bool = False, traced: bool = False) -> list:
    """Run every item once; return one record per item.

    With ``traced`` each item is replayed through the probes right after
    its untraced run, so that the two are timed close together.
    """
    deadline = manifest["deadline_s"]
    done = {}
    records = []
    for item in manifest["items"]:
        rec = run_item(worker, item, deadline,
                       RECORDING if recording else digests.get(item["name"]), done)
        if traced:
            rec["replay"] = worker.request(
                {"op": "replay", "argv": item["argv"], "out": rec["out"] or ""},
                deadline)
        records.append(rec)
    return records


def measure(worker, manifest, digests, seconds, traced, smallest):
    """Passes over the item list until ``seconds`` is used up.

    Returns ``(rounds, partial, repeats)``: the whole passes, the records
    of a last pass cut short, and the extra runs of the largest item.

    Traced runs, the smoke test's single pass and a workload without a
    named largest item make whole passes while one more fits (the first
    always runs).  Untraced runs give about REPEAT_SHARE of their time to
    the named largest item (its run in each pass included): after every
    item it runs again while its share is short, so that its samples are
    spread over the whole run, not bunched in one stretch of a host whose
    speed drifts.  There the first pass always runs whole, a later pass
    stops at the first item whose first-pass time no longer fits, and
    the largest item is not repeated once its time no longer fits.
    """
    t0 = time.monotonic()
    items = manifest["items"]
    largest = next((i for i in items if i["name"] == manifest["largest"]), None)
    if traced or smallest or largest is None:
        rounds = []
        while True:
            start = time.monotonic()
            rounds.append(run_pass(worker, manifest, digests, traced=traced))
            took = time.monotonic() - start
            if smallest or time.monotonic() - t0 + took > seconds:
                return rounds, [], []

    def fits(name):
        return time.monotonic() - t0 + cost[name] <= seconds

    deadline = manifest["deadline_s"]
    rounds, records, repeats = [], [], []
    cost = {}                       # each item's wall time in the first pass
    busy = {True: 0.0, False: 0.0}  # time on the largest item, on the others
    done = {}
    while True:
        for item in items:
            if rounds and not fits(item["name"]):
                return rounds, records, repeats
            start = time.monotonic()
            rec = run_item(worker, item, deadline, digests.get(item["name"]), done)
            records.append(rec)
            cost.setdefault(item["name"], time.monotonic() - start)
            busy[item is largest] += rec["elapsed"]
            while busy[True] < REPEAT_SHARE * (busy[True] + busy[False]):
                if largest["name"] in cost and not fits(largest["name"]):
                    break
                repeats.append(run_item(worker, largest, deadline,
                                        digests.get(largest["name"]), {}))
                busy[True] += repeats[-1]["elapsed"]
        rounds.append(records)
        records, done = [], {}


def host_scaled(rec: dict) -> float:
    """An item's wall time at the nominal host speed.

    The wall time times REF_NOMINAL_S over the reference loop's time
    measured in the worker right before and after the item.  A missed
    deadline, which has no such measurement, counts as its wall time.
    """
    ref = rec.get("ref_s")
    return rec["elapsed"] * REF_NOMINAL_S / ref if ref else rec["elapsed"]


def end_to_end(rounds, extra, manifest, setup_times, peak_rss_kb) -> dict:
    """The end-to-end metrics of an untraced run.

    ``verified_frac`` counts the whole passes.  ``items_per_s`` is that
    share of the item list over the time of one pass, with each item's
    time the median of all its runs in this run (cut pass and repeats
    included), so that a few long items timed once do not decide it.
    Item times are scaled to the nominal host speed (``host_scaled``).
    """
    passes = [r for records in rounds for r in records]
    times = {}
    for rec in passes + extra:
        times.setdefault(rec["item"]["name"], []).append(host_scaled(rec))
    pass_s = sum(statistics.median(times[i["name"]]) for i in manifest["items"])
    verified_frac = sum(r["outcome"] == "verified" for r in passes) / len(passes)
    name = manifest["largest"] or passes[0]["item"]["name"]
    return {
        "items_per_s": (verified_frac * len(manifest["items"]) / pass_s, "1/s"),
        "largest_item_s": (statistics.median(times[name]), "s"),
        "verified_frac": (verified_frac, "frac"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer(rounds, workload: str, spec: dict):
    """Median over traced passes of each layer's per-pass total."""
    per_pass = []
    seen = set()
    for records in rounds:
        totals = {}
        cli_self = 0.0
        base = traced = 0.0
        for rec in records:
            rep = rec["replay"]
            if rep is None or "values" not in rep:
                continue
            for name, v in rep["values"].items():
                totals[name] = totals.get(name, 0.0) + v
            seen.update(rep["seen"])
            if rec["out"] and not rep["error"]:
                cli_self += rec["elapsed"] - rep["covered"]
                base += rec["elapsed"]
                traced += rep["elapsed"]
        if "homology.chain_complex_s" in totals:
            totals["homology.chain_build_s"] = (totals["homology.chain_complex_s"]
                                                - totals.get("homology.square_zero_s", 0.0))
            seen.add("homology.chain_build_s")
        if base:
            totals["cli.self_s"] = cli_self
            seen.add("cli.self_s")
            totals["trace.overhead_frac"] = (traced - base) / base
        per_pass.append(totals)
    missing = [m for m in COMMON_LAYERS + EXPECTED[workload] if m not in seen]
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.layers_missing":
            value = len(missing)
        else:
            value = statistics.median(t.get(name, 0.0) for t in per_pass)
            if m["unit"] in ("count", "B"):
                value = int(round(value))
        metrics[name] = (value, m["unit"])
    return metrics, missing


def load_digests(workload: str, variant) -> dict:
    try:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return {}
    return table.get(workload, {}).get("fixed" if variant is None else str(variant), {})


def report_problems(records) -> int:
    """Print each failed or undecided item once; return the failure count."""
    failed = 0
    shown = set()
    for rec in records:
        name = rec["item"]["name"]
        if rec["outcome"] == "failed":
            failed += 1
        notes = []
        if rec["outcome"] != "verified" or rec["message"]:
            notes.append(f"{rec['outcome'].upper()} {name}: {rec['message']}")
        if (rec.get("replay") or {}).get("error"):
            notes.append(f"PROBE {name}: replay stopped: {rec['replay']['error']}")
        for note in notes:
            if note not in shown:
                shown.add(note)
                print(note)
    return failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="sncx benchmark")
    p.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smallest", action="store_true",
                   help="run only the smallest item, once (smoke test)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sncx", "cli.py")):
        print(f"no sncx sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    # a terminated run still stops its worker, through the finally below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    os.chdir(ROOT)
    out_dir = os.path.join(WORK_DIR, args.workload)
    worker = Worker()
    try:
        manifest, setup_times = set_up(args.workload, args.seed, out_dir,
                                       1 if args.smallest else SETUP_REPS,
                                       args.smallest)
        digests = load_digests(args.workload, manifest["variant"])
        rounds, partial, repeats = measure(worker, manifest, digests,
                                           args.seconds, bool(args.trace),
                                           args.smallest)
    finally:
        worker.close(kill=True)
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    everything = [r for records in rounds for r in records] + partial + repeats
    failed = report_problems(everything)
    attempted = len(everything)
    if args.trace:
        metrics, missing = per_layer(rounds, args.workload, spec)
        if missing:
            print(f"MISSING per-layer metrics on {args.workload}: {', '.join(missing)}")
    else:
        # the worker's peak over the items it answered: a worker killed at
        # a deadline holds as much as the host's speed let it reach
        metrics = end_to_end(rounds, partial + repeats, manifest, setup_times,
                             worker.peak_rss_kb)
    print(f"{args.workload} seed {args.seed} (variant {manifest['variant']}): "
          f"{len(rounds)} whole pass(es), {len(partial)} items of a cut pass and "
          f"{len(repeats)} repeats of the largest item, "
          f"{attempted} items, {failed} failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
