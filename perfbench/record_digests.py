"""Record the stdout digests the benchmark checks reports against.

    python3 perfbench/record_digests.py [--workload NAME ...]

Runs every item of every workload once (every input variant of the
seeded workloads), checks each answer against its reference, and writes
the sha256 of each verified item's stdout to ``perfbench/digests.json``.
Run it at the commit whose CLI bytes later commits must reproduce; it
refuses to record when any item fails its reference.  Items that stay
undecided get no digest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def record(workload: str, table: dict) -> None:
    seeded = workload in run.gen.SEEDED
    seeds = range(run.gen.VARIANTS) if seeded else (0,)
    out_dir = os.path.join(run.WORK_DIR, workload)
    worker = run.Worker()
    try:
        for seed in seeds:
            manifest = run.gen.generate(workload, seed, out_dir)
            records = run.run_pass(worker, manifest, {}, recording=True)
            digests = {}
            for rec in records:
                name = rec["item"]["name"]
                if rec["outcome"] == "failed":
                    raise SystemExit(f"{workload} seed {seed}: {name}: {rec['message']}")
                if rec["outcome"] == "verified":
                    digests[name] = run._sha256_bytes(rec["out"].encode("utf-8"))
                print(f"{workload} seed {seed} {name}: {rec['outcome']} "
                      f"{rec['elapsed']:.3f} s", flush=True)
            key = str(manifest["variant"]) if seeded else "fixed"
            table.setdefault(workload, {})[key] = digests
    finally:
        worker.close()
        shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=run.gen.WORKLOADS)
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    os.chdir(run.ROOT)
    path = os.path.join(run.HERE, "digests.json")
    table = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
    for workload in args.workload or run.gen.WORKLOADS:
        record(workload, table)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
