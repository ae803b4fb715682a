"""Smoke test of the benchmark: schema and references, never timings.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smallest_item(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "0", "--seconds", "1",
                   "--trace", str(trace), "--smallest"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in group}
    for m in group:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _response(report, code=0):
    out = json.dumps({"report": report})
    return {"code": code, "out": out, "elapsed": 0.1, "error": None}


HOMOLOGY_ITEM = {"name": "sd0-rp2", "argv": ["homology", "x.json"],
                 "ref": {"kind": "homology", "nonzero": [[0, 1, []], [1, 0, [2]]]}}
RP2_ROWS = [{"degree": 0, "betti": 1, "torsion": []},
            {"degree": 1, "betti": 0, "torsion": [2]},
            {"degree": 2, "betti": 0, "torsion": []}]


def test_judge_checks_answer_and_bytes():
    resp = _response({"reports": [{"homology": RP2_ROWS}]})
    digest = run._sha256_bytes(resp["out"].encode())
    assert run.judge(HOMOLOGY_ITEM, resp, 5.0, digest, {})[0] == "verified"
    assert run.judge(HOMOLOGY_ITEM, resp, 5.0, "0" * 64, {})[0] == "failed"
    assert run.judge(HOMOLOGY_ITEM, resp, 5.0, None, {})[0] == "failed"
    wrong = _response({"reports": [{"homology": RP2_ROWS[:1]}]})
    outcome, message, _ = run.judge(HOMOLOGY_ITEM, wrong, 5.0, digest, {})
    assert outcome == "failed" and "homology" in message
    assert run.judge(HOMOLOGY_ITEM, None, 5.0, digest, {})[0] == "failed"


def test_judge_lets_named_items_stay_undecided():
    item = {"name": "skel-d6-4", "argv": ["certify"], "may_be_undecided": True,
            "ref": {"kind": "certify", "status": "certified-wedge", "count": 6}}
    assert run.judge(item, None, 5.0, None, {})[0] == "undecided"
    raised = {"code": None, "out": "", "elapsed": 1.0, "error": "RecursionError: x"}
    assert run.judge(item, raised, 5.0, None, {})[0] == "undecided"
    open_ = _response({"status": "rational-homology-wedge", "count": 6})
    assert run.judge(item, open_, 5.0, None, {})[0] == "undecided"
    wrong = _response({"status": "certified-wedge", "count": 5})
    assert run.judge(item, wrong, 5.0, None, {})[0] == "failed"
    right = _response({"status": "certified-wedge", "count": 6})
    assert run.judge(item, right, 5.0, None, {})[0] == "verified"
