"""Self-test of the benchmark: the smallest rung of every workload, untraced
and traced, through run.py exactly as the benchmark command runs it.

    python3 -m pytest -q bench/test_bench.py

The gate is that every run finishes, prints the documented result line,
and that every failed operation is one of the known-fault operations; no
time is asserted.  A unit case checks that a known-fault operation is
excused only for its named exception.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))


def run_bench(workload: str, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smallest_rung(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # correct: every failed operation is a known-fault one (README)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    """Without src/ next to it the benchmark exits non-zero, printing no
    result."""
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


class RationalPointNotFound(Exception):
    pass


class _WallClock:
    now = staticmethod(__import__("time").perf_counter)


def test_known_fault_excused_only_for_its_exception():
    """A known-fault operation that raises its named exception fails
    excused; one that raises anything else, or returns an output the
    oracle rejects, makes the run incorrect."""
    import run
    from common import Op
    from oracle import OracleError

    def raise_(exc):
        raise exc

    def reject(state, out):
        if not isinstance(out, Exception):
            raise OracleError("wrong ideal")

    fault = "RationalPointNotFound"
    ops = [Op("named fault", lambda: raise_(RationalPointNotFound()), reject,
              fault=fault),
           Op("other error", lambda: raise_(ValueError()), reject, fault=fault),
           Op("wrong output", lambda: 1, reject, fault=fault),
           Op("fine", lambda: 1, lambda state, out: None, fault=fault)]
    lib = type("Lib", (), {"quiet": staticmethod(contextlib.nullcontext)})
    rnd = run.run_round(lib, ops, _WallClock())
    got = {op.name: ok for op, _, ok in rnd.failures}
    assert got == {"named fault": True, "other error": False,
                   "wrong output": False}
