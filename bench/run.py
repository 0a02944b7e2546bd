#!/usr/bin/env python3
"""Layered benchmark of superquad.

    python3 bench/run.py --workload decompose --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from the seed (three times, to time set-up),
then runs whole rounds of its operations until ``--seconds`` have passed,
checking every output with the independent oracle in ``oracle.py``.
With ``--trace 1`` it also installs the per-layer tracer, builds the
inputs once more and runs one traced round, and reports the per-layer
metrics instead of the end-to-end ones.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the full
result (per-operation times, failures, every layer figure) is written to
``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import types
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
STARTUP_REPEATS = 5
MODULES = ("linalg", "superalgebra", "forms", "cohomology", "tstar",
           "decompose", "gallery", "dsl", "cli", "errors")

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("op_max_s", "s"),
              ("peak_rss_mb", "MB"))


# (name, unit, better): every one is printed by a traced run
PER_LAYER = tuple(
    [("linalg.rowreducer.rows", "count", "lower"),
     ("linalg.rowreducer.pivots", "count", "higher"),
     ("linalg.rowreducer.useful_ratio", "ratio", "higher"),
     ("linalg.rowreducer.self_s", "s", "lower")]
    + [(f"{g}.{m}", u, "lower")
       for g in ("linalg.solve", "linalg.rref", "linalg.diagonalize_symmetric",
                 "linalg.charpoly", "forms.apply", "forms.invariance_violation",
                 "superalgebra.bracket", "superalgebra.contains_vector",
                 "superalgebra.subspace", "superalgebra.check_axioms",
                 "cohomology.containers", "tstar.build",
                 "tstar.verify_isometry", "decompose.isotropic_vector",
                 "dsl.parse", "dsl.emit")
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"{g}.self_s", "s", "lower")
       for g in ("forms.orthogonal", "forms.isotropic_complement",
                 "superalgebra.is_ideal", "superalgebra.quotient",
                 "superalgebra.lower_central_series",
                 "cohomology.z2_supercyclic_basis", "cohomology.z3_basis",
                 "cohomology.b3_basis", "cohomology.cohomologous",
                 "cohomology.delta_scalar2", "cohomology.cocycle2_violation",
                 "cohomology.supercyclic_violation", "tstar.recognize",
                 "tstar.s_phi_isometry", "decompose.max_isotropic_ideal",
                 "cli.main", "gallery.build")]
    + [("decompose.flag_steps", "count", "higher"),
       ("decompose.isotropic_vector.found", "count", "higher"),
       ("cli.startup_s", "s", "lower"),
       ("trace.run_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")])

WORKLOADS = ("decompose", "cohomology", "extension", "cli")


def import_library():
    """Import superquad from this checkout's src/, afresh each time."""
    for name in [m for m in sys.modules
                 if m == "superquad" or m.startswith("superquad.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(sq=importlib.import_module("superquad"),
                                quiet=contextlib.nullcontext)
    for m in MODULES:
        setattr(lib, m, importlib.import_module(f"superquad.{m}"))
    where = pathlib.Path(lib.sq.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"superquad was imported from {where}, not {SRC}")
    return lib


def build_ops(lib, workload: str, seed: int, smoke: bool, in_process=False):
    import cli_workload
    import workloads
    if workload == "cli":
        return cli_workload.cli_ops(lib, seed, smoke, ROOT, OUT / "work",
                                    in_process=in_process)
    return getattr(workloads, f"{workload}_ops")(lib, seed, smoke)


def verdict(op, out, err, state):
    """None if the operation's outcome passes its checks, else a reason."""
    import oracle
    if err is not None:
        if type(err).__name__ != op.expect:
            return f"unexpected {type(err).__name__}: {err}"
        out = err
    elif op.expect is not None:
        return f"expected {op.expect}, got a result"
    try:
        op.check(state, out)
    except oracle.OracleError as exc:
        return f"oracle: {exc}"
    except Exception as exc:  # a check that cannot run is a failed output
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def by_command(ops, values) -> list:
    """The median of each command's values in a round: a command repeated
    within the round (operations sharing a ``key``) counts once."""
    groups: dict = {}
    for op, v in zip(ops, values):
        groups.setdefault(op.key, []).append(v)
    return [statistics.median(vs) for vs in groups.values()]


class Round:
    """One pass over the operations: reference-speed and raw wall time of
    each, and the (operation, reason, excused) triples that failed; a
    failure is excused when the operation raised its known fault."""

    def __init__(self, ops):
        self.ops = ops
        self.times: list[float] = []
        self.wall: list[float] = []
        self.failures: list = []

    @property
    def run_s(self) -> float:
        return sum(by_command(self.ops, self.times))

    @property
    def wall_s(self) -> float:
        return sum(by_command(self.ops, self.wall))

    @property
    def op_max_s(self) -> float:
        return max(by_command(self.ops, self.times))


def run_round(lib, ops, clock, children=False) -> Round:
    """Times each operation; inputs and checks stay outside the timing.
    With ``children`` the operations run child processes, and the clock
    samples the speed right before and after each (see ``clock.manual``)."""
    state: dict = {}
    rnd = Round(ops)
    for op in ops:
        try:
            with lib.quiet():
                args = op.prepare(state) if op.prepare else ()
        except Exception as exc:  # keep going: this op counts as failed
            rnd.times.append(0.0)
            rnd.wall.append(0.0)
            rnd.failures.append(
                (op, f"prepare raised {type(exc).__name__}: {exc}", False))
            continue
        out = err = None
        if children:
            clock.tick()
        t0, w0 = clock.now(), perf_counter()
        try:
            out = op.run(*args)
        except Exception as exc:  # judged by verdict below
            err = exc
        wall = perf_counter() - w0
        if children:
            clock.tick()
        rnd.wall.append(wall)
        rnd.times.append(clock.now() - t0)
        with lib.quiet():
            reason = verdict(op, out, err, state)
        if reason is not None:
            known = op.fault is not None and type(err).__name__ == op.fault
            rnd.failures.append((op, reason, known))
    return rnd


def cli_startup_s(clock) -> float:
    """Median time of a trivial CLI invocation."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    with clock.manual():
        for _ in range(STARTUP_REPEATS):
            clock.tick()
            t0 = clock.now()
            subprocess.run([sys.executable, "-m", "superquad.cli", "example",
                            "stock", "heisenberg3"], cwd=ROOT, env=env,
                           stdout=subprocess.DEVNULL, check=True, timeout=60)
            clock.tick()
            times.append(clock.now() - t0)
    return statistics.median(times)


def traced(lib, args, clock, untraced_run_s: float):
    """One traced set-up and round; returns (layer metrics, round)."""
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    lib.quiet = tracer.paused
    try:
        ops = build_ops(lib, args.workload, args.seed, args.smoke,
                        in_process=True)
        rnd = run_round(lib, ops, clock)
    finally:
        tracer.uninstall()
        lib.quiet = contextlib.nullcontext
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    rows = counters["linalg.rowreducer.rows"]
    layers = {}
    for name, unit, _ in PER_LAYER:
        group, _, kind = name.rpartition(".")
        if name in counters:
            value = counters[name]
        elif name == "linalg.rowreducer.useful_ratio":
            value = counters["linalg.rowreducer.pivots"] / rows if rows else 0.0
        elif kind == "calls":
            value = calls[group]
        elif name == "cli.startup_s":
            value = cli_startup_s(clock)
        elif name == "trace.run_s":
            value = rnd.run_s
        elif name == "trace.overhead_s":
            value = rnd.run_s - untraced_run_s
        else:
            value = self_s[group]
        layers[name] = {"value": value, "unit": unit}
    return layers, rnd


def measure(args, clock):
    """Set-up, timed rounds and (with --trace 1) the traced round."""
    setup_times, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        t0, w0 = clock.now(), perf_counter()
        lib = import_library()
        ops = build_ops(lib, args.workload, args.seed, args.smoke)
        setup_times.append(clock.now() - t0)
        setup_wall.append(perf_counter() - w0)

    timed = []
    children = args.workload == "cli"
    start = perf_counter()
    with clock.manual() if children else contextlib.nullcontext():
        while not timed or perf_counter() - start < args.seconds:
            timed.append(run_round(lib, ops, clock, children))
    rounds = list(timed)
    run_s = statistics.median(r.run_s for r in timed)
    layers = None
    if args.trace:
        untraced = run_s
        if args.workload == "cli":  # compare like with like: in-process
            rnd = run_round(lib, build_ops(lib, "cli", args.seed, args.smoke,
                                           in_process=True), clock)
            rounds.append(rnd)
            untraced = rnd.run_s
        layers, rnd = traced(lib, args, clock, untraced)
        rounds.append(rnd)

    who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
           else resource.RUSAGE_SELF)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "op_max_s": statistics.median(r.op_max_s for r in timed),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    wall = {"setup_s": statistics.median(setup_wall),
            "run_s": statistics.median(r.wall_s for r in timed)}
    return ops, timed, rounds, end_to_end, wall, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest rung only (the self-test)")
    args = ap.parse_args(argv)
    if not (SRC / "superquad" / "__init__.py").is_file():
        print(f"error: no superquad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from clock import SpeedClock

    clock = SpeedClock()
    clock.start()
    try:
        ops, timed, rounds, end_to_end, wall, layers = measure(args, clock)
    finally:
        clock.stop()

    failures = {}
    for r in rounds:
        for op, reason, ok in r.failures:
            failures.setdefault(op.name, (ok, reason))
    attempted = sum(len(r.times) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    correct = all(ok for r in rounds for _, _, ok in r.failures)

    per_op = {op.name: statistics.median(r.times[i] for r in timed)
              for i, op in enumerate(ops)}
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{len(ops)} operations x {len(rounds)} rounds")
    for name, t in sorted(per_op.items(), key=lambda x: -x[1])[:8]:
        print(f"#   {t:9.4f} s  {name}")
    for name, (ok, reason) in failures.items():
        print(f"# FAILED{' (known fault)' if ok else ''}: {name}: {reason}")
    for name, unit in END_TO_END:
        print(f"# {name} = {end_to_end[name]:.6g} {unit}")
    if layers is not None:
        for name, m in layers.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}")

    metrics = ({name: {"value": end_to_end[name], "unit": unit}
                for name, unit in END_TO_END} if layers is None else layers)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed,
         "seconds": args.seconds, "rounds": len(rounds),
         "python": platform.python_version(), "end_to_end": end_to_end,
         "raw_wall": wall, "operations": per_op,
         "failures": {k: v[1] for k, v in failures.items()}},
        indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
