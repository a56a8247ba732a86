"""Command lines: the driver's contract entry and ``python -m
benchmarks.ledger run | compare | smoke``."""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time

from . import env

DEFAULT_SEED = 1993
MANIFEST = env.ROOT / "BENCHMARK.json"
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SMOKE_SCALE, SMOKE_REPS, SMOKE_BUDGET_S = 1 / 20, 2, 30.0


def _manifest() -> dict:
    with open(MANIFEST) as handle:
        return json.load(handle)


def _prepare():
    """Pin the process, time the program's import, load the harness."""
    env.pin_hashseed()
    env.add_program_path()
    import_s = env.time_program_import()
    from . import harness

    return harness, import_s


def _show(record: dict) -> None:
    """Every metric by name, with its unit."""
    print(
        f"== {record['workload']}  seed={record['seed']} scale={record['scale']:g}  "
        f"{record['ops']:g} {record['op']}  failed {record['failed']}/{record['attempted']}  "
        f"digest {record['outcome_digest'][:16]}"
    )
    for name, metric in record["end_to_end"].items():
        line = f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}"
        if "n" in metric:
            line += (
                f"   q1 {metric['q1']:.6g}  q3 {metric['q3']:.6g}  "
                f"min {metric['min']:.6g}  n={metric['n']}"
            )
        print(line)
    for name, value in record["info"].items():
        print(f"  (info) {name:<35} {value:>14.6g}")
    for name, metric in record["per_layer"].items():
        value = "n/a" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {name:<42} {value:>14} {metric['unit']}")
    for note in record["notes"]:
        print(f"  note: {note}")
    for problem in record["problems"]:
        print(f"  FAILED CHECK: {problem}")


def _names(args_workload: str, known) -> list:
    if args_workload == "all":
        return list(known)
    if args_workload not in known:
        raise SystemExit(f"ledger: unknown workload {args_workload!r}; choose from {', '.join(known)} or all")
    return [args_workload]


# ----------------------------------------------------------------------
# The driver's entry: one workload, one JSON object on the last line
# ----------------------------------------------------------------------

def contract_main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one ledger workload for the benchmark driver.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness, import_s = _prepare()
    manifest = _manifest()
    (name,) = _names(args.workload, [w["name"] for w in manifest["workloads"]])
    record = harness.run_workload(
        name, args.seed, import_s=import_s, seconds=args.seconds, trace=bool(args.trace)
    )
    _show(record)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for declared in manifest[section]:
        measured = record[section][declared["name"]]
        # An absent source or a metric another workload owns reads 0
        # here (the table above says n/a): the driver wants a number.
        metrics[declared["name"]] = {"value": measured["value"] or 0.0, "unit": declared["unit"]}
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


# ----------------------------------------------------------------------
# python -m benchmarks.ledger
# ----------------------------------------------------------------------

def _run(args) -> int:
    harness, import_s = _prepare()
    from .workloads import WORKLOADS

    names = _names(args.workload, WORKLOADS)
    if len(names) == 1:
        record = harness.run_workload(names[0], args.seed, import_s=import_s)
        _show(record)
        records = [record]
    else:
        # One process per workload: peak RSS is a high-water mark, and
        # set-up should not inherit the previous workload's warm state.
        records = []
        with tempfile.TemporaryDirectory() as scratch:
            for name in names:
                out = os.path.join(scratch, f"{name}.json")
                child = subprocess.run(
                    [sys.executable, "-m", "benchmarks.ledger", "run", name,
                     "--seed", str(args.seed), "--out", out],
                    cwd=env.ROOT,
                )
                if not os.path.exists(out):
                    raise SystemExit(f"ledger: workload {name} wrote no result (exit {child.returncode})")
                with open(out) as handle:
                    records.extend(json.load(handle)["results"])
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"schema": 1, "env": env.describe(), "results": records}, handle, indent=1)
    return 0 if all(r["correct"] for r in records) else 1


def _compare(args) -> int:
    from .compare import compare

    return compare(args.base, args.new)


def _smoke(args) -> int:
    """Every workload, small, both traced passes; names checked against
    the manifest both ways."""
    started = time.perf_counter()
    harness, import_s = _prepare()
    from .workloads import WORKLOADS

    manifest = _manifest()
    faults = []
    declared_workloads = [w["name"] for w in manifest["workloads"]]
    if declared_workloads != list(WORKLOADS):
        faults.append(f"workloads: manifest {declared_workloads} != ledger {list(WORKLOADS)}")
    for name in WORKLOADS:
        record = harness.run_workload(
            name, DEFAULT_SEED, import_s=import_s, scale=SMOKE_SCALE, reps=SMOKE_REPS
        )
        _show(record)
        faults.extend(record["problems"])
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"] for m in manifest[section]}
            printed = set(record[section])
            faults.extend(f"{name}: {section} metric {m} declared but not printed" for m in sorted(declared - printed))
            faults.extend(f"{name}: {section} metric {m} printed but not declared" for m in sorted(printed - declared))
            faults.extend(f"{name}: bad metric name {m!r}" for m in sorted(printed) if not NAME_RE.match(m))
    elapsed = time.perf_counter() - started
    if elapsed > SMOKE_BUDGET_S:
        faults.append(f"smoke took {elapsed:.1f} s, budget {SMOKE_BUDGET_S:.0f} s")
    for fault in faults:
        print(f"SMOKE FAULT: {fault}")
    print(f"smoke: {len(WORKLOADS)} workloads in {elapsed:.1f} s, {len(faults)} faults")
    return 1 if faults else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload (or all) and print every metric")
    run.add_argument("workload")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--out", help="write the result JSON here")
    run.set_defaults(handler=_run)
    cmp_ = commands.add_parser("compare", help="verdict per (metric, workload) between two result files")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    cmp_.set_defaults(handler=_compare)
    smoke = commands.add_parser("smoke", help="every workload at 1/20 size; validates names against BENCHMARK.json")
    smoke.set_defaults(handler=_smoke)
    args = parser.parse_args(argv)
    return args.handler(args)
