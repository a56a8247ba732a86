#!/usr/bin/env python3
"""Interleaved parent/change pairs of one ledger workload.

    python tools/bench_pairs.py BASE_DIR CHANGE_DIR WORKLOAD PAIRS

``BASE_DIR`` and ``CHANGE_DIR`` are two checkouts (say, ``git clone``
of the parent commit and the working tree).  Each pair runs
``BENCHMARK.json``'s command for ``WORKLOAD`` with the manifest's
``run_seconds`` once in each checkout, both on the pair's seed (1994,
1995, ...), alternating which side goes first.  Each run's last stdout
line is its JSON result.  Printed, for each end-to-end metric the
manifest declares (its ``end_to_end`` names, each judged in its
``better`` direction): every pair's two values, each side's median and
quartiles, how many pairs the change won (ties count for neither), and
whether the gain rule holds — the change wins at least nine tenths of
the pairs and the medians differ by more than the distance between the
base's quartiles.

No flags: the run length is the benchmark's, and the seeds are fixed so
two invocations compare like with like.
"""

import json
import os
import statistics
import subprocess
import sys

FIRST_SEED = 1994


def _manifest(checkout: str) -> dict:
    with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(checkout: str, command: list, workload: str, seconds: float, seed: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    child = subprocess.run(
        argv, cwd=checkout, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode or not lines:
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited {child.returncode}\n{child.stderr[-2000:]}")
    return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}


def _quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    base_dir, change_dir, workload, pairs = args[0], args[1], args[2], int(args[3])
    if pairs < 2:
        raise SystemExit("quartiles need at least two pairs")
    manifest = _manifest(change_dir)
    if _manifest(base_dir)["command"] != manifest["command"]:
        raise SystemExit("the two checkouts declare different benchmark commands")
    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    sides = {"base": base_dir, "change": change_dir}
    runs = {"base": [], "change": []}
    print(f"{workload}: {pairs} pairs, {manifest['run_seconds']} s a run")
    print(f"{'pair':>4} {'seed':>5} {'first':>6}  " + "  ".join(
        f"{m + ' base':>22} {'change':>10}" for m in better))
    for k in range(pairs):
        seed = FIRST_SEED + k
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(_run(
                sides[side], manifest["command"], workload, manifest["run_seconds"], seed))
        print(f"{k + 1:>4} {seed:>5} {order[0]:>6}  " + "  ".join(
            f"{runs['base'][k][m]:>22.4g} {runs['change'][k][m]:>10.4g}" for m in better))
    for metric in better:
        base = [run[metric] for run in runs["base"]]
        change = [run[metric] for run in runs["change"]]
        sign = 1 if better[metric] == "lower" else -1
        wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
        (bq1, bmed, bq3), (cq1, cmed, cq3) = _quartiles(base), _quartiles(change)
        rule = wins >= 0.9 * pairs and sign * (bmed - cmed) > bq3 - bq1
        print(
            f"{metric} ({better[metric]} is better): "
            f"base median {bmed:.4g} (q1 {bq1:.4g}, q3 {bq3:.4g}), "
            f"change median {cmed:.4g} (q1 {cq1:.4g}, q3 {cq3:.4g}), "
            f"{(cmed - bmed) / bmed:+.1%}; change wins {wins}/{pairs}; "
            f"gain rule {'holds' if rule else 'does not hold'}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
