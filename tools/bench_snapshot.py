#!/usr/bin/env python3
"""Condense a ledger result file into the per-PR trajectory snapshot.

ROADMAP item 2: each PR commits a compact ``BENCH_<pr>.json`` at the
repo root — the four end-to-end metrics, every layer's
``<layer>.calls_per_op``, the ``sim.*`` and ``net.buf.*`` rows,
``paper_err_pct`` and the outcome digest of the six workloads — so a
re-anchor reads a trajectory instead of reconstructing one from prose::

    python -m benchmarks.ledger run all --out ledger.json
    python tools/bench_snapshot.py ledger.json BENCH_17.json

Every layer's call count is kept because the largest layer is not the
same on every workload: ``BENCH_16.json`` carried ``sim.*`` alone, and
``net.buf`` being the largest layer on ``fabric`` went unseen.

Host-time values (``host_us_per_op``, ``setup_s``, ``*.self_us_per_op``)
are one run on one box: trend only.  The counted rows are exact.
"""

import json
import sys


def _round(value):
    return round(value, 4) if isinstance(value, float) else value


def snapshot(ledger: dict) -> dict:
    workloads = {}
    for result in ledger["results"]:
        layers = result["per_layer"]
        row = {
            name: _round(metric["value"])
            for name, metric in result["end_to_end"].items()
        }
        row.update(
            (name, _round(metric["value"]))
            for name, metric in layers.items()
            if name.startswith(("sim.", "net.buf."))
            or name.endswith(".calls_per_op")
            or name == "paper_err_pct"
        )
        row["outcome_digest"] = result["outcome_digest"]
        workloads[result["workload"]] = row
    seeds = {result["seed"] for result in ledger["results"]}
    return {"ledger_schema": ledger["schema"], "seed": sorted(seeds), "workloads": workloads}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    source, target = args
    with open(source) as fh:
        compact = snapshot(json.load(fh))
    with open(target, "w") as fh:
        json.dump(compact, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{target}: {len(compact['workloads'])} workloads")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
