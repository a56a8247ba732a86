"""The committed ``BENCH_<pr>.json`` trajectory, held to two rules.

Every PR writes one snapshot of the ledger (``tools/bench_snapshot.py``,
seed 1993).  The files are the repo's perf history, and two of its
standing claims are checkable from them alone — so tier-1 checks them
instead of a CHANGES.md sentence asserting them:

* **calls never creep back**: between consecutive snapshots no
  workload's ``py_calls_per_op`` (exact for a seed) rises by more than
  the 0.5 % the ledger's own ``compare`` allows two runs of one seed;
* **"every simulated outcome bit-identical"**: a workload's
  ``outcome_digest`` changes only at a snapshot listed in
  ``DIGEST_MOVED`` below, with what moved it.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: ``benchmarks/ledger/compare.py``'s RULES["py_calls_per_op"] bound.
CALLS_BOUND = 0.005

#: snapshot -> (the workloads whose digest it moved, why).
DIGEST_MOVED = {
    "BENCH_20": (
        {"bulk", "pingpong", "churn", "fabric", "dumbbell"},
        "interrupt context runs to completion: the digest covers "
        "engine_stats(), and a chain of callbacks schedules fewer engine "
        "events than the processes it replaced; no simulated instant or "
        "wire byte moved (sansio has no engine and kept its digest)",
    ),
    "BENCH_42": (
        {"bulk", "pingpong", "churn", "dumbbell"},
        "put-events left the schedule: Store.put hands its item over and "
        "schedules nothing, so a Mach message or an accepted connection is "
        "one engine event fewer in engine_stats(); no simulated instant or "
        "wire byte moved (no fabric datagram passes a Store, and sansio has no "
        "engine: both kept their digests)",
    ),
    "BENCH_46": (
        {"bulk", "pingpong", "churn", "dumbbell"},
        "TCP timers are kept in place: a re-arm to a later deadline stores it "
        "and a cancel clears it, so the tombstones and re-placed timer events "
        "leave engine_stats(); the digest with engine_stats() left out is "
        "equal on all six workloads, and no simulated instant or wire byte "
        "moved (fabric runs no TCP and sansio has no engine: both kept their "
        "digests)",
    ),
}


def snapshots() -> list:
    """(name, file contents) in PR order."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        number = re.fullmatch(r"BENCH_(\d+)", path.stem)
        assert number, f"{path.name}: a snapshot is named BENCH_<pr>.json"
        found.append((int(number.group(1)), path.stem, json.loads(path.read_text())))
    return [(name, data) for _, name, data in sorted(found)]


def consecutive():
    """((name, workloads), (next name, next workloads)) down the trajectory."""
    trajectory = [(name, data["workloads"]) for name, data in snapshots()]
    assert len(trajectory) >= 2
    return zip(trajectory, trajectory[1:])


def test_snapshots_share_one_seed_and_one_set_of_workloads():
    seeds = {name: data["seed"] for name, data in snapshots()}
    assert all(seed == [1993] for seed in seeds.values()), seeds
    names = {name: sorted(data["workloads"]) for name, data in snapshots()}
    assert len({tuple(n) for n in names.values()}) == 1, names


def test_py_calls_per_op_never_rises_between_snapshots():
    rises = [
        f"{workload}: {before_name} {before[workload]['py_calls_per_op']} -> "
        f"{after_name} {after[workload]['py_calls_per_op']}"
        for (before_name, before), (after_name, after) in consecutive()
        for workload in before
        if after[workload]["py_calls_per_op"]
        > before[workload]["py_calls_per_op"] * (1 + CALLS_BOUND)
    ]
    assert not rises, "py_calls_per_op rose by more than 0.5 %:\n" + "\n".join(rises)


def test_outcome_digests_move_only_where_the_table_says():
    moved = {}
    for (_, before), (after_name, after) in consecutive():
        changed = {w for w in before if after[w]["outcome_digest"] != before[w]["outcome_digest"]}
        if changed:
            moved[after_name] = changed
    listed = {name: workloads for name, (workloads, _reason) in DIGEST_MOVED.items()}
    assert moved == listed, (
        "a simulated outcome moved (or a listed move did not happen): "
        "name the snapshot, its workloads and the reason in DIGEST_MOVED"
    )
