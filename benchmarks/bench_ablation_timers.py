"""Ablation: the TCP timer rule, raced on the stack itself.

Paper §2.1: "practically every message arrival and departure involves
timer operations.  Once again, fast implementations of timer events are
well known, e.g., using hierarchical timing wheels."

The stack's answer is the kept engine event (``MachineRunner``): an
armed timer keeps one event, a re-arm to a later deadline stores it and
a cancel clears it.  Its rival is the eager rule
(``tests/org/eager_timers.py``): a fresh event per arm and a cancelled
one per re-arm or cancel, each a tombstone the engine skips.  This
bench runs the ledger's own ``pingpong`` and ``churn`` worlds at a
reduced scale under each rule and reports, per rule, the ledger's
``sim.events_per_op`` and ``sim.cancelled_share`` and the Python calls
per op (every call cProfile sees in the run, as the ledger counts
``py_calls_per_op``).

Gates: the two rules deliver the same bytes and the same simulated
results; on ``pingpong``, where every trip re-arms the retransmit and
delayed-ACK timers at both ends, kept takes strictly fewer events and
calls per op; on ``churn`` it takes no more.
"""

import cProfile
import gc

import pytest

from benchmarks.ledger.workloads import build_churn, build_pingpong
from tests.org.eager_timers import eager_timers

SEED = 1993
#: world -> (builder, scale): 150 trips and 30 connect-send-close
#: cycles per network.
WORLDS = {
    "pingpong": (build_pingpong, 0.1),
    "churn": (build_churn, 0.1),
}


def run_rule(world_name: str) -> dict:
    """Build and run one world under the rule in force; its outputs and
    costs.  Garbage earlier worlds left is collected first and none is
    collected inside the count, so no other world's finaliser counts."""
    build, scale = WORLDS[world_name]
    world = build(SEED, scale)
    profiler = cProfile.Profile()
    gc.collect()
    gc.disable()
    try:
        profiler.runcall(world.run)
    finally:
        gc.enable()
    outcome = world.outcome()
    engines = [arm.bed.sim.engine_stats() for arm in world.arms]
    events = sum(stats["events"] for stats in engines)
    cancelled = sum(stats["cancelled"] for stats in engines)
    return {
        "digests": [arm.result().digests for arm in world.arms],
        "sim": outcome.sim,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "events_per_op": events / outcome.ops,
        "cancelled_share": cancelled / events,
        "calls_per_op": sum(entry.callcount for entry in profiler.getstats()) / outcome.ops,
    }


def race(world_name: str) -> dict:
    kept = run_rule(world_name)
    with eager_timers():
        eager = run_rule(world_name)
    return {"kept": kept, "eager": eager}


@pytest.mark.parametrize("world_name", list(WORLDS))
def test_ablation_timer_rule(benchmark, world_name):
    rules = benchmark.pedantic(race, args=(world_name,), rounds=1, iterations=1)
    kept, eager = rules["kept"], rules["eager"]
    for rule, result in rules.items():
        benchmark.extra_info[rule] = {
            key: result[key] for key in ("events_per_op", "cancelled_share", "calls_per_op")
        }
        assert result["failed"] == 0 and result["problems"] == [], rule
    # The rule is bookkeeping: what the applications saw is unchanged.
    assert kept["digests"] == eager["digests"]
    assert kept["sim"] == eager["sim"]
    if world_name == "pingpong":
        assert kept["events_per_op"] < eager["events_per_op"]
        assert kept["calls_per_op"] < eager["calls_per_op"]
    else:
        assert kept["events_per_op"] <= eager["events_per_op"]
        assert kept["calls_per_op"] <= eager["calls_per_op"]
