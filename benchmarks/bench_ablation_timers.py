"""Ablation: timer facility implementations.

Paper §2.1: "practically every message arrival and departure involves
timer operations.  Once again, fast implementations of timer events are
well known, e.g., using hierarchical timing wheels."

We benchmark the heap baseline against the hashed and hierarchical
wheels on a TCP-like workload — many short-lived timers that are
usually cancelled before firing (retransmission timers on a healthy
connection) — in both wall-clock time and abstract basic operations.
"""

import pytest

from repro.timers import HashedWheel, HeapTimers, HierarchicalWheel

FACTORIES = {
    "heap": HeapTimers,
    "hashed-wheel": lambda: HashedWheel(tick=0.01, slots=256),
    "hierarchical": lambda: HierarchicalWheel(tick=0.01, slots=32, levels=3),
}


def tcp_like_workload(factory, connections: int = 50, rounds: int = 200):
    """Each round arms a retransmission timer per connection, cancels
    most of them (the ACK arrived), lets a few fire, plus a spread of
    long-lived keepalive-style timers."""
    timers = factory()
    fired = []
    # Long-lived timers sprinkled over the horizon.
    for i in range(connections):
        timers.schedule(0.01 + (i % 20) * 0.15, lambda: fired.append("keep"))
    now = 0.0
    handles = []
    for round_index in range(rounds):
        now += 0.005
        for handle in handles:
            if round_index % 10:  # 90% of timers are cancelled (ACKed).
                handle.cancel()
        handles = [
            timers.schedule(0.5, lambda: fired.append("rexmt"))
            for _ in range(connections)
        ]
        timers.advance_to(now)
    timers.advance_to(now + 2.0)
    return timers.ops, len(fired)


@pytest.mark.parametrize("name", list(FACTORIES))
def test_ablation_timer_facility(benchmark, name):
    ops, fired = benchmark.pedantic(
        tcp_like_workload, args=(FACTORIES[name],), rounds=3, iterations=1
    )
    heap_ops, heap_fired = tcp_like_workload(FACTORIES["heap"])
    # All facilities fire the same timers.
    assert fired == heap_fired
    if name != "heap":
        # Wheels do O(1) starts/cancels: fewer basic operations than the
        # heap's O(log n) sift per operation on this workload.
        assert ops < heap_ops
