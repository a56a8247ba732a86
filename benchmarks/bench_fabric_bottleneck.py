"""Many-flow congestion through a dumbbell bottleneck.

The paper benchmarks two hosts on a private segment; this bench puts
the same user-level TCP stacks behind a switched fabric and drives
2 → 64 concurrent flows through one 10 Mb/s trunk.  What is being
tested is emergent, not scripted: loss happens only where the trunk
port's finite egress queue overflows, so congestion control, fast
retransmit, and RTO backoff are exercised by *real* queue dynamics.

Reported per flow count:

* aggregate goodput vs the 10 Mb/s trunk (utilization);
* Jain's fairness index across per-flow goodputs;
* drops at the bottleneck port (and the requirement that *no other*
  port drops anything).
"""

from repro.metrics import measure_fabric_transfers
from repro.testbed import FabricTestbed

TRUNK_MBPS = 10.0

#: (flow pairs, bytes per flow).  Larger sweeps use shorter flows to
#: bound wall time; 64 flows into a 48 KB queue is deep overload.
SWEEP = ((2, 250_000), (4, 250_000), (16, 250_000), (64, 100_000))


def run_dumbbell(pairs: int, bytes_per_flow: int, red: bool = False):
    fabric = FabricTestbed(kind="dumbbell", pairs=pairs, red=red)
    result = measure_fabric_transfers(fabric, bytes_per_flow=bytes_per_flow)
    return fabric, result


def run_sweep():
    return {
        pairs: run_dumbbell(pairs, bytes_per_flow)
        for pairs, bytes_per_flow in SWEEP
    }


def check_result(pairs: int, bytes_per_flow: int, result) -> None:
    """The invariants every dumbbell run must satisfy."""
    # Every flow progresses to completion — nobody is starved out.
    for flow in result.flows:
        assert flow.bytes_moved == bytes_per_flow, (
            f"{pairs} flows: flow {flow.index} moved only "
            f"{flow.bytes_moved}/{bytes_per_flow} bytes"
        )
    # Goodput cannot exceed the trunk, and the flows should keep the
    # bottleneck busy once there are a few of them.
    assert result.aggregate_mbps <= TRUNK_MBPS
    if pairs >= 4:
        assert result.aggregate_mbps >= 0.5 * TRUNK_MBPS
    # Loss only where the bottleneck is configured.
    assert result.other_drops == 0, (
        f"{pairs} flows: {result.other_drops} drops off-bottleneck"
    )
    if pairs >= 16:
        assert result.bottleneck_drops > 0, (
            f"{pairs} flows overload the trunk but nothing was dropped"
        )


def test_fabric_bottleneck_sweep(benchmark, report):
    runs = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    for pairs, bytes_per_flow in SWEEP:
        _, result = runs[pairs]
        check_result(pairs, bytes_per_flow, result)
        report(
            "Dumbbell bottleneck (10 Mb/s trunk)",
            f"{pairs} flows: aggregate goodput",
            result.aggregate_mbps,
            TRUNK_MBPS,
            "Mbps",
        )
        report(
            "Dumbbell bottleneck (10 Mb/s trunk)",
            f"{pairs} flows: Jain fairness",
            result.fairness,
            1.0,
            "",
        )
    # The acceptance bar: at 16 flows the stacks share the trunk
    # evenly enough (drop-driven cwnd convergence, not luck).
    _, sixteen = runs[16]
    assert sixteen.fairness >= 0.8, f"fairness {sixteen.fairness:.3f} < 0.8"
    # Two flows fit inside the queue's bandwidth-delay allowance: no
    # loss at all, and a near-even split.
    _, two = runs[2]
    assert two.bottleneck_drops == 0
    assert two.fairness >= 0.95


def test_fabric_red_vs_taildrop(report):
    """RED sheds load early but must not wreck goodput or fairness."""
    _, taildrop = run_dumbbell(16, 250_000)
    fabric, red = run_dumbbell(16, 250_000, red=True)
    check_result(16, 250_000, red)
    assert fabric.bottleneck.queue.discipline == "red"
    assert fabric.bottleneck.queue.stats["early_dropped"] > 0
    assert red.fairness >= 0.7
    assert red.aggregate_mbps >= 0.5 * TRUNK_MBPS
    report(
        "Dumbbell bottleneck (10 Mb/s trunk)",
        "16 flows: RED vs taildrop aggregate",
        red.aggregate_mbps,
        taildrop.aggregate_mbps,
        "Mbps",
    )
