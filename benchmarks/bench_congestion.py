"""Congestion-control race: Reno vs CUBIC vs BBR through the dumbbell.

Every algorithm drives the same 10 Mb/s trunk with the same finite
egress queue, under both tail-drop and RED.  Nothing is scripted: loss
(or, for BBR, the delivery-rate signal) emerges from real queue
dynamics, so this is where the pluggable congestion-control extraction
either reproduces the textbook behaviours or doesn't.

``summarize`` returns, per algorithm and discipline:

* aggregate goodput vs the 10 Mb/s trunk;
* Jain's fairness index across flows of the *same* algorithm
  (intra-algorithm) and across per-algorithm goodput when the three
  algorithms share one bottleneck (inter-algorithm);
* flow-completion-time p50/p99;
* bottleneck queue occupancy (mean and p99 of the sampled
  fraction-of-capacity histogram) — the bufferbloat axis, where a
  rate-based model should sit well below the loss-based probers.
"""

from repro.metrics import jain_fairness, measure_fabric_transfers
from repro.protocols.tcp import CC_ALGORITHMS, TcpConfig
from repro.testbed import FabricTestbed

TRUNK_MBPS = 10.0

#: The headline arm: enough flows that loss-based probing saturates
#: the 48 KB queue, and flows long enough that AIMD/cubic convergence
#: (not slow-start luck) sets the fairness number.
RACE_PAIRS = 16
RACE_BYTES = 800_000

#: The bufferbloat arm: few enough flows that BBR's BDP-derived
#: inflight cap binds below what the loss-based stacks keep in flight,
#: so the standing-queue difference is the algorithm's doing.
BLOAT_PAIRS = 3
BLOAT_BYTES = 250_000


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a sequence (q in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def occupancy_percentile(queue, q: float) -> float:
    """Occupancy (fraction of capacity) at quantile ``q`` from the
    queue's sampled bucket histogram; returns the bucket's upper edge."""
    samples = sum(queue.occupancy)
    if not samples:
        return 0.0
    threshold = q * samples
    seen = 0
    for index, count in enumerate(queue.occupancy):
        seen += count
        if seen >= threshold:
            return (index + 1) / queue.BUCKETS
    return 1.0


def summarize(fabric, result) -> dict:
    queue = fabric.bottleneck.queue
    fcts = [f.elapsed for f in result.flows if f.bytes_moved]
    return {
        "aggregate_mbps": result.aggregate_mbps,
        "fairness": result.fairness,
        "fct_p50": percentile(fcts, 0.50),
        "fct_p99": percentile(fcts, 0.99),
        "queue_mean": queue.mean_occupancy(),
        "queue_p99": occupancy_percentile(queue, 0.99),
        "bottleneck_drops": result.bottleneck_drops,
        "retransmits": result.total_retransmits,
    }


def run_race(cc: str, pairs: int, bytes_per_flow: int, red: bool = False):
    """Homogeneous arm: every flow runs ``cc`` through one bottleneck."""
    fabric = FabricTestbed(
        kind="dumbbell", pairs=pairs, red=red, config=TcpConfig(cc=cc)
    )
    result = measure_fabric_transfers(fabric, bytes_per_flow=bytes_per_flow)
    for flow in result.flows:
        assert flow.bytes_moved == bytes_per_flow, (
            f"{cc}: flow {flow.index} moved only "
            f"{flow.bytes_moved}/{bytes_per_flow} bytes"
        )
    assert result.other_drops == 0
    return fabric, result


def run_mixed(pairs: int, bytes_per_flow: int, red: bool = False):
    """Heterogeneous arm: pair ``i`` runs ``CC_ALGORITHMS[i % 3]``, all
    sharing the trunk.  Inter-algorithm fairness is Jain over the mean
    per-flow goodput of each algorithm."""
    assignment = {
        i: CC_ALGORITHMS[i % len(CC_ALGORITHMS)] for i in range(pairs)
    }
    configs = {cc: TcpConfig(cc=cc) for cc in CC_ALGORITHMS}

    def config_for(host_name: str):
        index = int(host_name[1:])
        return configs[assignment[index]]

    fabric = FabricTestbed(
        kind="dumbbell", pairs=pairs, red=red, config_for=config_for
    )
    result = measure_fabric_transfers(fabric, bytes_per_flow=bytes_per_flow)
    per_algo: dict[str, list[float]] = {cc: [] for cc in CC_ALGORITHMS}
    for flow in result.flows:
        per_algo[assignment[flow.index]].append(flow.throughput_mbps)
    means = {
        cc: sum(v) / len(v) for cc, v in per_algo.items() if v
    }
    return fabric, result, {
        "inter_fairness": jain_fairness(list(means.values())),
        "per_algorithm_mbps": means,
    }


def run_matrix(pairs: int, bytes_per_flow: int) -> dict:
    """The full race: every algorithm under tail-drop and RED."""
    matrix: dict[str, dict] = {}
    for red in (False, True):
        discipline = "red" if red else "taildrop"
        for cc in CC_ALGORITHMS:
            fabric, result = run_race(cc, pairs, bytes_per_flow, red=red)
            matrix[f"{discipline}/{cc}"] = summarize(fabric, result)
    return matrix


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


def test_congestion_race(benchmark):
    matrix = benchmark.pedantic(
        run_matrix, args=(RACE_PAIRS, RACE_BYTES), rounds=1, iterations=1
    )
    bloat = {
        cc: summarize(*run_race(cc, BLOAT_PAIRS, BLOAT_BYTES))
        for cc in CC_ALGORITHMS
    }
    # Nobody collapses: every algorithm under either discipline keeps
    # the trunk at least 70% busy.
    for key, stats in matrix.items():
        assert stats["aggregate_mbps"] >= 0.7 * TRUNK_MBPS, (key, stats)
    # Loss-based algorithms reach loss and converge to a fair share at
    # 16 flows.
    for cc in ("reno", "cubic"):
        stats = matrix[f"taildrop/{cc}"]
        assert stats["bottleneck_drops"] > 0, f"{cc} never overflowed the queue"
        assert stats["fairness"] >= 0.9, f"{cc} fairness {stats['fairness']:.3f}"
    # ...and the race tells them apart (an arm that never reaches loss
    # runs Reno and CUBIC through identical slow starts).
    assert matrix["taildrop/reno"] != matrix["taildrop/cubic"]
    # The bufferbloat claim: BBR keeps the tail-drop queue visibly
    # shorter than every loss-based prober (judged where its inflight
    # cap can bind: the few-flow arm).
    for cc in ("reno", "cubic"):
        assert bloat["bbr"]["queue_p99"] < bloat[cc]["queue_p99"], (
            f"bbr p99 occupancy {bloat['bbr']['queue_p99']:.2f} not below "
            f"{cc} {bloat[cc]['queue_p99']:.2f}"
        )


def test_congestion_mixed():
    _, result, mixed = run_mixed(RACE_PAIRS, RACE_BYTES)
    assert all(f.bytes_moved == RACE_BYTES for f in result.flows)
    # Sharing one queue, no algorithm starves another.
    assert mixed["inter_fairness"] >= 0.9
