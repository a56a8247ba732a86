"""Zero-copy datapath: bytes copied per delivered segment, before/after.

The paper's buffer organization "eliminates byte copying"; this bench
quantifies that claim for the simulator's own datapath.  The same
Table 2 bulk-transfer workload runs twice through identical code:

``eager``
    every encapsulation concatenates and every decapsulation slices —
    the legacy copy-per-layer behaviour;

``chain``
    headers are prepended as scatter-gather fragments, payloads travel
    as views, and octets are fused exactly once at the wire.

Reported: bytes copied per delivered segment in each arm, the reduction
ratio (acceptance: >= 2x), template-encoder hit rate, and the wall-clock
ratio of the two arms.  ``--quick`` is the CI smoke; it also checks the
chain arm against ``baselines/zero_copy_quick.json`` so a copy
regression (a reintroduced per-layer copy) fails the build.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import pytest

from repro.metrics import measure_throughput
from repro.net import buf
from repro.protocols.tcp.wire import TcpSegmentEncoder
from repro.testbed import Testbed

#: The Table 2 workload the arms run (ethernet / user-level library).
NETWORK = "ethernet"
ORGANIZATION = "userlib"
CHUNK_SIZE = 4096
FULL_BYTES = 500_000
QUICK_BYTES = 150_000

#: Acceptance: the chain arm must copy at least this factor fewer
#: bytes per delivered segment than the eager arm.
MIN_REDUCTION = 2.0

BASELINE_PATH = Path(__file__).parent / "baselines" / "zero_copy_quick.json"
#: A regression guard, not a tight bound: the chain arm may not copy
#: more than this factor over the recorded bytes/segment.
BASELINE_SLACK = 1.25


def run_arm(mode: str, total_bytes: int) -> dict:
    """One workload pass in ``mode``; returns the copy/throughput facts."""
    buf.set_mode(mode)
    buf.reset_stats()
    TcpSegmentEncoder.reset_global_stats()
    try:
        testbed = Testbed(network=NETWORK, organization=ORGANIZATION)
        wall0 = time.perf_counter()
        result = measure_throughput(
            testbed, total_bytes=total_bytes, chunk_size=CHUNK_SIZE
        )
        wall = time.perf_counter() - wall0
    finally:
        buf.set_mode("chain")
    # The counters netstat's copy table renders, read raw: the buf and
    # encoder aggregates are process-global (reset above), the segment
    # denominator and the demux views are per host.
    hosts = (testbed.host_a, testbed.host_b)
    segments = sum(host.netio.stats["rx_demuxed"] for host in hosts)
    copied = buf.STATS.copied_bytes
    materialized = buf.STATS.materialized_bytes
    total_copied = copied + materialized
    encoder = TcpSegmentEncoder.GLOBAL_STATS
    template_hits = encoder["template_patches"] + encoder["retransmit_reuses"]
    encodes = template_hits + encoder["full_encodes"]
    return {
        "mode": mode,
        "throughput_mbps": result.throughput_mbps,
        "wall_seconds": wall,
        "segments": segments,
        "copied_bytes": copied,
        "materialized_bytes": materialized,
        "total_copied": total_copied,
        "avoided_bytes": buf.STATS.avoided_bytes,
        "copied_per_segment": total_copied / segments if segments else 0.0,
        "template_hit_rate": template_hits / encodes if encodes else 0.0,
        "payload_views": sum(
            host.netio.flow_table.stats["payload_views"] for host in hosts
        ),
    }


def run_comparison(total_bytes: int) -> dict:
    eager = run_arm("eager", total_bytes)
    chain = run_arm("chain", total_bytes)
    ratio = (
        eager["copied_per_segment"] / chain["copied_per_segment"]
        if chain["copied_per_segment"]
        else float("inf")
    )
    return {"eager": eager, "chain": chain, "reduction_ratio": ratio}


def check_comparison(comparison: dict) -> None:
    eager, chain = comparison["eager"], comparison["chain"]
    # Identical simulated workload: the CostModel charges don't depend
    # on the Python-level copy behaviour, so simulated throughput and
    # segment counts must agree exactly between arms.
    assert chain["segments"] == eager["segments"], (
        f"arms delivered different segment counts: "
        f"{chain['segments']} vs {eager['segments']}"
    )
    assert abs(chain["throughput_mbps"] - eager["throughput_mbps"]) < 1e-9
    assert comparison["reduction_ratio"] >= MIN_REDUCTION, (
        f"bytes-copied/segment reduction {comparison['reduction_ratio']:.2f}x "
        f"< required {MIN_REDUCTION}x"
    )
    # The fast path actually engages on a bulk transfer.
    assert chain["template_hit_rate"] > 0.0
    assert chain["payload_views"] > 0


def check_baseline(chain: dict) -> str:
    """Compare the chain arm against the recorded quick baseline."""
    if not BASELINE_PATH.exists():
        return "baseline: none recorded (run --update-baseline)"
    baseline = json.loads(BASELINE_PATH.read_text())
    recorded = baseline["copied_per_segment_chain"]
    limit = recorded * BASELINE_SLACK
    assert chain["copied_per_segment"] <= limit, (
        f"copy regression: chain arm copies "
        f"{chain['copied_per_segment']:.0f} B/segment, baseline "
        f"{recorded:.0f} (limit {limit:.0f})"
    )
    return (
        f"baseline: {chain['copied_per_segment']:.0f} B/segment vs "
        f"recorded {recorded:.0f} (limit {limit:.0f}) ok"
    )


def _print_arm(label: str, arm: dict) -> None:
    print(
        f"{label:6s} copied/segment {arm['copied_per_segment']:8.1f} B  "
        f"(copies {arm['copied_bytes']:>9d} + fusion "
        f"{arm['materialized_bytes']:>9d} over {arm['segments']} segments)  "
        f"wall {arm['wall_seconds']:.2f}s"
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------

def test_zero_copy_reduction(benchmark, report):
    comparison = benchmark.pedantic(
        run_comparison, args=(QUICK_BYTES,), rounds=1, iterations=1
    )
    check_comparison(comparison)
    report(
        "Zero-copy datapath",
        "bytes-copied/segment reduction",
        comparison["reduction_ratio"],
        MIN_REDUCTION,
        "x",
    )
    report(
        "Zero-copy datapath",
        "template encoder hit rate",
        comparison["chain"]["template_hit_rate"],
        1.0,
        "",
    )


def test_zero_copy_modes_agree_on_simulated_time():
    """The mode switch is observability-only: same simulated outcome."""
    comparison = run_comparison(QUICK_BYTES)
    assert (
        comparison["chain"]["throughput_mbps"]
        == pytest.approx(comparison["eager"]["throughput_mbps"])
    )


# ----------------------------------------------------------------------
# Standalone / CI entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="bytes copied per segment: eager vs chain datapath"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: short transfer + baseline regression guard",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="record the quick chain arm as the new baseline",
    )
    args = parser.parse_args(argv)

    total_bytes = QUICK_BYTES if args.quick or args.update_baseline else FULL_BYTES
    comparison = run_comparison(total_bytes)
    eager, chain = comparison["eager"], comparison["chain"]

    print(
        f"workload: {NETWORK}/{ORGANIZATION}, {total_bytes} bytes in "
        f"{CHUNK_SIZE}-byte chunks"
    )
    _print_arm("eager", eager)
    _print_arm("chain", chain)
    wall_ratio = (
        eager["wall_seconds"] / chain["wall_seconds"]
        if chain["wall_seconds"]
        else float("inf")
    )
    print(
        f"reduction {comparison['reduction_ratio']:.2f}x "
        f"(acceptance >= {MIN_REDUCTION}x)  "
        f"template hits {chain['template_hit_rate']:.0%}  "
        f"wall-clock {wall_ratio:.2f}x"
    )
    check_comparison(comparison)

    if args.update_baseline:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "workload": f"{NETWORK}/{ORGANIZATION}",
                    "total_bytes": total_bytes,
                    "chunk_size": CHUNK_SIZE,
                    "copied_per_segment_chain": chain["copied_per_segment"],
                    "copied_per_segment_eager": eager["copied_per_segment"],
                    "reduction_ratio": comparison["reduction_ratio"],
                },
                indent=2,
            )
            + "\n"
        )
        print(f"baseline written to {BASELINE_PATH}")
    elif args.quick:
        print(check_baseline(chain))
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
