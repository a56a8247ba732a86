"""Observability-plane overhead gate.

The plane's contract is "near-zero cost when off": every instrumented
call site pays one module-attribute load and one ``is None`` test when
the plane is disabled.  This bench holds the contract to counts that
repeat exactly, on the Table 2 bulk-transfer workload (the span-heavy
worst case): the quick arm under cProfile with the plane **off**,
**on** (spans + profiler + histograms), and **off again**.

Gates (every call the profiler sees, Python and C):

* off-after-on equals off exactly — switching the plane on leaves
  nothing behind that a later run pays for;
* the plane adds at most ``MAX_ADDED_CALLS`` on that arm — an absolute
  cost, so it does not get harder to meet every time the stack under
  it gets faster (the CPU-time *ratio* this replaced read 1.29–1.44
  against its 1.25 on an unchanged tree, and its denominator shrinks
  with every speed-up);
* the simulated throughput is bit-identical across the three —
  observability must never change what the simulation *does*.

CPU time is printed as information: the on/off ratio (min of several
rounds each) and, with ``--quick``, the off arm against the recorded
``baselines/obs_quick.json``.  This box shares its cores; neither
number can gate.
"""

import argparse
import cProfile
import json
import sys
import time
from pathlib import Path

from repro import obs
from repro.metrics import measure_throughput
from repro.testbed import Testbed

NETWORK = "ethernet"
ORGANIZATION = "userlib"
CHUNK_SIZE = 4096
FULL_BYTES = 500_000
QUICK_BYTES = 150_000
ROUNDS = 5

#: Calls the enabled plane may add to the quick arm (20,5xx today: one
#: ``touch``/``charge``/``record`` and its bookkeeping per instrumented
#: site a segment passes).
MAX_ADDED_CALLS = 21_000

BASELINE_PATH = Path(__file__).parent / "baselines" / "obs_quick.json"


def run_once(enabled: bool, total_bytes: int, profiler=None) -> dict:
    """One seeded transfer; the plane on or off, optionally profiled."""
    plane = {}
    if enabled:
        session = obs.enable()
    try:
        testbed = Testbed(network=NETWORK, organization=ORGANIZATION)
        cpu0 = time.process_time()
        if profiler is not None:
            profiler.enable()
        try:
            result = measure_throughput(
                testbed, total_bytes=total_bytes, chunk_size=CHUNK_SIZE
            )
        finally:
            if profiler is not None:
                profiler.disable()
        cpu = time.process_time() - cpu0
    finally:
        if enabled:
            plane = {
                "spans_minted": session.spans.minted,
                "span_events": session.spans.recorded,
                "profile_sites": len(session.profiler.report()),
                "histograms": session.histograms.names(),
            }
            obs.disable()
    return {"cpu_seconds": cpu, "throughput_mbps": result.throughput_mbps, **plane}


def count_calls(enabled: bool) -> dict:
    """The quick arm under cProfile: every call it makes, exactly."""
    profiler = cProfile.Profile()
    run = run_once(enabled, QUICK_BYTES, profiler)
    run["calls"] = sum(entry.callcount for entry in profiler.getstats())
    return run


def run_call_comparison() -> dict:
    run_once(False, QUICK_BYTES)  # Lazy imports and caches, paid once.
    off = count_calls(False)
    on = count_calls(True)
    off_again = count_calls(False)
    return {"off": off, "on": on, "off_again": off_again}


def check_calls(comparison: dict) -> None:
    off, on, off_again = (comparison[k] for k in ("off", "on", "off_again"))
    assert on["throughput_mbps"] == off["throughput_mbps"] == off_again["throughput_mbps"], (
        "observability changed the simulated outcome: "
        f"{off['throughput_mbps']} / {on['throughput_mbps']} / "
        f"{off_again['throughput_mbps']} Mb/s (off / on / off again)"
    )
    assert off_again["calls"] == off["calls"], (
        f"the plane left work behind: {off_again['calls']} calls with it "
        f"off again vs {off['calls']} before it was ever on"
    )
    added = on["calls"] - off["calls"]
    assert added <= MAX_ADDED_CALLS, (
        f"enabled plane adds {added} calls to the quick arm "
        f"(gate {MAX_ADDED_CALLS})"
    )
    # The enabled arm actually observed the workload.
    assert on["spans_minted"] > 0
    assert on["span_events"] > on["spans_minted"]
    assert on["profile_sites"] >= 5
    assert "tcp.rtt" in on["histograms"]


def cpu_times(total_bytes: int, rounds: int = ROUNDS) -> dict:
    """Information only: min-of-N CPU seconds per arm, interleaved."""
    best = {False: float("inf"), True: float("inf")}
    for _ in range(rounds):
        for enabled in (False, True):
            best[enabled] = min(
                best[enabled], run_once(enabled, total_bytes)["cpu_seconds"]
            )
    return {"off": best[False], "on": best[True], "ratio": best[True] / best[False]}


def baseline_note(off_cpu: float) -> str:
    if not BASELINE_PATH.exists():
        return "baseline: none recorded (run --update-baseline)"
    recorded = json.loads(BASELINE_PATH.read_text())["cpu_seconds_disabled"]
    return (
        f"(info) disabled arm {off_cpu:.3f}s CPU vs {recorded:.3f}s recorded "
        f"in {BASELINE_PATH.name} ({off_cpu / recorded:.2f}x)"
    )


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_obs_overhead(report):
    comparison = run_call_comparison()
    check_calls(comparison)
    report(
        "Observability plane",
        "calls added to the quick arm",
        comparison["on"]["calls"] - comparison["off"]["calls"],
        MAX_ADDED_CALLS,
        "calls",
    )


# ----------------------------------------------------------------------
# Standalone / CI entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="observability plane overhead: disabled vs enabled"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: CPU-time information on the short transfer only",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="record the quick arm's CPU times as the new baseline",
    )
    args = parser.parse_args(argv)

    comparison = run_call_comparison()
    off, on, off_again = (comparison[k] for k in ("off", "on", "off_again"))
    print(
        f"workload: {NETWORK}/{ORGANIZATION}, {QUICK_BYTES} bytes in "
        f"{CHUNK_SIZE}-byte chunks, under cProfile"
    )
    print(
        f"calls  off {off['calls']}  on {on['calls']}  off again "
        f"{off_again['calls']}  (+{on['calls'] - off['calls']} enabled, gate "
        f"<= {MAX_ADDED_CALLS}; off again must equal off)"
    )
    print(
        f"throughput {off['throughput_mbps']:.2f} Mb/s in all three  "
        f"({on['spans_minted']} traces, {on['span_events']} span events, "
        f"{on['profile_sites']} profile sites)"
    )
    check_calls(comparison)

    total_bytes = QUICK_BYTES if args.quick or args.update_baseline else FULL_BYTES
    cpu = cpu_times(total_bytes)
    print(
        f"(info) CPU time, {total_bytes} bytes, min of {ROUNDS} rounds: off "
        f"{cpu['off']:.3f}s  on {cpu['on']:.3f}s  ratio {cpu['ratio']:.2f}x"
    )
    if args.update_baseline:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "workload": f"{NETWORK}/{ORGANIZATION}",
                    "total_bytes": total_bytes,
                    "chunk_size": CHUNK_SIZE,
                    "rounds": ROUNDS,
                    "cpu_seconds_disabled": cpu["off"],
                    "cpu_seconds_enabled": cpu["on"],
                    "enabled_ratio": cpu["ratio"],
                },
                indent=2,
            )
            + "\n"
        )
        print(f"baseline written to {BASELINE_PATH}")
    elif args.quick:
        print(baseline_note(cpu["off"]))
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
