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

The CPU-time on/off ratio is a speed, and the ledger's row
(``obs.overhead_ratio``): this box shares its cores, it cannot gate.
"""

import cProfile
import gc

from repro import obs
from repro.metrics import measure_throughput
from repro.testbed import Testbed

NETWORK = "ethernet"
ORGANIZATION = "userlib"
CHUNK_SIZE = 4096
QUICK_BYTES = 150_000

#: Calls the enabled plane may add to the quick arm (20,5xx today: one
#: ``touch``/``charge``/``record`` and its bookkeeping per instrumented
#: site a segment passes).
MAX_ADDED_CALLS = 21_000


def count_calls(enabled: bool) -> dict:
    """One seeded transfer of the quick arm under cProfile, the plane on
    or off: every call it makes, exactly."""
    profiler = cProfile.Profile()
    plane = {}
    if enabled:
        session = obs.enable()
    try:
        testbed = Testbed(network=NETWORK, organization=ORGANIZATION)
        # Earlier worlds are cyclic garbage full of suspended generators,
        # and closing one is a counted call: collect them here, not at
        # whatever point of the profiled run the allocator gets to it.
        gc.collect()
        profiler.enable()
        try:
            result = measure_throughput(
                testbed, total_bytes=QUICK_BYTES, chunk_size=CHUNK_SIZE
            )
        finally:
            profiler.disable()
    finally:
        if enabled:
            plane = {
                "spans_minted": session.spans.minted,
                "span_events": session.spans.recorded,
                "profile_sites": len(session.profiler.report()),
                "histograms": session.histograms.names(),
            }
            obs.disable()
    return {
        "throughput_mbps": result.throughput_mbps,
        "calls": sum(entry.callcount for entry in profiler.getstats()),
        **plane,
    }


def run_call_comparison() -> dict:
    count_calls(False)  # Lazy imports and caches, paid once.
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


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_obs_overhead():
    comparison = run_call_comparison()
    check_calls(comparison)
