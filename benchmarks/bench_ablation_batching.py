"""Ablation: notification batching.

Paper §3.3: "Our implementation attempts, where possible, to batch
multiple network packets per semaphore notification in order to
amortize the cost of signaling" — and §4 credits batching for keeping
the user-level signalling cost insignificant on AN1.

With batching off, every packet pays a full signal + wakeup + thread
dispatch; throughput must drop on both networks.
"""

from repro.metrics import measure_throughput
from repro.testbed import Testbed


def run_batching_ablation() -> dict:
    out = {}
    for network in ("ethernet", "an1"):
        for batching in (True, False):
            testbed = Testbed(
                network=network, organization="userlib", batching=batching
            )
            result = measure_throughput(
                testbed, total_bytes=400_000, chunk_size=4096
            )
            out[(network, batching)] = result.throughput_mbps
    return out


def test_ablation_batching(benchmark):
    r = benchmark.pedantic(run_batching_ablation, rounds=1, iterations=1)
    for network in ("ethernet", "an1"):
        # Batching must help (or at worst be neutral).
        assert r[(network, True)] >= r[(network, False)]
    # The AN1's faster wire makes batches bigger, so losing batching
    # hurts there at least as much as on Ethernet, relatively.
    an1_gain = r[("an1", True)] / r[("an1", False)]
    assert an1_gain >= 1.03
