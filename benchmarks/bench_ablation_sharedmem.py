"""Ablation: shared-memory (zero-copy) buffer organization.

Paper §4: "our implementation uses a buffer organization that
eliminates byte copying" — the reason the library *wins* against Ultrix
at 512-byte packets on AN1.  Re-enabling conventional copies between
application buffers and packet buffers must erase that win.
"""

from repro.metrics import measure_throughput
from repro.testbed import Testbed


def run_sharedmem_ablation() -> dict:
    out = {}
    for zero_copy in (True, False):
        for size in (512, 4096):
            testbed = Testbed(
                network="an1", organization="userlib", zero_copy=zero_copy
            )
            result = measure_throughput(
                testbed, total_bytes=400_000, chunk_size=size
            )
            out[(zero_copy, size)] = result.throughput_mbps
    # The Ultrix reference at 512 on AN1 (what we beat thanks to
    # copy elimination).
    testbed = Testbed(network="an1", organization="ultrix")
    out["ultrix-512"] = measure_throughput(
        testbed, total_bytes=400_000, chunk_size=512
    ).throughput_mbps
    return out


def test_ablation_shared_memory(benchmark):
    r = benchmark.pedantic(run_sharedmem_ablation, rounds=1, iterations=1)
    for size in (512, 4096):
        # Copy elimination always helps.
        assert r[(True, size)] > r[(False, size)]
    # Copies hurt small packets *relatively more* per byte moved?  No:
    # absolute per-byte copy cost is linear, so the 4096 case loses more
    # absolute throughput; the 512 case loses the *crossover*:
    assert r[(True, 512)] > r["ultrix-512"]  # The paper's win...
    assert r[(False, 512)] < r[(True, 512)]  # ...needs zero-copy.
