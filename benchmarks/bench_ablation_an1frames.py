"""Ablation: the AN1 driver's 1500-byte frame restriction.

Paper §4: "The observed throughput on AN1 is lower than the maximum the
network can support.  The primary reason for this is that the AN1
driver does not currently use maximum sized AN1 packets which can be as
large as 64K bytes: it encapsulates data into an Ethernet datagram and
restricts network transmissions to 1500-byte packets."

Lifting the driver restriction (the hardware always supported it) must
raise throughput substantially: per-packet CPU costs amortize over far
more bytes.
"""

from repro.metrics import measure_throughput
from repro.protocols.tcp import TcpConfig
from repro.testbed import Testbed


def run_frame_ablation() -> dict:
    out = {}
    for mtu, mss, label in (
        (1500, 1460, "driver-limited-1500"),
        (65536, 16384, "full-an1-frames"),
    ):
        testbed = Testbed(
            network="an1",
            organization="userlib",
            an1_driver_mtu=mtu,
            config=TcpConfig(
                mss=mss,
                # Pre-window-scaling TCP: buffers capped near 64 KB.
                rcv_buffer=61440 if mss > 1460 else 16384,
                snd_buffer=61440 if mss > 1460 else 16384,
            ),
        )
        result = measure_throughput(
            testbed, total_bytes=2_000_000 if mss > 1460 else 400_000,
            chunk_size=mss,
        )
        out[label] = result.throughput_mbps
    return out


def test_ablation_an1_frame_size(benchmark):
    r = benchmark.pedantic(run_frame_ablation, rounds=1, iterations=1)
    # Large frames amortize per-packet costs: at least 3x the throughput.
    assert r["full-an1-frames"] >= 3.0 * r["driver-limited-1500"]
