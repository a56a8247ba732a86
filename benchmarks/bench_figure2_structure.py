"""Figure 2: structure of the protocol implementation, verified.

The paper's Figure 2 shows the three components — application+library,
registry server, network I/O module — and the property that matters:
"the server is bypassed in the common path of data transmission and
reception".  This bench runs a transfer and proves the structural
claims with counters.
"""

from repro.metrics import measure_throughput
from repro.testbed import IP_B, Testbed


def run_structured_transfer() -> dict:
    testbed = Testbed(network="ethernet", organization="userlib")
    marks = {}

    def server():
        listener = yield from testbed.service_b.listen(4400)
        conn = yield from listener.accept()
        data = yield from conn.recv_exactly(200_000)
        marks["received"] = len(data)

    def client():
        conn = yield from testbed.service_a.connect(IP_B, 4400)
        # Snapshot after setup, before data.
        marks["setup_registry_segments"] = testbed.registry_a.stats[
            "handshake_segments"
        ]
        marks["setup_ipc"] = testbed.host_a.kernel.counters.get(
            "ipc_messages", 0
        )
        yield from conn.send(b"d" * 200_000)
        yield testbed.sim.timeout(0.5)
        marks["post_registry_segments"] = testbed.registry_a.stats[
            "handshake_segments"
        ]
        marks["post_ipc"] = testbed.host_a.kernel.counters.get(
            "ipc_messages", 0
        )
        marks["channel_tx"] = testbed.host_a.netio.stats["tx"]
        marks["demuxed_b"] = testbed.host_b.netio.stats["rx_demuxed"]
        marks["to_kernel_b"] = testbed.host_b.netio.stats["rx_to_kernel"]

    testbed.app_b.spawn(server(), name="server")
    proc = testbed.app_a.spawn(client(), name="client")
    testbed.run(until=proc)
    return marks


def test_figure2_structure(benchmark):
    marks = benchmark.pedantic(run_structured_transfer, rounds=1, iterations=1)
    assert marks["received"] == 200_000

    # The registry is bypassed on the data path: zero involvement
    # during 200 KB of transfer.
    assert marks["post_registry_segments"] == marks["setup_registry_segments"]
    assert marks["post_ipc"] == marks["setup_ipc"]

    # But setup *did* route through the registry (the trusted path).
    assert marks["setup_registry_segments"] >= 2  # SYN out, SYN|ACK in.
    assert marks["setup_ipc"] >= 2  # connect RPC there and back.

    # Data flows through the protected channels: app->module->wire on
    # send; wire->channel via the demultiplexer on receive, with only
    # the handshake ever touching the kernel path.
    assert marks["channel_tx"] > 100  # ~137 segments for 200 KB.
    assert marks["demuxed_b"] > 100
    assert marks["to_kernel_b"] <= 4
