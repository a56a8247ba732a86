"""Timers survive a change of runner: the registry's grant to the
library, and ``hand_off`` between applications.

The machine arms keepalive when the handshake completes — while the
registry's runner still drives it — and never again unless the timer
fires.  If the grant drops that timer the library never probes at all.
"""

import pytest

from repro.net.faults import FaultInjector
from repro.protocols.tcp import TcpConfig
from repro.testbed import IP_B, Testbed

KEEPALIVE = TcpConfig(
    keepalive=True, keepalive_idle=2.0, keepalive_interval=1.0, keepalive_probes=3
)
NETWORKS = ["ethernet", "an1"]


def connected_pair(bed, port=9000):
    """Spawn a listener and a client; returns the dict both ends land in."""
    conns = {}

    def server():
        listener = yield from bed.service_b.listen(port)
        conns["b"] = yield from listener.accept()

    def client():
        conns["a"] = yield from bed.service_a.connect(IP_B, port)

    bed.spawn(server(), name="server")
    bed.spawn(client(), name="client")
    return conns


@pytest.mark.parametrize("network", NETWORKS)
def test_userlib_keepalive_probes_an_idle_peer(network):
    bed = Testbed(network=network, organization="userlib", config=KEEPALIVE)
    conns = connected_pair(bed)
    bed.run(until=30.0)
    for conn in conns.values():
        assert conn.runner.machine.stats["probes_sent"] >= 3
        assert conn.runner.closed_reason is None  # The peer answered.


@pytest.mark.parametrize("network", NETWORKS)
def test_userlib_keepalive_times_out_a_vanished_peer(network):
    faults = FaultInjector()
    bed = Testbed(
        network=network, organization="userlib", config=KEEPALIVE, faults=faults
    )
    conns = connected_pair(bed)
    bed.run(until=1.0)
    faults.drop_rate = 1.0  # The wire goes dead under both ends.
    bed.run(until=30.0)
    for conn in conns.values():
        assert conn.runner.machine.stats["probes_sent"] == 3
        assert conn.runner.closed_reason == "timeout"


def test_hand_off_keeps_a_pending_keepalive():
    bed = Testbed(organization="userlib", config=KEEPALIVE)
    worker_service = bed.library_service("bob", "worker")
    conns = connected_pair(bed)
    bed.run(until=1.0)
    worker = conns["b"].hand_off(worker_service.app, worker_service)
    bed.run(until=30.0)
    assert worker.runner.machine.stats["probes_sent"] >= 3
    assert worker.runner.closed_reason is None


def test_hand_off_keeps_a_pending_delayed_ack():
    bed = Testbed(organization="userlib")
    worker_service = bed.library_service("bob", "worker")
    conns = connected_pair(bed)
    bed.run(until=1.0)
    client, inetd = conns["a"], conns["b"]
    bed.spawn(client.send(b"x"), name="send")
    # One small segment: the receiver holds its ACK for delack_time.
    while not inetd.runner.rx_buffer:
        bed.run(until=bed.sim.now + 1e-4)
    assert inetd.runner.machine.stats["acks_delayed"] == 1
    worker = inetd.hand_off(worker_service.app, worker_service)
    bed.run(until=bed.sim.now + 2 * bed.config.delack_time)
    assert worker.runner.rx_buffer == b"x"
    # The ACK went out on the delayed-ACK timer, not after the client's
    # retransmission forced one.
    assert client.runner.machine.tcb.snd_una == client.runner.machine.tcb.snd_nxt
    assert client.runner.machine.stats["retransmits"] == 0
