"""Sequence wrap through the whole stack: every end-point table's ISS
started just below 2**32, so every connection's TCB crosses it 20,000
bytes in — on the receive fast path, the header pack and the registry's
hand-over, none of which the sans-io wrap tests reach."""

import pytest

from repro.metrics import measure_throughput
from repro.net.headers import TCP_RST
from repro.protocols.tcp.seq import MOD
from repro.testbed import IP_A, IP_B, Testbed
from repro.trace import WireTrace

WRAP_ISS = MOD - 20000


def wrapping_testbed(organization: str, network: str) -> Testbed:
    bed = Testbed(network=network, organization=organization)
    for owner in bed.registries or bed.services:  # Every core owner.
        owner.core.next_iss = WRAP_ISS
    return bed


@pytest.mark.parametrize("network", ["ethernet", "an1"])
@pytest.mark.parametrize("organization", ["ultrix", "userlib"])
def test_goodput_is_the_same_across_the_wrap(organization, network):
    plain = Testbed(network=network, organization=organization)
    wrapping = wrapping_testbed(organization, network)
    trace = WireTrace(wrapping.link)
    expected = measure_throughput(plain, total_bytes=200_000)
    result = measure_throughput(wrapping, total_bytes=200_000)
    assert (result.bytes_moved, result.elapsed) == (expected.bytes_moved, expected.elapsed)
    seqs = [r.layers[-1].seq for r in trace.records if r.protocol == "tcp"]
    assert max(seqs) > WRAP_ISS and min(seqs) < 200_000  # Both sides of it.


@pytest.mark.parametrize("network", ["ethernet", "an1"])
def test_registry_reset_is_sequenced_on_the_wire_circle(network):
    """The registry, inheriting a dead application's connection, builds
    the one segment outside ``protocols/tcp`` that comes from TCB
    state: its ``seq`` must be ``snd_nxt`` as the wire reads it."""
    bed = wrapping_testbed("userlib", network)
    trace = WireTrace(bed.link)
    seen = {}

    def server():
        listener = yield from bed.service_b.listen(8200)
        conn = seen["server"] = yield from listener.accept()
        while (yield from conn.recv(4096)):
            pass

    def client_then_crash():
        conn = seen["client"] = yield from bed.service_a.connect(IP_B, 8200)
        for _ in range(12):
            yield from conn.send(b"w" * 4096)
        bed.app_a.terminate()  # Mid-transfer, 49,152 bytes in.

    bed.spawn(server(), name="server")
    crash = bed.spawn(client_then_crash(), name="crasher")
    bed.run(until=crash)
    bed.run(until=bed.sim.now + 2.0)
    snd_nxt = seen["client"].runner.machine.tcb.snd_nxt
    assert snd_nxt > MOD  # The TCB went on counting; the wire wrapped.
    # The first reset out of alice is the registry's; the rest answer
    # bob's ACKs still in flight to a connection no longer there.
    reset = next(
        r.layers[-1] for r in trace.records
        if r.protocol == "tcp" and r.layers[1].src == IP_A and r.layers[-1].flags & TCP_RST
    )
    assert reset.seq == snd_nxt % MOD
    assert bed.registry_a.stats["inherited"] == 1
    assert seen["server"].runner.closed_reason == "reset"
