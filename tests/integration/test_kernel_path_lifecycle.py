"""The kernel-path TCP input's lifecycle, pinned on the wire.

The in-kernel stack (``ultrix``) and the registry (``userlib``) each
answer handshakes and strays on a host's kernel path.  Each scenario
below drives that path through one edge of a connection's life — a
refused SYN, a corrupted SYN, a closing listener, a dead listener owner
— on both networks, and compares what went over the wire (the fields of
``wire_digest`` in ``tools/golden.py``, in time order), what the
applications were told, what each host's kernel path and TCP service
counted, and what is still held at the end, with the values recorded
in ``data/kernel_path_lifecycle.json``.  Nothing a refactor of that
input may move is outside this record.
"""

import json
from pathlib import Path

import pytest

from repro import netstat
from repro.check.evidence import RunEvidence, segments_from_trace
from repro.net.headers import PROTO_TCP, TCP_SYN
from repro.protocols.tcp import Segment, TcpConfig, encode_segment
from repro.testbed import IP_A, IP_B, Testbed
from repro.trace import WireTrace
from tests.tools import tool

wire_digest = tool("golden").wire_digest

RECORDED = json.loads((Path(__file__).parent / "data" / "kernel_path_lifecycle.json").read_text())
#: Short lingers, so every scenario has settled well before the end.
CONFIG = TcpConfig(msl=0.5, conn_timeout=3.0)
SETTLED = 6.0
ORGANIZATIONS = ("ultrix", "userlib")
NETWORKS = ("ethernet", "an1")


def _connect(bed, seen, port=80):
    """Host a connects to host b 50 ms in, reads to the end and closes."""

    def client():
        yield bed.sim.timeout(0.05)
        try:
            conn = yield from bed.service_a.connect(IP_B, port)
        except ConnectionError as exc:
            seen.append(f"connect: {exc}")
            return
        seen.append("connected")
        try:
            while (yield from conn.recv(1024)):
                pass
        except ConnectionError as exc:
            seen.append(f"recv: {exc}")
        seen.append(f"closed: {conn.runner.closed_reason}")
        yield from conn.close()

    bed.spawn(client(), name="client")


def _listen(bed, seen, then=None):
    """Host b listens on port 80 and accepts nothing; ``then(listener)``."""

    def server():
        listener = yield from bed.service_b.listen(80)
        seen.append("listening")
        if then is not None:
            yield from then(listener)

    bed.spawn(server(), name="server")


def syn_to_a_closed_port(bed, seen):
    _connect(bed, seen, port=81)


def syn_with_a_bad_checksum(bed, seen):
    _listen(bed, seen)
    wire = bytearray(encode_segment(
        Segment(4000, 80, seq=1000, ack=0, flags=TCP_SYN, window=512, mss=1460), IP_A, IP_B
    ))
    wire[16] ^= 0xFF  # The TCP checksum's first byte.

    def sender():
        yield bed.sim.timeout(0.05)
        yield from bed.host_a.ip_send(IP_B, PROTO_TCP, bytes(wire))

    bed.spawn(sender(), name="sender")


def established_never_accepted_then_listener_closed(bed, seen):
    def close_later(listener):
        yield bed.sim.timeout(0.3)
        listener.close()
        seen.append("listener closed")

    _listen(bed, seen, close_later)
    _connect(bed, seen)


def listener_closed_mid_handshake(bed, seen):
    """The listener closes the moment host b's kernel path has answered
    the client's SYN."""
    listeners = []
    kernel_rx = bed.host_b.tcp_kernel_handler

    def closing_after_the_syn(payload, src_ip, link_info, done):
        def then():
            done()
            if listeners and not listeners[0].closed:
                listeners[0].close()
                seen.append("listener closed")

        kernel_rx(payload, src_ip, link_info, then)

    def keep(listener):
        listeners.append(listener)
        yield from ()

    bed.host_b.tcp_kernel_handler = closing_after_the_syn
    _listen(bed, seen, keep)
    _connect(bed, seen)


def syn_to_a_listener_whose_owner_exited(bed, seen):
    """The listening application exits 20 ms in, without closing; the
    in-kernel stack's listener belongs to no task, and stays."""
    owner = bed.app_b if bed.registries else bed.host_b.create_task("app-b")

    def server():
        yield from bed.service_b.listen(80)
        seen.append("listening")
        yield bed.sim.timeout(60.0)

    owner.spawn(server(), name="server")
    bed.sim.call_later(0.02, lambda _event: owner.terminate())
    _connect(bed, seen)


SCENARIOS = {
    scenario.__name__: scenario
    for scenario in (
        syn_to_a_closed_port,
        syn_with_a_bad_checksum,
        established_never_accepted_then_listener_closed,
        listener_closed_mid_handshake,
        syn_to_a_listener_whose_owner_exited,
    )
}


def run_scenario(organization: str, network: str, scenario: str) -> dict:
    """Run one scenario to its end: what the record compares."""
    bed = Testbed(network=network, organization=organization, config=CONFIG)
    trace = WireTrace(bed.link)
    seen = []
    SCENARIOS[scenario](bed, seen)
    bed.run(until=SETTLED)
    segments = segments_from_trace(trace.records, an1=network == "an1")
    kernel_paths = bed.registries or bed.services
    return {
        "digest": wire_digest(RunEvidence(segments=segments)),
        "segments": len(segments),
        "seen": seen,
        "kernel_path_stats": [dict(sorted(path.stats.items())) for path in kernel_paths],
        "service_stats": [dict(sorted(service.stats.items())) for service in bed.services],
        "held": sorted(f"{s}: {what}" for s, what, held in netstat.held(bed) if held),
    }


CASES = [
    (organization, network, scenario)
    for organization in ORGANIZATIONS
    for network in NETWORKS
    for scenario in SCENARIOS
]


def test_the_record_covers_every_case():
    assert sorted(RECORDED) == sorted("/".join(case) for case in CASES)


@pytest.mark.parametrize("organization,network,scenario", CASES, ids=["/".join(c) for c in CASES])
def test_kernel_path_lifecycle_is_unchanged(organization, network, scenario):
    assert run_scenario(organization, network, scenario) == RECORDED[
        f"{organization}/{network}/{scenario}"
    ]
