"""Integration tests: TCP, ICMP, and netstat across routed fabrics."""

import pytest

from repro import netstat
from repro.metrics import measure_fabric_transfers
from repro.net.headers import (
    ETHERTYPE_IP,
    HeaderError,
    Ipv4Header,
    PROTO_ICMP,
)
from repro.protocols import icmp
from repro.testbed import FabricTestbed


def capture_icmp(host):
    """Spy on a host's kernel receive path, collecting ICMP payloads
    as (icmp_bytes, src_ip) while everything still flows normally."""
    captured = []
    original = host.netio.kernel_rx

    def spy(ethertype, payload, link_info, done):
        if ethertype == ETHERTYPE_IP:
            try:
                header = Ipv4Header.unpack(payload)
            except HeaderError:
                header = None
            if header is not None and header.protocol == PROTO_ICMP:
                captured.append(
                    (payload[Ipv4Header.LENGTH : header.total_length], header.src)
                )
        original(ethertype, payload, link_info, done)

    host.netio.kernel_rx = spy
    return captured


# ----------------------------------------------------------------------
# TCP across a router
# ----------------------------------------------------------------------


@pytest.mark.parametrize("organization", ["userlib", "ultrix"])
def test_tcp_bulk_across_router(organization):
    """Handshake + 50 KB bulk transfer between subnets via one router."""
    fabric = FabricTestbed(
        kind="chain", organization=organization, n_routers=1
    )
    host_a, host_b = fabric.hosts
    total = 50_000
    marks = {}

    def server():
        listener = yield from fabric.service(host_b).listen(4000)
        conn = yield from listener.accept()
        received = 0
        while received < total:
            data = yield from conn.recv(4096)
            if not data:
                break
            received += len(data)
        marks["received"] = received
        yield from conn.close()

    def client():
        conn = yield from fabric.service(host_a).connect(host_b.ip, 4000)
        sent = 0
        while sent < total:
            chunk = b"m" * min(4096, total - sent)
            yield from conn.send(chunk)
            sent += len(chunk)
        yield from conn.close()

    done = fabric.spawn(server(), name="server")
    fabric.spawn(client(), name="client")
    fabric.run(until=done)

    assert marks["received"] == total
    router = fabric.routers[0]
    # Data one way, ACKs the other: traffic crossed in both directions.
    assert router.stats["forwarded"] > total // 1460
    assert router.stats["ttl_expired"] == 0
    assert router.stats["no_route"] == 0


def test_ping_router_interface():
    """The router answers ICMP echo addressed to its own interface."""
    fabric = FabricTestbed(kind="chain", n_routers=1)
    host_a, _ = fabric.hosts
    router = fabric.routers[0]
    near_ip = router.interfaces[0].ip
    captured = capture_icmp(host_a)

    def pinger():
        yield from host_a.ip_send(
            near_ip, PROTO_ICMP, icmp.encode_echo(True, 21, 1, b"probe")
        )

    fabric.spawn(pinger(), name="ping")
    fabric.run(until=1.0)

    assert router.stats["delivered_local"] == 1
    replies = [
        icmp.decode_echo(data)
        for data, src in captured
        if src == near_ip
    ]
    assert any(
        r is not None and not r.is_request and r.payload == b"probe"
        for r in replies
    )


# ----------------------------------------------------------------------
# ICMP errors from the middle of the network
# ----------------------------------------------------------------------


def test_ttl_expiry_draws_time_exceeded():
    """A TTL-1 probe through two routers dies at the first one, which
    sends ICMP time-exceeded quoting the probe — traceroute's machinery."""
    fabric = FabricTestbed(kind="chain", n_routers=2)
    host_a, host_b = fabric.hosts
    captured = capture_icmp(host_a)

    def probe():
        yield from host_a.ip_send(
            host_b.ip, PROTO_ICMP, icmp.encode_echo(True, 33, 1), ttl=1
        )

    fabric.spawn(probe(), name="probe")
    fabric.run(until=1.0)

    first, second = fabric.routers
    assert first.stats["ttl_expired"] == 1
    assert second.stats["forwarded"] == 0  # Never got past hop one.
    assert host_b.ip_stack.stats["received"] == 0

    exceeded = [
        icmp.decode_time_exceeded(data) for data, _ in captured
    ]
    exceeded = [m for m in exceeded if m is not None]
    assert len(exceeded) == 1
    message = exceeded[0]
    assert message.code == icmp.TTL_EXPIRED_IN_TRANSIT
    # The quoted original identifies the probe: our IP header + 8 bytes.
    quoted = Ipv4Header.unpack(message.original, verify=False)
    assert quoted.src == host_a.ip
    assert quoted.dst == host_b.ip
    assert quoted.ttl <= 1


def test_unroutable_destination_draws_net_unreachable():
    fabric = FabricTestbed(kind="chain", n_routers=1)
    host_a, _ = fabric.hosts
    router = fabric.routers[0]
    captured = capture_icmp(host_a)
    from repro.net.headers import str_to_ip

    nowhere = str_to_ip("172.16.9.9")

    def probe():
        yield from host_a.ip_send(
            nowhere, PROTO_ICMP, icmp.encode_echo(True, 44, 1)
        )

    fabric.spawn(probe(), name="probe")
    fabric.run(until=1.0)

    assert router.stats["no_route"] == 1
    unreachable = [
        icmp.decode_unreachable(data) for data, _ in captured
    ]
    unreachable = [m for m in unreachable if m is not None]
    assert len(unreachable) == 1
    assert unreachable[0].code == icmp.UNREACH_NET
    assert Ipv4Header.unpack(
        unreachable[0].original, verify=False
    ).dst == nowhere


def test_router_never_errors_an_icmp_error():
    """An expiring packet that is itself an ICMP error dies silently
    (RFC 1122) — no error-about-an-error loops."""
    fabric = FabricTestbed(kind="chain", n_routers=2)
    host_a, host_b = fabric.hosts
    captured = capture_icmp(host_a)
    error_payload = icmp.encode_time_exceeded(b"\x45" + b"\x00" * 27)

    def probe():
        yield from host_a.ip_send(host_b.ip, PROTO_ICMP, error_payload, ttl=1)

    fabric.spawn(probe(), name="probe")
    fabric.run(until=1.0)

    assert fabric.routers[0].stats["ttl_expired"] == 1
    assert captured == []  # Nothing came back.


# ----------------------------------------------------------------------
# Dumbbell + netstat
# ----------------------------------------------------------------------


def test_dumbbell_transfers_and_netstat():
    """Four flows share the trunk; everyone finishes, loss stays at the
    bottleneck, and netstat renders the fabric state."""
    fabric = FabricTestbed(kind="dumbbell", pairs=4)
    result = measure_fabric_transfers(fabric, bytes_per_flow=80_000)

    assert all(f.bytes_moved == 80_000 for f in result.flows)
    assert result.other_drops == 0
    assert result.aggregate_mbps <= 10.0
    assert result.fairness > 0.5

    report = netstat.render(fabric)
    assert "Switch ports" in report
    assert "swL[0]" in report  # The bottleneck trunk port.
    assert "taildrop" in report
    assert "Links" in report
    # The trunk port actually carried the data.
    trunk_rows = [
        entry for entry in netstat.switch_table(fabric)
        if entry.name == "swL[0]"
    ]
    assert trunk_rows[0].tx_frames > 4 * 80_000 // 1514
