"""The counting rule (DESIGN.md, "Counting"): ``obj.stats`` is the live
:class:`~repro.counters.Counters` the object increments — so a reader
that keeps the reference (the flight recorder's ``watch``) sees every
later increment — and a derived view is netstat's job.  And the drop
rule: a key that looks like a frame drop is a reason in netstat's drop
table, or on the list below of the counts that only look like one."""

import re
from pathlib import Path

import pytest

from repro.counters import Counters
from repro.netstat import DROP_REASONS
from repro.org.udplib import LibraryUdpService
from repro.protocols.rrp import Complete, RrpClient, RrpServer
from repro.testbed import IP_B, FabricTestbed, Testbed


def _open_connection(bed, client, server, server_ip, port=9300):
    """Leave one connection established so its channels exist."""

    def serve():
        listener = yield from server.listen(port)
        conn = yield from listener.accept()
        yield from conn.recv(64)

    def connect():
        conn = yield from client.connect(server_ip, port)
        yield from conn.send(b"counted")
        yield bed.sim.timeout(0.3)

    bed.spawn(serve(), name="serve")
    bed.run(until=bed.spawn(connect(), name="connect"))


def _two_host(network):
    bed = Testbed(network=network, organization="userlib")
    _open_connection(bed, bed.service_a, bed.service_b, IP_B)
    return bed


def _fabric(kind, organization="userlib", **kwargs):
    bed = FabricTestbed(kind=kind, organization=organization, **kwargs)
    hosts = bed.hosts
    _open_connection(
        bed, bed.service(hosts[0]), bed.service(hosts[-1]), hosts[-1].ip
    )
    return bed


def _udplib_rrp():
    """One RRP transaction between two bound udplib endpoints; the
    endpoints and the sans-io engines are not reachable from the bed,
    so they come back beside it."""
    bed = Testbed(network="ethernet", organization="userlib")
    client, server = RrpClient(), RrpServer(lambda request: b"re:" + request)
    extras = [("rrp client", client), ("rrp server", server)]

    def exchange():
        udp_a = LibraryUdpService(bed.host_a, bed.app_a, bed.registry_a)
        udp_b = LibraryUdpService(bed.host_b, bed.app_b, bed.registry_b)
        server_end = yield from udp_b.bind(6100)
        client_end = yield from udp_a.bind(0)
        extras.append((f"{bed.host_a.name} udp endpoint", client_end))
        extras.append((f"{bed.host_b.name} udp endpoint", server_end))
        _, (request, _retry) = client.call(IP_B, 6100, b"counted")
        yield from client_end.sendto(request.ip, request.port, request.data)
        data, peer = yield from server_end.recvfrom()
        (answer,) = server.on_datagram(data, peer, bed.sim.now)
        yield from server_end.sendto(answer.ip, answer.port, answer.data)
        data, _ = yield from client_end.recvfrom()
        assert isinstance(client.on_datagram(data)[0], Complete)

    bed.run(until=bed.spawn(exchange(), name="rrp"))
    return bed, extras


#: Counts that look like frame drops and are not: refused or throttled
#: sends, refused setup, lookups that fell through to a slower path, a
#: segment that matched no connection (answered by a RST), a switch
#: declining to forward a frame its destination already heard or
#: flooding one, and two breakdowns of a queue's ``dropped``.
NOT_FRAME_DROPS = {
    "tx_refused", "tx_throttled", "throttled", "bqi_refused",
    "region_pool_refused", "misses", "wildcard_rejected", "fastpath_misses",
    "cache_misses", "rx_no_match", "filtered", "flooded",
    "early_dropped", "dropped_bytes",
}

_REASONS = {key for keys in DROP_REASONS.values() for key in keys}

DROP_LIKE = re.compile(
    r"drop|bad|refus|reject|ignor|miss|expire|runt|malformed|unaddressed"
    r"|not_ours|no_|unknown|fail|throttl|filtered|flood|full"
)


def _counting_objects(bed):
    """Everything under ``bed`` that counts, labelled."""
    nodes = list(bed.hosts)
    for i, link in enumerate(bed.links):
        yield f"link{i} link", link
        yield f"link{i} faults", link.faults
    for host in bed.hosts:
        yield f"{host.name} host", host
    for router in getattr(bed, "routers", []):
        yield f"{router.name} router", router
        nodes.extend(router.interfaces)
    for registry in bed.registries:
        yield f"{registry.host.name} registry", registry
    for service in bed.services:
        yield f"{service.host.name} service", service
    for node in nodes:
        yield f"{node.name} nic", node.nic
        for ring in getattr(node.nic, "bqi_table", {}).values():
            yield f"{node.name} bqi ring {ring.bqi}", ring
        yield f"{node.name} netio", node.netio
        yield f"{node.name} flow table", node.netio.flow_table
        for channel in node.netio.channels:
            yield f"{node.name} channel {channel.name}", channel
        for layer in ("ip_stack", "arp", "udp_ports"):
            stack = getattr(node, layer, None)
            if stack is not None:
                yield f"{node.name} {layer}", stack
    for switch in bed.switches:
        yield f"{switch.name} switch", switch
        for port in switch.ports:
            yield f"{port.name} port", port
            yield f"{port.name} queue", port.queue


@pytest.mark.parametrize(
    "build",
    [
        lambda: (_two_host("ethernet"), []),
        lambda: (_two_host("an1"), []),
        lambda: (_fabric("dumbbell", pairs=1), []),
        lambda: (_fabric("chain", n_routers=1), []),
        lambda: (_fabric("dumbbell", organization="ultrix", pairs=1), []),
        _udplib_rrp,
    ],
    ids=["ethernet", "an1", "dumbbell", "chain", "ultrix", "udplib-rrp"],
)
def test_stats_is_the_live_counters_everywhere_but_link(build):
    """Everywhere: links too, since a link's ``stats`` stopped being a
    fresh merge of its injector's counts per read (the ids keep the old
    name)."""
    bed, extras = build()
    labels = []
    for label, obj in [*_counting_objects(bed), *extras]:
        labels.append(label)
        assert isinstance(obj.stats, Counters), label
        assert obj.stats is obj.stats, label
    for host in bed.hosts:
        counters = host.kernel.counters
        assert isinstance(counters, Counters), host.name
        assert counters["ipc_messages"] + counters["traps"] > 0, host.name
    # The walk reached every kind of counter this bed has.
    kinds = {
        " channel ": bed.organization == "userlib",
        " registry": bed.organization == "userlib",
        " service": True,
        " link": True,
        " bqi ring ": bed.network == "an1",
        " queue": bool(bed.switches),
        " udp endpoint": bool(extras),
        "rrp ": bool(extras),
    }
    for kind, expected in kinds.items():
        assert any(kind in label for label in labels) == expected, kind
    # Every drop-like key is a drop-table reason or a listed look-alike.
    for label, obj in _counting_objects(bed):
        for key in obj.stats:
            if DROP_LIKE.search(key):
                assert key in _REASONS or key in NOT_FRAME_DROPS, (label, key)


def test_every_drop_like_key_the_source_counts_is_a_reason_or_listed():
    """The same rule over every ``stats[...]`` key a ``src/`` line
    increments, touched by a run or not."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    counted = set()
    for path in src.rglob("*.py"):
        counted.update(re.findall(r'stats\["(\w+)"\] \+=', path.read_text()))
    assert {"rx_bad_checksum", "rx_region_full", "unaddressed"} <= counted
    strays = sorted(
        key for key in counted
        if DROP_LIKE.search(key) and key not in _REASONS and key not in NOT_FRAME_DROPS
    )
    assert not strays
