"""The counting rule (DESIGN.md, "Counting"): ``obj.stats`` is the live
:class:`~repro.counters.Counters` the object increments — so a reader
that keeps the reference (the flight recorder's ``watch``) sees every
later increment — and a derived view is netstat's job.  ``Link`` is the
one documented exception."""

import pytest

from repro.counters import Counters
from repro.net.link import Link
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


def _counting_objects(bed):
    """Everything under ``bed`` that counts, labelled."""
    nodes = list(bed.hosts)
    for router in getattr(bed, "routers", []):
        yield f"{router.name} router", router
        nodes.extend(router.interfaces)
    for registry in bed.registries:
        yield f"{registry.host.name} registry", registry
    for service in bed.services:
        if hasattr(service, "stats"):  # the in-kernel stacks count rx
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
        lambda: _two_host("ethernet"),
        lambda: _two_host("an1"),
        lambda: _fabric("dumbbell", pairs=1),
        lambda: _fabric("chain", n_routers=1),
        lambda: _fabric("dumbbell", organization="ultrix", pairs=1),
    ],
    ids=["ethernet", "an1", "dumbbell", "chain", "ultrix"],
)
def test_stats_is_the_live_counters_everywhere_but_link(build):
    bed = build()
    labels = []
    for label, obj in _counting_objects(bed):
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
        " service": bed.organization != "userlib",
        " bqi ring ": bed.network == "an1",
        " queue": bool(bed.switches),
    }
    for kind, expected in kinds.items():
        assert any(kind in label for label in labels) == expected, kind
    # Link folds the fault injector's authoritative counts over its
    # live traffic dict on every read: the one fresh-copy ``stats``.
    for link in bed.links:
        assert link.stats is not link.stats
        assert link.stats == link.stats
    assert isinstance(vars(Link)["stats"], property)
