"""The plane observes and never steers, on the paths ``bench_obs`` does
not cross.

``benchmarks/bench_obs.py`` holds the plane to an identical outcome on
Ethernet bulk through ``userlib`` only.  Each arm here runs with the
plane off, then on, then off again, and every run must end in the same
world: bytes delivered, final simulated time, link, switch-queue and
NIC counters, and engine event count.

* AN1 ``userlib`` transfer: the AN1 controller's sites and the BQI
  demux;
* a two-router ``chain``: ``router.forward``;
* a ``dumbbell`` whose trunk queue tail-drops: the queue sites,
  ``queue.occupancy`` and ``flow.completion``.
"""

import pytest

from repro import obs
from repro.metrics import measure_fabric_transfers, measure_throughput
from repro.testbed import FabricTestbed, Testbed


def _nics(bed) -> list:
    nics = [host.nic for host in bed.hosts]
    for router in bed.routers:
        nics.extend(iface.nic for iface in router.interfaces)
    return nics


def _world(bed, delivered) -> dict:
    """Everything a run leaves behind that the plane must not move."""
    return {
        "delivered": delivered,
        "now": bed.sim.now,
        "events": bed.sim.engine_stats()["events"],
        "links": [dict(link.stats) for link in bed.links],
        "queues": [
            (dict(port.queue.stats), port.queue.peak_bytes, list(port.queue.occupancy))
            for switch in bed.switches
            for port in switch.ports
        ],
        "nics": [(nic.name, dict(nic.stats)) for nic in _nics(bed)],
    }


def _an1():
    bed = Testbed(network="an1", organization="userlib")
    result = measure_throughput(bed, total_bytes=120_000)
    return bed, result.bytes_moved


def _chain():
    bed = FabricTestbed(kind="chain", organization="userlib", n_routers=2)
    host_a, host_b = bed.hosts
    got = []

    def server():
        listener = yield from bed.service(host_b).listen(9300)
        conn = yield from listener.accept()
        got.append((yield from conn.recv_exactly(30_000)))

    def client():
        conn = yield from bed.service(host_a).connect(host_b.ip, 9300)
        yield from conn.send(b"x" * 30_000)
        yield from conn.close()

    proc = bed.spawn(server(), name="server")
    bed.spawn(client(), name="client")
    bed.run(until=proc)
    return bed, len(got[0])


def _dumbbell():
    bed = FabricTestbed(
        kind="dumbbell", organization="userlib", pairs=3, queue_bytes=6000
    )
    result = measure_fabric_transfers(bed, bytes_per_flow=60_000)
    return bed, [flow.bytes_moved for flow in result.flows]


@pytest.mark.parametrize("arm", [_an1, _chain, _dumbbell], ids=["an1", "chain", "dumbbell"])
def test_plane_on_leaves_the_outcome_unchanged(arm):
    off = _world(*arm())
    session = obs.enable()
    on = _world(*arm())
    obs.disable()
    off_again = _world(*arm())
    assert on == off
    assert off_again == off
    # The plane was on and watched the arm's own sites.
    assert session.spans.recorded > session.spans.minted > 0
    assert session.profiler.report()
    if arm is _dumbbell:
        assert any(queue[0]["dropped"] for queue in off["queues"]), "no tail drop"
        for name in ("queue.occupancy", "flow.completion"):
            assert session.histograms.get(name).count > 0
    stages = {event.stage for event in session.spans.events}
    expected = {
        _an1: {"demux", "netio.deliver"},
        _chain: {"router.forward", "demux.classify"},
        _dumbbell: {"queue.enq", "queue.drop"},
    }[arm]
    assert expected <= stages
