"""Simulator-at-scale: the engine under fat-trees of growing size.

The ROADMAP's scale goal is "hundreds of hosts in one simulated world";
this bench holds the engine to it, in two parts:

**Fat-tree sweep** — a k-ary fat-tree (:func:`repro.net.fabric.fat_tree`)
carrying a synchronized many-flow UDP workload: every host runs several
periodic senders whose wake times stay phase-aligned (absolute-time
pacing), the pattern that fills same-timestamp buckets in real protocol
runs.  Asserted per size: datagrams arrive, and the engine batches
(mean events per heap pop above ``MIN_EVENTS_PER_STEP``).  The 16-host
arm is the one tier-1 pins to the event
(``tests/sim/test_resources.py::test_fat_tree_events_per_datagram_gate``
runs ``run_arm(4, 2, 2, 12)``'s twin); this file does not re-gate its
count.

**TCP bulk fast path** — an in-order bulk transfer on the two-host
Ethernet bed, graded on the header-prediction hit rate (the receive
fast path must absorb >= 90% of segments in the no-loss, in-order
steady state; see :class:`repro.protocols.tcp.machine.TcpMachine`).

Everything asserted is a deterministic count.  Speeds — events/sec,
wall-seconds per simulated second — belong to the ledger
(``benchmarks/ledger``: ``host_us_per_op`` and ``sim.events_per_step``
on its ``fabric`` workload), not here.  The 1024- and 4096-host k=16
trees carry the ``huge`` marker, which ``pyproject.toml`` deselects;
``pytest benchmarks/bench_scale.py -m huge`` runs them.
"""

import pytest

from repro import netstat
from repro.metrics import measure_throughput
from repro.net.fabric import fat_tree
from repro.net.headers import PROTO_UDP
from repro.protocols.udp import encode_datagram
from repro.sim import Simulator
from repro.testbed import Testbed

FLOW_PORT = 9000
PAYLOAD = bytes(64)
#: Send period.  Short enough that flows overlap heavily; senders hold
#: phase against CPU-cost drift, so each tick is one engine batch.
INTERVAL = 2e-3

#: hosts -> (fat-tree k, hosts/edge, flows per host, datagrams per flow).
#: Host count is k * (k/2) * hosts_per_edge.
SWEEP = {
    16: (4, 2, 2, 12),
    64: (4, 8, 2, 12),
    256: (8, 8, 4, 6),  # 1024 concurrent flows.
    1024: (16, 8, 2, 4),
    4096: (16, 32, 1, 2),
}

#: Batching floor: mean events per heap pop on every tree.
MIN_EVENTS_PER_STEP = 1.5
#: Header-prediction floor: fraction of received segments the TCP
#: receive fast path must absorb on an in-order bulk transfer.
MIN_FASTPATH_HIT = 0.9


def run_arm(k, hosts_per_edge, flows_per_host, datagrams) -> dict:
    """One fat-tree many-flow workload; returns its counted facts."""
    sim = Simulator()
    topo = fat_tree(sim, k=k, hosts_per_edge=hosts_per_edge)
    hosts = topo.hosts
    n = len(hosts)
    received = [0]

    def on_datagram(_dg):
        received[0] += 1

    for host in hosts:
        host.udp_ports.bind(FLOW_PORT, on_datagram)

    def sender(src, dst_ip, sport):
        # Absolute-time pacing: tick f of every flow lands at the same
        # timestamp no matter how much simulated CPU the sends burned.
        start = sim.now
        for seq in range(datagrams):
            at = start + seq * INTERVAL
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            datagram = encode_datagram(
                sport, FLOW_PORT, PAYLOAD, src.ip, dst_ip
            )
            yield from src.ip_send(dst_ip, PROTO_UDP, datagram)

    # Deterministic flow pattern: flow f of host i targets the host
    # n//2 + f*hosts_per_edge slots away — off-subnet, spread over
    # pods.
    flows = 0
    for i, src in enumerate(hosts):
        for f in range(flows_per_host):
            j = (i + n // 2 + f * hosts_per_edge) % n
            if j == i:
                j = (j + 1) % n
            sim.process(
                sender(src, hosts[j].ip, FLOW_PORT + 1 + f),
                name=f"flow-{i}-{f}",
            )
            flows += 1

    sim.run()
    engine = sim.engine_stats()
    return {
        "hosts": n,
        "flows": flows,
        "datagrams_sent": flows * datagrams,
        "datagrams_received": received[0],
        "events": engine["events"],
        "events_per_step": engine["events"] / engine["steps"],
        "max_batch": engine["max_batch"],
        "sim_seconds": sim.now,
    }


def run_tcp_bulk() -> float:
    """One-way 192 KB TCP bulk transfer on the two-host Ethernet bed.

    A faultless, in-order stream is header prediction's home turf: the
    receive path should classify nearly every segment (bulk data at the
    receiver, pure ACKs back at the sender) on the fast path.  Returns
    the combined hit rate across both hosts.
    """
    bed = Testbed(organization="ultrix")
    measure_throughput(bed, total_bytes=192 * 1024, chunk_size=4096)
    rows = netstat.fastpath_table(bed)
    hits = sum(row.ack_hits + row.data_hits for row in rows)
    return hits / (hits + sum(row.slow_path for row in rows))


def test_scale_quick(benchmark, report):
    def both():
        return run_arm(*SWEEP[16]), run_tcp_bulk()

    fabric, hit_rate = benchmark.pedantic(both, rounds=1, iterations=1)
    delivered = fabric["datagrams_received"] / fabric["datagrams_sent"]
    assert delivered > 0.95, f"only {delivered:.0%} of datagrams delivered"
    assert fabric["events_per_step"] >= MIN_EVENTS_PER_STEP
    assert hit_rate >= MIN_FASTPATH_HIT, (
        f"header prediction missed the in-order bulk workload: {hit_rate:.3f}"
    )
    report(
        "Simulator at scale",
        "events per heap pop (quick fat-tree)",
        fabric["events_per_step"],
        MIN_EVENTS_PER_STEP,
        "",
    )
    report(
        "Simulator at scale",
        "TCP header-prediction hit rate (in-order bulk)",
        hit_rate,
        MIN_FASTPATH_HIT,
        "",
    )


@pytest.mark.parametrize(
    "hosts",
    [16, 64, 256]
    + [pytest.param(n, marks=pytest.mark.huge) for n in (1024, 4096)],
)
def test_scale_sweep(hosts, report):
    result = run_arm(*SWEEP[hosts])
    assert result["hosts"] == hosts
    if hosts >= 256:
        # Every tree from 256 hosts up carries >= 1k concurrent flows.
        assert result["flows"] >= 1000
    # The 64- and 256-host arms saturate their trees (router input
    # queues tail-drop): some datagrams arrive, none is invented.
    assert 0 < result["datagrams_received"] <= result["datagrams_sent"]
    assert result["events_per_step"] >= MIN_EVENTS_PER_STEP
    report(
        "Simulator at scale",
        f"{hosts} hosts, {result['flows']} flows: events per heap pop",
        result["events_per_step"],
        MIN_EVENTS_PER_STEP,
        "",
    )
