"""Simulator-at-scale: engine events and events/sec across fat-tree sizes.

The ROADMAP's scale goal is "hundreds of hosts in one simulated world";
this bench grades the engine on it, in three parts:

**Timer storm** — W synchronized self-rescheduling timers with trivial
callbacks.  All W fire at each tick, so every tick is one bucket: this
saturates the *scheduler* and isolates the engine from protocol code.
Its events/sec is printed as information.

**Fat-tree sweep** — a k-ary fat-tree (:func:`repro.net.fabric.fat_tree`)
carrying a synchronized many-flow UDP workload: every host runs several
periodic senders whose wake times stay phase-aligned (absolute-time
pacing), the pattern that fills same-timestamp buckets in real protocol
runs.  Reported per size: events/sec, wall-clock per simulated second,
and mean batch size.

**TCP bulk fast path** — an in-order bulk transfer on the two-host
Ethernet bed, graded on the header-prediction hit rate (the receive
fast path must absorb >= 90% of segments in the no-loss, in-order
steady state; see :class:`repro.protocols.tcp.machine.TcpMachine`).

Every gate rides on a deterministic count; events/sec and wall-seconds
per simulated second are printed, never asserted (a wall-clock ratio
flips under load, and events/sec falls when a change deletes the
cheapest events from a run that got faster).  ``--quick`` is the CI
smoke: storm + 16-host tree + TCP bulk, gated on the delivery rate, the
events-per-step batching floor, the fast-path hit floor, and the fabric
taking no *more engine events* than ``baselines/scale_quick.json``
records.  The full sweep runs 16/64/256 hosts (the 256-host tree
carries >= 1k concurrent flows); ``--huge`` adds the 1024-host k=16
tree and the 4096-host k=16 tree.  Topology build time is reported
separately from the run: the events/sec figures time
:meth:`Simulator.run` only.  Speed claims belong to the ledger
(``benchmarks/ledger``), not here.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.net.fabric import fat_tree
from repro.net.headers import PROTO_UDP
from repro.protocols.udp import encode_datagram
from repro.sim import Simulator, Timeout

FLOW_PORT = 9000
PAYLOAD = bytes(64)
#: Send period.  Short enough that flows overlap heavily; senders hold
#: phase against CPU-cost drift, so each tick is one engine batch.
INTERVAL = 2e-3

#: Timer storm shape: ``STORM_WIDTH`` timers x ``STORM_TICKS`` rounds.
STORM_WIDTH = 400
STORM_TICKS = 250
STORM_PERIOD = 1e-3

#: (label, fat-tree k, hosts/edge, flows per host, datagrams per flow).
#: Host count is k * (k/2) * hosts_per_edge.
QUICK_CONFIG = ("16", 4, 2, 2, 12)
FULL_SWEEP = [
    ("16", 4, 2, 2, 12),
    ("64", 4, 8, 2, 12),
    ("256", 8, 8, 4, 6),  # 1024 concurrent flows.
]
HUGE_SWEEP = [
    ("1024", 16, 8, 2, 4),
    ("4096", 16, 32, 1, 2),  # k=16, 32 hosts/edge: 4096 hosts.
]

#: The 256-host tree must carry at least this many concurrent flows.
MIN_FLOWS_AT_256 = 1000
#: Header-prediction floor: fraction of received segments the TCP
#: receive fast path must absorb on an in-order bulk transfer.
MIN_FASTPATH_HIT = 0.9

#: Batching floor: mean events per heap pop on the quick fat-tree.
MIN_EVENTS_PER_STEP = 1.5

BASELINE_PATH = Path(__file__).parent / "baselines" / "scale_quick.json"


def _ratio(count: float, per: float) -> float:
    return count / per if per else 0.0


# ----------------------------------------------------------------------
# Part 1: scheduler-saturating timer storm
# ----------------------------------------------------------------------

def run_storm(width=STORM_WIDTH, ticks=STORM_TICKS) -> dict:
    """``width`` synchronized timers, each rescheduling for ``ticks``
    rounds.  Absolute-time pacing keeps every round on one timestamp.

    ``events_per_sec`` here is events per *CPU* second
    (``time.process_time``), and information only."""
    sim = Simulator()

    def retick(timer: Timeout) -> None:
        tick = timer._value
        if tick < ticks:
            nxt = Timeout(
                sim, (tick + 1) * STORM_PERIOD - sim.now, value=tick + 1
            )
            nxt.callbacks.append(retick)

    for _ in range(width):
        first = Timeout(sim, STORM_PERIOD, value=1)
        first.callbacks.append(retick)

    cpu0 = time.process_time()
    sim.run()
    cpu = time.process_time() - cpu0
    engine = sim.engine_stats()
    return {
        "events": engine["events"],
        "steps": engine["steps"],
        "events_per_step": _ratio(engine["events"], engine["steps"]),
        "events_per_sec": _ratio(engine["events"], cpu),
        "cpu_seconds": cpu,
    }


# ----------------------------------------------------------------------
# Part 2: fat-tree many-flow sweep
# ----------------------------------------------------------------------

def run_arm(k, hosts_per_edge, flows_per_host, datagrams) -> dict:
    """One fat-tree many-flow workload; returns the facts.

    Topology construction is timed separately (``build_seconds``): at
    4096 hosts the build is minutes of allocation while the run is
    seconds, and folding it into events/sec would grade the allocator,
    not the engine."""
    sim = Simulator()
    build0 = time.perf_counter()
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

    build_seconds = time.perf_counter() - build0
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    sim.run()
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    # events/sec over CPU time (stable under machine contention, and
    # what the baseline guards); wall-clock feeds the wall-s/sim-s
    # figure the sweep table reports.
    engine = sim.engine_stats()
    sent = flows * datagrams
    return {
        "hosts": n,
        "flows": flows,
        "datagrams_sent": sent,
        "datagrams_received": received[0],
        "delivery_rate": received[0] / sent if sent else 0.0,
        "events": engine["events"],
        "steps": engine["steps"],
        "events_per_step": _ratio(engine["events"], engine["steps"]),
        "max_batch": engine["max_batch"],
        "skipped": engine["skipped"],
        "sim_seconds": sim.now,
        "build_seconds": build_seconds,
        "wall_seconds": wall,
        "cpu_seconds": cpu,
        "events_per_sec": _ratio(engine["events"], cpu),
        "wall_per_sim_second": _ratio(wall, sim.now),
    }


def run_size(config) -> dict:
    """One sweep point."""
    label, k, hpe, fph, dgrams = config
    return {"label": label, **run_arm(k, hpe, fph, dgrams)}


# ----------------------------------------------------------------------
# Part 3: TCP bulk transfer, graded on the header-prediction fast path
# ----------------------------------------------------------------------

def run_tcp_bulk(total_bytes=192 * 1024, chunk=4096, port=4500) -> dict:
    """One-way TCP bulk transfer on the two-host Ethernet bed.

    A faultless, in-order stream is header prediction's home turf: the
    receive path should classify nearly every segment (bulk data at the
    receiver, pure ACKs back at the sender) on the fast path.  Returns
    the combined hit rate across both endpoint machines.
    """
    from repro.testbed import IP_B, Testbed

    bed = Testbed(organization="ultrix")
    payload = (bytes(range(256)) * (chunk // 256 + 1))[:chunk]
    machines = []

    def sender():
        conn = yield from bed.service_a.connect(IP_B, port)
        machines.append(conn.runner.machine)
        sent = 0
        while sent < total_bytes:
            data = payload[: min(chunk, total_bytes - sent)]
            yield from conn.send(data)
            sent += len(data)
        yield from conn.close()

    def receiver():
        listener = yield from bed.service_b.listen(port)
        conn = yield from listener.accept()
        machines.append(conn.runner.machine)
        received = 0
        while received < total_bytes:
            data = yield from conn.recv(chunk)
            if not data:
                break
            received += len(data)
        yield from conn.close()

    rx = bed.spawn(receiver(), name="bulk-rx")
    bed.spawn(sender(), name="bulk-tx")
    cpu0 = time.process_time()
    bed.run(until=rx)
    cpu = time.process_time() - cpu0
    hits = misses = 0
    for machine in machines:
        stats = machine.stats
        hits += stats["fastpath_ack_hits"] + stats["fastpath_data_hits"]
        misses += stats["fastpath_misses"]
    segments = hits + misses
    return {
        "bytes": total_bytes,
        "segments": segments,
        "fastpath_hits": hits,
        "fastpath_misses": misses,
        "fastpath_hit_rate": hits / segments if segments else 0.0,
        "sim_seconds": bed.sim.now,
        "cpu_seconds": cpu,
    }


# ----------------------------------------------------------------------
# Acceptance and baseline checks
# ----------------------------------------------------------------------

def check_quick(fabric: dict, tcp: dict) -> None:
    assert fabric["delivery_rate"] > 0.95, (
        f"workload broken: only {fabric['delivery_rate']:.0%} of "
        f"datagrams delivered"
    )
    assert fabric["events_per_step"] > MIN_EVENTS_PER_STEP, (
        f"batching never engaged on the fabric: "
        f"{fabric['events_per_step']:.2f} events/step"
    )
    assert tcp["fastpath_hit_rate"] >= MIN_FASTPATH_HIT, (
        f"header prediction missed the in-order bulk workload: hit rate "
        f"{tcp['fastpath_hit_rate']:.3f} < {MIN_FASTPATH_HIT} "
        f"({tcp['fastpath_hits']}/{tcp['segments']} segments)"
    )


def check_baseline(storm: dict, fabric: dict) -> str:
    """Guard the fabric's engine-event count against the baseline: the
    same workload must not need more engine events than recorded.
    Events/sec and wall time per simulated second are information."""
    if not BASELINE_PATH.exists():
        return "baseline: none recorded (run --update-baseline)"
    baseline = json.loads(BASELINE_PATH.read_text())
    events, ceiling = fabric["events"], baseline["fabric_events"]
    assert events <= ceiling, (
        f"fabric event-count regression: {events:,d} engine events for the "
        f"quick fat-tree, baseline {ceiling:,d}"
    )
    return (
        f"baseline: fabric_events {events:,d} vs {ceiling:,d} ok; "
        f"(info) storm {storm['events_per_sec']:,.0f} ev/s vs "
        f"{baseline['storm_events_per_sec_batched']:,.0f} recorded, "
        f"fabric {fabric['events_per_sec']:,.0f} ev/s vs "
        f"{baseline['fabric_events_per_sec_batched']:,.0f} recorded, "
        f"wall-s/sim-s {fabric['wall_per_sim_second']:.2f} vs "
        f"{baseline['fabric_wall_per_sim_second']:.2f} recorded"
    )


def _print_tcp(tcp: dict) -> None:
    print(
        f"tcp bulk ({tcp['bytes'] // 1024} KB)  "
        f"{tcp['segments']:>6d} segments  "
        f"fast path {tcp['fastpath_hits']}/{tcp['segments']} "
        f"({tcp['fastpath_hit_rate']:.1%}, floor {MIN_FASTPATH_HIT:.0%})"
    )


def _print_storm(storm: dict) -> None:
    print(
        f"storm ({STORM_WIDTH}x{STORM_TICKS} timers)  "
        f"{storm['events']:>10,d} events  "
        f"{storm['events_per_sec']:>10,.0f} ev/s  "
        f"(batch avg {storm['events_per_step']:.0f})"
    )


def _print_size(result: dict) -> None:
    print(
        f"{result['label']:>5s} hosts  {result['flows']:>4d} flows  "
        f"{result['events']:>10,d} events  "
        f"{result['events_per_sec']:>10,.0f} ev/s  "
        f"{result['wall_per_sim_second']:>7.2f} wall-s/sim-s  "
        f"build {result['build_seconds']:>6.1f}s  "
        f"batch avg {result['events_per_step']:.1f} "
        f"max {result['max_batch']}"
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------

def test_scale_quick(benchmark, report):
    def both():
        return run_size(QUICK_CONFIG), run_tcp_bulk()

    fabric, tcp = benchmark.pedantic(both, rounds=1, iterations=1)
    check_quick(fabric, tcp)
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
        tcp["fastpath_hit_rate"],
        MIN_FASTPATH_HIT,
        "",
    )


# ----------------------------------------------------------------------
# Standalone / CI entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="engine events and events/sec vs fat-tree size"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: storm + 16-host tree + TCP bulk + baseline guard",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="record the quick run as the new baseline",
    )
    parser.add_argument(
        "--huge",
        action="store_true",
        help="add the 1024- and 4096-host k=16 trees to the full sweep",
    )
    args = parser.parse_args(argv)

    storm = run_storm()
    _print_storm(storm)

    if args.quick or args.update_baseline:
        fabric = run_size(QUICK_CONFIG)
        _print_size(fabric)
        tcp = run_tcp_bulk()
        _print_tcp(tcp)
        check_quick(fabric, tcp)
        if args.update_baseline:
            BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
            BASELINE_PATH.write_text(
                json.dumps(
                    {
                        "storm": {
                            "width": STORM_WIDTH,
                            "ticks": STORM_TICKS,
                        },
                        "fabric": {
                            "k": QUICK_CONFIG[1],
                            "hosts_per_edge": QUICK_CONFIG[2],
                            "flows_per_host": QUICK_CONFIG[3],
                            "datagrams_per_flow": QUICK_CONFIG[4],
                        },
                        "storm_events_per_sec_batched": (
                            storm["events_per_sec"]
                        ),
                        "fabric_events_per_sec_batched": (
                            fabric["events_per_sec"]
                        ),
                        "fabric_events": fabric["events"],
                        "fabric_wall_per_sim_second": (
                            fabric["wall_per_sim_second"]
                        ),
                        "fabric_events_per_step": fabric["events_per_step"],
                        "tcp_fastpath_hit_rate": tcp["fastpath_hit_rate"],
                        "tcp_fastpath_segments": tcp["segments"],
                    },
                    indent=2,
                )
                + "\n"
            )
            print(f"baseline written to {BASELINE_PATH}")
        else:
            print(check_baseline(storm, fabric))
        print("ok")
        return 0

    sweep = list(FULL_SWEEP) + (HUGE_SWEEP if args.huge else [])
    for config in sweep:
        result = run_size(config)
        _print_size(result)
        if result["label"] == "256":
            assert result["flows"] >= MIN_FLOWS_AT_256
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
