"""Simulator-at-scale: events/sec across fat-tree sizes, batched vs legacy.

The ROADMAP's scale goal is "hundreds of hosts in one simulated world";
this bench grades the engine on it, in two parts:

**Timer storm** — W synchronized self-rescheduling timers with trivial
callbacks.  All W fire at each tick, so every tick is one bucket: this
saturates the *scheduler* and isolates the engine from protocol code.
The batched engine's >= 1.5x events/sec acceptance gate lives here,
measured against :class:`~repro.sim.LegacySimulator` (the original
one-heap-entry-per-event engine, kept verbatim for this comparison).

**Fat-tree sweep** — a k-ary fat-tree (:func:`repro.net.fabric.fat_tree`)
carrying a synchronized many-flow UDP workload: every host runs several
periodic senders whose wake times stay phase-aligned (absolute-time
pacing), the pattern that fills same-timestamp buckets in real protocol
runs.  Reported per size: events/sec, wall-clock per simulated second,
and mean batch size.  The end-to-end batched/legacy ratio is reported
too but only sanity-gated (~1x): protocol callbacks dominate wall time
there, so heap savings are a minor term — which is exactly why the
engine gate uses the storm.

**TCP bulk fast path** — an in-order bulk transfer on the two-host
Ethernet bed, graded on the header-prediction hit rate (the receive
fast path must absorb >= 90% of segments in the no-loss, in-order
steady state; see :class:`repro.protocols.tcp.machine.TcpMachine`).

``--quick`` is the CI smoke: storm gate + 16-host tree + TCP fast-path
gate, plus a regression guard against ``baselines/scale_quick.json``:
the storm fails on a >20% events/sec drop; the fabric fails when the
run takes *more engine events* than recorded — a deterministic count,
where events/sec points the wrong way (a change that deletes the
cheapest events lowers it on a run that got faster).  Fabric events/sec
and wall-seconds per simulated second are printed beside it.  The full sweep
runs 16/64/256 hosts (the 256-host tree carries >= 1k concurrent
flows); ``--huge`` adds the 1024-host k=16 tree and the 4096-host
k=16 tree.  Topology build time is reported separately from the run:
the events/sec figures time :meth:`Simulator.run` only.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.metrics import engine_profile
from repro.net.fabric import fat_tree
from repro.net.headers import PROTO_UDP
from repro.protocols.udp import encode_datagram
from repro.sim import LegacySimulator, Simulator, Timeout

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

#: Acceptance: batched engine events/sec over legacy on the timer storm.
MIN_SPEEDUP = 1.5
#: Sanity floor for the end-to-end fabric ratio: the batched engine must
#: not make real protocol workloads meaningfully *slower*.
MIN_FABRIC_RATIO = 0.85
#: The 256-host tree must carry at least this many concurrent flows.
MIN_FLOWS_AT_256 = 1000
#: Header-prediction floor: fraction of received segments the TCP
#: receive fast path must absorb on an in-order bulk transfer.
MIN_FASTPATH_HIT = 0.9

BASELINE_PATH = Path(__file__).parent / "baselines" / "scale_quick.json"
#: Regression guard: fail if the storm's batched events/sec drops more
#: than 20% below the recorded baseline.
BASELINE_DROP = 0.8


# ----------------------------------------------------------------------
# Part 1: scheduler-saturating timer storm
# ----------------------------------------------------------------------

def run_storm(sim_cls, width=STORM_WIDTH, ticks=STORM_TICKS) -> dict:
    """``width`` synchronized timers, each rescheduling for ``ticks``
    rounds.  Absolute-time pacing keeps every round on one timestamp.

    ``events_per_sec`` here is events per *CPU* second
    (``time.process_time``): the storm arms run ~0.2s each, short
    enough that wall-clock preemption noise on a shared machine swings
    a measurement 30%, and the gate is about engine work, not
    scheduling luck."""
    sim = sim_cls()

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
    profile = engine_profile(sim, sim_cls.__name__, cpu, sim.now)
    return {
        "engine": sim_cls.__name__,
        "events": profile.events,
        "steps": profile.steps,
        "events_per_step": profile.events_per_step,
        "events_per_sec": profile.events_per_sec,
        "cpu_seconds": cpu,
    }


def run_storm_comparison(reps: int = 3) -> dict:
    """Best-of-``reps`` per arm, interleaved.  The storm runs ~0.2s per
    arm, short enough that one scheduler hiccup on a shared machine can
    swing a single measurement 30%; best-of keeps the gate meaningful."""
    legacy = batched = None
    for _ in range(reps):
        lraw = run_storm(LegacySimulator)
        braw = run_storm(Simulator)
        assert lraw["events"] == braw["events"]
        if legacy is None or lraw["events_per_sec"] > legacy["events_per_sec"]:
            legacy = lraw
        if batched is None or braw["events_per_sec"] > batched["events_per_sec"]:
            batched = braw
    return {
        "legacy": legacy,
        "batched": batched,
        "speedup": (
            batched["events_per_sec"] / legacy["events_per_sec"]
            if legacy["events_per_sec"]
            else float("inf")
        ),
    }


# ----------------------------------------------------------------------
# Part 2: fat-tree many-flow sweep
# ----------------------------------------------------------------------

def run_arm(sim_cls, k, hosts_per_edge, flows_per_host, datagrams) -> dict:
    """One fat-tree many-flow workload on one engine; returns the facts.

    Topology construction is timed separately (``build_seconds``): at
    4096 hosts the build is minutes of allocation while the run is
    seconds, and folding it into events/sec would grade the allocator,
    not the engine."""
    sim = sim_cls()
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
    # pods, identical in both arms.
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
    profile = engine_profile(sim, sim_cls.__name__, cpu, sim.now)
    sent = flows * datagrams
    return {
        "engine": sim_cls.__name__,
        "hosts": n,
        "flows": flows,
        "datagrams_sent": sent,
        "datagrams_received": received[0],
        "delivery_rate": received[0] / sent if sent else 0.0,
        "events": profile.events,
        "steps": profile.steps,
        "events_per_step": profile.events_per_step,
        "max_batch": profile.max_batch,
        "skipped": profile.skipped,
        "sim_seconds": sim.now,
        "build_seconds": build_seconds,
        "wall_seconds": wall,
        "cpu_seconds": cpu,
        "events_per_sec": profile.events_per_sec,
        "wall_per_sim_second": wall / sim.now if sim.now else 0.0,
    }


def run_size(config, compare: bool) -> dict:
    """One sweep point; with ``compare``, the legacy arm runs too."""
    label, k, hpe, fph, dgrams = config
    batched = run_arm(Simulator, k, hpe, fph, dgrams)
    result = {"label": label, "batched": batched}
    if compare:
        legacy = run_arm(LegacySimulator, k, hpe, fph, dgrams)
        result["legacy"] = legacy
        # Same workload, same simulated outcome: the engines must agree
        # on what happened, or the ratio is comparing different runs.
        assert legacy["datagrams_received"] == batched["datagrams_received"]
        assert abs(legacy["sim_seconds"] - batched["sim_seconds"]) < 1e-9
        assert legacy["events"] == batched["events"], (
            f"engines processed different event counts: "
            f"{legacy['events']} vs {batched['events']}"
        )
        result["fabric_ratio"] = (
            batched["events_per_sec"] / legacy["events_per_sec"]
            if legacy["events_per_sec"]
            else float("inf")
        )
    return result


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

def check_quick(storm: dict, fabric: dict, tcp: dict) -> None:
    assert storm["speedup"] >= MIN_SPEEDUP, (
        f"batched engine {storm['speedup']:.2f}x legacy events/sec on the "
        f"timer storm, acceptance >= {MIN_SPEEDUP}x"
    )
    batched = fabric["batched"]
    assert batched["delivery_rate"] > 0.95, (
        f"workload broken: only {batched['delivery_rate']:.0%} of "
        f"datagrams delivered"
    )
    assert batched["events_per_step"] > 1.5, (
        f"batching never engaged on the fabric: "
        f"{batched['events_per_step']:.2f} events/step"
    )
    assert fabric["fabric_ratio"] >= MIN_FABRIC_RATIO, (
        f"batched engine slows real workloads: fabric ratio "
        f"{fabric['fabric_ratio']:.2f}x < {MIN_FABRIC_RATIO}x"
    )
    assert tcp["fastpath_hit_rate"] >= MIN_FASTPATH_HIT, (
        f"header prediction missed the in-order bulk workload: hit rate "
        f"{tcp['fastpath_hit_rate']:.3f} < {MIN_FASTPATH_HIT} "
        f"({tcp['fastpath_hits']}/{tcp['segments']} segments)"
    )


def check_baseline(storm: dict, fabric_batched: dict) -> str:
    """Guard the storm's events/sec and the fabric's event count
    against the baseline."""
    if not BASELINE_PATH.exists():
        return "baseline: none recorded (run --update-baseline)"
    baseline = json.loads(BASELINE_PATH.read_text())
    current = storm["batched"]["events_per_sec"]
    recorded = baseline["storm_events_per_sec_batched"]
    floor = recorded * BASELINE_DROP
    assert current >= floor, (
        f"events/sec regression (storm_events_per_sec_batched): "
        f"{current:,.0f} is >20% below baseline {recorded:,.0f} "
        f"(floor {floor:,.0f})"
    )
    notes = [f"storm_events_per_sec_batched {current:,.0f} vs {recorded:,.0f} ok"]
    # The fabric rides on the deterministic count: the same workload
    # must not need more engine events than recorded.  Its events/sec
    # falls when a change removes events from a run that got faster,
    # so that and wall time per simulated second are information only.
    events, ceiling = fabric_batched["events"], baseline["fabric_events"]
    assert events <= ceiling, (
        f"fabric event-count regression: {events:,d} engine events for the "
        f"quick fat-tree, baseline {ceiling:,d}"
    )
    notes.append(f"fabric_events {events:,d} vs {ceiling:,d} ok")
    notes.append(
        f"(info) fabric {fabric_batched['events_per_sec']:,.0f} ev/s vs "
        f"{baseline['fabric_events_per_sec_batched']:,.0f} recorded, "
        f"wall-s/sim-s {fabric_batched['wall_per_sim_second']:.2f} vs "
        f"{baseline['fabric_wall_per_sim_second']:.2f} recorded"
    )
    return "baseline: " + "; ".join(notes)


def _print_tcp(tcp: dict) -> None:
    print(
        f"tcp bulk ({tcp['bytes'] // 1024} KB)  "
        f"{tcp['segments']:>6d} segments  "
        f"fast path {tcp['fastpath_hits']}/{tcp['segments']} "
        f"({tcp['fastpath_hit_rate']:.1%}, floor {MIN_FASTPATH_HIT:.0%})"
    )


def _print_storm(storm: dict) -> None:
    legacy, batched = storm["legacy"], storm["batched"]
    print(
        f"storm ({STORM_WIDTH}x{STORM_TICKS} timers)  "
        f"legacy {legacy['events_per_sec']:>10,.0f} ev/s  "
        f"batched {batched['events_per_sec']:>10,.0f} ev/s  "
        f"speedup {storm['speedup']:.2f}x  "
        f"(batch avg {batched['events_per_step']:.0f})"
    )


def _print_size(result: dict) -> None:
    batched = result["batched"]
    print(
        f"{result['label']:>5s} hosts  {batched['flows']:>4d} flows  "
        f"{batched['events']:>10,d} events  "
        f"{batched['events_per_sec']:>10,.0f} ev/s  "
        f"{batched['wall_per_sim_second']:>7.2f} wall-s/sim-s  "
        f"build {batched['build_seconds']:>6.1f}s  "
        f"batch avg {batched['events_per_step']:.1f} "
        f"max {batched['max_batch']}"
    )
    if "legacy" in result:
        legacy = result["legacy"]
        print(
            f"{'':>5s} legacy  {'':>10s} "
            f"{legacy['events']:>10,d} events  "
            f"{legacy['events_per_sec']:>10,.0f} ev/s  "
            f"{legacy['wall_per_sim_second']:>7.2f} wall-s/sim-s  "
            f"end-to-end ratio {result['fabric_ratio']:.2f}x"
        )


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------

def test_scale_quick_speedup(benchmark, report):
    def both():
        return (
            run_storm_comparison(),
            run_size(QUICK_CONFIG, compare=True),
            run_tcp_bulk(),
        )

    storm, fabric, tcp = benchmark.pedantic(both, rounds=1, iterations=1)
    check_quick(storm, fabric, tcp)
    report(
        "Simulator at scale",
        "batched/legacy events-per-sec (timer storm)",
        storm["speedup"],
        MIN_SPEEDUP,
        "x",
    )
    report(
        "Simulator at scale",
        "events per heap pop (quick fat-tree)",
        fabric["batched"]["events_per_step"],
        1.5,
        "",
    )
    report(
        "Simulator at scale",
        "TCP header-prediction hit rate (in-order bulk)",
        tcp["fastpath_hit_rate"],
        MIN_FASTPATH_HIT,
        "",
    )


def test_scale_engines_agree():
    """Engine choice is a performance knob, not a semantics knob."""
    result = run_size(QUICK_CONFIG, compare=True)
    assert result["legacy"]["datagrams_received"] == (
        result["batched"]["datagrams_received"]
    )
    assert result["legacy"]["sim_seconds"] == (
        result["batched"]["sim_seconds"]
    )


# ----------------------------------------------------------------------
# Standalone / CI entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="events/sec vs fat-tree size, batched vs legacy engine"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: storm gate + 16-host tree + baseline guard",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="record quick batched events/sec as the new baseline",
    )
    parser.add_argument(
        "--huge",
        action="store_true",
        help="add the 1024- and 4096-host k=16 trees to the full sweep",
    )
    args = parser.parse_args(argv)

    storm = run_storm_comparison()
    _print_storm(storm)

    if args.quick or args.update_baseline:
        fabric = run_size(QUICK_CONFIG, compare=True)
        _print_size(fabric)
        tcp = run_tcp_bulk()
        _print_tcp(tcp)
        check_quick(storm, fabric, tcp)
        if args.update_baseline:
            batched = fabric["batched"]
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
                            storm["batched"]["events_per_sec"]
                        ),
                        "storm_speedup": storm["speedup"],
                        "fabric_events_per_sec_batched": (
                            batched["events_per_sec"]
                        ),
                        "fabric_ratio": fabric["fabric_ratio"],
                        "fabric_events": batched["events"],
                        "fabric_wall_per_sim_second": (
                            batched["wall_per_sim_second"]
                        ),
                        "fabric_events_per_step": (
                            batched["events_per_step"]
                        ),
                        "tcp_fastpath_hit_rate": tcp["fastpath_hit_rate"],
                        "tcp_fastpath_segments": tcp["segments"],
                    },
                    indent=2,
                )
                + "\n"
            )
            print(f"baseline written to {BASELINE_PATH}")
        else:
            print(check_baseline(storm, fabric["batched"]))
        print("ok")
        return 0

    assert storm["speedup"] >= MIN_SPEEDUP
    sweep = list(FULL_SWEEP) + (HUGE_SWEEP if args.huge else [])
    for config in sweep:
        # Legacy comparison on the small sizes only; the big trees are
        # about absolute throughput, not the A/B.
        result = run_size(config, compare=config[1] <= 4)
        _print_size(result)
        if result["label"] == "256":
            assert result["batched"]["flows"] >= MIN_FLOWS_AT_256
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
