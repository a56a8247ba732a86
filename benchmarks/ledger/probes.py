"""Counter probes: the one file that knows where the program keeps a count.

Sources are ``netstat.as_json(bed)`` per arm, ``engine_stats()``, the
``stats`` of the ``TcpMachine``s and channels the applications held, and
— for the counts netstat does not render — ``registries[i].stats``,
``hosts[i].nic.stats`` and ``routers[i].stats`` on the bed.  A probe
whose source key is absent reports ``None`` (printed ``n/a``) and never
fails the run: a later change that re-homes a counter must not break a
benchmark it may not edit.  A layer that did no work reports 0.
"""

from __future__ import annotations

from functools import cached_property

from repro import netstat
from repro.protocols.tcp import TcpSegmentEncoder

from .workloads import NETWORKS, PAPER, Outcome, World, empty_bed


#: What reading a source that is not there raises.
ABSENT = (KeyError, AttributeError, TypeError, IndexError)


def global_counts() -> dict:
    """The process-global counters: buf copy accounting, encoder hits.

    They only grow; snapshot them before a rep and :func:`collect`
    reports the difference.  This runs around every rep, the timed ones
    too, so a source that is gone leaves its keys out (the probes that
    want them then report ``None``) and raises nothing.
    """
    counts: dict = {}
    try:
        counts.update(TcpSegmentEncoder.GLOBAL_STATS)
    except ABSENT:
        pass
    try:
        # netstat's process-global rows need no hosts.
        for row in netstat.as_json(empty_bed())["copy"]:
            if row["scope"] != "datapath":
                continue
            if row["detail"] == "wire-image fusion":
                counts["materialized"] = row["copied_bytes"]
            else:
                counts["copied"] = row["copied_bytes"]
                counts["avoided"] = row["avoided_bytes"]
    except ABSENT:
        pass
    return counts


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class _Facts:
    """Raw sums over one finished world, gathered once."""

    def __init__(self, world: World, outcome: Outcome, base: dict) -> None:
        self.workload = world.workload
        self.outcome = outcome
        self.ops = outcome.ops
        self.beds = [arm.bed for arm in world.arms]
        self.machines = [m for arm in world.arms for m in arm.machines]
        self.channels = [c for arm in world.arms for c in arm.channels]
        now = global_counts()
        self.globals = {key: now[key] - base.get(key, 0) for key in now}

    @cached_property
    def tables(self) -> list:
        return [netstat.as_json(bed) for bed in self.beds]

    def rows(self, table: str, **match) -> list:
        return [
            row
            for tables in self.tables
            for row in tables[table]
            if all(row[key] == value for key, value in match.items())
        ]

    def total(self, table: str, column: str, **match) -> float:
        return sum(row[column] for row in self.rows(table, **match))

    def engine(self, key: str) -> int:
        return sum(bed.sim.engine_stats()[key] for bed in self.beds)

    def tcp(self, key: str) -> int:
        return sum(machine.stats[key] for machine in self.machines)

    def each(self, collection: str, stat: str) -> int:
        """Sum ``obj.stats[stat]`` over ``bed.<collection>`` of every arm."""
        return sum(
            obj.stats[stat] for bed in self.beds for obj in getattr(bed, collection, ())
        )

    def nic(self, stat: str) -> int:
        return sum(host.nic.stats[stat] for bed in self.beds for host in bed.hosts)

    def segments(self) -> float:
        """TCP segments received; datagrams delivered where there is no TCP."""
        return self.tcp("segments_received") if self.machines else self.ops

    def lookups(self) -> float:
        return sum(
            self.total("demux", column)
            for column in ("exact_hits", "wildcard_hits", "scan_hits", "misses")
        )

    def sim(self, arm: str, key: str) -> float:
        return self.outcome.sim.get(arm, {}).get(key, 0.0)


def _paper_err_pct(f: _Facts) -> float:
    """Mean over the arms of |simulated - paper| / paper, in percent."""
    key = {"bulk": "goodput_mbps", "pingpong": "rtt_ms", "churn": "conn_setup_ms"}[f.workload]
    cells = PAPER[f.workload]
    return 100.0 * sum(
        abs(f.sim(net, key) - cells[net]) / cells[net] for net in NETWORKS
    ) / len(NETWORKS)


def _fastpath_hit_rate(f: _Facts) -> float:
    hits = f.tcp("fastpath_ack_hits") + f.tcp("fastpath_data_hits")
    return _ratio(hits, hits + f.tcp("fastpath_misses"))


def _template_hit_rate(f: _Facts) -> float:
    g = f.globals
    hits = g["template_patches"] + g["retransmit_reuses"]
    return _ratio(hits, hits + g["full_encodes"])


def _avoided_share(f: _Facts) -> float:
    g = f.globals
    return _ratio(g["avoided"], g["avoided"] + g["copied"] + g["materialized"])


def _mean_batch(f: _Facts) -> float:
    return _ratio(
        sum(c.stats["batched_packets"] for c in f.channels),
        sum(c.stats["batches"] for c in f.channels),
    )


#: (name, unit, probe).  The few probes defined on some workloads only
#: report None elsewhere.
PROBES = [
    ("sim.events_per_op", "count", lambda f: _ratio(f.engine("events"), f.ops)),
    ("sim.events_per_step", "count", lambda f: _ratio(f.engine("events"), f.engine("steps"))),
    ("sim.cancelled_share", "ratio", lambda f: _ratio(f.engine("cancelled"), f.engine("events"))),
    ("sim.skipped_share", "ratio", lambda f: _ratio(f.engine("skipped"), f.engine("events"))),
    ("net.buf.copied_bytes_per_segment", "B", lambda f: _ratio(f.globals["copied"], f.segments())),
    ("net.buf.materialized_bytes_per_segment", "B", lambda f: _ratio(f.globals["materialized"], f.segments())),
    ("net.buf.avoided_share", "ratio", lambda f: _avoided_share(f)),
    ("net.nic.rx_dropped_no_buffer", "count", lambda f: f.nic("rx_dropped_no_buffer")),
    ("net.link.frames_per_op", "count", lambda f: _ratio(f.total("links", "frames"), f.ops)),
    ("net.link.dropped", "count", lambda f: f.total("links", "dropped")),
    ("net.fabric.queue_drops", "count", lambda f: f.total("switch_ports", "drops") + f.each("routers", "input_dropped")),
    ("net.fabric.peak_queue_bytes", "B", lambda f: max((r["peak_bytes"] for r in f.rows("switch_ports")), default=0)),
    ("net.fabric.max_mean_occupancy", "ratio", lambda f: max((r["mean_occupancy"] for r in f.rows("switch_ports")), default=0.0)),
    ("net.fabric.route_cache_hit_rate", "ratio", lambda f: _ratio(
        f.total("fastpath", "cache_hits", kind="router"),
        f.total("fastpath", "cache_hits", kind="router") + f.total("fastpath", "cache_misses", kind="router"),
    )),
    ("net.fabric.forwarded_per_op", "count", lambda f: _ratio(
        f.total("switch_ports", "tx_frames") + f.each("routers", "forwarded"), f.ops
    )),
    ("netio.exact_hit_share", "ratio", lambda f: _ratio(f.total("demux", "exact_hits"), f.lookups())),
    ("netio.memo_hit_rate", "ratio", lambda f: _ratio(f.total("fastpath", "memo_hits", kind="host"), f.lookups())),
    ("netio.demux_misses", "count", lambda f: f.total("demux", "misses")),
    ("netio.mean_batch", "count", lambda f: _mean_batch(f)),
    ("protocols.tcp.fastpath_hit_rate", "ratio", lambda f: _fastpath_hit_rate(f)),
    ("protocols.tcp.retransmit_share", "ratio", lambda f: _ratio(f.tcp("retransmits"), f.tcp("segments_sent"))),
    ("protocols.tcp.template_hit_rate", "ratio", lambda f: _template_hit_rate(f)),
    ("protocols.tcp.segments_per_op", "count", lambda f: _ratio(f.tcp("segments_sent"), f.ops)),
    ("registry.connects", "count", lambda f: f.each("registries", "connects")),
    ("registry.handshake_segments_per_conn", "count", lambda f: _ratio(
        f.each("registries", "handshake_segments"), f.each("registries", "connects")
    )),
    ("registry.inherited", "count", lambda f: f.each("registries", "inherited")),
    ("org.sim_goodput_mbps.ethernet", "Mb/s", lambda f: f.sim("ethernet", "goodput_mbps")),
    ("org.sim_goodput_mbps.an1", "Mb/s", lambda f: f.sim("an1", "goodput_mbps")),
    ("org.sim_rtt_ms.ethernet", "ms", lambda f: f.sim("ethernet", "rtt_ms")),
    ("org.sim_rtt_ms.an1", "ms", lambda f: f.sim("an1", "rtt_ms")),
    ("org.sim_conn_setup_ms.ethernet", "ms", lambda f: f.sim("ethernet", "conn_setup_ms")),
    ("org.sim_conn_setup_ms.an1", "ms", lambda f: f.sim("an1", "conn_setup_ms")),
    # Whole-run simulated outcomes, each defined on the workloads named.
    ("paper_err_pct", "%", lambda f: _paper_err_pct(f) if f.workload in PAPER else None),
    ("sim_goodput_mbps", "Mb/s", lambda f: f.sim("dumbbell", "goodput_mbps") if f.workload == "dumbbell" else None),
    ("sim_fairness", "ratio", lambda f: f.sim("dumbbell", "fairness") if f.workload == "dumbbell" else None),
    ("sim_oneway_us_p50", "us", lambda f: f.sim("fat-tree", "oneway_us_p50") if f.workload == "fabric" else None),
    ("sim_oneway_us_p99", "us", lambda f: f.sim("fat-tree", "oneway_us_p99") if f.workload == "fabric" else None),
    ("sim_send_lag_us_max", "us", lambda f: f.sim("fat-tree", "send_lag_us_max") if f.workload == "fabric" else None),
    ("failed_ops_share", "ratio", lambda f: _ratio(f.outcome.failed, f.outcome.attempted)),
]


def collect(world: World, outcome: Outcome, base: dict) -> tuple[dict, list]:
    """Every probe on one finished world: ``({name: value|None}, notes)``."""
    facts = _Facts(world, outcome, base)
    values, notes = {}, []
    for name, _unit, probe in PROBES:
        try:
            values[name] = probe(facts)
        except ABSENT as exc:
            values[name] = None
            notes.append(f"{name}: source absent ({exc!r})")
    return values, notes
