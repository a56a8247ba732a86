"""netstat-style introspection over a running testbed.

Because the protocol state lives in user-level libraries and a trusted
registry — not buried in a kernel — a management tool can walk it
directly.  :func:`connection_table` lists every TCP connection the
registries know about, with live TCB state; :func:`channel_table` lists
the network I/O modules' protected channels; :func:`link_table` and
:func:`switch_table` cover the fabric — per-link fault accounting and
per-switch-port queue behaviour (depth, drops, occupancy).

Works over anything exposing the testbed surface: ``hosts``,
``registries``, ``services``, ``links``, ``switches``, ``routers`` (both
:class:`~repro.testbed.Testbed` and :class:`~repro.testbed.FabricTestbed`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

from .net.headers import ip_to_str
from .obs import hist as _hist
from .obs import profile as _profile
from .obs import spans as _spans

if TYPE_CHECKING:
    from .testbed import Testbed


@dataclass(frozen=True)
class ConnectionEntry:
    """One row of the connection table."""

    host: str
    owner: str
    local: str
    remote: str
    state: str
    snd_in_flight: int
    rcv_buffered: int
    retransmits: int

    def __str__(self) -> str:
        return (
            f"{self.host:8s} {self.owner:10s} {self.local:21s} "
            f"{self.remote:21s} {self.state:12s} "
            f"flight={self.snd_in_flight:<6d} rexmt={self.retransmits}"
        )


@dataclass(frozen=True)
class ChannelEntry:
    """One row of the channel table."""

    host: str
    name: str
    owner: str
    kind: str  # Demux tier: "exact"/"wildcard"/"scan", or f"bqi {n}".
    delivered: int
    tx_packets: int
    mean_batch: float

    def __str__(self) -> str:
        return (
            f"{self.host:8s} {self.name:18s} {self.owner:10s} {self.kind:10s}"
            f" rx={self.delivered:<7d} tx={self.tx_packets:<7d}"
            f" batch={self.mean_batch:.2f}"
        )


@dataclass(frozen=True)
class DemuxEntry:
    """One host's flow-table engine state and per-tier hit counters."""

    host: str
    style: str
    exact: int
    wildcard: int
    scan: int
    exact_hits: int
    wildcard_hits: int
    scan_hits: int
    misses: int
    mean_scan: float

    def __str__(self) -> str:
        return (
            f"{self.host:8s} {self.style:11s}"
            f" flows={self.exact}/{self.wildcard}/{self.scan}"
            f" hits={self.exact_hits}/{self.wildcard_hits}/{self.scan_hits}"
            f" miss={self.misses} scan~{self.mean_scan:.1f}"
        )


def connection_table(testbed: "Testbed") -> list[ConnectionEntry]:
    """All TCP connections the registries have granted (userlib only)."""
    entries: list[ConnectionEntry] = []
    for registry in testbed.registries:
        host = registry.host
        for lease in registry._leases.values():
            grant = lease.grant
            if grant is None:
                continue  # Not granted yet, a listener, or a UDP binding.
            machine = grant.machine
            tcb = machine.tcb
            entries.append(
                ConnectionEntry(
                    host=host.name,
                    owner=lease.owner.name,
                    local=f"{ip_to_str(host.ip)}:{grant.local_port}",
                    remote=f"{ip_to_str(grant.remote_ip)}:{grant.remote_port}",
                    state=machine.state.value,
                    snd_in_flight=tcb.flight_size,
                    rcv_buffered=tcb.rcv_user,
                    retransmits=machine.stats["retransmits"],
                )
            )
    return entries


def channel_table(testbed: "Testbed") -> list[ChannelEntry]:
    """All protected channels in both network I/O modules."""
    entries: list[ChannelEntry] = []
    for host in testbed.hosts:
        for channel in host.netio.channels:
            if channel.ring is not None:
                kind = f"bqi {channel.ring.bqi}"
            elif channel.demux_filter is not None:
                kind = "scan"
            elif channel.flow_key is not None:
                kind = "exact" if channel.flow_key.is_exact else "wildcard"
            else:
                kind = "none"
            entries.append(
                ChannelEntry(
                    host=host.name,
                    name=channel.name,
                    owner=channel.owner.name,
                    kind=kind,
                    delivered=channel.stats["delivered"],
                    tx_packets=channel.stats["tx_packets"],
                    mean_batch=channel.mean_batch_size,
                )
            )
    return entries


def demux_table(testbed: "Testbed") -> list[DemuxEntry]:
    """Per-host flow-table engine state: installed entries per tier
    (exact/wildcard/scan) and the hit/miss counters of each."""
    entries: list[DemuxEntry] = []
    for host in testbed.hosts:
        netio = host.netio
        table = netio.flow_table
        stats = table.stats
        scans = stats["exact_hits"] + stats["wildcard_hits"] \
            + stats["scan_hits"] + stats["misses"]
        entries.append(
            DemuxEntry(
                host=host.name,
                style=netio.demux_style,
                exact=table.exact_count,
                wildcard=table.wildcard_count,
                scan=sum(c.demux_filter is not None for c in netio.channels),
                exact_hits=stats["exact_hits"],
                wildcard_hits=stats["wildcard_hits"],
                scan_hits=stats["scan_hits"],
                misses=stats["misses"],
                mean_scan=stats["filters_scanned"] / scans if scans else 0.0,
            )
        )
    return entries


@dataclass(frozen=True)
class FastpathEntry:
    """One node's hot-path effectiveness.

    Host rows aggregate receive-side TCP header prediction over every
    connection on the host plus the demux engine's last-flow memo;
    router rows report the flow-keyed next-hop cache in front of the
    longest-prefix-match table.
    """

    node: str
    kind: str  # "host" or "router"
    ack_hits: int = 0
    data_hits: int = 0
    slow_path: int = 0
    hit_rate: float = 0.0
    memo_hits: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0

    def __str__(self) -> str:
        if self.kind == "router":
            total = self.cache_hits + self.cache_misses
            rate = self.cache_hits / total if total else 0.0
            return (
                f"{self.node:8s} {self.kind:7s}"
                f" nexthop={self.cache_hits}/{total} ({rate:.1%})"
                f" inval={self.cache_invalidations}"
            )
        return (
            f"{self.node:8s} {self.kind:7s}"
            f" predicted={self.ack_hits + self.data_hits:<7d}"
            f" (ack={self.ack_hits} data={self.data_hits})"
            f" slow={self.slow_path:<6d} rate={self.hit_rate:.1%}"
            f" memo={self.memo_hits}"
        )


def fastpath_table(testbed) -> list[FastpathEntry]:
    """Per-node fast-path counters: header-prediction hits/misses and
    demux memo hits for hosts, next-hop cache behaviour for routers."""
    machines_by_host: dict[str, list] = {}
    for registry in testbed.registries:
        rows = machines_by_host.setdefault(registry.host.name, [])
        rows.extend(
            lease.grant.machine
            for lease in registry._leases.values()
            if lease.grant is not None
        )
    for service in testbed.services:
        connections = getattr(service, "_connections", None)
        if connections is None:
            continue  # Library service: its machines came via the registry.
        rows = machines_by_host.setdefault(service.host.name, [])
        rows.extend(c.runner.machine for c in connections.values())
    entries: list[FastpathEntry] = []
    for host in testbed.hosts:
        ack = data = miss = 0
        for machine in machines_by_host.get(host.name, ()):
            stats = machine.stats
            ack += stats["fastpath_ack_hits"]
            data += stats["fastpath_data_hits"]
            miss += stats["fastpath_misses"]
        total = ack + data + miss
        entries.append(
            FastpathEntry(
                node=host.name,
                kind="host",
                ack_hits=ack,
                data_hits=data,
                slow_path=miss,
                hit_rate=(ack + data) / total if total else 0.0,
                memo_hits=host.netio.flow_table.stats["memo_hits"],
            )
        )
    for router in testbed.routers:
        cache = router.route_cache_stats
        entries.append(
            FastpathEntry(
                node=router.name,
                kind="router",
                cache_hits=cache["hits"],
                cache_misses=cache["misses"],
                cache_invalidations=cache["invalidations"],
            )
        )
    return entries


@dataclass(frozen=True)
class LinkEntry:
    """One link's traffic and fault accounting."""

    name: str
    frames: int
    bytes: int
    dropped: int
    corrupted: int
    duplicated: int

    def __str__(self) -> str:
        return (
            f"{self.name:12s} frames={self.frames:<8d} bytes={self.bytes:<10d}"
            f" drop={self.dropped:<5d} corrupt={self.corrupted:<5d}"
            f" dup={self.duplicated}"
        )


@dataclass(frozen=True)
class SwitchPortEntry:
    """One switch port's forwarding and egress-queue behaviour."""

    name: str
    rate_mbps: float
    rx_frames: int
    tx_frames: int
    drops: int
    early_drops: int
    depth_bytes: int
    peak_bytes: int
    mean_occupancy: float
    discipline: str

    def __str__(self) -> str:
        return (
            f"{self.name:10s} {self.rate_mbps:6.1f}Mb {self.discipline:8s}"
            f" rx={self.rx_frames:<7d} tx={self.tx_frames:<7d}"
            f" drop={self.drops:<5d} early={self.early_drops:<4d}"
            f" depth={self.depth_bytes:<6d} peak={self.peak_bytes:<6d}"
            f" occ~{self.mean_occupancy:4.0%}"
        )


def link_table(testbed) -> list[LinkEntry]:
    """Per-link frame counts and fault-injection accounting."""
    entries: list[LinkEntry] = []
    for i, link in enumerate(testbed.links):
        stats = link.stats
        entries.append(
            LinkEntry(
                name=f"link{i}",
                frames=stats["frames"],
                bytes=stats["bytes"],
                dropped=stats["dropped"],
                corrupted=stats["corrupted"],
                duplicated=stats["duplicated"],
            )
        )
    return entries


def switch_table(testbed) -> list[SwitchPortEntry]:
    """Every switch port's counters and egress-queue occupancy."""
    entries: list[SwitchPortEntry] = []
    for switch in testbed.switches:
        for port in switch.ports:
            queue = port.queue
            entries.append(
                SwitchPortEntry(
                    name=port.name,
                    rate_mbps=port.link.bit_rate / 1e6,
                    rx_frames=port.stats["rx_frames"],
                    tx_frames=port.stats["tx_frames"],
                    drops=queue.stats["dropped"],
                    early_drops=queue.stats["early_dropped"],
                    depth_bytes=queue.depth_bytes,
                    peak_bytes=queue.peak_bytes,
                    mean_occupancy=queue.mean_occupancy(),
                    discipline=queue.discipline,
                )
            )
    return entries


@dataclass(frozen=True)
class CopyEntry:
    """One row of the copy-accounting table.

    Process-global rows (``datapath``, ``tcp-encoder``) cover the buf
    counters and the template-encoder aggregate; per-host rows cover the
    demux tier's view accounting.
    """

    scope: str
    detail: str
    copied_bytes: int
    avoided_bytes: int
    ops: int

    def __str__(self) -> str:
        return (
            f"{self.scope:12s} {self.detail:34s}"
            f" copied={self.copied_bytes:<10d}"
            f" avoided={self.avoided_bytes:<10d} ops={self.ops}"
        )


def copy_table(testbed: "Testbed") -> list[CopyEntry]:
    """Copy accounting: global buf counters, template-encoder hits, and
    per-host demux payload views (the ``netstat -m`` of this stack)."""
    from .net.buf import STATS
    from .protocols.tcp.wire import TcpSegmentEncoder

    entries = [
        CopyEntry(
            scope="datapath",
            detail="host copies",
            copied_bytes=STATS.copied_bytes,
            avoided_bytes=STATS.avoided_bytes,
            ops=STATS.copy_ops,
        ),
        CopyEntry(
            scope="datapath",
            detail="wire-image fusion",
            copied_bytes=STATS.materialized_bytes,
            avoided_bytes=0,
            ops=STATS.materialize_ops,
        ),
    ]
    enc = TcpSegmentEncoder.GLOBAL_STATS
    entries.append(
        CopyEntry(
            scope="tcp-encoder",
            detail=(
                f"full={enc['full_encodes']}"
                f" patch={enc['template_patches']}"
                f" reuse={enc['retransmit_reuses']}"
            ),
            copied_bytes=0,
            avoided_bytes=0,
            ops=sum(enc.values()),
        )
    )
    for host in testbed.hosts:
        stats = host.netio.flow_table.stats
        entries.append(
            CopyEntry(
                scope=host.name,
                detail="demux payload views",
                copied_bytes=0,
                avoided_bytes=stats["bytes_copy_avoided"],
                ops=stats["payload_views"],
            )
        )
    return entries


@dataclass(frozen=True)
class TenantEntry:
    """One tenant's row: occupancy against quota plus the audited
    enforcement history (throttles, rejections, cross-tenant blocks)."""

    tenant: str
    channels: int
    region_used: int
    region_quota: int
    bqi_used: int
    bqi_quota: int
    tx_bytes: int
    rx_bytes: int
    throttles: int
    rejections: int
    drops: int

    def __str__(self) -> str:
        return (
            f"{self.tenant:10s} chan={self.channels:<3d}"
            f" region={self.region_used}/{self.region_quota}"
            f" bqi={self.bqi_used}/{self.bqi_quota}"
            f" tx={self.tx_bytes:<9d} rx={self.rx_bytes:<9d}"
            f" throttle={self.throttles:<5d} reject={self.rejections:<4d}"
            f" drop={self.drops}"
        )


def tenant_table(testbed, tenant: Optional[str] = None) -> list[TenantEntry]:
    """Per-tenant occupancy and enforcement counters, optionally
    filtered to one tenant id.  Empty on untenanted testbeds."""
    manager = getattr(testbed, "tenants", None)
    if manager is None:
        return []
    entries: list[TenantEntry] = []
    for t in sorted(manager, key=lambda t: t.tenant_id):
        if tenant is not None and t.tenant_id != tenant:
            continue
        counters = t.counters
        entries.append(
            TenantEntry(
                tenant=t.tenant_id,
                channels=t.channel_count,
                region_used=t.region_bytes_used,
                region_quota=t.budget.region_bytes,
                bqi_used=t.bqi_buffers_used,
                bqi_quota=t.budget.bqi_buffers,
                tx_bytes=counters["tx_bytes"],
                rx_bytes=counters["rx_bytes"],
                throttles=counters["throttle_events"],
                rejections=counters["rejections"],
                drops=counters["rx_dropped"],
            )
        )
    return entries


@dataclass(frozen=True)
class EngineEntry:
    """The event engine's own counters: batching effectiveness plus the
    skip accounting (duplicate schedules of already-processed events,
    and lazily-cancelled tombstones) that used to vanish silently."""

    events: int
    steps: int
    batched: int
    max_batch: int
    skipped: int
    cancelled: int

    def __str__(self) -> str:
        return (
            f"  events={self.events} steps={self.steps} "
            f"batched={self.batched} max_batch={self.max_batch} "
            f"skipped={self.skipped} cancelled={self.cancelled}"
        )


def engine_table(testbed) -> list[EngineEntry]:
    """Engine counters for the testbed's (or topology's) simulator."""
    stats = testbed.sim.engine_stats()
    return [EngineEntry(**stats)]


@dataclass(frozen=True)
class InvariantEntry:
    """One conformance invariant's verdict over a run."""

    invariant: str
    checked: int
    violations: int

    def __str__(self) -> str:
        verdict = "ok" if self.violations == 0 else "VIOLATED"
        return (
            f"{self.invariant:20s} checked={self.checked:<7d}"
            f" violations={self.violations:<4d} {verdict}"
        )


def invariant_table(results) -> list[InvariantEntry]:
    """Summarize :class:`~repro.check.invariants.CheckResult` rows."""
    return [
        InvariantEntry(
            invariant=r.invariant,
            checked=r.checked,
            violations=len(r.violations),
        )
        for r in results
    ]


def render_invariants(results) -> str:
    """The conformance summary as text (the ``repro.check`` footer)."""
    lines = ["Conformance invariants (evidence checked · violations)"]
    entries = invariant_table(results)
    if entries:
        lines.extend(str(entry) for entry in entries)
    else:
        lines.append("  (none)")
    return "\n".join(lines)


@dataclass(frozen=True)
class SpanTraceEntry:
    """One traced packet's condensed lifecycle (full timelines via
    :meth:`~repro.obs.spans.SpanRecorder.render_timeline`)."""

    trace: int
    detail: str
    hops: int
    first_stage: str
    last_stage: str
    elapsed_us: float

    def __str__(self) -> str:
        return (
            f"{self.trace:<6d} hops={self.hops:<3d}"
            f" {self.first_stage}->{self.last_stage:<10s}"
            f" {self.elapsed_us:9.1f}us  {self.detail}"
        )


def span_table(limit: Optional[int] = None) -> list[SpanTraceEntry]:
    """One row per trace retained in the span ring (newest last).

    Empty when span tracing is disabled.  ``limit`` keeps only the last
    N traces.
    """
    recorder = _spans.RECORDER
    if recorder is None:
        return []
    entries: list[SpanTraceEntry] = []
    timelines: dict[int, list] = {}
    for event in recorder.events:
        timelines.setdefault(event.trace_id, []).append(event)
    for tid, events in timelines.items():
        birth = recorder._births.get(tid)
        entries.append(
            SpanTraceEntry(
                trace=tid,
                detail=birth[1] if birth else events[0].detail,
                hops=len(events),
                first_stage=events[0].stage,
                last_stage=events[-1].stage,
                elapsed_us=(events[-1].time - events[0].time) * 1e6,
            )
        )
    if limit is not None:
        entries = entries[-limit:]
    return entries


def profile_table(top: Optional[int] = None) -> list:
    """Sim-time profiler report rows (empty when profiling is off)."""
    profiler = _profile.PROFILER
    if profiler is None:
        return []
    return profiler.report(top)


@dataclass(frozen=True)
class HistEntry:
    """One histogram's quantile summary."""

    name: str
    count: int
    mean: float
    min: float
    max: float
    p50: float
    p90: float
    p99: float
    p999: float

    def __str__(self) -> str:
        # Occupancy histograms hold dimensionless ratios; everything
        # else registered here is seconds.
        fmt = _ratio if self.name.endswith("occupancy") else _si
        return (
            f"{self.name:26s} n={self.count:<8d}"
            f" p50={fmt(self.p50)} p90={fmt(self.p90)}"
            f" p99={fmt(self.p99)} p999={fmt(self.p999)}"
            f" mean={fmt(self.mean)} max={fmt(self.max)}"
        )


def _si(value: float) -> str:
    """Compact engineering formatting for histogram quantiles."""
    if value == 0:
        return "0"
    for scale, suffix in ((1.0, "s"), (1e-3, "ms"), (1e-6, "us"), (1e-9, "ns")):
        if abs(value) >= scale:
            return f"{value / scale:.3g}{suffix}"
    return f"{value:.3g}"


def _ratio(value: float) -> str:
    return f"{value:.3f}"


def hist_table() -> list[HistEntry]:
    """All registered histograms' summaries (empty when disabled)."""
    registry = _hist.REGISTRY
    if registry is None:
        return []
    return [
        HistEntry(name=name, **summary)
        for name, summary in sorted(registry.summaries().items())
    ]


def render_spans(limit: Optional[int] = 20) -> str:
    lines = ["Packet spans (trace · hops · lifecycle)"]
    recorder = _spans.RECORDER
    if recorder is None:
        lines.append("  (span tracing disabled — repro.obs.enable())")
        return "\n".join(lines)
    stats = recorder.stats()
    lines.append(
        f"  minted={stats['minted']} recorded={stats['recorded']}"
        f" retained={stats['retained']}/{stats['capacity']}"
    )
    lines.extend(str(entry) for entry in span_table(limit))
    return "\n".join(lines)


def render_profile(top: Optional[int] = 15) -> str:
    profiler = _profile.PROFILER
    if profiler is None:
        return (
            "Sim-time profile\n  (profiling disabled — repro.obs.enable())"
        )
    return profiler.render(top)


def render_hist() -> str:
    lines = ["Latency histograms (log-bucketed)"]
    entries = hist_table()
    if _hist.REGISTRY is None:
        lines.append("  (histograms disabled — repro.obs.enable())")
    elif not entries:
        lines.append("  (no samples)")
    else:
        lines.extend(str(entry) for entry in entries)
    return "\n".join(lines)


def as_json(testbed: "Testbed", tenant: Optional[str] = None) -> dict:
    """Every netstat table as one JSON-safe dict.

    Observability sections (``spans``/``profile``/``histograms``) are
    present but empty when the corresponding plane is disabled.
    """
    recorder = _spans.RECORDER
    return {
        "connections": [asdict(e) for e in connection_table(testbed)],
        "channels": [asdict(e) for e in channel_table(testbed)],
        "demux": [asdict(e) for e in demux_table(testbed)],
        "fastpath": [asdict(e) for e in fastpath_table(testbed)],
        "copy": [asdict(e) for e in copy_table(testbed)],
        "links": [asdict(e) for e in link_table(testbed)],
        "switch_ports": [asdict(e) for e in switch_table(testbed)],
        "tenants": [asdict(e) for e in tenant_table(testbed, tenant=tenant)],
        "engine": [asdict(e) for e in engine_table(testbed)],
        "spans": {
            "stats": recorder.stats() if recorder is not None else {},
            "traces": [asdict(e) for e in span_table()],
        },
        "profile": [r.as_dict() for r in profile_table()],
        "histograms": (
            _hist.REGISTRY.summaries() if _hist.REGISTRY is not None else {}
        ),
    }


def render(testbed: "Testbed", tenant: Optional[str] = None) -> str:
    """The full netstat report as text.

    ``tenant`` filters the tenant table to one id (the CLI's
    ``--tenant`` flag); the other tables are unaffected.
    """
    lines = ["Active TCP connections (registry view)"]
    connections = connection_table(testbed)
    if connections:
        lines.extend(str(entry) for entry in connections)
    else:
        lines.append("  (none)")
    lines.append("")
    lines.append("Protected channels (network I/O module view)")
    channels = channel_table(testbed)
    if channels:
        lines.extend(str(entry) for entry in channels)
    else:
        lines.append("  (none)")
    lines.append("")
    lines.append(
        "Demux engine (flows exact/wildcard/scan · hits per tier)"
    )
    lines.extend(str(entry) for entry in demux_table(testbed))
    lines.append("")
    lines.append(
        "Fast paths (header prediction · demux memo · next-hop cache)"
    )
    lines.extend(str(entry) for entry in fastpath_table(testbed))
    lines.append("")
    lines.append("Copy accounting (bytes moved vs avoided)")
    lines.extend(str(entry) for entry in copy_table(testbed))
    links = link_table(testbed)
    if links:
        lines.append("")
        lines.append("Links (traffic · injected faults)")
        lines.extend(str(entry) for entry in links)
    switch_ports = switch_table(testbed)
    if switch_ports:
        lines.append("")
        lines.append("Switch ports (egress queues)")
        lines.extend(str(entry) for entry in switch_ports)
    tenants = tenant_table(testbed, tenant=tenant)
    if tenants or tenant is not None:
        lines.append("")
        lines.append(
            "Tenants (occupancy vs quota · throttles · rejections)"
        )
        if tenants:
            lines.extend(str(entry) for entry in tenants)
        else:
            lines.append(f"  (no tenant {tenant!r})")
    lines.append("")
    lines.append("Event engine (batching · skip accounting)")
    lines.extend(str(entry) for entry in engine_table(testbed))
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro.netstat``: run a small tenanted workload and
    print the report — a demo of the introspection surface, with
    ``--tenant`` filtering the tenant table."""
    import argparse

    parser = argparse.ArgumentParser(prog="repro.netstat")
    parser.add_argument(
        "--tenant", default=None, help="show only this tenant's row"
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit every table as machine-readable JSON",
    )
    parser.add_argument(
        "--spans", action="store_true",
        help="enable span tracing and print the packet-span table",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="enable the sim-time profiler and print its report",
    )
    parser.add_argument(
        "--hist", action="store_true",
        help="enable latency histograms and print their summaries",
    )
    args = parser.parse_args(argv)

    from . import obs
    from .metrics import measure_throughput
    from .tenancy.tenant import TenantBudget, attach_tenancy
    from .testbed import Testbed

    want_obs = args.spans or args.profile or args.hist or args.json
    if want_obs:
        obs.enable(
            spans_on=args.spans or args.json,
            profile_on=args.profile or args.json,
            hist_on=args.hist or args.json,
        )
    try:
        bed = Testbed(network="ethernet", organization="userlib")
        manager = attach_tenancy(bed)
        for name, task in (("alpha", bed.app_a), ("beta", bed.app_b)):
            manager.bind_task(task, manager.create_tenant(name, TenantBudget()))
        measure_throughput(bed, total_bytes=192 * 1024)
        if args.json:
            import json

            print(json.dumps(as_json(bed, tenant=args.tenant), indent=2))
            return 0
        print(render(bed, tenant=args.tenant))
        if args.spans:
            print()
            print(render_spans())
        if args.profile:
            print()
            print(render_profile())
        if args.hist:
            print()
            print(render_hist())
    finally:
        if want_obs:
            obs.disable()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
