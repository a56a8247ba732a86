"""Measurement helpers used by benchmarks and integration tests.

Each workload runs to completion inside the testbed's simulator and
reports simulated-time results — the analogue of the paper's
AN1-controller real-time clock measurements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Generator, Optional

from . import obs
from .testbed import IP_B, Testbed


@dataclass
class TransferResult:
    """Outcome of a one-way bulk transfer."""

    bytes_moved: int
    elapsed: float
    organization: str
    network: str
    chunk_size: int

    @property
    def throughput_mbps(self) -> float:
        """User-payload throughput in megabits/second (paper Table 2)."""
        if self.elapsed <= 0:
            return float("inf")
        return self.bytes_moved * 8 / self.elapsed / 1e6


@dataclass
class LatencyResult:
    """Outcome of a ping-pong latency run."""

    message_size: int
    rounds: int
    total_time: float
    organization: str
    network: str

    @property
    def rtt_ms(self) -> float:
        """Mean round-trip time in milliseconds (paper Table 3)."""
        return self.total_time / self.rounds * 1e3


@dataclass
class SetupResult:
    """Outcome of a connection-setup measurement."""

    rounds: int
    total_time: float
    organization: str
    network: str

    @property
    def setup_ms(self) -> float:
        """Mean connection-setup time in milliseconds (paper Table 4)."""
        return self.total_time / self.rounds * 1e3


def jain_fairness(values: list[float]) -> float:
    """Jain's fairness index: (Σx)² / (n·Σx²), 1.0 when all equal."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0
    return total * total / (len(values) * squares)


@dataclass
class CheckedTransfer:
    """One transfer of :func:`run_transfers`, with the evidence the
    benches and the invariant checkers need: the exact payload offered,
    the exact bytes the receiving socket saw, when the client started
    and when the server's last byte arrived, both endpoint machines, and
    how each side's connection ended."""

    index: int
    port: int
    payload: bytes = b""
    received: bytes = b""
    #: Simulated instant the client began to connect.
    start: float = 0.0
    #: Simulated instant the server read its last byte (0.0 before any).
    end: float = 0.0
    client_done: bool = False
    server_done: bool = False
    errors: list = field(default_factory=list)
    client_machine: object = None
    server_machine: object = None
    client_close_reason: Optional[str] = None
    server_close_reason: Optional[str] = None

    @property
    def complete(self) -> bool:
        return self.client_done and self.server_done and not self.errors

    @property
    def bytes_moved(self) -> int:
        return len(self.received)

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def throughput_mbps(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.bytes_moved * 8 / self.elapsed / 1e6

    @property
    def retransmits(self) -> int:
        """The client machine's retransmission count (0 before connect)."""
        machine = self.client_machine
        return machine.stats["retransmits"] if machine is not None else 0


def run_transfers(
    bed,
    transfers: int = 2,
    payload_bytes: int = 20_000,
    chunk_size: int = 2048,
    base_port: int = 7000,
    seed: int = 0,
    deadline: Optional[float] = 60.0,
    stagger: float = 0.05,
) -> list[CheckedTransfer]:
    """Run ``transfers`` staggered one-way transfers, client → server,
    and record each one.

    Works on both testbed shapes through their ``client_services`` /
    ``server_services`` / ``server_ip``: on a two-host :class:`Testbed`
    every transfer runs a→b on its own port; on a
    :class:`~repro.testbed.FabricTestbed` dumbbell, transfer ``i`` runs
    client ``i % pairs`` → server ``i % pairs``.  Client ``i`` starts
    ``i * stagger`` seconds in; each server reads to end of stream.
    Payloads are deterministic functions of ``seed`` so a campaign cell
    replays bit-identically.  An exception in either endpoint is
    recorded in the transfer's ``errors``, not raised: under heavy
    faults a transfer may legitimately give up (max retransmits), and
    the checkers, not this function, decide whether that outcome was
    conformant.  The run is bounded by ``deadline`` simulated seconds,
    or with ``deadline=None`` lasts until every server has finished.
    """
    sim = bed.sim
    clients = bed.client_services
    servers = bed.server_services

    results = [
        CheckedTransfer(
            index=i,
            port=base_port + i,
            payload=random.Random((seed << 16) + i).randbytes(payload_bytes),
        )
        for i in range(transfers)
    ]
    runners: dict[int, dict] = {i: {} for i in range(transfers)}

    def server(i: int):
        t = results[i]
        try:
            listener = yield from servers[i % len(servers)].listen(t.port)
            conn = yield from listener.accept()
            runners[i]["server"] = conn.runner
            t.server_machine = conn.runner.machine
            chunks = []
            while True:
                data = yield from conn.recv(chunk_size)
                if not data:
                    break
                chunks.append(data)
                t.end = sim.now
            t.received = b"".join(chunks)
            yield from conn.close()
            t.server_done = True
        except Exception as exc:  # Evidence, not a crash: checkers judge.
            t.errors.append(f"server: {exc!r}")

    def client(i: int):
        t = results[i]
        try:
            yield sim.timeout(i * stagger)
            t.start = sim.now
            conn = yield from clients[i % len(clients)].connect(
                bed.server_ip(i), t.port
            )
            runners[i]["client"] = conn.runner
            t.client_machine = conn.runner.machine
            sent = 0
            while sent < len(t.payload):
                chunk = t.payload[sent : sent + chunk_size]
                yield from conn.send(chunk)
                sent += len(chunk)
            yield from conn.close()
            t.client_done = True
        except Exception as exc:
            t.errors.append(f"client: {exc!r}")

    receivers = []
    for i in range(transfers):
        server_app = bed.app(servers[i % len(servers)].host)
        receivers.append(server_app.spawn(server(i), name=f"srv{i}"))
        bed.app(clients[i % len(clients)].host).spawn(client(i), name=f"cli{i}")
    if deadline is None:
        for proc in receivers:
            sim.run(until=proc)
    else:
        # TCP keepalive/retransmit machinery can keep the queue from
        # quiescing on its own; the clock bound is what ends the run.
        sim.run_all(limit=deadline)

    for i, t in enumerate(results):
        client_runner = runners[i].get("client")
        server_runner = runners[i].get("server")
        if client_runner is not None:
            t.client_close_reason = client_runner.closed_reason
        if server_runner is not None:
            t.server_close_reason = server_runner.closed_reason
    return results


@dataclass
class FabricResult:
    """Outcome of N concurrent transfers through a fabric."""

    flows: list[CheckedTransfer]
    bottleneck_drops: int
    other_drops: int  # Every other row of netstat's drop table.
    organization: str

    @property
    def aggregate_mbps(self) -> float:
        """Total goodput over the span from first start to last finish."""
        if not self.flows:
            return 0.0
        span = max(f.end for f in self.flows) - min(f.start for f in self.flows)
        if span <= 0:
            return 0.0
        return sum(f.bytes_moved for f in self.flows) * 8 / span / 1e6

    @property
    def fairness(self) -> float:
        return jain_fairness([f.throughput_mbps for f in self.flows])

    @property
    def total_retransmits(self) -> int:
        return sum(f.retransmits for f in self.flows)


def measure_fabric_transfers(
    fabric,
    bytes_per_flow: int = 150_000,
    chunk_size: int = 4096,
    base_port: int = 5000,
    stagger: float = 0.02,
    deadline: Optional[float] = None,
) -> FabricResult:
    """Run one bulk transfer per client/server pair of a dumbbell
    :class:`~repro.testbed.FabricTestbed`, all sharing the bottleneck.

    Client ``i`` connects to server ``i`` (starts staggered by
    ``stagger`` seconds to avoid synchronized slow starts) and streams
    ``bytes_per_flow`` (:func:`run_transfers`); per-flow goodput is
    measured from connect to the server's last byte.  Fairness across
    the finished flows is the headline number — with everyone's cwnd
    probing the same queue, a broken retransmit or demux path shows up
    as a starved flow.  A transfer that recorded an error raises
    ``RuntimeError``.
    """
    if not fabric.client_services:
        raise ValueError("fabric has no client/server pairs (need a dumbbell)")
    flows = run_transfers(
        fabric,
        transfers=len(fabric.client_services),
        payload_bytes=bytes_per_flow,
        chunk_size=chunk_size,
        base_port=base_port,
        deadline=deadline,
        stagger=stagger,
    )
    errors = [error for flow in flows for error in flow.errors]
    if errors:
        raise RuntimeError(f"fabric transfers failed: {errors}")
    session = obs.SESSION
    if session is not None:
        for flow in flows:
            if flow.bytes_moved and flow.elapsed > 0:
                session.histograms.record("flow.completion", flow.elapsed)
    # Not at module level: ``import repro`` must not load netstat before
    # ``python -m repro.netstat`` runs it.
    from .netstat import drop_table

    bottleneck = getattr(fabric, "bottleneck", None)
    at_bottleneck = bottleneck.name if bottleneck is not None else None
    drops = drop_table(fabric)
    return FabricResult(
        flows=flows,
        bottleneck_drops=bottleneck.queue.stats["dropped"] if bottleneck is not None else 0,
        other_drops=sum(row.count for row in drops if row.node != at_bottleneck),
        organization=fabric.organization,
    )


def measure_throughput(
    testbed: Testbed,
    total_bytes: int = 500_000,
    chunk_size: int = 4096,
    port: int = 4000,
    warmup_bytes: int = 64 * 1024,
    tail_bytes: int = 16 * 1024,
) -> TransferResult:
    """One-way bulk transfer a→b; measures the steady-state portion.

    The first ``warmup_bytes`` prime slow start and the last
    ``tail_bytes`` cover the sub-MSS endgame (Nagle holding the final
    partial segment across a delayed ACK); both are excluded from the
    timed window, mirroring how sustained-throughput numbers are taken
    on real systems.
    """
    if total_bytes <= warmup_bytes + tail_bytes:
        raise ValueError(
            f"total_bytes ({total_bytes}) must exceed warmup_bytes + "
            f"tail_bytes ({warmup_bytes} + {tail_bytes}); the timed "
            "window would be empty or negative"
        )
    marks = {}
    payload = bytes(range(256)) * (chunk_size // 256 + 1)
    payload = payload[:chunk_size]

    def sender():
        conn = yield from testbed.service_a.connect(IP_B, port)
        sent = 0
        while sent < total_bytes:
            if sent >= warmup_bytes and "t0" not in marks:
                marks["t0"] = testbed.sim.now
                marks["sent0"] = sent
            chunk = payload[: min(chunk_size, total_bytes - sent)]
            yield from conn.send(chunk)
            sent += len(chunk)
        yield from conn.close()

    def receiver():
        listener = yield from testbed.service_b.listen(port)
        conn = yield from listener.accept()
        received = 0
        while True:
            # ttcp-style: the receiver reads in the same buffer size the
            # sender writes (the paper varies the *user packet size*).
            data = yield from conn.recv(chunk_size)
            if not data:
                break
            received += len(data)
            # Timestamp once the steady-state window ends; the tail
            # (final sub-MSS chunk under Nagle + delayed ACK) and the
            # FIN exchange are teardown, not steady-state throughput.
            if received >= total_bytes - tail_bytes and "t1" not in marks:
                marks["t1"] = testbed.sim.now
                marks["received"] = received
        yield from conn.close()

    rx = testbed.app_b.spawn(receiver(), name="rx")
    testbed.app_a.spawn(sender(), name="tx")
    testbed.run(until=rx)
    timed_bytes = marks["received"] - marks.get("sent0", 0)
    elapsed = marks["t1"] - marks.get("t0", 0.0)
    return TransferResult(
        bytes_moved=timed_bytes,
        elapsed=elapsed,
        organization=testbed.organization,
        network=testbed.network,
        chunk_size=chunk_size,
    )


def measure_latency(
    testbed: Testbed,
    message_size: int = 1,
    rounds: int = 40,
    port: int = 4100,
) -> LatencyResult:
    """Ping-pong: a sends ``message_size`` bytes, b echoes them back
    (paper Table 3's methodology)."""
    marks = {}
    payload = b"x" * message_size

    def echo_server():
        listener = yield from testbed.service_b.listen(port)
        conn = yield from listener.accept()
        for _ in range(rounds):
            data = yield from conn.recv_exactly(message_size)
            yield from conn.send(data)
        yield from conn.close()

    def pinger():
        conn = yield from testbed.service_a.connect(IP_B, port)
        start = testbed.sim.now
        for _ in range(rounds):
            yield from conn.send(payload)
            yield from conn.recv_exactly(message_size)
        marks["total"] = testbed.sim.now - start
        yield from conn.close()

    testbed.app_b.spawn(echo_server(), name="echo")
    ping = testbed.app_a.spawn(pinger(), name="ping")
    testbed.run(until=ping)
    return LatencyResult(
        message_size=message_size,
        rounds=rounds,
        total_time=marks["total"],
        organization=testbed.organization,
        network=testbed.network,
    )


def measure_setup(
    testbed: Testbed,
    rounds: int = 10,
    port: int = 4200,
) -> SetupResult:
    """Connection-setup cost: active open to an already-listening peer
    (paper Table 4's methodology), connect() call to established."""
    marks = {"total": 0.0}

    def acceptor():
        listener = yield from testbed.service_b.listen(port)
        for _ in range(rounds + 1):  # +1 for the warmup round.
            conn = yield from listener.accept()
            data = yield from conn.recv(64)
            yield from conn.close()

    def connector():
        # Warmup round: primes the ARP cache (and any cold state) so the
        # timed rounds measure connection setup alone.
        warm = yield from testbed.service_a.connect(IP_B, port)
        yield from warm.send(b"done")
        yield from warm.close()
        yield testbed.sim.timeout(0.5)
        for i in range(rounds):
            start = testbed.sim.now
            conn = yield from testbed.service_a.connect(IP_B, port)
            marks["total"] += testbed.sim.now - start
            yield from conn.send(b"done")
            yield from conn.close()
            # Space the rounds out so closes fully drain.
            yield testbed.sim.timeout(0.5)

    testbed.app_b.spawn(acceptor(), name="accept")
    conn_proc = testbed.app_a.spawn(connector(), name="connect")
    testbed.run(until=conn_proc)
    return SetupResult(
        rounds=rounds,
        total_time=marks["total"],
        organization=testbed.organization,
        network=testbed.network,
    )


def obs_profile(top: Optional[int] = None) -> list:
    """The sim-time profiler's report, sorted by self time: a list of
    :class:`repro.obs.profile.SiteReport` rows, or ``[]`` when the plane
    is off.  The benchmark pattern is ``repro.obs.enable()`` → workload
    → ``metrics.obs_profile()``."""
    session = obs.SESSION
    return session.profiler.report(top) if session is not None else []
