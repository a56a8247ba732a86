"""Measurement helpers used by benchmarks and integration tests.

Each workload runs to completion inside the testbed's simulator and
reports simulated-time results — the analogue of the paper's
AN1-controller real-time clock measurements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Generator, Optional

from .netstat import profile_table
from .obs import hist as _hist
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
class FlowResult:
    """One flow of a many-flow fabric workload."""

    index: int
    bytes_moved: int
    start: float
    end: float
    retransmits: int = 0

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def throughput_mbps(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.bytes_moved * 8 / self.elapsed / 1e6


@dataclass
class FabricResult:
    """Outcome of N concurrent transfers through a fabric."""

    flows: list[FlowResult]
    bottleneck_drops: int
    other_drops: int
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


def _conn_retransmits(conn) -> int:
    """The sender-side retransmission count of one connection (0 when
    the organization does not expose a machine)."""
    machine = getattr(getattr(conn, "runner", None), "machine", None)
    if machine is None:
        return 0
    return machine.stats["retransmits"]


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
    ``bytes_per_flow``; per-flow goodput is measured from connect to
    the server's last byte.  Fairness across the finished flows is the
    headline number — with everyone's cwnd probing the same queue, a
    broken retransmit or demux path shows up as a starved flow.
    """
    clients = fabric.client_services
    servers = fabric.server_services
    if not clients:
        raise ValueError("fabric has no client/server pairs (need a dumbbell)")
    sim = fabric.sim
    marks: dict[int, dict] = {i: {} for i in range(len(clients))}
    payload = (bytes(range(256)) * (chunk_size // 256 + 1))[:chunk_size]

    def server(i: int):
        listener = yield from servers[i].listen(base_port + i)
        conn = yield from listener.accept()
        received = 0
        while received < bytes_per_flow:
            data = yield from conn.recv(chunk_size)
            if not data:
                break
            received += len(data)
        marks[i]["received"] = received
        marks[i]["end"] = sim.now
        yield from conn.close()

    def client(i: int):
        yield sim.timeout(i * stagger)
        marks[i]["start"] = sim.now
        conn = yield from clients[i].connect(
            fabric.server_ip(i), base_port + i
        )
        marks[i]["conn"] = conn
        sent = 0
        while sent < bytes_per_flow:
            chunk = payload[: min(chunk_size, bytes_per_flow - sent)]
            yield from conn.send(chunk)
            sent += len(chunk)
        yield from conn.close()

    receivers = []
    for i in range(len(clients)):
        receivers.append(fabric.spawn(server(i), name=f"srv{i}"))
        fabric.spawn(client(i), name=f"cli{i}")
    if deadline is not None:
        fabric.run(until=deadline)
    else:
        for proc in receivers:
            fabric.run(until=proc)

    flows = [
        FlowResult(
            index=i,
            bytes_moved=marks[i].get("received", 0),
            start=marks[i].get("start", 0.0),
            end=marks[i].get("end", sim.now),
            retransmits=_conn_retransmits(marks[i].get("conn")),
        )
        for i in range(len(clients))
    ]
    reg = _hist.REGISTRY
    if reg is not None:
        for flow in flows:
            if flow.bytes_moved and flow.elapsed > 0:
                reg.record("flow.completion", flow.elapsed)
    bottleneck = getattr(fabric, "bottleneck", None)
    bottleneck_drops = bottleneck.drops if bottleneck is not None else 0
    other_drops = sum(
        port.drops
        for switch in fabric.switches
        for port in switch.ports
        if port is not bottleneck
    )
    return FabricResult(
        flows=flows,
        bottleneck_drops=bottleneck_drops,
        other_drops=other_drops,
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

    rx = testbed.spawn(receiver(), name="rx")
    testbed.spawn(sender(), name="tx")
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

    testbed.spawn(echo_server(), name="echo")
    ping = testbed.spawn(pinger(), name="ping")
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

    testbed.spawn(acceptor(), name="accept")
    conn_proc = testbed.spawn(connector(), name="connect")
    testbed.run(until=conn_proc)
    return SetupResult(
        rounds=rounds,
        total_time=marks["total"],
        organization=testbed.organization,
        network=testbed.network,
    )


@dataclass
class CheckedTransfer:
    """One transfer of a conformance-campaign cell, with the evidence
    the invariant checkers need: the exact payload offered, the exact
    bytes the receiving socket saw, both endpoint machines, and how each
    side's connection ended."""

    index: int
    port: int
    payload: bytes = b""
    received: bytes = b""
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


def run_checked_transfers(
    bed,
    transfers: int = 2,
    payload_bytes: int = 20_000,
    chunk_size: int = 2048,
    base_port: int = 7000,
    seed: int = 0,
    deadline: float = 60.0,
    stagger: float = 0.05,
) -> list[CheckedTransfer]:
    """Run ``transfers`` concurrent one-way transfers and collect the
    socket-layer evidence for the conformance checkers.

    Works on both testbed shapes through their ``client_services`` /
    ``server_services`` / ``server_ip``: on a two-host :class:`Testbed`
    every transfer runs a→b on its own port; on a
    :class:`~repro.testbed.FabricTestbed` dumbbell, transfer ``i`` runs
    client ``i % pairs`` → server ``i % pairs``.  Payloads are
    deterministic functions of ``seed`` so a campaign cell replays
    bit-identically.  The run is bounded by ``deadline`` simulated
    seconds rather than by process completion, because under heavy
    faults a transfer may legitimately give up (max retransmits) — the
    checkers, not this function, decide whether that outcome was
    conformant.
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
            t.received = b"".join(chunks)
            yield from conn.close()
            t.server_done = True
        except Exception as exc:  # Evidence, not a crash: checkers judge.
            t.errors.append(f"server: {exc!r}")

    def client(i: int):
        t = results[i]
        try:
            yield sim.timeout(i * stagger)
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

    for i in range(transfers):
        bed.spawn(server(i), name=f"chk-srv{i}")
        bed.spawn(client(i), name=f"chk-cli{i}")
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


#: The sim-time profiler's report, sorted by self time: a list of
#: :class:`repro.obs.profile.SiteReport` rows, or ``[]`` when profiling
#: is disabled.  The benchmark pattern is ``repro.obs.enable()`` →
#: workload → ``metrics.obs_profile()``; it is netstat's profile table
#: under the name the ledger harness calls.
obs_profile = profile_table
