"""The six fixed workloads.

Each ``build_<name>(seed, scale)`` makes one rep's fresh world (the
set-up the harness times as ``setup_s``); ``World.run`` is the timed
region and ``World.outcome`` checks every output.  ``seed`` feeds only
the input generators here — payload bytes, the fabric flow permutation,
the dumbbell start stagger, the sans-io fault pattern; the program sees
generated inputs and nothing else.  ``scale`` shrinks the amount of
work (warm-up and smoke), never the topology.

The program is reached through ``repro.testbed``, the TcpService
surface, ``repro.net.fabric.fat_tree`` with ``Host.ip_send`` /
``udp_ports.bind`` (plus ``repro.protocols.udp.encode_datagram``, which
``ip_send`` needs for its payload), and the sans-io exports of
``repro.protocols.tcp``.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

from repro.net.fabric import fat_tree
from repro.net.headers import PROTO_UDP
from repro.protocols.udp import encode_datagram
from repro.sim import Simulator
from repro.testbed import IP_B, FabricTestbed, Testbed

from .sansio import SansioPair

#: The two-host workloads run the Ethernet arm (PIO NIC, software
#: flow-table demux), then the AN1 arm (DMA, BQI hardware demux).
NETWORKS = ("ethernet", "an1")

#: Paper cells the two-host workloads are judged against, copied here
#: as constants: Table 2 @4096 B (Mb/s), Table 3 @1 B (ms), Table 4 (ms).
PAPER = {
    "bulk": {"ethernet": 5.0, "an1": 11.9},
    "pingpong": {"ethernet": 2.8, "an1": 2.7},
    "churn": {"ethernet": 11.9, "an1": 12.3},
}

WRITE_SIZE = 4096
BULK_BYTES = 2 * 1024 * 1024
#: Steady-state window of the bulk arms: slow start and the sub-MSS
#: endgame under Nagle + delayed ACK are not sustained throughput.
BULK_SKIP_HEAD, BULK_SKIP_TAIL = 64 * 1024, 16 * 1024
PINGPONG_TRIPS = 1500
CHURN_CONNECTIONS = 300
CHURN_MESSAGE = 64
#: Simulated gap between churn cycles, so each close drains first.
CHURN_GAP = 0.5
FABRIC_K, FABRIC_HOSTS_PER_EDGE = 8, 8
FABRIC_DATAGRAMS = 24
#: Open-loop pacing, sized at the zero-loss threshold: each aggregation
#: router forwards 64 flows at 160 us a packet, so 24-datagram flows
#: start losing datagrams below 5 ms and queue without bound below
#: 7 ms; 8 ms is the fastest pacing with no standing queue.
FABRIC_INTERVAL = 8e-3
FABRIC_PORT = 9000
#: Scheduled send instant, flow, sequence number; random fill to 64 B.
FABRIC_HEADER = struct.Struct(">dIH")
FABRIC_PAYLOAD = 64
DUMBBELL_PAIRS = 8
DUMBBELL_BYTES = 600 * 1000
DUMBBELL_MAX_STAGGER = 0.05
SANSIO_BYTES = 16 * 1024 * 1024


def _rng(seed: int, workload: str, purpose: str) -> random.Random:
    """One independent, hash-seed-free stream per (workload, purpose)."""
    return random.Random(f"{seed}:{workload}:{purpose}")


def _scaled(full: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(full * scale))


def _sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class ArmResult:
    """What one arm did, after its output checks."""

    ops: float
    attempted: int
    failed: int
    #: Named simulated results (bit-exact for a fixed seed).
    sim: dict = field(default_factory=dict)
    #: Digests of every payload the receiving side saw.
    digests: list = field(default_factory=list)
    problems: list = field(default_factory=list)


class Arm:
    """One simulated world of a workload.

    ``bed`` is what ``netstat.as_json`` walks; ``machines`` and
    ``channels`` collect every ``TcpMachine`` and netio channel the
    applications held (their ``stats`` feed the probes, and survive the
    registry's release of a closed connection).
    """

    def __init__(self, name: str, bed) -> None:
        self.name = name
        self.bed = bed
        self.machines: list = []
        self.channels: list = []
        self._procs: list = []
        self._conns: list = []

    def spawn(self, generator, name: str):
        proc = self.bed.spawn(generator, name=name)
        self._procs.append(proc)
        return proc

    def adopt(self, conn):
        """Track one connection for the close-reason and stats checks."""
        self._conns.append(conn)
        self.machines.append(conn.runner.machine)
        self.channels.append(conn.channel)
        return conn

    def run(self) -> None:
        """Run to quiescence: every close drains through TIME_WAIT."""
        self.bed.run()

    def result(self) -> ArmResult:
        raise NotImplementedError

    def _lifecycle_problems(self) -> list:
        """Processes that died or hung, connections that did not end "done"."""
        problems = []
        for proc in self._procs:
            if proc.is_alive:
                problems.append(f"{self.name}: process {proc.name} never finished")
            elif not proc.ok:
                problems.append(f"{self.name}: process {proc.name} died: {proc.value!r}")
        for conn in self._conns:
            reason = conn.runner.closed_reason
            if reason != "done":
                problems.append(f"{self.name}: connection closed with reason {reason!r}")
        return problems


# ----------------------------------------------------------------------
# bulk: Table 2 shape
# ----------------------------------------------------------------------

class BulkArm(Arm):
    PORT = 4000

    def __init__(self, network: str, payload: bytes) -> None:
        super().__init__(network, Testbed(network=network, organization="userlib"))
        self.payload = payload
        self.marks: dict = {}
        self.received = hashlib.sha256()
        self.received_bytes = 0
        self.spawn(self._receiver(), "rx")
        self.spawn(self._sender(), "tx")

    def _sender(self):
        bed, payload, marks = self.bed, self.payload, self.marks
        conn = self.adopt((yield from bed.service_a.connect(IP_B, self.PORT)))
        sent, total = 0, len(payload)
        while sent < total:
            if sent >= BULK_SKIP_HEAD and "t0" not in marks:
                marks["t0"], marks["sent0"] = bed.sim.now, sent
            chunk = payload[sent : sent + WRITE_SIZE]
            yield from conn.send(chunk)
            sent += len(chunk)
        yield from conn.close()

    def _receiver(self):
        bed, marks = self.bed, self.marks
        window_end = len(self.payload) - BULK_SKIP_TAIL
        listener = yield from bed.service_b.listen(self.PORT)
        conn = self.adopt((yield from listener.accept()))
        while True:
            data = yield from conn.recv(WRITE_SIZE)
            if not data:
                break
            self.received.update(data)
            self.received_bytes += len(data)
            if self.received_bytes >= window_end and "t1" not in marks:
                marks["t1"], marks["received1"] = bed.sim.now, self.received_bytes
        yield from conn.close()

    def result(self) -> ArmResult:
        problems = self._lifecycle_problems()
        total = len(self.payload)
        digest = self.received.hexdigest()
        intact = self.received_bytes == total and digest == _sha(self.payload)
        if not intact:
            problems.append(f"{self.name}: received {self.received_bytes}/{total} bytes, digest mismatch")
        marks = self.marks
        mbps = 0.0
        if "t1" in marks and "t0" in marks and marks["t1"] > marks["t0"]:
            mbps = (marks["received1"] - marks["sent0"]) * 8 / (marks["t1"] - marks["t0"]) / 1e6
        kib = -(-total // 1024)
        return ArmResult(
            ops=self.received_bytes / 1024,
            attempted=kib,
            failed=0 if intact else kib,
            sim={"goodput_mbps": mbps},
            digests=[digest],
            problems=problems,
        )


def build_bulk(seed: int, scale: float) -> "World":
    # Whole writes, and a non-empty steady-state window at any scale.
    size = _scaled(BULK_BYTES, scale) // WRITE_SIZE * WRITE_SIZE
    size = max(size, BULK_SKIP_HEAD + BULK_SKIP_TAIL + 4 * WRITE_SIZE)
    rng = _rng(seed, "bulk", "payload")
    return World("bulk", [BulkArm(net, rng.randbytes(size)) for net in NETWORKS])


# ----------------------------------------------------------------------
# pingpong: Table 3 shape
# ----------------------------------------------------------------------

class PingPongArm(Arm):
    PORT = 4100

    def __init__(self, network: str, pings: bytes) -> None:
        super().__init__(network, Testbed(network=network, organization="userlib"))
        self.pings = pings
        self.echoes = bytearray()
        self.total_time = 0.0
        self.spawn(self._echo_server(), "echo")
        self.spawn(self._pinger(), "ping")

    def _echo_server(self):
        listener = yield from self.bed.service_b.listen(self.PORT)
        conn = self.adopt((yield from listener.accept()))
        for _ in range(len(self.pings)):
            data = yield from conn.recv_exactly(1)
            yield from conn.send(data)
        yield from conn.close()

    def _pinger(self):
        sim, pings = self.bed.sim, self.pings
        conn = self.adopt((yield from self.bed.service_a.connect(IP_B, self.PORT)))
        start = sim.now
        for i in range(len(pings)):
            yield from conn.send(pings[i : i + 1])
            self.echoes += yield from conn.recv_exactly(1)
        self.total_time = sim.now - start
        yield from conn.close()

    def result(self) -> ArmResult:
        problems = self._lifecycle_problems()
        trips = len(self.pings)
        good = sum(a == b for a, b in zip(self.pings, self.echoes))
        if good != trips:
            problems.append(f"{self.name}: {trips - good} of {trips} echoes wrong or missing")
        return ArmResult(
            ops=good,
            attempted=trips,
            failed=trips - good,
            sim={"rtt_ms": self.total_time / trips * 1e3},
            digests=[_sha(self.echoes)],
            problems=problems,
        )


def build_pingpong(seed: int, scale: float) -> "World":
    trips = _scaled(PINGPONG_TRIPS, scale)
    rng = _rng(seed, "pingpong", "payload")
    return World("pingpong", [PingPongArm(net, rng.randbytes(trips)) for net in NETWORKS])


# ----------------------------------------------------------------------
# churn: Table 4 shape
# ----------------------------------------------------------------------

class ChurnArm(Arm):
    PORT = 4200

    def __init__(self, network: str, messages: list) -> None:
        super().__init__(network, Testbed(network=network, organization="userlib"))
        #: messages[0] rides the warm-up connection that primes ARP.
        self.messages = messages
        self.received: list = []
        self.clients: list = []
        self.servers: list = []
        self.connect_time = 0.0
        self.spawn(self._acceptor(), "accept")
        self.spawn(self._connector(), "connect")

    def _acceptor(self):
        listener = yield from self.bed.service_b.listen(self.PORT)
        for _ in self.messages:
            conn = self.adopt((yield from listener.accept()))
            self.servers.append(conn)
            self.received.append((yield from conn.recv_exactly(CHURN_MESSAGE)))
            yield from conn.close()

    def _connector(self):
        sim, service = self.bed.sim, self.bed.service_a
        for i, message in enumerate(self.messages):
            start = sim.now
            conn = self.adopt((yield from service.connect(IP_B, self.PORT)))
            self.clients.append(conn)
            if i:
                self.connect_time += sim.now - start
            yield from conn.send(message)
            yield from conn.close()
            yield sim.timeout(CHURN_GAP)

    def result(self) -> ArmResult:
        problems = self._lifecycle_problems()
        timed = len(self.messages) - 1
        # A cycle counts when its message arrived intact and both of
        # its ends closed "done"; cycle 0 is the warm-up.
        good = sum(
            sent == got
            and client.runner.closed_reason == "done"
            and server.runner.closed_reason == "done"
            for sent, got, client, server in zip(
                self.messages[1:], self.received[1:], self.clients[1:], self.servers[1:]
            )
        )
        if good != timed:
            problems.append(f"{self.name}: {timed - good} of {timed} cycles failed")
        return ArmResult(
            ops=good,
            attempted=timed,
            failed=timed - good,
            sim={"conn_setup_ms": self.connect_time / timed * 1e3},
            digests=[_sha(b"".join(self.received))],
            problems=problems,
        )


def build_churn(seed: int, scale: float) -> "World":
    count = _scaled(CHURN_CONNECTIONS, scale)
    rng = _rng(seed, "churn", "payload")
    arms = []
    for net in NETWORKS:
        messages = [rng.randbytes(CHURN_MESSAGE) for _ in range(count + 1)]
        arms.append(ChurnArm(net, messages))
    return World("churn", arms)


# ----------------------------------------------------------------------
# fabric: 256-host fat-tree, open-loop UDP
# ----------------------------------------------------------------------

def _percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class FabricArm(Arm):
    def __init__(self, rng: random.Random, datagrams: int) -> None:
        sim = Simulator()
        topo = fat_tree(sim, k=FABRIC_K, hosts_per_edge=FABRIC_HOSTS_PER_EDGE)
        # netstat walks a testbed-shaped object; a bare topology has no
        # registries or services.
        bed = SimpleNamespace(
            sim=sim, hosts=topo.hosts, routers=topo.routers, switches=topo.switches,
            links=topo.links, registries=[], services=[],
            spawn=lambda gen, name: sim.process(gen, name=name), run=sim.run,
        )
        super().__init__("fat-tree", bed)
        self.sent: list = []
        self.arrived: list = []
        self.latencies: list = []
        self.max_lag = 0.0
        hosts = topo.hosts
        self.attempted = len(hosts) * datagrams
        for host in hosts:
            host.udp_ports.bind(FABRIC_PORT, self._on_datagram)
        # Seeded off-pod permutation: shuffle the hosts inside each pod,
        # then send every host to the same slot 1..k-1 pods further on.
        per_pod = len(hosts) // FABRIC_K
        order = []
        for pod in range(FABRIC_K):
            members = hosts[pod * per_pod : (pod + 1) * per_pod]
            rng.shuffle(members)
            order.extend(members)
        shift = rng.randrange(1, FABRIC_K) * per_pod
        for flow, src in enumerate(order):
            dst = order[(flow + shift) % len(order)]
            fills = [rng.randbytes(FABRIC_PAYLOAD - FABRIC_HEADER.size) for _ in range(datagrams)]
            self.spawn(self._sender(src, dst.ip, flow, fills), f"flow-{flow}")

    def _sender(self, src, dst_ip: int, flow: int, fills: list):
        # Open loop in simulated time: datagram n is due at n intervals
        # whatever the sends before it cost, and carries its due time.
        sim = self.bed.sim
        for seq, fill in enumerate(fills):
            due = seq * FABRIC_INTERVAL
            if due > sim.now:
                yield sim.timeout(due - sim.now)
            self.max_lag = max(self.max_lag, sim.now - due)
            payload = FABRIC_HEADER.pack(due, flow, seq) + fill
            self.sent.append(payload)
            datagram = encode_datagram(FABRIC_PORT + 1, FABRIC_PORT, payload, src.ip, dst_ip)
            yield from src.ip_send(dst_ip, PROTO_UDP, datagram)

    def _on_datagram(self, datagram) -> None:
        payload = bytes(datagram.payload)
        self.arrived.append(payload)
        self.latencies.append(self.bed.sim.now - FABRIC_HEADER.unpack_from(payload)[0])

    def result(self) -> ArmResult:
        problems = self._lifecycle_problems()
        attempted = self.attempted
        wanted = sorted(self.sent)
        got = sorted(self.arrived)
        delivered = len(got) if got == wanted else len(set(got) & set(wanted))
        if got != wanted or len(wanted) != attempted:
            problems.append(f"fabric: delivered {delivered} of {attempted} datagrams intact")
        ordered = sorted(self.latencies) or [0.0]
        return ArmResult(
            ops=delivered,
            attempted=attempted,
            failed=attempted - delivered,
            sim={
                "oneway_us_p50": _percentile(ordered, 0.50) * 1e6,
                "oneway_us_p99": _percentile(ordered, 0.99) * 1e6,
                "send_lag_us_max": self.max_lag * 1e6,
                "delivery": delivered / attempted,
            },
            digests=[_sha(b"".join(got))],
            problems=problems,
        )


def build_fabric(seed: int, scale: float) -> "World":
    datagrams = _scaled(FABRIC_DATAGRAMS, scale)
    return World("fabric", [FabricArm(_rng(seed, "fabric", "flows"), datagrams)])


# ----------------------------------------------------------------------
# dumbbell: eight Reno flows through a tail-drop trunk
# ----------------------------------------------------------------------

class DumbbellArm(Arm):
    BASE_PORT = 5000

    def __init__(self, payloads: list, staggers: list) -> None:
        bed = FabricTestbed("dumbbell", organization="userlib", pairs=len(payloads))
        super().__init__("dumbbell", bed)
        self.payloads = payloads
        self.flows = [
            {"hash": hashlib.sha256(), "received": 0, "start": 0.0, "end": 0.0}
            for _ in payloads
        ]
        for i, delay in enumerate(staggers):
            self.spawn(self._server(i), f"srv{i}")
            self.spawn(self._client(i, delay), f"cli{i}")

    def _server(self, i: int):
        flow, want = self.flows[i], len(self.payloads[i])
        listener = yield from self.bed.server_services[i].listen(self.BASE_PORT + i)
        conn = self.adopt((yield from listener.accept()))
        while True:
            data = yield from conn.recv(WRITE_SIZE)
            if not data:
                break
            flow["hash"].update(data)
            flow["received"] += len(data)
            if flow["received"] >= want and not flow["end"]:
                flow["end"] = self.bed.sim.now
        yield from conn.close()

    def _client(self, i: int, delay: float):
        bed, payload = self.bed, self.payloads[i]
        yield bed.sim.timeout(delay)
        self.flows[i]["start"] = bed.sim.now
        server_ip = bed.topology.servers[i].ip
        conn = self.adopt((yield from bed.client_services[i].connect(server_ip, self.BASE_PORT + i)))
        for sent in range(0, len(payload), WRITE_SIZE):
            yield from conn.send(payload[sent : sent + WRITE_SIZE])
        yield from conn.close()

    def result(self) -> ArmResult:
        problems = self._lifecycle_problems()
        delivered = attempted = failed = 0
        rates = []
        for i, (flow, payload) in enumerate(zip(self.flows, self.payloads)):
            kib = -(-len(payload) // 1024)
            attempted += kib
            intact = flow["received"] == len(payload) and flow["hash"].hexdigest() == _sha(payload)
            if intact:
                delivered += flow["received"]
                rates.append(len(payload) * 8 / (flow["end"] - flow["start"]) / 1e6)
            else:
                failed += kib
                rates.append(0.0)
                problems.append(f"dumbbell: flow {i} received {flow['received']}/{len(payload)} bytes intact")
        span = max(f["end"] for f in self.flows) - min(f["start"] for f in self.flows)
        squares = sum(r * r for r in rates)
        return ArmResult(
            ops=delivered / 1024,
            attempted=attempted,
            failed=failed,
            sim={
                "goodput_mbps": delivered * 8 / span / 1e6 if span > 0 else 0.0,
                "fairness": sum(rates) ** 2 / (len(rates) * squares) if squares else 0.0,
            },
            digests=[f["hash"].hexdigest() for f in self.flows],
            problems=problems,
        )


def build_dumbbell(seed: int, scale: float) -> "World":
    size = _scaled(DUMBBELL_BYTES, scale, floor=WRITE_SIZE)
    payload_rng = _rng(seed, "dumbbell", "payload")
    stagger_rng = _rng(seed, "dumbbell", "stagger")
    payloads = [payload_rng.randbytes(size) for _ in range(DUMBBELL_PAIRS)]
    staggers = [stagger_rng.uniform(0.0, DUMBBELL_MAX_STAGGER) for _ in range(DUMBBELL_PAIRS)]
    return World("dumbbell", [DumbbellArm(payloads, staggers)])


# ----------------------------------------------------------------------
# sansio: the control
# ----------------------------------------------------------------------

def empty_bed() -> SimpleNamespace:
    """A testbed-shaped object with no hosts and no ``repro.sim`` engine.

    The sans-io world is one: its engine counters are zero by
    construction, which is what makes it the control for engine work.
    """
    no_engine = SimpleNamespace(
        engine_stats=lambda: dict.fromkeys(
            ("events", "steps", "batched", "max_batch", "skipped", "cancelled"), 0
        )
    )
    return SimpleNamespace(
        sim=no_engine, hosts=[], routers=[], switches=[], links=[],
        registries=[], services=[],
    )


class SansioArm(Arm):
    def __init__(self, payload: bytes, faults: Callable[[], float]) -> None:
        super().__init__("sansio", empty_bed())
        self.payload = payload
        self.pair = SansioPair(payload, faults)
        self.machines = [self.pair.a.machine, self.pair.b.machine]

    def run(self) -> None:
        self.pair.run()

    def result(self) -> ArmResult:
        pair, total = self.pair, len(self.payload)
        problems = []
        for end in (pair.a, pair.b):
            if end.closed_reason != "done":
                problems.append(f"sansio: connection closed with reason {end.closed_reason!r}")
        digest = pair.received.hexdigest()
        intact = pair.received_bytes == total and digest == _sha(self.payload)
        if not intact:
            problems.append(f"sansio: received {pair.received_bytes}/{total} bytes, digest mismatch")
        kib = -(-total // 1024)
        return ArmResult(
            ops=pair.received_bytes / 1024,
            attempted=kib,
            failed=0 if intact else kib,
            sim={
                "virtual_seconds": pair.now,
                "dropped": pair.dropped,
                "reordered": pair.reordered,
                "driver_events": pair.pushes,
            },
            digests=[digest],
            problems=problems,
        )


def build_sansio(seed: int, scale: float) -> "World":
    size = _scaled(SANSIO_BYTES, scale, floor=WRITE_SIZE)
    payload = _rng(seed, "sansio", "payload").randbytes(size)
    return World("sansio", [SansioArm(payload, _rng(seed, "sansio", "faults").random)])


# ----------------------------------------------------------------------
# A rep's world
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    ops: float
    attempted: int
    failed: int
    #: ``{arm name: {result name: value}}`` — simulated, bit-exact.
    sim: dict
    digest: str
    problems: list


class World:
    """One rep: arms built in set-up, run back to back when timed."""

    def __init__(self, workload: str, arms: list) -> None:
        self.workload = workload
        self.arms = arms

    def run(self) -> None:
        for arm in self.arms:
            arm.run()

    def outcome(self) -> Outcome:
        """Check every output; the digest pins everything simulated."""
        results = [arm.result() for arm in self.arms]
        sim = {arm.name: result.sim for arm, result in zip(self.arms, results)}
        engines = [arm.bed.sim.engine_stats() for arm in self.arms]
        digest = _sha(repr((
            [result.digests for result in results],
            sorted((name, sorted(values.items())) for name, values in sim.items()),
            [sorted(stats.items()) for stats in engines],
        )).encode())
        return Outcome(
            ops=sum(r.ops for r in results),
            attempted=sum(r.attempted for r in results),
            failed=sum(r.failed for r in results),
            sim=sim,
            digest=digest,
            problems=[p for r in results for p in r.problems],
        )


@dataclass(frozen=True)
class Workload:
    name: str
    op: str
    why: str
    build: Callable[[int, float], World]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bulk", "KiB",
            "Table 2 shape, 4096-byte one-way writes: per-byte work and the TCP receive fast path dominate",
            build_bulk,
        ),
        Workload(
            "pingpong", "trip",
            "Table 3 shape, 1-byte echo: per-packet cost with no per-byte work, delayed-ACK timers, thread wakes",
            build_pingpong,
        ),
        Workload(
            "churn", "conn",
            "Table 4 shape, connect-send-close cycles: registry, channel/filter install and remove, long timers",
            build_churn,
        ),
        Workload(
            "fabric", "dgram",
            "256-host fat-tree, 64-byte UDP at the zero-loss threshold: bare forwarding, engine and per-hop cost",
            build_fabric,
        ),
        Workload(
            "dumbbell", "KiB",
            "eight Reno flows through a tail-drop trunk: loss, retransmit, reassembly - TCP off the fast path",
            build_dumbbell,
        ),
        Workload(
            "sansio", "KiB",
            "two TcpMachines on a heap, no simulator: the control that engine and host-model changes must not move",
            build_sansio,
        ),
    )
}
