"""The failure axis: wherever an operation stops, nothing stays held.

The paper's §3 registry contract: when an operation stops, an exiting
application's connections are inherited for 2MSL, an aborted one is
reset, and nothing else is kept.  Each cell stops a connection set-up
at one point, runs the two-host testbed to quiescence and judges it by
``nothing-held``, ``requesters-answered``, ``no-hung-connection``,
the cell's ``expected-outcome`` (who was reset, who inherited what)
and ``no-process-crashed`` (``sim.crashed`` is empty).
Fourteen cells run against the registry on both networks; two hold the
in-kernel stack to the same contract for a closing listener.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import netstat
from ..netio.demux import DemuxError
from ..protocols.tcp import TcpConfig
from ..tenancy import QuotaExceeded
from ..testbed import IP_B, Testbed
from .campaign import Axis, CellResult, Spec
from .invariants import CheckResult, Violation

FAILURE_CONFIG = TcpConfig(msl=0.5, conn_timeout=3.0)
#: Every cell has failed, been reset and waited out TIME-WAIT and the
#: port linger (2*MSL each) well before this.
SETTLED = 12.0
#: The exhaustion storm: channels in the connector's wired pool, and
#: the concurrent connects that outnumber them.
STORM_POOL, STORM_CONNECTS = 2, 5


def drain(conn):
    """Read a connection to its end (EOF or reset), then close it."""
    while (yield from conn.recv(1024)):
        pass
    yield from conn.close()


def serve(bed, seen):
    """Server on host b: accept and drain whatever arrives on port 80,
    stop listening 8 s in."""

    def acceptor(listener):
        while True:
            try:
                conn = yield from listener.accept()
            except ConnectionError:  # The listener closed under it.
                return
            seen["conns"].append(conn)
            bed.app_b.spawn(drain(conn))

    def server():
        listener = seen["listener"] = yield from bed.service_b.listen(80)
        # A requester too: an accept still parked at the end was never answered.
        seen["requesters"].append(bed.app_b.spawn(acceptor(listener)))
        yield bed.sim.timeout(8.0)
        if not listener.closed:
            listener.close()

    bed.app_b.spawn(server())


def request(bed, seen, port=80, then=drain, **kwargs):
    """Client, a thread of the application on host a: one ``connect``
    50 ms in; the error it is answered with lands in ``seen['errors']``,
    a connection is handed to ``then``."""

    def client():
        yield bed.sim.timeout(0.05)
        try:
            conn = yield from bed.service_a.connect(IP_B, port, **kwargs)
        except ConnectionError as exc:
            seen["errors"].append(str(exc))
            return
        seen["conns"].append(conn)
        yield from then(conn)

    seen["requesters"].append(bed.app_a.spawn(client()))


def at(bed, delay, action):
    """Run ``action()`` ``delay`` seconds after the request starts."""
    bed.sim.call_later(0.05 + delay, lambda _event: action())


# ----------------------------------------------------------------------
# The cells
# ----------------------------------------------------------------------


def ring_refused(bed, seen):
    def refuse(caller, **kwargs):
        raise QuotaExceeded("no ring to spare")

    bed.host_a.netio.allocate_ring = refuse
    request(bed, seen)


def handshake_times_out(bed, seen):
    bed.host_b.tcp_kernel_handler = lambda payload, src_ip, link_info, done: done()
    request(bed, seen)


def peer_refuses(bed, seen):
    request(bed, seen)


def channel_over_quota(bed, seen):
    bed.host_a.netio.region_pool_bytes = 0
    serve(bed, seen)
    request(bed, seen, local_port=5555)


def channel_flow_refused(bed, seen):
    table = bed.host_a.netio.flow_table
    install = table.install

    def refuse_exact(key, target, owner=None):
        if key.is_exact:
            raise DemuxError(f"flow {key} refused")
        install(key, target, owner=owner)

    table.install = refuse_exact
    serve(bed, seen)
    request(bed, seen, local_port=5555)


def requester_dies_mid_handshake(bed, seen):
    serve(bed, seen)
    request(bed, seen)
    at(bed, 0.004, bed.app_a.terminate)


def requester_dies_before_the_reply(bed, seen):
    netio = bed.host_a.netio
    create_channel = netio.create_channel

    def create_then_kill(*args, **kwargs):
        channel = yield from create_channel(*args, **kwargs)
        # At the registry's next wait, the channel in its lease.
        bed.sim.call_later(0.0, lambda _event: bed.app_a.terminate())
        return channel

    netio.create_channel = create_then_kill
    serve(bed, seen)
    request(bed, seen)


def listener_closed_mid_handshake(bed, seen):
    serve(bed, seen)
    request(bed, seen)
    at(bed, 0.0097, lambda: seen["listener"].close())


def listener_closed_with_a_connection_in_its_backlog(bed, seen):
    def server():  # Listens, never accepts.
        seen["listener"] = yield from bed.service_b.listen(80)

    bed.app_b.spawn(server())
    request(bed, seen)
    at(bed, 0.1, lambda: seen["listener"].close())


def listener_owner_dies_mid_handshake(bed, seen):
    serve(bed, seen)
    request(bed, seen)
    at(bed, 0.0097, bed.app_b.terminate)


def handoff_then_first_owner_exits(bed, seen):
    worker_service = bed.library_service("bob", "worker")

    def inetd():
        listener = yield from bed.service_b.listen(80)
        conn = yield from listener.accept()
        handed = conn.hand_off(worker_service.app, worker_service)
        seen["conns"].append(handed)
        worker_service.app.spawn(worker(handed))
        bed.app_b.terminate()  # inetd exits; the worker serves on.

    def worker(conn):
        data = yield from conn.recv_exactly(5)
        yield from conn.send(data.upper())
        seen["inherited_while_served"] = bed.registry_b.stats["inherited"]
        yield bed.sim.timeout(0.5)
        worker_service.app.terminate()  # Abnormal exit: now it is inherited.

    def client(conn):
        yield from conn.send(b"hello")
        seen["echo"] = yield from conn.recv_exactly(5)
        yield from drain(conn)

    bed.app_b.spawn(inetd())
    request(bed, seen, then=client)


def terminate_from_own_thread(bed, seen):
    def then(conn):
        yield from conn.send(b"last words")
        yield bed.sim.timeout(0.1)
        bed.app_a.terminate()
        yield bed.sim.timeout(60.0)  # Never served: the thread ends here.
        seen["outlived_its_task"] = True

    serve(bed, seen)
    request(bed, seen, then=then)


def refused_syns_on_a_closed_port(bed, seen):
    for _ in range(5):
        request(bed, seen, port=81)


def exhaustion_storm(bed, seen):
    """More concurrent connects from one application than its host's
    wired pool has channels: as many as fit are granted (and closed),
    the rest refused (on AN1 before their SYN, at ring allocation)."""
    netio = bed.host_a.netio
    netio.region_pool_bytes = STORM_POOL * netio.DEFAULT_REGION_SIZE
    serve(bed, seen)
    for _ in range(STORM_CONNECTS):
        request(bed, seen, then=lambda conn: conn.close())


def listener_closed_mid_handshake_on_ultrix(bed, seen):
    serve(bed, seen)
    request(bed, seen)
    at(bed, 0.0025, lambda: seen["listener"].close())


CELLS = {
    cell.__name__: cell
    for cell in (
        ring_refused,
        handshake_times_out,
        peer_refuses,
        channel_over_quota,
        channel_flow_refused,
        requester_dies_mid_handshake,
        requester_dies_before_the_reply,
        listener_closed_mid_handshake,
        listener_closed_with_a_connection_in_its_backlog,
        listener_owner_dies_mid_handshake,
        handoff_then_first_owner_exits,
        terminate_from_own_thread,
        refused_syns_on_a_closed_port,
        exhaustion_storm,
        listener_closed_mid_handshake_on_ultrix,
    )
}
#: The cells run against the registry, on each of NETWORKS.
REGISTRY_CELLS = tuple(CELLS)[:-1]
NETWORKS = ("ethernet", "an1")
#: The monolithic stack's twins of the registry's passive open: a
#: connection nobody will accept is aborted, not kept ESTABLISHED.
ULTRIX_CELLS = (
    "listener_closed_mid_handshake_on_ultrix",
    "listener_closed_with_a_connection_in_its_backlog",
)
LISTENER_CELLS = (
    "listener_closed_mid_handshake",
    "listener_closed_with_a_connection_in_its_backlog",
    "listener_owner_dies_mid_handshake",
)


@dataclass(frozen=True)
class FailureSpec(Spec):
    """One failure cell: which operation stops where, on which stack."""

    cell: str
    network: str = "ethernet"
    organization: str = "userlib"

    @property
    def label(self) -> str:
        return f"{self.cell}/{self.network}/{self.organization}"


def failure_specs(quick: bool = False) -> list[FailureSpec]:
    """All 30 cells; ``quick`` runs them all too (about 1.5 s)."""
    return [
        FailureSpec(cell, network) for cell in REGISTRY_CELLS for network in NETWORKS
    ] + [FailureSpec(cell, "ethernet", "ultrix") for cell in ULTRIX_CELLS]


def _held(bed, handshakes):
    """Every table's holdings (:func:`repro.netstat.held`), then the
    cell's own: each recorded handshake's armed timers."""
    yield from netstat.held(bed)
    for runner in handshakes:
        armed = sorted(name for name, t in runner._timers.items() if t and t[0] is not None)
        yield runner.name, "armed handshake timers", armed


def _expected(spec: FailureSpec, bed, seen, handshakes) -> list:
    """The cell's own outcome, beyond "nothing held": (expectation, holds)."""
    if spec.organization == "ultrix":
        reasons = [c.runner.closed_reason for c in seen["conns"]]
        return [("the one connection reset", reasons == ["reset"])]
    ended = {c.service.app.name: c.runner.closed_reason for c in seen["conns"]}
    inherited_a, inherited_b = (r.stats["inherited"] for r in (bed.registry_a, bed.registry_b))
    if spec.cell == "handoff_then_first_owner_exits":
        # The connection outlived its first owner, untouched, and was
        # inherited (and reset) only when the worker died.
        return [
            ("the worker's echo", seen.get("echo") == b"HELLO"),
            ("only the listener inherited while served", seen.get("inherited_while_served") == 1),
            ("the connection inherited when the worker died", inherited_b == 2),
            ("the client reset", ended.get("app-a") == "reset"),
        ]
    if spec.cell == "terminate_from_own_thread":
        return [
            ("the task and its threads gone", not (bed.app_a.alive or "outlived_its_task" in seen)),
            ("the connection inherited", inherited_a == 1),
            ("the server reset", ended.get("app-b") == "reset"),
        ]
    if spec.cell == "exhaustion_storm":
        # On AN1 the pool refuses a connect before its SYN (host b never
        # sees it); on Ethernet after the handshake, and the peer is reset:
        # "refused" in its registry's SYN-RECEIVED, or in its library.
        reached = [r for r in handshakes if r.name == "registry:80"]
        peers = [r.closed_reason for r in reached]
        peers += [c.runner.closed_reason for c in seen["conns"] if c.service.app is bed.app_b]
        refused = len(seen["errors"])
        accounted = (STORM_CONNECTS - len(reached), peers.count("refused") + peers.count("reset"))
        return [
            ("the pool's worth granted, the rest refused", refused == STORM_CONNECTS - STORM_POOL),
            ("each refused connect's peer reset, or its SYN never sent",
             accounted == ((refused, 0) if spec.network == "an1" else (0, refused))),
        ]
    if spec.cell in LISTENER_CELLS:
        # The handshake completed from the client's side, or was cut
        # short: either way the client is told, not left in recv().
        return [("the client told", bool(seen["errors"]) or ended.get("app-a") == "reset")]
    # The requester got an error reply or is dead, and a peer that saw
    # the connection was reset.
    return [
        ("an error reply, or a dead requester", bool(seen["errors"]) or not bed.app_a.alive),
        ("a server that saw the connection reset", ended.get("app-b", "reset") == "reset"),
    ]


def run_cell(spec: FailureSpec, keep_evidence: bool = False) -> CellResult:
    """Run one cell to quiescence and judge it by "nothing held"."""
    bed = Testbed(network=spec.network, organization=spec.organization, config=FAILURE_CONFIG)
    seen = {"conns": [], "errors": [], "requesters": []}
    handshakes = []
    for registry in bed.registries:

        def recorded(lease, make=registry.handshake_runner):
            handshakes.append(make(lease))
            return handshakes[-1]

        registry.handshake_runner = recorded
    CELLS[spec.cell](bed, seen)
    bed.run(until=SETTLED)
    now = bed.sim.now
    # Each check: one (subject, what is wrong, whether it is) per item checked.
    checks = {
        "nothing-held": [
            (subject, f"{what} still held: {held}", held)
            for subject, what, held in _held(bed, handshakes)
        ],
        "requesters-answered": [("requesters", "no request was made", not seen["requesters"])]
        + [(r.name, "still waiting for its answer", r.is_alive) for r in seen["requesters"]],
        "no-hung-connection": [
            (c.runner.name, "never ended, its application alive", c.runner.closed_reason is None)
            for c in seen["conns"]
            if not bed.registries or c.service.app.alive
        ],
        "expected-outcome": [
            (spec.cell, f"expected {e}", not holds)
            for e, holds in _expected(spec, bed, seen, handshakes)
        ],
        "no-process-crashed": [("processes", "crashed: " + "; ".join(
            f"{p.name}: {p.value!r}" for p in bed.sim.crashed), bool(bed.sim.crashed))],
    }
    results = [
        CheckResult(name, len(facts), [Violation(name, s, now, w) for s, w, bad in facts if bad])
        for name, facts in checks.items()
    ]
    return CellResult(spec, results, evidence=seen if keep_evidence else None)


FAILURE = Axis("failure", FailureSpec, run_cell, failure_specs)
