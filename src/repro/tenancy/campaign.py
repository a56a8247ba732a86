"""The isolation axis of the campaign engine
(:mod:`repro.check.campaign`): prove isolation, then prove the proof
bites.

Each cell runs one victim tenant's workload — a bulk TCP transfer
alice→bob plus a UDP telemetry flow bob→alice — while one adversarial
tenant on the *same host* (sharing the NIC, the wired-buffer pool, and
the registry) misbehaves:

``forger``
    Binds into the victim's port grant and connects from an
    out-of-grant source port — forged endpoint capabilities.
``flooder``
    Offers several times the shared link's capacity in UDP datagrams,
    far past its token-bucket budget.
``leaker``
    Steals a victim channel capability (the modeled ``hand_off`` leak:
    the channel's owner task is rebound to the adversary) and tries to
    receive the victim's flow and transmit under its template.
``hoarder``
    Allocates channels until refused, trying to exhaust the host's
    finite wired packet-buffer pool before the victim arrives.

Every cell's evidence is judged by the four isolation invariants
(:mod:`repro.tenancy.invariants`).  With enforcement on, all checks
must pass and the victim's goodput stays within ε of its solo
baseline.  The same cells re-run with ``enforcing=False`` (the
sabotage arm) must each be *caught* — at least one invariant fires —
or the invariants themselves are vacuous.  ``python -m repro.check run
--axis isolation`` runs the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..check.campaign import Axis, CellResult, Spec
from ..net.headers import PROTO_UDP
from ..netstat import held
from ..org.udplib import LibraryUdpService
from ..protocols.ip import encapsulate
from ..protocols.udp import encode_datagram
from ..testbed import IP_A, IP_B, Testbed
from .invariants import (
    IsolationEvidence,
    TenantSnapshot,
    run_checks,
)
from .tenant import PortGrant, TenantBudget, attach_tenancy

#: Victim workload addressing.
VICTIM_PORT = 4000
TELEMETRY_PORT = 4500

ADVERSARIES = ("none", "forger", "flooder", "leaker", "hoarder")

#: The victim may use ports 4000-5999; the adversary 7000-7999.
VICTIM_BUDGET = TenantBudget(
    region_bytes=1 << 20,
    max_channels=16,
    tx_rate=0.0,
    ports=PortGrant.of((4000, 5999)),
)
ADVERSARY_BUDGET = TenantBudget(
    region_bytes=64 * 1024,  # exactly one channel's region
    max_channels=4,
    tx_rate=30_000.0,  # ~2.4% of the 10 Mb/s shared link
    tx_burst=8 * 1024,
    ports=PortGrant.of((7000, 7999)),
)

#: Finite wired-memory pool on the shared host: enough for the victim's
#: two channels plus the adversary's quota, nothing more — the scarcity
#: quotas arbitrate.
HOST_POOL_BYTES = 4 * 64 * 1024


#: The victim's transfer: large enough to saturate the whole cell, so
#: goodput is the *sustained* rate over the deadline window and a
#: discrete TCP loss event amortizes identically in the solo and
#: adversary cells instead of dominating a short completion time.
VICTIM_BYTES = 10_000_000


@dataclass(frozen=True)
class IsolationSpec(Spec):
    """One isolation cell: the replay token."""

    adversary: str = "none"
    enforcing: bool = True
    deadline: float = 5.0  # Sim-seconds per cell.
    #: The victim's goodput in the solo cell, which the goodput verdict
    #: compares with; None for the solo cell itself, which measures it.
    solo_goodput: Optional[float] = None

    @property
    def expect_ok(self) -> bool:
        """A sabotaged cell passes by being convicted."""
        return self.enforcing

    @property
    def label(self) -> str:
        mode = "enforced" if self.enforcing else "sabotaged"
        return f"{self.adversary}/{mode}"


class IsolationCell(CellResult):
    """An isolation cell's dict: each check's violations as text."""

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            **self.facts,
            "checks": {
                result.invariant: [str(v) for v in result.violations]
                for result in self.results
            },
            "ok": self.ok,
        }


def run_cell(spec: IsolationSpec, keep_evidence: bool = False) -> IsolationCell:
    """Run one cell and judge it."""
    bed = Testbed(network="ethernet", organization="userlib")
    manager = attach_tenancy(bed, enforcing=spec.enforcing)
    victim = manager.create_tenant("victim", VICTIM_BUDGET)
    manager.bind_task(bed.app_a, victim)
    manager.bind_task(bed.app_b, victim)
    mallory_task = bed.host_a.create_task("mallory")
    mallory = manager.create_tenant("mallory", ADVERSARY_BUDGET)
    manager.bind_task(mallory_task, mallory)
    bed.host_a.netio.region_pool_bytes = HOST_POOL_BYTES

    victim_udp_a = LibraryUdpService(bed.host_a, bed.app_a, bed.registry_a)
    victim_udp_b = LibraryUdpService(bed.host_b, bed.app_b, bed.registry_b)
    mallory_udp = LibraryUdpService(bed.host_a, mallory_task, bed.registry_a)

    state: dict = {"received": 0, "t0": None, "t1": None}
    payload = (bytes(range(256)) * 17)[:4096]

    # ------------------------------------------------------------------
    # Victim workload
    # ------------------------------------------------------------------

    def receiver() -> Generator:
        try:
            listener = yield from bed.service_b.listen(VICTIM_PORT)
            conn = yield from listener.accept()
            while True:
                data = yield from conn.recv(4096)
                if not data:
                    break
                if state["t0"] is None:
                    state["t0"] = bed.sim.now
                state["received"] += len(data)
                state["t1"] = bed.sim.now
            yield from conn.close()
        except Exception:
            pass  # A starved victim is evidence, not a harness crash.

    def sender() -> Generator:
        # The adversary gets a head start: isolation must hold even
        # when the victim arrives at an already-abused stack.
        yield bed.sim.timeout(0.05)
        try:
            conn = yield from bed.service_a.connect(IP_B, VICTIM_PORT)
            sent = 0
            while sent < VICTIM_BYTES:
                chunk = payload[: min(4096, VICTIM_BYTES - sent)]
                yield from conn.send(chunk)
                sent += len(chunk)
            yield from conn.close()
        except Exception:
            pass

    def telemetry_rx() -> Generator:
        try:
            endpoint = yield from victim_udp_a.bind(TELEMETRY_PORT)
            state["victim_ep"] = endpoint
            while True:
                yield from endpoint.recvfrom()
        except Exception:
            pass

    def telemetry_tx() -> Generator:
        yield bed.sim.timeout(0.02)
        try:
            endpoint = yield from victim_udp_b.bind(0)
            while bed.sim.now < spec.deadline:
                yield from endpoint.sendto(IP_A, TELEMETRY_PORT, b"t" * 256)
                yield bed.sim.timeout(0.005)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Adversary actors (all run as tenant "mallory" on alice)
    # ------------------------------------------------------------------

    def forger() -> Generator:
        yield bed.sim.timeout(0.01)
        # Out-of-grant UDP binds straight into the victim's range.
        for port in (4400, 4600):
            try:
                yield from mallory_udp.bind(port)
            except OSError:
                pass
            yield bed.sim.timeout(0.002)
        # An out-of-grant *source* port on an active open, from a
        # thread of mallory's TCP application.
        try:
            mallory_tcp = bed.library_service("alice", "mallory-tcp")
            manager.bind_task(mallory_tcp.app, mallory)
            yield mallory_tcp.app.spawn(
                mallory_tcp.connect(IP_B, VICTIM_PORT, local_port=4700), name="connect"
            )
        except Exception:
            pass

    def flooder() -> Generator:
        try:
            endpoint = yield from mallory_udp.bind(7100)
        except OSError:
            return
        blast = b"f" * 1400
        while bed.sim.now < spec.deadline:
            # ~470 KB/s offered — fifteen times the 30 KB/s bucket.  The
            # attempt *rate* stays modest on purpose: each refused trap
            # still burns the adversary's own library-side CPU (the sim
            # charges it to the shared host CPU), and CPU scheduling is
            # the kernel scheduler's problem, not the stack's.  What the
            # stack must stop is the *bytes* reaching the shared link.
            yield from endpoint.sendto(IP_B, 9, blast)
            yield bed.sim.timeout(0.003)

    def leaker() -> Generator:
        yield bed.sim.timeout(0.1)
        endpoint = state.get("victim_ep")
        if endpoint is None:
            return
        channel = endpoint.channel
        # The modeled capability theft: the victim's channel is rebound
        # to the adversary's task (a leaked hand_off).  From here on,
        # only kernel-side enforcement separates mallory from the flow.
        channel.owner = mallory_task
        # Try to transmit under the victim's template too.
        datagram = encode_datagram(
            TELEMETRY_PORT, 9, b"spoof", bed.host_a.ip, IP_B
        )
        packet = encapsulate(bed.host_a.ip, IP_B, PROTO_UDP, datagram)
        link_dst = yield from bed.host_a.resolve_link(IP_B)
        for _ in range(5):
            try:
                yield from bed.host_a.netio.send(
                    mallory_task, channel, packet, link_dst=link_dst
                )
            except Exception:
                pass
            yield bed.sim.timeout(0.01)

    def hoarder() -> Generator:
        for _ in range(6):
            try:
                yield from mallory_udp.bind(0)
            except OSError:
                pass  # Keep trying: quota refusals must not stick.
            yield bed.sim.timeout(0.002)

    actors = {
        "none": None,
        "forger": forger,
        "flooder": flooder,
        "leaker": leaker,
        "hoarder": hoarder,
    }
    if spec.adversary not in actors:
        raise ValueError(f"unknown adversary {spec.adversary!r}")

    bed.app_b.spawn(receiver(), name="victim-rx")
    bed.app_a.spawn(sender(), name="victim-tx")
    bed.app_a.spawn(telemetry_rx(), name="telemetry-rx")
    bed.app_b.spawn(telemetry_tx(), name="telemetry-tx")
    actor = actors[spec.adversary]
    if actor is not None:
        mallory_task.spawn(actor(), name=spec.adversary)
    bed.run(until=spec.deadline)
    duration = bed.sim.now

    if state["t0"] is not None and state["t1"] is not None and (
        state["t1"] > state["t0"]
    ):
        goodput = state["received"] / (state["t1"] - state["t0"])
    else:
        goodput = 0.0

    # ------------------------------------------------------------------
    # Teardown sweep + evidence assembly
    # ------------------------------------------------------------------

    snapshots = []
    for tenant in sorted(manager, key=lambda t: t.tenant_id):
        ports = tuple(tenant.held_ports())  # While the leases live.
        tenant.teardown()
        snapshots.append(
            TenantSnapshot(
                tenant_id=tenant.tenant_id,
                budget=tenant.budget,
                ports=ports,
                counters=dict(tenant.counters),
                leaks={
                    f"{subject} {what}": holding
                    for subject, what, holding in held(bed, tenant.tenant_id)
                    if holding
                },
            )
        )

    evidence = IsolationEvidence(
        adversary=spec.adversary,
        victim="victim",
        duration=duration,
        victim_goodput=goodput,
        solo_goodput=goodput if spec.solo_goodput is None else spec.solo_goodput,
        tenants=snapshots,
    )
    return IsolationCell(
        spec,
        run_checks(evidence),
        {
            "adversary": spec.adversary,
            "enforcing": spec.enforcing,
            "victim_goodput": evidence.victim_goodput,
            "solo_goodput": evidence.solo_goodput,
        },
        evidence if keep_evidence else None,
    )


def isolation_specs(quick: bool = False) -> list[IsolationSpec]:
    """The solo cell, every adversary enforced, then sabotaged.

    The solo cell is run here once to measure the baseline every other
    cell's spec carries.  ``quick`` shortens the window and sabotages
    only the two highest-signal adversaries, for CI.
    """
    deadline = 3.0 if quick else 5.0
    sabotaged = ("flooder", "leaker") if quick else ADVERSARIES[1:]
    solo = IsolationSpec(deadline=deadline)
    baseline = run_cell(solo).facts["victim_goodput"]
    return (
        [solo]
        + [IsolationSpec(a, True, deadline, baseline) for a in ADVERSARIES[1:]]
        + [IsolationSpec(a, False, deadline, baseline) for a in sabotaged]
    )


ISOLATION = Axis("isolation", IsolationSpec, run_cell, isolation_specs)
