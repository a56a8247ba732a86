"""The adversarial-tenant campaign: prove isolation, then prove the
proof bites.

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
or the invariants themselves are vacuous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Generator, Optional

from ..net.headers import PROTO_UDP
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
    bqi_buffers=256,
    max_channels=16,
    tx_rate=0.0,
    ports=PortGrant.of((4000, 5999)),
)
ADVERSARY_BUDGET = TenantBudget(
    region_bytes=64 * 1024,  # exactly one channel's region
    bqi_buffers=64,
    max_channels=4,
    tx_rate=30_000.0,  # ~2.4% of the 10 Mb/s shared link
    tx_burst=8 * 1024,
    ports=PortGrant.of((7000, 7999)),
)

#: Finite wired-memory pool on the shared host: enough for the victim's
#: two channels plus the adversary's quota, nothing more — the scarcity
#: quotas arbitrate.
HOST_POOL_BYTES = 4 * 64 * 1024


@dataclass(frozen=True)
class IsolationSpec:
    """One campaign cell."""

    adversary: str = "none"
    enforcing: bool = True
    #: Large enough that the victim transfer saturates the whole cell:
    #: goodput is the *sustained* rate over the deadline window, so a
    #: discrete TCP loss event amortizes identically in the solo and
    #: adversary cells instead of dominating a short completion time.
    total_bytes: int = 10_000_000
    deadline: float = 5.0  # Sim-seconds per cell.

    @property
    def label(self) -> str:
        mode = "enforced" if self.enforcing else "sabotaged"
        return f"{self.adversary}/{mode}"


@dataclass
class CellReport:
    """One cell's evidence and verdicts."""

    spec: IsolationSpec
    evidence: IsolationEvidence
    results: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def caught(self) -> bool:
        """At least one invariant fired (the sabotage arm's pass bar)."""
        return not self.ok

    def as_dict(self) -> dict:
        return {
            "adversary": self.spec.adversary,
            "enforcing": self.spec.enforcing,
            "victim_goodput": self.evidence.victim_goodput,
            "solo_goodput": self.evidence.solo_goodput,
            "checks": {
                result.invariant: [str(v) for v in result.violations]
                for result in self.results
            },
            "ok": self.ok,
        }


def run_cell(
    spec: IsolationSpec, solo_goodput: Optional[float] = None
) -> CellReport:
    """Run one cell and judge it.

    ``solo_goodput`` is the victim's baseline from a clean cell; pass
    None to have this cell measure itself (used for the baseline run).
    """
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
            while sent < spec.total_bytes:
                chunk = payload[: min(4096, spec.total_bytes - sent)]
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
        # An out-of-grant *source* port on an active open.
        try:
            mallory_tcp = bed.library_service("alice", "mallory-tcp")
            manager.bind_task(mallory_tcp.app, mallory)
            yield from mallory_tcp.connect(
                IP_B, VICTIM_PORT, local_port=4700
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

    bed.spawn(receiver(), name="victim-rx")
    bed.spawn(sender(), name="victim-tx")
    bed.spawn(telemetry_rx(), name="telemetry-rx")
    bed.spawn(telemetry_tx(), name="telemetry-tx")
    actor = actors[spec.adversary]
    if actor is not None:
        bed.spawn(actor(), name=spec.adversary)
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
        leaks = tenant.teardown()
        snapshots.append(
            TenantSnapshot(
                tenant_id=tenant.tenant_id,
                grant_ranges=tenant.budget.ports.ranges,
                ephemeral_ports=frozenset(tenant._ephemeral_ports),
                bound_ports=tuple(tenant.bound_ports),
                region_quota=tenant.budget.region_bytes,
                bqi_quota=tenant.budget.bqi_buffers,
                tx_rate=tenant.budget.tx_rate,
                tx_burst=tenant.budget.tx_burst,
                counters=dict(tenant.counters),
                leaks=leaks,
            )
        )

    evidence = IsolationEvidence(
        adversary=spec.adversary,
        enforcing=spec.enforcing,
        victim="victim",
        duration=duration,
        victim_goodput=goodput,
        solo_goodput=solo_goodput if solo_goodput is not None else goodput,
        delivery_log=list(manager.delivery_log),
        fact_log=list(manager.fact_log),
        audit=dict(manager.audit),
        tenants=snapshots,
    )
    return CellReport(spec=spec, evidence=evidence, results=run_checks(evidence))


@dataclass
class CampaignReport:
    """The full grid's outcome."""

    cells: list = field(default_factory=list)

    @property
    def enforced_ok(self) -> bool:
        return all(c.ok for c in self.cells if c.spec.enforcing)

    @property
    def sabotage_caught(self) -> bool:
        sabotaged = [c for c in self.cells if not c.spec.enforcing]
        return bool(sabotaged) and all(c.caught for c in sabotaged)

    @property
    def ok(self) -> bool:
        return self.enforced_ok and self.sabotage_caught

    def as_dict(self) -> dict:
        return {
            "cells": [c.as_dict() for c in self.cells],
            "enforced_ok": self.enforced_ok,
            "sabotage_caught": self.sabotage_caught,
            "ok": self.ok,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2)


def run_campaign(
    quick: bool = False,
    total_bytes: int = 10_000_000,
    log=print,
) -> CampaignReport:
    """The full grid: every adversary enforced, every adversary
    sabotaged.  ``quick`` shrinks the cell window and the sabotage arm
    to the two highest-signal adversaries for CI."""
    enforced = ADVERSARIES
    if quick:
        deadline = 3.0
        sabotaged = ("flooder", "leaker")
    else:
        deadline = 5.0
        sabotaged = tuple(a for a in ADVERSARIES if a != "none")

    report = CampaignReport()
    baseline = run_cell(
        IsolationSpec(
            adversary="none", total_bytes=total_bytes, deadline=deadline
        )
    )
    solo = baseline.evidence.victim_goodput
    log(
        f"[tenancy] solo baseline: {solo:.0f} B/s"
        f" ({baseline.evidence.duration:.2f}s sim)"
    )
    report.cells.append(baseline)

    for adversary in enforced:
        if adversary == "none":
            continue
        cell = run_cell(
            IsolationSpec(
                adversary=adversary,
                total_bytes=total_bytes,
                deadline=deadline,
            ),
            solo_goodput=solo,
        )
        verdict = "ok" if cell.ok else "VIOLATED"
        log(
            f"[tenancy] {cell.spec.label:20s}"
            f" goodput={cell.evidence.victim_goodput:8.0f} B/s  {verdict}"
        )
        report.cells.append(cell)

    for adversary in sabotaged:
        cell = run_cell(
            IsolationSpec(
                adversary=adversary,
                enforcing=False,
                total_bytes=total_bytes,
                deadline=deadline,
            ),
            solo_goodput=solo,
        )
        fired = sorted(
            {
                result.invariant
                for result in cell.results
                if result.violations
            }
        )
        verdict = f"caught by {', '.join(fired)}" if fired else "MISSED"
        log(f"[tenancy] {cell.spec.label:20s} {verdict}")
        report.cells.append(cell)

    return report
