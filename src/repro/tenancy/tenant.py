"""Tenants: principals sharing one stack under enforced budgets.

The paper's design already has a capability boundary: every channel,
template, filter, and BQI ring is set up by trusted code (the registry
server and the network I/O module) on behalf of untrusted libraries.
This module turns that boundary into real multi-tenancy: a
:class:`Tenant` is a principal owning tasks; a :class:`TenantBudget`
caps what the trusted layers will allocate or transmit on its behalf —
shared-region bytes, BQI ring buffers, channel and template counts, a
token-bucket transmit rate, and a port grant set.

Enforcement lives in the trusted layers, never in library code:

* the network I/O module debits budgets at channel creation, verifies
  templates and flow keys against the grant set at registration time,
  rate-limits ``send`` (refusing — not queueing — over-budget packets),
  and refuses delivery into a channel whose owning task no longer
  belongs to the tenant the flow was installed for;
* the registry server refuses ``listen``/``bind``/``connect`` on ports
  outside the caller's grant;
* the flow table's wildcard tier records an owner so an out-of-grant
  wildcard listen is rejected instead of shadowing another tenant's
  exact-match flows.

Every refusal increments an audit counter (per-tenant and on the
:class:`TenantManager`), which is what the isolation invariants and
``netstat``'s tenant table read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..counters import Counters
from ..net.headers import Ipv4Header


class TenantViolation(OSError):
    """A tenant-boundary operation was refused (base class)."""


class QuotaExceeded(TenantViolation):
    """An allocation would exceed the tenant's budget."""


class GrantViolation(TenantViolation):
    """A port, template, or flow key outside the tenant's grant set."""


class RateLimited(TenantViolation):
    """A transmission was refused by the tenant's token bucket.

    The module refuses rather than queues; ``retry_after`` tells the
    *library* (the tenant's own code) how long until the bucket can
    admit the packet, should it choose to retry.
    """

    def __init__(self, retry_after: float, detail: str = "") -> None:
        super().__init__(detail or f"rate limited; retry in {retry_after:.6f}s")
        self.retry_after = retry_after


class TokenBucket:
    """A classic token bucket over simulated time.

    ``rate`` is in bytes/second, ``burst`` in bytes.  A non-positive
    rate means unlimited.  Packets larger than the burst are admitted
    against a full bucket (the balance may go negative) so a large
    segment can never livelock behind its own size.
    """

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate or 0.0)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = 0.0

    def try_consume(self, nbytes: int, now: float) -> float:
        """Admit ``nbytes`` at time ``now``.

        Returns 0.0 when admitted (tokens debited), else the seconds
        until the bucket could admit the packet.
        """
        if self.rate <= 0:
            return 0.0
        if now > self.stamp:
            self.tokens = min(
                self.burst, self.tokens + (now - self.stamp) * self.rate
            )
            self.stamp = now
        needed = min(float(nbytes), self.burst)
        if self.tokens >= needed:
            self.tokens -= float(nbytes)
            return 0.0
        return (needed - self.tokens) / self.rate


@dataclass(frozen=True)
class PortGrant:
    """The set of ports a tenant may explicitly bind or listen on.

    A tuple of inclusive ``(lo, hi)`` ranges; the empty tuple grants
    nothing.  Ephemeral ports handed out by the registry's own
    allocator are always permitted — the trusted allocator mints them,
    so no forgery is possible.
    """

    ranges: tuple = ()

    @classmethod
    def of(cls, *items) -> "PortGrant":
        """Build from ports and ``(lo, hi)`` ranges: ``of(80, (5000, 5999))``."""
        ranges = []
        for item in items:
            if isinstance(item, tuple):
                lo, hi = item
            else:
                lo = hi = int(item)
            ranges.append((int(lo), int(hi)))
        return cls(tuple(sorted(ranges)))

    @classmethod
    def any(cls) -> "PortGrant":
        return cls(((1, 0xFFFF),))

    def allows(self, port: int) -> bool:
        return any(lo <= port <= hi for lo, hi in self.ranges)

    def __str__(self) -> str:
        if self.ranges == ((1, 0xFFFF),):
            return "*"
        return ",".join(
            str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in self.ranges
        )


@dataclass(frozen=True)
class TenantBudget:
    """Everything the trusted layers will spend for one tenant."""

    #: Shared packet-buffer region quota (bytes of wired memory).
    region_bytes: int = 1 << 20
    #: AN1 BQI ring buffer quota (buffers across all rings).
    bqi_buffers: int = 256
    max_channels: int = 32
    max_templates: int = 32
    #: Token-bucket transmit limiter; rate in bytes/second (<= 0 means
    #: unlimited), burst in bytes.
    tx_rate: float = 0.0
    tx_burst: int = 64 * 1024
    ports: PortGrant = field(default_factory=PortGrant.any)


class Tenant:
    """One principal and its live resource attribution."""

    def __init__(self, tenant_id: str, budget: Optional[TenantBudget] = None) -> None:
        self.tenant_id = tenant_id
        self.budget = budget or TenantBudget()
        self.bucket = TokenBucket(self.budget.tx_rate, self.budget.tx_burst)
        self.counters = Counters()
        #: Live channels attributed to this tenant, with their charges.
        self._channel_charges: dict = {}  # Channel -> (region_bytes, templates)
        #: Live BQI rings attributed to this tenant.
        self._rings: dict = {}  # BufferRing -> buffers charged
        self.region_bytes_used = 0
        self.bqi_buffers_used = 0
        self.templates_used = 0
        #: Ports this tenant successfully bound/listened (evidence for
        #: the grant-respected invariant; recorded even when enforcement
        #: is off so a sabotaged stack leaves a judgeable trail).
        self.bound_ports: list = []
        #: Ephemeral ports the trusted registry minted for this tenant:
        #: implicitly granted, since no forgery is possible.
        self._ephemeral_ports: set = set()
        self.tasks: list = []

    def __repr__(self) -> str:
        return (
            f"<Tenant {self.tenant_id} channels={self.channel_count}"
            f" region={self.region_bytes_used}/{self.budget.region_bytes}>"
        )

    @property
    def channel_count(self) -> int:
        return len(self._channel_charges)

    # ------------------------------------------------------------------
    # Admission (called by the trusted layers; raise to refuse)
    # ------------------------------------------------------------------

    def _refuse(self, exc_type, counter: str, detail: str):
        self.counters[counter] += 1
        self.counters["rejections"] += 1
        raise exc_type(f"tenant {self.tenant_id}: {detail}")

    def check_port(self, port: int) -> None:
        """An explicit bind/listen/reserve must be inside the grant (or
        a port the registry's trusted allocator already minted)."""
        if not self._granted(port):
            self._refuse(
                GrantViolation,
                "out_of_grant_binds",
                f"port {port} outside grant {self.budget.ports}",
            )

    def check_template(self, template) -> None:
        """Registration-time template vetting.

        A send template must pin the IP source address (offset 12) and
        the transport source port (first two bytes at the IP payload),
        and the pinned port must be inside the grant — otherwise the
        capability would let the holder impersonate out-of-grant
        endpoints.
        """
        pins_src = False
        local_port = None
        for constraint in template.constraints:
            if constraint.offset == 12 and len(constraint.value) >= 4:
                pins_src = True
            if constraint.offset == Ipv4Header.LENGTH and len(constraint.value) >= 2:
                local_port = int.from_bytes(constraint.value[:2], "big")
        if not pins_src or local_port is None:
            self._refuse(
                GrantViolation,
                "forged_templates",
                f"template {template.name!r} does not pin source "
                "address and port",
            )
        if not self._granted(local_port):
            self._refuse(
                GrantViolation,
                "forged_templates",
                f"template {template.name!r} pins out-of-grant port "
                f"{local_port}",
            )

    def check_flow_key(self, flow_key) -> None:
        if not self._granted(flow_key.local_port):
            self._refuse(
                GrantViolation,
                "out_of_grant_flows",
                f"flow {flow_key} outside grant {self.budget.ports}",
            )

    def _granted(self, port: int) -> bool:
        return port in self._ephemeral_ports or self.budget.ports.allows(port)

    def grant_ephemeral(self, port: int) -> None:
        self._ephemeral_ports.add(port)

    def precheck_channel(self, region_bytes: int, ring_buffers: int = 0) -> None:
        """Non-debiting admission check (before an expensive handshake)."""
        if self.channel_count + 1 > self.budget.max_channels:
            self._refuse(
                QuotaExceeded,
                "quota_channels",
                f"channel cap {self.budget.max_channels} reached",
            )
        if self.templates_used + 1 > self.budget.max_templates:
            self._refuse(
                QuotaExceeded,
                "quota_templates",
                f"template cap {self.budget.max_templates} reached",
            )
        if self.region_bytes_used + region_bytes > self.budget.region_bytes:
            self._refuse(
                QuotaExceeded,
                "quota_region",
                f"region quota {self.budget.region_bytes}B exhausted "
                f"({self.region_bytes_used}B used, {region_bytes}B asked)",
            )
        if ring_buffers:
            self.admit_ring(ring_buffers)

    def attach_channel(self, channel, region_bytes: int) -> None:
        """Debit and record one created channel (+ its template)."""
        self.region_bytes_used += region_bytes
        self.templates_used += 1
        self._channel_charges[channel] = region_bytes
        self._note_peaks()

    def release_channel(self, channel) -> None:
        """Credit everything a channel held (idempotent)."""
        region_bytes = self._channel_charges.pop(channel, None)
        if region_bytes is None:
            return
        self.region_bytes_used -= region_bytes
        self.templates_used -= 1

    def admit_ring(self, buffers: int) -> None:
        if self.bqi_buffers_used + buffers > self.budget.bqi_buffers:
            self._refuse(
                QuotaExceeded,
                "quota_bqi",
                f"BQI buffer quota {self.budget.bqi_buffers} exhausted",
            )

    def attach_ring(self, ring) -> None:
        if ring in self._rings:  # pre-allocated, then bound to a channel
            return
        self.bqi_buffers_used += ring.capacity
        self._rings[ring] = ring.capacity
        self._note_peaks()

    def release_ring(self, ring) -> None:
        buffers = self._rings.pop(ring, None)
        if buffers is None:
            return
        self.bqi_buffers_used -= buffers

    def admit_tx(self, nbytes: int, now: float) -> float:
        """Rate-limiter gate: 0.0 admits; positive is the retry hint."""
        retry_after = self.bucket.try_consume(nbytes, now)
        if retry_after > 0:
            self.counters["throttle_events"] += 1
            return retry_after
        self.counters["tx_bytes"] += nbytes
        self.counters["tx_packets"] += 1
        return 0.0

    def note_rx(self, nbytes: int) -> None:
        self.counters["rx_bytes"] += nbytes
        self.counters["rx_frames"] += 1

    def note_bound(self, port: int) -> None:
        self.bound_ports.append(port)

    def _note_peaks(self) -> None:
        if self.region_bytes_used > self.counters["peak_region_bytes"]:
            self.counters["peak_region_bytes"] = self.region_bytes_used
        if self.bqi_buffers_used > self.counters["peak_bqi_buffers"]:
            self.counters["peak_bqi_buffers"] = self.bqi_buffers_used
        if self.channel_count > self.counters["peak_channels"]:
            self.counters["peak_channels"] = self.channel_count

    # ------------------------------------------------------------------
    # Teardown: one sweep releases everything a crashed tenant held
    # ------------------------------------------------------------------

    def teardown(self) -> dict:
        """Terminate the tenant's tasks and sweep every attributed
        resource through the single release path
        (:meth:`NetworkIoModule.destroy_channel`), then report leaks.

        Task termination fires the registry's inheritance hooks (which
        destroy channels and release ports); anything still attributed
        afterwards is destroyed directly.  Returns :meth:`leaks` — an
        empty dict is the clean bill of health tests assert on.
        """
        for task in list(self.tasks):
            if task.alive:
                task.terminate()
        for channel in list(self._channel_charges):
            module = getattr(channel, "module", None)
            if module is not None and not channel.closed:
                module.destroy_channel(channel.owner, channel)
            else:
                self.release_channel(channel)
        for ring in list(self._rings):
            owner = getattr(ring, "owner", None)
            module = getattr(owner, "module", None) if owner is not None else None
            if module is not None:
                module.destroy_channel(owner.owner, owner)
            else:
                self.release_ring(ring)
        return self.leaks()

    def leaks(self) -> dict:
        """Outstanding attribution after teardown; empty means clean."""
        leaks = {}
        if self.region_bytes_used:
            leaks["region_bytes"] = self.region_bytes_used
        if self.bqi_buffers_used:
            leaks["bqi_buffers"] = self.bqi_buffers_used
        if self.templates_used:
            leaks["templates"] = self.templates_used
        if self._channel_charges:
            leaks["channels"] = len(self._channel_charges)
        if self._rings:
            leaks["rings"] = len(self._rings)
        return leaks


class TenantManager:
    """The per-testbed tenant directory the trusted layers consult.

    ``enforcing`` is the campaign's sabotage knob: when False every
    admission check silently passes (attribution and audit evidence are
    still recorded), modelling a stack whose enforcement was compiled
    out — the isolation invariants must catch the consequences.
    """

    def __init__(self, enforcing: bool = True) -> None:
        self.enforcing = enforcing
        self.tenants: dict[str, Tenant] = {}
        self._task_tenant: dict = {}  # Task -> Tenant
        self.audit = Counters()
        #: Delivery evidence: one ``(time, flow_tenant, owner_tenant,
        #: nbytes, delivered)`` record per frame the module classified
        #: to a tenanted channel.  The isolation invariants judge
        #: cross-tenant delivery from this log, the way the netcheck
        #: invariants judge from the wire trace.
        self.delivery_log: list = []
        #: Audited refusals and suspicious facts: ``(time, kind,
        #: tenant_id, detail)`` — recorded whether or not enforcement
        #: acted on them, so a sabotaged stack still leaves evidence.
        self.fact_log: list = []

    def create_tenant(
        self, tenant_id: str, budget: Optional[TenantBudget] = None
    ) -> Tenant:
        if tenant_id in self.tenants:
            raise ValueError(f"tenant {tenant_id!r} already exists")
        tenant = Tenant(tenant_id, budget)
        self.tenants[tenant_id] = tenant
        return tenant

    def bind_task(self, task, tenant: Tenant) -> None:
        """Attribute ``task`` (and everything it creates) to ``tenant``."""
        self._task_tenant[task] = tenant
        tenant.tasks.append(task)

    def tenant_of(self, task) -> Optional[Tenant]:
        return self._task_tenant.get(task)

    def get(self, tenant_id) -> Optional[Tenant]:
        return self.tenants.get(tenant_id)

    def __iter__(self):
        return iter(self.tenants.values())

    # ------------------------------------------------------------------
    # Enforcement (a no-op when not enforcing, but audited)
    # ------------------------------------------------------------------

    def admit(self, task, time: float, kind: str, check) -> Optional[Tenant]:
        """Run one admission ``check(tenant)`` for ``task``'s tenant on
        behalf of a trusted layer; returns the tenant (None for a task
        no tenant owns).  A refusal is an audited fact of ``kind``
        regardless; it only *raises* — and so reaches the application —
        when this manager enforces."""
        tenant = self._task_tenant.get(task)
        if tenant is not None:
            try:
                check(tenant)
            except TenantViolation as exc:
                self.note(time, kind, tenant.tenant_id, str(exc))
                if self.enforcing:
                    raise
        return tenant

    def note(self, time: float, kind: str, tenant_id, detail: str = "") -> None:
        """Record one audited fact for the invariant checkers."""
        self.audit[kind] += 1
        self.fact_log.append((time, kind, tenant_id, detail))


def attach_tenancy(bed, enforcing: bool = True) -> TenantManager:
    """Wire a :class:`TenantManager` into every trusted layer of a
    testbed (both :class:`~repro.testbed.Testbed` and
    :class:`~repro.testbed.FabricTestbed` shapes)."""
    manager = TenantManager(enforcing=enforcing)
    for host in bed.hosts:
        host.netio.tenants = manager
    for registry in getattr(bed, "registries", []):
        registry.tenants = manager
    bed.tenants = manager
    return manager
