"""Tenants: principals sharing one stack under enforced budgets.

The paper's design already has a capability boundary: every channel,
template, filter, and BQI ring is set up by trusted code (the registry
server and the network I/O module) on behalf of untrusted libraries.
This module turns that boundary into real multi-tenancy: a
:class:`Tenant` is a principal owning tasks; a :class:`TenantBudget`
caps what the trusted layers will allocate or transmit on its behalf —
shared-region bytes (an AN1 BQI ring *is* a region), a channel count, a
token-bucket transmit rate, and a port grant set.

Enforcement lives in the trusted layers, never in library code:

* the network I/O module checks budgets at channel creation against
  what its tables attribute to the tenant (the only account), verifies
  templates and flow keys against the grant set at registration time,
  rate-limits ``send`` (refusing — not queueing — over-budget packets),
  and refuses delivery into a channel whose owning task no longer
  belongs to the tenant the flow was installed for;
* the registry server refuses ``listen``/``bind``/``connect`` on ports
  outside the caller's grant; a port its allocator minted passes the
  module's vetting only while the lease it was minted for lives;
* the flow table's wildcard tier records an owner so an out-of-grant
  wildcard listen is rejected instead of shadowing another tenant's
  exact-match flows.

Every refusal is counted once, by reason, in the tenant's counters,
which is what the isolation invariants and ``netstat``'s tenant table
read.
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
            self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
            self.stamp = now
        needed = min(float(nbytes), self.burst)
        if self.tokens >= needed:
            self.tokens -= float(nbytes)
            return 0.0
        return (needed - self.tokens) / self.rate


@dataclass(frozen=True)
class PortGrant:
    """The set of ports a tenant may explicitly bind, listen or connect
    from.

    A tuple of inclusive ``(lo, hi)`` ranges; the empty tuple grants
    nothing.  A port the registry's own allocator minted is not in the
    grant: it is the tenant's only while the lease it was minted for
    lives (:meth:`Tenant.minted`).
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

    #: Shared packet-buffer region quota (bytes of wired memory): the
    #: channels' regions and the AN1 rings not yet adopted by one.
    region_bytes: int = 1 << 20
    #: Every channel carries exactly one send template, so this caps
    #: templates too.
    max_channels: int = 32
    #: Token-bucket transmit limiter; rate in bytes/second (<= 0 means
    #: unlimited), burst in bytes.
    tx_rate: float = 0.0
    tx_burst: int = 64 * 1024
    ports: PortGrant = field(default_factory=PortGrant.any)


class Tenant:
    """One principal: its budget, its tasks and its counters.

    What it holds is not kept here: :meth:`usage` and
    :meth:`held_ports` read the tables of the network I/O modules it
    shares, and :meth:`minted` the live leases of each module's host
    registry (``modules``, and ``registries`` keyed by module, which
    :func:`attach_tenancy` fills)."""

    def __init__(
        self, tenant_id: str, budget: Optional[TenantBudget] = None, modules=(), registries=None
    ) -> None:
        self.tenant_id = tenant_id
        self.budget = budget or TenantBudget()
        self.bucket = TokenBucket(self.budget.tx_rate, self.budget.tx_burst)
        self.counters = Counters()
        self.modules = modules
        self.registries = {} if registries is None else registries
        self.tasks: list = []

    def __repr__(self) -> str:
        return f"<Tenant {self.tenant_id} holds={self.usage()}>"

    def usage(self) -> tuple[int, int]:
        """Channels and region bytes the modules' tables attribute to this
        tenant (:meth:`~repro.netio.module.NetworkIoModule.holdings`)."""
        rows = [module.holdings(self.tenant_id) for module in self.modules]
        return tuple(sum(column) for column in zip((0, 0), *rows))

    def minted(self, port: int, module) -> bool:
        """Whether a live lease the registry on ``module``'s host minted
        ``port`` for (the caller named none) holds it for one of this
        tenant's tasks: a minted port is granted on its own host only."""
        registry = self.registries.get(module)
        return registry is not None and any(
            lease.minted and lease.local_port == port and lease.owner in self.tasks
            for lease in registry.core.leases.values()
        )

    def held_ports(self) -> list[tuple[int, bool]]:
        """``(port, minted)`` for each channel, then each listener flow,
        the modules' tables attribute to this tenant: the evidence the
        grants invariant judges, read while the leases live."""
        mine = self.tenant_id
        return [
            (port, self.minted(port, module))
            for module in self.modules
            for port in [c.flow_key.local_port for c in module.channels if c.tenant_id == mine]
            + module.flow_table.listener_ports(mine)
        ]

    # ------------------------------------------------------------------
    # Admission (called by the trusted layers; raise to refuse)
    # ------------------------------------------------------------------

    def _refuse(self, exc_type, counter: str, detail: str):
        self.counters[counter] += 1
        self.counters["rejections"] += 1
        raise exc_type(f"tenant {self.tenant_id}: {detail}")

    def check_port(self, port: int) -> None:
        """An explicit bind/listen/connect port must be inside the grant:
        a port the caller names was never minted for it."""
        if not self.budget.ports.allows(port):
            self._refuse(
                GrantViolation,
                "out_of_grant_binds",
                f"port {port} outside grant {self.budget.ports}",
            )

    def check_template(self, template, module) -> None:
        """Registration-time template vetting on ``module``.

        A send template must pin the IP source address (offset 12) and
        the transport source port (first two bytes at the IP payload),
        and the pinned port must be inside the grant, or minted for the
        tenant on ``module``'s host — otherwise the capability would let
        the holder impersonate out-of-grant endpoints.
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
        if not self._granted(local_port, module):
            self._refuse(
                GrantViolation,
                "forged_templates",
                f"template {template.name!r} pins out-of-grant port "
                f"{local_port}",
            )

    def check_flow_key(self, flow_key, module) -> None:
        if not self._granted(flow_key.local_port, module):
            self._refuse(
                GrantViolation,
                "out_of_grant_flows",
                f"flow {flow_key} outside grant {self.budget.ports}",
            )

    def _granted(self, port: int, module) -> bool:
        return self.budget.ports.allows(port) or self.minted(port, module)

    def check_room(self, region_bytes: int, channels: int) -> None:
        """Refuse ``channels`` more channels and ``region_bytes`` more of
        region past the budget: a ring installed before its handshake
        asks for no channel, the channel that adopts it for no bytes."""
        held_channels, held_bytes = self.usage()
        if held_channels + channels > self.budget.max_channels:
            self._refuse(
                QuotaExceeded,
                "quota_channels",
                f"channel cap {self.budget.max_channels} reached",
            )
        if held_bytes + region_bytes > self.budget.region_bytes:
            self._refuse(
                QuotaExceeded,
                "quota_region",
                f"region quota {self.budget.region_bytes}B exhausted "
                f"({held_bytes}B used, {region_bytes}B asked)",
            )

    def note_rx(self, nbytes: int) -> None:
        self.counters["rx_bytes"] += nbytes
        self.counters["rx_frames"] += 1

    def note_peaks(self) -> None:
        """Raise the peak counters to the current usage (the module
        calls this once a channel or a ring exists)."""
        counters = self.counters
        for name, held in zip(
            ("peak_channels", "peak_region_bytes"), self.usage()
        ):
            if held > counters[name]:
                counters[name] = held

    # ------------------------------------------------------------------
    # Teardown: one sweep releases everything a crashed tenant held
    # ------------------------------------------------------------------

    def teardown(self) -> None:
        """Terminate the tenant's tasks, then destroy each channel the
        modules' tables still attribute to it, for its current owner.

        The tasks' exit hooks in the registry already hand back their
        channels, ports and handshake rings; what is held afterwards is
        a leak, judged by :func:`repro.netstat.held`.
        """
        for task in list(self.tasks):
            if task.alive:
                task.terminate()
        for module in self.modules:
            for channel in [c for c in module.channels if c.tenant_id == self.tenant_id]:
                module.destroy_channel(channel.owner, channel)


class TenantManager:
    """The per-testbed tenant directory the trusted layers consult.

    ``enforcing`` is the campaign's sabotage knob: when False every
    admission check silently passes (attribution and the tenants'
    counters still record it), modelling a stack whose enforcement was compiled
    out — the isolation invariants must catch the consequences.
    """

    def __init__(self, enforcing: bool = True) -> None:
        self.enforcing = enforcing
        self.tenants: dict[str, Tenant] = {}
        self._task_tenant: dict = {}  # Task -> Tenant
        #: The network I/O modules this manager is wired into: every
        #: tenant's usage is summed over their tables.
        self.modules: list = []
        #: Each module's host registry, whose live leases say which of
        #: the host's ports were minted.
        self.registries: dict = {}

    def create_tenant(
        self, tenant_id: str, budget: Optional[TenantBudget] = None
    ) -> Tenant:
        if tenant_id in self.tenants:
            raise ValueError(f"tenant {tenant_id!r} already exists")
        tenant = Tenant(tenant_id, budget, self.modules, self.registries)
        self.tenants[tenant_id] = tenant
        return tenant

    def bind_task(self, task, tenant: Tenant) -> None:
        """Attribute ``task`` (and everything it creates) to ``tenant``."""
        self._task_tenant[task] = tenant
        tenant.tasks.append(task)

    def tenant_of(self, task) -> Optional[Tenant]:
        return self._task_tenant.get(task)

    def __iter__(self):
        return iter(self.tenants.values())

    # ------------------------------------------------------------------
    # Enforcement (a no-op when not enforcing, but counted)
    # ------------------------------------------------------------------

    def admit(self, task, check) -> bool:
        """Run one admission ``check(tenant)`` for ``task``'s tenant on
        behalf of a trusted layer: whether it passed (a task no tenant
        owns always does).  The tenant counts a refusal by reason
        regardless; it only *raises* — and so reaches the application —
        when this manager enforces."""
        tenant = self._task_tenant.get(task)
        try:
            if tenant is not None:
                check(tenant)
        except TenantViolation:
            if self.enforcing:
                raise
            return False
        return True


def attach_tenancy(bed, enforcing: bool = True) -> TenantManager:
    """Wire a :class:`TenantManager` into every trusted layer of a
    testbed (both :class:`~repro.testbed.Testbed` and
    :class:`~repro.testbed.FabricTestbed` shapes)."""
    manager = TenantManager(enforcing=enforcing)
    for host in bed.hosts:
        host.netio.tenants = manager
        manager.modules.append(host.netio)
    for registry in getattr(bed, "registries", []):
        registry.tenants = manager
        manager.registries[registry.host.netio] = registry
    bed.tenants = manager
    return manager
