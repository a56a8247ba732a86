"""Integration tests: the trusted layers (network I/O module, flow
table, registry) enforce tenant budgets, refuse rather than queue, and
release everything through one path."""

from collections import deque

import pytest

from repro.costs import FREE, CostModel
from repro.mach import Kernel
from repro.net import An1Link, An1Nic, EthernetLink, PmaddNic, str_to_mac
from repro.netio import NetworkIoModule, tcp_send_template
from repro.netio.demux import DemuxError, FlowKey, FlowTable
from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.netstat import held
from repro.org.udplib import LibraryUdpService
from repro.sim import Simulator
from repro.tenancy import (
    PortGrant,
    QuotaExceeded,
    TenantBudget,
    TenantManager,
    attach_tenancy,
)
from repro.testbed import IP_B, Testbed

IP_1 = 0x0A000001
IP_2 = 0x0A000002
MAC_A = str_to_mac("02:00:00:00:00:01")
MAC_B = str_to_mac("02:00:00:00:00:02")

GRANT = PortGrant.of((4000, 4999))
REGION = NetworkIoModule.DEFAULT_REGION_SIZE


class World:
    """One host with a netio module and a tenant directory; ``budget``
    overrides the tenant's budget fields."""

    def __init__(self, an1: bool = False, **budget):
        self.sim = Simulator()
        self.kernel = Kernel(self.sim, FREE, name="A")
        if an1:
            self.link = An1Link(self.sim)
            self.nic = An1Nic(self.kernel, self.link, station=1, name="an1A")
        else:
            self.link = EthernetLink(self.sim)
            self.nic = PmaddNic(self.kernel, self.link, MAC_A, name="ethA")
        self.io = NetworkIoModule(self.kernel, self.nic)
        self.registry = self.kernel.create_task("registry", privileged=True)
        self.app = self.kernel.create_task("app")
        self.manager = TenantManager()
        self.io.tenants = self.manager
        self.manager.modules.append(self.io)
        self.tenant = self.manager.create_tenant(
            "t", TenantBudget(**{"region_bytes": 128 * 1024, "ports": GRANT, **budget})
        )
        self.manager.bind_task(self.app, self.tenant)

    def run(self, generator):
        return self.sim.run(until=self.sim.process(generator))

    def create_channel(self, port=4000, **kwargs):
        return self.run(
            self.io.create_channel(
                self.registry,
                self.app,
                tcp_send_template(IP_1, port, IP_2, 80),
                local_ip=IP_1,
                local_port=port,
                remote_ip=IP_2,
                remote_port=80,
                link_dst=MAC_B,
                **kwargs,
            )
        )


# ----------------------------------------------------------------------
# Refusals allocate nothing
# ----------------------------------------------------------------------


def test_quota_refusal_allocates_nothing():
    world = World(region_bytes=REGION)  # One channel's region.
    world.io.region_pool_bytes = 4 * REGION
    world.create_channel(port=4000)
    with pytest.raises(QuotaExceeded):
        world.create_channel(port=4001)
    assert len(world.io.channels) == 1
    assert world.io.holdings()[1] == REGION
    assert world.tenant.usage() == (1, REGION)
    assert world.tenant.counters["quota_region"] == 1
    assert world.tenant.counters["rejections"] == 1


def test_pool_exhaustion_refuses_even_unenforced():
    # The buffer pool is physical scarcity, not policy: it refuses with
    # tenancy enforcement off too.
    world = World()
    world.manager.enforcing = False
    world.io.region_pool_bytes = 64 * 1024
    world.create_channel(port=4000)
    with pytest.raises(QuotaExceeded):
        world.create_channel(port=4001)
    assert world.io.stats["region_pool_refused"] == 1


def test_pool_counts_a_ring_from_allocation_even_unenforced():
    # An AN1 ring is wired from allocate_ring on: the pool refuses one
    # that would overfill it before any handshake, enforcement or not.
    world = World(an1=True)
    world.manager.enforcing = False
    world.io.region_pool_bytes = REGION
    ring = world.io.allocate_ring(world.registry, owner=world.app)
    assert world.io.holdings()[1] == REGION
    with pytest.raises(QuotaExceeded):
        world.io.allocate_ring(world.registry, owner=world.app)
    assert world.io.stats["region_pool_refused"] == 1
    assert set(world.nic.bqi_table) == {0, ring.bqi}  # The refusal installed nothing.
    world.create_channel(ring=ring)  # Adopting it asks the pool for no more.
    assert world.io.holdings() == (1, REGION)


#: Each limit two overlapping creates can race past while they wire:
#: the tenant's budget fields, the host's wired pool, and the counter
#: of the refusal.
RACES = {
    "pool": ({}, REGION, lambda world: world.io.stats["region_pool_refused"]),
    "quota": ({"region_bytes": REGION}, None, lambda world: world.tenant.counters["quota_region"]),
    "cap": ({"max_channels": 1}, None, lambda world: world.tenant.counters["quota_channels"]),
}


def overlapping_creates(world):
    """Two creates for the tenant, admitted together: the port each
    built, or "refused"."""
    world.kernel.costs = CostModel()  # Wiring takes time: the creates overlap.
    outcomes = []

    def create(port):
        try:
            yield from world.io.create_channel(
                world.registry, world.app, tcp_send_template(IP_1, port, IP_2, 80),
                local_ip=IP_1, local_port=port, remote_ip=IP_2, remote_port=80,
            )
            outcomes.append(port)
        except QuotaExceeded:
            outcomes.append("refused")

    world.sim.process(create(4000))
    world.sim.process(create(4001))
    world.sim.run()
    return outcomes


@pytest.mark.parametrize("enforcing", [True, False], ids=["enforced", "unenforced"])
@pytest.mark.parametrize("limit", RACES)
def test_pool_refuses_a_create_that_lost_the_race_while_wiring(limit, enforcing):
    """The room is asked again where each region enters the tables, so
    the create that finishes wiring second cannot pass the pool, the
    region quota or the channel cap.  Unenforced, the tenant's limits
    let it through, counted once; the pool refuses either way."""
    budget, pool, refusals = RACES[limit]
    world = World(**budget)
    world.manager.enforcing = enforcing
    world.io.region_pool_bytes = pool
    outcomes = overlapping_creates(world)
    assert refusals(world) == 1
    if enforcing or limit == "pool":
        assert outcomes == [4000, "refused"]
        assert world.io.holdings() == (1, REGION)
    else:
        assert outcomes == [4000, 4001]
        assert world.io.holdings() == (2, 2 * REGION)


@pytest.mark.parametrize("limit", ["quota", "cap"])
def test_an_unenforced_refusal_is_counted_once(limit):
    """A create over the tenant's limit is counted where it is admitted,
    and not again as its region enters the tables."""
    budget, _, refusals = RACES[limit]
    world = World(**budget)
    world.manager.enforcing = False
    world.create_channel(port=4000)
    world.create_channel(port=4001)
    assert world.io.holdings() == (2, 2 * REGION)
    assert refusals(world) == 1
    assert world.tenant.counters["rejections"] == 1


def test_destroy_channel_releases_everything():
    world = World()
    world.io.region_pool_bytes = 128 * 1024
    channel = world.create_channel()
    assert world.tenant.usage() == (1, 64 * 1024)
    assert world.io.holdings()[1] == 64 * 1024
    world.io.destroy_channel(world.app, channel)
    world.io.destroy_channel(world.app, channel)  # Idempotent.
    assert world.tenant.usage() == (0, 0)
    assert world.io.holdings()[1] == 0


def test_an1_channel_charges_and_releases_bqi():
    world = World(an1=True)
    channel = world.create_channel()
    region = channel.region
    assert world.nic.bqi_table[region.bqi] is region
    # The ring is the region: its bytes are counted once.
    assert world.tenant.usage() == (1, region.size) == (1, 64 * 1024)
    world.io.destroy_channel(world.app, channel)
    assert world.tenant.usage() == (0, 0)
    assert region.bqi not in world.nic.bqi_table


def test_teardown_sweeps_channels_through_module():
    world = World()
    world.create_channel(port=4000)
    world.create_channel(port=4001)
    assert world.tenant.usage()[0] == 2
    world.tenant.teardown()
    assert world.tenant.usage() == (0, 0)
    assert len(world.io.channels) == 0
    assert world.io.holdings()[1] == 0


# ----------------------------------------------------------------------
# Wildcard ownership (satellite: no cross-tenant shadowing)
# ----------------------------------------------------------------------


def test_wildcard_install_rejected_when_shadowing_other_tenant():
    table = FlowTable()
    exact = FlowKey(PROTO_TCP, IP_1, 4000, IP_2, 80)
    table.install(exact, "chanA", owner="alpha")
    wild = FlowKey(PROTO_TCP, IP_1, 4000)
    with pytest.raises(DemuxError):
        table.install(wild, "chanB", owner="beta")
    assert table.stats["wildcard_rejected"] == 1
    # The same tenant (or an unowned kernel entry) may still install.
    table.install(wild, "chanA2", owner="alpha")
    assert table._wildcard[PROTO_TCP, 4000].owner == "alpha"


def test_wildcard_allowed_after_exact_flows_removed():
    table = FlowTable()
    exact = FlowKey(PROTO_UDP, IP_1, 4000, IP_2, 80)
    table.install(exact, "chanA", owner="alpha")
    table.remove(exact)
    table.install(FlowKey(PROTO_UDP, IP_1, 4000), "chanB", owner="beta")
    assert table._wildcard[PROTO_UDP, 4000].owner == "beta"


# ----------------------------------------------------------------------
# Registry paths (testbed level)
# ----------------------------------------------------------------------


def leaks(bed, tenant_id):
    """The tenant's non-empty :func:`repro.netstat.held` rows."""
    return {(subject, what): n for subject, what, n in held(bed, tenant_id) if n}


def tenanted_bed(enforcing=True):
    bed = Testbed(network="ethernet", organization="userlib")
    manager = attach_tenancy(bed, enforcing=enforcing)
    alpha = manager.create_tenant(
        "alpha", TenantBudget(ports=PortGrant.of((4000, 4999)))
    )
    manager.bind_task(bed.app_a, alpha)
    manager.bind_task(bed.app_b, alpha)
    return bed, manager, alpha


def tenancy_lengths(writes):
    """The length of each container in the tenant manager and in each
    tenant after a tenanted transfer of ``writes`` one-segment writes."""
    bed, manager, alpha = tenanted_bed()
    size = 512

    def server():
        listener = yield from bed.service_b.listen(4000)
        conn = yield from listener.accept()
        yield from conn.recv_exactly(writes * size)

    def client():
        conn = yield from bed.service_a.connect(IP_B, 4000)
        for _ in range(writes):
            yield from conn.send(bytes(size))

    bed.app_b.spawn(server())
    bed.app_a.spawn(client())
    bed.run(until=5.0)
    assert alpha.counters["rx_bytes"] >= writes * size
    return {
        f"{name}.{attr}": len(value)
        for name, holder in [("manager", manager), *((t.tenant_id, t) for t in manager)]
        for attr, value in vars(holder).items()
        if isinstance(value, (list, tuple, dict, set, deque))
    }


def test_tenancy_keeps_nothing_per_frame():
    """Twice the frames leave every tenancy container as long: the
    evidence is counters, not a log."""
    assert tenancy_lengths(20) == tenancy_lengths(40)


def test_listener_cleanup_on_task_exit():
    bed, manager, alpha = tenanted_bed()

    def scenario():
        yield from bed.service_b.listen(4000)

    bed.spawn(scenario())
    bed.run(until=0.5)
    registry = bed.registry_b
    assert registry.core.listener(4000) is not None
    bed.app_b.terminate()
    bed.run(until=1.0)
    assert registry.core.listener(4000) is None
    assert registry.stats["inherited"] >= 1
    # The port is reusable afterwards (released, not lingering).
    assert 4000 not in registry.core.held(bed.sim.now)


def test_failed_connect_releases_port_and_leaves_no_leaks():
    bed, manager, alpha = tenanted_bed()

    def scenario():
        try:
            yield from bed.service_a.connect(IP_B, 4321)  # Nobody listens.
        except ConnectionError:
            pass

    bed.spawn(scenario())
    bed.run(until=30.0)  # Past SYN retry exhaustion.
    alpha.teardown()
    assert leaks(bed, "alpha") == {}
    assert bed.host_a.netio.holdings()[1] == 0


def test_udp_bind_respects_grant_and_teardown_is_clean():
    bed, manager, alpha = tenanted_bed()
    service = LibraryUdpService(bed.host_a, bed.app_a, bed.registry_a)
    state = {}

    def scenario():
        state["ep"] = yield from service.bind(4500)
        with pytest.raises(OSError):
            yield from service.bind(80)  # Out of grant.

    bed.spawn(scenario())
    bed.run(until=1.0)
    assert state["ep"].channel in bed.host_a.netio.channels
    assert alpha.held_ports() == [(4500, False)]
    alpha.teardown()
    assert leaks(bed, "alpha") == {}
    assert bed.host_a.netio.holdings()[1] == 0


# ----------------------------------------------------------------------
# What a tenant holds is read off the live tables
# ----------------------------------------------------------------------


def test_a_minted_port_is_not_granted_once_its_lease_is_gone():
    """A port the registry minted for a connect passes vetting only while
    that connection's lease lives: after close and linger, an explicit
    listen on it is an out-of-grant listen like any other."""
    bed, manager, alpha = tenanted_bed()
    state = {}

    def server():
        listener = yield from bed.service_b.listen(4000)
        conn = yield from listener.accept()
        yield from conn.close()

    def client():
        conn = yield from bed.service_a.connect(IP_B, 4000)
        state["minted"] = conn.local_port
        yield from conn.close()
        yield bed.sim.timeout(200.0)  # Past TIME-WAIT and the port's linger.
        try:
            yield from bed.service_a.listen(conn.local_port)
            state["listened"] = True
        except OSError as exc:
            state["refused"] = str(exc)

    bed.spawn(server())
    bed.spawn(client())
    bed.run(until=300.0)
    assert not GRANT.allows(state["minted"])
    assert f"port {state['minted']} outside grant" in state["refused"]
    assert alpha.counters["out_of_grant_binds"] == 1
    assert alpha.counters["rejections"] == 1


def test_an1_handshake_ring_is_the_channel_region_counted_once():
    """On AN1 the handshake's ring *is* the channel's region: a tenant
    whose quota is one region gets its ring, the channel adopts it with
    no second charge, and a second ring is refused against the same
    bytes."""
    bed = Testbed(network="an1", organization="userlib")
    manager = attach_tenancy(bed)
    alpha = manager.create_tenant("alpha", TenantBudget(region_bytes=REGION, ports=GRANT))
    manager.bind_task(bed.app_a, alpha)  # The listening side is untenanted.
    state = {}

    def server():
        listener = yield from bed.service_b.listen(4000)
        state["server"] = yield from listener.accept()

    def client():
        state["client"] = yield from bed.service_a.connect(IP_B, 4000)

    bed.spawn(server())
    bed.spawn(client())
    bed.run(until=1.0)
    channel = state["client"].channel
    assert bed.host_a.nic.bqi_table[channel.region.bqi] is channel.region
    assert alpha.counters["rejections"] == 0
    with pytest.raises(QuotaExceeded):
        bed.host_a.netio.allocate_ring(bed.registry_a.task, owner=bed.app_a)
    assert alpha.counters["quota_region"] == 1
    assert alpha.counters["rejections"] == 1
    assert alpha.usage() == (1, REGION)


def test_connect_close_cycles_leave_no_port_record():
    """Twenty connect/close cycles: the tenant keeps no port it was
    minted, and once every lease is gone it holds nothing."""
    bed = Testbed(network="ethernet", organization="userlib")
    manager = attach_tenancy(bed)
    # Room for every cycle's two channels at once: each lingers in TIME-WAIT.
    budget = TenantBudget(region_bytes=40 * REGION, max_channels=40, ports=GRANT)
    alpha = manager.create_tenant("alpha", budget)
    manager.bind_task(bed.app_a, alpha)
    manager.bind_task(bed.app_b, alpha)
    minted = set()

    def server():
        listener = yield from bed.service_b.listen(4000)
        while True:
            conn = yield from listener.accept()
            yield from conn.close()

    def client():
        for _ in range(20):
            conn = yield from bed.service_a.connect(IP_B, 4000)
            minted.add(conn.local_port)
            yield from conn.close()
            yield bed.sim.timeout(0.05)

    bed.spawn(server())
    bed.spawn(client())
    bed.run(until=300.0)
    assert len(minted) == 20
    for value in vars(alpha).values():
        if isinstance(value, (set, frozenset, list, tuple, dict)):
            assert not minted & set(value)
    bed.app_b.terminate()  # Its listener's channels go with it.
    bed.run(until=301.0)
    assert alpha.usage() == (0, 0)
