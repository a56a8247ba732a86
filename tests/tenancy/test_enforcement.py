"""Integration tests: the trusted layers (network I/O module, flow
table, registry) enforce tenant budgets, refuse rather than queue, and
release everything through one path."""

import pytest

from repro.costs import FREE
from repro.mach import Kernel
from repro.net import An1Link, An1Nic, EthernetLink, PmaddNic, str_to_mac
from repro.netio import NetworkIoModule, tcp_send_template
from repro.netio.demux import DemuxError, FlowKey, FlowTable
from repro.net.headers import PROTO_TCP, PROTO_UDP
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


class World:
    """One host with a netio module and a tenant directory."""

    def __init__(self, an1: bool = False):
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
        self.tenant = self.manager.create_tenant(
            "t", TenantBudget(region_bytes=128 * 1024, ports=GRANT)
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
    world = World()
    with pytest.raises(QuotaExceeded):
        world.create_channel(region_size=256 * 1024)
    assert len(world.io.channels) == 0
    assert world.io.region_pool_used == 0
    assert world.tenant.region_bytes_used == 0
    assert world.tenant.counters["rejections"] == 1
    assert world.manager.audit["admission_refused"] == 1


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


def test_destroy_channel_releases_everything():
    world = World()
    world.io.region_pool_bytes = 128 * 1024
    channel = world.create_channel()
    assert world.tenant.region_bytes_used > 0
    assert world.io.region_pool_used > 0
    world.io.destroy_channel(world.app, channel)
    world.io.destroy_channel(world.app, channel)  # Idempotent.
    assert world.tenant.region_bytes_used == 0
    assert world.io.region_pool_used == 0
    assert world.tenant.leaks() == {}


def test_an1_channel_charges_and_releases_bqi():
    world = World(an1=True)
    channel = world.create_channel()
    assert channel.ring is not None
    assert world.tenant.bqi_buffers_used == channel.ring.capacity
    world.io.destroy_channel(world.app, channel)
    assert world.tenant.bqi_buffers_used == 0
    assert channel.ring.bqi not in world.nic.bqi_table
    assert world.tenant.leaks() == {}


def test_teardown_sweeps_channels_through_module():
    world = World()
    world.create_channel(port=4000)
    world.create_channel(port=4001)
    assert world.tenant.channel_count == 2
    assert world.tenant.teardown() == {}
    assert len(world.io.channels) == 0
    assert world.io.region_pool_used == 0


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


def tenanted_bed(enforcing=True):
    bed = Testbed(network="ethernet", organization="userlib")
    manager = attach_tenancy(bed, enforcing=enforcing)
    alpha = manager.create_tenant(
        "alpha", TenantBudget(ports=PortGrant.of((4000, 4999)))
    )
    manager.bind_task(bed.app_a, alpha)
    manager.bind_task(bed.app_b, alpha)
    return bed, manager, alpha


def test_listener_cleanup_on_task_exit():
    bed, manager, alpha = tenanted_bed()

    def scenario():
        yield from bed.service_b.listen(4000)

    bed.spawn(scenario())
    bed.run(until=0.5)
    registry = bed.registry_b
    assert registry._listener(4000) is not None
    bed.app_b.terminate()
    bed.run(until=1.0)
    assert registry._listener(4000) is None
    assert registry.stats["inherited"] >= 1
    # The port is reusable afterwards (released, not lingering).
    assert not registry.ports.is_bound(4000, bed.sim.now)


def test_failed_connect_releases_port_and_leaves_no_leaks():
    bed, manager, alpha = tenanted_bed()

    def scenario():
        try:
            yield from bed.service_a.connect(IP_B, 4321)  # Nobody listens.
        except ConnectionError:
            pass

    bed.spawn(scenario())
    bed.run(until=30.0)  # Past SYN retry exhaustion.
    assert alpha.teardown() == {}
    assert bed.host_a.netio.region_pool_used == 0


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
    assert alpha.bound_ports == [4500]
    assert alpha.teardown() == {}
    assert bed.host_a.netio.region_pool_used == 0
