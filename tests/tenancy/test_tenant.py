"""Unit tests for the tenancy primitives: token bucket, port grants,
budgets, usage as a sum over the module's tables, and the teardown/leak
sweep."""

from types import SimpleNamespace

import pytest

from repro.net.headers import PROTO_UDP
from repro.net.nic.an1ctrl import BqiTableFull
from repro.netio.demux import DemuxError, FlowKey
from repro.registry.core import RegistryCore
from repro.org.udplib import LibraryUdpService
from repro.tenancy import (
    GrantViolation,
    PortGrant,
    QuotaExceeded,
    Tenant,
    TenantBudget,
    TokenBucket,
)
from repro.netio.template import udp_send_template, tcp_send_template

from .test_enforcement import REGION, World, leaks, tenanted_bed

IP = 0x0A000001


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------


def test_bucket_admits_within_burst():
    bucket = TokenBucket(rate=1000.0, burst=4000)
    assert bucket.try_consume(4000, now=0.0) == 0.0


def test_bucket_refuses_when_drained_and_hints_retry():
    bucket = TokenBucket(rate=1000.0, burst=4000)
    assert bucket.try_consume(4000, now=0.0) == 0.0
    wait = bucket.try_consume(1000, now=0.0)
    assert wait == pytest.approx(1.0)  # 1000 tokens at 1000/s.
    # After waiting the hinted time the send is admitted.
    assert bucket.try_consume(1000, now=wait) == 0.0


def test_bucket_refills_capped_at_burst():
    bucket = TokenBucket(rate=1000.0, burst=2000)
    assert bucket.try_consume(2000, now=0.0) == 0.0
    # A long idle period refills to the burst cap, no further.
    assert bucket.try_consume(2000, now=100.0) == 0.0
    assert bucket.try_consume(1, now=100.0) > 0.0


def test_bucket_allows_oversize_packet_via_deficit():
    # A single packet larger than the burst must still be sendable
    # (otherwise the tenant could never transmit it at any rate): it is
    # admitted when the bucket is full and drives the balance negative.
    bucket = TokenBucket(rate=100.0, burst=1000)
    assert bucket.try_consume(1500, now=0.0) == 0.0
    # The deficit must be paid down before the next admission.
    wait = bucket.try_consume(100, now=0.0)
    assert wait > 5.0  # 500 deficit + 100 needed at 100/s.


def test_bucket_unlimited_when_rate_nonpositive():
    bucket = TokenBucket(rate=0.0, burst=0)
    for _ in range(10):
        assert bucket.try_consume(1 << 20, now=0.0) == 0.0


# ----------------------------------------------------------------------
# PortGrant
# ----------------------------------------------------------------------


def test_port_grant_of_ports_and_ranges():
    grant = PortGrant.of(80, (5000, 5999))
    assert grant.allows(80)
    assert grant.allows(5000) and grant.allows(5999)
    assert not grant.allows(81)
    assert not grant.allows(6000)


def test_port_grant_any_allows_everything():
    assert PortGrant.any().allows(1)
    assert PortGrant.any().allows(65535)


# ----------------------------------------------------------------------
# Budgets and attribution
# ----------------------------------------------------------------------


def make_tenant(**kwargs):
    defaults = dict(
        region_bytes=128 * 1024,
        max_channels=2,
        ports=PortGrant.of((4000, 4999)),
    )
    defaults.update(kwargs)
    return Tenant("t", TenantBudget(**defaults))


def test_check_room_enforces_caps():
    tenant = make_tenant()
    tenant.check_room(64 * 1024, 1)
    with pytest.raises(QuotaExceeded):
        tenant.check_room(256 * 1024, 1)  # Region quota.
    with pytest.raises(QuotaExceeded):
        tenant.check_room(256 * 1024, 0)  # A ring: the same quota.
    with pytest.raises(QuotaExceeded):
        tenant.check_room(0, 3)  # Channel cap.
    tenant.check_room(128 * 1024, 2)  # Both caps reached, not passed.
    assert tenant.counters["quota_region"] == 2
    assert tenant.counters["quota_channels"] == 1
    assert tenant.counters["rejections"] == 3


def test_channel_cap_counts_live_channels():
    world = World(max_channels=1)
    first = world.create_channel(port=4000)
    with pytest.raises(QuotaExceeded):
        world.create_channel(port=4001)
    assert world.tenant.counters["quota_channels"] == 1
    world.io.destroy_channel(world.app, first)
    world.create_channel(port=4001)  # Freed capacity is reusable.


def test_region_attribution_and_peaks():
    world = World(region_bytes=3 * REGION)
    a = world.create_channel(port=4000)
    world.create_channel(port=4001)
    world.create_channel(port=4002)
    assert world.tenant.usage()[1] == 3 * REGION
    world.io.destroy_channel(world.app, a)
    world.io.destroy_channel(world.app, a)  # Idempotent.
    assert world.tenant.usage()[1] == 2 * REGION
    assert world.tenant.counters["peak_region_bytes"] == 3 * REGION


@pytest.mark.parametrize("an1", [False, True], ids=["ethernet", "an1"])
def test_usage_is_the_module_tables_sum(an1):
    """After every step that makes, refuses, unwinds or gives back a
    channel or a ring, the tenant's usage is what the module's tables
    attribute to it — each distinct region once, a ring from its
    allocation on — and the peaks are the highest usage seen at the end
    of a create or an allocate."""
    world = World(an1=an1)
    world.io.region_pool_bytes = 1 << 20

    def table_sum():
        channels = [c for c in world.io.channels if c.tenant_id == "t"]
        rings = [
            r for r in getattr(world.nic, "bqi_table", {}).values()
            if r.tenant_id == "t" and r.owner is None  # Not adopted yet.
        ]
        return len(channels), sum(r.size for r in [c.region for c in channels] + rings)

    def step(usage, peaks):
        assert world.tenant.usage() == table_sum() == usage
        # The wired pool reads the same tables: the pool and the quota agree.
        assert world.io.holdings()[1] == world.tenant.usage()[1] == usage[1]
        counters = world.tenant.counters
        assert (counters["peak_channels"], counters["peak_region_bytes"]) == peaks

    a = world.create_channel(port=4000)
    step((1, REGION), (1, REGION))
    world.create_channel(port=4001)
    step((2, 2 * REGION), (2, 2 * REGION))
    before = world.tenant.usage()
    with pytest.raises(QuotaExceeded):  # Refused: two regions are the quota.
        world.create_channel(port=4002)
    step(before, (2, 2 * REGION))
    world.io.destroy_channel(world.app, a)
    step((1, REGION), (2, 2 * REGION))

    ring = world.io.allocate_ring(world.registry, owner=world.app)
    assert (ring is not None) == an1
    if an1:
        step((1, 2 * REGION), (2, 2 * REGION))
        with pytest.raises(QuotaExceeded):  # The ring's bytes fill the quota...
            world.io.allocate_ring(world.registry, owner=world.app)
        adopted = world.create_channel(port=4002, ring=ring)  # ...and adopting asks no more.
        step((2, 2 * REGION), (2, 2 * REGION))
        world.io.destroy_channel(world.app, adopted)  # Its ring goes with it.
        step((1, REGION), (2, 2 * REGION))
        world.io.release_ring(world.registry, world.io.allocate_ring(world.registry, owner=world.app))
        step((1, REGION), (2, 2 * REGION))

    before = world.tenant.usage()
    with pytest.raises(DemuxError):  # Unwound: port 4001's flow is taken.
        world.create_channel(port=4001)
    step(before, (2, 2 * REGION))
    if an1:

        def full(region):
            raise BqiTableFull("all BQIs are live")

        world.nic.allocate_bqi = full
        with pytest.raises(QuotaExceeded):  # Unwound: no ring to spare.
            world.create_channel(port=4002)
        step(before, (2, 2 * REGION))


def test_check_port_and_ephemeral_grant():
    tenant = make_tenant()
    tenant.check_port(4000)
    with pytest.raises(GrantViolation):
        tenant.check_port(80)
    assert tenant.counters["rejections"] == 1
    # A port the registry's allocator minted passes flow vetting while
    # its lease lives, and is never a port the tenant may name.
    core = RegistryCore()
    here, elsewhere = "module A", "module B"  # Two hosts' modules.
    tenant.registries = {here: SimpleNamespace(core=core)}
    app = SimpleNamespace(name="app")
    tenant.tasks.append(app)
    lease = core.open(app, "worker", 0.0, 0)
    flow = FlowKey(PROTO_UDP, IP, lease.local_port)
    assert tenant.minted(lease.local_port, here)
    tenant.check_flow_key(flow, here)
    with pytest.raises(GrantViolation):
        tenant.check_port(lease.local_port)
    # Only on the host whose registry minted it.
    assert not tenant.minted(lease.local_port, elsewhere)
    with pytest.raises(GrantViolation):
        tenant.check_flow_key(flow, elsewhere)
    core.release(lease, 0.0)
    with pytest.raises(GrantViolation):
        tenant.check_flow_key(flow, here)
    assert tenant.counters["out_of_grant_flows"] == 2
    # Nor does a port minted for another tenant's task.
    other = core.open(SimpleNamespace(name="other"), "worker", 0.0, 0)
    assert not tenant.minted(other.local_port, here)


def test_check_template_accepts_conforming_udp_and_tcp():
    tenant = make_tenant()
    tenant.check_template(udp_send_template(IP, 4500), None)
    tenant.check_template(tcp_send_template(IP, 4000, IP + 1, 80), None)


def test_check_template_rejects_out_of_grant_port():
    tenant = make_tenant()
    with pytest.raises(GrantViolation):
        tenant.check_template(udp_send_template(IP, 80), None)
    assert tenant.counters["forged_templates"] == 1


def test_check_template_rejects_unpinned_source():
    # A template with no source-address constraint is a spoofing
    # capability regardless of what port it names.
    from repro.netio.template import HeaderTemplate

    loose = HeaderTemplate._packed(b"\x45", 0xFF, ((0, 1),), "loose")
    tenant = make_tenant()
    with pytest.raises(GrantViolation):
        tenant.check_template(loose, None)


# ----------------------------------------------------------------------
# Teardown / leaks
# ----------------------------------------------------------------------


def test_leaks_reports_outstanding_attribution():
    bed, manager, alpha = tenanted_bed()
    service = LibraryUdpService(bed.host_a, bed.app_a, bed.registry_a)
    bed.spawn(service.bind(4500))
    bed.run(until=1.0)
    assert leaks(bed, "alpha") == {
        ("alice", "channels"): 1,
        ("alice", "region bytes"): 64 * 1024,
    }


def test_clean_tenant_has_no_leaks():
    bed, manager, alpha = tenanted_bed()
    service = LibraryUdpService(bed.host_a, bed.app_a, bed.registry_a)
    bed.spawn(service.bind(4500))
    bed.run(until=1.0)
    alpha.teardown()
    assert leaks(bed, "alpha") == {}
    assert bed.host_a.netio.channels == []
