"""Adversarial-tenant tests: each abuse vector is contained by the
trusted layers when enforcement is on, and leaves evidence the
isolation invariants convict on when it is off."""

import json

import pytest

from repro.costs import FREE
from repro.mach import Kernel
from repro.net import An1Link, An1Nic, EthernetLink, PmaddNic, str_to_mac
from repro.net.buf import prepend
from repro.net.headers import Ipv4Header, PROTO_TCP, TCP_ACK
from repro.netio import NetworkIoModule, tcp_send_template
from repro.netio.template import HeaderTemplate
from repro.org.udplib import LibraryUdpService
from repro.protocols.tcp import Segment, encode_segment
from repro.sim import Simulator
from repro.tenancy import (
    GrantViolation,
    QuotaExceeded,
    PortGrant,
    RateLimited,
    TenantBudget,
    TenantManager,
    attach_tenancy,
)
from repro.check.campaign import replay_cell
from repro.tenancy.campaign import ISOLATION, IsolationSpec, run_cell
from repro.testbed import Testbed

IP_1 = 0x0A000001
IP_2 = 0x0A000002
MAC_A = str_to_mac("02:00:00:00:00:01")
MAC_B = str_to_mac("02:00:00:00:00:02")


class TwoTenantWorld:
    """One shared host, a victim tenant and an adversary tenant."""

    def __init__(self, an1: bool = False, enforcing: bool = True):
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
        self.victim_app = self.kernel.create_task("victim-app")
        self.mallory_app = self.kernel.create_task("mallory-app")
        self.manager = TenantManager(enforcing=enforcing)
        self.io.tenants = self.manager
        self.victim = self.manager.create_tenant(
            "victim", TenantBudget(ports=PortGrant.of((4000, 4999)))
        )
        self.mallory = self.manager.create_tenant(
            "mallory",
            TenantBudget(
                bqi_buffers=64,
                tx_rate=1000.0,
                tx_burst=2000,
                ports=PortGrant.of((7000, 7999)),
            ),
        )
        self.manager.bind_task(self.victim_app, self.victim)
        self.manager.bind_task(self.mallory_app, self.mallory)

    def run(self, generator):
        return self.sim.run(until=self.sim.process(generator))


def ip_packet(src_ip, dst_ip, sport, dport, payload=b"x" * 40):
    seg = Segment(
        sport=sport, dport=dport, seq=1, ack=1, flags=TCP_ACK,
        window=100, payload=payload,
    )
    tcp = encode_segment(seg, src_ip, dst_ip)
    return prepend(
        Ipv4Header(
            src=src_ip, dst=dst_ip, protocol=PROTO_TCP,
            total_length=Ipv4Header.LENGTH + len(tcp),
        ).pack(),
        tcp,
    )


# ----------------------------------------------------------------------
# Forged template images
# ----------------------------------------------------------------------


def test_forged_template_into_victim_grant_refused():
    world = TwoTenantWorld()
    forged = tcp_send_template(IP_1, 4000, IP_2, 80)  # Victim's range.
    with pytest.raises(GrantViolation):
        world.run(
            world.io.create_channel(
                world.registry, world.mallory_app, forged,
                local_ip=IP_1, local_port=4000,
                remote_ip=IP_2, remote_port=80, link_dst=MAC_B,
            )
        )
    assert world.mallory.counters["forged_templates"] == 1
    assert len(world.io.channels) == 0


def test_template_not_pinning_source_refused():
    # A hand-built template image that omits the source-address pin
    # would let its holder spoof arbitrary senders.
    world = TwoTenantWorld()
    forged = HeaderTemplate._packed(
        bytes(Ipv4Header.LENGTH) + (7000).to_bytes(2, "big"),
        0xFFFF,
        ((Ipv4Header.LENGTH, 2),),
        "no-src-pin",
    )
    with pytest.raises(GrantViolation):
        world.run(
            world.io.create_channel(
                world.registry, world.mallory_app, forged,
                local_ip=IP_1, local_port=7000,
                remote_ip=IP_2, remote_port=80, link_dst=MAC_B,
            )
        )


def test_sabotaged_registration_still_audited():
    world = TwoTenantWorld(enforcing=False)
    forged = tcp_send_template(IP_1, 4000, IP_2, 80)
    channel = world.run(
        world.io.create_channel(
            world.registry, world.mallory_app, forged,
            local_ip=IP_1, local_port=4000,
            remote_ip=IP_2, remote_port=80, link_dst=MAC_B,
        )
    )
    assert channel is not None  # The sabotaged stack let it through...
    assert world.manager.audit["admission_refused"] == 1  # ...on record.


# ----------------------------------------------------------------------
# Flooding past the token bucket
# ----------------------------------------------------------------------


def test_flood_past_bucket_refused_not_queued():
    world = TwoTenantWorld()
    channel = world.run(
        world.io.create_channel(
            world.registry, world.mallory_app,
            tcp_send_template(IP_1, 7000, IP_2, 80),
            local_ip=IP_1, local_port=7000,
            remote_ip=IP_2, remote_port=80, link_dst=MAC_B,
        )
    )
    packet = ip_packet(IP_1, IP_2, 7000, 80)

    def flood():
        sent = refused = 0
        for _ in range(100):
            try:
                yield from world.io.send(world.mallory_app, channel, packet)
                sent += 1
            except RateLimited as exc:
                assert exc.retry_after > 0
                refused += 1
        return sent, refused

    sent, refused = world.run(flood())
    # The burst admits a handful; everything else is refused with a
    # retry hint, never queued.
    assert sent == world.mallory.counters["tx_packets"]
    assert 0 < sent < 100
    assert refused == 100 - sent
    assert world.mallory.counters["throttle_events"] == refused
    assert world.io.stats["tx_throttled"] == refused
    # Admitted bytes conform to the bucket (burst + deficit slack).
    assert world.mallory.counters["tx_bytes"] <= 2000 + len(packet)
    # The victim's budget is untouched throughout.
    assert world.victim.counters["throttle_events"] == 0


def test_sabotaged_flood_transmits_but_ledger_records_it():
    world = TwoTenantWorld(enforcing=False)
    channel = world.run(
        world.io.create_channel(
            world.registry, world.mallory_app,
            tcp_send_template(IP_1, 7000, IP_2, 80),
            local_ip=IP_1, local_port=7000,
            remote_ip=IP_2, remote_port=80, link_dst=MAC_B,
        )
    )
    packet = ip_packet(IP_1, IP_2, 7000, 80)

    def flood():
        for _ in range(100):
            yield from world.io.send(world.mallory_app, channel, packet)

    world.run(flood())
    # Every frame hit the wire, and the tx ledger says so — this is
    # what the rate-conformance invariant convicts on.
    assert world.mallory.counters["tx_packets"] == 100
    assert world.mallory.counters["tx_bytes"] == 100 * len(packet)


# ----------------------------------------------------------------------
# Binding into another tenant's grant (registry-level)
# ----------------------------------------------------------------------


def test_bind_into_other_tenants_grant_refused():
    bed = Testbed(network="ethernet", organization="userlib")
    manager = attach_tenancy(bed)
    alpha = manager.create_tenant(
        "alpha", TenantBudget(ports=PortGrant.of((4000, 4999)))
    )
    beta = manager.create_tenant(
        "beta", TenantBudget(ports=PortGrant.of((7000, 7999)))
    )
    manager.bind_task(bed.app_a, alpha)
    mallory_task = bed.host_a.create_task("mallory")
    manager.bind_task(mallory_task, beta)
    service = LibraryUdpService(bed.host_a, mallory_task, bed.registry_a)
    outcome = {}

    def scenario():
        try:
            yield from service.bind(4500)  # Alpha's range.
            outcome["bound"] = True
        except OSError:
            outcome["bound"] = False
        ep = yield from service.bind(7500)  # Beta's own range: fine.
        outcome["own"] = ep is not None

    bed.spawn(scenario())
    bed.run(until=1.0)
    assert outcome == {"bound": False, "own": True}
    assert beta.counters["out_of_grant_binds"] == 1
    assert beta.bound_ports == [7500]
    assert manager.audit["bind_refused"] == 1


# ----------------------------------------------------------------------
# BQI exhaustion under concurrent allocators
# ----------------------------------------------------------------------


def test_bqi_exhaustion_contained_by_quota():
    world = TwoTenantWorld(an1=True)
    results = {"mallory": [], "victim": []}

    def hoard():
        # Mallory's 64-buffer quota admits exactly two 32-buffer rings;
        # attempts three..six must be refused however fast they arrive.
        for _ in range(6):
            try:
                ring = world.io.allocate_ring(
                    world.registry, owner=world.mallory_app
                )
                results["mallory"].append(ring)
            except QuotaExceeded:
                results["mallory"].append(None)
            yield world.sim.timeout(0.001)

    def victim_allocates():
        # Interleaved with the hoard: the victim's own quota, not the
        # hoarder's appetite, decides whether this succeeds.
        yield world.sim.timeout(0.0015)
        ring = world.io.allocate_ring(world.registry, owner=world.victim_app)
        results["victim"].append(ring)

    world.sim.process(hoard())
    world.sim.process(victim_allocates())
    world.sim.run(until=1.0)

    mallory_rings = [r for r in results["mallory"] if r is not None]
    assert len(mallory_rings) == 2
    assert results["mallory"].count(None) == 4
    assert world.mallory.bqi_buffers_used == 64
    assert world.mallory.counters["rejections"] == 4
    assert len(results["victim"]) == 1 and results["victim"][0] is not None
    # Release restores capacity for the refused tenant.
    world.io.release_ring(world.registry, mallory_rings[0])
    assert world.mallory.bqi_buffers_used == 32
    ring = world.io.allocate_ring(world.registry, owner=world.mallory_app)
    assert ring is not None


# ----------------------------------------------------------------------
# Campaign cells (end-to-end containment and conviction)
# ----------------------------------------------------------------------


def _cell(adversary, enforcing):
    solo = run_cell(IsolationSpec(deadline=2.0)).facts["victim_goodput"]
    return run_cell(IsolationSpec(adversary, enforcing, 2.0, solo))


@pytest.mark.parametrize("adversary", ["flooder", "leaker"])
def test_enforced_adversary_is_contained(adversary):
    cell = _cell(adversary, enforcing=True)
    assert cell.ok and cell.passed, [str(v) for v in cell.violations]


@pytest.mark.parametrize("adversary", ["flooder", "leaker"])
def test_sabotaged_adversary_is_caught(adversary):
    cell = _cell(adversary, enforcing=False)
    assert not cell.ok and cell.passed
    # The cell's dict alone, solo baseline included, brings the
    # conviction back.
    recorded = json.loads(json.dumps(cell.as_dict()))
    assert replay_cell(ISOLATION, recorded).as_dict() == recorded
