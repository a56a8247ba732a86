"""Adversarial-tenant tests: each abuse vector is contained by the
trusted layers when enforcement is on, and leaves evidence the
isolation invariants convict on when it is off."""

import json
from pathlib import Path

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
from repro.tenancy.campaign import ADVERSARY_BUDGET, ISOLATION, IsolationSpec, run_cell
from repro.tenancy.invariants import IsolationEvidence, TenantSnapshot, check_grants
from repro.testbed import Testbed

REGION = NetworkIoModule.DEFAULT_REGION_SIZE
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
        self.manager.modules.append(self.io)
        self.victim = self.manager.create_tenant(
            "victim", TenantBudget(ports=PortGrant.of((4000, 4999)))
        )
        self.mallory = self.manager.create_tenant(
            "mallory",
            TenantBudget(
                region_bytes=2 * REGION,
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
    assert world.mallory.counters["forged_templates"] == 1  # ...on record,
    assert world.mallory.counters["rejections"] == 1  # counted once.


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
    assert beta.held_ports() == [(7500, False)]
    assert beta.counters["rejections"] == 1
    assert alpha.counters["rejections"] == 0


def test_grants_judge_the_tables_at_the_end_not_the_bind_history():
    """The narrowed ``tenant-grants`` guarantee, on a sabotaged bed: an
    out-of-grant bind released before the end leaves the tables clean,
    so the invariant does not convict it, while the tenant's counters
    still record it; one still held at the end is convicted."""
    bed = Testbed(network="ethernet", organization="userlib")
    manager = attach_tenancy(bed, enforcing=False)
    mallory = manager.create_tenant("mallory", ADVERSARY_BUDGET)
    mallory_task = bed.host_a.create_task("mallory")
    manager.bind_task(mallory_task, mallory)
    service = LibraryUdpService(bed.host_a, mallory_task, bed.registry_a)

    def forger(keep):
        endpoint = yield from service.bind(4400)  # Out of grant, not refused.
        if not keep:
            yield from endpoint.close()

    def grants_verdict(keep):
        mallory_task.spawn(forger(keep))
        bed.run(until=bed.sim.now + 1.0)
        snapshot = TenantSnapshot(
            "mallory", mallory.budget, tuple(mallory.held_ports()), dict(mallory.counters), {}
        )
        evidence = IsolationEvidence("forger", "victim", 1.0, 0.0, 0.0, tenants=[snapshot])
        return snapshot, check_grants(evidence)

    snapshot, verdict = grants_verdict(keep=False)
    assert snapshot.ports == () and verdict.checked == 0 and verdict.ok
    assert snapshot.counters["out_of_grant_binds"] == 1
    snapshot, verdict = grants_verdict(keep=True)
    assert snapshot.ports == ((4400, False),) and not verdict.ok
    assert snapshot.counters["out_of_grant_binds"] == 2


# ----------------------------------------------------------------------
# BQI exhaustion under concurrent allocators
# ----------------------------------------------------------------------


def test_bqi_exhaustion_contained_by_quota():
    world = TwoTenantWorld(an1=True)
    results = {"mallory": [], "victim": []}

    def hoard():
        # Mallory's two-region quota admits exactly two rings;
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
    assert world.mallory.usage() == (0, 2 * REGION)
    assert world.mallory.counters["rejections"] == 4
    assert world.mallory.counters["quota_region"] == 4
    assert len(results["victim"]) == 1 and results["victim"][0] is not None
    # Release restores capacity for the refused tenant.
    world.io.release_ring(world.registry, mallory_rings[0])
    assert world.mallory.usage() == (0, REGION)
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


#: The quick grid's solo baseline, as its golden records it.
QUICK_SOLO = json.loads(
    (Path(__file__).parents[1] / "protocols/data/isolation_golden.json").read_text()
)["cells"]["forger/enforced"]["solo_goodput"]

#: The verdicts of the two sabotaged cells the quick grid leaves out.
SABOTAGED_VERDICTS = {
    "forger": {
        "tenant-isolation": [],
        "tenant-goodput": [
            "[tenant-goodput] t=3000.000ms victim=victim adversary=forger: goodput"
            " 0 B/s below 541198 B/s (90% of solo baseline 601331 B/s)"
        ],
        "tenant-grants": [
            f"[tenant-grants] t=0.000ms tenant=mallory: bound port {port} outside"
            " grant ((7000, 7999),) (and not ephemeral)"
            for port in (4400, 4600, 4700)
        ],
        "tenant-conservation": [
            "[tenant-conservation] t=3000.000ms tenant=mallory: peak region"
            " attribution 196608B exceeds quota 65536B"
        ],
    },
    "hoarder": {
        "tenant-isolation": [],
        "tenant-goodput": [
            "[tenant-goodput] t=3000.000ms victim=victim adversary=hoarder: goodput"
            " 0 B/s below 541198 B/s (90% of solo baseline 601331 B/s)"
        ],
        "tenant-grants": [],
        "tenant-conservation": [
            "[tenant-conservation] t=3000.000ms tenant=mallory: peak region"
            " attribution 196608B exceeds quota 65536B"
        ],
    },
}


@pytest.mark.parametrize("adversary", sorted(SABOTAGED_VERDICTS))
def test_sabotaged_verdicts_outside_the_quick_grid(adversary):
    """``--quick`` sabotages only the flooder and the leaker: these pin
    the other two convictions, ``tenant-grants`` among them."""
    cell = run_cell(IsolationSpec(adversary, False, 3.0, QUICK_SOLO))
    assert cell.as_dict()["checks"] == SABOTAGED_VERDICTS[adversary]
    assert not cell.ok and cell.passed
