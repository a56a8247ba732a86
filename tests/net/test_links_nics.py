"""Tests for simulated links, fault injection, and the two NICs."""

from types import SimpleNamespace

import pytest

from repro.costs import DECSTATION_5000_200, FREE
from repro.mach import Kernel, SharedRegion
from repro.net import (
    An1Header,
    An1Link,
    An1Nic,
    BROADCAST_MAC,
    ETHERTYPE_IP,
    EthernetHeader,
    EthernetLink,
    FaultInjector,
    PmaddNic,
    str_to_mac,
)
from repro.net.link import Transmitter
from repro.net.nic.an1ctrl import BqiTableFull
from repro.sim import Simulator

MAC_A = str_to_mac("02:00:00:00:00:01")
MAC_B = str_to_mac("02:00:00:00:00:02")
MAC_C = str_to_mac("02:00:00:00:00:03")


def eth_frame(dst, src, payload=b"x" * 100):
    return EthernetHeader(dst, src, ETHERTYPE_IP).pack() + payload


def an1_frame(dst, src, payload=b"y" * 100, bqi=0):
    return An1Header(dst, src, ETHERTYPE_IP, bqi).pack() + payload


def make_eth_world(costs=FREE, n_hosts=2, faults=None):
    sim = Simulator()
    link = EthernetLink(sim, faults=faults)
    kernels, nics = [], []
    macs = [MAC_A, MAC_B, MAC_C][:n_hosts]
    for i, mac in enumerate(macs):
        kernel = Kernel(sim, costs, name=f"h{i}")
        nic = PmaddNic(kernel, link, mac, name=f"nic{i}")
        kernels.append(kernel)
        nics.append(nic)
    return sim, link, kernels, nics


def collect_handler(received):
    def handler(frame, context, done):
        received.append((frame, context))
        done()

    return handler


# ----------------------------------------------------------------------
# Fault injector
# ----------------------------------------------------------------------


def test_fault_injector_perfect_by_default():
    injector = FaultInjector()
    plan = injector.plan(b"data")
    assert not plan.dropped
    assert plan.deliveries == ((0.0, b"data"),)


def test_fault_injector_always_drop():
    injector = FaultInjector(drop_rate=1.0)
    plan = injector.plan(b"data")
    assert plan.dropped
    assert plan.deliveries == ()
    assert injector.stats["dropped"] == 1


def test_fault_injector_corrupts_one_bit():
    injector = FaultInjector(corrupt_rate=1.0, seed=3)
    plan = injector.plan(b"\x00" * 16)
    assert plan.corrupted
    (delay, data), = plan.deliveries
    diff = [i for i in range(16) if data[i] != 0]
    assert len(diff) == 1
    assert bin(data[diff[0]]).count("1") == 1


def test_fault_injector_duplicates():
    injector = FaultInjector(duplicate_rate=1.0)
    plan = injector.plan(b"twice")
    assert len(plan.deliveries) == 2


def test_fault_injector_deterministic_with_seed():
    a = FaultInjector(drop_rate=0.5, seed=42)
    b = FaultInjector(drop_rate=0.5, seed=42)
    decisions_a = [a.plan(b"x").dropped for _ in range(100)]
    decisions_b = [b.plan(b"x").dropped for _ in range(100)]
    assert decisions_a == decisions_b
    assert any(decisions_a) and not all(decisions_a)


def test_fault_injector_validation():
    with pytest.raises(ValueError):
        FaultInjector(drop_rate=1.5)
    with pytest.raises(ValueError):
        FaultInjector(max_extra_delay=-1)


# ----------------------------------------------------------------------
# Ethernet link + PMADD
# ----------------------------------------------------------------------


def test_ethernet_delivers_to_addressee_only():
    sim, link, kernels, nics = make_eth_world(n_hosts=3)
    got_b, got_c = [], []
    nics[1].rx_handler = collect_handler(got_b)
    nics[2].rx_handler = collect_handler(got_c)
    frame = eth_frame(MAC_B, MAC_A)

    def send():
        yield from nics[0].driver_transmit(frame)

    sim.process(send())
    sim.run()
    assert len(got_b) == 1
    assert got_b[0][0] == frame
    assert got_c == []


def test_ethernet_broadcast_reaches_all_others():
    sim, link, kernels, nics = make_eth_world(n_hosts=3)
    got_b, got_c = [], []
    nics[1].rx_handler = collect_handler(got_b)
    nics[2].rx_handler = collect_handler(got_c)

    def send():
        yield from nics[0].driver_transmit(eth_frame(BROADCAST_MAC, MAC_A))

    sim.process(send())
    sim.run()
    assert len(got_b) == 1 and len(got_c) == 1


def test_shared_ethernet_delivers_in_attach_order():
    """The peer table learned at attach: a broadcast reaches every other
    NIC in the order they attached, a unicast only its addressee."""
    sim, link, kernels, nics = make_eth_world(n_hosts=3)
    heard = []

    def hear(name):
        def handler(frame, context, done):
            heard.append((name, frame[:6]))
            done()

        return handler

    for nic in nics:
        nic.rx_handler = hear(nic.name)

    def send(nic, dst):
        yield from nic.driver_transmit(eth_frame(dst, nic.mac))

    for sender, dst in [(2, BROADCAST_MAC), (0, BROADCAST_MAC), (1, MAC_C)]:
        sim.process(send(nics[sender], dst))
        sim.run()
    assert heard == [
        ("nic0", BROADCAST_MAC), ("nic1", BROADCAST_MAC),
        ("nic1", BROADCAST_MAC), ("nic2", BROADCAST_MAC),
        ("nic2", MAC_C),
    ]


def test_nic_attached_after_the_first_frame_hears_the_next():
    sim, link, kernels, nics = make_eth_world()
    first, second = eth_frame(BROADCAST_MAC, MAC_A), eth_frame(MAC_C, MAC_A)
    sim.process(nics[0].driver_transmit(first))
    sim.run()
    late = PmaddNic(Kernel(sim, FREE, name="h2"), link, MAC_C, name="late")
    got = []
    late.rx_handler = collect_handler(got)
    sim.process(nics[0].driver_transmit(second))
    sim.run()
    assert [frame for frame, _ in got] == [second]
    # And it is heard in turn by the NICs that were there before it.
    heard = []
    nics[1].rx_handler = collect_handler(heard)
    sim.process(late.driver_transmit(eth_frame(BROADCAST_MAC, MAC_C)))
    sim.run()
    assert len(heard) == 1


def test_ethernet_wire_time_includes_overheads():
    link_sim = Simulator()
    link = EthernetLink(link_sim)
    # 1514-byte frame: (8 + 1514 + 4) * 8 bits / 10 Mb/s.
    assert link.frame_time(1514) == pytest.approx((8 + 1514 + 4) * 8 / 10e6)
    # Runt frames are padded to 64 bytes.
    assert link.frame_time(10) == pytest.approx((8 + 64 + 4) * 8 / 10e6)


def test_ethernet_serializes_transmissions():
    sim, link, kernels, nics = make_eth_world()
    got = []
    nics[1].rx_handler = collect_handler(got)
    frame = eth_frame(MAC_B, MAC_A, b"p" * 1500)

    def send_two():
        yield from nics[0].driver_transmit(frame)
        yield from nics[0].driver_transmit(frame)

    sim.process(send_two())
    sim.run()
    assert len(got) == 2
    # Two maximum frames take at least twice the frame time.
    assert sim.now >= 2 * link.frame_time(1514)


def test_ethernet_oversized_frame_rejected():
    sim, link, kernels, nics = make_eth_world()
    transmitter = Transmitter(link, nics[0], capacity=1)
    with pytest.raises(ValueError):
        transmitter.submit(b"z" * 2000)
    assert not transmitter.busy
    # Rejected on the staging path too, before anything is staged.
    transmitter.submit(b"a" * 100)
    with pytest.raises(ValueError):
        transmitter.submit(b"z" * 2000)
    sim.run()
    assert link.stats["frames"] == 1


def test_pmadd_oversized_frame_raises_in_caller_and_nic_stays_usable():
    """An oversized frame used to be staged, kill the NIC's transmit
    process out of sight, and wedge every later frame behind it."""
    sim, link, kernels, nics = make_eth_world()
    got = []
    nics[1].rx_handler = collect_handler(got)
    valid = eth_frame(MAC_B, MAC_A)
    raised = []

    def send():
        try:
            yield from nics[0].driver_transmit(eth_frame(MAC_B, MAC_A, b"z" * 2500))
        except ValueError:
            raised.append(sim.now)
        yield from nics[0].driver_transmit(valid)

    sim.run(until=sim.process(send()))
    sim.run()
    assert len(raised) == 1
    assert [frame for frame, _ in got] == [valid]
    assert link.stats["frames"] == 1
    assert nics[0].stats["tx_frames"] == 1


def test_pmadd_charges_pio_costs():
    sim, link, kernels, nics = make_eth_world(costs=DECSTATION_5000_200)
    got = []
    nics[1].rx_handler = collect_handler(got)
    frame = eth_frame(MAC_B, MAC_A, b"q" * 1000)

    def send():
        yield from nics[0].driver_transmit(frame)

    sim.process(send())
    sim.run()
    costs = DECSTATION_5000_200
    # Sender paid PIO out; receiver paid interrupt + PIO in.
    assert kernels[0].cpu.busy_time == pytest.approx(
        costs.pio_cost(len(frame)) + costs.pmadd_per_packet
    )
    assert kernels[1].cpu.busy_time == pytest.approx(
        costs.interrupt + costs.pio_cost(len(frame))
    )


def test_pmadd_rx_overflow_drops():
    # Real costs so interrupt handling actually needs the CPU, which we
    # hog past the whole burst: the board's staging buffers must overflow.
    sim, link, kernels, nics = make_eth_world(costs=DECSTATION_5000_200)
    nics[1].kernel.cpu.charge(1.0)  # Hog B's CPU for a simulated second.

    def send_many():
        for _ in range(PmaddNic.BOARD_BUFFERS + 4):
            yield from nics[0].driver_transmit(eth_frame(MAC_B, MAC_A))

    sim.process(send_many())
    sim.run(until=1.0)
    assert nics[1].stats["rx_dropped_no_buffer"] >= 1
    assert nics[1].stats["rx_frames"] == 0  # Still waiting for the CPU.
    sim.run()
    assert nics[1].stats["rx_frames"] == PmaddNic.BOARD_BUFFERS


def test_pmadd_drains_staged_frames_in_order_one_interrupt_each():
    """Frames that arrive while the handler holds the one before them
    are staged, and taken in arrival order — each behind an interrupt
    charge of its own — only once ``done`` is called."""
    costs = DECSTATION_5000_200
    sim, link, kernels, nics = make_eth_world(costs=costs)
    frames = [eth_frame(MAC_B, MAC_A, bytes([i]) * 64) for i in range(4)]
    got, held = [], []

    def handler(frame, context, done):
        got.append(frame)
        held.append(done)

    nics[1].rx_handler = handler
    nics[1].wire_deliver(frames[0])
    sim.run()
    assert got == frames[:1] and nics[1]._rx_interrupt_pending
    for frame in frames[1:]:
        nics[1].wire_deliver(frame)
    sim.run()
    assert got == frames[:1]  # The handler has not let go yet.
    while held:
        held.pop()()
        sim.run()
    assert got == frames
    assert not nics[1]._rx_interrupt_pending and not nics[1]._rx_buffers
    assert nics[1].stats["rx_frames"] == 4
    assert kernels[1].cpu.busy_time == pytest.approx(
        sum(costs.interrupt + costs.pio_cost(len(frame)) for frame in frames)
    )


def test_pmadd_frame_arriving_with_all_buffers_staged_is_dropped():
    sim, link, kernels, nics = make_eth_world(costs=DECSTATION_5000_200)
    got = []
    nics[1].rx_handler = collect_handler(got)
    kernels[1].cpu.charge(0.01)  # Interrupts wait: everything stages.
    for i in range(PmaddNic.BOARD_BUFFERS + 1):
        nics[1].wire_deliver(eth_frame(MAC_B, MAC_A, bytes([i]) * 64))
    assert len(nics[1]._rx_buffers) == PmaddNic.BOARD_BUFFERS
    assert nics[1].stats["rx_dropped_no_buffer"] == 1
    sim.run()
    assert [frame[-1] for frame, _ in got] == list(range(PmaddNic.BOARD_BUFFERS))


def test_exception_in_interrupt_context_leaves_the_simulator():
    """It used to die with the unjoined ``-rxintr`` process: ``run()``
    returned normally, the exception was visible nowhere, and the two
    frames staged behind the first sat on the board with no interrupt
    pending until some unrelated frame arrived."""
    sim, link, kernels, nics = make_eth_world(costs=DECSTATION_5000_200)
    kernels[1].cpu.charge(0.01)  # Three frames stage behind one interrupt.

    def handler(frame, context, done):
        raise RuntimeError("handler bug")

    nics[1].rx_handler = handler
    for i in range(3):
        nics[1].wire_deliver(eth_frame(MAC_B, MAC_A, bytes([i]) * 64))
    with pytest.raises(RuntimeError, match="handler bug"):
        sim.run()
    assert nics[1].stats["rx_frames"] == 1


def test_pmadd_corruption_reaches_handler():
    injector = FaultInjector(corrupt_rate=1.0, seed=1)
    sim, link, kernels, nics = make_eth_world(faults=injector)
    got = []
    nics[1].rx_handler = collect_handler(got)
    frame = eth_frame(MAC_B, MAC_A)

    def send():
        yield from nics[0].driver_transmit(frame)

    sim.process(send())
    sim.run()
    # Corrupted bits may fall in the dst MAC, in which case the NIC
    # filter discards the frame; otherwise the handler sees damage.
    if got:
        assert got[0][0] != frame


# ----------------------------------------------------------------------
# AN1 link + controller
# ----------------------------------------------------------------------


def make_an1_world(costs=FREE, driver_mtu=1500):
    sim = Simulator()
    link = An1Link(sim)
    k0 = Kernel(sim, costs, name="h0")
    k1 = Kernel(sim, costs, name="h1")
    n0 = An1Nic(k0, link, station=1, name="an1-0", driver_mtu_data=driver_mtu)
    n1 = An1Nic(k1, link, station=2, name="an1-1", driver_mtu_data=driver_mtu)
    return sim, link, (k0, k1), (n0, n1)


def test_an1_delivers_via_default_bqi():
    sim, link, kernels, nics = make_an1_world()
    got = []
    nics[1].rx_handler = collect_handler(got)

    def send():
        yield from nics[0].driver_transmit(an1_frame(2, 1))

    sim.process(send())
    sim.run()
    assert len(got) == 1
    frame, ring = got[0]
    assert ring.bqi == 0


def test_an1_runt_frame_is_dropped_and_the_run_goes_on():
    """A frame too short to hold a destination station used to raise
    ``IndexError`` out of ``sim.run()``: the link read the station's two
    octets itself, inside the engine callback that ends the turn."""
    sim, link, kernels, nics = make_an1_world()
    got = []
    nics[1].rx_handler = collect_handler(got)
    frame = an1_frame(2, 1)

    def send():
        yield from nics[0].driver_transmit(b"\x00")
        yield from nics[0].driver_transmit(frame)

    sim.process(send())
    sim.run()
    assert [received for received, _ in got] == [frame]
    assert link.stats["frames"] == 2


def test_an1_counts_a_runt_apart_from_a_frame_nobody_takes():
    """A runt is dropped before it counts as received (``rx_runt``); a
    whole frame with no handler installed after (``rx_ignored``)."""
    sim, link, kernels, nics = make_an1_world()
    nics[1].rx_handler = collect_handler([])

    def send():
        yield from nics[0].driver_transmit(b"\x00\x02\x00")  # For station 2, 3 octets.
        yield from nics[1].driver_transmit(an1_frame(1, 2))  # Station 1 has no handler.

    sim.process(send())
    sim.run()
    assert dict(nics[1].stats) == {"rx_runt": 1, "tx_frames": 1, "tx_bytes": 110}
    assert nics[0].stats["rx_frames"] == nics[0].stats["rx_ignored"] == 1


def test_an1_frame_nobody_takes_gives_its_buffer_back():
    """The controller takes a region buffer at DMA; with no handler
    installed the frame is counted ``rx_ignored`` and the buffer is
    back in the region."""
    sim, link, kernels, nics = make_an1_world()

    def send():
        for _ in range(3):
            yield from nics[0].driver_transmit(an1_frame(2, 1))

    sim.process(send())
    sim.run()
    region = nics[1].bqi_table[0]
    assert nics[1].stats["rx_ignored"] == 3
    assert (region.available, region.capacity) == (64, 64)


def test_an1_nonzero_bqi_selects_ring():
    sim, link, kernels, nics = make_an1_world()
    ring = nics[1].allocate_bqi(SharedRegion(4, owner="app"))
    got = []
    nics[1].rx_handler = collect_handler(got)

    def send():
        yield from nics[0].driver_transmit(an1_frame(2, 1, bqi=ring.bqi))

    sim.process(send())
    sim.run()
    _, got_ring = got[0]
    assert got_ring is ring
    assert ring.stats["delivered"] == 1
    assert ring.available == 3


def test_an1_unknown_bqi_falls_back_to_kernel_ring():
    sim, link, kernels, nics = make_an1_world()
    got = []
    nics[1].rx_handler = collect_handler(got)

    def send():
        yield from nics[0].driver_transmit(an1_frame(2, 1, bqi=999))

    sim.process(send())
    sim.run()
    assert got[0][1].bqi == 0


def test_an1_ring_exhaustion_drops():
    sim, link, kernels, nics = make_an1_world()
    ring = nics[1].allocate_bqi(SharedRegion(2, owner="app"))
    got = []
    nics[1].rx_handler = collect_handler(got)

    def send():
        for _ in range(5):
            yield from nics[0].driver_transmit(an1_frame(2, 1, bqi=ring.bqi))

    sim.process(send())
    sim.run()
    assert len(got) == 2  # Ring capacity, never replenished.
    assert nics[1].stats["rx_dropped_no_buffer"] == 3  # Counted once, by the taker.
    assert dict(ring.stats) == {"delivered": 2}


def test_an1_ring_replenish_resumes_delivery():
    sim, link, kernels, nics = make_an1_world()
    ring = nics[1].allocate_bqi(SharedRegion(1, owner="app"))
    got = []

    def handler(frame, ctx, done):
        got.append(frame)
        ctx.replenish()  # Library hands the buffer back.
        done()

    nics[1].rx_handler = handler

    def send():
        for _ in range(5):
            yield from nics[0].driver_transmit(an1_frame(2, 1, bqi=ring.bqi))

    sim.process(send())
    sim.run()
    assert len(got) == 5


def test_an1_no_cpu_cost_per_byte():
    sim, link, kernels, nics = make_an1_world(costs=DECSTATION_5000_200)
    got = []
    nics[1].rx_handler = collect_handler(got)
    frame = an1_frame(2, 1, payload=b"r" * 1400)

    def send():
        yield from nics[0].driver_transmit(frame)

    sim.process(send())
    sim.run()
    costs = DECSTATION_5000_200
    # DMA: sender pays only descriptor setup, receiver only the interrupt.
    assert kernels[0].cpu.busy_time == pytest.approx(costs.an1_dma_setup)
    assert kernels[1].cpu.busy_time == pytest.approx(costs.interrupt)


def test_an1_driver_mtu_enforced_and_liftable():
    sim, link, kernels, nics = make_an1_world(driver_mtu=1500)

    def send_big():
        with pytest.raises(ValueError):
            yield from nics[0].driver_transmit(an1_frame(2, 1, b"b" * 4000))

    sim.run(until=sim.process(send_big()))
    # The hardware itself accepts far larger frames when the driver allows.
    sim2, link2, kernels2, nics2 = make_an1_world(driver_mtu=65536)
    got = []
    nics2[1].rx_handler = collect_handler(got)

    def send_huge():
        yield from nics2[0].driver_transmit(an1_frame(2, 1, b"B" * 60000))

    sim2.process(send_huge())
    sim2.run()
    assert len(got) == 1


def test_an1_full_duplex():
    sim, link, kernels, nics = make_an1_world()
    got0, got1 = [], []
    nics[0].rx_handler = collect_handler(got0)
    nics[1].rx_handler = collect_handler(got1)
    payload = b"f" * 1400

    def send(nic, dst, src):
        yield from nic.driver_transmit(an1_frame(dst, src, payload))

    sim.process(send(nics[0], 2, 1))
    sim.process(send(nics[1], 1, 2))
    sim.run()
    assert len(got0) == 1 and len(got1) == 1
    # Both directions proceeded concurrently: total elapsed well under
    # two serialized frame times plus interrupt handling.
    assert sim.now < 2 * (1408 + link.OVERHEAD) * 8 / link.bit_rate


def test_an1_bqi_release():
    sim, link, kernels, nics = make_an1_world()
    ring = nics[1].allocate_bqi(SharedRegion(2))
    nics[1].release_bqi(ring.bqi)
    assert ring.bqi not in nics[1].bqi_table
    with pytest.raises(ValueError):
        nics[1].release_bqi(0)


def test_an1_bqi_allocation_wraps_onto_a_freed_index():
    """The link header carries the BQI in 16 bits: the allocation after
    0xFFFF goes round to the lowest index no ring holds — never to
    0x10000, which no frame can be stamped with."""
    sim, link, kernels, nics = make_an1_world()
    nic = nics[1]
    live = nic.allocate_bqi(SharedRegion(1))
    freed = nic.allocate_bqi(SharedRegion(1))
    nic.release_bqi(freed.bqi)
    nic._next_bqi = An1Header.MAX_BQI
    assert nic.allocate_bqi(SharedRegion(1)).bqi == An1Header.MAX_BQI
    ring = nic.allocate_bqi(SharedRegion(1, owner="app"))
    # Round past the kernel's 0 and the still-live 1 onto the freed 2.
    assert (live.bqi, ring.bqi) == (1, 2)
    assert nic.bqi_table[ring.bqi] is ring
    got = []
    nic.rx_handler = collect_handler(got)

    def send():
        yield from nics[0].driver_transmit(an1_frame(2, 1, bqi=ring.bqi))

    sim.process(send())
    sim.run()
    assert [context for _frame, context in got] == [ring]


def test_an1_full_bqi_table_refuses_allocation():
    sim, link, kernels, nics = make_an1_world()
    nic = nics[1]
    first = nic.allocate_bqi(SharedRegion(1))
    nic.bqi_table.update(
        dict.fromkeys(range(1, An1Header.MAX_BQI + 1), first)
    )
    with pytest.raises(BqiTableFull):
        nic.allocate_bqi(SharedRegion(1))
    assert len(nic.bqi_table) == An1Header.MAX_BQI + 1  # nothing installed
    nic.release_bqi(40_000)
    assert nic.allocate_bqi(SharedRegion(1)).bqi == 40_000


def test_link_keeps_no_second_fault_count():
    """The injector's counters are the one fault account: the link
    counts the frame it carried, and nothing of what befell it."""
    injector = FaultInjector(drop_rate=1.0, seed=7)
    sim, link, kernels, nics = make_eth_world(faults=injector)

    def send():
        yield from nics[0].driver_transmit(eth_frame(MAC_B, MAC_A))

    sim.process(send())
    sim.run()
    assert injector.stats["dropped"] == 1
    assert link.stats["frames"] == 1
    assert set(link.stats) == {"frames", "bytes", "busy_time"}


def test_watchers_see_every_plan():
    injector = FaultInjector(drop_rate=1.0, seed=3)
    sim, link, kernels, nics = make_eth_world(faults=injector)
    seen = []
    link.watchers.append(
        SimpleNamespace(
            offered=lambda frame: None,
            planned=lambda frame, plan: seen.append((frame, plan)),
        )
    )

    def send():
        yield from nics[0].driver_transmit(eth_frame(MAC_B, MAC_A))

    sim.process(send())
    sim.run()
    assert len(seen) == 1
    frame, plan = seen[0]
    assert plan.dropped
    assert plan.deliveries == ()
