"""Host-level behaviours: ARP resolution, slow-timer housekeeping,
NIC burst overflow, and TCP recovery from it."""

import pytest

from repro.net.headers import PROTO_TCP, str_to_ip
from repro.protocols.tcp import TcpConfig
from repro.testbed import IP_A, IP_B, Testbed


def test_resolve_link_unknown_host_fails():
    testbed = Testbed(network="ethernet", organization="userlib")

    def resolver():
        with pytest.raises(LookupError):
            yield from testbed.host_a.resolve_link(str_to_ip("10.0.0.99"))
        return True

    proc = testbed.spawn(resolver(), name="resolver")
    assert testbed.run(until=proc)


def test_resolve_link_an1_uses_static_table():
    testbed = Testbed(network="an1", organization="userlib")

    def resolver():
        station = yield from testbed.host_a.resolve_link(IP_B)
        return station

    proc = testbed.spawn(resolver(), name="resolver")
    assert testbed.run(until=proc) == 2


def test_arp_cache_warm_after_first_resolution():
    testbed = Testbed(network="ethernet", organization="userlib")

    def resolver():
        yield from testbed.host_a.resolve_link(IP_B)
        frames_before = testbed.link.stats["frames"]
        yield from testbed.host_a.resolve_link(IP_B)  # Cache hit.
        return testbed.link.stats["frames"] - frames_before

    proc = testbed.spawn(resolver(), name="resolver")
    assert testbed.run(until=proc) == 0


def test_slow_timer_expires_stale_reassembly():
    testbed = Testbed(network="ethernet", organization="userlib")
    receiver_ip = testbed.host_b.ip_stack

    def scenario():
        # Deliver only the first fragment of a two-fragment datagram.
        packets = testbed.host_a.ip_stack.send(
            IP_B, PROTO_TCP, b"f" * 2500, mtu=1500
        )
        mac = yield from testbed.host_a.resolve_link(IP_B)
        yield from testbed.host_a.netio.kernel_send(packets[0], mac)
        yield testbed.sim.timeout(1.0)
        assert receiver_ip.pending_reassemblies == 1
        # The host's slow timer reaps it after the reassembly timeout.
        yield testbed.sim.timeout(receiver_ip.REASSEMBLY_TIMEOUT + 2.0)
        return receiver_ip.pending_reassemblies

    proc = testbed.spawn(scenario(), name="scenario")
    assert testbed.run(until=proc) == 0
    assert receiver_ip.stats["expired"] == 1


def test_nic_burst_overflow_recovered_by_tcp():
    """A window larger than the receive staging capacity makes bursts
    overflow the board; TCP's loss recovery must still complete the
    transfer (an emergent interaction, pinned here)."""
    from repro.metrics import measure_throughput
    from repro.net.nic.pmadd import PmaddNic

    config = TcpConfig(
        rcv_buffer=61440, snd_buffer=61440, min_rto=0.3, initial_rto=0.6
    )
    testbed = Testbed(network="ethernet", organization="userlib", config=config)
    # Shrink the staging capacity so the big window overflows it.
    original = PmaddNic.BOARD_BUFFERS
    result = None
    try:
        PmaddNic.BOARD_BUFFERS = 6
        result = measure_throughput(
            testbed, total_bytes=200_000, chunk_size=4096
        )
    finally:
        PmaddNic.BOARD_BUFFERS = original
    assert result.bytes_moved > 0
    dropped = testbed.host_b.nic.stats["rx_dropped_no_buffer"]
    assert dropped > 0  # The overflow really happened...
    # ...and the transfer completed anyway (recovery worked).


def test_hosts_have_independent_cpus():
    testbed = Testbed(network="ethernet", organization="ultrix")

    def burn(host):
        yield host.kernel.cpu.charge(0.5)

    start = testbed.sim.now
    a = testbed.spawn(burn(testbed.host_a), name="a")
    b = testbed.spawn(burn(testbed.host_b), name="b")
    testbed.run(until=a)
    testbed.run(until=b)
    # Parallel execution: both finish in 0.5s, not 1.0s.
    assert testbed.sim.now - start == pytest.approx(0.5)
