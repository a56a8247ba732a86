"""Deterministic call gates on the connection set-up path (Table 4).

The companion of ``test_byte_path_cost.py`` for the control plane: one
userlib connect–send–close cycle — the ledger's ``churn`` shape, with
the registry's handshake, the channel and template install over Mach
IPC, and the release — and one send-template check, each pinned in
profiled calls (cProfile's count, the ledger's ``py_calls_per_op``
currency).  The same driver checks that a long run of cycles leaves
each task's thread list where one cycle left it.
"""

import pytest

from repro.net.buf import prepend
from repro.net.headers import PROTO_TCP, Ipv4Header
from repro.netio.template import tcp_send_template
from repro.protocols.tcp import TcpConfig
from repro.testbed import IP_A, IP_B, Testbed

from .test_data_path_cost import profiled_calls

#: Simulated seconds between cycles, so each close drains first.
GAP = 0.5
PORT = 4200
MESSAGE = bytes(64)


def churn(bed: Testbed, cycles: int) -> None:
    """Spawn ``cycles`` connect–send–close cycles, one every ``GAP``."""

    def acceptor():
        listener = yield from bed.service_b.listen(PORT)
        for _ in range(cycles):
            conn = yield from listener.accept()
            yield from conn.recv_exactly(len(MESSAGE))
            yield from conn.close()

    def connector():
        for _ in range(cycles):
            conn = yield from bed.service_a.connect(IP_B, PORT)
            yield from conn.send(MESSAGE)
            yield from conn.close()
            yield bed.sim.timeout(GAP)

    bed.spawn(acceptor(), "accept")
    bed.spawn(connector(), "connect")


@pytest.mark.parametrize(
    "network, ceiling", [("ethernet", 1893), ("an1", 1836)], ids=["ethernet", "an1"]
)
def test_connect_send_close_cycle_call_gate(network, ceiling):
    """One steady-state cycle (the first primed ARP and the listener),
    in profiled calls: 1889 on Ethernet and 1832 on AN1.

    History: 1986 and 1921 (under ceilings of 1990 and 1925) while a
    thread's resume registered it on every spend turn and parked wait,
    each wait paid ``Simulator.event`` and ``Event.__init__``, and a
    spawn ``Simulator.process``, ``hasattr`` and ``Initialize.__init__``;
    1990 and 1925 (under ceilings of 1994 and 1929) while a
    write read the send room through the ``Tcb.send_buffer_space``
    property twice; 2099 and 2048 (under ceilings of 2111 and 2060)
    while every thread's CPU charge was an event its process yielded and was
    resumed from; 2224 and 2158 (under ceilings of 2296 and 2232) while
    every segment, TCP event and action, datagram, link fact and demux
    decision was a dataclass built through ``__init__``, and every
    ``Task.spawn`` scanned its task's threads; 2602 and 2538 while every TCP segment left its sender as
    three chains — ``encode_segment``, ``encapsulate``, the link header
    — with its checksum through ``pseudo_header`` and
    ``checksum_parts``, its IPv4 header through a record, a field list
    and two packs, and its send-template check walking the chain; 2607 and 2543 under ceilings of 2855 and 2845 (set at 2850
    and 2841), while every ``Task.spawn`` rebuilt its task's thread
    list in a comprehension; 3302 and 3345 while every set-up charge went through the
    ``CPU.consume`` generator, Mach IPC checked rights through a
    property and a method per right, ``Kernel.fast_trap`` was a
    generator, and a send template was a loop over its constraints;
    3136 and 3160 while every Mach message's enqueue was an engine
    event and the library's send, receive, action executor and
    semaphore wait were frames that only delegated.
    """
    bed = Testbed(network=network, organization="userlib")
    churn(bed, 3)
    bed.run(until=GAP)
    assert profiled_calls(lambda: bed.run(until=2 * GAP)) <= ceiling
    bed.run()
    assert bed.registry_b.stats["accepts"] == 3


def test_template_verify_call_gate():
    """One ``HeaderTemplate.verify`` of a TCP segment as the library
    submits it — the IPv4 and TCP headers one image in front of the
    payload — costs 7 profiled calls: the 24-byte prefix is read in
    place from the image.  A chain split inside the prefix (here the IP
    header in front of the TCP bytes, as every sender built it before)
    is walked, for 15, 10 of them reading the prefix.  It was 22 while
    the check walked its four constraints."""
    template = tcp_send_template(IP_A, 5000, IP_B, 80)
    ip = Ipv4Header(src=IP_A, dst=IP_B, protocol=PROTO_TCP, total_length=60).pack()
    tcp = (5000).to_bytes(2, "big") + (80).to_bytes(2, "big") + bytes(16)
    image = prepend(ip + tcp, bytes(20))
    split = prepend(ip, tcp + bytes(20))
    for packet, ceiling in ((image, 7), (split, 15)):
        template.verify(packet)
        assert profiled_calls(lambda: template.verify(packet)) <= ceiling
    assert template.violations == 0


@pytest.mark.parametrize("network", ["ethernet", "an1"])
def test_churn_leaves_thread_lists_at_a_fixed_point(network):
    """Every task's thread list is as long after 2k cycles as after k.
    A task used to keep every thread it ever spawned: the registries
    and both applications grew by one to three entries a cycle."""

    def thread_counts(cycles):
        # A short MSL lets TIME-WAIT end inside the gap.
        bed = Testbed(network=network, organization="userlib", config=TcpConfig(msl=0.1))
        churn(bed, cycles)
        bed.run()
        assert bed.registry_b.stats["accepts"] == cycles
        tasks = (bed.registry_a.task, bed.registry_b.task, bed.app_a, bed.app_b)
        return [len(task.threads) for task in tasks]

    assert thread_counts(4) == thread_counts(8)
