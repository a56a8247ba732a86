"""Deterministic call gates on the library's data path (Table 3).

The companion of ``test_control_path_cost.py`` for the data plane: one
userlib 1-byte echo round trip in steady state — the ledger's
``pingpong`` shape — pinned in profiled calls (cProfile's count, the
ledger's ``py_calls_per_op`` currency), and the depth of the generator
chain every CPU charge of a library send resumes through.  The paper's
library is reached "by plain procedure calls" (§3.2): a frame that only
delegates is paid again at every charge beneath it.
"""

import cProfile
import gc
import inspect
import sys

import pytest

from repro.testbed import IP_B, Testbed

#: Simulated seconds between pings: each trip, and the delayed-ACK
#: timers it arms, fit inside one gap.
GAP = 0.5
PORT = 4100
TRIPS = 4


def profiled_calls(work) -> int:
    """Every call cProfile sees under ``work()``, itself included.  The
    garbage earlier tests left is collected first, and no collection
    runs inside the count: a suspended process of an abandoned testbed
    runs its ``finally`` when collected, and a ``gc.callbacks`` hook
    (hypothesis installs one once its tests have run) is called at each
    collection; neither may count."""
    gc.collect()
    gc.disable()
    try:
        profiler = cProfile.Profile()
        profiler.runcall(work)
    finally:
        gc.enable()
    return sum(entry.callcount for entry in profiler.getstats())


def echo(bed: Testbed, on_send=None):
    """A 1-byte ping every ``GAP``, echoed; returns the pinger process.
    ``on_send(True)`` / ``on_send(False)`` bracket each ping's send."""

    def server():
        listener = yield from bed.service_b.listen(PORT)
        conn = yield from listener.accept()
        for _ in range(TRIPS):
            data = yield from conn.recv_exactly(1)
            yield from conn.send(data)

    def pinger():
        conn = yield from bed.service_a.connect(IP_B, PORT)
        for trip in range(TRIPS):
            yield bed.sim.timeout((trip + 1) * GAP - bed.sim.now)
            if on_send is not None:
                on_send(True)
            yield from conn.send(b"p")
            if on_send is not None:
                on_send(False)
            assert (yield from conn.recv_exactly(1)) == b"p"

    bed.spawn(server(), "echo")
    return bed.spawn(pinger(), "ping")


@pytest.mark.parametrize(
    "network, ceiling", [("ethernet", 590), ("an1", 582)], ids=["ethernet", "an1"]
)
def test_echo_round_trip_call_gate(network, ceiling):
    """The third round trip (the connect, the ARP and the first trip
    done) and the delayed ACK the pinger's timer sends, in profiled
    calls: 586 on Ethernet and 578 on AN1.  Later trips differ by a
    few calls: a counter's first increment, two engine events sharing
    an instant.

    History: 612 and 603 (under ceilings of 616 and 607) while a
    thread's resume registered it on every spend turn and reader wait,
    each wait paid ``Simulator.event`` and ``Event.__init__``, and a
    spawn ``Simulator.process``, ``hasattr`` and ``Initialize.__init__``;
    631 and 622 (under ceilings of 635 and 626) while header
    prediction took data only when its ACK advanced nothing, so each
    echo segment, which ACKs the last one sent the other way, took the
    general input path, and a write read the send room through the
    ``Tcb.send_buffer_space`` property twice; 699 and 694 (under
    ceilings of 703 and 698) while every thread's CPU charge was an
    event its process yielded and was resumed from; 739 and 734 while every segment, TCP event and action,
    datagram, link fact and demux decision was a dataclass built
    through ``__init__``; 868 and 863 while each segment left its library as three
    chains (TCP, IP, link), its checksums summed through
    ``pseudo_header``, ``checksum_parts`` and ``internet_checksum``,
    and the send-template check walked the chain; 1011 and 1027 while the library's send and receive, the
    runner's action executor and the channel's semaphore wait were
    generator frames that only delegated, and a timer-only step ran a
    generator of its own; 975 and 976 while every timer re-arm and
    cancel retired an engine event and ``recv_exactly`` was a frame
    above the runner's read; 953 and 954 while every CPU charge was a
    ``Serial.hold`` frame and a ``schedule_at`` frame; 893 and 900
    while a ``call_later`` (a link delivery, a TCP timer, AN1's DMA)
    paid its own frame, a ``schedule_at`` frame and a lambda, and a
    link turn a ``wire_time``, ``start``, ``faults.inert`` and
    ``_next_staged`` frame.
    """
    bed = Testbed(network=network, organization="userlib")
    echo(bed)
    bed.run(until=2 * GAP)
    assert profiled_calls(lambda: bed.run(until=3 * GAP)) <= ceiling


@pytest.mark.parametrize("network", ["ethernet", "an1"])
def test_library_send_charges_four_frames_down(network):
    """Every CPU charge of a library send — socket op, timer op, TCP
    output, fast trap, template check, PIO or DMA set-up — is issued at
    most four generator frames below the application's: the runner's
    write, the library's emit, the module's send, the driver.  It was
    six while ``LibraryConnection.send`` and the runner's action
    executor were frames that only delegated."""
    bed = Testbed(network=network, organization="userlib")
    sending = []
    depths = []
    pinger = echo(bed, on_send=sending.append)
    cpu = bed.host_a.kernel.cpu
    spend = cpu.spend

    def spy(cost):
        if sending and sending[-1] and bed.sim.active_process is pinger:
            # A running generator's ``gi_yieldfrom`` reads None, so the
            # chain is counted on the interpreter stack instead.
            app, depth, frame = pinger._generator.gi_frame, 0, sys._getframe(1)
            while frame is not app:
                depth += bool(frame.f_code.co_flags & inspect.CO_GENERATOR)
                frame = frame.f_back
            depths.append(depth)
        return spend(cost)

    cpu.spend = spy
    bed.run()
    assert pinger.ok
    # Six charges a send, the first send's ARP aside.
    assert len(depths) >= 6 * (TRIPS - 1)
    assert max(depths) <= 4, depths
