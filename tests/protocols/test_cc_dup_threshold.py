"""The sabotage knob reaches every algorithm: ``dup_ack_threshold``
flows from TcpConfig through the registry into each implementation,
and a stack mis-tuned to threshold 1 is convicted by the campaign's
``retx-justified`` checker whichever algorithm is running."""

import pytest

from repro.check.campaign import CellSpec, run_cell
from repro.protocols.tcp import TcpConfig
from repro.protocols.tcp.cc import CC_ALGORITHMS, make_cc
from repro.protocols.tcp.tcb import Tcb

ALGOS = CC_ALGORITHMS + ("tahoe",)


@pytest.mark.parametrize("name", ALGOS)
def test_make_cc_threads_threshold(name):
    cc = make_cc(name, mss=1000, dup_threshold=1)
    assert cc.dup_threshold == 1
    # The very first duplicate ACK convicts — uniformly, even for the
    # rate-based model (which retransmits without cutting its window).
    assert cc.on_duplicate_ack(flight_size=8000) is True


@pytest.mark.parametrize("name", ALGOS)
def test_conformant_threshold_needs_three(name):
    cc = make_cc(name, mss=1000)
    assert cc.dup_threshold == 3
    assert cc.on_duplicate_ack(8000) is False
    assert cc.on_duplicate_ack(8000) is False
    assert cc.on_duplicate_ack(8000) is True


@pytest.mark.parametrize("name", ALGOS)
def test_tcb_threads_threshold_from_config(name):
    config = TcpConfig(cc=name, dup_ack_threshold=2)
    tcb = Tcb(local_port=1, remote_port=2, config=config)
    assert tcb.cc.dup_threshold == 2
    if name == "tahoe":
        assert tcb.cc.flavor == "tahoe"


@pytest.mark.parametrize("cc", CC_ALGORITHMS)
def test_sabotaged_stack_convicted_per_algorithm(cc):
    """End-to-end: threshold 1 + duplicated ACKs on the wire means
    premature retransmissions, and the campaign convicts the run no
    matter which algorithm is driving the window."""
    spec = CellSpec(
        topology="loopback",
        organization="userlib",
        seed=1,
        drop_rate=0.05,
        duplicate_rate=0.2,
        transfers=2,
        payload_bytes=16_384,
        deadline=60.0,
        dup_ack_threshold=1,
        cc=cc,
    )
    result = run_cell(spec)
    assert not result.ok, f"{cc}: sabotaged stack escaped conviction"
    assert any(
        v.invariant == "retx-justified" for v in result.violations
    ), f"{cc}: wrong invariant convicted: {result.violations}"


@pytest.mark.parametrize("cc", CC_ALGORITHMS)
def test_conformant_stack_passes_same_cell(cc):
    """The same hostile cell with the conformant threshold is clean —
    the conviction above is the knob's doing, not the faults'."""
    spec = CellSpec(
        topology="loopback",
        organization="userlib",
        seed=1,
        drop_rate=0.05,
        duplicate_rate=0.2,
        transfers=2,
        payload_bytes=16_384,
        deadline=60.0,
        cc=cc,
    )
    result = run_cell(spec)
    assert result.ok, f"{cc}: {result.violations}"
