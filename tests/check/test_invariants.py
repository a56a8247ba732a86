"""Every invariant checker must *fire*: one known-violating synthetic
trace per invariant, plus the conformant shape it must not flag."""

from repro import netstat
from repro.check.campaign import grid_specs, run_cell
from repro.check.evidence import FaultEvent, RunEvidence, WireSegment
from repro.check.invariants import (
    check_all,
    check_checksums,
    check_conservation,
    check_retransmissions,
    check_seq_ack,
    check_socket_integrity,
    check_state_transitions,
)
from repro.metrics import CheckedTransfer
from repro.net.faults import FaultPlan
from repro.net.headers import (
    ETHERTYPE_IP,
    PROTO_TCP,
    TCP_ACK,
    EthernetHeader,
    Ipv4Header,
    str_to_ip,
    str_to_mac,
)
from repro.netstat import DropEntry, invariant_table, render_invariants
from repro.protocols.tcp import Segment, State
from repro.protocols.tcp.wire import encode_segment

IP_A = str_to_ip("10.0.0.1")
IP_B = str_to_ip("10.0.0.2")
MAC_A = str_to_mac("02:00:00:00:00:01")
MAC_B = str_to_mac("02:00:00:00:00:02")


def seg(time, direction, seq, ack=0, flags=TCP_ACK, data_len=0, window=16384):
    """A synthetic wire capture: 'a' is 10.0.0.1:1000 -> 10.0.0.2:2000."""
    if direction == "a":
        src, sport, dst, dport = IP_A, 1000, IP_B, 2000
    else:
        src, sport, dst, dport = IP_B, 2000, IP_A, 1000
    return WireSegment(
        time=time, src_ip=src, dst_ip=dst, sport=sport, dport=dport,
        seq=seq, ack=ack, flags=flags, window=window, data_len=data_len,
    )


class StubMachine:
    def __init__(self, transitions, retransmits=0):
        self.transitions = transitions
        self.stats = {"retransmits": retransmits}


# ----------------------------------------------------------------------
# state-transitions
# ----------------------------------------------------------------------


def test_state_checker_fires_on_illegal_transition():
    machine = StubMachine([(State.LISTEN, State.ESTABLISHED)])
    result = check_state_transitions(RunEvidence(machines=[("m", machine)]))
    assert len(result.violations) == 1
    assert "LISTEN" in result.violations[0].detail


def test_state_checker_accepts_simultaneous_open_and_resets():
    machine = StubMachine(
        [
            (State.CLOSED, State.SYN_SENT),
            (State.SYN_SENT, State.SYN_RCVD),  # Simultaneous open.
            (State.SYN_RCVD, State.ESTABLISHED),
            (State.ESTABLISHED, State.CLOSED),  # Reset: always legal.
        ]
    )
    result = check_state_transitions(RunEvidence(machines=[("m", machine)]))
    assert result.ok
    assert result.checked == 4


# ----------------------------------------------------------------------
# seq-ack-monotonic
# ----------------------------------------------------------------------


def test_seq_ack_checker_fires_on_backward_ack():
    segments = [
        seg(0.00, "a", seq=100, ack=5000),
        seg(0.01, "a", seq=100, ack=4000),  # ACK moved backwards.
    ]
    result = check_seq_ack(RunEvidence(segments=segments))
    assert len(result.violations) == 1
    assert "backwards" in result.violations[0].detail


def test_seq_ack_checker_fires_on_window_overrun():
    segments = [
        seg(0.00, "a", seq=1000, data_len=100),
        seg(0.01, "b", seq=50, ack=1100),  # Peer acknowledges 1100.
        # Way past acked + max window (1100 + 65536): a gross overrun.
        seg(0.02, "a", seq=1100 + 65536 + 5000, data_len=100),
    ]
    result = check_seq_ack(RunEvidence(segments=segments))
    assert len(result.violations) == 1
    assert "window" in result.violations[0].detail


def test_seq_ack_checker_accepts_normal_flow():
    segments = [
        seg(0.00, "a", seq=1000, data_len=100),
        seg(0.01, "b", seq=50, ack=1100),
        seg(0.02, "a", seq=1100, data_len=100),
        seg(0.03, "b", seq=50, ack=1200),
    ]
    assert check_seq_ack(RunEvidence(segments=segments)).ok


# ----------------------------------------------------------------------
# socket-integrity
# ----------------------------------------------------------------------


def _transfer(payload, received, done=True, reason="done"):
    return CheckedTransfer(
        index=0, port=7000, payload=payload, received=received,
        client_done=done, server_done=done,
        client_close_reason=reason, server_close_reason=reason,
    )


def test_socket_checker_fires_on_corruption():
    ev = RunEvidence(transfers=[_transfer(b"abcdef", b"abXdef")])
    result = check_socket_integrity(ev)
    assert len(result.violations) == 1
    assert "offset 2" in result.violations[0].detail


def test_socket_checker_fires_on_duplicated_tail():
    ev = RunEvidence(transfers=[_transfer(b"abc", b"abcabc")])
    result = check_socket_integrity(ev)
    assert len(result.violations) == 1
    assert "duplicated" in result.violations[0].detail


def test_socket_checker_fires_on_loss_despite_clean_close():
    ev = RunEvidence(transfers=[_transfer(b"abcdef", b"abc")])
    result = check_socket_integrity(ev)
    assert len(result.violations) == 1
    assert "clean close" in result.violations[0].detail


def test_socket_checker_tolerates_truncation_on_failed_transfer():
    # A transfer that gave up (timeout) may be short — but never wrong.
    ev = RunEvidence(
        transfers=[_transfer(b"abcdef", b"abc", done=False, reason="timeout")]
    )
    assert check_socket_integrity(ev).ok


# ----------------------------------------------------------------------
# retx-justified
# ----------------------------------------------------------------------


def test_retx_checker_fires_on_unjustified_retransmission():
    segments = [
        seg(0.000, "a", seq=1000, data_len=100),
        seg(0.010, "a", seq=1000, data_len=100),  # 10ms, no dup ACKs.
    ]
    result = check_retransmissions(RunEvidence(segments=segments))
    assert result.checked == 1
    assert len(result.violations) == 1
    assert "unjustified" in result.violations[0].detail


def test_retx_checker_accepts_fast_retransmit_after_three_dup_acks():
    segments = [
        seg(0.000, "a", seq=1000, data_len=100),
        seg(0.001, "b", seq=50, ack=1000),
        seg(0.002, "b", seq=50, ack=1000),
        seg(0.003, "b", seq=50, ack=1000),
        seg(0.004, "a", seq=1000, data_len=100),  # Fast retransmit.
    ]
    result = check_retransmissions(RunEvidence(segments=segments))
    assert result.checked == 1
    assert result.ok


def test_retx_checker_accepts_timeout_retransmission():
    segments = [
        seg(0.000, "a", seq=1000, data_len=100),
        seg(0.600, "a", seq=1000, data_len=100),  # Past the RTO floor.
    ]
    result = check_retransmissions(
        RunEvidence(segments=segments, min_rto=0.5)
    )
    assert result.checked == 1
    assert result.ok


def test_retx_checker_skips_segment_with_new_bytes():
    # A "retransmission" that coalesces fresh data advances coverage and
    # is not judged (the fresh bytes were never transmitted before).
    segments = [
        seg(0.000, "a", seq=1000, data_len=100),
        seg(0.010, "a", seq=1000, data_len=200),
    ]
    result = check_retransmissions(RunEvidence(segments=segments))
    assert result.checked == 0
    assert result.ok


# ----------------------------------------------------------------------
# checksum-rejection
# ----------------------------------------------------------------------


def _tcp_frame(payload):
    body = encode_segment(
        Segment(
            sport=1000, dport=2000, seq=1, ack=1,
            flags=TCP_ACK, window=8192, payload=payload,
        ),
        IP_A, IP_B,
    )
    ip = Ipv4Header(
        src=IP_A, dst=IP_B, protocol=PROTO_TCP,
        total_length=Ipv4Header.LENGTH + len(body),
    )
    eth = EthernetHeader(dst=MAC_B, src=MAC_A, ethertype=ETHERTYPE_IP)
    return eth.pack() + ip.pack() + body.tobytes()


def test_checksum_checker_fires_on_collision():
    # A corruption that *recomputes* the checksums models the worst case:
    # damage the protocol checksum cannot see.  The checker must flag it.
    original = _tcp_frame(b"hello")
    forged = _tcp_frame(b"jello")
    event = FaultEvent(
        time=0.01, frame=original,
        plan=FaultPlan(deliveries=((0.0, forged),), corrupted=True),
    )
    result = check_checksums(RunEvidence(fault_events=[event]))
    assert result.checked == 1
    assert len(result.violations) == 1
    assert "passed every checksum" in result.violations[0].detail


def test_checksum_checker_accepts_detectable_corruption():
    # A real single-bit flip breaks the internet checksum; the receive
    # path rejects it and the invariant is satisfied.
    original = _tcp_frame(b"hello")
    flipped = bytearray(original)
    flipped[-3] ^= 0x10  # Inside the TCP payload.
    event = FaultEvent(
        time=0.01, frame=original,
        plan=FaultPlan(deliveries=((0.0, bytes(flipped)),), corrupted=True),
    )
    result = check_checksums(RunEvidence(fault_events=[event]))
    assert result.checked == 1
    assert result.ok


def test_checksum_checker_fires_on_a_rejection_the_drop_table_lacks():
    # The receiver must also say that it dropped the frame: a corrupted
    # copy the strict decode rejects needs a header, checksum or address
    # row in the drop table.
    original = _tcp_frame(b"hello")
    flipped = bytearray(original)
    flipped[-3] ^= 0x10
    event = FaultEvent(
        time=0.01, frame=original,
        plan=FaultPlan(deliveries=((0.0, bytes(flipped)),), corrupted=True),
    )
    silent = check_checksums(RunEvidence(fault_events=[event], drops=[]))
    assert [v.subject for v in silent.violations] == ["drop-table"]
    unrelated = [DropEntry("bob", "queue", 1)]
    assert not check_checksums(RunEvidence(fault_events=[event], drops=unrelated)).ok
    counted = [DropEntry("bob", "checksum", 1)]
    assert check_checksums(RunEvidence(fault_events=[event], drops=counted)).ok


#: The full reno grid's first userlib corruption cell: one corrupted
#: copy reaches the library, which rejects it on its TCP checksum.
CHECKSUM_CELL = "loopback/userlib cc=reno seed=98 drop=0.0 corrupt=0.01 "


def _checksum_cell():
    (spec,) = [s for s in grid_specs() if s.label.startswith(CHECKSUM_CELL)]
    return spec


def test_checksum_rejection_passes_the_full_grid_cell():
    """The campaign cell this gate is shown failing on below passes as
    the library is."""
    assert run_cell(_checksum_cell()).ok


def test_checksum_rejection_convicts_a_library_that_drops_silently(monkeypatch):
    """The same cell with the TCP checksum row taken out of netstat's
    drop table — a receiver that discards a corrupted segment without
    saying so — is convicted on ``checksum-rejection``.  The quick
    grid's userlib cells pass under this sabotage (the library rejects
    nothing in them), so this cell is the gate's demonstration."""
    monkeypatch.setitem(netstat.DROP_REASONS, "tcp", {})
    result = run_cell(_checksum_cell())
    assert [v.invariant for v in result.violations] == ["checksum-rejection"]


# ----------------------------------------------------------------------
# fault-conservation
# ----------------------------------------------------------------------


def test_conservation_fires_on_wire_imbalance():
    # 10 frames, 2 dropped, 1 duplicated: 9 copies, but the NICs saw 7
    # and 1 was unaddressed.
    link = {"frames": 10, "unaddressed": 1}
    injector = {"dropped": 2, "corrupted": 0, "duplicated": 1, "delayed": 0}

    def run(arrivals):
        return check_conservation(
            RunEvidence(link_stats=link, injector_stats=injector, arrivals=arrivals)
        )

    assert [v.subject for v in run(7).violations] == ["wire"]
    assert run(8).ok


def test_conservation_fires_on_retransmit_without_cause():
    machine = StubMachine([], retransmits=3)
    ev = RunEvidence(machines=[("m", machine)])
    result = check_conservation(ev)
    assert any("fault-free" in v.detail for v in result.violations)
    # A drop anywhere in the table is a cause.
    ev.drops = [DropEntry("r0-eth1", "no buffer", 1)]
    assert check_conservation(ev).ok


def test_conservation_fires_on_fault_log_mismatch():
    event = FaultEvent(
        time=0.0, frame=b"x",
        plan=FaultPlan(deliveries=(), dropped=True),
    )
    ev = RunEvidence(fault_events=[event])  # Injector says 0 drops.
    result = check_conservation(ev)
    assert any("injector counted 0" in v.detail for v in result.violations)


def test_conservation_accepts_consistent_run():
    ev = RunEvidence(
        injector_stats={
            "dropped": 0, "corrupted": 0, "duplicated": 0, "delayed": 0,
        },
        link_stats={"dropped": 0, "corrupted": 0, "duplicated": 0},
        machines=[("m", StubMachine([]))],
    )
    assert check_conservation(ev).ok


# ----------------------------------------------------------------------
# Queue-induced loss: RED vs tail-drop under the checkers
# ----------------------------------------------------------------------


def _congested_dumbbell(red):
    from repro.check.evidence import collect_evidence
    from repro.testbed import FabricTestbed

    bed = FabricTestbed(
        kind="dumbbell", organization="userlib", pairs=3,
        queue_bytes=6000, red=red, red_seed=5,
    )
    evidence = collect_evidence(
        bed, transfers=3, payload_bytes=120_000, seed=4, deadline=60.0,
    )
    return bed, evidence


def test_taildrop_congestion_satisfies_all_invariants():
    bed, evidence = _congested_dumbbell(red=False)
    results = check_all(evidence)
    assert all(r.ok for r in results), [
        str(v) for r in results for v in r.violations
    ]
    # The loss really happened — at the queue, not the injector — and the
    # conservation checker must attribute retransmits to it.
    assert any(row.reason == "queue" for row in evidence.drops)
    assert evidence.injector_stats["dropped"] == 0
    queue = bed.bottleneck.queue
    assert queue.stats["dropped"] > 0
    assert queue.stats.get("early_dropped", 0) == 0


def test_red_congestion_satisfies_all_invariants():
    bed, evidence = _congested_dumbbell(red=True)
    results = check_all(evidence)
    assert all(r.ok for r in results), [
        str(v) for r in results for v in r.violations
    ]
    assert any(row.reason == "queue" for row in evidence.drops)
    # RED drops early, before the queue is full.
    assert bed.bottleneck.queue.stats.get("early_dropped", 0) > 0


# ----------------------------------------------------------------------
# netstat summary table
# ----------------------------------------------------------------------


def test_invariant_table_renders_verdicts():
    machine = StubMachine([(State.LISTEN, State.ESTABLISHED)])
    results = check_all(RunEvidence(machines=[("m", machine)]))
    entries = invariant_table(results)
    assert len(entries) == 7
    text = render_invariants(results)
    assert "state-transitions" in text
    assert "VIOLATED" in text
    assert "fault-conservation" in text
    assert "cc-sanity" in text
