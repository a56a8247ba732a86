"""The conformance invariants: machine-checkable properties every run
must satisfy, however hostile the network.

Each checker consumes :class:`~repro.check.evidence.RunEvidence` and
returns a :class:`CheckResult` — how much evidence it examined and the
violations it found.  The checkers only *read*; they never drive the
simulation, so a synthetic hand-written trace exercises them exactly
like a live one (which is how ``tests/check/test_invariants.py`` proves
each one actually fires).

The seven invariants:

``state-transitions``
    Every machine state change is an RFC-793-legal edge (including the
    simultaneous-open SYN-SENT→SYN-RECEIVED and simultaneous-close
    FIN-WAIT-1→CLOSING/TIME-WAIT edges; any state may fall to CLOSED on
    reset/abort/timeout).
``seq-ack-monotonic``
    Per direction, cumulative ACKs never move backwards, and no data
    segment overruns the peer's acknowledged point by more than the
    maximum window (plus one for the FIN).
``socket-integrity``
    Bytes a receiving socket delivers are always a prefix of what the
    sender's application wrote — no corruption, reordering, or
    duplication ever reaches the application — and a cleanly closed
    transfer delivered *everything*.
``retx-justified``
    A wire-level retransmission (a data segment whose range was already
    transmitted in full) happens only after a retransmission timeout
    (≥ the configured RTO floor) or after ≥ 3 duplicate ACKs — the
    conformant fast-retransmit threshold, judged regardless of how the
    stack under test was tuned.
``checksum-rejection``
    Every frame the injector corrupted is rejected by the receive path
    (link/IP/TCP header validation or checksum); a corrupted frame that
    re-decodes cleanly to the same connection is a checksum escape.  And
    every rejected copy appears in netstat's drop table as a header,
    checksum or address drop.
``fault-conservation``
    The injector's counters and the observed fault log agree; the
    faulted link's wire balances (frames − dropped + duplicated =
    frames its NICs received + unaddressed copies); a fault-free run
    with nothing in the drop table retransmits nothing; and the wire
    never shows more retransmissions than the machines account for.
``cc-sanity``
    Congestion control stays sane whatever the algorithm: no data
    segment overruns the largest window edge (ack + window) the peer
    ever advertised, beyond one MSS of in-flight slack; every
    retransmission timeout collapses the congestion window to one
    segment; and for loss-based algorithms every convicted loss
    multiplicatively shrinks ``ssthresh`` (to at most ``MD_FACTOR`` of
    the pre-loss window, above the standard two-segment floor).
    Rate-based models (BBR) are exempt from the multiplicative-decrease
    clause but not the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..net.headers import HeaderError
from ..protocols.tcp.seq import seq_diff
from ..protocols.tcp.tcb import State
from ..protocols.tcp.wire import ChecksumError
from .evidence import (
    RunEvidence,
    duplicated_ack_segments,
    strict_decode,
)

#: Maximum receive window a segment can be sent against (16-bit field).
MAX_WINDOW = 65535

#: The conformant duplicate-ACK threshold for fast retransmit.  The
#: checker judges against this constant even when the stack under test
#: was deliberately mis-tuned through ``TcpConfig.dup_ack_threshold``.
DUP_ACK_THRESHOLD = 3

#: Slack on the RTO-floor test: scheduling jitter between the timer
#: firing and the retransmission reaching the wire must not produce
#: false violations, while a premature fast retransmit (an RTT or two,
#: milliseconds in these testbeds) stays clearly below the floor.
RTO_TOLERANCE = 0.9


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough context to find it in a trace."""

    invariant: str
    subject: str  # Connection / transfer / machine the breach is on.
    time: float  # Sim time of the offending evidence (0 if run-level).
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.invariant}] t={self.time * 1e3:.3f}ms "
            f"{self.subject}: {self.detail}"
        )

    def as_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "subject": self.subject,
            "time": self.time,
            "detail": self.detail,
        }


@dataclass
class CheckResult:
    """One checker's verdict over a run."""

    invariant: str
    checked: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def fail(self, subject: str, time: float, detail: str) -> None:
        """Record one breach of this invariant."""
        self.violations.append(Violation(self.invariant, subject, time, detail))


# ----------------------------------------------------------------------
# 1. RFC 793 state-transition legality
# ----------------------------------------------------------------------

#: Legal RFC 793 edges (figure 6 plus the standard BSD additions).
LEGAL_TRANSITIONS = frozenset(
    {
        (State.CLOSED, State.LISTEN),
        (State.CLOSED, State.SYN_SENT),
        (State.LISTEN, State.SYN_RCVD),
        (State.LISTEN, State.SYN_SENT),
        (State.SYN_SENT, State.SYN_RCVD),  # Simultaneous open.
        (State.SYN_SENT, State.ESTABLISHED),
        (State.SYN_RCVD, State.ESTABLISHED),
        (State.SYN_RCVD, State.FIN_WAIT_1),
        (State.SYN_RCVD, State.LISTEN),
        (State.ESTABLISHED, State.FIN_WAIT_1),
        (State.ESTABLISHED, State.CLOSE_WAIT),
        (State.FIN_WAIT_1, State.FIN_WAIT_2),
        (State.FIN_WAIT_1, State.CLOSING),  # Simultaneous close.
        (State.FIN_WAIT_1, State.TIME_WAIT),  # FIN+ACK arrived together.
        (State.FIN_WAIT_2, State.TIME_WAIT),
        (State.CLOSE_WAIT, State.LAST_ACK),
        (State.CLOSING, State.TIME_WAIT),
    }
)


def check_state_transitions(evidence: RunEvidence) -> CheckResult:
    result = CheckResult("state-transitions", 0)
    for name, machine in evidence.machines:
        transitions = getattr(machine, "transitions", None) or []
        for old, new in transitions:
            result.checked += 1
            if new is State.CLOSED:
                continue  # Any state may fall to CLOSED (reset/abort).
            if (old, new) not in LEGAL_TRANSITIONS:
                result.fail(name, 0.0, f"illegal transition {old.value} -> {new.value}")
    return result


# ----------------------------------------------------------------------
# Shared per-connection wire bookkeeping
# ----------------------------------------------------------------------


def _connections(segments: list) -> dict:
    """Group time-ordered segments by connection key."""
    conns: dict[tuple, list] = {}
    for seg in segments:
        conns.setdefault(seg.conn_key, []).append(seg)
    return conns


class _DirectionState:
    """Sequence-space bookkeeping for one direction of one connection."""

    def __init__(self) -> None:
        self.base: int | None = None  # ISN: first seq seen this way.
        self.max_ack: int | None = None  # Highest cumulative ACK sent.
        #: Data transmissions: (time, rel_start, rel_end).
        self.tx_log: list[tuple[float, int, int]] = []
        #: Merged transmitted intervals in relative sequence space.
        self.covered: list[list[int]] = []
        #: Pure ACKs sent this way: (time, absolute ack value).
        self.acks: list[tuple[float, int]] = []

    def rel(self, seq: int) -> int:
        if self.base is None:
            self.base = seq
        return seq_diff(seq, self.base)

    def is_covered(self, start: int, end: int) -> bool:
        return any(s <= start and end <= e for s, e in self.covered)

    def cover(self, start: int, end: int) -> None:
        merged = [[start, end]]
        for s, e in self.covered:
            if e < start or s > end:
                merged.append([s, e])
            else:
                merged[0][0] = min(merged[0][0], s)
                merged[0][1] = max(merged[0][1], e)
        merged.sort()
        self.covered = merged

    def last_covering_tx(self, start: int, end: int) -> float:
        times = [t for t, s, e in self.tx_log if s <= start and end <= e]
        return max(times) if times else float("-inf")


def _describe_conn(key: tuple) -> str:
    from ..net.headers import ip_to_str

    (ip_a, port_a), (ip_b, port_b) = key
    return f"{ip_to_str(ip_a)}:{port_a}<->{ip_to_str(ip_b)}:{port_b}"


# ----------------------------------------------------------------------
# 2. Sequence/ACK monotonicity and window discipline
# ----------------------------------------------------------------------


def check_seq_ack(evidence: RunEvidence) -> CheckResult:
    result = CheckResult("seq-ack-monotonic", 0)
    for key, segs in _connections(evidence.segments).items():
        conn = _describe_conn(key)
        dirs: dict[tuple, _DirectionState] = {}
        for seg in segs:
            result.checked += 1
            d = dirs.setdefault(seg.endpoint, _DirectionState())
            rel_seq = d.rel(seg.seq)
            if seg.has_ack and not seg.rst:
                if d.max_ack is not None and seq_diff(seg.ack, d.max_ack) < 0:
                    result.fail(
                        conn, seg.time,
                        f"ACK moved backwards: {seg.ack} after "
                        f"{d.max_ack} ({seg.describe()})"
                    )
                if d.max_ack is None or seq_diff(seg.ack, d.max_ack) > 0:
                    d.max_ack = seg.ack
            if seg.data_len > 0 and not seg.rst:
                peer = dirs.get(seg.peer)
                if peer is not None and peer.max_ack is not None:
                    # All ACKs the peer ever put on the wire were
                    # captured before delivery, so the wire-side maximum
                    # is an upper bound on the sender's snd_una: the
                    # sender may not run more than one maximum window
                    # (plus the FIN's slot) beyond it.
                    rel_end = rel_seq + seg.data_len
                    limit = (
                        d.rel(peer.max_ack) + MAX_WINDOW + 1
                    )
                    if rel_end > limit:
                        result.fail(
                            conn, seg.time,
                            f"data beyond the offered window: seq end "
                            f"{rel_end} > acked+{MAX_WINDOW + 1} "
                            f"({seg.describe()})"
                        )
    return result


# ----------------------------------------------------------------------
# 3. Socket-visible data integrity
# ----------------------------------------------------------------------


def check_socket_integrity(evidence: RunEvidence) -> CheckResult:
    result = CheckResult("socket-integrity", 0)
    for t in evidence.transfers:
        result.checked += 1
        subject = f"transfer-{t.index}"
        if not t.payload.startswith(t.received):
            limit = min(len(t.payload), len(t.received))
            diverge = next(
                (
                    i
                    for i in range(limit)
                    if t.payload[i] != t.received[i]
                ),
                limit,
            )
            kind = (
                "duplicated/extra data"
                if len(t.received) > len(t.payload)
                else "corrupted or reordered data"
            )
            result.fail(
                subject, 0.0,
                f"{kind} reached the socket at offset {diverge} "
                f"(sent {len(t.payload)} bytes, got {len(t.received)})"
            )
            continue
        cleanly_closed = (
            t.client_done
            and t.server_done
            and not t.errors
            and t.client_close_reason == "done"
            and t.server_close_reason == "done"
        )
        if cleanly_closed and len(t.received) != len(t.payload):
            result.fail(
                subject, 0.0,
                f"clean close but only {len(t.received)} of "
                f"{len(t.payload)} bytes delivered"
            )
    return result


# ----------------------------------------------------------------------
# 4. Retransmissions only when justified
# ----------------------------------------------------------------------


def classify_retransmissions(segments: list) -> list[dict]:
    """Find wire-level retransmissions and judge each one.

    A data segment is a retransmission only when its *entire* byte range
    was previously offered to this link — a segment whose original was
    dropped upstream (a switch queue before the traced trunk) never
    appeared here and is deliberately not classified, and a
    retransmission that coalesces new bytes advances past prior coverage
    and is likewise skipped.  Each retransmission is justified by either
    elapsed time ≥ the RTO floor or ≥ 3 duplicate ACKs from the peer
    since the last covering transmission.
    """
    found = []
    for key, segs in _connections(segments).items():
        dirs: dict[tuple, _DirectionState] = {}
        for seg in segs:
            d = dirs.setdefault(seg.endpoint, _DirectionState())
            if seg.pure_ack:
                d.rel(seg.seq)
                d.acks.append((seg.time, seg.ack))
                continue
            if seg.data_len <= 0 or seg.rst:
                d.rel(seg.seq)
                continue
            start = d.rel(seg.seq)
            end = start + seg.data_len
            if d.is_covered(start, end):
                last_tx = d.last_covering_tx(start, end)
                peer = dirs.get(seg.peer)
                dup_acks = 0
                if peer is not None:
                    dup_acks = sum(
                        1
                        for ack_time, ack in peer.acks
                        if ack == seg.seq and ack_time > last_tx
                    )
                found.append(
                    {
                        "segment": seg,
                        "conn": key,
                        "elapsed": seg.time - last_tx,
                        "dup_acks": dup_acks,
                    }
                )
            d.tx_log.append((seg.time, start, end))
            d.cover(start, end)
    return found


def check_retransmissions(evidence: RunEvidence) -> CheckResult:
    result = CheckResult("retx-justified", 0)
    segments = evidence.segments
    extras = duplicated_ack_segments(evidence.fault_events, an1=evidence.an1)
    if extras:
        segments = sorted(segments + extras, key=lambda s: s.time)
    retx = classify_retransmissions(segments)
    result.checked = len(retx)
    floor = RTO_TOLERANCE * evidence.min_rto
    for r in retx:
        seg = r["segment"]
        if r["dup_acks"] >= DUP_ACK_THRESHOLD:
            continue
        if r["elapsed"] >= floor:
            continue
        result.fail(
            _describe_conn(r["conn"]), seg.time,
            f"unjustified retransmission after {r['elapsed'] * 1e3:.3f}ms "
            f"with only {r['dup_acks']} duplicate ACK(s) "
            f"({seg.describe()})"
        )
    return result


# ----------------------------------------------------------------------
# 5. Checksum rejection of corrupted frames
# ----------------------------------------------------------------------


#: The drop-table reasons a receiver gives a corrupted frame it rejects.
REJECTION_REASONS = frozenset({"header", "checksum", "address"})


def check_checksums(evidence: RunEvidence) -> CheckResult:
    result = CheckResult("checksum-rejection", 0)
    rejected = 0
    for event in evidence.fault_events:
        if not event.plan.corrupted or not event.plan.deliveries:
            continue
        mutated = event.plan.deliveries[0][1]
        result.checked += 1
        try:
            decoded = strict_decode(mutated, an1=evidence.an1)
        except (HeaderError, ChecksumError, ValueError, IndexError):
            # Rejected, as required: every copy delivered must be counted.
            rejected += len(event.plan.deliveries)
            continue
        if decoded is None:
            continue  # Corruption turned it into non-TCP traffic.
        try:
            original = strict_decode(event.frame, an1=evidence.an1)
        except (HeaderError, ChecksumError, ValueError, IndexError):
            original = None
        if original is None:
            continue  # Not a TCP frame to begin with.
        same_path = all(
            decoded[k] == original[k]
            for k in ("link_dst", "src_ip", "dst_ip", "sport", "dport")
        )
        if same_path and decoded["segment"] != original["segment"]:
            result.fail(
                f"{decoded['src_ip']}:{decoded['sport']}->"
                f"{decoded['dst_ip']}:{decoded['dport']}",
                event.time,
                "corrupted frame passed every checksum and decoded "
                f"to a different segment: {decoded['segment']!r}",
            )
    # The other half: a receiver that rejects a frame says so.
    rows = evidence.drops or ()
    counted = sum(row.count for row in rows if row.reason in REJECTION_REASONS)
    if evidence.drops is not None and counted < rejected:
        result.fail("drop-table", 0.0, f"{rejected} corrupted deliveries fail the strict "
                    f"decode; the drop table has {counted} header, checksum or address drops")
    return result


# ----------------------------------------------------------------------
# 6. Fault conservation
# ----------------------------------------------------------------------


def check_conservation(evidence: RunEvidence) -> CheckResult:
    result = CheckResult("fault-conservation", 1)
    inj = evidence.injector_stats
    # (a) The observed fault log and the injector's counters agree.
    if evidence.fault_events:
        observed = {
            "dropped": sum(1 for e in evidence.fault_events if e.plan.dropped),
            "corrupted": sum(
                1 for e in evidence.fault_events if e.plan.corrupted
            ),
            "duplicated": sum(
                1 for e in evidence.fault_events if e.duplicated
            ),
        }
        for kind, count in observed.items():
            if count != inj.get(kind, 0):
                result.fail(
                    "fault-log", 0.0,
                    f"observed {count} {kind} frames but the injector "
                    f"counted {inj.get(kind, 0)}"
                )
    # (b) The wire balances: every frame the link carried, less the
    # injector's drops and plus its duplicates, reached a receiving NIC
    # or was counted as addressed to none.
    if evidence.arrivals is not None:
        link = evidence.link_stats
        copies = link.get("frames", 0) - inj.get("dropped", 0) + inj.get("duplicated", 0)
        landed = evidence.arrivals + link.get("unaddressed", 0)
        if copies != landed:
            result.fail("wire", 0.0, f"the link delivered {copies} copies, "
                        f"{landed} of them received or unaddressed")
    # (c) Retransmissions need a cause: on a fault-free run that dropped
    # nothing anywhere, nothing may be retransmitted (the RTO floor exceeds
    # the delayed-ACK interval: no benign timeout excuses it).
    total_faults = sum(
        inj.get(k, 0) for k in ("dropped", "corrupted", "duplicated", "delayed")
    )
    machine_retx = sum(
        getattr(m, "stats", {}).get("retransmits", 0)
        for _, m in evidence.machines
    )
    wire_retx = len(classify_retransmissions(evidence.segments))
    dropped = sum(row.count for row in evidence.drops or ())
    if total_faults == 0 and dropped == 0 and machine_retx > 0:
        result.fail(
            "run", 0.0,
            f"{machine_retx} retransmission(s) on a fault-free, "
            "drop-free network"
        )
    # (d) The wire cannot show more retransmissions than the machines
    # performed (only meaningful when every endpoint was captured).
    all_machines_known = evidence.transfers and all(
        t.client_machine is not None and t.server_machine is not None
        for t in evidence.transfers
    )
    if all_machines_known and wire_retx > machine_retx:
        result.fail(
            "run", 0.0,
            f"{wire_retx} retransmissions on the wire but the machines "
            f"only account for {machine_retx}"
        )
    return result


# ----------------------------------------------------------------------
# 7. Congestion-control sanity
# ----------------------------------------------------------------------

#: Loss-based algorithms must cut ssthresh to at most this fraction of
#: the pre-loss window.  Reno halves (0.5) and CUBIC uses β=0.7; 0.8
#: convicts anything that fails to shrink multiplicatively while
#: leaving both conformant responses clear headroom.
MD_FACTOR = 0.8


def check_cc_sanity(evidence: RunEvidence) -> CheckResult:
    result = CheckResult("cc-sanity", 0)

    # (a) Wire discipline: a sender never puts data beyond the largest
    # window edge (ack + window) its peer ever advertised, plus one
    # estimated MSS of slack for the segment racing the window update.
    # The trace captures every ACK pre-fault, so the running maximum is
    # an upper bound on any edge the sender could have believed.
    for key, segs in _connections(evidence.segments).items():
        conn = _describe_conn(key)
        dirs: dict[tuple, _DirectionState] = {}
        edges: dict[tuple, int] = {}  # endpoint -> max granted rel edge
        mss_est: dict[tuple, int] = {}  # endpoint -> largest data seg
        for seg in segs:
            d = dirs.setdefault(seg.endpoint, _DirectionState())
            rel_seq = d.rel(seg.seq)
            if seg.has_ack and not seg.rst:
                # This ACK grants the *peer* room, measured in the
                # peer's relative sequence space.
                peer = dirs.get(seg.peer)
                if peer is not None and peer.base is not None:
                    edge = peer.rel(seg.ack) + seg.window
                    if edge > edges.get(seg.peer, -1):
                        edges[seg.peer] = edge
            if seg.data_len > 0 and not seg.rst:
                result.checked += 1
                est = max(mss_est.get(seg.endpoint, 0), seg.data_len)
                mss_est[seg.endpoint] = est
                edge = edges.get(seg.endpoint)
                rel_end = rel_seq + seg.data_len
                if edge is not None and rel_end > edge + est + 1:
                    result.fail(
                        conn, seg.time,
                        f"data burst beyond the advertised window: "
                        f"seq end {rel_end} > edge {edge} + mss "
                        f"{est} slack ({seg.describe()})"
                    )

    # (b) Machine-side window response: every convicted loss in the
    # machines' cc_events log must show the required reaction.
    for name, machine in evidence.machines:
        for ev in getattr(machine, "cc_events", None) or []:
            result.checked += 1
            mss = ev.get("mss", 0) or 0
            kind = ev.get("kind")
            if kind == "timeout":
                # Every algorithm collapses to one segment on RTO.
                if ev.get("cwnd_after", 0) > mss:
                    result.fail(
                        name, ev.get("time", 0.0),
                        f"RTO did not collapse cwnd to one segment: "
                        f"cwnd {ev.get('cwnd_after')} > mss {mss}"
                    )
                continue
            if kind == "fast_retransmit" and ev.get("loss_based", True):
                window = max(ev.get("cwnd_before", 0), ev.get("flight", 0))
                limit = max(int(MD_FACTOR * window), 2 * mss)
                if ev.get("ssthresh_after", 0) > limit:
                    result.fail(
                        name, ev.get("time", 0.0),
                        f"no multiplicative decrease on convicted "
                        f"loss: ssthresh {ev.get('ssthresh_after')} > "
                        f"{limit} (window was {window})"
                    )
    return result


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

INVARIANTS = (
    ("state-transitions", check_state_transitions),
    ("seq-ack-monotonic", check_seq_ack),
    ("socket-integrity", check_socket_integrity),
    ("retx-justified", check_retransmissions),
    ("checksum-rejection", check_checksums),
    ("fault-conservation", check_conservation),
    ("cc-sanity", check_cc_sanity),
)


def check_all(evidence: RunEvidence) -> list[CheckResult]:
    """Run every invariant checker over one run's evidence."""
    return [checker(evidence) for _, checker in INVARIANTS]
