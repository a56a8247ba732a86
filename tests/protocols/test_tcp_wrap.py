"""Sequence wrap under loss: the machine is translation-invariant.

The TCB counts in unwrapped integers and meets the 32-bit circle only
where a segment arrives or is built, so where the circle happens to
wrap must change nothing: the same lossy, reordering channel run from
any pair of initial sequence numbers puts the same conversation on the
wire, shifted by the ISSs.
"""

import random

import pytest

from repro.net.headers import TCP_ACK
from repro.protocols.tcp import State, TcpConfig
from repro.protocols.tcp.seq import MOD

from .tcp_harness import TcpPair

TOTAL = 50 * 1024
STREAM = bytes(i * 7 % 251 for i in range(TOTAL))

#: (iss_a, iss_b) -> where that puts the wrap.
PLACEMENTS = {
    "handshake": (MOD - 1, MOD - 1),
    "mid-transfer": (MOD - 20000, MOD - 1),
    "fin": (MOD - TOTAL - 1, MOD - 2),  # a's FIN reads sequence 0.
    "half-circle": (1 << 31, (1 << 31) - 1),
    "zero": (0, 0),
}
FAR_FROM_WRAP = (1000, 9_000_000)


def lossy_transfer(iss_a: int, iss_b: int, seed: int):
    """50 KiB a→b through seeded loss (≈ 12 % of a's segments, 6 % of
    b's) and reorder-by-delay, then both close; returns the wire log
    with each direction's ISS subtracted."""
    rng = random.Random(seed)
    # Faults are a function of (direction, index) alone — drawn up
    # front, so no sequence number can steer them.
    fate = {
        direction: [(rng.random() < rate, rng.choice((0.005, 0.005, 0.009, 0.02)))
                    for _ in range(4000)]
        for direction, rate in (("a->b", 0.12), ("b->a", 0.06))
    }
    pair = TcpPair(
        config_a=TcpConfig(msl=0.5), config_b=TcpConfig(msl=0.5),
        drop=lambda direction, index, seg: fate[direction][index][0],
        latency_fn=lambda direction, index, seg: fate[direction][index][1],
        iss_a=iss_a, iss_b=iss_b,
    )
    pair.connect(run=False)
    pair.run(until=30.0)
    assert pair.a.connected and pair.b.connected
    sent = 0
    while sent < TOTAL:
        room = min(4096, pair.a.machine.tcb.send_buffer_space, TOTAL - sent)
        if room:
            pair.app_send("a", STREAM[sent : sent + room])
            sent += room
        pair.run(until=pair.now + 0.05)
    pair.app_close("a")
    pair.run(until=pair.now + 60.0)
    pair.app_close("b")
    pair.run(until=pair.now + 300.0)
    assert bytes(pair.b.received) == STREAM and pair.b.got_fin and pair.a.got_fin
    assert pair.a.machine.state is State.CLOSED and pair.b.machine.state is State.CLOSED
    assert pair.dropped, "the channel never lost anything"
    log = []
    for time, direction, seg in pair.wire_log:
        mine, theirs = (iss_a, iss_b) if direction == "a->b" else (iss_b, iss_a)
        ack = (seg.ack - theirs) % MOD if seg.flags & TCP_ACK else seg.ack
        log.append((time, direction, (seg.seq - mine) % MOD, ack,
                    seg.flags, seg.window, len(seg.payload)))
    return log, pair


@pytest.mark.parametrize("seed", [1993, 7, 42])
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_wire_log_is_the_same_wherever_the_circle_wraps(placement, seed):
    iss_a, iss_b = PLACEMENTS[placement]
    reference, _ = lossy_transfer(*FAR_FROM_WRAP, seed)
    log, pair = lossy_transfer(iss_a, iss_b, seed)
    assert log == reference
    # The run did cross what its name says (the TCB is past 2**32, the
    # wire is not), except where the placement is not at the top.
    if placement not in ("half-circle", "zero"):
        assert pair.a.machine.tcb.snd_nxt >= MOD
        assert all(0 <= seg.seq < MOD and 0 <= seg.ack < MOD for _, _, seg in pair.wire_log)
    assert pair.a.machine.stats["retransmits"] > 0
