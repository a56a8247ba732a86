"""Scripted ACK traces through the BBR-style model: filter behaviour,
the startup → drain → probe_bw phase transitions, gain cycling, and
the no-decrease-on-loss contract."""

import math

from repro.protocols.tcp.cc import make_cc
from repro.protocols.tcp.cc.bbr import (
    DRAIN_GAIN,
    PROBE_GAINS,
    STARTUP_GAIN,
)

MSS = 1000
RTT = 0.01  # 10 ms path.


def feed(cc, bandwidth: float, start: float, rounds: int, rtt: float = RTT):
    """Deliver ``rounds`` RTTs of ACKs at ``bandwidth`` bytes/sec,
    one ACK per RTT (enough to emit one rate sample per round)."""
    now = start
    for _ in range(rounds):
        now += rtt
        cc.on_rtt_sample(rtt, now)
        cc.on_new_ack(int(bandwidth * rtt), now, flight_size=cc.cwnd)
    return now


def test_filters_track_max_bw_and_min_rtt():
    cc = make_cc("bbr", mss=MSS)
    now = feed(cc, 1e6, 0.0, 5)
    cc.on_rtt_sample(RTT * 3, now + RTT)  # Queueing-inflated sample.
    assert cc.min_rtt == RTT  # Min filter keeps the clean sample.
    assert cc.max_bw is not None
    assert math.isclose(cc.max_bw, 1e6, rel_tol=0.01)


def test_filter_window_expires_old_samples():
    cc = make_cc("bbr", mss=MSS)
    cc.on_rtt_sample(0.001, 0.0)
    cc.on_rtt_sample(0.005, 11.0)  # 11 s later: the 1 ms sample aged out.
    assert cc.min_rtt == 0.005


def test_startup_grows_exponentially_until_full_pipe():
    cc = make_cc("bbr", mss=MSS)
    assert cc.state == "startup"
    assert cc.cwnd == 4 * MSS  # BBR's 4-segment initial window.
    start_cwnd = cc.cwnd
    feed(cc, 1e6, 0.0, 2)
    assert cc.state == "startup"
    assert cc.pacing_gain == STARTUP_GAIN
    assert cc.cwnd > start_cwnd  # cwnd += acked while starting up.


def test_full_pipe_detection_enters_drain_then_probe():
    """Three consecutive non-growing bandwidth updates end startup;
    drain holds cwnd at the BDP cap until flight <= BDP."""
    cc = make_cc("bbr", mss=MSS)
    # The pipe is stuck at 1 MB/s: the first ACK arms the accumulator,
    # the first sample grows the filter, then three more fail to beat
    # it by 25% -> full pipe.
    now = feed(cc, 1e6, 0.0, 6)
    assert cc.state == "drain"
    assert cc.pacing_gain == DRAIN_GAIN
    bdp = cc.bdp
    assert bdp is not None
    # Flight above BDP: still draining, window pinned to the cap.
    cc.on_new_ack(MSS, now + RTT, flight_size=int(10 * bdp))
    assert cc.state == "drain"
    assert cc.cwnd == max(int(cc.cwnd_gain * cc.bdp), 4 * MSS)
    # Flight sinks to BDP: steady state begins.
    cc.on_new_ack(MSS, now + 2 * RTT, flight_size=int(bdp * 0.5))
    assert cc.state == "probe_bw"


def drained(bandwidth: float = 1e6):
    """A model pushed through startup and drain into probe_bw."""
    cc = make_cc("bbr", mss=MSS)
    now = feed(cc, bandwidth, 0.0, 6)
    assert cc.state == "drain"
    cc.on_new_ack(MSS, now + RTT, flight_size=0)
    assert cc.state == "probe_bw"
    return cc, now + RTT


def test_probe_bw_cycles_gains_per_interval():
    cc, now = drained()
    seen = [cc.pacing_gain]
    for i in range(len(PROBE_GAINS)):
        # Step past one min-RTT interval: the cycle advances by one.
        now += cc.min_rtt + 1e-6
        cc.on_rtt_sample(RTT, now)
        cc.on_new_ack(MSS, now, flight_size=cc.cwnd)
        seen.append(cc.pacing_gain)
    # One full rotation: every configured gain appears, in order.
    start = seen.index(PROBE_GAINS[0])
    rotation = seen[start:start + len(PROBE_GAINS)]
    assert rotation == list(PROBE_GAINS)
    assert seen[start + len(PROBE_GAINS)] == PROBE_GAINS[0]  # Wraps.


def test_probe_bw_caps_inflight_at_gain_scaled_bdp():
    cc, now = drained()
    now += cc.min_rtt + 1e-6
    cc.on_new_ack(MSS, now, flight_size=cc.cwnd)
    bdp = cc.bdp
    expected = max(
        int(cc.cwnd_gain * bdp * min(1.0, cc.pacing_gain)), 4 * MSS
    )
    assert cc.cwnd == expected
    # The yield gain (0.75) pulls the cap below cwnd_gain * BDP.
    while cc.pacing_gain != 0.75:
        now += cc.min_rtt + 1e-6
        cc.on_new_ack(MSS, now, flight_size=cc.cwnd)
    assert cc.cwnd <= int(cc.cwnd_gain * cc.bdp * 0.75) or cc.cwnd == 4 * MSS


def test_duplicate_acks_convict_without_window_cut():
    cc, _ = drained()
    cwnd_before = cc.cwnd
    assert cc.on_duplicate_ack(cc.cwnd) is False
    assert cc.on_duplicate_ack(cc.cwnd) is False
    assert cc.on_duplicate_ack(cc.cwnd) is True  # Retransmit the hole...
    assert cc.cwnd == cwnd_before  # ...but the model keeps its window.
    assert cc.ssthresh == cc.ssthresh  # Untouched (vestigial).


def test_timeout_collapses_but_filters_survive():
    cc, now = drained()
    bw = cc.max_bw
    cc.on_timeout(cc.cwnd, now)
    assert cc.cwnd == MSS
    assert cc.window == MSS
    assert cc.max_bw == bw  # The path model is not forgotten.
    # Recovery: the next ACKs re-derive the window from the filters.
    now += RTT
    cc.on_new_ack(MSS, now, flight_size=0)
    assert cc.cwnd >= 4 * MSS


def test_set_mss_keeps_four_segment_floor():
    cc = make_cc("bbr", mss=1460)
    cc.set_mss(536)
    assert cc.cwnd == 4 * 536
    assert cc.window == 4 * 536
