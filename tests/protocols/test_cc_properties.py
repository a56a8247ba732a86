"""Property-based tests over the pluggable congestion-control API:
random interleavings of ACK / dup-ACK / RTT / timeout events must keep
every algorithm inside the shared invariants — window never below one
MSS, no NaN/infinity/overflow in any numeric state, multiplicative
floors respected — regardless of ordering or magnitudes."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.tcp.cc import CC_ALGORITHMS, make_cc
from repro.protocols.tcp.cc.base import MAX_WINDOW

MSS = 1000

#: One event: (kind, magnitude, dt).  Magnitude is acked bytes for
#: "ack", flight size for "dup"/"timeout", RTT seconds for "rtt".
EVENTS = st.lists(
    st.tuples(
        st.sampled_from(("ack", "dup", "timeout", "rtt")),
        st.integers(min_value=0, max_value=10 * MAX_WINDOW),
        st.floats(
            min_value=0.0, max_value=5.0,
            allow_nan=False, allow_infinity=False,
        ),
    ),
    min_size=1,
    max_size=120,
)


def drive(cc, events):
    """Apply one event sequence, with sim-time strictly accumulating."""
    now = 0.0
    for kind, magnitude, dt in events:
        now += dt
        if kind == "ack":
            cc.on_new_ack(magnitude, now, flight_size=magnitude)
        elif kind == "dup":
            cc.on_duplicate_ack(magnitude, now)
        elif kind == "timeout":
            cc.on_timeout(magnitude, now)
        else:
            cc.on_rtt_sample(max(1e-6, dt), now)
        check_shared_invariants(cc)


def check_shared_invariants(cc) -> None:
    # The effective window is always at least one segment and fits the
    # 16-bit header field.
    assert MSS <= cc.window <= MAX_WINDOW, (
        f"{cc.name}: window {cc.window} outside [{MSS}, {MAX_WINDOW}]"
    )
    # Every numeric knob stays a finite, non-NaN number.
    for attr in ("cwnd", "ssthresh", "dupacks"):
        value = getattr(cc, attr)
        assert isinstance(value, int), f"{cc.name}.{attr} drifted to {value!r}"
    assert cc.dupacks >= 0


@settings(max_examples=60, deadline=None)
@given(events=EVENTS)
def test_reno_interleavings(events):
    drive(make_cc("reno", mss=MSS), events)


@settings(max_examples=60, deadline=None)
@given(events=EVENTS)
def test_tahoe_interleavings(events):
    drive(make_cc("tahoe", mss=MSS), events)


@settings(max_examples=60, deadline=None)
@given(events=EVENTS)
def test_cubic_interleavings(events):
    cc = make_cc("cubic", mss=MSS)
    drive(cc, events)
    # Cubic-specific: the curve state never goes non-finite.
    assert math.isfinite(cc.w_max) and math.isfinite(cc.k)
    assert math.isfinite(cc.w_est)


@settings(max_examples=60, deadline=None)
@given(events=EVENTS)
def test_bbr_interleavings(events):
    cc = make_cc("bbr", mss=MSS)
    drive(cc, events)
    # BBR-specific: filters only ever hold finite positive samples.
    if cc.max_bw is not None:
        assert math.isfinite(cc.max_bw) and cc.max_bw >= 0
    if cc.min_rtt is not None:
        assert math.isfinite(cc.min_rtt) and cc.min_rtt > 0


@settings(max_examples=30, deadline=None)
@given(events=EVENTS)
def test_loss_based_ssthresh_floor(events):
    """Once any loss event happened, loss-based algorithms keep
    ssthresh at or above the two-segment floor."""
    for name in ("reno", "tahoe", "cubic"):
        cc = make_cc(name, mss=MSS)
        saw_loss = False
        now = 0.0
        for kind, magnitude, dt in events:
            now += dt
            if kind == "ack":
                cc.on_new_ack(magnitude, now, flight_size=magnitude)
            elif kind == "dup":
                if cc.on_duplicate_ack(magnitude, now):
                    saw_loss = True
            elif kind == "timeout":
                cc.on_timeout(magnitude, now)
                saw_loss = True
            if saw_loss:
                assert cc.ssthresh >= 2 * MSS


def test_every_algorithm_registered():
    assert set(CC_ALGORITHMS) == {"reno", "cubic", "bbr"}
    for name in CC_ALGORITHMS:
        cc = make_cc(name, mss=MSS)
        assert cc.mss == MSS
        assert cc.window >= MSS
