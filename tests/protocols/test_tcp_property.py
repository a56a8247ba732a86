"""Property-based tests: TCP delivers exactly the sent stream, in order,
under adversarial network conditions."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.protocols.tcp import State, TcpConfig

from .tcp_harness import TcpPair

#: Keep RTO small so lossy runs converge quickly in simulated time.
FAST = dict(msl=0.2, min_rto=0.3, initial_rto=0.5, mss=300)


def make_pair(drop_set_ab=(), drop_set_ba=(), dup_set=(), latencies=None):
    def drop(direction, index, segment):
        if direction == "a->b":
            return index in drop_set_ab
        return index in drop_set_ba

    def dup(direction, index, segment):
        return direction == "a->b" and index in dup_set

    latency_fn = None
    if latencies:
        def latency_fn(direction, index, segment):
            return 0.005 + latencies[index % len(latencies)]

    return TcpPair(
        config_a=TcpConfig(**FAST),
        config_b=TcpConfig(**FAST),
        drop=drop,
        dup=dup,
        latency_fn=latency_fn,
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    payload=st.binary(min_size=1, max_size=5000),
    drops_ab=st.sets(st.integers(min_value=0, max_value=40), max_size=8),
    drops_ba=st.sets(st.integers(min_value=0, max_value=40), max_size=8),
)
# The handshake ACK and every SYN-ACK retry lost: a connects, b rightly
# gives up with "timeout" — a reported failure, not a broken stream.
@example(payload=b"\x00", drops_ab={1, 2, 3, 4}, drops_ba={1, 2, 3, 4})
def test_lossy_transfer_delivers_exact_stream(payload, drops_ab, drops_ba):
    """Either the whole stream arrives, or a failure is reported on at
    least one side and what did arrive is a prefix of the stream."""
    pair = make_pair(drop_set_ab=drops_ab, drop_set_ba=drops_ba)
    pair.connect(run=False)
    # Long enough for every handshake retry budget to run out.
    pair.run(until=600.0)

    def failure_reported():
        return (
            pair.a.closed_reason is not None
            or pair.b.closed_reason is not None
        )

    if pair.a.connected and pair.b.connected:
        pair.app_send("a", payload)
        pair.run(until=1200.0)
        if not failure_reported():
            assert bytes(pair.b.received) == payload
            return
    assert failure_reported()
    assert payload.startswith(bytes(pair.b.received))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    payload_a=st.binary(min_size=1, max_size=3000),
    payload_b=st.binary(min_size=1, max_size=3000),
    drops=st.sets(st.integers(min_value=0, max_value=30), max_size=6),
    dups=st.sets(st.integers(min_value=0, max_value=30), max_size=6),
)
def test_bidirectional_lossy_duplicated_transfer(payload_a, payload_b, drops, dups):
    pair = make_pair(drop_set_ab=drops, drop_set_ba=set(), dup_set=dups)
    pair.connect(run=False)
    pair.run(until=120.0)
    assert pair.a.connected and pair.b.connected
    pair.app_send("a", payload_a)
    pair.app_send("b", payload_b)
    pair.run(until=1200.0)
    assert bytes(pair.b.received) == payload_a
    assert bytes(pair.a.received) == payload_b


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    payload=st.binary(min_size=1, max_size=4000),
    latencies=st.lists(
        st.floats(min_value=0.0, max_value=0.05, allow_nan=False),
        min_size=1,
        max_size=16,
    ),
)
def test_reordering_never_corrupts_stream(payload, latencies):
    pair = make_pair(latencies=latencies)
    pair.connect(run=False)
    pair.run(until=120.0)
    pair.app_send("a", payload)
    pair.run(until=1200.0)
    assert bytes(pair.b.received) == payload


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    chunks=st.lists(st.binary(min_size=1, max_size=800), min_size=1, max_size=8),
    drops=st.sets(st.integers(min_value=0, max_value=30), max_size=5),
)
def test_chunked_writes_with_loss_then_clean_close(chunks, drops):
    pair = make_pair(drop_set_ab=drops)
    pair.connect(run=False)
    pair.run(until=120.0)
    for chunk in chunks:
        pair.app_send("a", chunk)
        pair.step_time(0.02)
    pair.app_close("a")
    pair.run(until=1200.0)
    pair.app_close("b")
    pair.run(until=pair.now + 600.0)
    assert bytes(pair.b.received) == b"".join(chunks)
    assert pair.b.got_fin
    assert pair.a.machine.state is State.CLOSED
    assert pair.b.machine.state is State.CLOSED


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    payload=st.binary(min_size=1, max_size=2000),
    rcv_buffer=st.integers(min_value=600, max_value=4000),
    read_chunk=st.integers(min_value=1, max_value=2000),
)
def test_flow_control_with_slow_reader(payload, rcv_buffer, read_chunk):
    """A reader that drains in arbitrary chunks never loses or reorders."""
    pair = TcpPair(
        config_a=TcpConfig(**FAST),
        config_b=TcpConfig(msl=0.2, min_rto=0.3, initial_rto=0.5, mss=300,
                           rcv_buffer=rcv_buffer),
    )
    pair.connect()
    pair.b.auto_read = False
    pair.app_send("a", payload)
    # Drain in fixed chunks with time passing between reads.
    for _ in range(200):
        pair.step_time(0.1)
        pending = pair.b.machine.tcb.rcv_user
        if pending:
            pair.app_read("b", min(read_chunk, pending))
        if len(pair.b.received) == len(payload) and pair.b.machine.tcb.rcv_user == 0:
            break
    pair.run(until=pair.now + 120.0)
    assert bytes(pair.b.received) == payload


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(iss_a=st.integers(min_value=0, max_value=(1 << 32) - 1),
       iss_b=st.integers(min_value=0, max_value=(1 << 32) - 1),
       payload=st.binary(min_size=1, max_size=3000))
def test_any_initial_sequence_numbers_work(iss_a, iss_b, payload):
    pair = TcpPair(
        config_a=TcpConfig(**FAST),
        config_b=TcpConfig(**FAST),
        iss_a=iss_a,
        iss_b=iss_b,
    )
    pair.connect()
    pair.app_send("a", payload)
    pair.run(until=600.0)
    assert bytes(pair.b.received) == payload
