"""Fast-path equivalence and cache-invalidation suite.

The hot-path optimisations claim to be *invisible* on the wire: header
prediction, the demux last-flow memo and the router next-hop cache
each bypass a general mechanism only when the outcome is provably the
same.  This suite holds them to it:

* fuzzed loss/corruption/duplication/delay runs are raced with the
  fast path on vs off — off meaning every segment takes the general
  path, :meth:`TcpMachine.handle`, which is the oracle here — and must
  produce identical wire digests and identical delivered byte streams;
* request/response traffic is raced step by step: a machine that takes
  every segment through header prediction first and a twin that takes
  every one through the general path must return the same actions and
  land in the same TCB after each step;
* the next-hop cache and the demux memo (including the miss memo) get
  unit coverage of their invalidation rules.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.check.campaign import CellSpec, cell_evidence
from repro.costs import DECSTATION_5000_200
from repro.net.fabric.routing import RouteTable
from repro.net.headers import (
    ETHERTYPE_IP,
    EthernetHeader,
    Ipv4Header,
    PROTO_TCP,
    TCP_ACK,
    str_to_ip,
    str_to_mac,
)
from repro.netio import FlowKey, FlowTable, ScanTable
from repro.netio.pktfilter import tcp_filter_program
from repro.protocols.tcp import (
    Segment,
    SegmentArrives,
    State,
    TcpConfig,
    TcpMachine,
    encode_segment,
)
from repro.protocols.tcp.seq import unwrap
from tests.tools import tool

from .tcp_harness import TcpPair
from .test_tcp_inlined_arithmetic import CONFIGS, FAST, Twin, picture, play

wire_digest = tool("golden").wire_digest
COSTS = DECSTATION_5000_200
IP_A = str_to_ip("10.0.0.1")
IP_B = str_to_ip("10.0.0.2")
MAC_A = str_to_mac("02:00:00:00:00:01")
MAC_B = str_to_mac("02:00:00:00:00:02")


def tcp_frame(sport, dport, src_ip=IP_A, dst_ip=IP_B):
    seg = Segment(
        sport=sport, dport=dport, seq=1, ack=1, flags=TCP_ACK,
        window=64, payload=b"payload",
    )
    tcp = encode_segment(seg, src_ip, dst_ip)
    ip = Ipv4Header(
        src=src_ip, dst=dst_ip, protocol=PROTO_TCP,
        total_length=Ipv4Header.LENGTH + len(tcp),
    ).pack() + tcp.tobytes()
    return EthernetHeader(MAC_B, MAC_A, ETHERTYPE_IP).pack() + ip


def _run(spec: CellSpec):
    """One deterministic run: (wire digest, delivered byte streams)."""
    evidence = cell_evidence(spec)
    streams = [(t.payload, bytes(t.received)) for t in evidence.transfers]
    assert all(t.complete for t in evidence.transfers)
    return wire_digest(evidence), streams


FUZZ_CELLS = [
    # (seed, drop, corrupt, duplicate, max_extra_delay, topology)
    (11, 0.0, 0.0, 0.0, 0.0, "loopback"),
    (12, 0.03, 0.0, 0.0, 0.0, "loopback"),
    (13, 0.0, 0.02, 0.02, 0.0, "loopback"),
    (14, 0.02, 0.01, 0.02, 0.002, "loopback"),
    (15, 0.02, 0.0, 0.02, 0.001, "dumbbell"),
]


@pytest.mark.parametrize(
    "seed,drop,corrupt,duplicate,delay,topology", FUZZ_CELLS
)
def test_fuzz_equivalence_fastpath_on_vs_off(
    seed, drop, corrupt, duplicate, delay, topology, monkeypatch
):
    """Header prediction must not change one byte of wire behaviour.

    One CellSpec run twice — as shipped, then with ``fast_input``
    declining every segment so all of them take the slow path — must
    yield the same segment-by-segment wire digest and the same bytes
    delivered to the receiving sockets, under every fault mix.
    """
    spec = CellSpec(
        topology=topology,
        seed=seed,
        drop_rate=drop,
        corrupt_rate=corrupt,
        duplicate_rate=duplicate,
        max_extra_delay=delay,
        transfers=1,
        payload_bytes=8192,
        deadline=30.0,
    )
    digest_on, streams_on = _run(spec)
    monkeypatch.setattr(TcpMachine, "fast_input", lambda self, segment, now: None)
    digest_off, streams_off = _run(spec)
    assert digest_on == digest_off
    assert streams_on == streams_off
    for payload, received in streams_on:
        assert received == payload


def test_fastpath_actually_engages_on_clean_run():
    """The equivalence above is vacuous if the fast path never fires:
    on a clean in-order run the predicted path must carry most
    segments on both endpoints combined."""
    evidence = cell_evidence(
        CellSpec(transfers=1, payload_bytes=16_384, seed=21, deadline=30.0)
    )
    hits = misses = 0
    for _name, machine in evidence.machines:
        hits += machine.stats["fastpath_ack_hits"]
        hits += machine.stats["fastpath_data_hits"]
        misses += machine.stats["fastpath_misses"]
    assert hits > 0
    assert hits / (hits + misses) >= 0.5


# ----------------------------------------------------------------------
# Header prediction raced against the general path, step by step
# ----------------------------------------------------------------------


class PredictedTwin(Twin):
    """The shipped machine takes each segment through ``fast_input``
    first, as ``MachineRunner.feed_segment`` does; its twin, a plain
    ``TcpMachine``, takes every segment through
    ``handle(SegmentArrives(...))``.  Only the prediction counters may
    differ between them."""

    oracle_class = TcpMachine

    def __init__(self, *args) -> None:
        super().__init__(*args)
        #: Predicted data segments whose ACK advanced ``snd_una``.
        self.advancing_hits = 0

    def view(self, machine) -> dict:
        view = picture(machine)
        view["stats"] = {
            name: value
            for name, value in view["stats"].items()
            if not name.startswith("fastpath_")
        }
        return view

    def handle(self, event, now):
        def feed(machine):
            if machine is self.shipped and event.__class__ is SegmentArrives:
                segment = event.segment
                tcb = machine.tcb
                advancing = unwrap(segment.ack, tcb.snd_una) > tcb.snd_una
                actions = machine.fast_input(segment, now)
                if actions is not None:
                    self.advancing_hits += bool(segment.payload) and advancing
                    return actions
            return machine.handle(event, now)

        return self._both(feed)


class EchoPair(TcpPair):
    """A ``TcpPair`` whose ``server`` endpoint (if any) answers every
    byte delivered to it at once, as an echo server does: each answer
    ACKs the request it answers."""

    def __init__(self, server: str, **kwargs) -> None:
        super().__init__(**kwargs)
        self.server = server
        self.echoed = 0

    def _do(self, endpoint, actions) -> None:
        super()._do(endpoint, actions)
        if endpoint.name != self.server:
            return
        tcb = endpoint.machine.tcb
        size = min(len(endpoint.received) - self.echoed, tcb.send_buffer_space)
        writable = tcb.state in (State.ESTABLISHED, State.CLOSE_WAIT)
        if writable and size > 0 and not tcb.fin_pending:
            answer = bytes(endpoint.received[self.echoed : self.echoed + size])
            self.echoed += size  # Before the send, which comes back here.
            self.app_send(endpoint.name, answer)


ECHO_STEPS = [("send", "a", 1), ("run", "a", 20)] * 4


# (Seeded: tests/conftest.py derandomizes every property in the suite.)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    config_a=CONFIGS,
    config_b=CONFIGS,
    steps=st.lists(
        st.tuples(
            st.sampled_from(["send", "send", "read", "run", "run", "close"]),
            st.sampled_from(["a", "b"]),
            # Requests and pauses mostly short: an answer outruns the
            # delayed ACK only if it comes within its 200 ms.
            st.one_of(
                st.integers(min_value=1, max_value=64),
                st.integers(min_value=1, max_value=9000),
            ),
        ),
        min_size=1,
        max_size=25,
    ),
    drops=st.sets(st.integers(min_value=0, max_value=60), max_size=8),
    dups=st.sets(st.integers(min_value=0, max_value=60), max_size=4),
    stalled=st.sampled_from(["", "a", "b", "ab"]),
    server=st.sampled_from(["b", "b", "a", ""]),
)
# A clean echo: every request and every answer ACKs the last segment
# sent the other way, so its prediction advances snd_una.
@example(
    config_a=TcpConfig(**FAST), config_b=TcpConfig(nagle=False, **FAST),
    steps=ECHO_STEPS, drops=set(), dups=set(), stalled="", server="b",
)
def test_prediction_agrees_with_the_general_path_under_request_response(
    config_a, config_b, steps, drops, dups, stalled, server
):
    pair = play(
        EchoPair, PredictedTwin, config_a, config_b, steps, drops, dups, stalled,
        server=server,
    )
    if steps == ECHO_STEPS and not (drops or dups or stalled):
        # Each answer ACKs its request; each later request, the answer.
        assert pair.a.machine.advancing_hits == 4
        assert pair.b.machine.advancing_hits == 3


# ----------------------------------------------------------------------
# Next-hop (destination) cache invalidation
# ----------------------------------------------------------------------


def test_route_cache_hit_and_miss_accounting():
    table = RouteTable()
    table.add(str_to_ip("10.1.0.0"), 24, None, interface="if0")
    dst = str_to_ip("10.1.0.5")
    first = table.lookup(dst)
    second = table.lookup(dst)
    assert first is second
    assert table.cache_misses == 1
    assert table.cache_hits == 1


def test_route_cache_invalidated_by_more_specific_route():
    table = RouteTable()
    table.add(str_to_ip("10.0.0.0"), 8, None, interface="coarse")
    dst = str_to_ip("10.2.3.4")
    assert table.lookup(dst).interface == "coarse"
    assert table.lookup(dst).interface == "coarse"  # cached
    # A narrower prefix shadows the cached answer; the cache must drop it.
    table.add(str_to_ip("10.2.3.0"), 24, None, interface="fine")
    assert table.cache_invalidations == 1
    assert table.lookup(dst).interface == "fine"


def test_route_cache_negative_entry_invalidated_by_new_route():
    table = RouteTable()
    dst = str_to_ip("192.168.7.9")
    assert table.lookup(dst) is None
    assert table.lookup(dst) is None  # cached negative
    assert table.cache_hits == 1
    table.add(str_to_ip("192.168.7.0"), 24, None, interface="late")
    assert table.lookup(dst).interface == "late"


# ----------------------------------------------------------------------
# Demux last-flow memo invalidation
# ----------------------------------------------------------------------


def test_demux_memo_hit_reproduces_classification():
    table = FlowTable()
    chan = object()
    table.install(FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000), chan)
    frame = tcp_frame(5000, 80)
    first = table.classify(frame, COSTS)
    second = table.classify(frame, COSTS)
    assert first.channel is second.channel is chan
    assert first.tier == second.tier == "exact"
    assert first.cost == second.cost == COSTS.flow_lookup
    assert table.stats["memo_hits"] == 1
    assert table.stats["exact_hits"] == 2  # memo still counts the tier


def test_demux_memo_invalidated_on_remove():
    table = FlowTable()
    chan = object()
    key = FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000)
    table.install(key, chan)
    frame = tcp_frame(5000, 80)
    assert table.classify(frame, COSTS).channel is chan
    assert table.classify(frame, COSTS).channel is chan  # memoized
    table.remove(key)
    decision = table.classify(frame, COSTS)
    assert decision.channel is None
    assert decision.tier == "miss"


def test_demux_memo_invalidated_on_install():
    """A fresh install may shadow the memoized answer (e.g. an exact
    flow arriving over a memoized wildcard hit): any install clears it."""
    table = FlowTable()
    listener = object()
    table.install(FlowKey(PROTO_TCP, IP_B, 80), listener)
    frame = tcp_frame(5000, 80)
    assert table.classify(frame, COSTS).channel is listener
    assert table.classify(frame, COSTS).tier == "wildcard"  # memoized
    conn = object()
    table.install(FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000), conn)
    decision = table.classify(frame, COSTS)
    assert decision.channel is conn
    assert decision.tier == "exact"


def test_demux_miss_memo_counts_and_invalidates():
    """A repeated miss is memoized too, and a later install must break
    the memo so the flow becomes reachable.  A table with nothing
    installed (every router interface) misses without reading a key or
    consulting the memo — same charge, still counted."""
    table = FlowTable()
    frame = tcp_frame(5000, 80)
    empty = [table.classify(frame, COSTS) for _ in range(2)]
    assert [(d.tier, d.cost) for d in empty] == [("miss", COSTS.flow_lookup)] * 2
    assert table.stats == {"misses": 2}
    assert table.stats["memo_hits"] == 0
    table = FlowTable()
    table.install(FlowKey(PROTO_TCP, IP_B, 443, IP_A, 6000), object())
    assert table.classify(frame, COSTS).tier == "miss"
    second = table.classify(frame, COSTS)
    assert second.tier == "miss"
    assert table.stats["memo_hits"] == 1
    assert table.stats["misses"] == 2  # the memoized miss still counts
    chan = object()
    table.install(FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000), chan)
    assert table.classify(frame, COSTS).channel is chan


def test_demux_memo_not_used_with_scan_tier():
    """Interpreted styles charge per instruction executed, so a scan
    table must run its filters on every frame: no memo in front."""
    table = ScanTable("cspf")
    chan = object()
    filt = tcp_filter_program(IP_B, 80, IP_A, 5000)
    key = FlowKey(PROTO_TCP, IP_B, 80, IP_A, 5000)
    table.install(key, chan)
    table.add_filter(key, filt, chan)
    frame = tcp_frame(5000, 80)
    first = table.classify(frame, COSTS)
    second = table.classify(frame, COSTS)
    assert first.tier == second.tier == "scan"
    assert second.cost == first.cost == filt.interpretation_cost(COSTS)
    assert table.stats["memo_hits"] == 0
    assert table.stats["filters_scanned"] == 2
