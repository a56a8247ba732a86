"""The ISSUE's acceptance scenario: one seeded dumbbell session yields
the retransmit timeline, a profiler report led by protocol callbacks,
populated histograms, netstat JSON, and exported counter time-series."""

import json

import pytest

from repro import netstat, obs
from repro.metrics import measure_fabric_transfers
from repro.net.faults import FaultInjector
from repro.obs.recorder import FlightRecorder
from repro.testbed import FabricTestbed


@pytest.fixture(autouse=True)
def _obs_clean():
    """Override the per-test disable from conftest: these tests share
    one module-scoped instrumented run (torn down by the fixture)."""
    yield


@pytest.fixture(scope="module")
def session_artifacts(tmp_path_factory):
    """One instrumented faulted-dumbbell run shared by every assertion."""
    obs.disable()
    session = obs.enable(span_capacity=65536)
    bed = FabricTestbed(
        kind="dumbbell",
        organization="userlib",
        pairs=2,
        faults=FaultInjector(drop_rate=0.02, seed=11),
    )
    flight = FlightRecorder(bed.sim, interval=0.02)
    queue = bed.bottleneck.queue
    flight.watch("trunk.queue", lambda: {"depth": queue.depth_bytes})
    flight.watch("trunk.faults", bed.faulted_link.faults.stats)
    flight.start()
    result = measure_fabric_transfers(bed, bytes_per_flow=80_000)
    flight.stop()
    outdir = tmp_path_factory.mktemp("obs")
    flight.export_json(outdir / "series.json")
    yield {
        "session": session,
        "bed": bed,
        "result": result,
        "flight": flight,
        "series_path": outdir / "series.json",
    }
    obs.disable()


def test_transfer_succeeded_with_retransmits(session_artifacts):
    result = session_artifacts["result"]
    assert all(f.bytes_moved == 80_000 for f in result.flows)
    assert result.total_retransmits > 0, "2% trunk drop must force retransmits"


def test_retransmitted_segment_timeline(session_artifacts):
    rec = session_artifacts["session"].spans
    retrans = rec.traces_matching("retransmit")
    assert retrans
    # At least one retransmitted segment made it end-to-end with every
    # hop attributed: wire, bottleneck queue wait, demux, delivery.
    complete = None
    for tid in retrans:
        stages = [e.stage for e in rec.timeline(tid)]
        if "tcp.input" in stages:
            complete = stages
            break
    assert complete is not None
    for expected in ("tcp.output", "nic.tx", "link.tx", "queue.enq",
                     "demux.classify", "netio.deliver", "tcp.input"):
        assert expected in complete, f"missing {expected} in {complete}"
    # Queue *wait* is recorded whenever a frame could not be handed
    # straight to an idle port — with two flows sharing the trunk that
    # must have happened somewhere this run.
    assert any(e.stage == "queue.deq" for e in rec.events)


def test_profiler_top_sites_are_protocol_callbacks(session_artifacts):
    rows = session_artifacts["session"].profiler.report(top=3)
    assert len(rows) == 3
    protocol_sites = {
        "tcp.output", "tcp.input", "netio.deliver", "netio.send",
        "lib.wakeup", "demux.classify", "ip.input",
    }
    assert all(r.site in protocol_sites for r in rows)
    assert all(r.sim_share > 0.05 for r in rows)
    assert sum(r.sim_share for r in rows) > 0.5


def test_histograms_populated_with_sane_quantiles(session_artifacts):
    reg = session_artifacts["session"].histograms
    for name in ("tcp.rtt", "delivery.latency", "queue.occupancy",
                 "flow.completion"):
        hist = reg.get(name)
        assert hist is not None and hist.count > 0, f"{name} never recorded"
    rtt = reg.get("tcp.rtt")
    assert 0 < rtt.percentile(50) <= rtt.percentile(99) <= rtt.max
    occupancy = reg.get("queue.occupancy")
    assert occupancy.max <= 1.0  # a fraction of queue capacity


def test_netstat_json_covers_every_table(session_artifacts):
    doc = netstat.as_json(session_artifacts["bed"])
    text = json.dumps(doc)  # must be JSON-serializable
    assert set(doc) >= {
        "connections", "channels", "demux", "copy", "links",
        "switch_ports", "engine", "spans", "profile", "histograms",
    }
    assert doc["switch_ports"], "dumbbell has switch ports"
    assert doc["spans"]["traces"], "span section populated"
    assert doc["profile"], "profile section populated"
    assert "tcp.rtt" in doc["histograms"]
    assert "retransmit" in text


def test_time_series_exported(session_artifacts):
    data = json.loads(session_artifacts["series_path"].read_text())
    assert set(data) == {"trunk.queue", "trunk.faults"}
    queue = data["trunk.queue"]
    assert len(queue["times"]) > 5
    assert max(queue["series"]["depth"]) > 0, "queue never filled?"
    assert max(data["trunk.faults"]["series"]["dropped"]) > 0


def test_span_tables_render(session_artifacts):
    entries = netstat.span_table(limit=5)
    assert 0 < len(entries) <= 5
    assert all(entry.hops >= 1 for entry in entries)
    assert "Packet spans" in netstat.render_spans(limit=5)
    assert "site" in netstat.render_profile(top=5)
    assert "tcp.rtt" in netstat.render_hist()
