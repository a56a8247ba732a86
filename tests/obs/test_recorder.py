"""Flight-recorder tests: sim-timer sampling, ring bounds, exports."""

import csv
import json

from repro.counters import Counters
from repro.metrics import measure_fabric_transfers
from repro.obs.recorder import FlightRecorder
from repro.sim import Simulator
from repro.testbed import FabricTestbed


def samples_of(rec, name):
    """One watch's samples, oldest first: ``[(time, values), ...]``."""
    return list(rec._watches[name].samples)


def test_periodic_sampling_of_counters_and_callables():
    sim = Simulator()
    counters = Counters()
    rec = FlightRecorder(sim, interval=0.01)
    rec.watch("counters", counters)
    rec.watch("derived", lambda: {"t": sim.now})

    def workload():
        for i in range(10):
            counters["ticks"] += 1
            yield sim.timeout(0.01)
        rec.stop()

    rec.start()
    sim.process(workload(), name="workload")
    sim.run_all()
    series = samples_of(rec, "counters")
    assert len(series) >= 9
    times = [t for t, _ in series]
    assert times == sorted(times)
    # Samples reflect the counter's value *at sample time*.
    assert series[-1][1]["ticks"] > series[0][1].get("ticks", 0)
    assert samples_of(rec, "derived")[-1][1]["t"] >= 0.09


def test_ring_depth_bounds_memory():
    sim = Simulator()
    rec = FlightRecorder(sim, interval=0.001, depth=16)
    rec.watch("w", lambda: {"n": rec.samples_taken})

    def workload():
        yield sim.timeout(1.0)
        rec.stop()

    rec.start()
    sim.process(workload(), name="workload")
    sim.run_all()
    assert rec.samples_taken > 16
    samples = samples_of(rec, "w")
    assert len(samples) == 16
    # The ring keeps the newest samples (counter is incremented before
    # sources run, so the last sample sees the final value).
    assert samples[-1][1]["n"] == rec.samples_taken


def test_start_is_idempotent_and_stop_ends_process():
    sim = Simulator()
    rec = FlightRecorder(sim, interval=0.01)
    rec.watch("w", lambda: {})
    rec.start()
    rec.start()  # no second process
    rec.stop()
    sim.run_all()
    # One sample per live process tick before stop took effect.
    assert rec.samples_taken <= 2


def test_json_and_csv_export(tmp_path):
    sim = Simulator()
    counters = Counters()
    rec = FlightRecorder(sim, interval=0.01)
    rec.watch("net", counters)

    def workload():
        counters["rx"] += 5
        yield sim.timeout(0.05)
        counters["tx"] += 3  # second key appears mid-run
        yield sim.timeout(0.05)
        rec.stop()

    rec.start()
    sim.process(workload(), name="workload")
    sim.run_all()

    json_path = tmp_path / "series.json"
    rec.export_json(json_path)
    data = json.loads(json_path.read_text())
    assert set(data) == {"net"}
    assert len(data["net"]["times"]) == len(data["net"]["series"]["rx"])
    # Keys absent at a sample are padded with 0 (union-of-keys export).
    assert data["net"]["series"]["tx"][0] == 0
    assert data["net"]["series"]["tx"][-1] == 3

    csv_path = tmp_path / "series.csv"
    rec.export_csv(csv_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "time"
    assert "net.rx" in rows[0]
    assert len(rows) == len(data["net"]["times"]) + 1


def test_counters_snapshot_never_materializes_zero_keys():
    """A pure read allocates nothing, and ``snapshot()`` omits zeros."""
    counters = Counters()
    assert counters["never_written"] == 0  # defaultdict-style read
    assert dict(counters) == {}
    counters["x"] += 1
    counters["x"] -= 1  # back to zero: stored, but not sampled
    counters["y"] += 2
    assert counters.snapshot() == {"y": 2}


def test_watching_a_layers_stats_records_its_live_counters():
    """``watch(name, obj.stats)`` keeps the dict it is handed, so
    ``stats`` has to be the dict the layer increments.  On the PMADD
    NIC, the netio module and the switch port it was a merged copy per
    read, and their series stayed ``{}`` for the whole run."""
    bed = FabricTestbed(kind="dumbbell", organization="userlib", pairs=1)
    host = bed.hosts[0]
    watched = {"nic": host.nic, "netio": host.netio, "port": bed.bottleneck}
    rec = FlightRecorder(bed.sim, interval=0.02)
    for name, layer in watched.items():
        rec.watch(name, layer.stats)
    rec.start()
    measure_fabric_transfers(bed, bytes_per_flow=20_000)
    rec.sample_now()
    for name, layer in watched.items():
        _, last = samples_of(rec, name)[-1]
        assert last, name
        assert last == layer.stats.snapshot(), name
