"""Time-series flight recorder.

Samples any :class:`~repro.counters.Counters` object (or any zero-arg
callable returning a dict) on a sim-timer into fixed-size ring series.
Benchmarks and the netstat CLI can then plot *trajectories* — queue
depth over time, retransmits per interval, engine batch sizes — instead
of a single end-of-run scalar.

Each watch keeps at most ``depth`` samples in a ring, so recording a
week of simulated time costs the same memory as recording a second.
Export is JSON (one object per watch with parallel ``times``/``series``
arrays) or CSV (one wide table, union of keys as columns).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable


class _Watch:
    __slots__ = ("name", "source", "samples")

    def __init__(self, name: str, source: Callable[[], dict], depth: int) -> None:
        self.name = name
        self.source = source
        self.samples: deque[tuple[float, dict]] = deque(maxlen=depth)


class FlightRecorder:
    """Periodic sampler of counter sets into bounded ring series."""

    def __init__(self, sim, interval: float = 0.01, depth: int = 512) -> None:
        self.sim = sim
        self.interval = interval
        self.depth = depth
        self._watches: dict[str, _Watch] = {}
        self._running = False
        self._process = None
        self.samples_taken = 0

    def watch(self, name: str, source) -> None:
        """Register a sample source under ``name``.

        ``source`` may be a ``Counters``/dict (snapshotted each tick) or
        a zero-arg callable returning a dict (called each tick — use
        this for live computations like ``sim.engine_stats``).
        """
        if callable(source):
            fn = source
        elif hasattr(source, "snapshot"):
            fn = source.snapshot
        else:
            fn = lambda src=source: dict(src)
        self._watches[name] = _Watch(name, fn, self.depth)

    # -- sampling -----------------------------------------------------

    def sample_now(self) -> None:
        """Take one sample of every watch at the current sim time."""
        now = self.sim.now
        self.samples_taken += 1
        for watch in self._watches.values():
            watch.samples.append((now, dict(watch.source())))

    def start(self) -> None:
        """Start the periodic sampling process (idempotent)."""
        if self._running:
            return
        self._running = True
        self._process = self.sim.process(self._run(), name="flight-recorder")

    def stop(self) -> None:
        """Stop sampling after the current interval elapses."""
        self._running = False

    def _run(self):
        while self._running:
            self.sample_now()
            yield self.sim.timeout(self.interval)

    # -- export -------------------------------------------------------

    def to_dict(self) -> dict:
        """All series as parallel times/series arrays, JSON-friendly."""
        out: dict[str, dict] = {}
        for name, watch in sorted(self._watches.items()):
            times = [t for t, _ in watch.samples]
            keys: dict[str, None] = {}
            for _, snap in watch.samples:
                for key in snap:
                    keys.setdefault(key, None)
            out[name] = {
                "times": times,
                "series": {
                    key: [snap.get(key, 0) for _, snap in watch.samples]
                    for key in keys
                },
            }
        return out

    def export_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    def export_csv(self, path: str) -> None:
        """One wide CSV: time, then ``watch.key`` columns (union of keys)."""
        columns: list[tuple[str, str]] = []
        for name, watch in sorted(self._watches.items()):
            keys: dict[str, None] = {}
            for _, snap in watch.samples:
                for key in snap:
                    keys.setdefault(key, None)
            columns.extend((name, key) for key in keys)
        # Merge sample timelines: all watches tick together, so use the
        # first watch's times as the spine and index the rest by tick.
        rows: dict[float, dict[tuple[str, str], object]] = {}
        for name, watch in self._watches.items():
            for t, snap in watch.samples:
                row = rows.setdefault(t, {})
                for key, value in snap.items():
                    row[(name, key)] = value
        with open(path, "w", encoding="utf-8") as fh:
            header = ["time"] + [f"{name}.{key}" for name, key in columns]
            fh.write(",".join(header) + "\n")
            for t in sorted(rows):
                row = rows[t]
                cells = [repr(t)] + [str(row.get(col, "")) for col in columns]
                fh.write(",".join(cells) + "\n")
