"""Unified observability plane.

Four coordinated pieces, all off by default:

* :mod:`repro.obs.spans` — packet-lifecycle tracing: a trace id minted
  at TCP output rides the packet through every hop (netio send, NIC
  ring, link, switch queue, demux, delivery) into a bounded event ring.
* :mod:`repro.obs.profile` — sim-time profiler attributing simulated
  microseconds (and wall time for synchronous callbacks) to call sites.
* :mod:`repro.obs.hist` — HDR-style log-bucketed histograms (fixed
  memory) for RTT, queue occupancy, flow completion, and
  per-tenant delivery latency.
* :mod:`repro.obs.recorder` — flight recorder sampling counter sets on
  a sim-timer into bounded time series with JSON/CSV export.

The first three are one switch: :data:`SESSION` is ``None`` when the
plane is off and otherwise the :class:`ObservabilitySession` that owns
them.  An instrumented stage reads ``SESSION`` once, so the disabled
cost is one attribute load and one identity test per site — measured
by ``benchmarks/bench_obs.py``.

Typical use::

    from repro import obs
    session = obs.enable()          # spans + profiler + histograms
    ... run workload ...
    print(session.profiler.render())
    print(session.spans.render_timeline(tid))
    obs.disable()
"""

from __future__ import annotations

from .hist import HistogramRegistry, LogHistogram
from .profile import SimProfiler
from .recorder import FlightRecorder
from .session import ObservabilitySession
from .spans import SpanEvent, SpanRecorder

__all__ = [
    "LogHistogram",
    "HistogramRegistry",
    "SimProfiler",
    "SpanRecorder",
    "SpanEvent",
    "FlightRecorder",
    "ObservabilitySession",
    "SESSION",
    "enable",
    "disable",
]

#: The plane: ``None`` when off (the default), else the session every
#: instrumented site books into.
SESSION: ObservabilitySession | None = None


def enable(*, span_capacity: int = 8192) -> ObservabilitySession:
    """Turn the plane on with a fresh session and return it."""
    global SESSION
    SESSION = ObservabilitySession(span_capacity=span_capacity)
    return SESSION


def disable() -> None:
    """Turn the plane off."""
    global SESSION
    SESSION = None
