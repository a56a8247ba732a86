"""HDR-style log-bucketed histograms with fixed memory.

A :class:`LogHistogram` places each sample into a geometrically spaced
bucket: ``bucket = floor(log(value / min_value) / log(growth))`` where
``growth = 10 ** (1 / buckets_per_decade)``.  With the default 20 buckets
per decade the relative error of any reported quantile is bounded by the
bucket width (about 12%), while memory stays fixed no matter how many
samples are recorded — the property HdrHistogram popularised and the
reason ad-hoc latency lists do not survive 10k-host sweeps.

The observability plane's session (:data:`repro.obs.SESSION`) owns one
:func:`default_registry`; instrumented call sites guard on the session,
which keeps the disabled cost to one attribute load and one ``is None``
test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class LogHistogram:
    """Fixed-memory log-bucketed histogram.

    ``min_value`` is the smallest distinguishable sample; anything in
    ``(0, min_value)`` lands in the underflow bucket and zeros (and
    negatives) are counted separately.  ``max_value`` bounds the bucketed
    range; larger samples land in the overflow bucket but still update
    ``max``/``sum`` exactly, so means stay correct even when the range is
    mis-sized.
    """

    min_value: float = 1e-9
    max_value: float = 1e3
    buckets_per_decade: int = 20
    counts: list[int] = field(default_factory=list)
    underflow: int = 0
    overflow: int = 0
    zeros: int = 0
    count: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def __post_init__(self) -> None:
        decades = math.log10(self.max_value / self.min_value)
        self._bucket_count = max(1, math.ceil(decades * self.buckets_per_decade))
        self._log_min = math.log(self.min_value)
        self._inv_log_growth = self.buckets_per_decade / math.log(10.0)
        if not self.counts:
            self.counts = [0] * self._bucket_count
        elif len(self.counts) != self._bucket_count:
            raise ValueError("counts length does not match configuration")

    # -- recording ----------------------------------------------------

    def record(self, value: float, count: int = 1) -> None:
        self.count += count
        self.sum += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zeros += count
            return
        idx = int((math.log(value) - self._log_min) * self._inv_log_growth)
        if idx < 0:
            self.underflow += count
        elif idx >= self._bucket_count:
            self.overflow += count
        else:
            self.counts[idx] += count

    # -- reading ------------------------------------------------------

    def _bucket_bounds(self, idx: int) -> tuple[float, float]:
        lo = self.min_value * 10 ** (idx / self.buckets_per_decade)
        hi = self.min_value * 10 ** ((idx + 1) / self.buckets_per_decade)
        return lo, hi

    def percentile(self, p: float) -> float:
        """Return the p-th percentile (p in [0, 100]); 0.0 when empty.

        Walks buckets in value order (zeros, underflow, the log range,
        overflow) and reports the geometric midpoint of the bucket the
        rank falls in, clamped to the observed min/max so single-sample
        and extreme cases stay exact.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(self.count * p / 100.0))
        seen = self.zeros
        if rank <= seen:
            return max(0.0, self.min if self.min != math.inf else 0.0)
        seen += self.underflow
        if rank <= seen:
            return self._clamp(self.min_value / 2.0)
        for idx, n in enumerate(self.counts):
            if not n:
                continue
            seen += n
            if rank <= seen:
                lo, hi = self._bucket_bounds(idx)
                return self._clamp(math.sqrt(lo * hi))
        return self.max

    def _clamp(self, value: float) -> float:
        if self.min != math.inf and value < self.min:
            return self.min
        if self.max != -math.inf and value > self.max:
            return self.max
        return value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> dict:
        """Counts plus the standard quantile set, JSON-friendly."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
        }


class HistogramRegistry:
    """Named histograms created on first record.

    Per-name configuration defaults may be registered up front with
    :meth:`configure`; unknown names fall back to a range suitable for
    simulated seconds (1 ns .. 1000 s).
    """

    def __init__(self) -> None:
        self._hists: dict[str, LogHistogram] = {}
        self._configs: dict[str, dict] = {}

    def configure(self, name: str, **kwargs) -> None:
        self._configs[name] = kwargs

    def record(self, name: str, value: float, count: int = 1) -> None:
        hist = self._hists.get(name)
        if hist is None:
            hist = LogHistogram(**self._configs.get(name, {}))
            self._hists[name] = hist
        hist.record(value, count)

    def get(self, name: str) -> LogHistogram | None:
        return self._hists.get(name)

    def names(self) -> list[str]:
        return sorted(self._hists)

    def items(self) -> list[tuple[str, LogHistogram]]:
        return sorted(self._hists.items())

    def summaries(self) -> dict[str, dict]:
        return {name: hist.summary() for name, hist in self.items()}


def default_registry() -> HistogramRegistry:
    """The plane's registry, with ranges for the names the stack records."""
    reg = HistogramRegistry()
    # Latencies in simulated seconds: 100 ns .. 100 s.
    for name in ("tcp.rtt", "flow.completion", "delivery.latency"):
        reg.configure(name, min_value=1e-7, max_value=1e2)
    # Queue occupancy is a 0..1 fraction of capacity.
    reg.configure("queue.occupancy", min_value=1e-4, max_value=2.0, buckets_per_decade=30)
    return reg
