"""Round-trip timing and retransmission timeout estimation.

Jacobson/Karels smoothed RTT with mean deviation, Karn's rule (never
sample a retransmitted segment), and exponential backoff — the same
algorithm the paper's 4.3BSD-derived stack used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ... import obs as _obs


@dataclass
class RttEstimator:
    """SRTT/RTTVAR estimator producing the retransmission timeout."""

    #: Clamp bounds for the computed RTO, in seconds.  4.3BSD used a
    #: 500 ms slow-timeout granularity with a 1 s floor.
    min_rto: float = 1.0
    max_rto: float = 64.0
    #: Initial RTO before any sample exists (RFC 1122 suggests 3 s).
    initial_rto: float = 3.0

    srtt: Optional[float] = None
    rttvar: Optional[float] = None
    backoff: int = 0

    # In-flight measurement state (one sample at a time, classic BSD).
    _timed_seq: Optional[int] = None
    _timed_at: float = 0.0

    @property
    def rto(self) -> float:
        """Current retransmission timeout including backoff."""
        if self.srtt is None:
            base = self.initial_rto
        else:
            base = self.srtt + 4.0 * (self.rttvar or 0.0)
        return min(self.max_rto, max(self.min_rto, base) * (1 << self.backoff))

    def start_timing(self, seq: int, now: float) -> None:
        """Begin timing the segment whose last byte+1 is ``seq``."""
        if self._timed_seq is None:
            self._timed_seq = seq
            self._timed_at = now

    def cancel_timing(self) -> None:
        """Karn's rule: a retransmission invalidates the pending sample."""
        self._timed_seq = None

    def on_ack(self, ack: int, now: float) -> Optional[float]:
        """Process a cumulative ACK; take an RTT sample if it covers the
        timed segment.  Returns the sample (seconds) when one was taken
        — congestion control (BBR's min-RTT filter) consumes it too."""
        sample = None
        if self._timed_seq is not None and ack >= self._timed_seq:
            sample = now - self._timed_at
            self._sample(sample)
            self._timed_seq = None
        # Any ACK of new data ends backoff.
        self.backoff = 0
        return sample if sample is not None and sample >= 0 else None

    def on_retransmit(self) -> None:
        """Exponential backoff; invalidate the sample per Karn."""
        self.cancel_timing()
        if self.rto < self.max_rto:
            self.backoff += 1

    def _sample(self, rtt: float) -> None:
        if rtt < 0:
            return
        obs = _obs.SESSION
        if obs is not None:
            obs.histograms.record("tcp.rtt", rtt)
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            # Jacobson/Karels gains: 1/8 for srtt, 1/4 for rttvar.
            err = rtt - self.srtt
            self.srtt += err / 8.0
            self.rttvar = (self.rttvar or 0.0) + (abs(err) - (self.rttvar or 0.0)) / 4.0
