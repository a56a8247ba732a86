"""A BBR-style model: rate-based congestion control from path
measurement instead of loss.

The model keeps the two filters BBR is built on — a windowed **max**
of delivery-rate samples (estimated bottleneck bandwidth) and a
windowed **min** of clean RTT samples (estimated propagation delay) —
and derives the bandwidth-delay product.  In-flight data is capped at
``cwnd_gain * BDP``: loss does *not* shrink the window (a convicted
loss still triggers retransmission of the missing segment, just no
multiplicative decrease), which is why ``loss_based`` is False and the
``cc-sanity`` decrease invariant exempts it.

Phases, as in BBR's state machine:

``startup``
    Grow the window by the acked bytes each ACK (doubling per RTT,
    pacing gain 2/ln2) until the bandwidth filter stops growing —
    three consecutive non-growing updates mean the pipe is full.
``drain``
    Inverse gain; hold the window at the BDP cap until in-flight data
    sinks to the estimated BDP, draining the queue startup built.
``probe_bw``
    Steady state: cycle pacing gains 1.25, 0.75, 1, 1, 1, 1, 1, 1 —
    one min-RTT interval each — probing for more bandwidth then
    yielding the surplus.  The in-flight cap follows
    ``pacing_gain`` below 1 so the yield phase actually drains.

Delivery rate is sampled as acked-bytes over elapsed time, accumulated
over at least one min-RTT (one millisecond floor) so ACK compression
cannot fake an arbitrarily high rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .base import CongestionAlgorithm, MAX_WINDOW

#: 2/ln2: fills the pipe in log2(BDP) round trips.
STARTUP_GAIN = 2.885
DRAIN_GAIN = 1.0 / STARTUP_GAIN
#: The steady-state gain cycle (one min-RTT interval per entry).
PROBE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


@dataclass
class BbrModel(CongestionAlgorithm):
    """Windowed max-bandwidth / min-RTT model with gain cycling."""

    name = "bbr"
    loss_based = False

    mss: int
    cwnd: int = 0
    #: Vestigial for a rate-based model; kept so every algorithm shows
    #: the same introspection surface (and the sabotage knob plumbing
    #: can be asserted uniformly).
    ssthresh: int = MAX_WINDOW
    dupacks: int = 0
    in_recovery: bool = False
    dup_threshold: int = 3

    #: In-flight cap multiplier over the estimated BDP.
    cwnd_gain: float = 2.0
    #: Seconds of history the bandwidth/RTT filters keep.
    filter_window: float = 10.0
    #: Floor on the window, in segments (BBR's minimum of 4).
    min_cwnd_segments: int = 4

    state: str = "startup"
    pacing_gain: float = STARTUP_GAIN

    #: (time, bytes/sec) delivery-rate samples inside filter_window.
    bw_samples: list = field(default_factory=list)
    #: (time, seconds) clean RTT samples inside filter_window.
    rtt_samples: list = field(default_factory=list)

    # Delivery-rate accumulator (bytes acked since _acc_start).
    _acc_bytes: int = 0
    _acc_start: Optional[float] = None

    # Startup full-pipe detection.
    _full_bw: float = 0.0
    _full_bw_count: int = 0

    # probe_bw gain cycling.
    _cycle_index: int = 0
    _cycle_start: float = 0.0

    def __post_init__(self) -> None:
        if self.cwnd == 0:
            self.cwnd = self.min_cwnd_segments * self.mss

    # -- filters -------------------------------------------------------

    @property
    def max_bw(self) -> Optional[float]:
        """Windowed-max estimated bottleneck bandwidth (bytes/sec)."""
        if not self.bw_samples:
            return None
        return max(bw for _, bw in self.bw_samples)

    @property
    def min_rtt(self) -> Optional[float]:
        """Windowed-min estimated propagation delay (seconds)."""
        if not self.rtt_samples:
            return None
        return min(rtt for _, rtt in self.rtt_samples)

    @property
    def bdp(self) -> Optional[float]:
        """Estimated bandwidth-delay product in bytes."""
        bw, rtt = self.max_bw, self.min_rtt
        if bw is None or rtt is None:
            return None
        return bw * rtt

    def _expire(self, samples: list, now: float) -> None:
        horizon = now - self.filter_window
        while samples and samples[0][0] < horizon:
            samples.pop(0)

    def on_rtt_sample(self, rtt: float, now: float = 0.0) -> None:
        self._expire(self.rtt_samples, now)
        self.rtt_samples.append((now, rtt))

    def _interval(self) -> float:
        """One filter/cycle interval: the min RTT, floored at 1 ms."""
        rtt = self.min_rtt
        return max(rtt if rtt is not None else 0.0, 1e-3)

    def _sample_bandwidth(self, acked_bytes: int, now: float) -> None:
        if self._acc_start is None:
            self._acc_start = now
            self._acc_bytes = 0
            return
        self._acc_bytes += acked_bytes
        elapsed = now - self._acc_start
        if elapsed < self._interval():
            return  # Accumulate ≥ one RTT so ACK bursts cannot lie.
        self._expire(self.bw_samples, now)
        self.bw_samples.append((now, self._acc_bytes / elapsed))
        self._acc_start = now
        self._acc_bytes = 0
        self._update_full_pipe()

    def _update_full_pipe(self) -> None:
        if self.state != "startup":
            return
        bw = self.max_bw or 0.0
        if bw > self._full_bw * 1.25:
            self._full_bw = bw
            self._full_bw_count = 0
        else:
            self._full_bw_count += 1

    # -- the state machine ---------------------------------------------

    def on_new_ack(
        self, acked_bytes: int, now: float = 0.0, flight_size: int = 0
    ) -> None:
        self.dupacks = 0
        self.in_recovery = False
        self._sample_bandwidth(acked_bytes, now)
        floor = self.min_cwnd_segments * self.mss
        bdp = self.bdp

        if self.state == "startup":
            self.pacing_gain = STARTUP_GAIN
            # Exponential growth: cwnd += acked (doubling per RTT).
            self.cwnd = min(self.cwnd + acked_bytes, MAX_WINDOW)
            if self._full_bw_count >= 3:
                self.state = "drain"
        if self.state == "drain":
            self.pacing_gain = DRAIN_GAIN
            if bdp is not None:
                self.cwnd = max(int(self.cwnd_gain * bdp), floor)
                if flight_size <= bdp:
                    # Queue drained: enter steady state.
                    self.state = "probe_bw"
                    self._cycle_index = 0
                    self._cycle_start = now
        if self.state == "probe_bw":
            if now - self._cycle_start >= self._interval():
                self._cycle_index = (self._cycle_index + 1) % len(PROBE_GAINS)
                self._cycle_start = now
            self.pacing_gain = PROBE_GAINS[self._cycle_index]
            if bdp is not None:
                # The in-flight cap follows sub-unity gains so the
                # yield phase actually drains the queue.
                cap = self.cwnd_gain * bdp * min(1.0, self.pacing_gain)
                self.cwnd = max(int(cap), floor)
        self.cwnd = min(self.cwnd, MAX_WINDOW)

    def on_duplicate_ack(self, flight_size: int, now: float = 0.0) -> bool:
        """Convict the loss (retransmit at the threshold) but keep the
        model's window: loss is noise, not a congestion signal."""
        self.dupacks += 1
        return self.dupacks == self.dup_threshold

    def on_timeout(self, flight_size: int, now: float = 0.0) -> None:
        """An RTO is real trouble: probe with one segment (the filters
        survive, so the window restores once ACKs flow again)."""
        self.cwnd = self.mss
        self.dupacks = 0
        self._acc_start = None
        self._acc_bytes = 0

    # -- queries -------------------------------------------------------

    @property
    def window(self) -> int:
        return min(max(self.cwnd, self.mss), MAX_WINDOW)

    def set_mss(self, mss: int) -> None:
        """Adopt the negotiated MSS, keeping BBR's 4-segment floor."""
        self.mss = mss
        self.cwnd = self.min_cwnd_segments * mss
