"""The pluggable congestion-control interface.

The machine asks one question — "how many bytes may be in flight?" —
answered by ``min(peer window, cc.window)``; an algorithm owns cwnd and
answers it.  Everything an algorithm learns arrives through a small
event API driven by :class:`~repro.protocols.tcp.machine.TcpMachine`:

``on_new_ack(acked_bytes, now, flight_size)``
    A cumulative ACK advanced ``snd_una`` by ``acked_bytes``.
    ``flight_size`` is the bytes still outstanding *after* the ACK.
``on_duplicate_ack(flight_size, now)``
    A duplicate ACK arrived; returns True when the caller should
    fast-retransmit (exactly on the ``dup_threshold``-th duplicate).
``on_timeout(flight_size, now)``
    The retransmission timer fired.
``on_rtt_sample(rtt, now)``
    The RTT estimator took a clean (Karn-valid) sample.
``window`` (property)
    Bytes the algorithm currently allows in flight.  Sending is
    ack-clocked for every algorithm: a rate-based one (BBR) bounds
    in-flight data through ``window`` too and is never paced.

``now`` is simulated seconds, always supplied by the machine; the
default of 0.0 keeps hand-driven unit tests terse.  Time-based
algorithms (CUBIC's epoch clock, BBR's filters) only ever compare
differences of ``now`` values, so any monotone clock works.

The paper's argument is that user-level implementation makes this kind
of protocol innovation cheap: a new loss response is one subclass and a
registry entry, and the conformance campaign (:mod:`repro.check`) and
the dumbbell race (``benchmarks/bench_congestion.py``) come for free.
"""

from __future__ import annotations

#: Congestion-window ceiling (the classic pre-window-scaling maximum).
MAX_WINDOW = 65535


class CongestionAlgorithm:
    """Event API every congestion-control algorithm implements.

    Subclasses are dataclasses holding their own state; the shared
    surface the machine (and the invariant checkers) rely on is:

    * ``mss`` / ``cwnd`` / ``ssthresh`` / ``dupacks`` / ``dup_threshold``
      attributes (``ssthresh`` may be vestigial for rate-based models);
    * the event methods below;
    * ``name`` and ``loss_based`` class attributes — ``loss_based`` is
      False for algorithms (BBR) whose loss response is intentionally
      not multiplicative decrease, which exempts them from the
      ``cc-sanity`` decrease invariant.
    """

    #: Registry name (class attribute, overridden per algorithm).
    name: str = "abstract"
    #: True when a convicted loss must multiplicatively shrink ssthresh.
    loss_based: bool = True

    # Subclasses (dataclasses) declare these as fields.
    mss: int
    cwnd: int
    ssthresh: int
    dupacks: int
    dup_threshold: int

    # -- events --------------------------------------------------------

    def on_new_ack(
        self, acked_bytes: int, now: float = 0.0, flight_size: int = 0
    ) -> None:
        raise NotImplementedError

    def on_duplicate_ack(self, flight_size: int, now: float = 0.0) -> bool:
        raise NotImplementedError

    def on_timeout(self, flight_size: int, now: float = 0.0) -> None:
        raise NotImplementedError

    def on_rtt_sample(self, rtt: float, now: float = 0.0) -> None:
        """Default: RTT-blind (Reno/CUBIC ignore clean samples)."""

    # -- queries -------------------------------------------------------

    @property
    def window(self) -> int:
        """Bytes the congestion window currently allows in flight."""
        return min(self.cwnd, MAX_WINDOW)

    def set_mss(self, mss: int) -> None:
        """The handshake learned the effective MSS: adopt it and reset
        the initial window (one segment, the 4.3BSD opening move)."""
        self.mss = mss
        self.cwnd = mss
