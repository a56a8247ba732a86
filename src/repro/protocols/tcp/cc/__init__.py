"""Pluggable congestion control: the name table and its algorithms.

Any connection picks its algorithm by name through
:attr:`~repro.protocols.tcp.tcb.TcpConfig.cc`; :func:`make_cc` is the
single construction point, so the sabotage knob
(``TcpConfig.dup_ack_threshold``) and the negotiated MSS reach every
algorithm uniformly.

Shipped algorithms:

=========  =========================================================
``reno``   4.3BSD slow start/congestion avoidance + fast recovery
           (``tahoe`` selects the recovery-free flavour).
``cubic``  Concave/convex growth on time since last loss, fast
           convergence, TCP-friendly region (RFC 8312 shape).
``bbr``    Rate-based model: windowed max-bandwidth / min-RTT
           filters, startup/drain/probe_bw gain cycling, in-flight
           capped at ``cwnd_gain * BDP`` instead of loss-driven cwnd.
=========  =========================================================

A new algorithm is one :class:`CongestionAlgorithm` subclass and one
entry in the name table below; ``TcpConfig(cc=name)`` then threads it
through every organization, the conformance campaign, and the
dumbbell race.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .base import CongestionAlgorithm, MAX_WINDOW
from .bbr import BbrModel
from .cubic import Cubic
from .reno import Reno

#: name -> factory(mss=, dup_threshold=) -> CongestionAlgorithm.
_FACTORIES: dict[str, Callable[..., CongestionAlgorithm]] = {
    "reno": Reno,
    "tahoe": partial(Reno, flavor="tahoe"),
    "cubic": Cubic,
    "bbr": BbrModel,
}

#: The racing set: one entry per distinct algorithm (flavours excluded).
CC_ALGORITHMS = ("reno", "cubic", "bbr")


def make_cc(name: str, mss: int, dup_threshold: int = 3) -> CongestionAlgorithm:
    """Construct the named algorithm.

    ``dup_threshold`` — the conformance campaign's sabotage knob —
    reaches *every* algorithm.
    """
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown congestion algorithm {name!r} "
            f"(registered: {', '.join(sorted(_FACTORIES))})"
        )
    return factory(mss=mss, dup_threshold=dup_threshold)


__all__ = [
    "CongestionAlgorithm",
    "MAX_WINDOW",
    "CC_ALGORITHMS",
    "Reno",
    "Cubic",
    "BbrModel",
    "make_cc",
]
