"""Pluggable congestion control: the registry and its algorithms.

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

Registering a new algorithm is one call::

    @register("vegas")
    def _make_vegas(mss, dup_threshold):
        return Vegas(mss=mss, dup_threshold=dup_threshold)

after which ``TcpConfig(cc="vegas")`` threads it through every
organization, the conformance campaign, and the dumbbell race.
"""

from __future__ import annotations

from typing import Callable

from .base import CongestionAlgorithm, MAX_WINDOW
from .bbr import BbrModel
from .cubic import Cubic
from .reno import Reno

#: name -> factory(mss, dup_threshold) -> CongestionAlgorithm.
_REGISTRY: dict[str, Callable[..., CongestionAlgorithm]] = {}

#: The racing set: one entry per distinct algorithm (flavours excluded).
CC_ALGORITHMS = ("reno", "cubic", "bbr")


def register(name: str):
    """Decorator registering a congestion-control factory under ``name``."""

    def wrap(factory: Callable[..., CongestionAlgorithm]):
        _REGISTRY[name] = factory
        return factory

    return wrap


def algorithms() -> tuple[str, ...]:
    """Every registered algorithm name."""
    return tuple(sorted(_REGISTRY))


def make_cc(name: str, mss: int, dup_threshold: int = 3) -> CongestionAlgorithm:
    """Construct the named algorithm.

    ``dup_threshold`` — the conformance campaign's sabotage knob —
    reaches *every* algorithm.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown congestion algorithm {name!r} "
            f"(registered: {', '.join(algorithms())})"
        )
    return factory(mss=mss, dup_threshold=dup_threshold)


@register("reno")
def _make_reno(mss: int, dup_threshold: int) -> Reno:
    return Reno(mss=mss, dup_threshold=dup_threshold)


@register("tahoe")
def _make_tahoe(mss: int, dup_threshold: int) -> Reno:
    return Reno(mss=mss, flavor="tahoe", dup_threshold=dup_threshold)


@register("cubic")
def _make_cubic(mss: int, dup_threshold: int) -> Cubic:
    return Cubic(mss=mss, dup_threshold=dup_threshold)


@register("bbr")
def _make_bbr(mss: int, dup_threshold: int) -> BbrModel:
    return BbrModel(mss=mss, dup_threshold=dup_threshold)


__all__ = [
    "CongestionAlgorithm",
    "MAX_WINDOW",
    "CC_ALGORITHMS",
    "Reno",
    "Cubic",
    "BbrModel",
    "algorithms",
    "make_cc",
    "register",
]
