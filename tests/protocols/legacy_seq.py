"""The modular sequence helpers the stack used before the TCB counted
in unwrapped integers, kept verbatim as a test oracle: the property
tests check plain ``<``/``<=``/``max``/``-`` on unwrapped values
against them.  Nothing under ``src/`` reaches this module.
"""

from __future__ import annotations

from repro.protocols.tcp.seq import MOD, seq_diff


def seq_add(seq: int, n: int) -> int:
    """``seq + n`` on the sequence circle."""
    return (seq + n) % MOD


def seq_lt(a: int, b: int) -> bool:
    """``a < b`` modulo 2**32."""
    return seq_diff(a, b) < 0


def seq_le(a: int, b: int) -> bool:
    """``a <= b`` modulo 2**32."""
    return seq_diff(a, b) <= 0


def seq_gt(a: int, b: int) -> bool:
    """``a > b`` modulo 2**32."""
    return seq_diff(a, b) > 0


def seq_ge(a: int, b: int) -> bool:
    """``a >= b`` modulo 2**32."""
    return seq_diff(a, b) >= 0


def seq_between(low: int, x: int, high: int) -> bool:
    """``low <= x < high`` on the circle (empty if low == high)."""
    return seq_le(low, x) and seq_lt(x, high)


def seq_max(a: int, b: int) -> int:
    """The later of two sequence numbers."""
    return a if seq_ge(a, b) else b

def seq_min(a: int, b: int) -> int:
    """The earlier of two sequence numbers."""
    return a if seq_le(a, b) else b
