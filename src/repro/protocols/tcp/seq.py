"""Where the 32-bit sequence circle meets the stack (RFC 793 §3.3).

The TCB counts in plain, *unwrapped* integers (ISS on open, growing
past 2**32 naturally); only a segment's ``seq``/``ack`` fields live on
the circle.  :func:`unwrap` lifts an arriving field off it, and
``TcpMachine._emit`` masks a departing one back on.  ``seq_diff`` is
the wire-side comparison, for judges that only ever see wire values.
"""

from __future__ import annotations

MOD = 1 << 32
HALF = 1 << 31


def seq_diff(a: int, b: int) -> int:
    """Signed circular distance ``a - b`` in ``[-2**31, 2**31)``."""
    d = (a - b) % MOD
    if d >= HALF:
        d -= MOD
    return d


def unwrap(wire: int, ref: int) -> int:
    """The unwrapped number nearest ``ref`` that reads ``wire`` on the
    wire: within ``[ref - 2**31, ref + 2**31)`` — ``ref + seq_diff(wire,
    ref)``, spelled without the call (twice per arriving segment)."""
    return ref + (wire - ref + HALF) % MOD - HALF
