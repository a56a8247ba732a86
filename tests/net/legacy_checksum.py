"""Test oracle: the ``array`` word sum the big-integer kernel replaced.

RFC 1071 done the plain way — the buffer cast to 16-bit words, byte-
swapped on a little-endian host, summed, and the carries folded back in
a loop.  ``repro.net.checksum`` is held to it by
``test_checksum_kernel.py``.  It is not production code: it costs about
three times the kernel at every buffer size (EXPERIMENTS.md, "Byte
path").
"""

import array
import sys


def sum16(data) -> int:
    """Unfolded 16-bit one's-complement partial sum of ``data``."""
    view = data if isinstance(data, memoryview) else memoryview(data)
    if view.itemsize != 1:
        view = view.cast("B")
    n = len(view)
    if n == 0:
        return 0
    tail = 0
    if n % 2:
        tail = view[n - 1] << 8
        view = view[: n - 1]
    words = array.array("H")
    words.frombytes(view)
    if sys.byteorder == "little":
        words.byteswap()
    return sum(words) + tail


def fold(total: int) -> int:
    """Fold a partial sum to 16 bits, adding carries back in."""
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def internet_checksum(data) -> int:
    return ~fold(sum16(data)) & 0xFFFF
