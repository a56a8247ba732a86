"""Test oracle: the copy-per-layer datapath the fragment chains replaced.

Every encapsulation concatenates and every decapsulation slices — real
copies, counted in ``buf.STATS`` as copied bytes — which is what
``repro.net.buf`` did before :func:`~repro.net.buf.prepend` built chains
and :func:`~repro.net.buf.slice_view` returned views.  ``test_zero_copy``
holds the chain datapath to it: bit-identical wire images, equal
simulated outcome, and at least 2x fewer bytes copied per delivered
segment.  It is not production code; inside :func:`eager_datapath`
nothing may rely on a frame being a :class:`~repro.net.buf.PacketBuffer`
(span tracing, which stamps ``trace_id`` on chains, must be off).
"""

import sys
from contextlib import contextmanager

from repro.net import buf
from repro.net.buf import PacketBuffer


def _flatten(data) -> bytes:
    if isinstance(data, bytes):
        return data
    if isinstance(data, PacketBuffer):
        return data.tobytes()
    return bytes(data)


def prepend(header, payload) -> bytes:
    """Encapsulate by concatenation, counting the copy."""
    flat = _flatten(header) + _flatten(payload)
    buf.STATS.copied_bytes += len(flat)
    buf.STATS.copy_ops += 1
    return flat


def slice_view(data, start: int, stop: "int | None" = None) -> bytes:
    """Decapsulate by slicing out a fresh ``bytes``, counting the copy."""
    if type(data) is PacketBuffer:
        data = data.tobytes()
    piece = bytes(data[start:stop])
    buf.STATS.copied_bytes += len(piece)
    buf.STATS.copy_ops += 1
    return piece


def rebind(old, new) -> None:
    """Point every ``repro`` module global that is ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


@contextmanager
def eager_datapath():
    """Run the stack on the copying helpers instead of the chain ones.

    The helpers are imported by name all over the datapath, so both are
    swapped in every module that holds them.  The originals are read
    before the first swap: ``repro.net.buf`` is itself one of those
    modules, and once it is swapped an identity test against
    ``buf.prepend`` finds nothing.
    """
    swaps = [(buf.prepend, prepend), (buf.slice_view, slice_view)]
    for original, oracle in swaps:
        rebind(original, oracle)
    try:
        yield
    finally:
        for original, oracle in swaps:
            rebind(oracle, original)
