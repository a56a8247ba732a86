"""Scatter-gather packet buffers: the paper's no-copy datapath.

The paper's second host mechanism is *protected shared packet buffers*:
the library builds a segment in place and the device sends it "without
copies".  :class:`PacketBuffer` is the simulator's equivalent of a BSD
mbuf chain or an iovec: an ordered list of read-only fragments
(``bytes``/``memoryview``), immutable once built — encapsulation makes
a new chain around the old one, :func:`prepend` — with the flat
``bytes`` image produced lazily — once — where the frame's device reads
it: the PMADD's programmed-I/O copy onto the board, or the AN1
controller's DMA fetch.

Copy accounting
---------------
Every byte the datapath copies, avoids copying, or fuses for the wire is
counted in a module-global :class:`CopyStats`, so benchmarks can report
*bytes copied per delivered segment* — the quantity the paper's shared
buffers eliminate.  :func:`prepend` builds fragment chains and
:func:`slice_view` returns ``memoryview`` windows; the bytes that a
copy-per-layer datapath would have moved are counted as *avoided*.
That datapath itself — real concatenation, real slice copies — is the
test oracle ``tests/net/eager_datapath.py``.
"""

from __future__ import annotations

from typing import Iterator, Union

Fragment = Union[bytes, bytearray, memoryview]


class CopyStats:
    """Byte-granular accounting of datapath copy behaviour."""

    __slots__ = ("copied_bytes", "copy_ops", "avoided_bytes",
                 "materialized_bytes", "materialize_ops")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Bytes physically copied by the host datapath (concat, slice).
        self.copied_bytes = 0
        self.copy_ops = 0
        #: Bytes a legacy copy would have moved that a view/chain did not.
        self.avoided_bytes = 0
        #: Bytes fused into flat wire images at the device boundary.
        self.materialized_bytes = 0
        self.materialize_ops = 0

    @property
    def total_copied(self) -> int:
        """All bytes that crossed a copy: host copies plus wire fusion."""
        return self.copied_bytes + self.materialized_bytes

    def snapshot(self) -> dict:
        return {
            "copied_bytes": self.copied_bytes,
            "copy_ops": self.copy_ops,
            "avoided_bytes": self.avoided_bytes,
            "materialized_bytes": self.materialized_bytes,
            "materialize_ops": self.materialize_ops,
            "total_copied": self.total_copied,
        }


#: The process-wide accounting instance (reset per benchmark arm).
STATS = CopyStats()

#: Observability hook: when packet-lifecycle tracing is enabled
#: (``repro.obs.spans.enable``), this holds a ``bind(fused_bytes,
#: trace_id)`` callable so the flat wire image produced by
#: :meth:`PacketBuffer.tobytes` stays associated with the chain's trace
#: id after the chain itself is gone.  ``None`` (the default) keeps the
#: fusion path free of any tracing cost beyond this one identity test.
SPAN_BINDER = None


def reset_stats() -> None:
    STATS.reset()


class PacketBuffer:
    """An immutable chain of packet fragments.

    Fragments are stored outermost-header-first.  Neither the chain nor
    the fragment bytes under it change after construction — a header
    goes on by building a new chain that shares the old one's fragments
    (:func:`prepend`) — so a cached segment image can appear in many
    frames at once (the retransmit path relies on this) and the fused
    wire image, once made, stays valid.

    The surface is what the datapath reads: the length, an index or a
    slice (the send-template check), ``fragments`` (``checksum_parts``)
    and the fused image.  A chain has no value equality, hash or
    concatenation; compare ``tobytes()``.
    """

    __slots__ = ("_frags", "_length", "_fused", "trace_id")

    def __init__(self, fragments: "Iterator[Fragment] | tuple | list" = ()) -> None:
        frags: list[Fragment] = []
        length = 0
        trace_id = None
        for frag in fragments:
            if type(frag) is PacketBuffer:
                frags += frag._frags
                length += frag._length
                # Encapsulation builds a new chain around the payload
                # chain; inheriting the payload's trace id here is what
                # lets one id minted at encode survive IP and link
                # framing without per-layer plumbing.
                if trace_id is None:
                    trace_id = frag.trace_id
            else:
                size = len(frag)
                if size:
                    frags.append(frag)
                    length += size
        self._frags = frags
        self._length = length
        self._fused: bytes | None = None
        self.trace_id = trace_id

    # -- reading --------------------------------------------------------

    @property
    def fragments(self) -> "tuple[Fragment, ...]":
        return tuple(self._frags)

    def tobytes(self) -> bytes:
        """The flat wire image; fused once, then cached."""
        if self._fused is None:
            self._fused = b"".join(self._frags)
            STATS.materialized_bytes += self._length
            STATS.materialize_ops += 1
            if self.trace_id is not None and SPAN_BINDER is not None:
                SPAN_BINDER(self._fused, self.trace_id)
        return self._fused

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, key):
        if isinstance(key, int):
            if key < 0:
                key += self._length
            if not 0 <= key < self._length:
                raise IndexError("PacketBuffer index out of range")
            for frag in self._frags:
                if key < len(frag):
                    return frag[key]
                key -= len(frag)
            raise IndexError("PacketBuffer index out of range")
        if isinstance(key, slice):
            start, stop, step = key.indices(self._length)
            if step != 1:
                raise ValueError("PacketBuffer slices must be contiguous")
            if self._fused is not None:
                return self._fused[start:stop]
            out = bytearray()
            want = stop - start
            for frag in self._frags:
                if want <= 0:
                    break
                if start >= len(frag):
                    start -= len(frag)
                    continue
                piece = frag[start:start + want]
                out.extend(piece)
                want -= len(piece)
                start = 0
            return bytes(out)
        raise TypeError(f"bad PacketBuffer index {key!r}")

    def __repr__(self) -> str:
        return (
            f"PacketBuffer({len(self._frags)} frags, {self._length} bytes"
            f"{', fused' if self._fused is not None else ''})"
        )


# ----------------------------------------------------------------------
# Datapath helpers — every encode/decode site goes through these.
# ----------------------------------------------------------------------

def prepend(header: Fragment, payload) -> PacketBuffer:
    """Put ``header`` in front of ``payload`` — the encapsulation step.

    Returns a fresh :class:`PacketBuffer`: the payload chain is shared,
    not copied, so cached segment images stay reusable.  The chain is
    built here in one step — a payload chain's length and trace id are
    read off its fields, not re-walked by :class:`PacketBuffer`'s
    constructor — because every frame pays for it once per layer.
    """
    chain = object.__new__(PacketBuffer)  # The four slots are set below.
    if type(payload) is PacketBuffer:
        length = payload._length
        chain._frags = [header, *payload._frags]
        # Inheriting the payload's trace id is what lets one id minted
        # at encode survive IP and link framing without per-layer
        # plumbing.
        chain.trace_id = payload.trace_id
    else:
        length = len(payload)
        chain._frags = [header, payload] if length else [header]
        chain.trace_id = None
    STATS.avoided_bytes += length
    chain._length = len(header) + length
    chain._fused = None
    return chain


def slice_view(data, start: int, stop: "int | None" = None) -> memoryview:
    """A window into ``data`` — the decapsulation step (zero copy,
    counted as avoided)."""
    if type(data) is PacketBuffer:
        data = data.tobytes()
    view = memoryview(data)[start:stop]
    STATS.avoided_bytes += view.nbytes
    return view


def as_wire_bytes(frame) -> bytes:
    """Materialize ``frame`` into flat octets at a device boundary.

    Idempotent and cached: a chain fused for a tracer is not fused again
    by the link.  Plain ``bytes`` pass through untouched.
    """
    kind = type(frame)
    if kind is bytes:
        return frame
    if kind is PacketBuffer:
        return frame.tobytes()
    flat = bytes(frame)
    STATS.materialized_bytes += len(flat)
    STATS.materialize_ops += 1
    return flat
