"""Out-of-order segment reassembly for the TCP receive path."""

from __future__ import annotations


class ReassemblyQueue:
    """Holds payload beyond ``rcv_nxt`` until the gap before it fills.

    Stored as a sorted list of non-overlapping ``(seq, bytes)`` runs
    (``seq`` unwrapped, like every sequence number the TCB holds);
    inserts trim overlap against both existing runs and the given
    ``rcv_nxt`` so the queue never holds already-delivered data.
    """

    def __init__(self) -> None:
        #: Public for its truth value: the machine's receive path asks
        #: "is anything queued?" once per data segment.
        self.runs: list[tuple[int, bytes]] = []

    def insert(self, seq: int, data, rcv_nxt: int) -> None:
        """Add ``data`` starting at ``seq``, trimming any overlap.

        ``data`` may be a zero-copy view into a received frame; the
        common in-order case stores it as-is.  Only the overlap-merge
        branches materialize bytes (they must splice runs together).
        """
        if not len(data):
            return
        # Trim anything at or below rcv_nxt.
        behind = rcv_nxt - seq
        if behind > 0:
            if behind >= len(data):
                return
            data = memoryview(data)[behind:]
            seq = rcv_nxt
        end = seq + len(data)

        merged: list[tuple[int, bytes]] = []
        for run_seq, run_data in self.runs:
            run_end = run_seq + len(run_data)
            if run_end <= seq or run_seq >= end:
                merged.append((run_seq, run_data))
                continue
            # Overlap: extend the incoming data to cover the union.
            if run_seq < seq:
                data = bytes(run_data[: seq - run_seq]) + bytes(data)
                seq = run_seq
            if end < run_end:
                data = bytes(data) + bytes(run_data[end - run_seq :])
                end = run_end
        merged.append((seq, data))
        merged.sort(key=lambda run: run[0])
        self.runs = merged

    def extract(self, rcv_nxt: int):
        """Remove and return bytes now contiguous with ``rcv_nxt``.

        The hot in-order case — a single run with nothing stale — hands
        the stored buffer (possibly a view) straight back without
        copying; only multi-run extraction joins."""
        parts: list = []
        cursor = rcv_nxt
        while self.runs:
            run_seq, run_data = self.runs[0]
            if run_seq > cursor:
                break  # A gap remains before this run.
            self.runs.pop(0)
            skip = cursor - run_seq
            if skip >= len(run_data):
                continue  # Entirely stale.
            parts.append(
                memoryview(run_data)[skip:] if skip else run_data
            )
            cursor = run_seq + len(run_data)
        if not parts:
            return b""
        if len(parts) == 1:
            return parts[0]
        return b"".join(bytes(p) for p in parts)
