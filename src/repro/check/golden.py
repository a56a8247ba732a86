"""Wire-trace digests: byte-identical regression evidence.

A run's wire behaviour is reduced to a sha256 over every captured
segment's addressing, sequence numbers, flags, window, and length, in
time order.  Because the simulator and fault injector are fully
deterministic, the digest of a :class:`~repro.check.campaign.CellSpec`
is a function of the code alone — any change to segmentation, timing,
or congestion control moves it.  ``tests/protocols/data/
reno_wire_golden.json`` pins the digests captured *before* the
congestion-control extraction; the regression test holds ``cc="reno"``
to them, proving the pluggable stack is byte-identical on the wire.
"""

from __future__ import annotations

import hashlib

from .campaign import cell_evidence


def wire_digest(evidence) -> str:
    """sha256 over the decoded wire trace of one run's evidence."""
    h = hashlib.sha256()
    for s in evidence.segments:
        h.update(
            f"{s.time!r}|{s.src_ip}|{s.dst_ip}|{s.sport}|{s.dport}|"
            f"{s.seq}|{s.ack}|{s.flags}|{s.window}|{s.data_len}\n".encode()
        )
    return h.hexdigest()


def golden_cell_key(spec) -> str:
    """The stable key one spec gets in a golden-digest file."""
    return (
        f"{spec.topology}/{spec.organization}/seed{spec.seed}"
        f"/drop{spec.drop_rate}/corrupt{spec.corrupt_rate}"
    )


def digest_cell(spec) -> tuple[str, int]:
    """Run ``spec`` deterministically; return (digest, segment count)."""
    evidence = cell_evidence(spec)
    return wire_digest(evidence), len(evidence.segments)
