"""Stat counters: a dict that reads untouched keys as 0.

Every layer object (NIC, link, IP, ARP, demux, channels, ...) counts in
one :class:`Counters`.  A missing key *reads* as 0 without being stored,
so a counter is allocated on its first increment and a 1k-host world
does not pay for tens of thousands of zero entries before a packet
moves.  Nothing else is overridden: ``stats["x"] += 1`` is the builtin
dict item assignment and costs no Python-level call, which is what lets
the per-packet path count in a ``Counters`` directly (DESIGN.md,
"Counting").
"""

from __future__ import annotations


class Counters(dict):
    """A dict of counters where untouched keys read as 0."""

    __slots__ = ()

    def __missing__(self, key):
        # Read-only default: do NOT store, so pure reads never allocate.
        return 0

    def snapshot(self) -> dict:
        """A plain-dict copy of the non-zero counters."""
        return {key: value for key, value in self.items() if value}
