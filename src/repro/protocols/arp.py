"""Sans-io ARP: IPv4-to-MAC resolution with a timed cache.

The paper's applications link an ARP library alongside TCP and IP; this
is that library's core.  A caller polls ``lookup`` and, on a miss, asks
``resolve`` for a broadcast request (rate-limited per destination);
``receive`` decodes and processes requests/replies, learning bindings
and answering requests for the local address.
"""

from __future__ import annotations

from ..counters import Counters
from dataclasses import dataclass
from typing import Optional

from ..net.headers import (
    ARP_REPLY,
    ARP_REQUEST,
    BROADCAST_MAC,
    ArpPacket,
    HeaderError,
)


@dataclass(frozen=True)
class SendArp:
    """Caller should transmit this ARP packet to ``dst_mac``."""

    packet: ArpPacket
    dst_mac: bytes


@dataclass
class _CacheEntry:
    mac: bytes
    learned_at: float


class ArpStack:
    """One host's ARP state machine."""

    #: Cache entry lifetime (4.3BSD used 20 minutes).
    CACHE_TTL = 1200.0
    #: Re-request interval while resolution is outstanding.
    RETRY_INTERVAL = 1.0

    def __init__(self, local_ip: int, local_mac: bytes) -> None:
        self.local_ip = local_ip
        self.local_mac = local_mac
        self._cache: dict[int, _CacheEntry] = {}
        self._last_request: dict[int, float] = {}
        self.stats = Counters()

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def lookup(self, ip: int, now: float) -> Optional[bytes]:
        """Cache-only lookup; honours entry expiry."""
        entry = self._cache.get(ip)
        if entry is None:
            return None
        if now - entry.learned_at > self.CACHE_TTL:
            del self._cache[ip]
            return None
        return entry.mac

    def resolve(self, ip: int, now: float) -> Optional[SendArp]:
        """The broadcast request for ``ip`` after a ``lookup`` miss, or
        None while one sent less than ``RETRY_INTERVAL`` ago is
        outstanding."""
        self.stats["cache_misses"] += 1
        last = self._last_request.get(ip)
        if last is not None and now - last < self.RETRY_INTERVAL:
            return None
        self._last_request[ip] = now
        self.stats["requests_sent"] += 1
        return SendArp(
            ArpPacket(ARP_REQUEST, self.local_mac, self.local_ip, b"\x00" * 6, ip),
            BROADCAST_MAC,
        )

    # ------------------------------------------------------------------
    # Input
    # ------------------------------------------------------------------

    def receive(self, payload: bytes, now: float) -> list[SendArp]:
        """Process an incoming ARP packet's octets; returns the reply to
        send, if it asked for the local address.  A malformed packet is
        counted as ``bad_header`` and answered with nothing."""
        try:
            packet = ArpPacket.unpack(payload)
        except HeaderError:
            self.stats["bad_header"] += 1
            return []
        # Opportunistically learn the sender's binding (RFC 826).
        if packet.sender_ip != 0:
            self._cache[packet.sender_ip] = _CacheEntry(packet.sender_mac, now)
            self._last_request.pop(packet.sender_ip, None)
        if packet.oper == ARP_REQUEST and packet.target_ip == self.local_ip:
            self.stats["replies_sent"] += 1
            return [
                SendArp(
                    ArpPacket(
                        ARP_REPLY,
                        self.local_mac,
                        self.local_ip,
                        packet.sender_mac,
                        packet.sender_ip,
                    ),
                    packet.sender_mac,
                )
            ]
        if packet.oper == ARP_REPLY:
            self.stats["replies_received"] += 1
        return []
