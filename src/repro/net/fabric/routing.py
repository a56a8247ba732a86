"""Longest-prefix-match route tables for hosts and routers.

The paper's IP library "does not implement the functions required for
handling gateway traffic"; the fabric lifts that restriction.  A
:class:`RouteTable` answers two questions: which interface/next hop a
destination goes through (routers), and whether a destination is
on-link or must go via a gateway (hosts' ``resolve_link``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..headers import ip_to_str


def prefix_mask(prefix_len: int) -> int:
    """A /``prefix_len`` netmask as a 32-bit int."""
    if not 0 <= prefix_len <= 32:
        raise ValueError(f"bad prefix length {prefix_len}")
    if prefix_len == 0:
        return 0
    return (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF


#: All 33 netmasks, precomputed: the lookup path is per-packet on every
#: router, and rebuilding the mask per match is measurable at scale.
_MASKS = tuple(prefix_mask(n) for n in range(33))

#: Destination-cache sentinel for "looked up, no route".  Distinct from
#: absent so unreachable destinations don't re-probe every packet.
_NO_ROUTE = object()


@dataclass(frozen=True)
class Route:
    """One routing entry.

    ``gateway`` None means the destination network is directly attached
    (deliver to the destination itself); ``interface`` is whatever
    egress object the owner associates — a router interface, or None
    for single-homed hosts.
    """

    prefix: int
    prefix_len: int
    gateway: Optional[int] = None
    interface: object = None

    def __str__(self) -> str:
        via = ip_to_str(self.gateway) if self.gateway is not None else "link"
        return f"{ip_to_str(self.prefix)}/{self.prefix_len} via {via}"


class RouteTable:
    """Longest-prefix-match over a set of static routes.

    Lookup is tiered: one dict of masked-prefix→route per prefix length
    present in the table, probed longest-first.  A fat-tree core router
    holding one /16 per pod answers in a couple of dict probes instead
    of a linear scan — the difference between O(routes) and O(distinct
    prefix lengths) per forwarded packet.
    """

    #: Destination-cache bound: a fat-tree pod sees a few thousand
    #: distinct destinations; past that, evict wholesale rather than
    #: track LRU order on the per-packet path.
    CACHE_LIMIT = 8192

    def __init__(self) -> None:
        self._routes: list[Route] = []
        #: prefix_len -> {masked prefix -> first route added for it}.
        self._tiers: dict[int, dict[int, Route]] = {}
        #: Prefix lengths present, longest first.
        self._lens: list[int] = []
        #: dst -> Route (or _NO_ROUTE for a cached negative).  Purely a
        #: wall-clock memo over the tier probes — hits and misses return
        #: exactly what the probe loop would; invalidated on any add().
        self._cache: dict[int, object] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0

    def add(
        self,
        prefix: int,
        prefix_len: int,
        gateway: Optional[int] = None,
        interface: object = None,
    ) -> Route:
        route = Route(
            prefix & _MASKS[prefix_len], prefix_len, gateway, interface
        )
        self._routes.append(route)
        # Longest prefix first; insertion order breaks ties.
        self._routes.sort(key=lambda r: -r.prefix_len)
        tier = self._tiers.get(prefix_len)
        if tier is None:
            tier = self._tiers[prefix_len] = {}
            self._lens.append(prefix_len)
            self._lens.sort(reverse=True)
        # First-added wins on duplicates, matching the stable-sort scan.
        tier.setdefault(route.prefix, route)
        if self._cache:
            # A new route can shadow any cached answer (including cached
            # "no route"), so the whole memo goes.
            self._cache.clear()
            self.cache_invalidations += 1
        return route

    def add_default(self, gateway: int, interface: object = None) -> Route:
        """Install a 0.0.0.0/0 route through ``gateway``."""
        return self.add(0, 0, gateway, interface)

    def lookup(self, dst: int) -> Optional[Route]:
        """The most specific route covering ``dst``, or None."""
        cached = self._cache.get(dst)
        if cached is not None:
            self.cache_hits += 1
            return cached if cached is not _NO_ROUTE else None
        self.cache_misses += 1
        tiers = self._tiers
        for prefix_len in self._lens:
            route = tiers[prefix_len].get(dst & _MASKS[prefix_len])
            if route is not None:
                if len(self._cache) >= self.CACHE_LIMIT:
                    self._cache.clear()
                self._cache[dst] = route
                return route
        if len(self._cache) >= self.CACHE_LIMIT:
            self._cache.clear()
        self._cache[dst] = _NO_ROUTE
        return None

    def next_hop(self, dst: int) -> int:
        """The IP to resolve at the link layer when sending to ``dst``.

        Hosts call this from ``resolve_link``: a matched route with a
        gateway redirects the ARP to the gateway; an on-link match (or
        no route at all, the pre-fabric behaviour) resolves the
        destination directly.
        """
        route = self.lookup(dst)
        if route is None or route.gateway is None:
            return dst
        return route.gateway
