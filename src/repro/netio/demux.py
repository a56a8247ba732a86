"""The flow-table demultiplexing engine.

The paper's synthesized demux "requires only a few instructions" and
costs the same 52 µs whether one connection or hundreds are registered
(Table 5).  That claim is only honest if the implementation is actually
indexed: the receive path asks a :class:`FlowTable` of two tiers, never
an O(channels) scan of per-channel predicates.

* **Exact tier** — a dict keyed on the full 5-tuple
  ``(proto, local_ip, local_port, remote_ip, remote_port)``.  Installed
  by the registry when it grants an established connection.  One hash
  lookup classifies the packet; cost is the fixed
  :attr:`~repro.costs.CostModel.flow_lookup` charge regardless of how
  many flows are installed.
* **Wildcard tier** — a dict keyed on ``(proto, local_port)``, holding
  UDP port bindings and TCP passive-open listeners.  A wildcard entry
  may target either a channel (UDP binds) or the kernel
  (:data:`KERNEL_FLOW`: SYNs for a listening port go to the registry's
  handshake path).

The historical regime — an ordered list of interpreted CSPF/BPF filter
programs with per-instruction costs, Table 5's other arm — is
:class:`~repro.netio.pktfilter.ScanTable`, beside the interpreter it
runs.

Key extraction uses the same fixed header offsets as the filter
programs in :mod:`repro.netio.pktfilter` (Ethernet 14 bytes, IPv4
without options): the paper's synthesized demux compiled exactly these
offsets into the kernel, and the equivalence property test in
``tests/netio/test_filter_fuzz.py`` relies on the classifier forms
agreeing on every input, including truncated and malformed frames.
"""

from __future__ import annotations

from ..counters import Counters
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..costs import CostModel
from ..net.buf import as_wire_bytes
from ..net.headers import EthernetHeader, Ipv4Header, PROTO_TCP, PROTO_UDP, record

_ETH = EthernetHeader.LENGTH
_IP_OFF = _ETH + Ipv4Header.LENGTH

#: Wildcard-tier target meaning "deliver to the kernel consumer" — the
#: registry's handshake path owns this flow, not a user channel.
KERNEL_FLOW = object()


class DemuxError(ValueError):
    """Invalid flow installation (duplicate key, malformed key)."""


@record
class FlowKey(NamedTuple):
    """The 5-tuple naming one flow.

    ``remote_ip``/``remote_port`` of zero mean "any" — such a key lives
    in the wildcard tier (UDP binds, passive opens); a fully specified
    key lives in the exact tier.
    """

    proto: int
    local_ip: int
    local_port: int
    remote_ip: int = 0
    remote_port: int = 0

    @property
    def is_exact(self) -> bool:
        return self.remote_ip != 0 and self.remote_port != 0

    def __str__(self) -> str:
        proto = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(self.proto, str(self.proto))
        if self.is_exact:
            return (
                f"{proto} {self.remote_ip:#010x}:{self.remote_port}"
                f"->:{self.local_port}"
            )
        return f"{proto} *->:{self.local_port}"


@record
class DemuxDecision(NamedTuple):
    """Outcome of classifying one frame.

    ``target`` is the matched channel, :data:`KERNEL_FLOW`, or ``None``
    on a miss; ``cost`` is the CPU charge the receive path owes for the
    classification under the active cost model; ``scanned`` counts
    the filter programs a ``ScanTable`` executed.
    """

    target: object
    tier: str  # "exact" | "wildcard" | "scan" | "miss"
    cost: float
    scanned: int = 0

    @property
    def channel(self) -> object:
        """The matched channel, or ``None`` (miss or kernel flow)."""
        if self.target is None or self.target is KERNEL_FLOW:
            return None
        return self.target


@dataclass
class _WildcardEntry:
    local_ip: int  # 0 = any local address.
    target: object
    #: Tenant attribution (a tenant_id string) for audit and the
    #: shadow-rejection check; ``None`` for untenanted stacks.
    owner: object = None


class FlowTable:
    """The indexed demux engine (exact tier, then wildcard tier).

    It maps installed flows to channels and never touches the kernel or
    charges costs itself — :meth:`classify` *reports* the cost of the
    decision and the module consumes it, keeping the engine a pure data
    structure that benchmarks can drive directly.
    """

    def __init__(self) -> None:
        self._exact: dict[FlowKey, object] = {}
        self._wildcard: dict[tuple[int, int], _WildcardEntry] = {}
        #: Tenant attribution of exact-tier flows: key -> owner, plus a
        #: per-(proto, port) owner multiset so a wildcard install can
        #: check for cross-tenant shadowing in O(1).
        self._exact_owners: dict[FlowKey, object] = {}
        self._port_owners: dict[tuple[int, int], Counters] = {}
        self.stats = Counters()
        #: Last-flow memo: back-to-back frames of one flow skip key
        #: extraction and the tier probes.  Keyed on the exact header
        #: bytes the 5-tuple is parsed from (proto byte + addresses +
        #: ports — never the checksum/length fields, which vary per
        #: segment), so a memo hit provably reproduces the full
        #: classification.  Invalidated on any install/remove.
        self._memo_key: object = None
        self._memo_target: object = None
        self._memo_tier: str = ""

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self, key: FlowKey, target: object, owner: object = None) -> None:
        """Register ``key`` → ``target``, attributed to tenant ``owner``.

        A wildcard install whose port already carries another tenant's
        exact-match flows is refused (``wildcard_rejected`` audit
        counter): a match on the wildcard tier would otherwise capture
        every *future* remote endpoint on that port, silently shadowing
        the other tenant's traffic.
        """
        if key.is_exact:
            if key in self._exact:
                raise DemuxError(f"flow {key} already installed")
            self._exact[key] = target
            if owner is not None:
                self._exact_owners[key] = owner
                port = (key.proto, key.local_port)
                owners = self._port_owners.get(port)
                if owners is None:
                    owners = self._port_owners[port] = Counters()
                owners[owner] += 1
        else:
            wkey = (key.proto, key.local_port)
            if wkey in self._wildcard:
                raise DemuxError(f"wildcard flow {key} already installed")
            if owner is not None:
                foreign = [
                    other
                    for other, count in self._port_owners.get(wkey, {}).items()
                    if count > 0 and other != owner
                ]
                if foreign:
                    self.stats["wildcard_rejected"] += 1
                    raise DemuxError(
                        f"wildcard flow {key} (tenant {owner}) would shadow"
                        f" exact flows of tenant(s) {sorted(foreign)}"
                    )
            self._wildcard[wkey] = _WildcardEntry(key.local_ip, target, owner)
        self._memo_key = None

    def remove(self, key: FlowKey) -> None:
        """Tear one flow down; unknown keys are ignored (teardown must
        be idempotent — inheritance and explicit release may race)."""
        if key.is_exact:
            self._exact.pop(key, None)
            owner = self._exact_owners.pop(key, None)
            if owner is not None:
                port = (key.proto, key.local_port)
                owners = self._port_owners[port]
                owners[owner] -= 1
                if not any(owners.values()):
                    # The port's last owned flow: under tenanted churn
                    # every ephemeral port would otherwise leave a
                    # zeroed multiset behind for good.
                    del self._port_owners[port]
        else:
            self._wildcard.pop((key.proto, key.local_port), None)
        self._memo_key = None

    def listener_ports(self, owner: object) -> list[int]:
        """The ports of the listeners (wildcard flows to the kernel)
        attributed to ``owner``."""
        return [
            port for (_, port), entry in self._wildcard.items()
            if entry.target is KERNEL_FLOW and entry.owner == owner
        ]

    def wildcard_target(
        self, proto: int, local_port: int, local_ip: int = 0
    ) -> object:
        """Kernel-side flow resolution (no cost, no stats): the UDP
        forwarder asks which channel owns a port binding."""
        entry = self._wildcard.get((proto, local_port))
        if entry is None:
            return None
        if entry.local_ip and local_ip and entry.local_ip != local_ip:
            return None
        return entry.target

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    @staticmethod
    def extract_key(frame: bytes) -> Optional[FlowKey]:
        """Parse the 5-tuple from a raw Ethernet frame.

        Fixed offsets, IPv4-without-options, exactly like the
        synthesized predicates the paper compiled into the kernel; a
        frame too short to carry both ports yields no key.
        """
        if len(frame) < _IP_OFF + 4 or frame[12:14] != b"\x08\x00":
            return None
        # proto, local_ip, local_port, remote_ip, remote_port:
        return FlowKey.build((
            frame[_ETH + 9],
            int.from_bytes(frame[_ETH + 16 : _ETH + 20], "big"),
            int.from_bytes(frame[_IP_OFF + 2 : _IP_OFF + 4], "big"),
            int.from_bytes(frame[_ETH + 12 : _ETH + 16], "big"),
            int.from_bytes(frame[_IP_OFF : _IP_OFF + 2], "big"),
        ))

    def classify(self, frame: bytes, costs: CostModel) -> DemuxDecision:
        """Resolve one IP frame to its flow target: one indexed lookup
        at the fixed ``flow_lookup`` charge, hit or miss — the lookup
        runs either way."""
        cost = costs.flow_lookup
        if not self._exact and not self._wildcard:
            # Nothing installed (every router interface; a host that
            # binds kernel ports, not channels): the lookup is charged
            # and misses, with no key to read and nothing to remember.
            self.stats["misses"] += 1
            return DemuxDecision.build((None, "miss", cost, 0))
        frame = as_wire_bytes(frame)  # keys are read off the flat image
        if len(frame) < _IP_OFF + 4 or frame[12] != 0x08 or frame[13] != 0x00:
            # Too short to carry both ports, or not IPv4: no key, and
            # nothing to remember the frame by.
            self.stats["misses"] += 1
            return DemuxDecision.build((None, "miss", cost, 0))
        mkey = (frame[_ETH + 9], frame[_ETH + 12 : _IP_OFF + 4])
        if mkey == self._memo_key:
            tier = self._memo_tier
            self.stats["memo_hits"] += 1
            if tier == "miss":
                # A repeated miss is as memoable as a hit (same fixed
                # lookup charge).
                self.stats["misses"] += 1
                return DemuxDecision.build((None, "miss", cost, 0))
            self.stats[tier + "_hits"] += 1
            return DemuxDecision.build((self._memo_target, tier, cost, 0))
        key = self.extract_key(frame)
        target = self._exact.get(key)
        if target is not None:
            tier = "exact"
            self.stats["exact_hits"] += 1
        else:
            entry = self._wildcard.get((key.proto, key.local_port))
            if entry is not None and entry.local_ip in (0, key.local_ip):
                target = entry.target
                tier = "wildcard"
                self.stats["wildcard_hits"] += 1
            else:
                tier = "miss"
                self.stats["misses"] += 1
        self._memo_key = mkey
        self._memo_target = target
        self._memo_tier = tier
        return DemuxDecision.build((target, tier, cost, 0))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def exact_count(self) -> int:
        return len(self._exact)

    @property
    def wildcard_count(self) -> int:
        return len(self._wildcard)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} exact={self.exact_count}"
            f" wildcard={self.wildcard_count}>"
        )
