"""The flow-table demultiplexing engine.

The paper's synthesized demux "requires only a few instructions" and
costs the same 52 µs whether one connection or hundreds are registered
(Table 5).  That claim is only honest if the implementation is actually
indexed: this module replaces the receive path's O(channels) scan of
per-channel predicates with a :class:`FlowTable` of three tiers.

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
* **Legacy scan tier** — an ordered list of interpreted filter programs
  (CSPF/BPF style), preserved so the Table 5 ablation can still run the
  historical organizations with their per-instruction cost accounting.
  Scanned only after the indexed tiers miss; under the interpreted
  demux styles it is the *only* tier consulted, faithful to kernels
  that predate flow tables.

Key extraction uses the same fixed header offsets as the synthesized
predicates in :mod:`repro.netio.pktfilter` (Ethernet 14 bytes, IPv4
without options): the paper's synthesized demux compiled exactly these
offsets into the kernel, and the equivalence property test in
``tests/netio/test_filter_fuzz.py`` relies on the three classifier
forms agreeing on every input, including truncated and malformed
frames.
"""

from __future__ import annotations

from ..counters import Counters
from dataclasses import dataclass
from typing import Optional

from ..costs import CostModel
from ..net.buf import as_wire_bytes
from ..net.headers import EthernetHeader, Ipv4Header, PROTO_TCP, PROTO_UDP

_ETH = EthernetHeader.LENGTH
_IP_OFF = _ETH + Ipv4Header.LENGTH

#: Wildcard-tier target meaning "deliver to the kernel consumer" — the
#: registry's handshake path owns this flow, not a user channel.
KERNEL_FLOW = object()


class DemuxError(ValueError):
    """Invalid flow installation (duplicate key, malformed key)."""


@dataclass(frozen=True)
class FlowKey:
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


@dataclass
class DemuxDecision:
    """Outcome of classifying one frame.

    ``target`` is the matched channel, :data:`KERNEL_FLOW`, or ``None``
    on a miss; ``cost`` is the CPU charge the receive path owes for the
    classification under the active cost model; ``scanned`` counts
    legacy filters executed.
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
    """The three-tier demux engine (exact / wildcard / legacy scan).

    It maps installed flows to channels and never touches the kernel or
    charges costs itself — :meth:`classify` *reports* the cost of the
    decision and the module consumes it, keeping the engine a pure data
    structure that benchmarks can drive directly.
    """

    def __init__(self, style: str = "synthesized") -> None:
        if style not in ("synthesized", "cspf", "bpf"):
            raise DemuxError(f"unknown demux style {style!r}")
        #: Which cost regime classification runs under.  "synthesized"
        #: consults the indexed tiers at the fixed flow_lookup charge;
        #: "cspf"/"bpf" model the historical kernels: scan tier only,
        #: per-instruction interpretation costs.
        self.style = style
        self._exact: dict[FlowKey, object] = {}
        self._wildcard: dict[tuple[int, int], _WildcardEntry] = {}
        self._scan: list[tuple[object, object]] = []  # (filter, target)
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
        #: classification.  Only consulted under the synthesized style
        #: with an empty scan tier: interpreted styles charge per
        #: instruction, and legacy filters may match ahead of the
        #: indexed answer.  Invalidated on any install/remove.
        self._memo_key: object = None
        self._memo_target: object = None
        self._memo_tier: str = ""

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(
        self, key: FlowKey, target: object, filter=None, owner: object = None
    ) -> None:
        """Register ``key`` → ``target``, attributed to tenant ``owner``.

        With ``filter`` the flow additionally (for interpreted styles,
        exclusively) joins the legacy scan tier.  The indexed entry is
        always maintained so kernel-side consumers (the UDP forwarder)
        can resolve flows regardless of style.

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
        if filter is not None:
            self._scan.append((filter, target))
        self._memo_key = None

    def remove(self, key: FlowKey, target: object = None) -> None:
        """Tear one flow down; unknown keys are ignored (teardown must
        be idempotent — inheritance and explicit release may race)."""
        if key.is_exact:
            self._exact.pop(key, None)
            owner = self._exact_owners.pop(key, None)
            if owner is not None:
                owners = self._port_owners.get((key.proto, key.local_port))
                if owners is not None:
                    owners[owner] -= 1
        else:
            self._wildcard.pop((key.proto, key.local_port), None)
        if target is not None:
            self._scan = [
                entry for entry in self._scan if entry[1] is not target
            ]
        self._memo_key = None

    def wildcard_owner(self, proto: int, local_port: int) -> object:
        """Tenant attribution of a wildcard entry (netstat/audit)."""
        entry = self._wildcard.get((proto, local_port))
        return entry.owner if entry is not None else None

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
        return FlowKey(
            proto=frame[_ETH + 9],
            local_ip=int.from_bytes(frame[_ETH + 16 : _ETH + 20], "big"),
            local_port=int.from_bytes(frame[_IP_OFF + 2 : _IP_OFF + 4], "big"),
            remote_ip=int.from_bytes(frame[_ETH + 12 : _ETH + 16], "big"),
            remote_port=int.from_bytes(frame[_IP_OFF : _IP_OFF + 2], "big"),
        )

    def classify(self, frame: bytes, costs: CostModel) -> DemuxDecision:
        """Resolve one IP frame to its flow target.

        Synthesized style: one indexed lookup at the fixed
        ``flow_lookup`` charge (hit or miss — the lookup runs either
        way), then any legacy filters.  Interpreted styles: scan tier
        only, charged per program executed, stopping at the first
        match — the O(channels) behaviour the ablation measures.
        """
        frame = as_wire_bytes(frame)  # filters need the flat image
        cost = 0.0
        mkey = None
        if self.style == "synthesized":
            cost = costs.flow_lookup
            memoable = (
                not self._scan
                and len(frame) >= _IP_OFF + 4
                and frame[12] == 0x08
                and frame[13] == 0x00
            )
            if memoable:
                mkey = (frame[_ETH + 9], frame[_ETH + 12 : _IP_OFF + 4])
                if mkey == self._memo_key:
                    tier = self._memo_tier
                    self.stats["memo_hits"] += 1
                    if tier == "miss":
                        # Routers classify every forwarded frame and
                        # never match a flow; the repeated miss is as
                        # memoable as a hit (same fixed lookup charge).
                        self.stats["misses"] += 1
                        return DemuxDecision(None, "miss", cost)
                    self.stats[tier + "_hits"] += 1
                    return DemuxDecision(self._memo_target, tier, cost)
            key = self.extract_key(frame)
            if key is not None:
                target = self._exact.get(key)
                if target is not None:
                    self.stats["exact_hits"] += 1
                    if memoable:
                        self._memo_key = mkey
                        self._memo_target = target
                        self._memo_tier = "exact"
                    return DemuxDecision(target, "exact", cost)
                entry = self._wildcard.get((key.proto, key.local_port))
                if entry is not None and entry.local_ip in (0, key.local_ip):
                    self.stats["wildcard_hits"] += 1
                    if memoable:
                        self._memo_key = mkey
                        self._memo_target = entry.target
                        self._memo_tier = "wildcard"
                    return DemuxDecision(entry.target, "wildcard", cost)
        bpf = self.style == "bpf"
        scanned = 0
        for filt, target in self._scan:
            scanned += 1
            cost += filt.interpretation_cost(costs, bpf_style=bpf)
            if filt.run(frame):
                self.stats["scan_hits"] += 1
                self._note_scan(scanned)
                return DemuxDecision(target, "scan", cost, scanned)
        self._note_scan(scanned)
        self.stats["misses"] += 1
        if mkey is not None:
            # Only reachable with an empty scan tier (``memoable``), so
            # the memoized miss repeats the same fixed lookup charge.
            self._memo_key = mkey
            self._memo_target = None
            self._memo_tier = "miss"
        return DemuxDecision(None, "miss", cost, scanned)

    def _note_scan(self, scanned: int) -> None:
        if scanned:
            self.stats["filters_scanned"] += scanned
            if scanned > self.stats["max_scan_len"]:
                self.stats["max_scan_len"] = scanned

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def exact_count(self) -> int:
        return len(self._exact)

    @property
    def wildcard_count(self) -> int:
        return len(self._wildcard)

    @property
    def scan_count(self) -> int:
        return len(self._scan)

    def __len__(self) -> int:
        return self.exact_count + self.wildcard_count

    def __repr__(self) -> str:
        return (
            f"<FlowTable {self.style} exact={self.exact_count}"
            f" wildcard={self.wildcard_count} scan={self.scan_count}>"
        )
