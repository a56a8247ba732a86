"""The network I/O module: the kernel-resident half of the design.

One module per host-network interface (paper §3.3).  It provides:

* **Protected transmission** — libraries enter through a specialized
  trap; the module verifies the packet against the header template
  bound to the channel's capability before it touches the wire.
* **Protected input delivery** — software demux (synthesized or
  interpreted, per configuration) on Ethernet; hardware BQI rings on
  AN1.  Matched packets land in the channel's shared region and the
  library is signalled through the lightweight semaphore, with
  batching.
* **Channel setup** — privileged-only: creating a channel maps and
  wires the shared region, installs the demux filter or allocates the
  BQI ring, and registers the send template.
"""

from __future__ import annotations

from ..counters import Counters
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable, Generator, Optional

from .. import obs as _obs
from ..mach.kernel import Kernel
from ..mach.task import Task
from ..mach.vm import SharedRegion, vm_wire
from ..net.buf import prepend, slice_view
from ..net.headers import (
    ETHERTYPE_IP,
    PROTO_TCP,
    PROTO_UDP,
    An1Header,
    EthernetHeader,
)
from ..net.nic.an1ctrl import An1Nic, BqiTableFull, BufferRing
from ..net.nic.base import Nic
from .channels import Channel
from .demux import DemuxDecision, DemuxError, FlowKey, FlowTable, KERNEL_FLOW
from .pktfilter import (
    FilterProgram,
    ScanTable,
    tcp_filter_program,
    udp_filter_program,
)
from .template import HeaderTemplate, TemplateViolation
from ..tenancy.tenant import QuotaExceeded, RateLimited


class SecurityViolation(Exception):
    """An unprivileged or unauthorized operation was refused."""


@dataclass(frozen=True)
class LinkInfo:
    """Link-level facts about a received frame the kernel may need:
    the source address, and (on AN1) the BQI the sender stamped —
    that is how registries exchange BQIs during connection setup."""

    src: object
    bqi: int = 0
    adv_bqi: int = 0


#: What an interrupt-context consumer calls, exactly once, when it has
#: consumed the packet it was handed — before it returns, or from a
#: later completion.  The interface takes its next frame only then.
Done = Callable[[], None]

#: Kernel-side consumer for packets no channel claims (the monolithic
#: stack, the registry server's handshake path, ARP): a plain call
#: ``kernel_rx(ethertype, payload, link_info, done)`` in interrupt
#: context.  It never blocks; work that transmits or may wait runs as
#: a kernel thread through :func:`work_then`.
KernelRx = Callable[[int, bytes, LinkInfo, Done], None]


def work_then(work: Generator, done: Done) -> Generator:
    """Body of a kernel thread: the part of a kernel consumer that
    answers on the wire (ARP, ICMP, the organization's TCP input) runs
    as the generator ``work``; the interface is held until it ends."""
    try:
        yield from work
    except Exception:
        done()
        raise
    done()


DemuxStyle = str  # "synthesized" | "cspf" | "bpf"


class NetworkIoModule:
    """Kernel service co-located with one device driver."""

    DEFAULT_REGION_SIZE = 64 * 1024
    DEFAULT_RING_CAPACITY = 32
    #: Packed link headers kept per interface; BQIs come and go with
    #: connections, so the memo is emptied when it fills.
    LINK_HEADER_MEMO = 256

    def __init__(
        self,
        kernel: Kernel,
        nic: Nic,
        demux_style: DemuxStyle = "synthesized",
        name: str = "",
        batching: bool = True,
    ) -> None:
        self.kernel = kernel
        self.nic = nic
        self.batching = batching
        self.demux_style = demux_style
        self.name = name or f"netio-{nic.name}"
        self.channels: list[Channel] = []
        #: The demux engine, chosen once: the receive path asks it to
        #: classify every IP frame.  The interpreted styles are the
        #: Table 5 / ``bench_ablation_filterstyle`` arm (an unknown
        #: style is refused by ``ScanTable``).
        self.flow_table = (
            FlowTable() if demux_style == "synthesized" else ScanTable(demux_style)
        )
        self.kernel_rx: Optional[KernelRx] = None
        #: TenantManager when the stack is shared among principals;
        #: None (the default) keeps every check a no-op.
        self.tenants = None
        #: Physical wired-memory pool for shared packet regions.  When
        #: set, region allocation fails once the pool is exhausted —
        #: this is the scarcity per-tenant quotas arbitrate; with
        #: enforcement off a hoarder can genuinely starve its
        #: neighbours.  None models an unbounded host.
        self.region_pool_bytes: Optional[int] = None
        self.region_pool_used = 0
        kernel.register_device(self.name, self)
        nic.rx_handler = self._rx_handler
        #: Cached once: the abc isinstance check is too slow to repeat
        #: per received frame.
        self.is_an1: bool = isinstance(nic, An1Nic)
        if self.is_an1 and 0 not in nic.bqi_table:
            nic.install_default_ring()
        self.stats = Counters()
        self._link_headers: dict[tuple, bytes] = {}

    # ------------------------------------------------------------------
    # Tenancy plumbing
    # ------------------------------------------------------------------

    def _admit(self, task: Optional[Task], kind: str, check):
        """Tenancy admission for ``task`` before anything is built for
        it: its tenant, or None (untenanted stack); a refusal is
        audited as ``kind`` (see :meth:`TenantManager.admit`)."""
        if self.tenants is None or task is None:
            return None
        return self.tenants.admit(task, self.kernel.sim.now, kind, check)

    def _reserve_region(self, nbytes: int) -> None:
        """Debit the physical wired-memory pool (independent of tenant
        quotas: this is real scarcity, not policy)."""
        if self.region_pool_bytes is None:
            return
        if self.region_pool_used + nbytes > self.region_pool_bytes:
            self.stats["region_pool_refused"] += 1
            raise QuotaExceeded(
                f"wired packet-buffer pool exhausted "
                f"({self.region_pool_used}/{self.region_pool_bytes}B used,"
                f" {nbytes}B asked)"
            )
        self.region_pool_used += nbytes

    def _release_region(self, nbytes: int) -> None:
        if self.region_pool_bytes is not None:
            self.region_pool_used -= nbytes

    def _allocate_bqi(self, capacity: int) -> BufferRing:
        """Claim a hardware ring.  Like the region pool this is real
        scarcity, not policy: a full BQI table refuses tenanted and
        untenanted callers alike, as the quota refusal the registry
        already unwinds."""
        try:
            return self.nic.allocate_bqi(capacity=capacity)
        except BqiTableFull as exc:
            self.stats["bqi_refused"] += 1
            raise QuotaExceeded(str(exc)) from None

    # ------------------------------------------------------------------
    # Channel setup (privileged)
    # ------------------------------------------------------------------

    def create_channel(
        self,
        caller: Task,
        owner: Task,
        template: HeaderTemplate,
        local_ip: int = 0,
        local_port: int = 0,
        remote_ip: int = 0,
        remote_port: int = 0,
        link_dst: object = None,
        peer_bqi: int = 0,
        region_size: int = DEFAULT_REGION_SIZE,
        ring: Optional[BufferRing] = None,
        protocol: str = "tcp",
        with_link_info: bool = False,
    ) -> Generator:
        """Create a protected channel for ``owner``.

        Only privileged tasks (the registry server) may call this; the
        checks are what keeps untrusted libraries from granting
        themselves network access.  Returns the new :class:`Channel`.
        """
        if not caller.privileged:
            raise SecurityViolation(
                f"task {caller.name!r} may not create channels"
            )
        costs = self.kernel.costs
        proto = PROTO_UDP if protocol == "udp" else PROTO_TCP
        flow_key = FlowKey(proto, local_ip, local_port, remote_ip, remote_port)

        # Tenancy admission: template and flow key vetted against the
        # owner's grant, quotas checked — all before any resource is
        # built, so a refusal allocates nothing.
        ring_buffers = self.DEFAULT_RING_CAPACITY if (
            self.is_an1 and ring is None
        ) else 0

        def vet(tenant) -> None:
            tenant.check_template(template)
            tenant.check_flow_key(flow_key)
            tenant.precheck_channel(region_size, ring_buffers)

        tenant = self._admit(owner, "admission_refused", vet)
        # Physical pool admission is unconditional: memory is memory.
        self._reserve_region(region_size)
        own_ring = channel = None
        try:
            # Shared, pinned packet-buffer region mapped into the library.
            region = SharedRegion(self.kernel, region_size)
            region.mapped.add(owner)
            if costs.vm_map_region:
                yield self.kernel.cpu.charge(costs.vm_map_region)
            yield from vm_wire(self.kernel, region)

            demux: Optional[FilterProgram] = None
            if self.is_an1:
                if ring is None:
                    ring = own_ring = self._allocate_bqi(
                        self.DEFAULT_RING_CAPACITY
                    )
                    if costs.bqi_setup:
                        yield self.kernel.cpu.charge(costs.bqi_setup)
            elif self.demux_style != "synthesized":
                # Interpreted styles carry a real filter program for the
                # scan table, with its per-instruction costs.
                if protocol == "udp":
                    demux = udp_filter_program(local_ip, local_port)
                else:
                    demux = tcp_filter_program(
                        local_ip, local_port, remote_ip, remote_port
                    )

            channel = Channel(
                owner=owner,
                template=template,
                region=region,
                demux_filter=demux,
                ring=ring,
                name=f"{owner.name}:{local_port}",
                batching=self.batching,
                with_link_info=with_link_info,
            )
            channel.link_dst = link_dst
            channel.peer_bqi = peer_bqi
            channel.module = self
            if tenant is not None:
                channel.tenant_id = tenant.tenant_id
            if ring is not None:
                ring.owner = channel
                if tenant is not None:
                    ring.tenant_id = tenant.tenant_id
                    tenant.attach_ring(ring)  # no-op if charged at pre-alloc
            # The flow entry is installed on every network and style:
            # on Ethernet it *is* the demux; on AN1 (hardware demux) and
            # under interpreted styles it still serves kernel-side flow
            # resolution (the UDP forwarder) and observability.
            self.flow_table.install(flow_key, channel, owner=channel.tenant_id)
        except Exception as exc:
            # One unwind for whatever stopped the build — a full BQI
            # table, a refused flow, the caller interrupted while the
            # region was being wired: a refused channel allocates
            # nothing.  A ring the caller pre-allocated is disowned and
            # stays the caller's to release.
            self._release_region(region_size)
            if ring is not None:
                ring.owner = None
            self._drop_ring(own_ring)
            if channel is not None:
                channel.close()
            if tenant is not None and isinstance(exc, DemuxError):
                self.tenants.note(
                    self.kernel.sim.now,
                    "flow_install_refused",
                    tenant.tenant_id,
                    str(flow_key),
                )
            raise
        channel.flow_key = flow_key
        if demux is not None:
            self.flow_table.add_filter(flow_key, demux, channel)
        if tenant is not None:
            tenant.attach_channel(channel, region_size)
            tenant.counters["channels_created"] += 1
            tenant.note_bound(local_port)
        self.channels.append(channel)
        return channel

    def destroy_channel(self, caller: Task, channel: Channel) -> None:
        """Tear a channel down (privileged, or the owner itself).

        This is the *single* release path for everything a channel
        holds: flow entry (exact or wildcard), filter program, BQI ring,
        wired region bytes, and every tenant-attributed charge — so a
        crashed tenant swept through here leaks nothing.
        """
        if not caller.privileged and caller is not channel.owner:
            raise SecurityViolation(
                f"task {caller.name!r} may not destroy {channel.name}"
            )
        if channel.closed and channel not in self.channels:
            return  # already destroyed; teardown sweeps may race
        if channel in self.channels:
            self.channels.remove(channel)
        if channel.flow_key is not None:
            self.flow_table.remove(channel.flow_key)
            channel.flow_key = None
        self._drop_ring(channel.ring)
        self._release_region(channel.region.size)
        if self.tenants is not None and channel.tenant_id is not None:
            tenant = self.tenants.get(channel.tenant_id)
            if tenant is not None:
                tenant.release_channel(channel)
                tenant.counters["channels_destroyed"] += 1
        channel.close()

    def install_listener(
        self,
        caller: Task,
        proto: int,
        local_port: int,
        local_ip: int = 0,
        owner: Optional[Task] = None,
    ) -> None:
        """Route a listening port's flow to the kernel (privileged).

        The registry installs a wildcard entry targeting
        :data:`KERNEL_FLOW` so incoming SYNs for the port classify as a
        wildcard hit feeding the handshake path, distinguishable in the
        stats from genuine misses.  ``owner`` is the task the listen is
        installed on behalf of: its tenant's port grant is checked and
        the wildcard entry carries the attribution, so an out-of-grant
        listen is refused instead of shadowing another tenant's flows.
        """
        if not caller.privileged:
            raise SecurityViolation("only the registry may install listeners")
        tenant = self._admit(
            owner, "listen_refused", lambda t: t.check_port(local_port)
        )
        self.flow_table.install(
            FlowKey(proto, local_ip, local_port),
            KERNEL_FLOW,
            owner=tenant.tenant_id if tenant is not None else None,
        )
        if tenant is not None:
            tenant.note_bound(local_port)

    def remove_listener(
        self, caller: Task, proto: int, local_port: int, local_ip: int = 0
    ) -> None:
        if not caller.privileged:
            raise SecurityViolation("only the registry may remove listeners")
        self.flow_table.remove(FlowKey(proto, local_ip, local_port))

    def allocate_ring(
        self,
        caller: Task,
        capacity: int = DEFAULT_RING_CAPACITY,
        owner: Optional[Task] = None,
    ):
        """Pre-allocate a BQI ring before the handshake (privileged).

        The registry needs the index *before* sending the SYN so the
        remote side can be told which BQI to use; the ring is later
        bound to the channel at create_channel(ring=...).  ``owner``
        attributes the ring to a tenant, whose BQI-buffer quota is
        debited immediately (not at bind time: the scarce resource is
        the hardware ring, held from this moment on).
        """
        if not caller.privileged:
            raise SecurityViolation("only the registry may allocate rings")
        if not self.is_an1:
            return None
        tenant = self._admit(
            owner, "ring_refused", lambda t: t.admit_ring(capacity)
        )
        ring = self._allocate_bqi(capacity)
        if tenant is not None:
            ring.tenant_id = tenant.tenant_id
            tenant.attach_ring(ring)
        return ring

    def release_ring(self, caller: Task, ring: BufferRing) -> None:
        """Release a pre-allocated ring that never made it onto a
        channel (failed handshake): BQI back to the NIC, charge back to
        the tenant."""
        if not caller.privileged:
            raise SecurityViolation("only the registry may release rings")
        self._drop_ring(ring)

    def _drop_ring(self, ring: Optional[BufferRing]) -> None:
        if ring is None or not self.is_an1:
            return
        # Disowned before the BQI goes back: frames in flight toward a
        # recycled index must land in the kernel, never in a closed
        # channel.
        ring.owner = None
        if self.tenants is not None and ring.tenant_id is not None:
            tenant = self.tenants.get(ring.tenant_id)
            if tenant is not None:
                tenant.release_ring(ring)
        if self.nic.bqi_table.get(ring.bqi) is ring:
            self.nic.release_bqi(ring.bqi)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def send(
        self,
        task: Task,
        channel: Channel,
        ip_packet: bytes,
        link_dst: object = None,
        bqi: Optional[int] = None,
        adv_bqi: int = 0,
    ) -> Generator:
        """Library data path: trap, template check, transmit.

        The packet already sits in the shared region (no copy); the
        module charges the specialized trap and the template match,
        builds the link header, and hands the frame to the device.

        Connectionless libraries pass ``link_dst``/``bqi`` per datagram
        (the template still pins the IP source, so varying the link
        destination grants no impersonation power); ``adv_bqi``
        advertises the sender's own ring for peer BQI discovery.
        """
        costs = self.kernel.costs
        trap = self.kernel.fast_trap()
        if trap is not None:
            yield trap
        if channel.closed or channel not in self.channels:
            raise SecurityViolation(f"channel {channel.name} is not active")
        if task is not channel.owner:
            self.stats["tx_refused"] += 1
            raise SecurityViolation(
                f"task {task.name!r} does not own channel {channel.name}"
            )
        manager = self.tenants
        if manager is not None and channel.tenant_id is not None:
            tenant = manager.tenant_of(task)
            sender_id = tenant.tenant_id if tenant is not None else None
            if sender_id != channel.tenant_id:
                # A channel capability that crossed the tenant boundary
                # (leaked hand-off / stolen port right) stops working at
                # the trap, not at some library-side honour check.
                manager.note(
                    self.kernel.sim.now,
                    "cross_tenant_send",
                    sender_id,
                    f"channel {channel.name} belongs to {channel.tenant_id}",
                )
                if manager.enforcing:
                    self.stats["tx_refused"] += 1
                    raise SecurityViolation(
                        f"task {task.name!r} (tenant {sender_id}) may not"
                        f" send on tenant {channel.tenant_id}'s channel"
                    )
            elif tenant is not None:
                retry_after = tenant.admit_tx(
                    len(ip_packet), self.kernel.sim.now
                )
                if retry_after > 0:
                    if manager.enforcing:
                        # Refused, not queued: the module holds no
                        # tenant state beyond the bucket; the *library*
                        # decides whether to retry after the hint.
                        self.stats["tx_throttled"] += 1
                        raise RateLimited(retry_after)
                    # Sabotaged stack: the frame goes out anyway, so
                    # the tx ledger must say so — rate conformance is
                    # judged from what hit the wire, not what the
                    # bucket would have admitted.
                    tenant.counters["tx_bytes"] += len(ip_packet)
                    tenant.counters["tx_packets"] += 1
        if costs.template_check:
            yield self.kernel.cpu.charge(costs.template_check)
        try:
            channel.template.verify(ip_packet)
        except TemplateViolation:
            self.stats["tx_refused"] += 1
            raise
        channel.stats["tx_packets"] += 1
        self.stats["tx"] += 1
        obs = _obs.SESSION
        if obs is not None:
            obs.book(
                "netio.send", ip_packet, self.kernel.sim.now, self.name,
                costs.template_check, channel.name,
            )
        if link_dst is None:
            link_dst = channel.link_dst
        if bqi is None:
            bqi = channel.peer_bqi
        key = (link_dst, ETHERTYPE_IP, bqi, adv_bqi)
        try:
            header = self._link_headers[key]
        except KeyError:
            header = self._link_header(key)
        yield from self.nic.driver_transmit(prepend(header, ip_packet))

    def kernel_send(
        self,
        payload: bytes,
        link_dst: object,
        ethertype: int = ETHERTYPE_IP,
        bqi: int = 0,
        adv_bqi: int = 0,
        head: bytes = b"",
    ) -> Generator:
        """Trusted in-kernel transmission (monolithic stacks, registry,
        ARP, a router's forwarding).  No trap, no template.

        ``head`` goes on between the link header and ``payload`` in the
        same chain: a router passes the TTL-patched IP header there and
        a view of the packet's unchanged rest as ``payload``, so a hop
        builds one chain.

        A plain function returning the driver's generator: under
        ``yield from`` this behaves identically to a delegating
        generator but removes one frame from every resume of the
        transmit path beneath it.
        """
        self.stats["tx"] += 1
        key = (link_dst, ethertype, bqi, adv_bqi)
        try:
            header = self._link_headers[key]
        except KeyError:
            header = self._link_header(key)
        frame = prepend(header + head, payload)
        obs = _obs.SESSION
        if obs is not None:
            # A forwarded payload is a view of the frame the router
            # received, not a chain: the id it resolves to goes on the
            # new chain, so the bytes it fuses into are bound to it too.
            frame.trace_id = obs.spans.touch(
                payload, "netio.send", self.kernel.sim.now, self.name,
                detail="kernel",
            )
        return self.nic.driver_transmit(frame)

    def _link_header(self, key: tuple) -> bytes:
        """Pack and remember the link header ``send`` and
        ``kernel_send`` did not find in ``_link_headers`` under
        ``key``, ``(link_dst, ethertype, bqi, adv_bqi)``.

        The paper's preformatted header: one packed image per distinct
        link header this interface sends, its field ranges checked when
        it is first built.
        """
        link_dst, ethertype, bqi, adv_bqi = key
        if link_dst is None:
            raise ValueError("channel has no link destination")
        if self.is_an1:
            header = An1Header(
                dst=link_dst,
                src=self.nic.station,
                ethertype=ethertype,
                bqi=bqi,
                adv_bqi=adv_bqi,
            ).pack()
        else:
            header = EthernetHeader(link_dst, self.nic.mac, ethertype).pack()
        if len(self._link_headers) >= self.LINK_HEADER_MEMO:
            self._link_headers.clear()
        self._link_headers[key] = header
        return header

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------

    def _rx_handler(self, frame: bytes, context: object, done: Done) -> None:
        """Interrupt context: every stage runs to completion and chains
        the next on its CPU charge; ``done()`` once on every exit."""
        costs = self.kernel.costs
        if self.is_an1:
            stage = partial(self._rx_ring, frame, context, done)
            cost = costs.an1_bqi_bookkeeping
            if cost:
                self.kernel.cpu.charge(cost, stage)
            else:
                stage(None)
            return

        # Ethernet: software demultiplexing over the whole frame.
        # Wire input is untrusted: a truncated frame must be dropped,
        # never allowed to kill the interrupt path with an exception.
        # Only the ethertype and source MAC matter here, so read them
        # straight out of the octets instead of decoding a full header
        # object per frame.
        if len(frame) < EthernetHeader.LENGTH:
            self.stats["rx_dropped"] += 1
            done()
            return
        ethertype = (frame[12] << 8) | frame[13]
        if ethertype != ETHERTYPE_IP:
            # Non-IP (ARP) goes straight to the kernel consumer.
            self._kernel_input(
                ethertype,
                slice_view(frame, EthernetHeader.LENGTH),
                LinkInfo(frame[6:12]),
                done,
            )
            return
        # One engine call classifies the frame; the decision carries the
        # CPU charge it incurred (a fixed indexed lookup for the
        # synthesized style, per-instruction interpretation for a scan
        # table — Table 5's cost regimes).  The plane books the stage
        # as the classifier runs, its wall time included.
        obs = _obs.SESSION
        if obs is None:
            decision = self.flow_table.classify(frame, costs)
        else:
            t0 = perf_counter()
            decision = self.flow_table.classify(frame, costs)
            obs.book(
                "demux.classify", frame, self.kernel.sim.now, self.name,
                decision.cost, decision.tier, perf_counter() - t0,
            )
        stage = partial(self._rx_classified, frame, decision, done)
        cost = decision.cost
        if cost:
            self.kernel.cpu.charge(cost, stage)
        else:
            stage(None)

    def _rx_classified(
        self, frame: bytes, decision: DemuxDecision, done: Done, _event: object
    ) -> None:
        matched = decision.channel
        payload = slice_view(frame, EthernetHeader.LENGTH)
        # Copies-avoided accounting rides with the per-tier demux stats:
        # the payload entering the ring is a view, not a sliced copy.
        table_stats = self.flow_table.stats
        table_stats["payload_views"] += 1
        table_stats["bytes_copy_avoided"] += len(payload)
        link_info = LinkInfo(frame[6:12])
        if matched is not None:
            self._deliver(matched, payload, link_info, done)
        else:
            self._kernel_input(ETHERTYPE_IP, payload, link_info, done)

    def _rx_ring(
        self, frame: bytes, ring: object, done: Done, _event: object
    ) -> None:
        """AN1: the hardware already chose ``ring`` by the frame's BQI."""
        header = An1Header.unpack(frame)
        payload = slice_view(frame, An1Header.LENGTH)
        link_info = LinkInfo(header.src, header.bqi, header.adv_bqi)
        owner = getattr(ring, "owner", None)
        if isinstance(owner, Channel):
            # Hardware demuxed straight to the channel's ring: the
            # ring buffer receives a view of the DMAed frame, not a
            # fresh copy.
            obs = _obs.SESSION
            if obs is not None:
                obs.spans.touch(
                    frame, "demux", self.kernel.sim.now, self.name,
                    detail=f"bqi={header.bqi}",
                    cost=self.kernel.costs.an1_bqi_bookkeeping,
                )
            self._deliver(owner, payload, link_info, done)
        elif ring is None:
            self._kernel_input(header.ethertype, payload, link_info, done)
        else:
            # The kernel's (or an unowned) ring lent the buffer; hand
            # it back once the kernel path has consumed the packet.
            def consumed() -> None:
                ring.replenish(1)
                done()

            self._kernel_input(header.ethertype, payload, link_info, consumed)

    def _kernel_input(
        self, ethertype: int, payload: bytes, link_info: LinkInfo, done: Done
    ) -> None:
        kernel_rx = self.kernel_rx
        if kernel_rx is None:
            self.stats["rx_dropped"] += 1
            done()
            return
        self.stats["rx_to_kernel"] += 1
        kernel_rx(ethertype, payload, link_info, done)

    def _deliver(
        self,
        channel: Channel,
        payload: bytes,
        link_info: Optional[LinkInfo],
        done: Done,
    ) -> None:
        """Place ``payload`` in ``channel``'s ring and signal its owner
        (also the kernel UDP input's relay into a bound channel)."""
        manager = self.tenants
        if manager is not None and channel.tenant_id is not None:
            # The flow matched the tenant the registry installed it
            # for; verify the channel is *still* owned by that tenant
            # before any byte lands in its shared region.
            owner_tenant = manager.tenant_of(channel.owner)
            owner_id = (
                owner_tenant.tenant_id if owner_tenant is not None else None
            )
            delivered = owner_id == channel.tenant_id or not manager.enforcing
            manager.delivery_log.append(
                (
                    self.kernel.sim.now,
                    channel.tenant_id,
                    owner_id,
                    len(payload),
                    delivered,
                )
            )
            if owner_id != channel.tenant_id:
                manager.note(
                    self.kernel.sim.now,
                    "cross_tenant_delivery_blocked"
                    if manager.enforcing
                    else "cross_tenant_delivery",
                    owner_id,
                    f"flow of tenant {channel.tenant_id} on channel"
                    f" {channel.name}",
                )
                if manager.enforcing:
                    self.stats["rx_refused"] += 1
                    flow_tenant = manager.get(channel.tenant_id)
                    if flow_tenant is not None:
                        flow_tenant.counters["rx_dropped"] += 1
                    done()
                    return
            elif owner_tenant is not None:
                owner_tenant.note_rx(len(payload))
        self.stats["rx_demuxed"] += 1
        # Ethernet-only: the staging/placement premium of user-level
        # delivery without hardware demux (see costs.eth_user_delivery).
        cost = 0.0 if self.is_an1 else self.kernel.costs.eth_user_delivery
        stage = partial(self._place, channel, payload, link_info, done, cost)
        if cost:
            self.kernel.cpu.charge(cost, stage)
        else:
            stage(None)

    def _place(
        self,
        channel: Channel,
        payload: bytes,
        link_info: Optional[LinkInfo],
        done: Done,
        deliver_cost: float,
        _event: object,
    ) -> None:
        signal_due = channel.signal_cost_due
        if signal_due:
            deliver_cost += self.kernel.costs.semaphore_signal
        obs = _obs.SESSION
        if obs is not None:
            obs.deliver(
                payload, self.kernel.sim.now, self.name, channel, deliver_cost
            )
        channel.deliver(payload, link_info)
        if signal_due:
            self.stats["signals_charged"] += 1
            cost = self.kernel.costs.semaphore_signal
            if cost:
                self.kernel.cpu.charge(cost, lambda _: done())
                return
        done()
