"""The CPU cost model.

Every performance result in the paper is a consequence of *which
operations appear on the send/receive path* of each protocol organization
and what each costs on a DECstation 5000/200 (25 MHz MIPS R3000) running
Ultrix 4.2A or Mach 3.0 (MK74) + UX (UX36).  We reproduce that by charging
simulated CPU time for each primitive operation.

All costs are in **seconds** of simulated CPU time.  The default instance,
:data:`DECSTATION_5000_200`, is calibrated so the benchmark harness lands
near the paper's published tables; each constant's comment ties it to the
measurement that pins it down.  Benches and organizations must never
hard-code durations — they read them from the host's ``CostModel``.

Costs are data, not code: experiments that ablate a mechanism (e.g. run
our library organization *without* notification batching) do so by
replacing one field with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Per-operation CPU costs for one host class.  Immutable."""

    # ------------------------------------------------------------------
    # Kernel entry / scheduling primitives
    # ------------------------------------------------------------------

    #: Full UNIX-style system call trap (entry + sanity checks + exit).
    #: Ultrix-era R3000 syscall overhead.
    syscall_trap: float = 40e-6

    #: Specialized kernel entry used by our library→network-module path.
    #: The paper: "crossing ... can be made cheaper, because the sanity
    #: checks involved in a trap can be simplified ... a specialized
    #: entry point".
    fast_trap: float = 18e-6

    #: Taking a device interrupt and dispatching to the driver.
    interrupt: float = 55e-6

    #: Kernel process context switch, including scheduler work.  Sets the
    #: cost of waking a blocked UNIX process (Ultrix recv path) and of
    #: kernel-level switches in the Mach/UX path.
    context_switch: float = 250e-6

    #: One-way Mach IPC for a small (register-sized) message between
    #: tasks, including the implied context switch to the receiver.
    #: Mach 3.0 on a 25 MHz R3000 measured in the several-hundred-µs
    #: range for cross-task RPC; one-way ≈ half.
    mach_ipc: float = 600e-6

    #: Per-byte cost of copying in-line Mach message data (same memory
    #: system as :attr:`copy_per_byte`).
    mach_ipc_per_byte: float = 150e-9

    #: Kernel semaphore signal delivered to a user-level thread waiting
    #: in another address space (our library-notification mechanism).
    #: Charged once per notification; batching amortizes it.
    semaphore_signal: float = 150e-6

    #: Kernel→user dispatch of the library thread blocked on the
    #: notification semaphore: scheduling + resuming the user thread.
    #: Charged once per notification batch.  This (with the signal and
    #: the thread dispatch below) is the paper's "time to deliver
    #: packets to our user-level protocol code is about 0.8 ms greater
    #: than in Ultrix" on Ethernet, where frames trickle in at wire
    #: speed and batches stay near one packet; on AN1 the faster wire
    #: delivers bursts, batching is "very effective", and the same cost
    #: nearly vanishes per packet.
    user_wakeup: float = 350e-6

    #: User-level C-Threads switch (library's per-connection upcall
    #: threads).  Two are paid per notification batch (into the upcall
    #: thread and back to the channel waiter); the era's C-Threads
    #: implementation was not cheap, which the paper acknowledges
    #: ("some of this performance can be won back by a better
    #: implementation of synchronization primitives [and] user level
    #: threads").
    cthread_switch: float = 70e-6

    #: Semaphore P/V fast path within one address space (no kernel).
    cthread_sync_op: float = 8e-6

    # ------------------------------------------------------------------
    # Memory system
    # ------------------------------------------------------------------

    #: Per-byte memory-to-memory copy (bcopy).  ~6-7 MB/s effective on
    #: this machine once cache misses are accounted for; this is what
    #: the sub-1024-byte Ultrix copy path pays and our shared-region
    #: organization avoids (the paper's 512-byte AN1 crossover).
    copy_per_byte: float = 150e-9

    #: Per-byte Internet checksum (not integrated with the copy; the
    #: paper notes none of the compared systems integrate them).
    checksum_per_byte: float = 55e-9

    #: Mapping a shared VM region between two tasks (used at channel
    #: setup, never on the data path).
    vm_map_region: float = 900e-6

    #: Wiring (pinning) one page of a shared buffer region.
    vm_wire_page: float = 60e-6

    # ------------------------------------------------------------------
    # Protocol processing (per packet, excluding checksum and copies)
    # ------------------------------------------------------------------

    #: TCP output path: segmentation decisions, header build, PCB work,
    #: timer arming.  4.3BSD-derived code on a 25 MHz R3000.
    tcp_output: float = 220e-6

    #: TCP input path: header validation, PCB lookup (or upcalled
    #: per-connection thread in our library), window processing, ACK
    #: generation decisions.
    tcp_input: float = 220e-6

    #: TCP input fast path for pure ACKs (header prediction): no data
    #: to queue, no reassembly, no ACK generation.
    tcp_input_ack: float = 110e-6

    #: PCB lookup on input.  Our library eliminates it ("protocol control
    #: block lookups are eliminated by having separate threads per
    #: connection that are upcalled"), so only the monolithic
    #: organizations pay it.
    tcp_pcb_lookup: float = 30e-6

    #: IP output / input processing per packet.
    ip_output: float = 45e-6
    ip_input: float = 50e-6

    #: Per-packet cost of gateway forwarding on a router (route lookup,
    #: TTL decrement, checksum update, egress enqueue).  Roughly
    #: ip_input + ip_output plus table work — the era's software
    #: routers forwarded a packet in the small-hundreds of µs.
    ip_forward: float = 160e-6

    #: UDP per-packet processing (for the UDP library and examples).
    udp_packet: float = 60e-6

    #: Socket-layer bookkeeping per user call (sosend/soreceive style).
    socket_op: float = 60e-6

    #: BSD mbuf-chain handling for small (sub-cluster) socket data:
    #: allocating/walking small mbufs instead of a single cluster.
    mbuf_small: float = 100e-6

    #: One timer set/cancel on the hashed timing wheel.
    timer_op: float = 6e-6

    # ------------------------------------------------------------------
    # Devices
    # ------------------------------------------------------------------

    #: PMADD-AA (LANCE) Ethernet: per-byte programmed-I/O transfer
    #: between host memory and the on-board staging buffers.  Dominates
    #: the large-packet path on Ethernet.
    pmadd_pio_per_byte: float = 240e-9

    #: PMADD-AA fixed per-packet device handling (descriptor, CSR pokes).
    pmadd_per_packet: float = 35e-6

    #: AN1 controller: building/writing one DMA descriptor.
    an1_dma_setup: float = 30e-6

    #: AN1 hardware-BQI receive bookkeeping per packet (ring replenish,
    #: descriptor handling).  Table 5: 50 µs.
    an1_bqi_bookkeeping: float = 50e-6

    #: Software demultiplexing of one incoming packet via synthesized
    #: (compiled) demux code in the kernel, including the device
    #: management work inherent to demux.  Table 5 (Lance): 52 µs.
    sw_demux: float = 52e-6

    #: One indexed flow-table lookup on the receive path (exact or
    #: wildcard tier).  This is the synthesized style's fixed per-packet
    #: demux charge, now backed by a real O(1) hash lookup in
    #: :mod:`repro.netio.demux` — the cost is the same whether 1 or 256
    #: flows are installed, which is what lets Table 5 quote a single
    #: 52 µs number independent of connection count.
    flow_lookup: float = 52e-6

    #: One interpreted instruction of the stack-machine (CSPF-style)
    #: packet filter — the slow, flexible alternative the paper argues
    #: "is not likely to scale with CPU speeds".
    pktfilter_interp_instr: float = 4.5e-6

    #: Per-filter overhead of invoking the BPF-style interpreter.
    pktfilter_dispatch: float = 12e-6

    #: Per-packet premium of delivering an Ethernet (PMADD) packet into
    #: a user-level channel, beyond the demux and signalling costs that
    #: are itemized separately: staging-buffer management, the guarded
    #: placement into the pinned shared region, and the wakeup-queueing
    #: the in-kernel path avoids.  This is a calibrated aggregate pinned
    #: by the paper's own measurement ("the time to deliver
    #: maximum-sized Ethernet packets to our user-level protocol code is
    #: about 0.8 ms greater than in Ultrix"), most of which is not
    #: decomposed further in the paper.  The AN1 path pays nothing here:
    #: hardware BQI demux DMAs straight into the ring ("the times to
    #: deliver AN1 packets ... are comparable").
    eth_user_delivery: float = 550e-6

    #: Send-side header template match in the network I/O module.  The
    #: paper: "The checks required for header matching on outgoing
    #: packets are similar to those needed for address demultiplexing".
    template_check: float = 45e-6

    # ------------------------------------------------------------------
    # Registry server (connection setup path only)
    # ------------------------------------------------------------------

    #: Registry-side work to allocate connection identifiers and start
    #: the connection setup phase that cannot overlap transmission.
    #: Paper breakdown item 2: ≈1.5 ms.
    registry_alloc: float = 1.2e-3

    #: Setting up the user channels to the network device (shared-memory
    #: creation + wiring + demux filter + send template installation).
    #: Paper breakdown item 3: ≈3.4 ms.  Composed of vm_map_region +
    #: wiring + installs; this constant is the non-VM remainder.
    registry_channel_misc: float = 1.0e-3

    #: Transferring established-connection TCP state from the registry
    #: server into the user library.  Paper breakdown item 5: ≈1.4 ms.
    registry_state_transfer: float = 1.2e-3

    #: The registry server reaches the network through standard Mach
    #: IPC rather than shared memory (paper breakdown item 1: the 4.6 ms
    #: "to get to the remote peer and back" is mostly the server's local
    #: cost of accessing the device).  Per handshake segment sent or
    #: received by the registry.
    registry_device_access: float = 0.8e-3

    #: Extra machinery on AN1 to allocate and exchange a BQI during
    #: setup ("the machinery involved to setup the BQI has to be
    #: exercised"): Table 4 shows +0.4 ms vs Ethernet.
    bqi_setup: float = 300e-6

    def copy_cost(self, nbytes: int) -> float:
        """CPU time to copy ``nbytes`` memory-to-memory."""
        return self.copy_per_byte * nbytes

    def checksum_cost(self, nbytes: int) -> float:
        """CPU time to Internet-checksum ``nbytes``."""
        return self.checksum_per_byte * nbytes

    def pio_cost(self, nbytes: int) -> float:
        """CPU time for programmed I/O of ``nbytes`` to/from the PMADD."""
        return self.pmadd_pio_per_byte * nbytes

    def ipc_cost(self, nbytes: int) -> float:
        """CPU time for a one-way Mach IPC carrying ``nbytes`` in-line."""
        return self.mach_ipc + self.mach_ipc_per_byte * nbytes


#: The paper's host: DECstation 5000/200, 25 MHz R3000.
DECSTATION_5000_200 = CostModel()

#: A free cost model — protocol logic with all performance modelling
#: switched off.  Used by correctness tests that only care about
#: behaviour, and handy for debugging.
FREE = CostModel(
    **{field: 0.0 for field in CostModel.__dataclass_fields__}
)
