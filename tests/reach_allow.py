"""The functions under ``src/`` that no judging driver reaches, each
with the reason it stays.

``python tools/reach.py`` runs every judging command CI runs and fails
on a function that is neither reached nor listed here, on a listed one
that is now reached, and on a listed one that no longer exists.  A
function defined inside a listed one is covered by its entry.

Each entry is ``"module:qualname": (kind, note)``:

- ``cli``: a command-line path a person runs by hand;
- ``oracle``: a tier-1 test judges with it;
- ``paper-arm``: half of one of the paper's ablation arms;
- ``tested-only``: a protocol or safety path a tier-1 test exercises but
  no campaign judges yet (ROADMAP item 12 names the chaos shapes that
  would); its note is that test's id.

``tests/test_reach_census.py`` checks the entries themselves.
"""

ALLOWED = {
    # -- cli ---------------------------------------------------------------
    "repro.check.__main__:_cmd_shrink": ("cli", "`repro.check shrink`: minimise a failing cell"),
    "repro.check.campaign:shrink_cell": ("cli", "what `repro.check shrink` runs"),
    "repro.check.campaign:ShrinkResult.as_dict": ("cli", "what `repro.check shrink` prints"),
    # -- oracle ------------------------------------------------------------
    "repro.check.golden:wire_digest": ("oracle", "reno_wire_golden.json's digest"),
    "repro.check.golden:golden_cell_key": ("oracle", "reno_wire_golden.json's cell key"),
    "repro.check.golden:digest_cell": ("oracle", "reno_wire_golden.json's cell run"),
    "repro.check.invariants:CheckResult.ok": ("oracle", "the checker tests' verdict"),
    "repro.counters:Counters.snapshot": ("oracle", "what the flight-recorder tests compare samples with"),
    "repro.mach.task:Task.holds": ("oracle", "the capability tests' query"),
    "repro.netio.template:ByteConstraint.check": ("oracle", "a send template's definition, byte by byte"),
    "repro.protocols.tcp.tcb:Tcb.send_window": ("oracle", "test_tcp_inlined_arithmetic's reference"),
    "repro.protocols.tcp.tcb:Tcb.sent_data_bytes": ("oracle", "test_tcp_inlined_arithmetic's reference"),
    "repro.protocols.tcp.tcb:Tcb.unsent_bytes": ("oracle", "test_tcp_inlined_arithmetic's reference"),
    "repro.sim.events:Event.value": ("oracle", "the engine tests' read of a fired event"),
    "repro.sim.events:Event.cancelled": ("oracle", "the engine tests' read of a retired event"),
    "repro.trace:read_pcap": ("oracle", "reads back what write_pcap wrote"),
    "repro.obs.hist:HistogramRegistry.get": ("oracle", "the obs tests' read of one histogram"),
    # -- paper-arm ---------------------------------------------------------
    "repro.netio.pktfilter:udp_filter_program": ("paper-arm", "a UDP binding under the Table 5 scan arm"),
    "repro.netio.pktfilter:ScanTable.remove": ("paper-arm", "a channel torn down under the Table 5 scan arm"),
    # -- tested-only: protocol paths no chaos shape drives yet -------------
    "repro.protocols.tcp.machine:TcpMachine._on_persist": (
        "tested-only", "tests/protocols/test_tcp_edge_cases.py::test_persist_interval_backs_off"),
    "repro.protocols.tcp.machine:TcpMachine._persist_interval": (
        "tested-only", "tests/protocols/test_tcp_edge_cases.py::test_persist_interval_backs_off"),
    "repro.protocols.tcp.machine:TcpMachine._on_keepalive": (
        "tested-only", "tests/org/test_grant_timers.py::test_userlib_keepalive_probes_an_idle_peer[ethernet]"),
    "repro.protocols.tcp.machine:TcpMachine._emit_rst_for": (
        "tested-only", "tests/integration/test_seq_wrap.py::test_registry_reset_is_sequenced_on_the_wire_circle[ethernet]"),
    "repro.org.userlib:LibraryConnection.abort": (
        "tested-only", "tests/org/test_runner_reset.py::test_blocked_writer_and_later_sends_see_the_reset[userlib]"),
    "repro.protocols.ip:IpStack._reassemble": (
        "tested-only", "tests/protocols/test_ip_arp_udp_icmp.py::test_ip_duplicate_fragment_harmless"),
    "repro.protocols.ip:IpStack.expire": (
        "tested-only", "tests/protocols/test_ip_arp_udp_icmp.py::test_ip_reassembly_expiry"),
    "repro.host:Host._arm_slow_timer": (
        "tested-only", "tests/integration/test_host.py::test_slow_timer_expires_stale_reassembly"),
    "repro.host:Host._slow_timer": (
        "tested-only", "tests/integration/test_host.py::test_slow_timer_expires_stale_reassembly"),
    "repro.net.fabric.topology:chain": (
        "tested-only", "tests/integration/test_multihop.py::test_ttl_expiry_draws_time_exceeded"),
    "repro.net.fabric.router:Router._local_rx": (
        "tested-only", "tests/integration/test_multihop.py::test_ping_router_interface"),
    "repro.net.fabric.router:Router._icmp_error": (
        "tested-only", "tests/integration/test_multihop.py::test_ttl_expiry_draws_time_exceeded"),
    "repro.net.fabric.router:Router._emit": (
        "tested-only", "tests/integration/test_multihop.py::test_ttl_expiry_draws_time_exceeded"),
    "repro.protocols.icmp:encode_time_exceeded": (
        "tested-only", "tests/integration/test_multihop.py::test_ttl_expiry_draws_time_exceeded"),
    "repro.protocols.icmp:decode_time_exceeded": (
        "tested-only", "tests/integration/test_multihop.py::test_ttl_expiry_draws_time_exceeded"),
    "repro.protocols.icmp:is_icmp_error": (
        "tested-only", "tests/integration/test_multihop.py::test_ttl_expiry_draws_time_exceeded"),
    "repro.protocols.icmp:decode_unreachable": (
        "tested-only", "tests/integration/test_icmp_unreachable.py::test_udp_to_closed_port_draws_port_unreachable"),
    "repro.protocols.icmp:encode_echo": (
        "tested-only", "tests/integration/test_testbed.py::test_icmp_ping_works_alongside_tcp[userlib]"),
    "repro.protocols.icmp:make_reply": (
        "tested-only", "tests/integration/test_testbed.py::test_icmp_ping_works_alongside_tcp[userlib]"),
    "repro.protocols.udp:UdpPortTable.allocate_ephemeral": (
        "tested-only", "tests/protocols/test_ip_arp_udp_icmp.py::test_udp_ephemeral_allocation"),
    "repro.protocols.udp:UdpPortTable.unbind": (
        "tested-only", "tests/protocols/test_ip_arp_udp_icmp.py::test_udp_unbind_frees_port"),
    "repro.trace:WireTrace._decode_icmp": (
        "tested-only", "tests/integration/test_trace.py::test_trace_decodes_icmp_echo"),
    "repro.tenancy.tenant:Tenant.admit_ring": (
        "tested-only", "tests/tenancy/test_enforcement.py::test_an1_channel_charges_and_releases_bqi"),
    "repro.tenancy.tenant:Tenant.attach_ring": (
        "tested-only", "tests/tenancy/test_enforcement.py::test_an1_channel_charges_and_releases_bqi"),
    "repro.tenancy.tenant:Tenant.release_ring": (
        "tested-only", "tests/tenancy/test_enforcement.py::test_an1_channel_charges_and_releases_bqi"),
    # -- tested-only: safety paths (refusals, and the report of a violation)
    "repro.net.headers:_refused": (
        "tested-only", "tests/protocols/test_headers.py::test_ipv4_field_validation"),
    "repro.net.link:Transmitter._oversized": (
        "tested-only", "tests/net/test_links_nics.py::test_ethernet_oversized_frame_rejected"),
    "repro.check.evidence:WireSegment.describe": (
        "tested-only", "tests/check/test_campaign.py::test_sabotaged_stack_is_caught"),
    "repro.check.invariants:Violation.as_dict": (
        "tested-only", "tests/check/test_campaign.py::test_report_records_failing_cells"),
}
