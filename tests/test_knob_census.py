"""The option census: every independently settable value on the
stack's configuration surfaces, in one literal table.

Each option doubles the configurations tests and benchmarks have to
cover, so an option has to say what it is for:

``protocol``
    a per-connection TCP parameter the machine honours as behaviour;
``deployment``
    which world to build — topology, sizes, rates, addresses, the cost
    model, the fault plan, a campaign cell's replay token;
``paper-arm: <bench file>``
    an ablation of one of the paper's mechanisms, with the benchmark
    that runs both sides of it.

Adding, renaming or deleting an option fails this test until the table
says which of the three the new one is; a switch that exists for a test
belongs in the test (see ``tests/net/eager_datapath.py`` and the
``fast_input`` monkeypatch in ``test_fastpath_equivalence.py``).
"""

import dataclasses
import inspect
from pathlib import Path

import pytest

from repro.check.campaign import CellSpec
from repro.host import Host
from repro.net.fabric import chain, dumbbell, fat_tree, star
from repro.netio import FlowTable, NetworkIoModule
from repro.org.userlib import LibraryTcpService
from repro.protocols.tcp import TcpConfig
from repro.testbed import FabricTestbed, Testbed

P = "protocol"
D = "deployment"
FILTERSTYLE = "paper-arm: bench_ablation_filterstyle.py"
BATCHING = "paper-arm: bench_ablation_batching.py"
AN1FRAMES = "paper-arm: bench_ablation_an1frames.py"
SHAREDMEM = "paper-arm: bench_ablation_sharedmem.py"

CENSUS = {
    TcpConfig: {
        "mss": P, "rcv_buffer": P, "snd_buffer": P, "msl": P,
        "delack_time": P, "conn_timeout": P, "max_retransmits": P,
        "nagle": P, "keepalive": P, "keepalive_idle": P,
        "keepalive_interval": P, "keepalive_probes": P, "cc": P,
        # The conformance campaign's sabotage knob: a mis-tuned stack
        # the invariant checkers must convict.
        "dup_ack_threshold": P,
        "min_rto": P, "initial_rto": P, "max_rto": P,
    },
    CellSpec: {
        "topology": D, "organization": D, "seed": D, "drop_rate": D,
        "corrupt_rate": D, "duplicate_rate": D, "max_extra_delay": D,
        "transfers": D, "payload_bytes": D, "chunk_size": D,
        "deadline": D, "pairs": D, "red": D,
        "dup_ack_threshold": P, "cc": P,
    },
    Testbed: {
        "network": D, "organization": D, "costs": D, "config": D,
        "faults": D, "demux_style": FILTERSTYLE,
        "an1_driver_mtu": AN1FRAMES, "batching": BATCHING,
        "zero_copy": SHAREDMEM,
    },
    FabricTestbed: {
        "kind": D, "organization": D, "costs": D, "config": D,
        "faults": D, "zero_copy": SHAREDMEM, "config_for": D,
        "builder_kwargs": D,
    },
    Host: {
        "sim": D, "link": D, "name": D, "ip": D, "link_addr": D,
        "costs": D, "demux_style": FILTERSTYLE,
        "an1_driver_mtu": AN1FRAMES, "batching": BATCHING,
    },
    NetworkIoModule: {
        "kernel": D, "nic": D, "demux_style": FILTERSTYLE, "name": D,
        "batching": BATCHING,
    },
    # The privileged call, not a constructor: every argument says whose
    # connection is being granted (tasks, addresses, ring, region size).
    # Listed so the next one arrives with a tag.
    NetworkIoModule.create_channel: {
        "caller": D, "owner": D, "template": D, "local_ip": D,
        "local_port": D, "remote_ip": D, "remote_port": D, "link_dst": D,
        "peer_bqi": D, "region_size": D, "ring": D, "protocol": D,
        "with_link_info": D,
    },
    FlowTable: {},
    LibraryTcpService: {
        "host": D, "app": D, "registry": D, "config": D,
        "zero_copy": SHAREDMEM,
    },
    star: {
        "sim": D, "n_hosts": D, "edge_rate": D, "queue_bytes": D,
        "costs": D,
    },
    chain: {"sim": D, "n_routers": D, "edge_rate": D, "costs": D},
    dumbbell: {
        "sim": D, "pairs": D, "edge_rate": D, "bottleneck_rate": D,
        "queue_bytes": D, "red": D, "red_seed": D, "costs": D,
    },
    fat_tree: {
        "sim": D, "k": D, "hosts_per_edge": D, "edge_rate": D,
        "agg_rate": D, "core_rate": D, "edge_queue_bytes": D,
        "agg_queue_packets": D, "core_queue_packets": D, "costs": D,
    },
}


def _options(surface) -> list:
    if dataclasses.is_dataclass(surface):
        return [f.name for f in dataclasses.fields(surface)]
    target = surface.__init__ if inspect.isclass(surface) else surface
    return [name for name in inspect.signature(target).parameters if name != "self"]


@pytest.mark.parametrize("surface", CENSUS, ids=lambda s: s.__name__)
def test_every_option_is_in_the_census(surface):
    assert _options(surface) == list(CENSUS[surface])


def test_every_paper_arm_names_a_benchmark_that_exists():
    benchmarks = Path(__file__).parent.parent / "benchmarks"
    arms = {
        tag.split(": ")[1]
        for options in CENSUS.values()
        for tag in options.values()
        if tag not in (P, D)
    }
    assert arms and all((benchmarks / arm).is_file() for arm in arms)
