"""Table 5: hardware/software packet demultiplexing tradeoffs.

Paper §4: the per-packet demux cost of software demux on the Lance
Ethernet and of the AN1's hardware BQI path (bookkeeping included,
copy/DMA costs excluded) shows "no significant difference in the
timing".

Both cells are measured once per session by ``repro.paper.grid`` (the
``grid`` fixture): receiver-CPU time per packet delivered through the
network I/O module to an otherwise idle host, less the itemized
non-demux costs.  Additionally, pytest-benchmark times our actual
classifier implementations (interpreted stack machine vs the indexed
flow table) in wall-clock terms.
"""

import pytest

from repro.costs import DECSTATION_5000_200
from repro.net.headers import PROTO_TCP
from repro.netio import FlowKey, FlowTable, tcp_filter_program
from repro.paper import TABLE5, demux_frame
from repro.testbed import IP_A, IP_B

COSTS = DECSTATION_5000_200


def demux_us(grid, network):
    return grid["table5", network, "userlib", None].measured


def test_table5_software_demux_cost(grid):
    assert demux_us(grid, "ethernet") == pytest.approx(TABLE5["ethernet"], rel=0.25)


def test_table5_hardware_bqi_cost(grid):
    assert demux_us(grid, "an1") == pytest.approx(TABLE5["an1"], rel=0.25)


def test_table5_no_significant_difference(grid):
    """Paper: "there is no significant difference in the timing"."""
    assert abs(demux_us(grid, "ethernet") - demux_us(grid, "an1")) <= 15.0  # Microseconds.


# ----------------------------------------------------------------------
# Wall-clock speed of the actual classifiers (our implementation).
# ----------------------------------------------------------------------

FRAME = demux_frame()


def test_classifier_wallclock_interpreted(benchmark):
    program = tcp_filter_program(IP_B, 6000, IP_A, 5000)
    assert program.run(FRAME)
    benchmark(program.run, FRAME)


def test_classifier_wallclock_synthesized(benchmark):
    """What the receive path runs per frame: ``FlowTable.classify``."""
    table = FlowTable()
    channel = object()
    table.install(FlowKey(PROTO_TCP, IP_B, 6000, IP_A, 5000), channel)
    assert table.classify(FRAME, COSTS).channel is channel
    benchmark(table.classify, FRAME, COSTS)
