"""Every resume of a process comes from the event it waits on.

The engine registers a running process on the events it makes for the
process to yield at once — a ``cpu.spend`` turn, a ``Simulator.park``
— so the process's own resume appends nothing.  That holds only while
every caller yields what ``spend`` or ``park`` returns, at once: a
dropped turn would still fire and resume its process a second time,
from an event it no longer waits on.  This census runs the stack's
call-gate shapes — the userlib echo (``test_data_path_cost``), the
connect–send–close cycle (``test_control_path_cost``) and the 16-host
fat-tree (``test_resources``) — with a check around
``Process._resume``: every resume must come from the process's
``_target`` or from an :class:`~repro.sim.events.Interruption`.
"""

from collections import Counter

import pytest

from repro.sim.events import Interruption, Process
from repro.testbed import Testbed

from ..net.test_control_path_cost import churn
from ..net.test_data_path_cost import echo
from .test_resources import _fat_tree_arm


@pytest.fixture
def census(monkeypatch):
    """(resumes by the class of the event that resumed, strays): a
    stray is a resume from an event that is neither the process's
    target nor an interrupt."""
    resume = Process._resume
    resumes = Counter()
    strays = []

    def checking(self, event):
        if event is self._target:
            resumes[type(event).__name__] += 1
        elif type(event) is Interruption:
            resumes["Interruption"] += 1
        else:
            strays.append((self.name, event))
        resume(self, event)

    monkeypatch.setattr(Process, "_resume", checking)
    return resumes, strays


@pytest.mark.parametrize("network", ["ethernet", "an1"])
def test_every_echo_resume_is_the_awaited_event(census, network):
    resumes, strays = census
    bed = Testbed(network=network, organization="userlib")
    pinger = echo(bed)
    bed.run()
    assert strays == []
    assert pinger.ok
    # Spend turns and parked reads both resumed their processes.
    assert resumes["Triggered"] and resumes["Parked"], resumes


@pytest.mark.parametrize("network", ["ethernet", "an1"])
def test_every_churn_resume_is_the_awaited_event(census, network):
    resumes, strays = census
    bed = Testbed(network=network, organization="userlib")
    churn(bed, 3)
    bed.run()
    assert strays == []
    assert bed.registry_b.stats["accepts"] == 3
    assert resumes["Triggered"] and resumes["Parked"] and resumes["Initialize"], resumes


def test_every_fat_tree_resume_is_the_awaited_event(census):
    resumes, strays = census
    _fat_tree_arm()
    assert strays == []
    assert resumes["Triggered"] and resumes["Initialize"], resumes
