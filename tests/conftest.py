"""Suite-wide test configuration.

Hypothesis draws its examples from a fixed seed, so tier-1 is the same
run every time: a property that can fail fails on every run, not one
run in twenty.

A process that fails with nobody waiting on it ends ``sim.run()``
normally, so a test whose driver dies would pass on whatever it had
checked so far.  Every simulator a test makes is therefore read when
the test ends: a failure in its ``crashed`` list fails the test unless
the test declares its type with ``@pytest.mark.crashes(raises=Type)``,
and a test that declares one must have one.
"""

import pytest
from hypothesis import settings

from repro.sim import Simulator

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "crashes(raises): a simulated process of this test fails with an"
        " exception of type raises, and nobody waiting on it",
    )


@pytest.fixture(autouse=True)
def _no_undeclared_crash(request, monkeypatch):
    made = []
    init = Simulator.__init__

    def recorded(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        made.append(sim)

    monkeypatch.setattr(Simulator, "__init__", recorded)
    yield
    crashed = [process for sim in made for process in sim.crashed]
    marker = request.node.get_closest_marker("crashes")
    declared = marker.kwargs["raises"] if marker else ()
    undeclared = [p for p in crashed if not isinstance(p._value, declared)]
    if undeclared:
        pytest.fail(
            "processes failed with nobody waiting on them: "
            + "; ".join(f"{p.name}: {p._value!r}" for p in undeclared),
            pytrace=False,
        )
    if marker and not crashed:
        pytest.fail("declares a crash, but no process failed", pytrace=False)
