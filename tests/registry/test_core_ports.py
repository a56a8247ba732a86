"""The core's port namespace against the one it replaced.

``RegistryCore`` expires lingering ports from the head of a FIFO where
``PortNamespace`` (``legacy_namespace.py``) scanned every reservation.
After any sequence of reserve / allocate / release / clock advance the
two must agree on every port — bound, lingering or free — and on the
next ephemeral port.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.registry import PortInUse, RegistryCore

from .legacy_namespace import PortInUse as LegacyPortInUse
from .legacy_namespace import PortNamespace

MSL = 1.0
#: Specific ports straddle the first ephemeral ones, so reservations
#: and allocations collide.
PORTS = range(1020, 1032)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("reserve"), st.sampled_from(PORTS)),
        st.tuples(st.just("allocate")),
        st.tuples(st.just("release"), st.sampled_from(PORTS), st.booleans()),
        # Multiples of 2**-2: deadlines fall exactly on the clock.
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.25, 1.0, 2.0])),
    ),
    max_size=60,
)


def _answer(call):
    try:
        return call()
    except (PortInUse, LegacyPortInUse):
        return "in use"


def _state(core: RegistryCore, now: float) -> dict:
    held = core.held(now)
    return {port: ("free" if port not in held else "bound" if held[port] is None else "lingering")
            for port in PORTS}


def _legacy_state(ns: PortNamespace, now: float) -> dict:
    return {port: ("bound" if ns.is_bound(port, now) else
                   "lingering" if ns.is_lingering(port, now) else "free")
            for port in PORTS}


@given(OPS)
def test_the_core_answers_as_the_scanning_namespace_did(ops):
    core, ns, now = RegistryCore(msl=MSL), PortNamespace(msl=MSL), 0.0
    for op, *args in ops:
        if op == "reserve":
            assert _answer(lambda: core.reserve(args[0], "a", now)) == _answer(
                lambda: ns.reserve(args[0], "a", now))
        elif op == "allocate":
            assert _answer(lambda: core.allocate("a", now)) == _answer(
                lambda: ns.allocate_ephemeral("a", now))
        elif op == "release":
            core.free(args[0], now, linger=args[1])
            ns.release(args[0], now, linger=args[1])
        else:
            now += args[0]
        assert _state(core, now) == _legacy_state(ns, now)
    assert core.allocate("a", now) == ns.allocate_ephemeral("a", now)
