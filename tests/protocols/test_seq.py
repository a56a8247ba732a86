"""Tests for modular sequence arithmetic, including wraparound — and
for :func:`unwrap`, judged against the modular helpers the stack used
to run on (``legacy_seq``, now a test oracle)."""

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.protocols.tcp.seq import MOD, seq_diff, unwrap

from .legacy_seq import (
    seq_add,
    seq_between,
    seq_ge,
    seq_gt,
    seq_le,
    seq_lt,
    seq_max,
    seq_min,
)

seqs = st.integers(min_value=0, max_value=MOD - 1)
small = st.integers(min_value=0, max_value=(1 << 30) - 1)


def test_basic_comparisons():
    assert seq_lt(1, 2)
    assert seq_gt(2, 1)
    assert seq_le(2, 2)
    assert seq_ge(2, 2)
    assert not seq_lt(2, 2)


def test_wraparound_comparisons():
    near_top = MOD - 10
    assert seq_lt(near_top, 5)  # 5 is "after" 0xFFFFFFF6.
    assert seq_gt(5, near_top)
    assert seq_diff(5, near_top) == 15


def test_seq_add_wraps():
    assert seq_add(MOD - 1, 1) == 0
    assert seq_add(MOD - 1, 2) == 1
    assert seq_add(0, -1) == MOD - 1


def test_seq_between():
    assert seq_between(10, 10, 20)
    assert seq_between(10, 19, 20)
    assert not seq_between(10, 20, 20)
    assert not seq_between(10, 9, 20)
    # Wrapping interval.
    assert seq_between(MOD - 5, MOD - 1, 5)
    assert seq_between(MOD - 5, 3, 5)
    assert not seq_between(MOD - 5, 6, 5)


def test_seq_max_min():
    assert seq_max(10, 20) == 20
    assert seq_min(10, 20) == 10
    assert seq_max(MOD - 5, 3) == 3  # 3 is later across the wrap.
    assert seq_min(MOD - 5, 3) == MOD - 5


@given(a=seqs, n=small)
def test_add_then_diff_roundtrips(a, n):
    assert seq_diff(seq_add(a, n), a) == n


@given(a=seqs, b=seqs)
def test_diff_antisymmetric(a, b):
    d = seq_diff(a, b)
    if d != -(1 << 31):  # The unique self-negation point.
        assert seq_diff(b, a) == -d


@given(a=seqs, b=seqs)
def test_lt_gt_consistent(a, b):
    if a != b:
        d = seq_diff(a, b)
        if d != -(1 << 31):
            assert seq_lt(a, b) != seq_lt(b, a)
    else:
        assert not seq_lt(a, b)
        assert seq_le(a, b)


@given(a=seqs, n=st.integers(min_value=1, max_value=(1 << 31) - 1))
def test_adding_less_than_half_moves_forward(a, n):
    assert seq_gt(seq_add(a, n), a)


# ----------------------------------------------------------------------
# unwrap: the stack's one way off the circle
# ----------------------------------------------------------------------

refs = st.integers(min_value=0, max_value=1 << 40)
#: Distances a TCB can hold from its reference: well inside half the
#: circle (a window here is at most 2**16, a buffer far less than 2**31).
near = st.integers(min_value=-((1 << 31) - (1 << 17)), max_value=(1 << 31) - (1 << 17))


def test_unwrap_examples():
    assert unwrap(5, MOD - 10) == MOD + 5  # Just past the wrap.
    assert unwrap(MOD - 10, MOD + 5) == MOD - 10  # Just before it.
    assert unwrap(7, 3 * MOD + 7) == 3 * MOD + 7
    assert unwrap(0, 0) == 0


@given(wire=seqs, ref=refs)
def test_unwrap_is_the_nearest_value_that_reads_wire(wire, ref):
    value = unwrap(wire, ref)
    assert value % MOD == wire
    assert -(1 << 31) <= value - ref < (1 << 31)


@given(ref=refs, da=near, db=st.one_of(st.just(0), near))
def test_plain_order_on_unwrapped_agrees_with_modular_order(ref, da, db):
    """What the TCB now computes with ``+``, ``<``, ``<=``, ``max`` and
    ``-`` is what ``seq_add``/``seq_lt``/``seq_le``/``seq_max``/
    ``seq_diff`` said of the wrapped values, for anything a window can
    reach: an operand against its reference (``db == 0``), or two
    operands within half the circle of each other."""
    assume(abs(da - db) < 1 << 31)
    a = unwrap((ref + da) % MOD, ref)
    b = unwrap((ref + db) % MOD, ref)
    assert (a, b) == (ref + da, ref + db)
    wa, wb = a % MOD, b % MOD
    assert (a < b) == seq_lt(wa, wb)
    assert (a <= b) == seq_le(wa, wb)
    assert max(a, b) % MOD == seq_max(wa, wb)
    assert a - b == seq_diff(wa, wb)
    assert (a + 1) % MOD == seq_add(wa, 1)
