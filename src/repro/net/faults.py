"""Deterministic fault injection for simulated links.

Drops, duplicates, bit-corruption, and extra delay (reordering), driven
by a seeded RNG so every test run is reproducible.  Corruption flips
real bits in the frame — the link-level CRC is modelled as *not*
catching it (as if the damage occurred past the link layer), so the
protocol checksums are what must detect it, which is exactly the code
path we want exercised.
"""

from __future__ import annotations

from ..counters import Counters
import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class FaultPlan:
    """What should happen to one transmitted frame."""

    deliveries: tuple[tuple[float, bytes], ...]  # (extra_delay, data)
    dropped: bool = False
    corrupted: bool = False


_RATES = ("drop_rate", "corrupt_rate", "duplicate_rate", "max_extra_delay")


class FaultInjector:
    """Per-link fault model with independent event probabilities.

    The injector's ``stats`` counters are the one fault account: they
    are incremented exactly once, inside :meth:`plan`, at the moment the
    fate of a frame is decided, and a link keeps no second count.
    """

    def __init__(
        self,
        drop_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        max_extra_delay: float = 0.0,
        seed: int = 0,
    ) -> None:
        for name, rate in (
            ("drop_rate", drop_rate),
            ("corrupt_rate", corrupt_rate),
            ("duplicate_rate", duplicate_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if max_extra_delay < 0:
            raise ValueError("max_extra_delay must be non-negative")
        #: True when every fault rate is zero: :meth:`plan` would return
        #: one on-time, unmodified delivery, so links may skip planning.
        self.inert = True
        self.drop_rate = drop_rate
        self.corrupt_rate = corrupt_rate
        self.duplicate_rate = duplicate_rate
        self.max_extra_delay = max_extra_delay
        self._rng = random.Random(seed)
        self.stats = Counters()

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in _RATES:
            # ``inert`` is read once per frame per hop, so it is kept
            # as an attribute, exact after any rate is assigned.
            object.__setattr__(self, "inert", not any(getattr(self, r, 0.0) for r in _RATES))

    def plan(self, data: bytes) -> FaultPlan:
        """Decide the fate of one frame."""
        if self.drop_rate and self._rng.random() < self.drop_rate:
            self.stats["dropped"] += 1
            return FaultPlan(deliveries=(), dropped=True)
        corrupted = False
        if self.corrupt_rate and self._rng.random() < self.corrupt_rate:
            corrupted = True
            self.stats["corrupted"] += 1
            data = self._flip_bit(data)
        deliveries = [(self._delay(), data)]
        if self.duplicate_rate and self._rng.random() < self.duplicate_rate:
            self.stats["duplicated"] += 1
            deliveries.append((self._delay(), data))
        return FaultPlan(deliveries=tuple(deliveries), corrupted=corrupted)

    def _delay(self) -> float:
        if not self.max_extra_delay:
            return 0.0
        extra = self._rng.random() * self.max_extra_delay
        if extra:
            self.stats["delayed"] += 1
        return extra

    def _flip_bit(self, data: bytes) -> bytes:
        if not data:
            return data
        frame = bytearray(data)
        index = self._rng.randrange(len(frame))
        frame[index] ^= 1 << self._rng.randrange(8)
        return bytes(frame)


#: A fault injector that never does anything — the default for links.
PERFECT = FaultInjector()
