"""Timer facilities: heap baseline, hashed wheel, hierarchical wheels.

Arms of the paper's §2.1 timer ablation (``bench_ablation_timers``) and
nothing else: the stack's own timers are engine events
(``MachineRunner._arm_timer``) and nothing in ``repro`` imports this
package.
"""

from .base import TimerFacility, TimerHandle
from .heap import HeapTimers
from .hierarchical import HierarchicalWheel
from .wheel import HashedWheel

__all__ = [
    "TimerFacility",
    "TimerHandle",
    "HeapTimers",
    "HashedWheel",
    "HierarchicalWheel",
]
