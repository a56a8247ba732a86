"""The per-host microkernel.

One :class:`Kernel` exists per simulated host.  It owns the host CPU (all
costed work funnels through it, so concurrent activity serializes as on
the paper's uniprocessor DECstations), the task list, and the device
registry that network I/O modules attach to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..costs import CostModel, interned_costs
from ..sim import CPU, Simulator

if TYPE_CHECKING:
    from .task import Task


class Kernel:
    """Microkernel instance for one host."""

    def __init__(self, sim: Simulator, costs: CostModel, name: str = "host") -> None:
        self.sim = sim
        self.costs = costs
        #: Interned slotted mirror of ``costs`` — hot paths bind this once
        #: instead of walking kernel→costs→field per packet.
        self.cost_table = interned_costs(costs)
        self.name = name
        self.cpu = CPU(sim, name=f"{name}.cpu")
        self.tasks: list["Task"] = []
        #: Named kernel-resident services (device drivers, network I/O
        #: modules) reachable via traps.
        self.devices: dict[str, Any] = {}
        #: Counters for structural assertions in tests and benches
        #: (e.g. Figure 2's "registry bypassed on the data path").
        self.counters: dict[str, int] = {}

    def __repr__(self) -> str:
        return f"<Kernel {self.name}>"

    def count(self, key: str, n: int = 1) -> None:
        """Bump a structural counter."""
        self.counters[key] = self.counters.get(key, 0) + n

    def create_task(self, name: str, privileged: bool = False) -> "Task":
        """Create a new task (address space + capability namespace)."""
        from .task import Task

        task = Task(self, name, privileged=privileged)
        self.tasks.append(task)
        return task

    def register_device(self, name: str, device: Any) -> None:
        """Attach a kernel-resident device service under ``name``."""
        if name in self.devices:
            raise ValueError(f"device {name!r} already registered")
        self.devices[name] = device

    # ------------------------------------------------------------------
    # Costed kernel crossings
    # ------------------------------------------------------------------

    def trap(self) -> Generator:
        """Standard system-call entry+exit cost."""
        self.count("traps")
        yield from self.cpu.consume(self.cost_table.syscall_trap)

    def fast_trap(self) -> Generator:
        """Specialized entry point used by the library→device path."""
        self.count("fast_traps")
        yield from self.cpu.consume(self.cost_table.fast_trap)

    def work(self, cost: float) -> Generator:
        """Charge arbitrary CPU time on this host."""
        yield from self.cpu.consume(cost)

    def context_switch(self) -> Generator:
        """Charge one kernel process context switch."""
        self.count("context_switches")
        yield from self.cpu.consume(self.cost_table.context_switch)
