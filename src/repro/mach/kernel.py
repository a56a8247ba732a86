"""The per-host microkernel.

One :class:`Kernel` exists per simulated host.  It owns the host CPU (all
costed work funnels through it, so concurrent activity serializes as on
the paper's uniprocessor DECstations), the task list, and the device
registry that network I/O modules attach to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..costs import CostModel
from ..counters import Counters
from ..sim import CPU, Simulator

if TYPE_CHECKING:
    from .task import Task


class Kernel:
    """Microkernel instance for one host."""

    def __init__(self, sim: Simulator, costs: CostModel, name: str = "host") -> None:
        self.sim = sim
        self.costs = costs
        self.name = name
        self.cpu = CPU(sim, name=f"{name}.cpu")
        self.tasks: list["Task"] = []
        #: Named kernel-resident services (device drivers, network I/O
        #: modules) reachable via traps.
        self.devices: dict[str, Any] = {}
        #: Counters for structural assertions in tests and benches
        #: (e.g. Figure 2's "registry bypassed on the data path").
        self.counters = Counters()

    def __repr__(self) -> str:
        return f"<Kernel {self.name}>"

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

    def fast_trap(self) -> Generator:
        """Specialized entry point used by the library→device path."""
        self.counters["fast_traps"] += 1
        cost = self.costs.fast_trap
        if cost:
            yield self.cpu.charge(cost)
