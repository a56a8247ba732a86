"""Tasks: address spaces with capability namespaces and threads."""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Optional

from ..sim import Process
from .kernel import Kernel
from .ports import CapabilityViolation, Port, PortRight, RightType


class Task:
    """An address space, its port rights, and its threads.

    Tasks are created through :meth:`Kernel.create_task`.  ``privileged``
    marks trusted system tasks (the registry server); the network I/O
    module refuses certain control operations from unprivileged tasks.
    """

    def __init__(self, kernel: Kernel, name: str, privileged: bool = False) -> None:
        self.kernel = kernel
        self.sim = kernel.sim
        self.name = name
        self.privileged = privileged
        #: Capability space: the set of rights this task may exercise.
        self._rights: set[PortRight] = set()
        #: Every thread spawned since the last prune (:attr:`threads`),
        #: and the spawns left before :meth:`spawn` prunes.
        self._threads: list[Process] = []
        self._spawns_to_prune = 8
        self.alive = True
        #: Callbacks run when the task terminates (the registry uses this
        #: to inherit connections of exiting applications).
        self._exit_hooks: list[Callable[["Task"], None]] = []

    def __repr__(self) -> str:
        flag = " privileged" if self.privileged else ""
        return f"<Task {self.name}{flag}>"

    # ------------------------------------------------------------------
    # Capability management
    # ------------------------------------------------------------------

    def allocate_port(self, name: str = "") -> PortRight:
        """Create a port; this task gets the receive right.

        Returns the receive right.  Send rights are minted with
        :meth:`make_send_right`.
        """
        port = Port(self.kernel, name=name)
        port.receiver = self
        right = PortRight(port, RightType.RECEIVE)
        self._rights.add(right)
        return right

    def make_send_right(self, receive_right: PortRight, once: bool = False) -> PortRight:
        """Mint a send (or send-once) right from a held receive right."""
        self.check_right(receive_right)
        if not receive_right.is_receive:
            raise CapabilityViolation(
                f"{self.name} cannot mint send rights from {receive_right!r}"
            )
        kind = RightType.SEND_ONCE if once else RightType.SEND
        right = PortRight(receive_right.port, kind)
        self._rights.add(right)
        return right

    def holds(self, right: PortRight) -> bool:
        """True if ``right`` is in this task's capability space."""
        return right in self._rights

    def check_right(self, right: PortRight) -> None:
        """Raise :class:`CapabilityViolation` unless ``right`` is held."""
        if right not in self._rights:
            raise CapabilityViolation(
                f"task {self.name!r} does not hold {right!r}"
            )

    def insert_right(self, right: PortRight) -> None:
        """Add a right to this task's capability space (kernel move)."""
        self._rights.add(right)

    def remove_right(self, right: PortRight) -> None:
        """Drop a right from this task's capability space."""
        self._rights.discard(right)

    def destroy_port(self, receive_right: PortRight) -> None:
        """Destroy a port this task receives on."""
        self.check_right(receive_right)
        if not receive_right.is_receive:
            raise CapabilityViolation("only the receive right can destroy a port")
        receive_right.port.destroy()
        self._rights.discard(receive_right)

    # ------------------------------------------------------------------
    # Threads and lifetime
    # ------------------------------------------------------------------

    def spawn(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a thread (sim process) belonging to this task."""
        if not self.alive:
            raise RuntimeError(f"task {self.name} has terminated")
        label = f"{self.name}/{name or 'thread'}"
        process = Process(self.sim, generator, name=label)
        self._threads += (process,)  # In place; ``append`` would be one more call.
        self._spawns_to_prune -= 1
        if not self._spawns_to_prune:
            self._prune()
        return process

    @property
    def threads(self) -> list[Process]:
        """Live threads, and those that died of an exception."""
        self._prune()
        return self._threads

    def _prune(self) -> None:
        """Forget the threads that ended cleanly (``callbacks`` None: the
        end processed), never the failed.  :meth:`spawn` prunes once the
        list has doubled (and holds 8): a scan per spawn cost as much as
        the spawn on a task with hundreds of threads."""
        threads = self._threads = [
            thread for thread in self._threads if thread.callbacks is not None or not thread.ok
        ]
        self._spawns_to_prune = max(len(threads), 8)

    def on_exit(self, hook: Callable[["Task"], None]) -> None:
        """Register a callback to run when the task terminates — at
        once if it already has.  A hook already registered (an equal
        bound method) is not added again: it runs once."""
        if not self.alive:
            hook(self)
        elif hook not in self._exit_hooks:
            self._exit_hooks.append(hook)

    def terminate(self) -> None:
        """Kill the task: interrupt threads, drop rights, run exit hooks.

        Models abnormal application termination; the registry server's
        exit hook then resets the application's connections.
        """
        if not self.alive:
            return
        self.alive = False
        active = self.sim.active_process
        for thread in self._threads:
            if thread is active:
                # exit() from one of the task's own threads: a process
                # cannot interrupt itself, so it ends at its next wait.
                self.sim.call_later(0.0, partial(_stop, thread))
            elif thread.is_alive:
                thread.interrupt("task-terminated")
        for right in list(self._rights):
            if right.is_receive:
                right.port.destroy()
        self._rights.clear()
        for hook in self._exit_hooks:
            hook(self)


def _stop(thread: Process, _event: object) -> None:
    if thread.is_alive:
        thread.interrupt("task-terminated")
