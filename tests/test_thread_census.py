"""The thread census: every trusted call is made by a thread of the task
it names.

The paper's protection rests on the kernel knowing who traps: templates
are bound to unforgeable capabilities (§3.2), and only the privileged
registry installs channels (§3.4).  Here each trusted entry point —
the network I/O module's ``create_channel``, ``destroy_channel``,
``allocate_ring``, ``release_ring``, ``install_listener``,
``remove_listener`` and ``send``, and Mach's ``send``, ``receive``,
``rpc`` and ``reply_to`` — still takes its calling task as an argument.
The rule that lets the trap read the caller from the running thread
instead is that a process running application code is a thread of its
task (``Task.spawn``).  This census wraps the entry points over the
failure, isolation and chaos ``--quick`` cells and ``repro.paper.grid()``
and requires the named task to hold the running thread.

Two exceptions are named, counted and printed; each must occur on
these runs, so neither passes vacuously:

* **kernel context** — no process runs: an engine callback, or a
  teardown after the run;
* **exit hooks** — calls made while ``Task.terminate`` runs its exit
  hooks: the kernel delivers the exit, in whatever process terminated
  the task.

The ledger arms (``benchmarks/ledger/workloads.py``) still drive the
library from processes of no task and are outside this census; they
wait for the step that makes the trap read its caller from the running
thread, which must also settle the second exception above.  The
registry's kernel-path TCP input runs on the registry's own threads, so
the passive open's ``allocate_ring`` is judged like any other call.
"""

import inspect
import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from repro import paper
from repro.check.campaign import CHAOS
from repro.check.failure import CELLS, FAILURE, FailureSpec, serve
from repro.mach import ipc
from repro.mach.task import Task
from repro.mach.ipc import Message, send
from repro.netio.module import NetworkIoModule
from repro.sim import Simulator
from repro.tenancy.campaign import ISOLATION
from repro.testbed import IP_B, Testbed

#: (owner, name, index of the task argument) of each trusted entry point.
ENTRY_POINTS = [
    (NetworkIoModule, name, 1)
    for name in (
        "create_channel", "destroy_channel", "allocate_ring", "release_ring",
        "install_listener", "remove_listener", "send",
    )
] + [(ipc, name, 0) for name in ("send", "receive", "rpc", "reply_to")]

KERNEL_CONTEXT = "kernel context"
EXIT_HOOK = "exit hooks"
EXCEPTIONS = (KERNEL_CONTEXT, EXIT_HOOK)


class Census:
    def __init__(self) -> None:
        self.calls = 0
        #: (exception, entry point) -> calls.
        self.exceptions: Counter = Counter()
        #: (entry point, running process, named task) -> calls.
        self.mismatches: Counter = Counter()
        self.exiting = 0
        self.sims: list[Simulator] = []

    def judge(self, entry: str, task: Task) -> None:
        self.calls += 1
        process = task.sim.active_process
        if process is None:
            self.exceptions[KERNEL_CONTEXT, entry] += 1
        elif self.exiting:
            self.exceptions[EXIT_HOOK, entry] += 1
        elif process not in task.threads:
            self.mismatches[entry, process.name, task.name] += 1

    def excepted(self, exception: str) -> int:
        return sum(n for (which, _), n in self.exceptions.items() if which == exception)

    def judged(self, entry: str, fn, at: int):
        """``fn``, judging its task argument where its body starts: a
        generator's when its caller first resumes it."""
        param = list(inspect.signature(fn).parameters)[at]
        judge = self.judge

        def task_of(args, kwargs):
            return args[at] if len(args) > at else kwargs[param]

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                judge(entry, task_of(args, kwargs))
                return (yield from fn(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                judge(entry, task_of(args, kwargs))
                return fn(*args, **kwargs)
        return wrapper


@contextmanager
def census():
    """Every entry point judged, wherever the tree refers to it."""
    taken = Census()
    terminate = Task.terminate
    init = Simulator.__init__

    def terminating(task):
        taken.exiting += 1
        try:
            terminate(task)
        finally:
            taken.exiting -= 1

    def recorded(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        taken.sims.append(sim)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Task, "terminate", terminating)
        patch.setattr(Simulator, "__init__", recorded)
        for owner, name, at in ENTRY_POINTS:
            fn = getattr(owner, name)
            wrapper = taken.judged(f"{owner.__name__.rsplit('.', 1)[-1]}.{name}", fn, at)
            if isinstance(owner, type):
                patch.setattr(owner, name, wrapper)
                continue
            # A function imported by name is judged in every loaded module
            # that holds it, under whatever name: the tree's, a test's, a
            # bench's or an example's.
            for module in list(sys.modules.values()):
                for attr, value in list(getattr(module, "__dict__", {}).items()):
                    if value is fn:
                        patch.setattr(module, attr, wrapper)
        yield taken


@pytest.fixture(scope="module")
def taken():
    with census() as taken:
        for axis in (FAILURE, ISOLATION, CHAOS):
            for spec in axis.plan(True):
                axis.run(spec)
        paper.grid()
    return taken


def test_every_trusted_call_comes_from_a_thread_of_the_task_it_names(taken):
    print(f"\n{taken.calls} task-naming calls; the named exceptions:")
    for (exception, entry), calls in sorted(taken.exceptions.items()):
        print(f"  {exception}: {entry} x{calls}")
    worst = "\n".join(
        f"  {calls:6d}  {entry} naming {task} from {process}"
        for (entry, process, task), calls in taken.mismatches.most_common(20)
    )
    assert not taken.mismatches, (
        f"{sum(taken.mismatches.values())} calls from a process outside the named task:\n{worst}"
    )


@pytest.mark.parametrize("exception", EXCEPTIONS)
def test_each_named_exception_occurs(taken, exception):
    assert taken.excepted(exception) > 0


def test_the_census_runs_crash_nothing(taken):
    assert [p for sim in taken.sims for p in sim.crashed] == []


def test_the_census_names_a_driver_outside_its_task(monkeypatch):
    """A driver spawned with ``bed.spawn`` belongs to no task: its connect
    names ``app-a`` from a process that is not one of app-a's threads."""

    def planted(bed, seen):
        def driver():
            yield bed.sim.timeout(0.05)
            conn = yield from bed.service_a.connect(IP_B, 80)
            yield from conn.close()

        serve(bed, seen)
        bed.spawn(driver(), name="planted-driver")

    monkeypatch.setitem(CELLS, "planted", planted)
    with census() as taken:
        FAILURE.run(FailureSpec("planted"))
    named = {(entry, task) for entry, process, task in taken.mismatches if process == "planted-driver"}
    assert ("ipc.rpc", "app-a") in named


def test_the_census_judges_a_call_through_a_name_a_test_imported():
    """``send`` as this module imported it, not as ``repro`` holds it: a
    driver of no task sending in app-a's name is a mismatch."""
    bed = Testbed(network="ethernet", organization="userlib")
    right = bed.registries[0].client_right(bed.app_a)

    def planted():
        yield from send(bed.app_a, right, Message("bogus"))

    with census() as taken:
        bed.spawn(planted(), name="planted-send")
        bed.run(until=0.01)
    assert taken.mismatches == Counter({("ipc.send", "planted-send", "app-a"): 1})
