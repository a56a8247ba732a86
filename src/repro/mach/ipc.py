"""Costed Mach IPC: message send/receive/RPC between tasks.

Every send charges the one-way IPC cost (plus per-byte copy for in-line
data) to the host CPU; the single-server and dedicated-server
organizations' performance deficit comes precisely from these charges
appearing on their data paths.

Rights enforcement is real: a send requires a held send right; a receive
requires the receive right; rights named in ``moved_rights`` leave the
sender's capability space and enter the receiver's — this is how the
registry server hands the library its network-channel capabilities.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .ports import CapabilityViolation, DeadPortError, PortRight, RightType
from .task import Task


class Message:
    """One Mach message.

    ``body`` is the semantic payload (any Python object); ``inline_bytes``
    is the modelled size of in-line data for cost purposes (header and
    small control payloads are treated as part of the base IPC cost).
    ``moved_rights`` are capabilities transferred to the receiver.
    """

    def __init__(
        self,
        op: str,
        body: Any = None,
        inline_bytes: int = 0,
        reply_to: Optional[PortRight] = None,
        moved_rights: tuple[PortRight, ...] = (),
    ) -> None:
        if inline_bytes < 0:
            raise ValueError("inline_bytes must be non-negative")
        self.op = op
        self.body = body
        self.inline_bytes = inline_bytes
        self.reply_to = reply_to
        self.moved_rights = tuple(moved_rights)
        self.sender: Optional[Task] = None

    def __repr__(self) -> str:
        return f"<Message {self.op!r} {self.inline_bytes}B>"


def send(task: Task, dest: PortRight, message: Message) -> Generator:
    """Send ``message`` to the port named by ``dest``.

    Charges trap + one-way IPC + in-line copy cost, validates the
    capability, consumes send-once rights, and moves carried rights.
    Each held-right test is one set-membership test here;
    :meth:`Task.check_right` raises for the one that fails.
    """
    kernel = task.kernel
    rights = task._rights
    if dest not in rights:
        task.check_right(dest)
    if not dest.is_send:
        raise CapabilityViolation(f"{dest!r} is not a send right")
    send_once = dest.right is RightType.SEND_ONCE
    if send_once and dest.consumed:
        raise CapabilityViolation("send-once right already used")
    port = dest.port
    if port.dead:
        raise DeadPortError(f"send to dead port {port.name}")

    moved = message.moved_rights
    for right in moved:
        if right not in rights:
            task.check_right(right)
    reply = message.reply_to
    if reply is not None and reply not in rights:
        task.check_right(reply)

    cost = kernel.costs.ipc_cost(message.inline_bytes)
    if cost and (turn := kernel.cpu.spend(cost)) is not None:
        yield turn
    kernel.counters["ipc_messages"] += 1

    if port.dead:
        # The receiver died while the message was being copied.
        raise DeadPortError(f"port {port.name} died during send")

    if send_once:
        dest.consumed = True
        rights.discard(dest)

    receiver = port.receiver
    for right in moved:
        rights.discard(right)
        if receiver is not None:
            receiver._rights.add(right)
    if reply is not None and receiver is not None:
        rights.discard(reply)
        receiver._rights.add(reply)

    message.sender = task
    port.queue.put(message)


def receive(task: Task, receive_right: PortRight) -> Generator:
    """Receive the next message from a port this task owns.

    Blocks until a message arrives.  Returns the :class:`Message`.
    """
    if receive_right not in task._rights:
        task.check_right(receive_right)
    if not receive_right.is_receive:
        raise CapabilityViolation(f"{receive_right!r} is not a receive right")
    if receive_right.port.dead:
        raise DeadPortError(f"receive on dead port {receive_right.port.name}")
    message = yield receive_right.port.queue.get()
    return message


def rpc(task: Task, dest: PortRight, message: Message) -> Generator:
    """Send ``message`` and wait for the reply on a one-shot reply port.

    Returns the reply :class:`Message`.  This is the app↔registry and
    (in the single-server organization) app↔UX-server interaction shape.
    The reply port and its send-once right are given back on every
    exit: a refused send or an interrupted wait leaves neither behind.
    """
    reply_receive = task.allocate_port(name=f"{task.name}-reply")
    reply_send = task.make_send_right(reply_receive, once=True)
    message.reply_to = reply_send
    try:
        yield from send(task, dest, message)
        reply = yield from receive(task, reply_receive)
    finally:
        # Moved to the receiver by a send that went through; still
        # ours if it did not.  A terminated task holds nothing.
        rights = task._rights
        rights.discard(reply_send)
        if reply_receive in rights:
            task.destroy_port(reply_receive)
    return reply


def reply_to(task: Task, request: Message, message: Message) -> Generator:
    """Answer an RPC ``request`` using its reply right: :func:`send`'s
    generator, returned for the caller to ``yield from``."""
    if request.reply_to is None:
        raise ValueError("request carried no reply port")
    return send(task, request.reply_to, message)
