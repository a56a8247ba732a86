"""A model-based test of the registry's lease rules, with no simulator.

``RegistryCore`` is the registry's bookkeeping (paper §3.4), so it can
be driven alone: applications that do not trust each other connect,
listen, take passive opens, are granted, release, hand connections to
one another, exit, and have the registry's workers fail under them,
while the clock advances.  A small shell applies what the core hands
back the way ``RegistryServer._give_back`` does.  After every step:

* no port is held by two live leases, and every bound port is a live
  lease's;
* every lease is handed back exactly once, and every handshake's timers
  are stopped exactly once — by its grant or by its hand-back;
* a lingering port is freed exactly 2·MSL after its release;
* an exited owner's unclosed connection is handed back with a reset
  (checked as each exit happens).
"""

from collections import Counter, deque
from types import SimpleNamespace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.net.headers import TCP_ACK, TCP_SYN
from repro.protocols.tcp import Segment, State
from repro.protocols.tcp.seq import MOD
from repro.registry import ConnectionGrant, PortInUse, RegistryCore

MSL = 1.0
PEERS = [(0x0A000002, 5000), (0x0A000002, 5001), (0x0A000003, 5000)]
LISTEN_PORTS = [80, 81]
QUIET = (State.CLOSED, State.TIME_WAIT)


class Runner:
    """A handshake runner as the core sees one: a machine, buffered
    data, and timers to stop once."""

    def __init__(self, state: State, snd_nxt: int) -> None:
        self.machine = SimpleNamespace(state=state, tcb=SimpleNamespace(snd_nxt=snd_nxt))
        self.rx_buffer = bytearray()
        self.stops = 0

    def stop_timers(self) -> dict:
        self.stops += 1
        return {}


class RegistryModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.core = RegistryCore(msl=MSL)
        self.now = 0.0
        self.apps = [SimpleNamespace(name=f"app-{i}", alive=True) for i in range(3)]
        #: (task, lease) exit hooks in registration order, as Task.on_exit.
        self.hooks: list = []
        self.opened: list = []
        self.handed_back: Counter = Counter()
        #: (lease, runner) for every handshake.
        self.runners: list = []
        #: Leases whose operation is still running: a worker may fail.
        self.working: list = []
        #: port -> the linger deadline its hand-back announced.
        self.lingering: dict[int, float] = {}
        self.workers = iter(range(1 << 30))
        self.snd_nxt = iter(range(MOD - 3, MOD + (1 << 30), 7919))

    # -- the shell -----------------------------------------------------

    def give_back(self, records) -> None:
        for lease, stop_timers, rst_seq, linger_until in records:
            self.handed_back[id(lease)] += 1
            if stop_timers:
                lease.runner.stop_timers()
            if linger_until is not None:
                assert linger_until == self.now + 2 * MSL
                self.lingering[lease.local_port] = linger_until
            if lease in self.working:
                self.working.remove(lease)
            lease.runner = lease.channel = lease.grant = None

    def open(self, owner, local_port, *addressing, **fields):
        lease = self.core.open(owner, next(self.workers), self.now, local_port, *addressing, **fields)
        self.opened.append(lease)
        self.hooks.append((owner, lease))
        if lease.runner is not None:
            self.runners.append((lease, lease.runner))
        return lease

    def live(self, want=lambda lease: True) -> list:
        return [lease for lease in self.core.leases.values() if want(lease)]

    def runner(self, state: State) -> Runner:
        return Runner(state, next(self.snd_nxt))

    # -- applications --------------------------------------------------

    @rule(data=st.data(), port=st.sampled_from([0, 0, 1024, 1025, 80]), peer=st.sampled_from(PEERS))
    def connect(self, data, port, peer):
        app = data.draw(st.sampled_from([app for app in self.apps if app.alive] or [None]))
        if app is None:
            return
        held = self.core.held(self.now)
        try:
            lease = self.open(app, port, *peer, runner=self.runner(State.SYN_SENT))
        except PortInUse:
            assert port in held or (port, *peer) in self.core.leases
            return
        assert port == 0 or port not in held
        assert self.core.held(self.now)[lease.local_port] is None
        self.working.append(lease)

    @rule(data=st.data(), port=st.sampled_from(LISTEN_PORTS))
    def listen(self, data, port):
        app = data.draw(st.sampled_from([app for app in self.apps if app.alive] or [None]))
        if app is None:
            return
        try:
            self.open(app, port, backlog=deque())
        except PortInUse:
            assert port in self.core.held(self.now)

    @rule(port=st.sampled_from(LISTEN_PORTS), peer=st.sampled_from(PEERS))
    def syn_arrives(self, port, peer):
        """A SYN on the kernel path: a passive open if someone listens
        and nothing holds its four-tuple, its handshake's again if one
        does, else a reset."""
        syn = Segment(sport=peer[1], dport=port, seq=0, ack=0, flags=TCP_SYN, window=0)
        route, listener = self.core.route(syn, peer[0])
        lease = self.core.leases.get((port, *peer))
        if lease is None and self.core.listener(port) is not None:
            assert (route, listener) == ("passive", self.core.listener(port))
        elif lease is not None and lease.runner is not None and lease.channel is None:
            assert (route, listener) == ("handshake", lease)
            return
        else:
            assert (route, listener) == ("reset", None)
            return
        lease = self.open(
            listener.owner, port, *peer, holds_port=False, runner=self.runner(State.SYN_RCVD)
        )
        # The receive thread hands the rest of the open to a registry thread.
        received_by = lease.worker
        self.core.assign(lease, next(self.workers))
        assert self.core.failed(received_by, self.now) == []
        self.working.append(lease)

    @rule(data=st.data(), adv_bqi=st.sampled_from([0, 7]))
    def segment_reaches_a_handshake(self, data, adv_bqi):
        handshakes = self.live(lambda lease: lease.runner is not None and lease.channel is None)
        if not handshakes:
            return
        lease = data.draw(st.sampled_from(handshakes))
        before = lease.peer_bqi
        ack = Segment(sport=lease.remote_port, dport=lease.local_port, seq=1, ack=1,
                      flags=TCP_ACK, window=0)
        assert self.core.route(ack, lease.remote_ip, adv_bqi) == ("handshake", lease)
        assert lease.peer_bqi == (adv_bqi or before)

    @rule(data=st.data())
    def grant(self, data):
        """The handshake completed and the channel was built."""
        pending = [lease for lease in self.working if lease.runner is not None]
        if not pending:
            return
        lease = data.draw(st.sampled_from(pending))
        lease.runner.machine.state = State.ESTABLISHED
        lease.channel = SimpleNamespace(owner=lease.owner)
        lease.grant = ConnectionGrant.take_over(
            lease.runner, lease.channel, lease.local_port, lease.remote_ip, lease.remote_port, None
        )
        self.working.remove(lease)
        if not lease.holds_port:  # A passive open waits in its listener's backlog.
            listener = self.core.listener(lease.local_port)
            if listener is None:  # Closed meanwhile: nobody will accept it.
                self.give_back(self.core.release(lease, self.now, reset=True))
            else:
                listener.backlog.append(lease)

    @rule(data=st.data())
    def accept(self, data):
        queues = [x.backlog for x in self.live(lambda lease: lease.backlog is not None) if x.backlog]
        if queues:
            data.draw(st.sampled_from(queues)).popleft()

    @rule(data=st.data())
    def library_releases(self, data):
        """A closed connection (or a listener) given back by its owner."""
        leases = self.live(lambda lease: lease.grant is not None or lease.backlog is not None)
        if not leases:
            return
        lease = data.draw(st.sampled_from(leases))
        if lease.backlog is not None:
            self.give_back(self.core.release(lease, self.now))
            return
        for queue in [x.backlog for x in self.live(lambda x: x.backlog is not None)]:
            if lease in queue:
                return  # Not accepted yet: the library does not have it.
        lease.runner.machine.state = State.CLOSED
        self.give_back(self.core.release(lease, self.now, linger=True))

    @rule(data=st.data(), state=st.sampled_from([State.CLOSE_WAIT, State.TIME_WAIT, State.CLOSED]))
    def peer_moves(self, data, state):
        leases = self.live(lambda lease: lease.runner is not None)
        if leases:
            data.draw(st.sampled_from(leases)).runner.machine.state = state

    @rule(data=st.data())
    def hand_off(self, data):
        """Paper §3.2: a connection passed to another application
        without the registry."""
        leases = self.live(lambda lease: lease.channel is not None)
        apps = [app for app in self.apps if app.alive]
        if leases and apps:
            data.draw(st.sampled_from(leases)).channel.owner = data.draw(st.sampled_from(apps))

    @rule(data=st.data())
    def app_exits(self, data):
        alive = [app for app in self.apps if app.alive]
        if not alive:
            return
        app = data.draw(st.sampled_from(alive))
        app.alive = False
        hooks = [(task, lease) for task, lease in self.hooks if task is app]
        self.hooks = [(task, lease) for task, lease in self.hooks if task is not app]
        for _, lease in hooks:
            self.exited(lease, app)
        self.apps.append(SimpleNamespace(name=f"app-{len(self.apps)}", alive=True))

    def exited(self, lease, task):
        owed = {
            id(x): x.runner.machine.tcb.snd_nxt % MOD
            for x in [lease, *(lease.backlog or ())]
            if x.runner is not None and x.runner.machine.state not in QUIET
        }
        records = self.core.exited(lease, task, self.now)
        for back in records:
            assert back.rst_seq == owed.get(id(back.lease)), "an unclosed connection not reset"
        self.give_back(records)
        if not records and lease.owner is not task:  # It follows its channel.
            if lease.owner.alive:
                self.hooks.append((lease.owner, lease))
            else:
                self.exited(lease, lease.owner)

    @rule(data=st.data())
    def worker_fails(self, data):
        if not self.working:
            return
        lease = data.draw(st.sampled_from(self.working))
        records = self.core.failed(lease.worker, self.now)
        assert [back.lease for back in records][:1] == [lease]
        self.give_back(records)
        assert self.core.failed(lease.worker, self.now) == []

    @rule(dt=st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    def advance(self, dt):
        self.now += dt

    # -- invariants ------------------------------------------------------

    @invariant()
    def no_port_is_held_twice(self):
        ports = [lease.local_port for lease in self.live(lambda lease: lease.holds_port)]
        assert len(ports) == len(set(ports))
        bound = {port for port, until in self.core.held(self.now).items() if until is None}
        assert bound == set(ports), "a bound port no live lease holds"

    @invariant()
    def every_lease_is_handed_back_exactly_once(self):
        live = {id(lease) for lease in self.core.leases.values()}
        for lease in self.opened:
            assert self.handed_back[id(lease)] == (0 if id(lease) in live else 1)
            assert lease.released == (id(lease) not in live)
        for lease, runner in self.runners:
            # Stopped by the grant's take-over or by the hand-back, once.
            assert runner.stops == (0 if id(lease) in live and lease.grant is None else 1)

    @invariant()
    def a_lingering_port_is_freed_exactly_two_msl_after_release(self):
        held = self.core.held(self.now)
        for port, until in list(self.lingering.items()):
            if self.now < until:
                assert held.get(port) == until
            else:
                assert held.get(port) != until
                del self.lingering[port]


RegistryModel.TestCase.settings = settings(max_examples=150, stateful_step_count=40, deadline=None)
TestRegistryCore = RegistryModel.TestCase
