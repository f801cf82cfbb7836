"""The benchmark's three workloads, each driven through the public API.

- ``fanout``: ``BrokerMesh`` on ``SimulatedNetwork``, 4 shards, no logs,
  250 subscribers whose expected types cycle through the publisher's own
  type and two foreign ones, all subscribed before the first publish.
  Subscriber admission and cross-shard batching do the work.
- ``ingest``: ``SocketMesh`` over Unix sockets in this process, 4 shards
  with logs and ``replication_factor=2``, 8 durable subscribers and one
  publisher using ``publish_durable``, 90% of it away from its home
  shard.  The durable write path and the socket transport do the work.
- ``replay``: ``BrokerMesh`` with logs and rf=2 whose log is populated at
  set-up; durable subscribers then catch up from offset 0.  The log read
  path and backlog re-encoding do the work, with no appends.

Every world checks its outputs: each subscriber must see each event it
is owed exactly once, with the published payload, and nothing else.  A
wrong, duplicated or unknown payload aborts the run
(:class:`OracleError`); an owed delivery that never arrives, or a durable
publish never acked, is counted as a failed operation.
"""

import os
import random
import shutil
import string
import time

from repro.apps.tps import BrokerMesh, TpsPeer
from repro.apps.tps.procmesh import SocketMesh
from repro.apps.tps.topology import Topology
from repro.fixtures import (
    person_assembly_pair,
    person_csharp,
    person_java,
    person_vb,
)
from repro.net.network import SimulatedNetwork

PERSON = "demo.a.Person"
SHARDS = 4

#: (expected-type factory, getter) cycled over fanout and replay
#: subscribers: the publisher's own type, a rename, a case-policy match.
TYPE_MIX = ((person_csharp, "GetName"), (person_java, "getPersonName"),
            (person_vb, "GetName"))
#: The soak harness's oracle type, used by every ingest subscriber.
JAVA = (person_java, "getPersonName")

_LETTERS = string.ascii_letters + string.digits
#: Wall seconds a phase may keep waiting for outstanding work after the
#: last injection; what is still missing then counts as failed.
DRAIN_TIMEOUT_S = 10.0
_SPIN_S = 0.002


class OracleError(Exception):
    """A subscriber saw a wrong, duplicated or never-published payload."""


class Events:
    """Seeded event generator: names are ``<seq>|<padding>``, padding
    length and letters drawn from the seed; publish targets come from
    :attr:`rng` too.  :attr:`names` is the oracle's record of every
    published payload."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.names = {}
        self._next = 0

    def make(self, count: int):
        made = []
        for _ in range(count):
            seq = self._next
            self._next += 1
            pad = "".join(self.rng.choice(_LETTERS)
                          for _ in range(self.rng.randint(16, 48)))
            name = "%d|%s" % (seq, pad)
            self.names[seq] = name
            made.append((seq, name))
        return made


class Subscriber:
    """One subscriber's handler and its delivery record."""

    def __init__(self, peer: TpsPeer, expected_factory, getter: str,
                 clock, events: Events):
        self.peer = peer
        self.expected = expected_factory()
        self.getter = getter
        self.clock = clock
        self.events = events
        self.got = {}
        self.errors = []

    def handle(self, view) -> None:
        now = self.clock.now()
        name = getattr(view, self.getter)()
        seq_text, _, _ = name.partition("|")
        seq = int(seq_text) if seq_text.isdigit() else None
        if seq is None or self.events.names.get(seq) != name:
            self.errors.append("unpublished or wrong payload %r" % name)
        elif seq in self.got:
            self.errors.append("duplicate delivery of event %d" % seq)
        else:
            self.got[seq] = now


class Phase:
    """What one measured phase produced."""

    def __init__(self):
        self.ref_s = 0.0
        self.wall_s = 0.0
        self.delivered = 0
        self.attempted = 0
        self.failed = 0
        self.records = 0
        self.latencies_ms = []
        self.acks_ms = []
        self.lags_ms = []


def raise_oracle_errors(subscribers) -> None:
    for subscriber in subscribers:
        if subscriber.errors:
            raise OracleError("%s: %s" % (subscriber.peer.peer_id,
                                          subscriber.errors[0]))


def check_and_score(phase: Phase, subscribers, owed, due=None) -> None:
    """Fold subscriber records into ``phase``: abort on any oracle error,
    count missing owed deliveries as failed, and take latency samples
    (due time to handler) when ``due`` is given."""
    raise_oracle_errors(subscribers)
    for subscriber in subscribers:
        seqs = owed(subscriber)
        found = [seq for seq in seqs if seq in subscriber.got]
        phase.attempted += len(seqs)
        phase.delivered += len(found)
        phase.failed += len(seqs) - len(found)
        if due is not None:
            phase.latencies_ms.extend(
                (subscriber.got[seq] - due[seq]) * 1e3 for seq in found)


def _last_delivery_ms(subscribers, seqs, due) -> list:
    samples = []
    for seq in seqs:
        times = [s.got[seq] for s in subscribers if seq in s.got]
        if times:
            samples.append((max(times) - due[seq]) * 1e3)
    return samples


def run_open_loop(clock, due, inject, pump, busy, phase: Phase) -> None:
    """Inject operation ``i`` at reference time ``due[i]`` whatever the
    system's progress, pumping in between, until all are injected and
    the system is quiet.  Records how late each injection ran."""
    count = len(due)
    index = 0
    give_up = None
    while True:
        now = clock.now()
        while index < count and due[index] <= now:
            inject(index)
            phase.lags_ms.append((now - due[index]) * 1e3)
            index += 1
        progressed = pump()
        clock.tick()
        if index >= count:
            if not busy():
                return
            if give_up is None:
                give_up = time.monotonic() + DRAIN_TIMEOUT_S
            elif time.monotonic() > give_up:
                return
        if not progressed and index < count and not busy():
            # Sleep until just short of the next due time and spin the
            # rest, so the generator's own oversleep stays out of the
            # latencies it measures.
            wait = due[index] - clock.now() - _SPIN_S
            if wait > 0:
                time.sleep(wait / clock.scale)


class _World:
    """Shared plumbing: a scratch directory and the publisher."""

    name = ""

    def __init__(self, clock, events: Events, root: str, rep: int):
        self.clock = clock
        self.events = events
        self.root = os.path.join(root, "%s%d" % (self.name, rep))
        os.makedirs(self.root)
        self.subscribers = []

    def _publisher(self, network) -> TpsPeer:
        publisher = TpsPeer("publisher", network)
        publisher.host_assembly(person_assembly_pair()[0])
        return publisher

    def _reset_oracle(self) -> None:
        raise_oracle_errors(self.subscribers)
        for subscriber in self.subscribers:
            subscriber.got.clear()

    def close(self) -> None:
        self.mesh.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def inbox_len(self) -> int:
        return sum(len(s.peer.inbox) for s in self.subscribers)


class _SimulatedWorld(_World):
    """A ``BrokerMesh`` on the simulated fabric."""

    def _busy(self) -> bool:
        return bool(self.network.pending()) or any(
            shard.pending_deliveries() for shard in self.mesh.shards)

    def network_stats(self) -> list:
        return [self.network.stats.snapshot()]

    def socket_snapshots(self) -> list:
        return []


class FanoutWorld(_SimulatedWorld):
    name = "fanout"
    N_SUBSCRIBERS = 250

    def setup(self) -> None:
        self.network = SimulatedNetwork()
        self.mesh = BrokerMesh(self.network,
                               topology=Topology.sized(SHARDS, self.name))
        self.publisher = self._publisher(self.network)
        for index in range(self.N_SUBSCRIBERS):
            factory, getter = TYPE_MIX[index % len(TYPE_MIX)]
            peer = TpsPeer("sub%03d" % index, self.network)
            subscriber = Subscriber(peer, factory, getter, self.clock,
                                    self.events)
            peer.subscribe_remote(self.mesh.shard_for(peer.peer_id),
                                  subscriber.expected, subscriber.handle)
            self.subscribers.append(subscriber)
        # Round-robin over the shards, from a seed-chosen rotation.
        order = list(self.mesh.shard_ids)
        self.events.rng.shuffle(order)
        self._targets = order
        self._turn = 0
        for _, instance in self._prepare(SHARDS):  # warm code fetches
            self._publish(instance)
        self.mesh.run_until_idle()
        self._reset_oracle()

    def _next_target(self) -> str:
        target = self._targets[self._turn % len(self._targets)]
        self._turn += 1
        return target

    def _publish(self, instance) -> None:
        self.publisher.publish_async(self._next_target(), instance)

    def _prepare(self, count: int):
        made = self.events.make(count)
        return [(seq, self.publisher.new_instance(PERSON, [name]))
                for seq, name in made]

    def saturate(self, count: int) -> Phase:
        phase = Phase()
        work = self._prepare(count)
        start_ref, start_wall = self.clock.now(), time.perf_counter()
        for seq, instance in work:
            self._publish(instance)
            self.mesh.run_until_idle()
            self.clock.tick()
        phase.ref_s = self.clock.now() - start_ref
        phase.wall_s = time.perf_counter() - start_wall
        seqs = [seq for seq, _ in work]
        check_and_score(phase, self.subscribers, lambda s: seqs)
        phase.records = count
        self._reset_oracle()
        return phase

    def open_loop(self, count: int, rate: float) -> Phase:
        phase = Phase()
        work = self._prepare(count)
        start = self.clock.now() + 0.01
        due_list = [start + i / rate for i in range(count)]
        due = {seq: due_list[i] for i, (seq, _) in enumerate(work)}

        def inject(i: int) -> None:
            self._publish(work[i][1])

        run_open_loop(self.clock, due_list, inject, self.mesh.flush,
                      self._busy, phase)
        seqs = [seq for seq, _ in work]
        check_and_score(phase, self.subscribers, lambda s: seqs, due)
        phase.acks_ms = _last_delivery_ms(self.subscribers, seqs, due)
        phase.records = count
        self._reset_oracle()
        return phase


class IngestWorld(_World):
    name = "ingest"
    N_SUBSCRIBERS = 8
    WINDOW = 16
    HOME_SHARE = 0.1

    def __init__(self, clock, events: Events, root: str, rep: int,
                 batch: int):
        super().__init__(clock, events, root, rep)
        #: Events per durable publish; each publish is one log record.
        self.batch = batch

    def setup(self) -> None:
        self.mesh = SocketMesh(topology=Topology.sized(SHARDS, self.name),
                               sock_dir=self.root,
                               log_root=os.path.join(self.root, "logs"),
                               replication_factor=2)
        self.clients = self.mesh.client_network(self.name + "-clients")
        self.publisher = self._publisher(self.clients)
        shard_ids = self.mesh.shard_ids
        for index in range(self.N_SUBSCRIBERS):
            peer = TpsPeer("dsub%d" % index, self.clients)
            subscriber = Subscriber(peer, JAVA[0], JAVA[1], self.clock,
                                    self.events)
            peer.subscribe_durable_remote(
                shard_ids[index % len(shard_ids)], subscriber.expected,
                subscriber.handle, cursor="cursor-%d" % index)
            self.subscribers.append(subscriber)
        self.home = self.mesh.shard_for(self.publisher.peer_id)
        self.others = [sid for sid in shard_ids if sid != self.home]
        for shard_id, (seq, name) in zip(shard_ids,
                                         self.events.make(SHARDS)):
            self.publisher.publish_durable(
                shard_id, self.publisher.new_instance(PERSON, [name]))
        self.mesh.run_until_idle()
        self._reset_oracle()

    def _prepare(self, count: int):
        """``count`` publishes of :attr:`batch` events each, with their
        targets: exactly a tenth to the home shard, at seed-chosen
        positions, the rest spread over the others."""
        rng = self.events.rng
        home_at = set(rng.sample(range(count),
                                 int(round(count * self.HOME_SHARE))))
        work = []
        for i in range(count):
            made = self.events.make(self.batch)
            target = self.home if i in home_at else rng.choice(self.others)
            work.append(([seq for seq, _ in made], target,
                         [self.publisher.new_instance(PERSON, [name])
                          for _, name in made]))
        return work

    def _settle_acks(self, inflight: dict, acked: dict) -> None:
        if not inflight:
            return
        now = self.clock.now()
        still = set(self.publisher.unacked_publishes())
        for token in [t for t in inflight if t not in still]:
            acked[token] = now
            del inflight[token]

    def saturate(self, count: int) -> Phase:
        phase = Phase()
        work = self._prepare(count)
        inflight, acked = {}, {}
        start_ref, start_wall = self.clock.now(), time.perf_counter()
        give_up = time.monotonic() + DRAIN_TIMEOUT_S
        index = 0
        while (index < count or inflight) and time.monotonic() < give_up:
            while index < count and len(inflight) < self.WINDOW:
                _, target, instances = work[index]
                inflight[self.publisher.publish_durable(target, instances)] \
                    = index
                index += 1
            self.mesh.flush()
            self._settle_acks(inflight, acked)
            self.clock.tick()
        self.mesh.run_until_idle()
        phase.ref_s = self.clock.now() - start_ref
        phase.wall_s = time.perf_counter() - start_wall
        self._score(phase, work, acked)
        return phase

    def _busy_with(self, inflight: dict):
        def busy() -> bool:
            return bool(inflight) or not self.mesh.hub.idle() or any(
                shard.pending_deliveries() for shard in self.mesh.shards)
        return busy

    def open_loop(self, count: int, rate: float) -> Phase:
        phase = Phase()
        work = self._prepare(count)
        start = self.clock.now() + 0.01
        due_list = [start + i / rate for i in range(count)]
        due = {seq: due_list[i] for i, (seqs, _, _) in enumerate(work)
               for seq in seqs}
        inflight, acked, token_index = {}, {}, {}

        def inject(i: int) -> None:
            _, target, instances = work[i]
            token = self.publisher.publish_durable(target, instances)
            inflight[token] = i
            token_index[token] = i

        def pump() -> int:
            progressed = self.mesh.flush()
            self._settle_acks(inflight, acked)
            return progressed

        run_open_loop(self.clock, due_list, inject, pump,
                      self._busy_with(inflight), phase)
        self._score(phase, work, acked, due)
        phase.acks_ms = [(at - due_list[token_index[token]]) * 1e3
                         for token, at in acked.items()]
        return phase

    def _score(self, phase: Phase, work, acked: dict, due=None) -> None:
        seqs = [seq for batch, _, _ in work for seq in batch]
        check_and_score(phase, self.subscribers, lambda s: seqs, due)
        phase.attempted += len(work)
        phase.failed += len(work) - len(acked)
        phase.records = len(work)
        self._reset_oracle()

    def network_stats(self) -> list:
        return [node.stats.snapshot() for node in self.mesh.hub.nodes]

    def socket_snapshots(self) -> list:
        return [node.transport_snapshot() for node in self.mesh.hub.nodes]


class ReplayWorld(_SimulatedWorld):
    name = "replay"
    N_SUBSCRIBERS = 6
    #: Set-up publishes are drained in chunks of this many records.
    CHUNK = 50

    def __init__(self, clock, events: Events, root: str, rep: int,
                 backlog: int):
        super().__init__(clock, events, root, rep)
        self.backlog = backlog
        self._joined = 0

    def setup(self) -> None:
        self.network = SimulatedNetwork()
        self.mesh = BrokerMesh(self.network,
                               topology=Topology.sized(SHARDS, self.name),
                               log_root=os.path.join(self.root, "logs"),
                               replication_factor=2)
        self.publisher = self._publisher(self.network)
        order = list(self.mesh.shard_ids)
        self.events.rng.shuffle(order)
        made = self.events.make(self.backlog)
        for index, (seq, name) in enumerate(made):
            self.publisher.publish_async(
                order[index % len(order)],
                self.publisher.new_instance(PERSON, [name]))
            if index % self.CHUNK == self.CHUNK - 1:
                self.mesh.run_until_idle()
        self.mesh.run_until_idle()
        self.logged = [seq for seq, _ in made]

    def _new_subscribers(self, count: int) -> list:
        """Subscribers built ahead of time; they join the mesh later."""
        made = []
        for _ in range(count):
            factory, getter = TYPE_MIX[self._joined % len(TYPE_MIX)]
            peer = TpsPeer("rsub%03d" % self._joined, self.network)
            made.append(Subscriber(peer, factory, getter, self.clock,
                                   self.events))
            self._joined += 1
        return made

    def _join(self, subscriber: Subscriber) -> None:
        peer = subscriber.peer
        peer.subscribe_durable_remote(
            self.mesh.shard_for(peer.peer_id), subscriber.expected,
            subscriber.handle, cursor="cursor-" + peer.peer_id)
        self.subscribers.append(subscriber)

    def saturate(self, count: int) -> Phase:
        """``count`` is the number of subscribers that catch up at once."""
        phase = Phase()
        joining = self._new_subscribers(count)
        start_ref, start_wall = self.clock.now(), time.perf_counter()
        for subscriber in joining:
            self._join(subscriber)
        give_up = time.monotonic() + DRAIN_TIMEOUT_S
        while (self.mesh.flush() or self._busy()) \
                and time.monotonic() < give_up:
            self.clock.tick()
        phase.ref_s = self.clock.now() - start_ref
        phase.wall_s = time.perf_counter() - start_wall
        check_and_score(phase, joining, lambda s: self.logged)
        phase.records = len(self.logged) * count
        return phase

    def open_loop(self, count: int, rate: float) -> Phase:
        """``count`` subscribers arrive at ``rate`` per second, each
        catching up the whole backlog."""
        phase = Phase()
        joining = self._new_subscribers(count)
        start = self.clock.now() + 0.01
        due_list = [start + i / rate for i in range(count)]

        def inject(i: int) -> None:
            self._join(joining[i])

        run_open_loop(self.clock, due_list, inject, self.mesh.flush,
                      self._busy, phase)
        check_and_score(phase, joining, lambda s: self.logged)
        for subscriber, due in zip(joining, due_list):
            times = list(subscriber.got.values())
            phase.latencies_ms.extend((t - due) * 1e3 for t in times)
            if len(times) == len(self.logged):
                phase.acks_ms.append((max(times) - due) * 1e3)
        phase.records = len(self.logged) * count
        return phase
