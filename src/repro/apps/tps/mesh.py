"""Sharded broker mesh with batched, queue-driven event delivery.

The paper's TPS vision (Section 8) needs event dissemination that scales
past one broker.  The seed :class:`~repro.apps.tps.broker.TpsBroker` is a
single peer pushing one synchronous network post per subscriber per event
— every publish costs O(subscribers) messages and re-sends the full
envelope each time.  The mesh refactors that data plane:

- **Sharding** — N broker shards on one fabric; each publisher and
  subscriber has a *home shard* chosen by rendezvous (highest-random-
  weight) hashing, so placement is deterministic, uniform, and stable
  when shards are added or removed.
- **Summary gossip** — shards exchange compact subscription summaries
  (the expected type's description, refcounted by GUID).  A publish is
  forwarded only to shards hosting at least one *conforming* subscriber:
  each shard keeps a second :class:`~repro.apps.tps.routing.RoutingIndex`
  over the summaries, so the forward decision reuses the same cached
  conformance verdicts as local routing.  An event nobody else wants
  crosses zero shard boundaries.
- **Batched, queue-driven delivery** — routing an event *buffers* it per
  destination; nothing is sent inside the publisher's call stack.
  Draining the mesh encodes, per destination, ONE batch envelope (a
  shared-intern-table ``RBS2B`` frame) and enqueues ONE network message,
  however many events and matching subscriptions it covers.  Identical
  batches bound for different peers are encoded once and reuse the same
  bytes.

A shard is the same :class:`~repro.apps.tps.pipeline.DeliveryPipeline`
as the single broker with exactly two stage swaps: dispatch is
:class:`~repro.apps.tps.pipeline.BufferedDelivery` instead of direct
posts, and a summary-gated forwarder hook buffers cross-shard copies.
Control-plane traffic (subscribe/unsubscribe, summary gossip, the
description/code fetches of Figure 1) stays on the synchronous request
path, exactly as in the paper; only the one-way event fan-out is queued.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import quote, unquote

from ...describe.description import TypeDescription
from ...describe.xml_codec import deserialize_description, serialize_description_bytes
from ...net.network import (
    MessageDropped,
    NetworkError,
    SimulatedNetwork,
    UnknownPeerError,
)
from ...obs.bridge import register_mesh_shard_metrics
from ...persistence import EventLog
from ...persistence.log import LogRecord
from ...serialization.envelope import (
    LazyBatch,
    decode_home,
    envelope_home,
    split_frames,
)
from ...serialization.errors import WireFormatError
from ...transport.protocol import (
    KIND_BACKLOG_FETCH,
    KIND_PUBLISH_ACK,
    KIND_REPLICA_PULL,
    KIND_REPLICATE,
    KIND_REPLICATE_ACK,
)
from .broker import DurableSubscription, Subscription, TpsBroker
from .pipeline import (
    AdmissionStage,
    BufferedDelivery,
    DeliveryPipeline,
    PipelineStats,
    ReplicationStage,
    RoutingStage,
    foreign_cursor_name,
)
from .routing import RoutingIndex
from .topology import MeshConfig, Topology, rendezvous_rank, rendezvous_shard

__all__ = [
    "BrokerMesh",
    "MeshShard",
    "ReplicaSet",
    "Topology",
    "removal_topology",
    "rendezvous_rank",
    "rendezvous_shard",
    "KIND_MESH_FORWARD",
    "KIND_MESH_SUMMARY",
    "KIND_MESH_SYNC",
    "KIND_MESH_TOPOLOGY",
    "KIND_MESH_HANDOFF",
]

KIND_MESH_FORWARD = "mesh_forward"
KIND_MESH_SUMMARY = "mesh_summary"
KIND_MESH_SYNC = "mesh_sync"
#: Membership announcement/query: payload carries a serialized
#: :class:`Topology`; the shard commits it (epoch-gated) and answers
#: with the topology it now holds.  An empty payload is a pure query.
KIND_MESH_TOPOLOGY = "mesh_topology"
#: Durable-subscription migration: the leaving shard asks the new home
#: to adopt one subscription (cursor name, owner, type description, and
#: the per-origin cursor position vector).
KIND_MESH_HANDOFF = "mesh_handoff"


class ReplicaSet:
    """The per-origin replica logs one shard keeps for its siblings.

    Each origin shard that replicates here gets its own
    :class:`~repro.persistence.EventLog` under ``root/<origin>/``,
    holding that origin's records *at the origin's offsets* — the
    directory's ``next_offset`` doubles as the per-origin high-water mark
    that makes re-sent replication batches idempotent.  Logs are opened
    lazily (first batch received, or first replay over a directory a
    previous incarnation left behind).
    """

    def __init__(self, root: str):
        self.root = root
        self._logs: Dict[str, EventLog] = {}

    def _directory(self, origin: str) -> str:
        return os.path.join(self.root, quote(origin, safe=""))

    def log_for(self, origin: str, create: bool = True) -> Optional[EventLog]:
        log = self._logs.get(origin)
        if log is None:
            if not create and not os.path.isdir(self._directory(origin)):
                return None
            log = self._logs[origin] = EventLog(self._directory(origin))
        return log

    def origins(self) -> List[str]:
        found = set(self._logs)
        if os.path.isdir(self.root):
            found.update(unquote(name) for name in os.listdir(self.root))
        return sorted(found)

    def high_water(self, origin: str) -> int:
        log = self.log_for(origin, create=False)
        return log.next_offset if log is not None else 0

    def stats(self) -> Dict[str, Dict[str, int]]:
        snapshot = {}
        for origin in self.origins():
            log = self.log_for(origin, create=False)
            if log is not None:
                snapshot[origin] = {
                    "records": log.record_count,
                    "first_offset": log.first_offset,
                    "next_offset": log.next_offset,
                    "bytes": log.size_bytes,
                }
        return snapshot

    def close(self) -> None:
        for log in self._logs.values():
            log.close()
        self._logs.clear()


class MeshShard(TpsBroker):
    """One broker shard: routes locally, forwards by summary, sends in
    batches.

    Publishes (``object`` messages from publishers) are routed into
    per-destination buffers instead of being posted inline; forwarded
    events arriving from sibling shards (``mesh_forward``) are routed the
    same way but never re-forwarded, so an event crosses at most one
    shard boundary and gossip loops are impossible.
    """

    def __init__(self, peer_id: str, network: SimulatedNetwork,
                 replication_factor: int = 0, **kwargs):
        if replication_factor < 0:
            raise ValueError("replication_factor must be non-negative")
        #: Set before ``super().__init__`` — the pipeline build hook runs
        #: inside it and wires the replication stage from these.
        self._replication_factor = replication_factor
        log_dir = kwargs.get("log_dir")
        self.replicas: Optional[ReplicaSet] = (
            ReplicaSet(os.path.join(log_dir, "replicas"))
            if log_dir is not None else None)
        self.replication: Optional[ReplicationStage] = None
        #: ``lazy_admission`` (the zero-copy hot path, default on) is
        #: inherited from :class:`TpsBroker` and flows through ``kwargs``.
        super().__init__(peer_id, network, **kwargs)
        self._siblings: List[str] = []
        #: The membership epoch this shard last committed (see
        #: :meth:`set_topology`); ``None`` until a topology is applied —
        #: legacy ``set_siblings`` wiring leaves it unset.
        self.topology: Optional[Topology] = None
        #: Summaries of sibling shards' subscriptions: one refcounted
        #: entry per (shard, expected-type GUID), indexed for routing.
        self.summary_index = RoutingIndex(self.checker, self.runtime.registry)
        self._summaries: Dict[Tuple[str, str], List[Any]] = {}  # key -> [sub, refs]
        self._next_summary_id = 1
        self.forwards_received = 0
        self.gossip_failures = 0
        #: Cached home ids of forwarded-in records mapped to the local
        #: offset their copy sits at (see :meth:`_home_ids_in_log`),
        #: maintained incrementally as forwards arrive; the stamp
        #: invalidates it whenever retention or compaction removed
        #: records.
        self._home_ids: Optional[Dict[Tuple[str, int], int]] = None
        self._home_ids_stamp: Optional[Tuple[int, int, int]] = None
        #: Elastic-membership counters: durable subscriptions handed to a
        #: new home shard / adopted from their previous home.
        self.handoffs = 0
        self.adoptions = 0
        #: Adopted subscriptions whose backlog replay could not reach the
        #: subscriber (no transport route yet — clients dial shards, and
        #: nothing has dialed a just-joined shard until it publishes or
        #: resubscribes), mapped to their dual-routing bounds.  Retried
        #: from the delivery pump until a pass completes with the
        #: subscriber reachable (see :meth:`retry_stalled_replays`).
        self._stalled_replays: Dict[str, Dict[str, int]] = {}
        self.replica_records = 0
        self.replica_rejects = 0
        self.fetches_served = 0
        self.fetch_records_served = 0
        self.fetch_failures = 0
        self.healed_records = 0
        self.on(KIND_MESH_FORWARD, self._handle_forward)
        self.on(KIND_MESH_SUMMARY, self._handle_summary)
        self.on(KIND_MESH_SYNC, self._handle_sync)
        self.on(KIND_MESH_TOPOLOGY, self._handle_topology)
        self.on(KIND_MESH_HANDOFF, self._handle_handoff)
        self.on(KIND_REPLICATE, self._handle_replicate)
        self.on(KIND_REPLICATE_ACK, self._handle_replicate_ack)
        self.on(KIND_BACKLOG_FETCH, self._handle_backlog_fetch)
        self.on(KIND_REPLICA_PULL, self._handle_replica_pull)
        register_mesh_shard_metrics(self.metrics, self)

    def _build_pipeline(self, stats: PipelineStats) -> DeliveryPipeline:
        """Same stages as the single broker, with buffered dispatch, the
        summary-gated cross-shard forwarder, and (with a log and a
        positive ``replication_factor``) the replication stage hooked
        after the durable append."""
        if self.durability.event_log is not None \
                and self._replication_factor > 0:
            self.replication = ReplicationStage(
                self, self.durability.event_log, stats=stats)
        return DeliveryPipeline(
            routing=RoutingStage(self.index),
            delivery=BufferedDelivery(self, self.durability,
                                      forward_kind=KIND_MESH_FORWARD),
            durability=self.durability,
            admission=AdmissionStage(self, stats),
            stats=stats,
            forwarder=self._buffer_forwards,
            host=self,
            replication=self.replication,
            tracer=self.tracer,
        )

    @property
    def delivery(self) -> BufferedDelivery:
        return self.pipeline.delivery

    @property
    def batch_events(self) -> int:
        return self.delivery.batch_events

    @property
    def forwards_sent(self) -> int:
        return self.delivery.forwards_sent

    @property
    def forward_events(self) -> int:
        return self.delivery.forward_events

    def set_siblings(self, shard_ids: Sequence[str]) -> None:
        self._siblings = [sid for sid in shard_ids if sid != self.peer_id]
        if self.replication is not None:
            # Followers: the shard's rendezvous preference list over its
            # siblings — deterministic, so a restarted incarnation (and
            # every other shard) recomputes the same placement.
            self.replication.set_followers(rendezvous_rank(
                self.peer_id, self._siblings)[:self._replication_factor])

    def set_topology(self, topology: Topology) -> bool:
        """Commit a membership view: adopt its sibling list (follower
        placement recomputes deterministically) and drop summaries of
        shards that are no longer live.  Epoch-gated — a stale topology
        (epoch at or below the committed one) is ignored, so reordered
        membership announcements cannot roll the shard backwards.
        Returns whether the commit happened."""
        if self.topology is not None and topology.epoch <= self.topology.epoch:
            return False
        self.topology = topology
        self.set_siblings(topology.shard_ids)
        live = set(topology.shard_ids)
        for key in [key for key in self._summaries if key[0] not in live]:
            summary, _ = self._summaries.pop(key)
            self.summary_index.remove(summary.subscription_id,
                                      peer_id=key[0])
        return True

    @property
    def epoch(self) -> int:
        """The committed membership epoch (0 = statically wired)."""
        return self.topology.epoch if self.topology is not None else 0

    @property
    def followers(self) -> List[str]:
        """The sibling shards this shard replicates its records to."""
        return list(self.replication.followers) \
            if self.replication is not None else []

    def ensure_replica_coverage(self) -> int:
        """Probe any follower this incarnation never replicated to (see
        :meth:`ReplicationStage.ensure_coverage`): a membership change
        reassigns followers, and the probe's ack round-trip makes the
        existing gap-resend protocol backfill exactly what the new
        follower is missing."""
        if self.replication is None:
            return 0
        return self.replication.ensure_coverage()

    def _code_fallback_sources(self, src: str) -> List[str]:
        """Siblings stand in for an unreachable publisher.  Every peer
        re-serves the assemblies it downloads, so records this shard
        archived without ever admitting them — replica backfill after a
        join, or a departed shard's history — stay servable even when
        their origin has no transport link to this shard (real sockets,
        unlike the simulator, only reach peers that dialed us)."""
        sources = super()._code_fallback_sources(src)
        sources += [sid for sid in self._siblings if sid != src]
        return sources

    def _replication_target(self) -> int:
        """One past the last *own* (non-forwarded) record in the log —
        the watermark every follower must reach before this shard's
        history is safe without it.  Forwarded-in copies at the log tail
        never replicate, so the raw ``next_offset`` can be unreachable."""
        if self.event_log is None:
            return 0
        target = 0
        for record in self.event_log.replay():
            if envelope_home(record.payload) is None:
                target = record.offset + 1
        return target

    def replication_covered(self) -> bool:
        """Is every own record acknowledged by every follower?  The
        retirement gate: a leaving shard may only be torn down once this
        holds (its whole history then lives on in its followers' replica
        logs)."""
        target = self._replication_target()
        if target == 0:
            return True
        if self.replication is None or not self.replication.followers:
            return False
        marks = self.replication.watermarks()
        return all(mark["acked"] >= target for mark in marks.values())

    # -- subscription management + gossip ---------------------------------

    def _on_subscribed(self, subscription: Subscription, request: dict) -> None:
        self._gossip({
            "op": "add",
            "guid": str(subscription.expected.guid),
            "description": request["description"],
        })

    def _on_unsubscribed(self, subscription: Subscription) -> None:
        self._gossip({
            "op": "remove",
            "guid": str(subscription.expected.guid),
        })

    def _gossip(self, message: Dict[str, Any]) -> None:
        """Tell every sibling shard about a subscription change.  Gossip
        rides the synchronous control plane; a loss only widens (add) or
        narrows (remove) that sibling's forwarding filter, so failures are
        counted, not fatal."""
        if not self._siblings:
            return
        payload = self._wire_codec.serialize(message)
        for shard_id in self._siblings:
            try:
                self.request(shard_id, KIND_MESH_SUMMARY, payload,
                             retries=self.max_retries)
            except (MessageDropped, NetworkError):
                self.gossip_failures += 1

    def _handle_summary(self, payload: bytes, src: str) -> bytes:
        """Apply one gossiped summary mutation.  The response carries
        this shard's log end (``next_offset``) *as of indexing the
        mutation*: for a subscription adoption's summary-add this is the
        exact dual-routing bound — every record this shard admits after
        answering is forwarded to the new home live, so the adopter's
        backlog fetch stops below it (handlers run serially per shard,
        making the partition gapless and overlap-free)."""
        message = self._wire_codec.deserialize(payload)
        next_offset = self.event_log.next_offset \
            if self.event_log is not None else 0
        if message["op"] == "reset":
            # A restarted sibling is about to re-announce its world: drop
            # whatever we believed about it (stale refcounts included).
            for key in [key for key in self._summaries if key[0] == src]:
                summary, _ = self._summaries.pop(key)
                self.summary_index.remove(summary.subscription_id, peer_id=src)
            return self._wire_codec.serialize({"ok": True,
                                               "next_offset": next_offset})
        key = (src, message["guid"])
        entry = self._summaries.get(key)
        if message["op"] == "add":
            if entry is not None:
                entry[1] += 1
            else:
                self._add_summary(src, message["guid"],
                                  message["description"], 1)
        elif entry is not None:
            entry[1] -= 1
            if entry[1] <= 0:
                self.summary_index.remove(entry[0].subscription_id, peer_id=src)
                del self._summaries[key]
        return self._wire_codec.serialize({"ok": True,
                                           "next_offset": next_offset})

    def _add_summary(self, src: str, guid: str, description,
                     count: int) -> None:
        """Index one refcounted (shard, expected-type) summary entry —
        the single construction site for both gossip adds and restart
        resyncs."""
        expected = deserialize_description(description).to_type_info()
        self.runtime.registry.register(expected)
        summary = Subscription(expected, None, self._next_summary_id,
                               peer_id=src)
        self._next_summary_id += 1
        self.summary_index.add(summary)
        self._summaries[(src, guid)] = [summary, count]

    def summaries(self) -> List[Subscription]:
        """The sibling-subscription summaries this shard currently holds."""
        return self.summary_index.subscriptions()

    # -- crash recovery ----------------------------------------------------

    def _handle_sync(self, payload: bytes, src: str) -> bytes:
        """Serve this shard's local-subscription summary to a restarted
        sibling: one refcounted entry per expected-type identity."""
        groups: Dict[str, Dict[str, Any]] = {}
        for subscription in self.index.subscriptions():
            guid = str(subscription.expected.guid)
            group = groups.get(guid)
            if group is None:
                group = groups[guid] = {
                    "guid": guid,
                    "description": serialize_description_bytes(
                        TypeDescription.from_type_info(subscription.expected)),
                    "count": 0,
                }
            group["count"] += 1
        return self._wire_codec.serialize({"summaries": list(groups.values())})

    def _sync_summaries(self) -> int:
        """Rebuild the forwarding filter after a restart by asking every
        sibling for its current local-subscription summary."""
        synced = 0
        for shard_id in self._siblings:
            try:
                response = self.request(shard_id, KIND_MESH_SYNC, b"",
                                        retries=self.max_retries)
            except (MessageDropped, NetworkError):
                self.gossip_failures += 1
                continue
            for item in self._wire_codec.deserialize(response)["summaries"]:
                key = (shard_id, item["guid"])
                if key in self._summaries:
                    self._summaries[key][1] = item["count"]
                    continue
                self._add_summary(shard_id, item["guid"],
                                  item["description"], item["count"])
                synced += 1
        return synced

    def recover(self) -> List[DurableSubscription]:
        """Bring a freshly restarted shard back into the mesh.

        Rebuilds the sibling-summary forwarding filter, tells siblings to
        drop their stale view of this shard, heals the shard's own log
        from its followers' replicated copies (the catch-up phase — a
        wiped or truncated log directory gets its record set back before
        anything replays from it), re-registers every persisted remote
        durable subscription (which re-gossips its summary), and replays
        each one's unacknowledged backlog.  Replay batches ride the
        queued one-way path — drain the mesh to deliver them.
        """
        self._sync_summaries()
        self._gossip({"op": "reset"})
        self._catch_up_from_followers()
        return self.recover_durable_subscriptions()

    def _catch_up_from_followers(self) -> int:
        """Pull the replicated copy of this shard's own records back from
        its followers and re-append whatever the local log is missing
        (idempotent at-offset appends).  Sequential pulls share one
        advancing ``from``: each follower only serves what the previous
        ones could not."""
        if self.event_log is None or self.replication is None:
            return 0
        healed = 0
        for follower in self.replication.followers:
            try:
                response = self.request(
                    follower, KIND_REPLICA_PULL,
                    self._wire_codec.serialize(
                        {"from": self.event_log.next_offset}),
                    retries=self.max_retries)
            except (MessageDropped, NetworkError):
                self.fetch_failures += 1
                continue
            for item in self._wire_codec.deserialize(response)["records"]:
                if self.event_log.append_at(item["offset"], item["payload"],
                                            item["origin"]) is not None:
                    healed += 1
        self.healed_records += healed
        return healed

    # -- routing (buffered by the pipeline's dispatch stage) ---------------

    def _buffer_forwards(self, values: Any, origin: Optional[str],
                         log_offset: Optional[int] = None,
                         payload: Optional[bytes] = None) -> None:
        """The pipeline's forwarder hook: buffer one copy of the record
        per sibling shard hosting at least one conforming subscriber
        (routed over the gossip summaries, so the decision reuses cached
        conformance verdicts).  ``log_offset`` — the record's offset here
        — travels as the forward's ``home`` id, keeping the receiving
        shard's copy attributable to this shard's log.

        A lazily-admitted record (``values`` is a
        :class:`~repro.serialization.envelope.LazyBatch` with its frame in
        ``payload``) is buffered as the frame itself, targeted on the
        header's root types — forwarding costs zero value decodes.  The
        eager path buffers per value, exactly as before.
        """
        if payload is not None and isinstance(values, LazyBatch):
            targets = set()
            for index in range(len(values)):
                event_type = values.root_type(index)
                if event_type is None:
                    continue
                for entry, summaries in self.summary_index.route(event_type):
                    for summary in summaries:
                        targets.add(summary.peer_id)
            for shard_id in sorted(targets):
                self.delivery.buffer_forward_frame(shard_id, payload,
                                                   len(values), log_offset)
            return
        for value in values:
            targets = set()
            for entry, summaries in self.summary_index.route(value.type_info):
                for summary in summaries:
                    targets.add(summary.peer_id)
            for shard_id in sorted(targets):
                self.delivery.buffer_forward(shard_id, origin or "", value,
                                             log_offset)

    def _handle_forward(self, payload: bytes, src: str) -> bytes:
        for frame in split_frames(payload):
            self._apply_forward(frame if isinstance(frame, bytes)
                                else bytes(frame), src)
        self.forwards_received += 1
        return b"OK"

    def _apply_forward(self, payload: bytes, src: str) -> None:
        envelope = self.codec.parse(payload)
        origin = envelope.origin or src
        if self.tracer is not None and envelope.trace is not None:
            self.tracer.record(envelope.trace, "admit",
                               {"src": src, "origin": origin,
                                "via": "forward", "bytes": len(payload)})
        # Forwarded-in events are logged too — BEFORE materializing: this
        # shard's log is the full local-delivery history, and a transient
        # code-fetch failure below must not lose the record (the sender
        # will not resend; replay retries materialization later).
        log_offset = self.durability.append_payload(payload, origin)
        if self._home_ids is not None and envelope.home is not None \
                and log_offset is not None:
            # Keep the home-id cache exact without a rescan; a retention
            # drop this append may have triggered changes the removal
            # stamp, which forces the rebuild on the next read.
            decoded = decode_home(envelope.home)
            if decoded is not None:
                for offset in decoded[1]:
                    if offset is None:
                        continue
                    key = (decoded[0], offset)
                    if self._home_ids.get(key, -1) < log_offset:
                        self._home_ids[key] = log_offset
        values: Any = None
        if self._lazy_admission:
            # Zero-copy ingest: route on the header, deliver the frame.
            values = self.pipeline.admission.lazy(envelope)
        if values is None:
            values = self.pipeline.admission.materialize(envelope, src)
        # Never re-forwarded: an event crosses at most one shard boundary.
        self.pipeline.process(values, origin, payload=payload,
                              log_offset=log_offset,
                              pre_logged=True, forward=False,
                              trace=envelope.trace)

    # -- cross-shard replication (follower side) ---------------------------

    def _handle_replicate(self, payload: bytes, src: str) -> bytes:
        """Apply one replication batch from origin shard ``src`` into its
        replica log, or reject it whole when it would leave a loss hole
        (its ``from`` claim starts above our high-water: an earlier batch
        was dropped).  Either way the origin learns our high-water via a
        one-way ``replicate_ack`` — the trigger for its gap resend."""
        if self.replicas is None:
            return b"OK"
        message = self._wire_codec.deserialize(payload)
        replica = self.replicas.log_for(src)
        if message["from"] > replica.next_offset:
            self.replica_rejects += 1
        else:
            for item in message["records"]:
                if replica.append_at(item["offset"], item["payload"],
                                     item["origin"]) is not None:
                    self.replica_records += 1
        try:
            self.post_async(src, KIND_REPLICATE_ACK, self._wire_codec.serialize(
                {"watermark": replica.next_offset}))
        except UnknownPeerError:  # origin mid-restart
            self.network.stats.record_drop()
        return b"OK"

    def _handle_replicate_ack(self, payload: bytes, src: str) -> bytes:
        if self.replication is not None:
            message = self._wire_codec.deserialize(payload)
            self.replication.acknowledge(src, message["watermark"])
        return b"OK"

    # -- backlog fetch (serving side) --------------------------------------

    def _handle_backlog_fetch(self, payload: bytes, src: str) -> bytes:
        """Serve this shard's own records, conformance-filtered through
        the RoutingStage against the requester's expected type, so only
        matching records cross the wire.  Forwarded-in copies are never
        served (their home shard is authoritative).  ``upto`` reports how
        far the scan got — the requester consumes through it so filtered
        records are not re-fetched forever.

        Two elastic-membership extensions ride the same request shape: a
        requester's ``upto`` clamps the scan (an adoption fetch stops at
        the dual-routing bound — everything above arrives by live
        forward), and ``origin`` names a *departed* shard whose archived
        records should be served from this shard's replica log of it
        instead of the local event log (the archivist path — a removed
        shard's history outlives it in its followers)."""
        request = self._wire_codec.deserialize(payload)
        origin = request.get("origin")
        own_only = True
        if origin is not None and origin != self.peer_id:
            log = self.replicas.log_for(origin, create=False) \
                if self.replicas is not None else None
            # Replica logs hold only the origin's own records — no
            # forwarded-in copies to filter out.
            own_only = False
        else:
            log = self.event_log
        if log is None:
            return self._wire_codec.serialize({"upto": 0, "records": []})
        expected = deserialize_description(
            request["description"]).to_type_info()
        self.runtime.registry.register(expected)
        self.fetches_served += 1
        upto = log.next_offset
        clamp = request.get("upto")
        if clamp is not None:
            upto = min(upto, int(clamp))
        #: Retention may have dropped records the requester never fetched
        #: — report how far the retained log actually starts, so the
        #: requester can surface the gap instead of silently skipping it.
        first = log.first_offset
        records = []
        for record in log.replay(request["from"], upto):
            if own_only and envelope_home(record.payload) is not None:
                continue  # some other shard's record, forwarded here
            match = self._record_conforms(record, expected, src)
            if match is None:
                # Unservable right now (code unavailable): stop the scan
                # short of it so the requester retries later instead of
                # consuming past a record it never saw.
                upto = record.offset
                break
            if match:
                records.append({"offset": record.offset,
                                "origin": record.origin,
                                "payload": record.payload})
        self.fetch_records_served += len(records)
        return self._wire_codec.serialize({"upto": upto, "first": first,
                                           "records": records})

    def _record_conforms(self, record: LogRecord, expected: Any,
                         src: str) -> Optional[bool]:
        """Does any value of one stored record conform to ``expected``?

        Header-only when the record's type section resolves locally (the
        common case — this shard admitted it): the decision runs on the
        header's root types through the same cached routing verdicts as
        live publish, without decoding a single value.  Otherwise the
        eager fallback materializes; ``None`` = unservable right now.
        """
        if self._lazy_admission:
            try:
                envelope = self.codec.parse(record.payload)
            except WireFormatError:
                envelope = None
            if envelope is not None:
                batch = self.pipeline.admission.lazy(envelope)
                if batch is not None:
                    index = self.pipeline.routing.index
                    return any(
                        index.lookup(batch.root_type(i), expected) is not None
                        for i in range(len(batch)))
        values = self.pipeline.admission.materialize_record(
            record, record.origin or src)
        if values is None:
            return None
        return bool(self.pipeline.routing.conforming(values, expected))

    def _handle_replica_pull(self, payload: bytes, src: str) -> bytes:
        """Serve the replicated copy of ``src``'s own records back to it —
        the recovery catch-up path of a shard whose log was lost."""
        request = self._wire_codec.deserialize(payload)
        replica = self.replicas.log_for(src, create=False) \
            if self.replicas is not None else None
        if replica is None:
            return self._wire_codec.serialize({"upto": 0, "records": []})
        upto = replica.next_offset
        records = [
            {"offset": record.offset, "origin": record.origin,
             "payload": record.payload}
            for record in replica.replay(request["from"], upto)
        ]
        return self._wire_codec.serialize({"upto": upto, "records": records})

    # -- mesh-wide durable replay (requesting side) ------------------------

    def _log_removal_stamp(self) -> Tuple[int, int, int]:
        """Changes whenever records LEFT the local log (retention drop or
        compaction) — the only events that can invalidate the home-id
        cache beyond the incremental adds ``_handle_forward`` makes."""
        log = self.event_log
        return (log.dropped_segments, log.retention_dropped_records,
                log.compactions)

    def _home_ids_in_log(self) -> Dict[Tuple[str, int], int]:
        """The ``(home shard, home offset)`` id of every forwarded-in
        record retained in the local log, mapped to the local offset its
        copy sits at — records the local replay path already covers,
        which replica replay and backlog fetch must not deliver a second
        time.  The local offset is what makes the skip *floor-aware*: an
        adopted subscription replays locally only from its adoption
        floor, so a copy lying below the floor does NOT cover it (see
        :meth:`~repro.apps.tps.pipeline.DeliveryPipeline.replay_foreign`).

        Built by scanning the log once, then maintained incrementally
        (each forwarded-in append adds its ids); a retention drop or
        compaction pass rebuilds, so an id whose record is gone stops
        suppressing a re-fetch."""
        if self.event_log is None:
            return {}
        stamp = self._log_removal_stamp()
        if self._home_ids is not None and stamp == self._home_ids_stamp:
            return self._home_ids
        seen: Dict[Tuple[str, int], int] = {}
        for record in self.event_log.replay():
            home = envelope_home(record.payload)
            if home is None:
                continue
            shard_id, offsets = home
            for offset in offsets:
                if offset is not None:
                    key = (shard_id, offset)
                    if seen.get(key, -1) < record.offset:
                        seen[key] = record.offset
        self._home_ids = seen
        self._home_ids_stamp = stamp
        return seen

    def _cursor_floor(self, cursor_name: str) -> int:
        """An adopted subscription's local replay floor (0 otherwise):
        the log end captured when this shard adopted the cursor.  Local
        replay starts at the floor; everything below it reaches the
        subscriber through the foreign passes — including the *self*
        pass over this shard's own pre-adoption records."""
        if self.cursors is None:
            return 0
        entry = self.cursors.entry(cursor_name)
        return int(entry.get("floor", 0)) if entry else 0

    def _replay_mesh(self, subscription: DurableSubscription,
                     recovering: bool = False,
                     bounds: Optional[Dict[str, int]] = None,
                     ceiling: Optional[int] = None) -> int:
        """Complete a durable subscription's backlog mesh-wide: for each
        sibling, replay its replica log (records replication already
        pulled here), then ``backlog_fetch`` whatever lies above the
        replica high-water — so the subscriber's backlog is complete
        regardless of which shard admitted the events, even when a
        sibling is unreachable for everything replication got here first.
        Progress is tracked per ``(cursor, sibling)`` fetch cursor in the
        sibling's offset space; records forwarded here at publish time
        replay through the local path and are skipped by home id.

        Elastic membership adds three passes on the same machinery: an
        *adopted* subscription (non-zero floor) first replays this
        shard's OWN pre-adoption records from the handed self-position
        (the local path only covers the log from the floor up); each
        *departed* shard's records are fetched from its old followers'
        replica archives (the archivist path, tried in the departed
        shard's rendezvous preference order); and during adoption each
        live sibling's pass is clamped to its dual-routing bound
        (``bounds``) — records above the bound arrive by live forward.
        ``ceiling`` is the handoff catch-up form (see
        :meth:`_handoff_subscription`): forwarded-in copies logged at or
        above it were never delivered locally, so the foreign passes
        must deliver them instead of skip-consuming.
        """
        if self.event_log is None:
            return 0
        seen = self._home_ids_in_log()
        floor = self._cursor_floor(subscription.cursor_name)
        description = serialize_description_bytes(
            TypeDescription.from_type_info(subscription.expected))
        total = 0
        if floor > 0:
            cursor = foreign_cursor_name(subscription.cursor_name,
                                         self.peer_id)
            self.durability.register_cursor(
                cursor, peer_id=subscription.peer_id,
                touch=not recovering,
                origin=self.peer_id, base=subscription.cursor_name)
            # ``local=True``: this fetch cursor tracks the LOCAL log, so
            # unlike its sibling-space kin it must pin the retention
            # floor until its pass drains.
            self.cursors.annotate(cursor, local=True)
            start = self.cursors.get(cursor)
            if start < floor:
                own = (record
                       for record in self.event_log.replay(start, floor)
                       if envelope_home(record.payload) is None)
                total += self.pipeline.replay_foreign(
                    subscription, self.peer_id, own, upto=floor,
                    floor=floor)
        departed = [shard_id for shard_id in
                    (self.topology.departed
                     if self.topology is not None else ())
                    if shard_id != self.peer_id]
        for origin in list(self._siblings) + departed:
            bound = None if bounds is None else bounds.get(origin)
            cursor = foreign_cursor_name(subscription.cursor_name, origin)
            fresh_fetch = cursor not in self.cursors
            self.durability.register_cursor(
                cursor, peer_id=subscription.peer_id,
                touch=not recovering,
                origin=origin, base=subscription.cursor_name)
            start = self.cursors.get(cursor)
            replica = self.replicas.log_for(origin, create=False) \
                if self.replicas is not None else None
            if replica is not None and replica.next_offset > start:
                replica_end = replica.next_offset if bound is None \
                    else min(replica.next_offset, bound)
                if replica_end > start:
                    total += self.pipeline.replay_foreign(
                        subscription, origin,
                        replica.replay(start, replica_end),
                        upto=replica_end, seen=seen, floor=floor,
                        ceiling=ceiling)
                    start = max(start, replica_end)
            if bound is not None and start >= bound:
                continue
            request = {"description": description, "from": start}
            if bound is not None:
                request["upto"] = bound
            if origin in self._siblings:
                servers = [origin]
            else:
                # The departed shard's records survive in its old
                # followers' replica logs; any live shard may hold one.
                request["origin"] = origin
                servers = rendezvous_rank(origin, self._siblings)
            reply = None
            for server in servers:
                try:
                    response = self.request(
                        server, KIND_BACKLOG_FETCH,
                        self._wire_codec.serialize(request),
                        retries=self.max_retries)
                except (MessageDropped, NetworkError):
                    # Unreachable: the subscriber got what the replica
                    # log held; the rest arrives on a later replay.
                    self.fetch_failures += 1
                    continue
                candidate = self._wire_codec.deserialize(response)
                if candidate["upto"] <= start and len(servers) > 1:
                    continue  # no (new) archive here: try the next one
                reply = candidate
                break
            if reply is None:
                continue
            if not fresh_fetch and reply.get("first", 0) > start:
                # The server's retention dropped records this cursor
                # never fetched: surface the gap, exactly like the local
                # replay path does (a brand-new fetch cursor on an aged
                # log missed nothing — it begins at the retained head).
                self.pipeline.stats.retention_lost_records += \
                    reply["first"] - start
            fetched: Iterator[LogRecord] = (
                LogRecord(item["offset"], item["origin"], item["payload"])
                for item in reply["records"])
            total += self.pipeline.replay_foreign(
                subscription, origin, fetched,
                upto=reply["upto"], seen=seen, floor=floor,
                ceiling=ceiling)
        return total

    # -- elastic membership (handoff / adoption) ---------------------------

    def _handle_topology(self, payload: bytes, src: str) -> bytes:
        """Commit a membership announcement — or, on an empty payload,
        answer with the currently committed view (the query form the
        operational API's ``GET /topology`` rides)."""
        if not payload:
            return self._wire_codec.serialize({
                "ok": True, "epoch": self.epoch,
                "topology": self.topology.as_dict()
                if self.topology is not None else None,
            })
        message = self._wire_codec.deserialize(payload)
        committed = self.set_topology(Topology.from_dict(message["topology"]))
        if committed:
            self.ensure_replica_coverage()
            if message.get("resync"):
                # A joining shard asks its new siblings to re-serve their
                # summaries right after they learn of it, closing the race
                # where gossip sent before the join was unroutable.
                self._sync_summaries()
        return self._wire_codec.serialize({
            "ok": True, "committed": committed, "epoch": self.epoch})

    def _handle_handoff(self, payload: bytes, src: str) -> bytes:
        message = self._wire_codec.deserialize(payload)
        description = message["description"]
        if isinstance(description, str):
            description = description.encode("utf-8")
        try:
            result = self.adopt_subscription(
                message["cursor"], message["peer_id"], description,
                {origin: int(offset)
                 for origin, offset in message["positions"].items()})
        except (ValueError, NetworkError) as exc:
            return self._wire_codec.serialize({"ok": False,
                                               "error": str(exc)})
        return self._wire_codec.serialize(result)

    def adopt_subscription(self, cursor: str, peer_id: str,
                           description: bytes,
                           positions: Dict[str, int]) -> Dict[str, Any]:
        """Become the home of a durable subscription handed off by its
        previous home shard.

        The *floor* — this shard's log end at adoption — is the seam
        between histories: the base cursor starts there, so the local
        replay path covers exactly the records admitted here from now
        on, while everything before reaches the subscriber through the
        per-origin foreign passes resumed from the handed ``positions``
        (including the *self* pass over this shard's own pre-adoption
        records, handed under this shard's id).  Live deliveries begin
        the moment the subscription enters the index; handlers run
        serially, so nothing can append between the floor capture and
        that registration — the seam is exact.
        """
        if self.event_log is None or self.cursors is None:
            raise NetworkError("shard %s has no event log; cannot adopt "
                               "durable cursor %r" % (self.peer_id, cursor))
        if cursor in self.cursors:
            # A retried handoff whose first attempt landed (the ok
            # response was lost): adopting is idempotent.
            return {"ok": True, "already": True,
                    "floor": self._cursor_floor(cursor)}
        expected = deserialize_description(description).to_type_info()
        self.runtime.registry.register(expected)
        floor = self.event_log.next_offset
        subscription = DurableSubscription(expected, None, self._next_id,
                                           peer_id=peer_id,
                                           cursor_name=cursor)
        self._next_id += 1
        self.index.add(subscription)
        self.durability.register_cursor(cursor, peer_id=peer_id,
                                        description=description.decode(
                                            "utf-8"))
        self.cursors.advance(cursor, floor, touch=False)
        self.cursors.annotate(cursor, floor=floor)
        # Resume the previous home's consumed-through marks: each handed
        # position becomes a fetch cursor in that origin's offset space.
        # A position keyed by THIS shard is the old home's fetch progress
        # over us — the self pass (``local=True`` pins local retention
        # until it drains).
        for origin in sorted(positions):
            fetch = foreign_cursor_name(cursor, origin)
            self.durability.register_cursor(fetch, peer_id=peer_id,
                                            origin=origin, base=cursor)
            self.cursors.advance(fetch, positions[origin], touch=False)
            if origin == self.peer_id:
                self.cursors.annotate(fetch, local=True)
        # Announce the adoption to every sibling with a synchronous
        # summary-add, collecting each one's log end as the dual-routing
        # bound: records a sibling admitted before indexing the add can
        # only arrive through this adoption's bounded fetch; records
        # after it are forwarded here live.  The old home keeps its
        # summary until the handoff completes (add-before-remove), so no
        # publish falls between the two homes.
        announce = self._wire_codec.serialize({
            "op": "add", "guid": str(expected.guid),
            "description": serialize_description_bytes(
                TypeDescription.from_type_info(expected)),
        })
        bounds: Dict[str, int] = {}
        for shard_id in self._siblings:
            try:
                response = self.request(shard_id, KIND_MESH_SUMMARY,
                                        announce, retries=self.max_retries)
            except (MessageDropped, NetworkError):
                # No summary indexed there means no live forwards from
                # it either: the unbounded fetch below stays exact.
                self.gossip_failures += 1
                continue
            bound = self._wire_codec.deserialize(response).get("next_offset")
            if bound is not None:
                bounds[shard_id] = int(bound)
        self.adoptions += 1
        unreachable = self.pipeline.stats.replay_unreachable
        self._replay_mesh(subscription, bounds=bounds)
        if self.pipeline.stats.replay_unreachable > unreachable:
            # The subscriber has no route to this shard yet, so part of
            # the adopted backlog could not go out (its cursors stay
            # blocked below the undelivered records).  Park the pass for
            # the delivery pump to retry once a route appears.
            self._stalled_replays[cursor] = bounds
        return {"ok": True, "floor": floor}

    def retire(self, survivors: Topology, pump: Callable[[], Any],
               coverage_rounds: int = 1000) -> List[str]:
        """The leaving-shard half of a removal, shared by every mesh
        runner: refuse while a durable cursor's handler is pinned to this
        process or while this shard's own history has no follower to
        survive in, pump until every follower acknowledged that history
        (it then lives on in their replica logs, where the archivist
        fetch path serves it), and hand every remote durable subscription
        to its home under ``survivors``.  Returns the moved cursor names;
        any raise leaves the shard live."""
        for subscription in self.index.subscriptions():
            if isinstance(subscription, DurableSubscription) \
                    and subscription.peer_id is None:
                raise ValueError(
                    "durable cursor %r has a local handler pinned to "
                    "shard %s; detach it before removing the shard"
                    % (subscription.cursor_name, self.peer_id))
        if self.event_log is not None and self._replication_target() > 0:
            if self._replication_factor < 1:
                raise ValueError(
                    "shard %r holds durable records but the mesh does not "
                    "replicate (replication_factor=0); its history would "
                    "be lost" % self.peer_id)
            self.ensure_replica_coverage()
            for _ in range(coverage_rounds):
                if self.replication_covered():
                    break
                pump()
            if not self.replication_covered():
                raise NetworkError(
                    "shard %r's history is not fully replicated to its "
                    "followers; aborting the removal" % self.peer_id)
        return self.handoff_durable_subscriptions(survivors, pump=pump)

    def handoff_durable_subscriptions(
            self, topology: Topology,
            pump: Optional[Callable[[], Any]] = None) -> List[str]:
        """Migrate every remote durable subscription whose subscriber
        re-homes away from this shard under ``topology``; returns the
        moved cursor names.  ``pump`` drives the fabric while in-flight
        ack windows settle (the mesh runner passes its flush loop).
        Local-handler durable subscriptions stay put — their handler
        lives in this process (:meth:`retire` refuses to leave them)."""
        moved: List[str] = []
        if self.event_log is None:
            return moved
        for subscription in list(self.index.subscriptions()):
            if not isinstance(subscription, DurableSubscription) \
                    or subscription.peer_id is None:
                continue
            new_home = topology.shard_for(subscription.peer_id)
            if new_home == self.peer_id:
                continue
            self._handoff_subscription(subscription, new_home, pump)
            moved.append(subscription.cursor_name)
        return moved

    def _handoff_subscription(self, subscription: DurableSubscription,
                              new_home: str,
                              pump: Optional[Callable[[], Any]]) -> None:
        """Hand one durable subscription to ``new_home``: deactivate it
        here, settle its in-flight ack windows so the cursor family holds
        exact consumed-through marks, ship the position vector, and —
        only once the new home confirmed adoption — retire the cursors
        and gossip the summary-remove that closes the dual-routing
        window.  Any failure reactivates the subscription here: the
        membership operation aborts with the subscription still live at
        its old home."""
        cursor = subscription.cursor_name
        self.index.remove(subscription.subscription_id)
        try:
            self._settle_cursor_family(cursor, pump)
            # Catch-up pass: a handed fetch position must be a contiguous
            # consumed prefix of its origin's offsets, but consumption of
            # live-FORWARDED records is tracked in the LOCAL offset space
            # (the base cursor + home-id skip), not the fetch cursors.
            # Re-running the mesh replay with the settled base frontier as
            # the ceiling advances every fetch cursor across that gap:
            # copies delivered here skip-consume, copies logged after
            # deactivation (at or above the frontier, hence never
            # delivered) go out to the subscriber now.
            frontier = self.cursors.get(cursor)
            self._replay_mesh(subscription, ceiling=frontier)
            self._settle_cursor_family(cursor, pump)
            floor = self._cursor_floor(cursor)
            selfpass = foreign_cursor_name(cursor, self.peer_id)
            if floor and selfpass in self.cursors \
                    and self.cursors.get(selfpass) < floor:
                # Chained adoption whose own-history pass has not drained
                # even after the catch-up: the handed self-position would
                # be non-contiguous with the base cursor.  Abort loudly.
                raise NetworkError(
                    "cursor %r's adoption replay on shard %s has not "
                    "drained; cannot hand it off" % (cursor, self.peer_id))
            positions = {self.peer_id: self.cursors.get(cursor)}
            for name in self.cursors.derived(cursor):
                entry = self.cursors.entry(name)
                origin = entry.get("origin")
                if origin and origin != self.peer_id:
                    positions[origin] = int(entry["offset"])
            response = self.request(
                new_home, KIND_MESH_HANDOFF,
                self._wire_codec.serialize({
                    "cursor": cursor,
                    "peer_id": subscription.peer_id,
                    "description": serialize_description_bytes(
                        TypeDescription.from_type_info(
                            subscription.expected)),
                    "positions": positions,
                }),
                retries=self.max_retries)
            reply = self._wire_codec.deserialize(response)
            if not reply.get("ok"):
                raise NetworkError("shard %s refused handoff of %r: %s"
                                   % (new_home, cursor,
                                      reply.get("error")))
        except (MessageDropped, NetworkError):
            self.index.add(subscription)
            raise
        self._forget_cursor_tokens(cursor)
        self.durability.remove_cursor(cursor)
        self._stalled_replays.pop(cursor, None)
        self.handoffs += 1
        self._gossip({"op": "remove",
                      "guid": str(subscription.expected.guid)})

    def _settle_cursor_family(self, base: str,
                              pump: Optional[Callable[[], Any]],
                              max_rounds: int = 1000) -> bool:
        """Drive the fabric until no ack window is in flight for ``base``
        or any of its derived fetch cursors — the precondition for the
        cursor offsets to be exact consumed-through marks.  Returns
        whether everything settled (an unreachable subscriber leaves
        windows open; the at-least-once contract covers the redelivery
        the stale positions then cause)."""
        family = [base] + (self.cursors.derived(base)
                           if self.cursors is not None else [])

        def inflight() -> bool:
            return any(self.durability.tracker.has_inflight(name)
                       for name in family)

        for _ in range(max_rounds):
            self.flush_delivery()
            if not inflight():
                return True
            if pump is None:
                break
            pump()
        return not inflight()

    # -- draining ----------------------------------------------------------

    def pending_deliveries(self) -> int:
        pending = self.delivery.pending()
        if self.replication is not None:
            pending += self.replication.pending()
        return pending

    def flush_delivery(self) -> int:
        """Encode and enqueue one batch message per buffered destination
        (see :meth:`repro.apps.tps.pipeline.BufferedDelivery.flush`),
        plus one replication batch per follower with queued records."""
        sent = self.delivery.flush()
        if self.replication is not None:
            sent += self.replication.flush()
        sent += self.retry_stalled_replays()
        return sent

    def retry_stalled_replays(self) -> int:
        """Re-deliver durable backlog that stalled on an unreachable
        subscriber; returns the number of records delivered.

        Two stall sources feed the candidate set: adoption-time replays
        parked in ``_stalled_replays`` (the subscriber had no route to
        this freshly joined shard), and any remote durable cursor whose
        family carries an undelivered-range *block* — a live delivery
        that failed the same way.  A blocked cursor also suppresses
        further live sends (see ``BufferedDelivery.remote``), so this
        replay is the only path that moves it again.

        Each retry waits for the subscriber to become routable (cheap
        check, no RPCs while it is not) and for every in-flight ack
        window of the cursor family to land — re-sending a range whose
        ack is merely late would double-deliver it.  Every retry replays
        the local log from the base cursor, which covers suppressed live
        deliveries: forwarded-in records are appended here before
        delivery, so live-path blocks only ever form in the base
        cursor's (local) offset space.  Only a *parked* entry re-runs
        the per-origin mesh passes, under its stored dual-routing
        bounds — an unbounded sibling fetch would race forwards still in
        flight and double-deliver them.  A mesh pass that completes
        without hitting an unreachable subscriber retires the parked
        entry: whatever remains undelivered is covered by in-flight acks
        and the cursor blocks."""
        if self.cursors is None:
            return 0
        tracker = self.durability.tracker
        candidates: Dict[str, Optional[Dict[str, int]]] = \
            dict(self._stalled_replays)
        if tracker.blocks:
            for sub in self.index.subscriptions():
                if not isinstance(sub, DurableSubscription) \
                        or sub.peer_id is None or sub.cursor_name is None \
                        or sub.cursor_name in candidates:
                    continue
                family = [sub.cursor_name] \
                    + self.cursors.derived(sub.cursor_name)
                if any(name in tracker.blocks for name in family):
                    candidates[sub.cursor_name] = None
        if not candidates:
            return 0
        delivered = 0
        can_route = getattr(self.network, "can_route", None)
        for cursor, bounds in candidates.items():
            subscription = next(
                (sub for sub in self.index.subscriptions()
                 if isinstance(sub, DurableSubscription)
                 and sub.cursor_name == cursor), None)
            if subscription is None:
                # Deactivated (unsubscribe or an in-progress handoff):
                # keep any parked entry — a resumed or reactivated
                # subscription still owes the backlog; a completed
                # handoff drops it.
                continue
            if can_route is not None and not can_route(subscription.peer_id):
                continue
            family = [cursor] + self.cursors.derived(cursor)
            if any(tracker.has_inflight(name) for name in family):
                continue
            unreachable = self.pipeline.stats.replay_unreachable
            delivered += self.pipeline.replay(subscription)
            if cursor in self._stalled_replays:
                delivered += self._replay_mesh(subscription, bounds=bounds)
                if self.pipeline.stats.replay_unreachable == unreachable:
                    del self._stalled_replays[cursor]
        return delivered

    # -- observability -----------------------------------------------------

    def _extra_stats(self) -> dict:
        snapshot = {
            "batches_sent": self.transport_stats.batches_sent,
            "batch_events": self.batch_events,
            "forwards_sent": self.forwards_sent,
            "forward_events": self.forward_events,
            "forwards_received": self.forwards_received,
            "gossip_failures": self.gossip_failures,
            "summary_types": len(self._summaries),
            "pending_deliveries": self.pending_deliveries(),
            "epoch": self.epoch,
            "handoffs": self.handoffs,
            "adoptions": self.adoptions,
        }
        if self.replication is not None:
            snapshot["replication"] = {
                "factor": self._replication_factor,
                "followers": self.replication.watermarks(),
                "records_replicated": self.pipeline.stats.records_replicated,
                "batches_sent": self.replication.batches_sent,
                "resends": self.pipeline.stats.replication_resends,
            }
        if self.replicas is not None:
            snapshot["replicas"] = self.replicas.stats()
            snapshot["replica_records"] = self.replica_records
            snapshot["replica_rejects"] = self.replica_rejects
            snapshot["healed_records"] = self.healed_records
        if self.event_log is not None:
            snapshot["events_fetched"] = self.pipeline.stats.events_fetched
            snapshot["fetches_served"] = self.fetches_served
            snapshot["fetch_records_served"] = self.fetch_records_served
            snapshot["fetch_failures"] = self.fetch_failures
        return snapshot

    def close(self) -> None:
        super().close()
        if self.replicas is not None:
            self.replicas.close()


def removal_topology(topology: Topology, shard_id: str,
                     replication_factor: int) -> Topology:
    """The topology after ``shard_id`` leaves (epoch + 1), refused when
    the shard is unknown or the survivors could not keep
    ``replication_factor`` followers per shard — the first gate of every
    mesh runner's ``remove_shard``."""
    if shard_id not in topology:
        raise ValueError("no shard %r in this mesh" % shard_id)
    proposed = topology.without_shard(shard_id)
    if replication_factor >= len(proposed):
        raise ValueError(
            "removing %r would leave %d shards — too few for "
            "replication_factor=%d" % (shard_id, len(proposed),
                                       replication_factor))
    return proposed


class BrokerMesh:
    """N broker shards cooperating as one logical TPS broker.

    Peers pick their home shard with :meth:`shard_for` (rendezvous hash
    of their peer id), subscribe there, and publish there; the mesh
    forwards between shards only when a conforming subscriber lives
    remotely.  Call :meth:`run_until_idle` to drain queued publishes,
    forwards and deliveries to quiescence.

    Membership, draining and stats are written once, here.  The fabric
    is the simulator's shared network; a runner on another in-process
    fabric (:class:`~repro.apps.tps.procmesh.SocketMesh`) overrides only
    the fabric hooks: :meth:`_shard_network`, :meth:`_joined`,
    :meth:`_discard`, :meth:`_fabric_idle`, :meth:`_record_stall`,
    :meth:`_commit_topology` and :meth:`flush`.
    """

    def __init__(self, network: SimulatedNetwork,
                 shard_count: Optional[int] = None,
                 name: str = "mesh", log_root: Optional[str] = None,
                 replication_factor: int = 0,
                 topology: Optional[Topology] = None,
                 **broker_kwargs):
        config = MeshConfig(topology=topology, shard_count=shard_count,
                            name=name, log_root=log_root,
                            replication_factor=replication_factor,
                            broker_kwargs=broker_kwargs)
        self.network = network
        #: The committed membership view; every live membership change
        #: goes through :meth:`add_shard` / :meth:`remove_shard`, which
        #: replace it with the next epoch.
        self.topology = config.topology
        self.name = config.topology.name
        #: With a ``log_root``, every shard gets a durable event log under
        #: ``log_root/<shard id>`` — the precondition for durable
        #: subscriptions and :meth:`restart_shard` crash recovery.
        self.log_root = config.log_root
        #: Each shard streams its appended records to this many
        #: rendezvous-chosen follower shards (0 = no replication); see
        #: :class:`~repro.apps.tps.pipeline.ReplicationStage`.
        self.replication_factor = config.replication_factor
        self._broker_kwargs = config.broker_kwargs
        self.shards: List[MeshShard] = []
        self._by_id: Dict[str, MeshShard] = {}
        for shard_id in config.shard_ids:
            self._joined(self._spawn_shard(shard_id))
        self._commit_topology(self.topology)

    def _spawn_shard(self, shard_id: str) -> MeshShard:
        kwargs = dict(self._broker_kwargs)
        if self.log_root is not None:
            kwargs["log_dir"] = os.path.join(self.log_root, shard_id)
        return MeshShard(shard_id, self._shard_network(shard_id),
                         replication_factor=self.replication_factor, **kwargs)

    # -- fabric hooks ------------------------------------------------------

    def _shard_network(self, shard_id: str) -> Any:
        """The network a (re)spawned shard registers on."""
        return self.network

    def _joined(self, shard: MeshShard) -> None:
        """Admit a shard that came up (at construction or by a join)."""
        self.shards.append(shard)
        self._by_id[shard.peer_id] = shard

    def _discard(self, shard: MeshShard) -> None:
        """Tear down a failed joiner or a leaver (closing unregisters it
        from the fabric)."""
        shard.close()

    def _fabric_idle(self) -> bool:
        return not self.network.pending()

    def _record_stall(self) -> None:
        self.network.stats.record_stall()

    def _commit_topology(self, topology: Topology) -> None:
        self.topology = topology
        for shard in self.shards:
            shard.set_topology(topology)

    # -- addressing --------------------------------------------------------

    def followers_of(self, shard_id: str) -> List[str]:
        """The follower shards replicating ``shard_id``'s records."""
        return self._by_id[shard_id].followers

    @property
    def shard_ids(self) -> List[str]:
        return [shard.peer_id for shard in self.shards]

    def shard_for(self, peer_id: str) -> str:
        """The home shard id for a peer (deterministic rendezvous hash)."""
        return rendezvous_shard(peer_id, self.shard_ids)

    def home(self, peer_id: str) -> MeshShard:
        return self._by_id[self.shard_for(peer_id)]

    def shard(self, shard_id: str) -> MeshShard:
        return self._by_id[shard_id]

    @property
    def epoch(self) -> int:
        return self.topology.epoch

    # -- elastic membership ------------------------------------------------

    def add_shard(self, shard_id: Optional[str] = None) -> MeshShard:
        """Grow the mesh by one live shard (epoch + 1).

        The new shard is spawned, told the proposed topology, and
        resynchronised against every sibling's subscription summaries
        BEFORE the survivors commit — so the instant an existing shard
        learns the new epoch, the newcomer is already routable and
        forwarding-aware.  If the newcomer cannot come up, it is torn
        down and the epoch stays unchanged: a failed join leaves no
        trace.  Existing durable subscriptions stay where they are until
        :meth:`rebalance` moves the re-homed ones.
        """
        proposed = self.topology.with_shard(shard_id)
        new_id = [sid for sid in proposed.shard_ids
                  if sid not in self.topology][0]
        shard = self._spawn_shard(new_id)
        try:
            shard.set_topology(proposed)
            shard._sync_summaries()
        except Exception:
            self._discard(shard)
            raise
        self._joined(shard)
        self._commit_topology(proposed)
        # Follower sets shifted with the membership: probe any follower
        # a shard never replicated to so the gap-resend protocol
        # backfills its history onto the new placement.
        for existing in self.shards:
            existing.ensure_replica_coverage()
        return shard

    def remove_shard(self, shard_id: str,
                     coverage_rounds: int = 1000) -> Topology:
        """Retire one shard for good (epoch + 1), losing nothing.

        The leaving shard runs :meth:`MeshShard.retire`: its own records
        must first be fully replicated, then every durable subscription
        homed there is handed to its new rendezvous home.  Only after
        both gates pass does the topology commit and the shard close;
        any failure before that aborts with the epoch unchanged and the
        shard still live.
        """
        proposed = removal_topology(self.topology, shard_id,
                                    self.replication_factor)
        leaving = self._by_id[shard_id]
        self.run_until_idle()
        leaving.retire(proposed, pump=self.flush,
                       coverage_rounds=coverage_rounds)
        self.run_until_idle()
        # Point of no return: commit, purge the leaver from routing
        # state (set_topology drops its summaries on every survivor),
        # and close it.
        self.shards.remove(leaving)
        del self._by_id[shard_id]
        self._commit_topology(proposed)
        self._discard(leaving)
        for shard in self.shards:
            shard.ensure_replica_coverage()
        return proposed

    def rebalance(self) -> Dict[str, Any]:
        """Move every durable subscription to its rendezvous home under
        the committed topology (after :meth:`add_shard`, the ~1/N of
        subscribers whose home moved onto the newcomer).  Returns the
        moved cursor names per source shard."""
        moved: Dict[str, List[str]] = {}
        for shard in list(self.shards):
            cursors = shard.handoff_durable_subscriptions(self.topology,
                                                          pump=self.flush)
            if cursors:
                moved[shard.peer_id] = cursors
        self.run_until_idle()
        return {"epoch": self.topology.epoch, "moved": moved}

    # -- crash recovery ----------------------------------------------------

    def restart_shard(self, shard_id: str) -> MeshShard:
        """Crash-restart one shard: tear it down, rebuild it from its
        durable state, and reconnect it to the mesh.

        The replacement shard reopens the same event log (running the
        torn-tail recovery scan), reloads its remote durable
        subscriptions from the cursor store, resynchronises sibling
        summaries, and replays each durable subscription's
        unacknowledged backlog — acked-past events are never resent,
        unacked ones go out again (at-least-once).  Non-durable
        subscriptions die with the old shard, exactly like a real broker
        crash.  The old incarnation's buffered deliveries die with it;
        messages already queued on the fabric under the shard's peer id
        are delivered to the NEW incarnation at drain time (a stale
        forward is logged and delivered — a possible duplicate the
        at-least-once contract allows; a stale ack misses the empty
        pending table and is ignored).

        Drain the mesh afterwards to deliver the replayed backlog.
        """
        old = self._by_id.get(shard_id)
        if old is None:
            raise ValueError("no shard %r in this mesh" % shard_id)
        position = self.shards.index(old)
        old.close()  # unregisters from the fabric, closes the log
        shard = self._spawn_shard(shard_id)
        shard.set_topology(self.topology)
        self.shards[position] = shard
        self._by_id[shard_id] = shard
        shard.recover()
        return shard

    # -- draining ----------------------------------------------------------

    def flush(self) -> int:
        """One mesh round: drain queued network messages, then buffered
        shard deliveries.  Returns messages processed + enqueued."""
        progressed = self.network.flush()
        for shard in self.shards:
            progressed += shard.flush_delivery()
        return progressed

    def _idle(self) -> bool:
        return self._fabric_idle() and not any(
            shard.pending_deliveries() for shard in self.shards)

    def run_until_idle(self, max_rounds: int = 10_000) -> int:
        """Pump rounds until no queued message and no buffered event
        remain; returns the total activity count.

        Exhausting ``max_rounds`` with work still pending records a
        ``stalled`` count in the fabric's :class:`NetworkStats` and
        raises — a stuck mesh must be loud, not silently half-drained.
        """
        total = 0
        for _ in range(max_rounds):
            progressed = self.flush()
            total += progressed
            if not progressed and self._idle():
                return total
        if self._idle():
            return total  # the final round drained the mesh: not a stall
        self._record_stall()
        raise NetworkError("mesh %r did not go idle in %d rounds "
                           "(%d deliveries buffered)"
                           % (self.name, max_rounds,
                              sum(s.pending_deliveries() for s in self.shards)))

    # -- observability -----------------------------------------------------

    def events_routed(self) -> int:
        return sum(shard.events_routed for shard in self.shards)

    def stats(self) -> dict:
        """Aggregate + per-shard observability snapshot."""
        per_shard = {shard.peer_id: shard.stats() for shard in self.shards}
        return {
            "shards": per_shard,
            "epoch": self.topology.epoch,
            "events_routed": self.events_routed(),
            "forwards_sent": sum(s.forwards_sent for s in self.shards),
            "forward_events": sum(s.forward_events for s in self.shards),
            "batch_events": sum(s.batch_events for s in self.shards),
            "gossip_failures": sum(s.gossip_failures for s in self.shards),
            "events_replayed": sum(s.events_replayed for s in self.shards),
            "replay_failures": sum(s.replay_failures for s in self.shards),
            "events_fetched": sum(
                s.pipeline.stats.events_fetched for s in self.shards),
            "records_replicated": sum(
                s.pipeline.stats.records_replicated for s in self.shards),
            "replica_records": sum(s.replica_records for s in self.shards),
            "healed_records": sum(s.healed_records for s in self.shards),
        }

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "BrokerMesh":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
