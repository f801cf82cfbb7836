"""Cross-shard log replication + on-demand backlog fetch (PR 5 tentpole).

Covers the three legs of mesh-wide durability:

- **push replication** — every origin record streams to rendezvous-chosen
  follower shards, watermark-acked, gap-rejected and re-sent;
- **backlog fetch** — a durable subscriber attaching anywhere receives the
  complete conforming backlog, wherever the events were homed (records
  filtered server-side through the RoutingStage conformance check);
- **recovery catch-up** — a restarted shard whose log directory was wiped
  heals its record set back from its followers.
"""

import os
import shutil
from contextlib import ExitStack

import pytest

from repro.apps.tps import BrokerMesh, TpsPeer
from repro.apps.tps.mesh import rendezvous_rank, rendezvous_shard
from repro.cts.assembly import Assembly
from repro.describe.description import TypeDescription
from repro.describe.xml_codec import serialize_description_bytes
from repro.fixtures import (
    account_csharp,
    person_assembly_pair,
    person_java,
)
from repro.net.network import SimulatedNetwork
from repro.serialization.envelope import envelope_home


_worlds = ExitStack()


@pytest.fixture(autouse=True)
def _close_worlds():
    """Teardown for :func:`make_world`: close every mesh it opened."""
    with _worlds:
        yield


def make_world(tmp_path, shard_count=3, replication_factor=0,
               drop_rate=0.0, seed=0, name="mesh", **broker_kwargs):
    network = SimulatedNetwork(drop_rate=drop_rate, seed=seed)
    mesh = _worlds.enter_context(BrokerMesh(
        network, shard_count=shard_count, name=name,
        log_root=str(tmp_path / "logs"),
        replication_factor=replication_factor, **broker_kwargs))
    publisher = TpsPeer("publisher", network, **broker_kwargs)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    return network, mesh, publisher


def publish_spread(mesh, publisher, per_shard=2, prefix="e"):
    """Publish events homed on EVERY shard (no subscribers anywhere, so
    nothing is forwarded — each event lives only in its home shard's log
    plus whatever replication pushed out)."""
    names = []
    for index, shard_id in enumerate(mesh.shard_ids):
        for j in range(per_shard):
            name = "%s%d-%d" % (prefix, index, j)
            publisher.publish_async(
                shard_id, publisher.new_instance("demo.a.Person", [name]))
            names.append(name)
    mesh.run_until_idle()
    return names


def origin_offsets(shard):
    """Offsets of the records ``shard`` is the home of (forwarded-in
    copies carry a ``home`` attribute and are some other shard's)."""
    return {record.offset for record in shard.event_log.replay()
            if envelope_home(record.payload) is None}


class TestFollowerPlacement:
    def test_rank_is_deterministic_and_complete(self):
        shards = ["s0", "s1", "s2", "s3"]
        rank = rendezvous_rank("key", shards)
        assert sorted(rank) == sorted(shards)
        assert rank == rendezvous_rank("key", list(reversed(shards)))
        assert rank[0] == rendezvous_shard("key", shards)

    def test_followers_exclude_home_and_respect_factor(self, tmp_path):
        network, mesh, publisher = make_world(tmp_path, shard_count=4,
                                              replication_factor=2)
        for shard in mesh.shards:
            followers = shard.followers
            assert len(followers) == 2
            assert shard.peer_id not in followers
            assert mesh.followers_of(shard.peer_id) == followers

    def test_replication_needs_logs(self):
        network = SimulatedNetwork()
        with pytest.raises(ValueError):
            BrokerMesh(network, shard_count=2, replication_factor=1)

    def test_factor_must_leave_home_out(self, tmp_path):
        network = SimulatedNetwork()
        with pytest.raises(ValueError):
            BrokerMesh(network, shard_count=2, replication_factor=2,
                       log_root=str(tmp_path / "x"))


class TestPushReplication:
    def test_followers_hold_origin_records_at_origin_offsets(self, tmp_path):
        network, mesh, publisher = make_world(tmp_path, replication_factor=2)
        publish_spread(mesh, publisher, per_shard=3)
        for shard in mesh.shards:
            origin = origin_offsets(shard)
            for follower_id in shard.followers:
                replica = mesh.shard(follower_id).replicas.log_for(
                    shard.peer_id, create=False)
                assert replica is not None
                assert {r.offset for r in replica.replay()} == origin
                # byte-identical payloads, record by record
                for record in replica.replay():
                    assert record.payload == \
                        shard.event_log.read(record.offset).payload
                watermark = shard.replication.acked[follower_id]
                assert watermark == shard.event_log.next_offset

    def test_forwarded_in_records_are_not_rereplicated(self, tmp_path):
        """A shard's log holds forwarded-in copies too; only the records
        it is home to stream to its followers."""
        network, mesh, publisher = make_world(tmp_path, shard_count=2,
                                              replication_factor=1)
        home = mesh.shard_for("publisher")
        other = next(s for s in mesh.shard_ids if s != home)
        live = []
        anchor = TpsPeer("anchor-sub", network)
        anchor.subscribe_remote(other, person_java(), live.append)
        for index in range(3):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["f%d" % index]))
        mesh.run_until_idle()
        assert len(live) == 3
        # `other` logged 1 forwarded batch; its follower must hold only
        # `other`'s own records (none), never the forwarded copies.
        other_shard = mesh.shard(other)
        assert other_shard.event_log.record_count >= 1
        assert origin_offsets(other_shard) == set()
        follower = mesh.shard(other_shard.followers[0])
        replica = follower.replicas.log_for(other, create=False)
        assert replica is None or replica.record_count == 0

    def test_gap_batch_rejected_and_resent(self, tmp_path):
        """A lost replicate batch leaves the follower behind; the next
        batch's ``from`` claim exposes the gap, the follower rejects it
        whole, and the origin re-sends from the acked watermark."""
        network, mesh, publisher = make_world(tmp_path, replication_factor=1)
        home = mesh.shard_ids[0]
        origin = mesh.shard(home)
        follower_id = origin.followers[0]
        for index in range(2):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["a%d" % index]))
        network.flush()        # events admitted + logged at the origin
        origin.flush_delivery()  # replicate batch enqueued on the fabric
        # Simulate the loss: drop the queued replicate message.
        link = network._queues.get((home, follower_id))
        assert link and any(kind == "replicate" for kind, _ in link)
        link.clear()
        mesh.run_until_idle()
        assert mesh.shard(follower_id).replicas.high_water(home) == 0

        # The next publish exposes the hole and heals it.
        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["a2"]))
        mesh.run_until_idle()
        follower = mesh.shard(follower_id)
        assert follower.replica_rejects >= 1
        assert origin.pipeline.stats.replication_resends >= 1
        replica = follower.replicas.log_for(home, create=False)
        assert {r.offset for r in replica.replay()} == origin_offsets(origin)

    def test_stale_reordered_ack_triggers_no_resend(self, tmp_path):
        """One-way acks can reorder on the fabric: a stale ack arriving
        after a newer one must not roll the coverage claim back or
        trigger a spurious full-range resend."""
        network, mesh, publisher = make_world(tmp_path, replication_factor=1)
        home = mesh.shard_ids[0]
        origin = mesh.shard(home)
        follower_id = origin.followers[0]
        for index in range(3):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["s%d" % index]))
        mesh.run_until_idle()
        stage = origin.replication
        assert stage.acked[follower_id] == stage.sent[follower_id] == 3
        stage.acknowledge(follower_id, 1)  # late duplicate of an old ack
        assert stage.acked[follower_id] == 3  # monotonic
        assert origin.pipeline.stats.replication_resends == 0
        assert stage.pending() == 0

    def test_resent_batches_are_idempotent(self, tmp_path):
        """Re-delivering an already-applied batch must not duplicate
        records (the per-origin high-water absorbs it)."""
        network, mesh, publisher = make_world(tmp_path, replication_factor=1)
        home = mesh.shard_ids[0]
        origin = mesh.shard(home)
        follower = mesh.shard(origin.followers[0])
        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["x"]))
        network.flush()
        # Capture the replicate payload, deliver it twice.
        origin.flush_delivery()
        link = network._queues[(home, follower.peer_id)]
        payloads = [payload for kind, payload in link if kind == "replicate"]
        assert len(payloads) == 1
        mesh.run_until_idle()
        before = follower.replicas.log_for(home).record_count
        follower._handle_replicate(payloads[0], home)
        replica = follower.replicas.log_for(home)
        assert replica.record_count == before
        assert replica.stats()["duplicate_appends"] >= 1


class TestMeshWideBacklog:
    def test_late_subscriber_any_shard_fetch_only(self, tmp_path):
        """Acceptance (replication_factor=0): backlog fetch alone makes a
        late durable subscriber's backlog complete on EVERY shard."""
        network, mesh, publisher = make_world(tmp_path, replication_factor=0)
        names = publish_spread(mesh, publisher, per_shard=2)
        for index, shard_id in enumerate(mesh.shard_ids):
            got = []
            late = TpsPeer("late-%d" % index, network)
            late.subscribe_durable_remote(shard_id, person_java(), got.append,
                                          cursor="late-%d" % index)
            mesh.run_until_idle()
            assert sorted(e.getPersonName() for e in got) == sorted(names)

    def test_late_subscriber_complete_with_replication(self, tmp_path):
        network, mesh, publisher = make_world(tmp_path, replication_factor=2)
        names = publish_spread(mesh, publisher, per_shard=2)
        got = []
        late = TpsPeer("late-sub", network)
        home = mesh.shard_ids[0]
        late.subscribe_durable_remote(home, person_java(), got.append,
                                      cursor="late-c")
        mesh.run_until_idle()
        assert sorted(e.getPersonName() for e in got) == sorted(names)
        # then live events exactly once, no replay/live duplicates
        publisher.publish_async(
            mesh.shard_ids[1],
            publisher.new_instance("demo.a.Person", ["live"]))
        mesh.run_until_idle()
        delivered = [e.getPersonName() for e in got]
        assert delivered.count("live") == 1
        assert len(delivered) == len(set(delivered))

    def test_replica_logs_serve_when_sibling_is_down(self, tmp_path):
        """What replication already pulled here survives the origin shard
        being unreachable: the late subscriber still gets those records
        from the local replica log."""
        network, mesh, publisher = make_world(tmp_path, shard_count=3,
                                              replication_factor=2)
        names = publish_spread(mesh, publisher, per_shard=2)
        attach_at = mesh.shard_ids[0]
        down = mesh.shard_ids[1]
        down_names = {n for n in names if n.startswith("e1-")}
        mesh.shard(down).close()  # off the fabric; fetch will fail

        got = []
        late = TpsPeer("late-sub", network)
        late.subscribe_durable_remote(attach_at, person_java(), got.append,
                                      cursor="late-c")
        network.run_until_idle()
        delivered = {e.getPersonName() for e in got}
        assert down_names <= delivered  # served from the replica log
        assert delivered == set(names)
        assert mesh.shard(attach_at).fetch_failures >= 1

    def test_forwarded_copies_not_delivered_twice(self, tmp_path):
        """Events forwarded here at publish time replay through the local
        log; replica replay and fetch must skip them by home id."""
        network, mesh, publisher = make_world(tmp_path, shard_count=2,
                                              replication_factor=1)
        home = mesh.shard_for("publisher")
        other = next(s for s in mesh.shard_ids if s != home)
        live = []
        anchor = TpsPeer("anchor-sub", network)
        anchor.subscribe_remote(other, person_java(), live.append)
        for index in range(4):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["d%d" % index]))
        mesh.run_until_idle()
        assert len(live) == 4  # forwards really happened (and were logged)

        got = []
        late = TpsPeer("late-sub", network)
        late.subscribe_durable_remote(other, person_java(), got.append,
                                      cursor="late-c")
        mesh.run_until_idle()
        names = [e.getPersonName() for e in got]
        assert sorted(names) == ["d0", "d1", "d2", "d3"]
        assert len(names) == len(set(names))  # exactly once each

    def test_reattach_does_not_refetch(self, tmp_path):
        """Fetch cursors persist: a re-attach under the same cursor name
        replays nothing already acknowledged, local or fetched."""
        network, mesh, publisher = make_world(tmp_path, replication_factor=0)
        publish_spread(mesh, publisher, per_shard=2)
        home = mesh.shard_ids[0]
        got = []
        late = TpsPeer("late-sub", network)
        late.subscribe_durable_remote(home, person_java(), got.append,
                                      cursor="late-c")
        mesh.run_until_idle()
        assert len(got) == 6
        late.close()

        got2 = []
        again = TpsPeer("late-sub", network)
        again.subscribe_durable_remote(home, person_java(), got2.append,
                                       cursor="late-c")
        mesh.run_until_idle()
        assert got2 == []

    def test_local_handler_durable_gets_mesh_wide_backlog(self, tmp_path):
        """In-process durable handlers ride the same merge: replica
        replay + fetch deliver directly, advancing the fetch cursors."""
        network, mesh, publisher = make_world(tmp_path, replication_factor=1)
        names = publish_spread(mesh, publisher, per_shard=2)
        got = []
        shard = mesh.shards[0]
        shard.subscribe_durable(person_java(),
                                lambda view: got.append(view.getPersonName()),
                                cursor="loc-c")
        mesh.run_until_idle()
        assert sorted(got) == sorted(names)
        again = []
        shard.subscribe_durable(person_java(),
                                lambda view: again.append(view.getPersonName()),
                                cursor="loc-c")
        mesh.run_until_idle()
        assert again == []  # everything already consumed

    def test_unsubscribe_retires_fetch_cursors(self, tmp_path):
        network, mesh, publisher = make_world(tmp_path, replication_factor=0)
        publish_spread(mesh, publisher, per_shard=1)
        home = mesh.shard_ids[0]
        got = []
        late = TpsPeer("late-sub", network)
        sid = late.subscribe_durable_remote(home, person_java(), got.append,
                                            cursor="late-c")
        mesh.run_until_idle()
        shard = mesh.shard(home)
        assert shard.cursors.derived("late-c")  # fetch cursors exist
        late.unsubscribe_remote(home, sid)
        assert "late-c" not in shard.cursors
        assert shard.cursors.derived("late-c") == []

    def test_at_sign_cursor_names_rejected(self, tmp_path):
        """'@' is the derived fetch-cursor separator: a user cursor shaped
        like one could be adopted into another cursor's family."""
        network, mesh, publisher = make_world(tmp_path)
        peer = TpsPeer("p", network)
        from repro.net.network import NetworkError
        with pytest.raises((ValueError, NetworkError)):
            peer.subscribe_durable_remote(mesh.shard_ids[0], person_java(),
                                          lambda v: None, cursor="c@evil")

    def test_sibling_retention_gap_is_accounted(self, tmp_path):
        """Records a serving sibling's retention dropped before this
        cursor fetched them are a real loss — surfaced in
        ``retention_lost_records``, never silently skipped."""
        network = SimulatedNetwork()
        mesh = _worlds.enter_context(BrokerMesh(
            network, shard_count=2, log_root=str(tmp_path / "logs"),
            log_kwargs={"segment_max_bytes": 256, "max_segments": 1}))
        publisher = TpsPeer("publisher", network)
        asm_a, _ = person_assembly_pair()
        publisher.host_assembly(asm_a)
        attach_at, other = mesh.shard_ids
        got = []
        late = TpsPeer("late-sub", network)
        late.subscribe_durable_remote(attach_at, person_java(), got.append,
                                      cursor="late-c")
        mesh.run_until_idle()
        shard = mesh.shard(attach_at)
        fetched_below = shard.cursors.get("late-c@%s" % other)
        # New records at the sibling; its 1-segment retention drops most
        # of them before the subscriber ever re-attaches.
        for index in range(12):
            publisher.publish_async(
                other, publisher.new_instance("demo.a.Person",
                                              ["r%d" % index]))
        mesh.run_until_idle()
        sibling = mesh.shard(other)
        assert sibling.event_log.first_offset > fetched_below
        late.close()

        again = []
        re_attach = TpsPeer("late-sub", network)
        re_attach.subscribe_durable_remote(attach_at, person_java(),
                                           again.append, cursor="late-c")
        mesh.run_until_idle()
        assert shard.pipeline.stats.retention_lost_records == \
            sibling.event_log.first_offset - fetched_below

    def test_fetch_cursors_do_not_pin_local_retention(self, tmp_path):
        """A fetch cursor holds a sibling-space offset; it must never
        enter the local retention-floor computation."""
        network, mesh, publisher = make_world(tmp_path, replication_factor=0)
        publish_spread(mesh, publisher, per_shard=2)
        home = mesh.shard_ids[0]
        got = []
        late = TpsPeer("late-sub", network)
        late.subscribe_durable_remote(home, person_java(), got.append,
                                      cursor="late-c")
        mesh.run_until_idle()
        shard = mesh.shard(home)
        floor = shard.cursors.min_offset()
        assert floor == shard.cursors.get("late-c")


class TestBacklogFetchFiltering:
    def test_fetch_returns_only_conforming_records(self, tmp_path):
        """Satellite unit: the serving side filters through RoutingStage —
        only records conforming to the requested description cross."""
        network, mesh, publisher = make_world(tmp_path, shard_count=2)
        publisher.host_assembly(Assembly("bank", [account_csharp()]))
        home = mesh.shard_ids[0]
        for index in range(2):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["p%d" % index]))
            publisher.publish_async(
                home, publisher.new_instance("demo.bank.Account",
                                             ["o%d" % index, index]))
        mesh.run_until_idle()
        shard = mesh.shard(home)
        assert shard.event_log.record_count == 4

        description = serialize_description_bytes(
            TypeDescription.from_type_info(person_java()))
        request = shard._wire_codec.serialize(
            {"description": description, "from": 0})
        shard.codec.stats.decodes = 0
        reply = shard._wire_codec.deserialize(
            shard._handle_backlog_fetch(request, "tester"))
        # The serving-side filter is header-only: deciding which of the
        # 4 records conform cost zero value-level decodes.
        assert shard.codec.stats.decodes == 0
        assert reply["upto"] == shard.event_log.next_offset
        assert len(reply["records"]) == 2  # the Person records only
        for item in reply["records"]:
            envelope = shard.codec.parse(item["payload"])
            names = envelope.type_names()
            assert any("Person" in name for name in names)
            assert not any("Account" in name for name in names)
        assert shard.fetch_records_served == 2

    def test_durable_replay_filter_is_header_only(self, tmp_path):
        """Satellite unit: the durable-replay conformance filter runs on
        frame headers — a backlog with nothing conforming replays with
        zero value-level decodes, and a mixed backlog decodes only the
        records that actually travel."""
        network, mesh, publisher = make_world(tmp_path, shard_count=1)
        publisher.host_assembly(Assembly("bank", [account_csharp()]))
        home = mesh.shard_ids[0]
        for index in range(3):
            publisher.publish_async(
                home, publisher.new_instance("demo.a.Person", ["p%d" % index]))
        mesh.run_until_idle()
        shard = mesh.shard(home)
        assert shard.event_log.record_count == 3

        # Nothing in the log conforms to Account: replay must not decode.
        account_type = publisher.new_instance(
            "demo.bank.Account", ["o", 1])._repro_type()
        bank_got = []
        bank_sub = TpsPeer("bank-sub", network)
        bank_sub.host_assembly(Assembly("bank", [account_csharp()]))
        shard.codec.stats.decodes = 0
        bank_sub.subscribe_durable_remote(home, account_type, bank_got.append,
                                          cursor="bank-c")
        mesh.run_until_idle()
        assert bank_got == []
        assert shard.codec.stats.decodes == 0

        # A conforming subscriber decodes exactly the records it receives.
        person_got = []
        person_sub = TpsPeer("person-sub", network)
        shard.codec.stats.decodes = 0
        person_sub.subscribe_durable_remote(home, person_java(),
                                            person_got.append,
                                            cursor="person-c")
        mesh.run_until_idle()
        assert len(person_got) == 3
        assert shard.codec.stats.decodes == 3

    def test_fetch_skips_forwarded_in_records(self, tmp_path):
        """Only records a shard is home to are served — forwarded-in
        copies are the home shard's to serve."""
        network, mesh, publisher = make_world(tmp_path, shard_count=2)
        home = mesh.shard_for("publisher")
        other = next(s for s in mesh.shard_ids if s != home)
        live = []
        anchor = TpsPeer("anchor-sub", network)
        anchor.subscribe_remote(other, person_java(), live.append)
        publisher.publish_async(
            home, publisher.new_instance("demo.a.Person", ["fwd"]))
        mesh.run_until_idle()
        other_shard = mesh.shard(other)
        assert other_shard.event_log.record_count == 1  # the forwarded copy

        description = serialize_description_bytes(
            TypeDescription.from_type_info(person_java()))
        request = other_shard._wire_codec.serialize(
            {"description": description, "from": 0})
        reply = other_shard._wire_codec.deserialize(
            other_shard._handle_backlog_fetch(request, "tester"))
        assert reply["records"] == []
        assert reply["upto"] == other_shard.event_log.next_offset


class TestWipedLogRecovery:
    def test_restart_heals_full_record_set_from_followers(self, tmp_path):
        """Acceptance: ``restart_shard()`` on a shard whose log directory
        was wiped recovers its full record set from its followers."""
        network, mesh, publisher = make_world(tmp_path, replication_factor=2)
        publish_spread(mesh, publisher, per_shard=3)
        victim = mesh.shard_ids[1]
        shard = mesh.shard(victim)
        offsets = sorted(r.offset for r in shard.event_log.replay())
        payloads = {r.offset: r.payload for r in shard.event_log.replay()}
        assert offsets  # the victim really homed records

        events_dir = os.path.join(str(tmp_path / "logs"), victim, "events")
        shard.close()
        shutil.rmtree(events_dir)
        restarted = mesh.restart_shard(victim)
        mesh.run_until_idle()
        assert restarted.healed_records == len(offsets)
        assert sorted(r.offset for r in restarted.event_log.replay()) == offsets
        for record in restarted.event_log.replay():
            assert record.payload == payloads[record.offset]

        # The healed shard serves late subscribers exactly as before.
        got = []
        late = TpsPeer("late-sub", network)
        late.subscribe_durable_remote(victim, person_java(), got.append,
                                      cursor="late-c")
        mesh.run_until_idle()
        assert len(got) == 9

    def test_restart_without_wipe_heals_nothing(self, tmp_path):
        network, mesh, publisher = make_world(tmp_path, replication_factor=1)
        publish_spread(mesh, publisher, per_shard=2)
        victim = mesh.shard_ids[0]
        restarted = mesh.restart_shard(victim)
        mesh.run_until_idle()
        assert restarted.healed_records == 0


class TestChaosReplication:
    """Lossy/reordering fabric with a seed matrix (CI sweeps
    ``REPLICATION_CHAOS_SEED``); pytest-timeout guards the CI run so a
    livelocked catch-up fails loudly instead of hanging the runner."""

    def test_chaos_lossy_fabric_converges(self, tmp_path):
        seed = int(os.environ.get("REPLICATION_CHAOS_SEED", "13"))
        network, mesh, publisher = make_world(
            tmp_path, shard_count=3, replication_factor=1,
            drop_rate=0.15, seed=seed, max_retries=20)
        home = mesh.shard_ids[0]
        got = []
        durable = TpsPeer("d-sub", network, max_retries=20)
        durable.subscribe_durable_remote(home, person_java(), got.append,
                                         cursor="d-c")
        wanted = set()
        # Synchronous retried publishes: durability starts at the append.
        for index, shard_id in enumerate(mesh.shard_ids):
            for j in range(2):
                name = "c%d-%d" % (index, j)
                publisher.publish(
                    shard_id,
                    publisher.new_instance("demo.a.Person", [name]))
                wanted.add(name)
        mesh.run_until_idle()
        mesh.restart_shard(home)
        mesh.run_until_idle()

        # At-least-once per restart: keep restarting until the durable
        # subscriber's backlog converges on the full conforming set.
        for _ in range(12):
            if {e.getPersonName() for e in got} >= wanted:
                break
            mesh.restart_shard(home)
            mesh.run_until_idle()
        assert {e.getPersonName() for e in got} >= wanted
        assert network.stats.dropped > 0  # the fabric really was lossy

        # Replication safety invariant, loss notwithstanding: follower
        # replica logs hold every origin record below the acked watermark.
        for shard in mesh.shards:
            if shard.replication is None:
                continue
            origin = origin_offsets(shard)
            for follower_id, marks in shard.replication.watermarks().items():
                replica = mesh.shard(follower_id).replicas.log_for(
                    shard.peer_id, create=False)
                held = ({r.offset for r in replica.replay()}
                        if replica is not None else set())
                missing = {offset for offset in origin
                           if offset < marks["acked"]} - held
                assert missing == set(), (shard.peer_id, follower_id, missing)
