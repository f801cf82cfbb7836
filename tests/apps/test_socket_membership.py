"""Elastic membership on the socket fabric: a SocketMesh grows by one
shard, rebalances, and retires a shard that holds durable history and a
homed durable subscriber — with exactly-once delivery per durable cursor
across all three epochs and the leaver's route gone from every node."""

import os

import pytest

from repro.apps.tps import TpsPeer
from repro.apps.tps.procmesh import ProcessMesh, SocketMesh
from repro.apps.tps.topology import Topology
from repro.fixtures import person_assembly_pair, person_java

SUBSCRIBERS = 6


def publish(publisher, mesh, count, start):
    for index in range(start, start + count):
        target = mesh.shard_ids[index % len(mesh.shard_ids)]
        publisher.publish_async(target, publisher.new_instance(
            "demo.a.Person", ["e%d" % index]))
    mesh.run_until_idle()
    return start + count


def assert_exactly_once(got, upto):
    for cursor, events in got.items():
        delivered = [event.getPersonName() for event in events]
        assert sorted(delivered, key=lambda n: int(n[1:])) == \
            ["e%d" % i for i in range(upto)], cursor


def test_join_rebalance_and_leave_with_history(tmp_path):
    mesh = SocketMesh(topology=Topology.sized(3, "sm"),
                      log_root=str(tmp_path / "logs"), replication_factor=1)
    try:
        _join_rebalance_and_leave(mesh)
    finally:
        mesh.close()


def _join_rebalance_and_leave(mesh):
    clients = mesh.client_network("sm-clients")
    publisher = TpsPeer("publisher", clients)
    asm_a, _ = person_assembly_pair()
    publisher.host_assembly(asm_a)
    got = {}
    for index in range(SUBSCRIBERS):
        peer_id, cursor = "sub-%d" % index, "c-%d" % index
        got[cursor] = []
        TpsPeer(peer_id, clients).subscribe_durable_remote(
            mesh.shard_for(peer_id), person_java(), got[cursor].append,
            cursor=cursor)
    mesh.run_until_idle()
    upto = publish(publisher, mesh, 12, start=0)
    assert mesh.epoch == 1

    newcomer = mesh.add_shard().peer_id
    assert mesh.epoch == 2
    assert all(shard.epoch == 2 for shard in mesh.shards)
    upto = publish(publisher, mesh, 12, start=upto)

    moved = mesh.rebalance()
    assert moved["epoch"] == 2 and mesh.epoch == 2
    assert moved["moved"]  # some cursor re-homed onto the newcomer
    upto = publish(publisher, mesh, 12, start=upto)

    # Retire a shard (not the newcomer) that homes a durable cursor
    # and whose log holds records of its own.
    victim = next(shard for shard in mesh.shards
                  if shard.peer_id != newcomer
                  and any(name in shard.cursors for name in got))
    victim_id = victim.peer_id
    assert victim._replication_target() > 0
    mesh.remove_shard(victim_id)
    assert mesh.epoch == 3
    assert victim_id not in mesh.shard_ids
    assert all(shard.epoch == 3 for shard in mesh.shards)
    assert victim_id not in mesh.addresses
    for node in mesh.nodes + [clients]:
        assert victim_id not in node._routes, node.node_id

    upto = publish(publisher, mesh, 12, start=upto)
    assert_exactly_once(got, upto)


@pytest.mark.parametrize("runner", [SocketMesh, ProcessMesh])
def test_close_removes_only_its_own_socket_directory(tmp_path, runner):
    mesh = runner(topology=Topology.sized(2, "tmpdir"))
    made = mesh.sock_dir
    assert os.path.isdir(made)
    mesh.close()
    assert not os.path.exists(made)

    given = tmp_path / "socks"
    given.mkdir()
    mesh = runner(topology=Topology.sized(2, "tmpdir"), sock_dir=str(given))
    mesh.close()
    assert given.is_dir()
