"""Round-trip property tests for the wire codec (sim/codec.py).

Every descriptor kind the transaction layer registers must encode to a
picklable spec and decode to an *equivalent* op: executing the decoded
descriptor against an identical database produces the identical result
(and the identical store mutations, verified by running the follow-up
ops).  Unpicklable payloads must fail loudly, naming the offending
effect — never ship half a closure and hang a worker.
"""

import pickle

import pytest

from repro.bench.conformance import build_conformance_run, conformance_config
from repro.sim import CodecError, OpDescriptor, decode_op, encode_op
from repro.sim.codec import OP_HANDLERS, dumps
from repro.storage import LockMode
from repro.txn.executor import (_lock_insert_op, _lock_read_op,
                                _plain_read_op, _replica_apply_op)
from repro.placement.migration import _lease_acquire_op
from repro.txn.commit_fsm import (_commit_op, _decision_op, _prepare_op,
                                  _recover_query_op, _release_op)
from repro.txn.occ import _validate_read_op, _validate_write_op


@pytest.fixture
def twin_dbs():
    """Two independently built but identical databases."""
    def build():
        return build_conformance_run(conformance_config("sim")).database
    return build(), build()


def roundtrip(desc: OpDescriptor) -> OpDescriptor:
    """encode -> pickle -> decode, as a real transport would."""
    spec = encode_op(desc, desc.partition, desc.kind)
    decoded = decode_op(pickle.loads(pickle.dumps(spec)))
    assert decoded == desc, "wire round trip must preserve the spec"
    return decoded


def run_twin(desc: OpDescriptor, db_a, db_b):
    """Run the original on A and the round-tripped copy on B."""
    direct = desc()
    wired = roundtrip(desc).bind(db_b.dispatch_context)()
    assert wired == direct
    return direct


KEY = 1
TXN = 7001


def test_lock_read_insert_commit_release_round_trip(twin_dbs):
    """The 2PL verb sequence behaves identically through the wire."""
    db_a, db_b = twin_dbs
    pid = db_a.partition_of("accounts", KEY)

    status = run_twin(_lock_read_op(db_a, pid, "accounts", KEY,
                                    LockMode.EXCLUSIVE, TXN), db_a, db_b)
    assert status[0] == "ok"
    # the lock really took on both sides: a second owner conflicts
    conflict = run_twin(_lock_read_op(db_a, pid, "accounts", KEY,
                                      LockMode.EXCLUSIVE, TXN + 1),
                        db_a, db_b)
    assert conflict == ("conflict",)

    run_twin(_plain_read_op(db_a, pid, "accounts", KEY), db_a, db_b)

    missing = run_twin(_lock_read_op(db_a, pid, "accounts", "no-such-key",
                                     LockMode.SHARED, TXN), db_a, db_b)
    assert missing == ("missing",)

    writes = [("update", "accounts", KEY, {"balance": 42.0}),
              ("insert", "accounts", 9000, {"balance": 1.0})]
    versions = run_twin(_commit_op(db_a, pid, writes, TXN), db_a, db_b)
    assert (("accounts", KEY), 1) in versions  # load=v0, update -> v1
    assert db_a.store(pid).read("accounts", KEY)[0]["balance"] == 42.0
    assert db_b.store(pid).read("accounts", KEY)[0]["balance"] == 42.0

    run_twin(_release_op(db_a, pid, TXN + 1), db_a, db_b)
    # and the insert is now readable on both sides
    assert run_twin(_plain_read_op(db_a, pid, "accounts", 9000),
                    db_a, db_b)[0] == "ok"


def test_lock_insert_and_duplicate_round_trip(twin_dbs):
    db_a, db_b = twin_dbs
    pid = db_a.partition_of("accounts", 9100)
    assert run_twin(_lock_insert_op(db_a, pid, "accounts", 9100, TXN),
                    db_a, db_b) == ("ok",)
    key_pid = db_a.partition_of("accounts", KEY)
    dup = run_twin(_lock_insert_op(db_a, key_pid, "accounts", KEY, TXN),
                   db_a, db_b)
    assert dup == ("duplicate",)


def test_validate_ops_round_trip(twin_dbs):
    db_a, db_b = twin_dbs
    pid = db_a.partition_of("accounts", KEY)
    version = db_a.store(pid).version_of("accounts", KEY)

    assert run_twin(_validate_read_op(db_a, pid, "accounts", KEY, TXN,
                                      version), db_a, db_b) == "ok"
    assert run_twin(_validate_read_op(db_a, pid, "accounts", KEY, TXN,
                                      version + 5), db_a, db_b) == "stale"
    assert run_twin(_validate_write_op(db_a, pid, "accounts", KEY, TXN,
                                       version, is_insert=False),
                    db_a, db_b) == "ok"
    assert run_twin(_validate_write_op(db_a, pid, "accounts", KEY,
                                       TXN + 1, version,
                                       is_insert=False),
                    db_a, db_b) == "conflict"


def test_replica_apply_round_trip(twin_dbs):
    db_a, db_b = twin_dbs
    pid = db_a.partition_of("accounts", KEY)
    (rserver,) = db_a.replicas.replica_servers(pid)
    shipped = (("update", "accounts", KEY, {"balance": 7.0}),)
    run_twin(_replica_apply_op(db_a, rserver, pid, shipped), db_a, db_b)
    for db in (db_a, db_b):
        fields, _v = db.replicas.store_on(rserver, pid).read("accounts",
                                                             KEY)
        assert fields["balance"] == 7.0


def test_migrate_ops_round_trip(twin_dbs):
    """Live migration's install/remove verbs behave identically wired."""
    db_a, db_b = twin_dbs
    src = db_a.partition_of("accounts", KEY)
    dst = (src + 1) % db_a.n_partitions
    fields, version = db_a.store(src).read("accounts", KEY)

    install = OpDescriptor("migrate_install", dst, "accounts", KEY,
                           (fields, version + 3)).bind(db_a.dispatch_context)
    assert run_twin(install, db_a, db_b) == "ok"
    for db in (db_a, db_b):
        assert db.store(dst).read("accounts", KEY) == (fields, version + 3)
    # a re-install (a key migrating back) overwrites in place, version too
    assert run_twin(OpDescriptor(
        "migrate_install", dst, "accounts", KEY,
        ({"balance": 5.0}, 9)).bind(db_a.dispatch_context), db_a, db_b) == "ok"
    assert db_b.store(dst).read("accounts", KEY) == ({"balance": 5.0}, 9)

    remove = OpDescriptor("migrate_remove", src, "accounts", KEY,
                          (TXN,)).bind(db_a.dispatch_context)
    assert run_twin(remove, db_a, db_b) == "ok"
    for db in (db_a, db_b):
        assert db.store(src).read("accounts", KEY) is None


def test_two_phase_commit_verbs_round_trip(twin_dbs):
    """The commit FSM's prepare/decision verbs behave identically
    through the wire: the stash fills, the decision applies and
    releases, on both the direct and the round-tripped side."""
    db_a, db_b = twin_dbs
    pid = db_a.partition_of("accounts", KEY)
    coordinator = (pid + 1) % db_a.n_partitions
    writes = (("update", "accounts", KEY, {"balance": 3.0}),)

    assert run_twin(_prepare_op(db_a, pid, writes, TXN, coordinator),
                    db_a, db_b) == ("ok",)
    for db in (db_a, db_b):
        assert TXN in db.commit_table.in_doubt_txns()

    run_twin(_decision_op(db_a, pid, TXN, True), db_a, db_b)
    for db in (db_a, db_b):
        assert db.store(pid).read("accounts", KEY)[0]["balance"] == 3.0
        assert not db.commit_table.stashed_entries()


def test_recover_query_round_trip(twin_dbs):
    """Presumed abort over the wire: unknown txns answer 'unknown',
    decided txns answer their recorded verdict."""
    db_a, db_b = twin_dbs
    pid = db_a.partition_of("accounts", KEY)
    assert run_twin(_recover_query_op(db_a, pid, 424242),
                    db_a, db_b) == ("unknown",)
    for db in (db_a, db_b):
        db.commit_table.record_decision(424242, True)
        db.commit_table.record_decision(424243, False)
    assert run_twin(_recover_query_op(db_a, pid, 424242),
                    db_a, db_b) == ("committed",)
    assert run_twin(_recover_query_op(db_a, pid, 424243),
                    db_a, db_b) == ("aborted",)


def test_lease_acquire_round_trip(twin_dbs):
    """Controller-election lease grants behave identically wired:
    vacancy and expiry grant, a live rival is refused."""
    db_a, db_b = twin_dbs
    assert run_twin(_lease_acquire_op(db_a, 0, 1, 0.0, 100.0),
                    db_a, db_b) == ("granted", None)
    assert run_twin(_lease_acquire_op(db_a, 0, 1, 50.0, 100.0),
                    db_a, db_b) == ("granted", 1)  # renewal
    assert run_twin(_lease_acquire_op(db_a, 0, 2, 60.0, 100.0),
                    db_a, db_b) == ("held", 1)     # rival inside ttl
    assert run_twin(_lease_acquire_op(db_a, 0, 2, 200.0, 100.0),
                    db_a, db_b) == ("granted", 1)  # ttl lapsed: failover


def test_every_registered_kind_is_exercised():
    """A new verb kind must come with a round-trip test above."""
    assert set(OP_HANDLERS) == {
        "lock_read", "plain_read", "lock_insert", "commit", "release",
        "validate_write", "validate_read", "replica_apply",
        "migrate_install", "migrate_remove",
        "prepare", "decision", "recover_query", "lease_acquire"}


# -- failure modes -----------------------------------------------------------


def test_encoding_a_raw_closure_names_the_effect():
    with pytest.raises(CodecError) as err:
        encode_op(lambda: 1, 3, "lock_read")
    assert "1 one-sided verb(s) (kind='lock_read') to server 3" in str(
        err.value)
    assert "process boundary" in str(err.value)


def test_dumps_unpicklable_payload_names_the_effect():
    with pytest.raises(CodecError) as err:
        dumps(lambda: 1, what="Rpc(kind='chiller_inner', ...) to server 2")
    assert "Rpc(kind='chiller_inner', ...) to server 2" in str(err.value)


def test_unbound_descriptor_refuses_to_execute():
    desc = OpDescriptor("plain_read", 0, "accounts", 1)
    with pytest.raises(CodecError, match="unbound"):
        desc()


def test_unknown_kind_refuses_to_dispatch(twin_dbs):
    db_a, _ = twin_dbs
    desc = OpDescriptor("warp_drive", 0).bind(db_a.dispatch_context)
    with pytest.raises(CodecError, match="warp_drive"):
        desc()


def test_pickled_descriptor_arrives_unbound(twin_dbs):
    db_a, _ = twin_dbs
    pid = db_a.partition_of("accounts", KEY)
    desc = _plain_read_op(db_a, pid, "accounts", KEY)
    clone = pickle.loads(pickle.dumps(desc))
    assert clone == desc
    with pytest.raises(CodecError, match="unbound"):
        clone()  # the receiving process must bind its own context


def test_wire_pickle_protocol_is_pinned_and_asserted():
    """Every wire frame must carry the pinned (highest) protocol: the
    two-byte pickle preamble is \\x80 <proto>."""
    import pickle

    from repro.sim.codec import WIRE_PICKLE_PROTOCOL, WireVerbs, dumps

    assert WIRE_PICKLE_PROTOCOL == pickle.HIGHEST_PROTOCOL
    frame = dumps(WireVerbs(1, (("lock_read", 0, "t", 1, ()),), False),
                  "a test envelope")
    assert frame[0] == 0x80
    assert frame[1] == WIRE_PICKLE_PROTOCOL
    wire = pickle.loads(frame)
    assert wire.token == 1 and wire.batched is False
