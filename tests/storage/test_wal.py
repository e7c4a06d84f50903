"""Per-server write-ahead log tests (storage/wal.py).

The log is the commit FSM's durability substrate, so what matters is
byte-level: every record shape the FSM writes must round-trip through
``pack_record``/``unpack_record``, a torn tail (crash mid-append) must
be silently dropped rather than poison the replay, and the fsync
policy must match the mode (group commit batches, forced syncs don't).
"""

import marshal
import os
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._stats import folded, report
from repro.sim.codec import CodecError, pack_record, unpack_record
from repro.storage.wal import (APPEND_US, FSYNC_US, R_DECISION, R_END,
                               R_PREPARE, ROLE_COORDINATOR, ROLE_INNER,
                               ROLE_PARTICIPANT, RecoveryStats, WalSpec,
                               WriteAheadLog, as_wal_spec, replay_wal,
                               wal_path)

WRITES = (("update", "accounts", 7, {"balance": 12.5}),
          ("insert", "orders", (3, "x"), {"qty": 2}),
          ("delete", "orders", 9, None))

RECORDS = [
    (R_PREPARE, 501, ROLE_COORDINATOR, 0, ((0, WRITES), (2, WRITES[:1]))),
    (R_PREPARE, 501, ROLE_PARTICIPANT, 0, WRITES),
    (R_PREPARE, 777, ROLE_INNER, 1, WRITES[:2]),
    (R_DECISION, 501, True),
    (R_DECISION, 502, False),
    (R_END, 501),
]


# -- record codec -------------------------------------------------------------


@pytest.mark.parametrize("record", RECORDS)
def test_record_shapes_round_trip(record):
    assert unpack_record(pack_record(record)) == record


scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.integers(min_value=2 ** 63, max_value=2 ** 80),
    st.floats(allow_nan=False),
    st.text(max_size=16), st.binary(max_size=16),
)
values = st.one_of(
    scalars,
    st.dictionaries(st.text(max_size=8), scalars, max_size=4),
    st.tuples(scalars, scalars),
)
records = st.tuples(
    st.sampled_from([R_PREPARE, R_DECISION, R_END]),
    st.integers(min_value=1, max_value=2 ** 62),
    st.tuples(st.sampled_from(["update", "insert", "delete"]),
              st.text(max_size=12), scalars, values),
)


@settings(max_examples=150, deadline=None)
@given(record=records)
def test_arbitrary_records_round_trip(record):
    assert unpack_record(pack_record(record)) == record


def test_records_carry_no_interned_table_ids():
    """WAL files outlive the process that wrote them, so table names
    must ride as plain strings two different builds agree on."""
    body = pack_record((R_PREPARE, 1, ROLE_PARTICIPANT, 0, WRITES))
    assert b"accounts" in body and b"orders" in body


# -- the log file -------------------------------------------------------------


def make_wal(tmp_path, mode="fsync", **kw):
    spec = WalSpec(mode=mode, dir=str(tmp_path), **kw)
    return WriteAheadLog(wal_path(str(tmp_path), 0), spec)


def test_append_replay_round_trip(tmp_path):
    wal = make_wal(tmp_path)
    for record in RECORDS:
        wal.append(record)
    wal.close()
    assert replay_wal(wal.path) == RECORDS


def test_replay_survives_reopen_and_append(tmp_path):
    """A respawned process appends to its predecessor's log."""
    first = make_wal(tmp_path)
    first.append(RECORDS[0])
    first.close()
    second = make_wal(tmp_path)
    second.append(RECORDS[3])
    second.close()
    assert replay_wal(second.path) == [RECORDS[0], RECORDS[3]]


def test_torn_tail_is_dropped(tmp_path):
    wal = make_wal(tmp_path)
    for record in RECORDS[:3]:
        wal.append(record)
    wal.close()
    size = os.path.getsize(wal.path)
    with open(wal.path, "r+b") as fh:
        fh.truncate(size - 3)  # crash mid-append: short final record
    assert replay_wal(wal.path) == RECORDS[:2]


def test_garbage_tail_is_dropped(tmp_path):
    wal = make_wal(tmp_path)
    wal.append(RECORDS[0])
    wal.close()
    with open(wal.path, "ab") as fh:
        fh.write(b"\x06\x00\x00\x00halted")  # well-framed, undecodable
    assert replay_wal(wal.path) == [RECORDS[0]]


def test_replay_missing_file_is_empty():
    assert replay_wal("/nonexistent/server-0.wal") == []


# -- corrupt bytes: a typed error or a clean stop, never a wrong record -------


def frames(records):
    """The log bytes of ``records`` and the offset each frame ends at."""
    data, ends = b"", []
    for record in records:
        body = pack_record(record)
        data += len(body).to_bytes(4, "little") + body
        ends.append(len(data))
    return data, ends


def replay_bytes(data):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "server-0.wal")
        with open(path, "wb") as fh:
            fh.write(data)
        return replay_wal(path)


@settings(max_examples=25, deadline=None)
@given(logged=st.lists(records, min_size=1, max_size=4))
def test_truncation_at_every_offset_replays_the_whole_record_prefix(logged):
    data, ends = frames(logged)
    for offset in range(len(data) + 1):
        whole = sum(end <= offset for end in ends)
        assert replay_bytes(data[:offset]) == logged[:whole], offset


@pytest.mark.parametrize("victim", range(len(RECORDS) - 1))
def test_a_length_that_swallows_the_next_frame_stops_replay(victim):
    data, ends = frames(RECORDS)
    start = ends[victim - 1] if victim else 0
    swallowing = ends[victim + 1] - start - 4
    corrupt = (data[:start] + swallowing.to_bytes(4, "little")
               + data[start + 4:])
    assert replay_bytes(corrupt) == RECORDS[:victim]


@pytest.mark.parametrize("body", [
    b"", b"\x00", b"\x02", b"\x03" + bytes(8),         # shorter than a CRC
    pack_record((R_END, 1)) + b"\x00",                  # trailing bytes
    # records in the retired tagged-value format: a log an older build
    # wrote is refused, never misread
    b"\x09\x02\x00\x03\x03" + bytes(7) + b"\x03\x01" + bytes(7) + b"\x00",
    b"\x09\x01\x00\x05\xff\x00\x00\x00ab",              # str overruns body
    b"\x09\x01\x00\x08\x7f",                            # unknown atom
    b"\x09\x01\x00\x07\x03\x00\x00\x00abc",             # bad pickle blob
    b"\x09\x01\x00\x05\x02\x00\x00\x00\xff\xfe",        # bad utf-8
    b"\x09\x02\x00\x03",                                # truncated int
])
def test_malformed_record_bodies_raise_codec_error(body):
    with pytest.raises(CodecError):
        unpack_record(body)


def checked(payload: bytes) -> bytes:
    """``payload`` behind a CRC that matches it."""
    return zlib.crc32(payload).to_bytes(4, "little") + payload


@pytest.mark.parametrize("payload, error", [
    (marshal.dumps((R_END, 1)) + b"\x00", "ends before its last byte"),
    (marshal.dumps((R_END, "x" * 300)) + b"N", "ends before its last byte"),
    (marshal.dumps([R_END, 1]), "not a tuple"),
    (marshal.dumps((R_END, 1))[:-1], "undecodable"),
    (b"\x00", "undecodable"),
])
def test_checksummed_bodies_still_hold_exactly_one_tuple(payload, error):
    """Past the checksum, the body must be one marshalled tuple ending
    at its last byte."""
    with pytest.raises(CodecError, match=error):
        unpack_record(checked(payload))


def test_a_record_that_is_not_a_tuple_is_refused_at_pack():
    with pytest.raises(CodecError, match="tuple"):
        pack_record([R_END, 1])


def decodes_or_refuses(body):
    try:
        record = unpack_record(body)
    except CodecError:
        return
    assert type(record) is tuple


@settings(max_examples=300, deadline=None)
@given(body=st.binary(max_size=48))
def test_arbitrary_bytes_decode_to_a_tuple_or_raise_codec_error(body):
    decodes_or_refuses(body)


@settings(max_examples=300, deadline=None)
@given(record=st.sampled_from(RECORDS), data=st.data())
def test_bit_flipped_records_decode_to_a_tuple_or_raise_codec_error(
        record, data):
    body = bytearray(pack_record(record))
    for _ in range(data.draw(st.integers(1, 3))):
        bit = data.draw(st.integers(0, 8 * len(body) - 1))
        body[bit // 8] ^= 1 << (bit % 8)
    decodes_or_refuses(bytes(body))


def test_group_commit_batches_fsyncs(tmp_path):
    wal = make_wal(tmp_path, mode="group", group_size=4)
    for _ in range(8):
        wal.append((R_END, 1))
    assert wal.stats.wal_fsyncs == 2
    assert wal.stats.wal_appends == 8
    wal.close()


def test_forced_sync_overrides_group_mode(tmp_path):
    wal = make_wal(tmp_path, mode="group", group_size=100)
    wal.append((R_DECISION, 1, True), sync=True)
    assert wal.stats.wal_fsyncs == 1
    wal.close()


def test_fsync_mode_syncs_every_append(tmp_path):
    wal = make_wal(tmp_path, mode="fsync")
    for _ in range(3):
        wal.append((R_END, 1))
    assert wal.stats.wal_fsyncs == 3
    wal.close()


def test_append_cost_amortizes_group_fsync(tmp_path):
    spec = WalSpec(mode="group", dir=str(tmp_path), group_size=8)
    wal = WriteAheadLog(wal_path(str(tmp_path), 1), spec)
    assert wal.append_cost_us() == pytest.approx(APPEND_US + FSYNC_US / 8)
    assert wal.append_cost_us(sync=True) == pytest.approx(
        APPEND_US + FSYNC_US)
    wal.close()


# -- spec & stats -------------------------------------------------------------


def test_as_wal_spec_normalizes():
    assert not as_wal_spec("off").enabled
    assert as_wal_spec("group").mode == "group"
    with pytest.raises(ValueError, match="unknown wal mode"):
        as_wal_spec("paranoid")


def test_recovery_stats_merge():
    a = RecoveryStats(wal_mode="group", wal_appends=3, wal_fsyncs=1,
                      wal_bytes=90, recoveries=1, txns_redone=2)
    b = RecoveryStats(in_doubt_resolved=1, controller_failovers=2)
    total = folded(RecoveryStats, [a, b])
    assert total.wal_mode == "group"
    assert total.wal_appends == 3
    assert total.txns_redone == 2
    assert total.in_doubt_resolved == 1
    assert total.controller_failovers == 2
    assert total.any_activity
    assert report(total)["recoveries"] == 1
    assert not RecoveryStats().any_activity
