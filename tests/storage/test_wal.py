"""Write-ahead log tests: framing, commit, replay, torn tails."""

import json
import os
import subprocess
import sys
import zlib

import pytest

from repro.errors import FaultInjectedError, WalCorruptionError
from repro.storage.wal import (
    REC_ALLOC,
    REC_FREE,
    REC_PAGE,
    WriteAheadLog,
    _HEADER_SIZE,
)


def _wal(tmp_path, name="wal.rwl", page_size=128):
    return WriteAheadLog(str(tmp_path / name), page_size=page_size)


def test_roundtrip_and_batch_grouping(tmp_path):
    wal = _wal(tmp_path)
    wal.append_alloc(0)
    wal.append_page(0, b"\x01" * 128)
    seq1 = wal.commit()
    wal.append_alloc(1)
    wal.append_free(0)
    seq2 = wal.commit()
    assert (seq1, seq2) == (1, 2)
    batches = wal.replay()
    assert [b.seq for b in batches] == [1, 2]
    assert batches[0].records == [
        (REC_ALLOC, 0, None), (REC_PAGE, 0, b"\x01" * 128)]
    assert batches[1].records == [(REC_ALLOC, 1, None), (REC_FREE, 0, None)]
    wal.close()


def test_commit_is_idempotent_when_clean(tmp_path):
    wal = _wal(tmp_path)
    wal.append_alloc(0)
    seq = wal.commit()
    end = os.path.getsize(wal.path)
    assert wal.commit() == seq  # nothing appended since: no new marker
    assert os.path.getsize(wal.path) == end
    wal.close()


def test_uncommitted_tail_is_truncated_on_replay(tmp_path):
    wal = _wal(tmp_path)
    wal.append_alloc(0)
    wal.commit()
    wal.append_alloc(1)  # never committed
    wal.close()

    reopened = _wal(tmp_path)
    batches = reopened.replay()
    assert [b.seq for b in batches] == [1]
    # the dangling record was truncated away
    end = os.path.getsize(reopened.path)
    reopened.append_alloc(2)
    reopened.commit()
    assert os.path.getsize(reopened.path) > end
    assert reopened.replay()[-1].records == [(REC_ALLOC, 2, None)]
    reopened.close()


def test_corrupt_frame_stops_the_scan(tmp_path):
    wal = _wal(tmp_path)
    wal.append_alloc(0)
    wal.commit()
    first_batch_end = os.path.getsize(wal.path)
    wal.append_page(1, b"\x02" * 128)
    wal.commit()
    wal.close()

    path = str(tmp_path / "wal.rwl")
    with open(path, "r+b") as fh:  # flip a byte inside the second batch
        fh.seek(first_batch_end + 12)
        byte = fh.read(1)
        fh.seek(first_batch_end + 12)
        fh.write(bytes([byte[0] ^ 0xFF]))

    reopened = _wal(tmp_path)
    assert [b.seq for b in reopened.replay()] == [1]
    assert os.path.getsize(path) == first_batch_end
    reopened.close()


def test_replay_upto_bounds_recovery(tmp_path):
    wal = _wal(tmp_path)
    for n in range(3):
        wal.append_alloc(n)
        wal.commit()
    batches = wal.replay(upto_seq=2)
    assert [b.seq for b in batches] == [1, 2]
    assert wal.last_seq == 2  # the excluded batch is rolled back
    wal.close()


def test_fail_append_at_tears_the_frame(tmp_path):
    wal = _wal(tmp_path)
    wal.append_alloc(0)
    wal.commit()
    wal.fail_append_at = wal.appends_seen
    with pytest.raises(FaultInjectedError) as exc:
        wal.append_alloc(1)
    assert exc.value.op == "wal-append"
    wal.close()

    reopened = _wal(tmp_path)
    assert [b.seq for b in reopened.replay()] == [1]  # torn frame dropped
    reopened.close()


def test_header_validation(tmp_path):
    wal = _wal(tmp_path)
    wal.close()
    with pytest.raises(WalCorruptionError, match="page size"):
        _wal(tmp_path, page_size=256)
    path = str(tmp_path / "wal.rwl")
    with open(path, "r+b") as fh:
        fh.write(b"XXXX")
    with pytest.raises(WalCorruptionError, match="bad WAL header"):
        _wal(tmp_path)


def test_reset_empties_the_log(tmp_path):
    wal = _wal(tmp_path)
    wal.append_page(0, b"\x03" * 128)
    wal.commit()
    wal.reset()
    assert os.path.getsize(wal.path) == _HEADER_SIZE
    assert wal.replay() == []
    wal.close()


def test_frame_crc_covers_type_and_payload(tmp_path):
    """The documented frame layout: u32 crc32(type+payload) | u32 len."""
    wal = _wal(tmp_path)
    wal.append_alloc(7)
    wal.commit()
    with open(wal.path, "rb") as fh:
        raw = fh.read()
    crc, length = (
        int.from_bytes(raw[_HEADER_SIZE:_HEADER_SIZE + 4], "little"),
        int.from_bytes(raw[_HEADER_SIZE + 4:_HEADER_SIZE + 8], "little"),
    )
    body = raw[_HEADER_SIZE + 8:_HEADER_SIZE + 8 + length]
    assert body == bytes([REC_ALLOC]) + (7).to_bytes(4, "little")
    assert crc == zlib.crc32(body)
    wal.close()


# The durability counters register lazily, in the process-global
# registry, so each probe runs in a fresh interpreter.
_REGISTRY_PROBE = """
import json
from repro.obs import get_registry
{body}
doc = get_registry().collect()
print(json.dumps(sorted(key for section in doc.values() for key in section)))
"""


def _durability_series(tmp_path, body):
    import repro

    env = {k: v for k, v in os.environ.items() if k != "REPRO_DATA_DIR"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _REGISTRY_PROBE.format(body=body)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    keys = json.loads(proc.stdout.splitlines()[-1])
    return [k for k in keys if k.startswith(("wal_", "checkpoint_"))]


def test_plain_build_and_query_registers_no_durability_series(tmp_path):
    assert _durability_series(tmp_path, """
from repro.bench.harness import dual_planner, queries_for
planner = dual_planner(60, "small", 2)
for query in queries_for(60, "small", "EXIST", 2, count=2):
    planner.query(query)
""") == []


def test_wal_mode_save_registers_durability_series(tmp_path):
    series = _durability_series(tmp_path, """
from repro.core import DualIndexPlanner, SlopeSet
from repro.storage import FileDisk, Pager, save_planner
from repro.workloads import make_relation
disk = FileDisk("engine", durability="wal")
planner = DualIndexPlanner.build(
    make_relation(60, "small", seed=1), SlopeSet.uniform_angles(2),
    pager=Pager(disk=disk))
save_planner(planner, "engine")
disk.close()
""")
    assert {"wal_appends", "wal_fsyncs", "checkpoint_pages"} <= set(series)
