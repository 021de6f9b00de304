"""Gzip-compressed traces: writer suffix, reader auto-detect, salvage."""

import gzip

import pytest

from repro.trace import (
    TraceFormatError,
    TraceRecorder,
    read_trace,
    write_trace,
)
from repro.trace.events import Location
from repro.trace.io import (
    events_to_jsonl,
    gunzip_bytes,
    gzip_bytes,
    is_gzip_bytes,
)


def _record_some(rec: TraceRecorder, n: int = 4) -> None:
    loc = Location(0, 0)
    for i in range(n):
        rec.enter(float(i), loc, f"r{i}")
    for i in reversed(range(n)):
        rec.exit(float(n + i), loc, f"r{i}")


def test_gz_suffix_writes_gzip(tmp_path):
    rec = TraceRecorder()
    _record_some(rec)
    path = tmp_path / "t.jsonl.gz"
    write_trace(path, rec.events, metadata={"program": "x"})
    assert is_gzip_bytes(path.read_bytes())
    events, metadata = read_trace(path)
    assert len(events) == len(rec.events)
    assert metadata == {"program": "x"}
    assert [e.to_dict() for e in events] == [
        e.to_dict() for e in rec.events
    ]


def test_reader_detects_gzip_regardless_of_name(tmp_path):
    rec = TraceRecorder()
    _record_some(rec)
    # gzip content under a plain .jsonl name still reads.
    path = tmp_path / "misnamed.jsonl"
    path.write_bytes(
        gzip_bytes(events_to_jsonl(rec.events).encode("utf-8"))
    )
    events, _ = read_trace(path)
    assert len(events) == len(rec.events)


def test_plain_and_gzip_traces_have_identical_payload(tmp_path):
    rec = TraceRecorder()
    _record_some(rec)
    plain = tmp_path / "t.jsonl"
    packed = tmp_path / "t.jsonl.gz"
    write_trace(plain, rec.events)
    write_trace(packed, rec.events)
    assert gunzip_bytes(packed.read_bytes()) == plain.read_bytes()


def test_gzip_compression_is_deterministic():
    payload = b"same trace bytes, every time\n" * 50
    assert gzip_bytes(payload) == gzip_bytes(payload)
    # mtime is pinned: no timestamp leaks into the stream
    assert gzip_bytes(payload)[4:8] == b"\x00\x00\x00\x00"


def test_gzip_writer_output_independent_of_destination(tmp_path):
    # Neither mtime nor the destination filename may leak into the
    # stream: the same events under different paths are byte-identical
    # (this is what lets archive digests dedupe identical runs).
    rec = TraceRecorder()
    _record_some(rec)
    a = tmp_path / "first.jsonl.gz"
    b = tmp_path / "second.jsonl.gz"
    write_trace(a, rec.events)
    write_trace(b, rec.events)
    assert a.read_bytes() == b.read_bytes()


def test_truncated_gzip_salvages(tmp_path):
    rec = TraceRecorder()
    _record_some(rec, n=50)
    path = tmp_path / "t.jsonl.gz"
    write_trace(path, rec.events)
    data = path.read_bytes()
    # Cut mid-stream: the deflate tail and CRC are gone.
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TraceFormatError, match="truncated gzip"):
        read_trace(path)
    events, metadata = read_trace(path, salvage=True)
    assert metadata.get("truncated") is True
    assert 0 < len(events) < len(rec.events)


def test_gz_trace_and_archive_share_one_codec(tmp_path):
    # A .jsonl.gz trace file is exactly the archive's blob encoding:
    # one encoder, one deterministic gzip.
    rec = TraceRecorder()
    _record_some(rec)
    meta = {"program": "x", "seed": 0}
    path = tmp_path / "t.jsonl.gz"
    write_trace(path, rec.events, meta)
    assert path.read_bytes() == gzip_bytes(
        events_to_jsonl(rec.events, meta).encode("utf-8")
    )
