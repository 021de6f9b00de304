"""ArchiveStore: blobs, cells, manifest healing."""

import gzip
import json
import os

import pytest

from repro.archive import Archive, ArchiveError, ArchiveStore, sha256_hex


def test_blob_round_trip_and_digest(tmp_path):
    store = ArchiveStore(tmp_path)
    data = b'{"hello": "world"}\n' * 100
    digest = store.put_blob(data)
    assert digest == sha256_hex(data)
    assert store.has_blob(digest)
    assert store.get_blob(digest) == data


def test_blobs_are_gzip_on_disk(tmp_path):
    store = ArchiveStore(tmp_path)
    data = b"x" * 10_000
    digest = store.put_blob(data)
    raw = store._blob_path(digest).read_bytes()
    assert raw[:2] == b"\x1f\x8b"
    assert len(raw) < len(data)
    assert gzip.decompress(raw) == data


def test_identical_blobs_deduplicate(tmp_path):
    store = ArchiveStore(tmp_path)
    d1 = store.put_blob(b"same payload")
    d2 = store.put_blob(b"same payload")
    assert d1 == d2
    objects = [
        p for p in (tmp_path / "objects").rglob("*") if p.is_file()
    ]
    assert len(objects) == 1


def test_corrupt_blob_fails_digest_check(tmp_path):
    store = ArchiveStore(tmp_path)
    digest = store.put_blob(b"precious data")
    path = store._blob_path(digest)
    path.write_bytes(gzip.compress(b"tampered"))
    with pytest.raises(ArchiveError, match="digest check"):
        store.get_blob(digest)


def test_missing_blob_raises(tmp_path):
    store = ArchiveStore(tmp_path)
    with pytest.raises(ArchiveError, match="missing blob"):
        store.get_blob("ab" * 32)


def test_named_cells(tmp_path):
    store = ArchiveStore(tmp_path)
    digest = "ab" * 32
    assert store.get_named(digest) == {}
    store.put_named(digest, {"findings|x|y": [1, 2, 3]})
    store.put_named(digest, {"meta|x|v": {"total_time": 1.5}})
    store.put_named(digest, {"findings|x|y": []})  # last write wins
    cells = {"findings|x|y": [], "meta|x|v": {"total_time": 1.5}}
    assert store.get_named(digest) == cells
    # one plain JSON object per trace, shared with every other store
    path = tmp_path / "cells" / "ab" / ("ab" * 31 + ".json")
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]
    assert json.loads(path.read_bytes()) == cells
    assert ArchiveStore(tmp_path).get_named(digest) == cells
    assert store.get_named("cd" * 32) == {}


def test_manifest_round_trip_and_last_wins(tmp_path):
    with ArchiveStore(tmp_path) as store:
        store.record_run("run-a", {"v": 1})
        store.record_run("run-b", {"v": 2})
        store.record_run("run-a", {"v": 3})  # re-archive supersedes
    manifest = ArchiveStore(tmp_path).load_manifest()
    assert list(manifest) == ["run-a", "run-b"]
    assert manifest["run-a"] == {"v": 3}


def test_manifest_heals_partial_tail(tmp_path):
    with ArchiveStore(tmp_path) as store:
        store.record_run("run-a", {"v": 1})
        store.record_run("run-b", {"v": 2})
    manifest_path = tmp_path / "manifest.jsonl"
    data = manifest_path.read_bytes()
    # Simulate a kill mid-append: cut the final record in half.
    manifest_path.write_bytes(data[: len(data) - 10])
    store = ArchiveStore(tmp_path)
    assert store.load_manifest() == {"run-a": {"v": 1}}
    # Appending after healing keeps the journal consistent.
    store.record_run("run-c", {"v": 3})
    store.close()
    assert list(ArchiveStore(tmp_path).load_manifest()) == [
        "run-a",
        "run-c",
    ]


def test_manifest_rejects_foreign_journal(tmp_path):
    (tmp_path / "manifest.jsonl").write_text(
        '{"format": "ats-checkpoint", "version": 1}\n'
    )
    with pytest.raises(ArchiveError, match="ats-archive-manifest"):
        ArchiveStore(tmp_path).load_manifest()


def _run_payload(i):
    return {
        "program": "late_sender",
        "seed": i,
        "trace_digest": f"{i:064x}",
        "final_time": 1.0,
    }


def _count_json_loads(monkeypatch):
    """Record every ``json.loads`` call: one per manifest line parsed."""
    calls = []
    loads = json.loads

    def counting(text, *args, **kwargs):
        calls.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    return calls


def test_resolve_parses_only_appended_records(tmp_path, monkeypatch):
    archive = Archive(tmp_path)
    for i in range(1000):
        archive.store.record_run(f"run{i:04d}", _run_payload(i))
    parses = _count_json_loads(monkeypatch)
    assert archive.resolve("run0500").seed == 500
    assert len(parses) == 1001  # the header and every record, once
    parses.clear()
    assert archive.resolve("run0999").seed == 999
    assert parses == []
    archive.store.record_run("run1000", _run_payload(1000))
    assert archive.resolve("run1000").seed == 1000
    assert len(parses) == 1


def test_second_archive_resolves_what_the_first_recorded(tmp_path):
    first, second = Archive(tmp_path), Archive(tmp_path)
    first.store.record_run("run-a", _run_payload(1))
    assert second.resolve("run-a").seed == 1
    first.store.record_run("run-b", _run_payload(2))
    first.store.record_run("run-a", _run_payload(3))
    assert second.resolve("run-b").seed == 2
    assert second.resolve("run-a").seed == 3  # the last record wins
    assert [r.run_id for r in second.history()] == ["run-a", "run-b"]


def test_incremental_manifest_equals_a_fresh_load(tmp_path):
    store = ArchiveStore(tmp_path)
    store.record_run("run-a", {"zeta": 1, "alpha": 2})
    first = store.load_manifest()
    store.record_run("run-b", {"v": 2})
    store.record_run("run-a", {"v": 3})
    again = store.load_manifest()
    fresh = ArchiveStore(tmp_path).load_manifest()
    assert again == fresh and list(again) == list(fresh)
    # payloads come from the journal (sorted keys), not the caller
    assert list(first["run-a"]) == ["alpha", "zeta"]
    # each call hands out its own mapping
    again.pop("run-b")
    assert list(store.load_manifest()) == ["run-a", "run-b"]


def test_torn_final_manifest_line_is_neither_returned_nor_skipped(
    tmp_path,
):
    store = ArchiveStore(tmp_path)
    store.record_run("run-a", {"v": 1})
    store.flush()
    assert list(store.load_manifest()) == ["run-a"]
    line = json.dumps({"key": "run-b", "payload": {"v": 2}}) + "\n"
    manifest_path = tmp_path / "manifest.jsonl"
    with open(manifest_path, "a") as fh:  # a writer mid-append
        fh.write(line[:-1])
    assert list(store.load_manifest()) == ["run-a"]
    with open(manifest_path, "a") as fh:  # ...completes its line
        fh.write("\n")
    assert store.load_manifest()["run-b"] == {"v": 2}


def test_replaced_or_rewritten_manifest_is_read_in_full(tmp_path):
    store = ArchiveStore(tmp_path)
    for run_id in ("run-a", "run-b", "run-c"):
        store.record_run(run_id, {"v": run_id})
    store.close()
    assert list(store.load_manifest()) == ["run-a", "run-b", "run-c"]
    manifest_path = tmp_path / "manifest.jsonl"
    lines = manifest_path.read_text().splitlines(keepends=True)
    manifest_path.write_text("".join(lines[:2]))  # shrunk in place
    assert list(store.load_manifest()) == ["run-a"]
    long_line = json.dumps({"key": "run-z", "payload": {"v": "z" * 99}})
    manifest_path.write_text(lines[0] + long_line + "\n")  # rewritten
    assert list(store.load_manifest()) == ["run-z"]
    replacement = tmp_path / "new.jsonl"
    replacement.write_text(lines[0] + lines[3] + lines[2] * 2)
    os.replace(replacement, manifest_path)  # replaced, and longer
    assert list(store.load_manifest()) == ["run-c", "run-b"]
