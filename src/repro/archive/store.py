"""Content-addressed blob store, per-trace cache cells, run manifest.

The store is a directory::

    <root>/
      manifest.jsonl      append-only run journal (healed like a
                          resilience checkpoint: a partial final line
                          from a killed process is cut, never fatal)
      objects/ab/cdef...  gzip-compressed trace blobs
      cells/ab/cdef....json
                          one trace's cache cells, one JSON object

Trace blobs (:meth:`put_blob`) are named by the SHA-256 of the
*uncompressed* payload, so identical traces deduplicate for free and
the digest doubles as the trace's identity in cache keys.  They go
through the deterministic gzip codec traces use
(:func:`repro.trace.io.gzip_bytes`, ``mtime=0``), so a blob copied to a
``.jsonl.gz`` file *is* a readable trace.

Cache cells (:meth:`put_named`, :meth:`get_named`) are what the
incremental analysis cache and the dataset export derive from a trace:
one file per trace digest holding ``{cell key: JSON payload}``.  A
trace's cells are read with one ``json.loads`` and replaced in one
write.  Archives written before this layout kept one gzip object per
cell key under ``objects/``; those are no longer read (the first
analyze recomputes the cells) and stay on disk.

Every file is written atomically (temp file in the same directory,
then ``os.replace``), so no reader sees a half-written blob or cell
file.  In durable mode trace blobs and manifest records are fsync'd;
cell files never are: they are derived data, and one lost to a crash
reads as a miss and is recomputed from the digest-checked blob.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..obs.instruments import archive_metrics
from ..resilience.checkpoint import CheckpointError, CheckpointJournal
from ..trace.io import gunzip_bytes, gzip_bytes

MANIFEST_FORMAT = "ats-archive-manifest"


def _chaos_injector():
    """The installed host-fault injector, or None (see chaos.inject)."""
    mod = sys.modules.get("repro.chaos.inject")
    return None if mod is None else mod.active()


class ArchiveError(Exception):
    """A structural problem with an archive (missing blob, bad root)."""


def sha256_hex(data: Union[str, bytes]) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def canonical_json(obj) -> str:
    """Stable serialization for identities and fingerprints."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _atomic_write(path: Path, data: bytes, fsync: bool) -> None:
    """Replace ``path`` with ``data``: a temp file beside it, then a rename.

    The chaos injector's ``blob_write`` site is consulted first, so an
    injected fault leaves neither a temp file nor a partial ``path``.
    """
    injector = _chaos_injector()
    if injector is not None:
        injector.blob_write(path, data)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ArchiveStore:
    """One archive directory: blobs, cache cells, the run manifest."""

    def __init__(self, root: Union[str, Path], fsync: bool = False):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.cells = self.root / "cells"
        #: durable mode: blob temp files are fsync'd before the rename
        #: and manifest records before acknowledgment -- what the
        #: crash-safe analysis service runs with.  Cell files are not.
        self.fsync = fsync
        self._manifest = CheckpointJournal(
            self.root / "manifest.jsonl", fmt=MANIFEST_FORMAT,
            fsync=fsync,
        )
        #: queued ``(run_id, payload)`` records while deferred (see
        #: :meth:`begin_deferred`); ``None`` means write-through.
        self._deferred: Optional[list] = None
        #: serializes manifest appends/reads: blob writes are already
        #: atomic-rename safe under concurrency, but the journal is one
        #: shared buffered fd, and the analysis service records runs
        #: from multiple worker threads at once.
        self._manifest_lock = threading.Lock()
        #: serializes each cell file's read, merge and replace, so two
        #: threads adding cells to one trace keep both sets.
        self._cells_lock = threading.Lock()

    # ------------------------------------------------------------------
    # blobs
    # ------------------------------------------------------------------

    def _blob_path(self, digest: str) -> Path:
        return self.objects / digest[:2] / digest[2:]

    def _write_blob(self, digest: str, data: bytes) -> bool:
        """Compress and atomically store; False when already present."""
        path = self._blob_path(digest)
        if path.exists():
            return False
        compressed = gzip_bytes(data)
        _atomic_write(path, compressed, self.fsync)
        metrics = archive_metrics()
        if metrics is not None:
            metrics.blob_bytes.inc(len(compressed))
        return True

    def put_blob(self, data: bytes) -> str:
        """Store content-addressed; returns the payload digest."""
        digest = sha256_hex(data)
        self._write_blob(digest, data)
        return digest

    def has_blob(self, digest: str) -> bool:
        return self._blob_path(digest).exists()

    def get_blob(self, digest: str) -> bytes:
        """Load and decompress a content-addressed blob."""
        path = self._blob_path(digest)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            raise ArchiveError(
                f"archive {self.root}: missing blob {digest[:12]}"
            ) from None
        data = gunzip_bytes(raw)
        if sha256_hex(data) != digest:
            raise ArchiveError(
                f"archive {self.root}: blob {digest[:12]} fails its "
                "digest check (corrupt object)"
            )
        return data

    # ------------------------------------------------------------------
    # cache cells: one file per trace (the analysis cache)
    # ------------------------------------------------------------------

    def _cells_path(self, trace_digest: str) -> Path:
        return self.cells / trace_digest[:2] / f"{trace_digest[2:]}.json"

    def get_named(self, trace_digest: str) -> Dict[str, Any]:
        """Every cached cell of one trace: ``{cell key: payload}``.

        A missing, empty, torn or unparsable file, or one that is not
        a JSON object, reads as no cells: each lookup misses and the
        next :meth:`put_named` rewrites the file.
        """
        try:
            cells = json.loads(self._cells_path(trace_digest).read_bytes())
        except (FileNotFoundError, ValueError):
            return {}
        return cells if isinstance(cells, dict) else {}

    def put_named(self, trace_digest: str, cells: Dict[str, Any]) -> None:
        """Merge ``cells`` into one trace's cell file, replacing it.

        The file is read again under the store's cell lock, so cells
        another thread (or an earlier process) added since the
        caller's own read survive.  It is never fsync'd: a crash, or
        two processes racing, can lose a cell, which is then
        recomputed, but never leaves a wrong one.
        """
        path = self._cells_path(trace_digest)
        with self._cells_lock:
            merged = self.get_named(trace_digest)
            merged.update(cells)
            data = canonical_json(merged).encode("utf-8")
            _atomic_write(path, data, fsync=False)

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------

    def record_run(self, run_id: str, payload: dict) -> None:
        """Append one run record (flushed immediately, kill-safe).

        In deferred mode the record is queued instead of written --
        see :meth:`begin_deferred`.
        """
        if self._deferred is not None:
            self._deferred.append([run_id, payload])
            return
        with self._manifest_lock:
            self._manifest.record(run_id, payload)

    def begin_deferred(self) -> None:
        """Queue manifest records in memory instead of writing them.

        Blob writes are fork-safe -- atomic (temp file + rename) and
        content-addressed, so concurrent children storing the same
        trace race benignly.  The manifest journal is *not*: it is a
        shared append-only fd, and forked children each inherit a copy
        whose buffered appends would interleave or duplicate.  A forked
        sweep therefore flips its child-side archive into deferred
        mode: children write blobs directly but queue manifest records,
        ship them home on the result envelope
        (:meth:`drain_deferred`), and the parent replays them through
        its own journal in a single writer.
        """
        if self._deferred is None:
            self._deferred = []

    def drain_deferred(self) -> list:
        """Return and clear the queued records (JSON-safe pairs).

        The store stays in deferred mode; each ``[run_id, payload]``
        pair is meant to be replayed with :meth:`record_run` on the
        parent's store.
        """
        if self._deferred is None:
            return []
        drained = self._deferred
        self._deferred = []
        return drained

    def load_manifest(self) -> Dict[str, dict]:
        """``run_id -> payload`` in first-recorded order (last wins).

        A partial final line (killed writer) is healed away exactly
        like a resilience checkpoint; deeper corruption raises
        :class:`ArchiveError`.  The journal keeps what it parsed, so
        each call parses only the records appended since the last one
        (:meth:`CheckpointJournal.load`); the payloads are shared
        between calls and are read-only.
        """
        try:
            with self._manifest_lock:
                return self._manifest.load()
        except CheckpointError as exc:
            raise ArchiveError(str(exc)) from exc

    def flush(self) -> None:
        """Force buffered manifest records to disk (drain/shutdown)."""
        with self._manifest_lock:
            self._manifest.flush()

    def close(self) -> None:
        self._manifest.close()

    def __enter__(self) -> "ArchiveStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
