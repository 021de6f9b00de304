"""Content-addressed blob store + append-only run manifest.

The store is a directory::

    <root>/
      manifest.jsonl      append-only run journal (healed like a
                          resilience checkpoint: a partial final line
                          from a killed process is cut, never fatal)
      objects/ab/cdef...  gzip-compressed blobs

Blobs come in two flavours sharing one object directory:

* **content-addressed** (:meth:`put_blob`): named by the SHA-256 of
  the *uncompressed* payload, so identical traces deduplicate for free
  and the digest doubles as the trace's identity in cache keys;
* **key-addressed** (:meth:`put_named`): named by the SHA-256 of a
  caller-supplied key string -- how the incremental analysis cache
  finds a ``(trace digest, detector fingerprint)`` cell without any
  index file.

All blobs go through the deterministic gzip codec traces use
(:func:`repro.trace.io.gzip_bytes`, ``mtime=0``), so a trace blob
copied to a ``.jsonl.gz`` file *is* a readable trace.  Writes are
atomic (temp file + rename) so concurrent batch analysis never
exposes a half-written cell.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Optional, Union

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


class ArchiveStore:
    """One archive directory: blobs + the run manifest journal."""

    def __init__(self, root: Union[str, Path], fsync: bool = False):
        self.root = Path(root)
        self.objects = self.root / "objects"
        #: durable mode: blob temp files are fsync'd before the rename
        #: and manifest records before acknowledgment -- what the
        #: crash-safe analysis service runs with.
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
        path.parent.mkdir(parents=True, exist_ok=True)
        compressed = gzip_bytes(data)
        injector = _chaos_injector()
        if injector is not None:
            injector.blob_write(path, compressed)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".blob"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(compressed)
                if self.fsync:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
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
    # key-addressed cells (the analysis cache)
    # ------------------------------------------------------------------

    def put_named(self, key: str, data: bytes) -> str:
        """Store under the digest of ``key``; returns that digest."""
        digest = sha256_hex(key)
        self._write_blob(digest, data)
        return digest

    def get_named(self, key: str) -> Optional[bytes]:
        """Load a key-addressed cell, or None when absent."""
        path = self._blob_path(sha256_hex(key))
        try:
            return gunzip_bytes(path.read_bytes())
        except FileNotFoundError:
            return None

    def has_named(self, key: str) -> bool:
        return self._blob_path(sha256_hex(key)).exists()

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
