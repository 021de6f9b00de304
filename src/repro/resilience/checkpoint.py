"""Append-only JSONL checkpoint journal for supervised sweeps.

One line per completed cell, written (and flushed) the moment the cell
finishes, so a killed sweep loses at most the cell that was in flight.
The format is deliberately dumb:

* line 1 -- a header record ``{"format": "ats-checkpoint", ...}``,
  with the digest of the sweep settings when the sweep bound one
  (:meth:`CheckpointJournal.bind_settings`),
* every further line -- ``{"key": <cell key>, "payload": {...}}``.

``load()`` tolerates exactly the corruption a kill can produce: a
partial JSON tail on the *final* line (the write that was interrupted)
is discarded; corruption anywhere else is a real error and raises.
Duplicate keys keep the last record, so re-running a cell simply
supersedes its earlier outcome.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Dict, Optional, Union

_FORMAT = "ats-checkpoint"
_VERSION = 1


def _chaos_injector():
    """The installed host-fault injector, or None.

    Looked up through ``sys.modules`` so the resilience layer never
    imports :mod:`repro.chaos`: unless a chaos harness explicitly
    installed an injector, this is one dict probe and a ``None``.
    """
    mod = sys.modules.get("repro.chaos.inject")
    return None if mod is None else mod.active()


class CheckpointError(Exception):
    """The journal is corrupt beyond the tolerated partial tail, or was
    written under other sweep settings than the ones resuming it."""


class CheckpointJournal:
    """Durable per-cell outcome journal (see module docstring).

    ``fmt`` names the journal format in the header line; other
    subsystems reuse the healing/append machinery under their own
    format name (the archive manifest is ``ats-archive-manifest``),
    and a journal refuses to load a file of a different format.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fmt: str = _FORMAT,
        fsync: bool = False,
    ):
        self.path = Path(path)
        self.fmt = fmt
        #: with ``fsync`` the journal survives power loss, not just
        #: process death: every record is fdatasync'd before the write
        #: is considered acknowledged.
        self.fsync = fsync
        self._fh = None
        #: set when a failed append could not be rolled back; further
        #: appends would corrupt the file mid-stream, so they refuse.
        self._broken = False
        #: digest of the sweep settings the journaled cells were
        #: computed under: read from the header by :meth:`load`,
        #: written into a fresh header (see :meth:`bind_settings`).
        self.settings: Optional[str] = None
        self._forget(None)

    # ------------------------------------------------------------------
    # reading (resume)
    # ------------------------------------------------------------------

    def load(self) -> Dict[str, dict]:
        """Return ``key -> payload`` for every journaled cell.

        Missing file means a fresh sweep: an empty mapping.  A partial
        final line (interrupted write) is silently dropped.

        The parsed records are kept with the byte offset of the last
        line consumed, so the next call parses only what was appended
        since, by any writer: this journal, another journal on the same
        file, or another process.  A file that was replaced, or that no
        longer ends a line at that offset (it shrank or was rewritten),
        is read again in full.  Each call returns a new dict; its
        payloads are shared between calls and must not be mutated.
        """
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            self._forget(None)
            return {}
        with fh:
            stat = os.fstat(fh.fileno())
            identity = (stat.st_dev, stat.st_ino)
            if identity != self._identity:
                self._forget(identity)
            start = self._consumed
            fh.seek(max(start - 1, 0))
            data = fh.read()
            if start:
                if data[:1] == b"\n":
                    data = data[1:]
                else:  # shrunk or rewritten: the offset ends no line
                    self._forget(identity)
                    fh.seek(0)
                    data = fh.read()
        self._consume(data)
        if self._header is not None:
            self.settings = self._header.get("settings")
        return dict(self._done)

    def _forget(self, identity) -> None:
        """Drop the parsed state; the next read starts at byte 0."""
        #: ``(st_dev, st_ino)`` of the file the state below was read from
        self._identity = identity
        self._header: Optional[dict] = None
        self._done: Dict[str, dict] = {}
        #: bytes and lines parsed so far
        self._consumed = 0
        self._lines = 0

    def _consume(self, data: bytes) -> None:
        """Parse the complete lines of ``data``, the bytes past the offset.

        A final line without its newline was never acknowledged: it is
        not consumed, even when its JSON is complete (the cut
        ``_heal_partial_tail`` makes before appending).  A corrupt
        final *complete* line is an interrupted write: it is not
        consumed either, and raises once more lines follow it.
        """
        end = data.rfind(b"\n") + 1
        pos = 0
        while pos < end:
            stop = data.index(b"\n", pos) + 1
            line = data[pos:stop]
            lineno = self._lines + 1
            if lineno == 1:
                try:
                    header = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CheckpointError(
                        f"{self.path}:1: corrupt checkpoint header"
                    ) from exc
                if header.get("format") != self.fmt:
                    raise CheckpointError(
                        f"{self.path}: not an {self.fmt} journal"
                    )
                self._header = header
            elif line.strip():
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    if stop == end:
                        return  # interrupted final write; the cell re-runs
                    raise CheckpointError(
                        f"{self.path}:{lineno}: corrupt checkpoint record"
                    ) from None
                if "key" not in record or "payload" not in record:
                    raise CheckpointError(
                        f"{self.path}:{lineno}: malformed checkpoint record"
                    )
                self._done[record["key"]] = record["payload"]
            self._lines = lineno
            self._consumed += stop - pos
            pos = stop

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def _open(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                self._heal_partial_tail()
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._fh = open(self.path, "a", encoding="utf-8")
            if fresh:
                header = {"format": self.fmt, "version": _VERSION}
                if self.settings is not None:
                    header["settings"] = self.settings
                self._fh.write(json.dumps(header) + "\n")
                self._fh.flush()
        return self._fh

    def bind_settings(self, settings: dict) -> None:
        """Tie the journal to the settings of the sweep using it.

        ``settings`` (JSON-able) holds what changes a cell's result but
        not its key: cell keys name only what varies between a sweep's
        cells, so a journal resumed under, say, another program size
        would replay cells computed at the old one.  A journal whose
        header (read by :meth:`load`) records a different digest of
        them therefore refuses with :class:`CheckpointError`; a fresh
        journal writes the digest into its header.  Journals written
        before headers carried a digest still resume.
        """
        text = json.dumps(settings, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        if self.settings is not None and self.settings != digest:
            raise CheckpointError(
                f"{self.path}: checkpoint was written under other sweep "
                "settings; resume with the original settings or start "
                "a fresh checkpoint"
            )
        self.settings = digest

    def _heal_partial_tail(self) -> None:
        """Cut an interrupted final write before appending after it.

        Without this, the first append of a resumed sweep would glue
        its record onto the partial line, corrupting both.  ``load()``
        already ignores the partial tail, so cutting it loses nothing.
        """
        data = self.path.read_bytes()
        if data and not data.endswith(b"\n"):
            cut = data.rfind(b"\n") + 1
            with open(self.path, "r+b") as fh:
                fh.truncate(cut)

    def record(self, key: str, payload: dict) -> None:
        """Append one completed cell and flush it to the OS immediately.

        With :attr:`fsync` the record is also forced to stable storage
        before returning, so a caller that acknowledges work *after*
        ``record()`` never acknowledges something a crash can lose.

        A failed write (disk error, injected chaos fault) is **rolled
        back**: the file is truncated to its pre-record length, so a
        journal that keeps running after an IO error never buries a
        torn record mid-file -- the one corruption shape ``load()``
        cannot heal.  The exception then propagates (the record is not
        acknowledged).  If even the rollback fails, the journal marks
        itself broken and refuses further appends, keeping the torn
        record on the final line where tail healing handles it.
        """
        if self._broken:
            raise CheckpointError(
                f"{self.path}: journal is broken after an unrolled-"
                "back write failure; refusing to append"
            )
        line = (
            json.dumps({"key": key, "payload": payload}, sort_keys=True)
            + "\n"
        )
        fh = self._open()
        fh.flush()
        start = fh.tell()
        try:
            injector = _chaos_injector()
            if injector is not None:
                injector.journal_record(self.path, fh, line)
            fh.write(line)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        except BaseException:
            try:
                fh.truncate(start)
                fh.seek(start)
            except OSError:
                self._broken = True
            raise

    def flush(self) -> None:
        """Force buffered records to disk (fsync'd when enabled)."""
        if self._fh is not None:
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def coerce_journal(
    checkpoint: Union[None, str, Path, CheckpointJournal],
) -> Optional[CheckpointJournal]:
    """Accept a path or a journal; ``None`` stays ``None``."""
    if checkpoint is None or isinstance(checkpoint, CheckpointJournal):
        return checkpoint
    return CheckpointJournal(checkpoint)
