"""Trace persistence: JSON-lines encoder, writer and reader.

The format is deliberately simple and line-oriented so traces can be
inspected with standard text tools, diffed across runs (determinism
checks) and loaded back for offline analysis -- the workflow the paper
envisions between the ATS programs and the analysis tools under test.

:func:`events_to_jsonl` is the one encoder: :func:`write_trace` and
the archive (:mod:`repro.archive`) both serialize through it, and
both compress through :func:`gzip_bytes`.  A ``.gz`` destination
(conventionally ``.jsonl.gz``) is written as deterministic gzip --
``mtime=0``, no embedded filename -- so compressed traces of the same
run are byte-identical across invocations, which is what lets the
content-addressed archive key blobs by digest.

Reading is hardened against the real world: a truncated or corrupt
file raises :class:`TraceFormatError` carrying the path and the exact
line number, and :func:`read_trace` can instead *skip* bad event lines
(``skip_bad_lines=True``, surfaced as ``ats analyze
--skip-bad-lines``) so a partially written trace from a crashed run
remains analyzable.  ``salvage=True`` (``ats analyze --salvage``)
additionally forgives a corrupt *final* line -- the signature of a
mid-file truncation -- returning every record up to the cut and
flagging ``metadata["truncated"]``; a file cut inside its header line
salvages to no records.  Gzip input is auto-detected from the magic
bytes regardless of suffix, and a gzip stream cut mid-file is salvaged
the same way: whatever decompresses cleanly is parsed, the partial
tail line is dropped.

Both write-side trace faults (record drop/duplication, mid-file
truncation -- see :mod:`repro.faults`) enter through the optional
``faults`` argument of :func:`events_to_jsonl` and
:func:`write_trace`, so fault-injected trace files exercise exactly
the production serialization path.
"""

from __future__ import annotations

import gzip
import json
import zlib
from pathlib import Path
from typing import Iterable, Optional, Union

from .events import Event, event_from_dict

FORMAT_VERSION = 1

#: the fixed opening of every header line the encoder writes (what
#: follows is ``}`` or the metadata); a lone first line that is a
#: prefix of it, or extends it, is a header cut by a truncation
_HEADER_OPENING = json.dumps(
    {"format": "ats-trace", "version": FORMAT_VERSION}
)[:-1]

#: the two magic bytes opening every gzip member (RFC 1952)
GZIP_MAGIC = b"\x1f\x8b"


class TraceFormatError(ValueError):
    """A trace file is malformed; pinpoints the offending line.

    Subclasses :class:`ValueError` so pre-existing callers that caught
    the reader's old error type keep working.
    """

    def __init__(
        self,
        path: Union[str, Path],
        message: str,
        lineno: Optional[int] = None,
    ) -> None:
        self.path = Path(path)
        self.lineno = lineno
        prefix = (
            f"{self.path}:{lineno}" if lineno is not None else str(self.path)
        )
        super().__init__(f"{prefix}: {message}")


# ----------------------------------------------------------------------
# codec helpers (shared with the archive blob store)
# ----------------------------------------------------------------------

def is_gzip_bytes(data: bytes) -> bool:
    """True when ``data`` starts a gzip stream."""
    return data[:2] == GZIP_MAGIC


def gzip_bytes(data: bytes) -> bytes:
    """Deterministically gzip ``data`` (``mtime=0``, no filename).

    Plain :func:`gzip.compress` embeds the current time in the header,
    which would give the same trace a different digest on every call;
    this helper is the codec both ``.jsonl.gz`` traces and archive
    blobs go through.
    """
    return gzip.compress(data, mtime=0)


def gunzip_bytes(data: bytes, salvage: bool = False) -> bytes:
    """Decompress a gzip stream; optionally salvage a truncated one.

    With ``salvage``, a stream cut mid-file (missing trailer, partial
    deflate block) yields everything that decompresses cleanly instead
    of raising.  Corruption *inside* the stream still raises
    :class:`zlib.error` / :class:`EOFError` either way.
    """
    if not salvage:
        return gzip.decompress(data)
    decomp = zlib.decompressobj(wbits=16 + zlib.MAX_WBITS)
    return decomp.decompress(data)


def _header_line(metadata: Optional[dict]) -> str:
    header: dict = {"format": "ats-trace", "version": FORMAT_VERSION}
    if metadata:
        header["metadata"] = metadata
    return json.dumps(header) + "\n"


def events_to_jsonl(
    events: Iterable[Event],
    metadata: Optional[dict] = None,
    faults=None,
) -> str:
    """Serialize events to trace text: the one trace encoder.

    The archive stores this string's UTF-8 bytes as the trace blob, so
    a blob dumped to a file *is* a valid trace file and the blob digest
    doubles as the trace's identity.  ``faults`` (a
    :class:`~repro.faults.FaultInjector`) applies the write-time record
    faults: each event draws :meth:`record_copies` once, in event
    order, and its line is written 0, 1 or 2 times.
    """
    parts = [_header_line(metadata)]
    if faults is None:
        parts.extend(json.dumps(e.to_dict()) + "\n" for e in events)
    else:
        for e in events:
            copies = faults.record_copies()
            if copies:
                parts.append((json.dumps(e.to_dict()) + "\n") * copies)
    return "".join(parts)


def events_from_jsonl(
    text: str,
    label: Union[str, Path] = "<memory>",
    skip_bad_lines: bool = False,
    salvage: bool = False,
) -> tuple[list[Event], dict]:
    """Parse trace text (the inverse of :func:`events_to_jsonl`).

    ``label`` only decorates error messages; semantics match
    :func:`read_trace`.
    """
    return _parse_trace_text(
        text, label, skip_bad_lines=skip_bad_lines, salvage=salvage
    )


def write_trace(
    path: Union[str, Path],
    events: Iterable[Event],
    metadata: dict | None = None,
    faults=None,
) -> int:
    """Write events to ``path`` in JSONL format; returns event count.

    The first line is a header record with the format version and
    optional run metadata (program name, size, transport parameters...).
    A ``.gz`` path writes deterministic gzip (:func:`gzip_bytes`).
    ``faults`` (a :class:`~repro.faults.FaultInjector`) drops and
    duplicates records as :func:`events_to_jsonl` encodes them, then
    cuts the finished bytes -- compressed ones for ``.gz`` -- at
    :meth:`truncate_at`, usually mid-line, as a crashed writer would.
    """
    path = Path(path)
    events = list(events)
    data = events_to_jsonl(events, metadata, faults).encode("utf-8")
    if path.suffix == ".gz":
        data = gzip_bytes(data)
    if faults is not None:
        data = data[: faults.truncate_at(len(data))]
    path.write_bytes(data)
    return len(events)


def read_trace(
    path: Union[str, Path],
    skip_bad_lines: bool = False,
    salvage: bool = False,
) -> tuple[list[Event], dict]:
    """Read a JSONL trace; returns ``(events, metadata)``.

    Gzip input is detected from the magic bytes (any suffix).
    Malformed files raise :class:`TraceFormatError` with the offending
    line number.  With ``skip_bad_lines`` corrupt *event* lines are
    dropped instead (the header must still be intact) and the count of
    dropped lines is reported under ``metadata["skipped_lines"]``.
    With ``salvage``, a corrupt line with nothing but whitespace after
    it -- the signature of a file truncated mid-record -- is treated as
    the end of the trace: everything before the cut is returned and
    ``metadata["truncated"]`` is set; a gzip stream truncated mid-file
    is recovered the same way from whatever decompresses cleanly.  An
    empty file, or a lone first line that is a cut-off encoder header,
    salvages to no events with only ``truncated`` set.  Any other bad
    header, and mid-file corruption (bad line followed by more
    records), still raise, so salvage never silently papers over
    structural damage.
    When both flags are given, a trailing truncation is classified as
    ``truncated`` (not as a skipped line): the two report different
    facts about the file.
    """
    path = Path(path)
    data = path.read_bytes()
    gz_truncated = False
    if is_gzip_bytes(data):
        try:
            data = gunzip_bytes(data)
        except (EOFError, zlib.error, OSError) as exc:
            # gzip.decompress signals a stream cut mid-file (missing
            # trailer) with EOFError; anything else is corruption.
            kind = (
                "truncated gzip stream"
                if isinstance(exc, EOFError)
                else "corrupt gzip stream"
            )
            if not salvage:
                raise TraceFormatError(path, f"{kind}: {exc}") from exc
            try:
                data = gunzip_bytes(data, salvage=True)
            except zlib.error as exc2:
                raise TraceFormatError(
                    path, f"corrupt gzip stream: {exc2}"
                ) from exc2
            gz_truncated = True
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        if not (salvage or skip_bad_lines):
            raise TraceFormatError(path, "trace is not UTF-8 text") from None
        text = data.decode("utf-8", errors="replace")
    events, metadata = _parse_trace_text(
        text, path, skip_bad_lines=skip_bad_lines, salvage=salvage
    )
    if gz_truncated and not metadata.get("truncated"):
        metadata = dict(metadata)
        metadata["truncated"] = True
    return events, metadata


def _parse_trace_text(
    text: str,
    path: Union[str, Path],
    skip_bad_lines: bool = False,
    salvage: bool = False,
) -> tuple[list[Event], dict]:
    """Shared line-level parser behind :func:`read_trace`."""
    all_lines = text.splitlines()
    events: list[Event] = []
    metadata: dict = {}
    skipped = 0
    truncated = False
    if not all_lines:
        if salvage:
            return events, {"truncated": True}
        raise TraceFormatError(path, "empty trace file")
    try:
        header = json.loads(all_lines[0])
    except json.JSONDecodeError as exc:
        first = all_lines[0]
        if salvage and len(all_lines) == 1 and (
            first.startswith(_HEADER_OPENING)
            or _HEADER_OPENING.startswith(first)
        ):
            # the cut landed inside the header line
            return events, {"truncated": True}
        raise TraceFormatError(
            path, f"corrupt header: {exc}", lineno=1
        ) from exc
    if not isinstance(header, dict) or header.get("format") != "ats-trace":
        raise TraceFormatError(path, "not an ats-trace file", lineno=1)
    if header.get("version") != FORMAT_VERSION:
        raise TraceFormatError(
            path,
            f"unsupported trace version {header.get('version')}",
            lineno=1,
        )
    metadata = header.get("metadata", {})
    lines = all_lines[1:]
    # Index of the last line with content: a bad line *there* is the
    # signature of a mid-record truncation, which salvage must report
    # as such even when skip_bad_lines would also tolerate it --
    # "skipped one line" and "the file was cut" are different facts.
    last_content = -1
    for i, raw in enumerate(lines):
        if raw.strip():
            last_content = i
    for offset, line in enumerate(lines):
        lineno = offset + 2
        line = line.strip()
        if not line:
            continue
        try:
            events.append(event_from_dict(json.loads(line)))
        except (
            json.JSONDecodeError,
            ValueError,
            TypeError,
            KeyError,
            AttributeError,
        ) as exc:
            if salvage and offset == last_content:
                truncated = True
                break
            if skip_bad_lines:
                skipped += 1
                continue
            raise TraceFormatError(
                path, f"bad event: {exc}", lineno=lineno
            ) from exc
    if skipped or truncated:
        metadata = dict(metadata)
        if skipped:
            metadata["skipped_lines"] = skipped
        if truncated:
            metadata["truncated"] = True
    return events, metadata
