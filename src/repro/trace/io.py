"""Trace persistence: JSON-lines encoder, writer and reader.

The format is deliberately simple and line-oriented so traces can be
inspected with standard text tools, diffed across runs (determinism
checks) and loaded back for offline analysis -- the workflow the paper
envisions between the ATS programs and the analysis tools under test.

:func:`events_to_jsonl` is the one encoder: :func:`write_trace` and
the archive (:mod:`repro.archive`) both serialize through it, and
both compress through :func:`gzip_bytes`.  A ``.gz`` destination
(conventionally ``.jsonl.gz``) is written as deterministic gzip --
``mtime=0``, no embedded filename, level 6 -- so compressed traces of
the same run are byte-identical across invocations, which is what
lets the content-addressed archive key blobs by digest.

Each event line is byte-identical to ``json.dumps(event.to_dict())``.
The encoder writes it through a per-kind line template whenever the
event's fields have exactly the types the recorder writes, and
through ``json.dumps`` otherwise; :data:`EVENT_KEYS`, read off the
event dataclasses, is each kind's key order in both directions.  The
parser builds a line whose keys are in that order positionally,
sharing one :class:`Location` per location string and one tuple per
call path, and hands every other line to :func:`event_from_dict`.

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
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from .events import (
    CollExit,
    Enter,
    Event,
    Exit,
    Fork,
    Join,
    Location,
    Recv,
    Send,
    event_from_dict,
)

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
    blobs go through.  It compresses at level 6, the default of zlib
    and gzip(1): on the fig. 3.3 chain's 8 MB trace at 64 ranks, level
    9 took over 4x as long (one core of a 2-CPU VM) for an 11% smaller
    stream.  Digests are taken over the uncompressed bytes, so the
    level moves no digest, and streams written at any level read back
    alike.
    """
    return gzip.compress(data, compresslevel=6, mtime=0)


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


# ----------------------------------------------------------------------
# event lines
# ----------------------------------------------------------------------

#: the event classes a trace line holds, one per kind
_EVENT_CLASSES = (Enter, Exit, Send, Recv, CollExit, Fork, Join)

#: every event kind's keys in line order: ``kind``, then the class's
#: dataclass fields -- the order ``Event.to_dict`` writes them (a test
#: holds the two together).  The template encoder writes lines in this
#: order, and the positional parser passes values to the class in it.
EVENT_KEYS: dict[str, tuple[str, ...]] = {
    cls.kind: ("kind",) + tuple(f.name for f in fields(cls))
    for cls in _EVENT_CLASSES
}

#: keys whose template slot takes a ready JSON fragment (``%s``): times,
#: the location, names, the call path and the bool.  Every other slot
#: is an int, formatted with ``%r``.
_FRAGMENT_KEYS = frozenset((
    "time", "post_time", "enter_time", "loc", "region", "op", "path",
    "internal",
))


def _line_template(kind: str) -> str:
    """``'{"kind": "send", "time": %s, "loc": %s, "peer": %r, ...}\\n'``."""
    slots = [f'"kind": {json.dumps(kind)}'] + [
        f'"{key}": %{"s" if key in _FRAGMENT_KEYS else "r"}'
        for key in EVENT_KEYS[kind][1:]
    ]
    return "{" + ", ".join(slots) + "}\n"


_TEMPLATES = {kind: _line_template(kind) for kind in EVENT_KEYS}


def _line_encoder() -> Callable[[Event], str]:
    """A fresh ``event -> line`` function, with memos for its lifetime.

    Every line equals ``json.dumps(event.to_dict()) + "\\n"``.  An
    event whose fields have exactly the types the recorder writes -- a
    :class:`Location` of ints, a tuple path of ``str``, ``str`` names,
    ``int`` counters, a ``bool`` ``internal``, ``int`` or finite
    ``float`` times -- fills its kind's template, where ``repr`` writes
    what ``json.dumps`` would.  Anything else (a bool or float in an
    int field, nan or inf, a plain-tuple loc, a list path, an
    :class:`Event` subclass) takes the ``json.dumps`` line.

    Location and path fragments are memoized by object identity: the
    recorder and the parser share one object per distinct value, and
    ``keep`` holds every memoized object so no id is reused while the
    memo lives.  Names are memoized by value, and so are float times
    other than zero, whose two signs compare equal but write apart.
    """
    dumps = json.dumps
    inf = float("inf")
    keep: list = []
    locs: dict[int, str] = {}
    paths: dict[int, str] = {}
    names: dict[str, str] = {}
    times: dict[float, str] = {}
    enter_t, exit_t, send_t, recv_t, coll_t, fork_t, join_t = (
        _TEMPLATES[cls.kind] for cls in _EVENT_CLASSES
    )
    templated = set(_EVENT_CLASSES)

    def loc_fragment(loc) -> Optional[str]:
        if (
            type(loc) is not Location
            or type(loc[0]) is not int
            or type(loc[1]) is not int
        ):
            return None
        keep.append(loc)
        fragment = locs[id(loc)] = dumps(str(loc))
        return fragment

    def path_fragment(path) -> Optional[str]:
        if type(path) is not tuple or any(type(p) is not str for p in path):
            return None
        keep.append(path)
        fragment = paths[id(path)] = dumps(list(path))
        return fragment

    def name_fragment(name) -> Optional[str]:
        if type(name) is not str:
            return None
        fragment = names.get(name)
        if fragment is None:
            fragment = names[name] = dumps(name)
        return fragment

    def time_fragment(t) -> Optional[str]:
        if type(t) is int:
            return repr(t)
        if type(t) is not float or not -inf < t < inf:
            return None
        fragment = repr(t)
        if t:
            times[t] = fragment
        return fragment

    def line(e: Event) -> str:
        cls = type(e)
        if cls in templated:
            # memo hits inline; the *_fragment helpers handle misses
            t, loc, path = e.time, e.loc, e.path
            t = type(t) is float and times.get(t) or time_fragment(t)
            loc = locs.get(id(loc)) or loc_fragment(loc)
            path = paths.get(id(path)) or path_fragment(path)
            if t and loc and path:
                if cls is Send or cls is Recv:
                    peer, tag, comm_id = e.peer, e.tag, e.comm_id
                    nbytes, msg_id, internal = e.nbytes, e.msg_id, e.internal
                    if type(internal) is bool and (
                        int is type(peer) is type(tag) is type(comm_id)
                        is type(nbytes) is type(msg_id)
                    ):
                        internal = "true" if internal else "false"
                        if cls is Send:
                            return send_t % (
                                t, loc, peer, tag, comm_id, nbytes, msg_id,
                                path, internal,
                            )
                        post = e.post_time
                        post = (
                            type(post) is float and times.get(post)
                            or time_fragment(post)
                        )
                        if post:
                            return recv_t % (
                                t, loc, peer, tag, comm_id, nbytes, msg_id,
                                post, path, internal,
                            )
                elif cls is Enter or cls is Exit:
                    region = name_fragment(e.region)
                    if region:
                        return (enter_t if cls is Enter else exit_t) % (
                            t, loc, region, path
                        )
                elif cls is CollExit:
                    op = name_fragment(e.op)
                    enter = time_fragment(e.enter_time)
                    if op and enter and (
                        int is type(e.comm_id) is type(e.instance)
                        is type(e.root) is type(e.bytes_sent)
                        is type(e.bytes_recv)
                    ):
                        return coll_t % (
                            t, loc, op, e.comm_id, e.instance, e.root, enter,
                            e.bytes_sent, e.bytes_recv, path,
                        )
                elif cls is Fork:
                    if int is type(e.team_size) is type(e.team_id):
                        return fork_t % (t, loc, e.team_size, e.team_id, path)
                elif type(e.team_id) is int:  # Join
                    return join_t % (t, loc, e.team_id, path)
        return dumps(e.to_dict()) + "\n"

    return line


#: kind -> (event class, its keys, index of ``path``): what the
#: positional parser needs to build one kind
_POSITIONAL = {
    cls.kind: (cls, EVENT_KEYS[cls.kind], EVENT_KEYS[cls.kind].index("path"))
    for cls in _EVENT_CLASSES
}

#: ``raw_decode`` skips ``json.loads``'s wrapper (leading-whitespace and
#: BOM checks) that a stripped line does not need
_raw_decode = json.JSONDecoder().raw_decode


def _event_builder() -> Callable[[object], Event]:
    """A fresh ``decoded line -> event`` function, with memos.

    A line whose keys are exactly its kind's :data:`EVENT_KEYS`, in
    order, is built positionally: each distinct location string is
    parsed once, and each distinct all-``str`` path becomes one shared
    tuple (a JSON array equal to such a tuple holds only strings
    itself).  Every other line, and any the positional build cannot
    take, goes through :func:`event_from_dict`, which builds the event
    or raises exactly as it always did.
    """
    locs: dict[str, Location] = {}
    paths: dict[tuple, tuple] = {}

    def build(record) -> Event:
        try:
            cls, keys, path_at = _POSITIONAL[record["kind"]]
            if tuple(record) == keys:
                values = [*record.values()]
                text = values[2]
                loc = locs.get(text)
                if loc is None and type(text) is str:
                    loc = locs[text] = Location.parse(text)
                path = tuple(values[path_at])
                shared = paths.get(path)
                if shared is None:
                    shared = path
                    if all(type(p) is str for p in path):
                        paths[path] = path
                if loc is not None:
                    values[2] = loc
                    values[path_at] = shared
                    return cls(*values[1:])
        except (KeyError, TypeError, ValueError):
            pass
        return event_from_dict(record)

    return build


def events_to_jsonl(
    events: Iterable[Event],
    metadata: Optional[dict] = None,
    faults=None,
) -> str:
    """Serialize events to trace text: the one trace encoder.

    The archive stores this string's UTF-8 bytes as the trace blob, so
    a blob dumped to a file *is* a valid trace file and the blob digest
    doubles as the trace's identity.  Each event's line is
    ``json.dumps(event.to_dict())``, written through a per-kind
    template (see :func:`_line_encoder`).  ``faults`` (a
    :class:`~repro.faults.FaultInjector`) applies the write-time record
    faults: each event draws :meth:`record_copies` once, in event
    order, and its line is written 0, 1 or 2 times.
    """
    line = _line_encoder()
    parts = [_header_line(metadata)]
    if faults is None:
        parts.extend(map(line, events))
    else:
        for e in events:
            copies = faults.record_copies()
            if copies:
                parts.append(line(e) * copies)
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
    last_content = len(lines) - 1
    while last_content >= 0 and not lines[last_content].strip():
        last_content -= 1
    build = _event_builder()
    for offset, line in enumerate(lines):
        lineno = offset + 2
        line = line.strip()
        if not line:
            continue
        try:
            try:
                record, end = _raw_decode(line)
            except json.JSONDecodeError:
                end = -1
            if end != len(line):
                record = json.loads(line)  # raises json.loads's own error
            events.append(build(record))
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
