"""Event tracing: the measurement substrate of the reproduction.

Simulated runtimes record EPILOG/OTF-style events here; the automatic
analyzer (:mod:`repro.analysis`) and the ASCII timeline renderer (the
stand-in for the paper's Vampir displays) consume them.
"""

from .api import bind_instrumentation, current_instrumentation, region
from .comm_matrix import CommMatrix, comm_matrix, format_comm_matrix
from .filter import (
    by_callpath_prefix,
    by_location,
    by_predicate,
    by_time_window,
)
from .events import (
    CallPath,
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
from .io import (
    TraceFormatError,
    events_from_jsonl,
    events_to_jsonl,
    gunzip_bytes,
    gzip_bytes,
    is_gzip_bytes,
    read_trace,
    write_trace,
)
from .recorder import TraceError, TraceRecorder
from .stats import (
    RegionInterval,
    RegionProfile,
    TraceProfile,
    format_profile,
    profile_trace,
    region_intervals,
)
from .timeline import region_char, render_timeline, state_at

__all__ = [
    "CallPath",
    "CollExit",
    "CommMatrix",
    "comm_matrix",
    "format_comm_matrix",
    "Enter",
    "Event",
    "Exit",
    "Fork",
    "Join",
    "Location",
    "Recv",
    "RegionInterval",
    "RegionProfile",
    "Send",
    "TraceError",
    "TraceFormatError",
    "TraceProfile",
    "TraceRecorder",
    "bind_instrumentation",
    "by_callpath_prefix",
    "by_location",
    "by_predicate",
    "by_time_window",
    "current_instrumentation",
    "event_from_dict",
    "events_from_jsonl",
    "events_to_jsonl",
    "gunzip_bytes",
    "gzip_bytes",
    "is_gzip_bytes",
    "format_profile",
    "profile_trace",
    "read_trace",
    "region",
    "region_intervals",
    "region_char",
    "render_timeline",
    "state_at",
    "write_trace",
]
