"""Trace archive + incremental analysis cache + cross-run diffing.

The archive turns the test suite from a run-and-discard harness into a
system of record.  Every run lands in a directory-backed
content-addressed store (:mod:`.store`): the trace as a
gzip-compressed blob keyed by its digest, the run identity in an
append-only manifest journal that heals partial tails exactly like a
resilience checkpoint.  Analysis over archived traces
(:func:`analyze_archived`) is memoized per ``(trace digest, detector
fingerprint)`` cell, all cells of one trace in one file, so re-running
the analyzer across the full history is near-pure cache lookups -- and
a change to one detector recomputes only that detector's column.  On
top sit history listing and cross-run regression diffing with a CI
gate (``ats history``, ``ats diff --gate``).
"""

from .api import (
    Archive,
    ArchivedRun,
    coerce_archive,
    format_history,
    history_to_json_str,
    params_to_jsonable,
    run_identity,
)
from .cache import CacheStats, analyze_archived, cell_key, meta_key
from .codec import (
    finding_from_dict,
    finding_to_dict,
    findings_from_list,
    findings_to_list,
    result_to_dict,
    result_to_json_bytes,
)
from .fingerprint import (
    config_fingerprint,
    detector_fingerprint,
    detector_set_fingerprint,
)
from .store import (
    ArchiveError,
    ArchiveStore,
    MANIFEST_FORMAT,
    canonical_json,
    sha256_hex,
)

__all__ = [
    "Archive",
    "ArchivedRun",
    "ArchiveError",
    "ArchiveStore",
    "CacheStats",
    "MANIFEST_FORMAT",
    "analyze_archived",
    "canonical_json",
    "cell_key",
    "coerce_archive",
    "config_fingerprint",
    "detector_fingerprint",
    "detector_set_fingerprint",
    "finding_from_dict",
    "finding_to_dict",
    "findings_from_list",
    "findings_to_list",
    "format_history",
    "history_to_json_str",
    "meta_key",
    "params_to_jsonable",
    "result_to_dict",
    "result_to_json_bytes",
    "run_identity",
    "sha256_hex",
]
