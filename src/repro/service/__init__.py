"""Analysis-as-a-service: the async job server behind ``ats serve``.

Everything the rest of the test suite does in-process -- execute a
property function, analyze an archived trace, diff two runs, sweep a
validation campaign -- becomes an **asynchronous job** submitted over
HTTP, queued, executed on the shared pooled workers, and observable
while it runs.  The layers, bottom up:

* :mod:`~repro.service.ratelimit` -- per-tenant token buckets (429 +
  ``Retry-After`` for over-budget tenants);
* :mod:`~repro.service.jobs` -- the :class:`Job` model, coalescing
  keys, and :class:`CampaignProgress` (Supervisor events -> live
  counters);
* :mod:`~repro.service.server` -- :class:`AnalysisService`: the work
  queue, request coalescing on ``(trace digest, detector
  fingerprint)``, graceful drain, and end-to-end request tracing into
  obs spans;
* :mod:`~repro.service.http` -- the stdlib asyncio HTTP front end
  (``/submit-run``, ``/analyze``, ``/diff``, ``/campaign``,
  ``/history``, ``/jobs/<id>``, ``/status``, ``/dashboard``,
  ``/metrics``, ``/metrics.json``, ``/drain``);
* :mod:`~repro.service.dashboard` -- the ``ats watch`` terminal view
  and the self-refreshing HTML status page;
* :mod:`~repro.service.client` -- the urllib client the CLI and tests
  use.

Durability (``--state-dir``): :mod:`~repro.service.journal` appends
every accepted job and its terminal state to an fsync'd journal;
:meth:`AnalysisService._recover` replays it after a restart (restore
terminal jobs, requeue interrupted ones through the checkpoint/resume
path, orphan the unresolvable); :mod:`~repro.service.breaker` evicts
executor cells that crash repeatedly.  See ``docs/SERVICE.md`` and
``docs/CHAOS.md``.
"""

from .breaker import BreakerOpen, CircuitBreaker
from .client import ServiceClient, ServiceHTTPError, ServiceUnreachable
from .dashboard import render_html, render_watch
from .http import ServiceHTTP, ServiceHandle, run_service_in_thread
from .jobs import (
    JOB_KINDS,
    JOB_STATES,
    TERMINAL_STATES,
    CampaignProgress,
    Job,
)
from .journal import ServiceJournal, ServiceJournalError
from .ratelimit import RateLimiter, TokenBucket
from .server import (
    AnalysisService,
    JobError,
    RateLimited,
    ServiceDraining,
)

__all__ = [
    "AnalysisService",
    "BreakerOpen",
    "CampaignProgress",
    "CircuitBreaker",
    "JOB_KINDS",
    "JOB_STATES",
    "Job",
    "JobError",
    "RateLimited",
    "RateLimiter",
    "ServiceClient",
    "ServiceDraining",
    "ServiceHTTP",
    "ServiceHTTPError",
    "ServiceHandle",
    "ServiceJournal",
    "ServiceJournalError",
    "ServiceUnreachable",
    "TERMINAL_STATES",
    "TokenBucket",
    "render_html",
    "render_watch",
    "run_service_in_thread",
]
