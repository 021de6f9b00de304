"""A tiny urllib client for the analysis service.

Used by ``ats submit``/``ats watch`` and the tests --
anything that talks to a running ``ats serve`` without pulling in a
third-party HTTP library.  Every method returns the decoded JSON
payload; non-2xx responses raise :class:`ServiceHTTPError` carrying
the status code and (for 429/503) the parsed ``Retry-After`` hint.

**Restart tolerance.**  Idempotent GETs (``/jobs``, ``/status``,
``/metrics``...) retry through connection failures with a capped,
seeded-jitter exponential backoff -- so ``ats watch`` rides out a
service restart instead of crashing with ``ECONNREFUSED`` the moment
the old process dies.  POSTs never auto-retry: a submission that died
mid-flight may or may not have been journaled, and replaying it is
the caller's decision, not the transport's.

**Deadline propagation.**  Submissions accept ``deadline`` (seconds);
it travels as an ``X-Deadline-Ms`` header and the service cancels the
job (state ``expired``) if a worker cannot start it in time.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Optional
from urllib import error as urlerror
from urllib import request as urlrequest

from ..simkernel.rng import Lcg64

__all__ = ["ServiceClient", "ServiceHTTPError", "ServiceUnreachable"]


class ServiceUnreachable(Exception):
    """Connection attempts (and retries, if any) all failed."""

    def __init__(self, url: str, attempts: int, last: Exception):
        super().__init__(
            f"service unreachable after {attempts} attempt(s): "
            f"{url} ({last})"
        )
        self.url = url
        self.attempts = attempts
        self.last = last


class ServiceHTTPError(Exception):
    """A non-2xx service response."""

    def __init__(
        self,
        status: int,
        payload: Optional[dict] = None,
        retry_after: Optional[float] = None,
    ):
        message = (payload or {}).get("error", f"HTTP {status}")
        super().__init__(f"{status}: {message}")
        self.status = status
        self.payload = payload or {}
        self.retry_after = retry_after


class ServiceClient:
    """Synchronous client bound to one service base URL."""

    #: transient transport failures worth retrying on idempotent GETs.
    _RETRYABLE = (
        urlerror.URLError, ConnectionError, TimeoutError, OSError,
    )

    def __init__(
        self,
        base_url: str,
        tenant: str = "default",
        timeout: float = 30.0,
        retries: int = 4,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        backoff_seed: int = 0,
        sleep=time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout
        #: extra attempts for idempotent GETs (0 disables reconnect).
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = Lcg64(backoff_seed)
        self._sleep = sleep

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        """Capped exponential delay with seeded jitter (deterministic
        for a given ``backoff_seed`` -- tests assert exact schedules)."""
        base = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        return base * self._rng.uniform(0.5, 1.0)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        raw: bool = False,
        headers: Optional[Dict[str, str]] = None,
    ):
        data = None
        send_headers = {"X-Tenant": self.tenant}
        if headers:
            send_headers.update(headers)
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            send_headers["Content-Type"] = "application/json"
        url = self.base_url + path
        # only idempotent reads ride through restarts; a replayed POST
        # could double-submit work the journal already acknowledged.
        attempts = 1 + (self.retries if method == "GET" else 0)
        last: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt:
                self._sleep(self._backoff(attempt - 1))
            req = urlrequest.Request(
                url, data=data, headers=send_headers, method=method,
            )
            try:
                with urlrequest.urlopen(
                    req, timeout=self.timeout
                ) as resp:
                    payload = resp.read()
            except urlerror.HTTPError as exc:
                detail = None
                try:
                    detail = json.loads(exc.read())
                except ValueError:
                    pass
                retry_after = exc.headers.get("Retry-After")
                raise ServiceHTTPError(
                    exc.code,
                    detail,
                    float(retry_after) if retry_after else None,
                ) from None
            except self._RETRYABLE as exc:
                last = exc
                continue
            if raw:
                return payload.decode("utf-8")
            return json.loads(payload)
        raise ServiceUnreachable(url, attempts, last)

    # ------------------------------------------------------------------
    # submissions
    # ------------------------------------------------------------------

    @staticmethod
    def _deadline_headers(
        deadline: Optional[float],
    ) -> Optional[Dict[str, str]]:
        if deadline is None:
            return None
        return {"X-Deadline-Ms": str(int(deadline * 1000))}

    def _submit(
        self,
        path: str,
        body: Dict[str, Any],
        wait: bool,
        deadline: Optional[float],
    ) -> dict:
        if wait:
            body["wait"] = True
        return self._request(
            "POST", path, body, headers=self._deadline_headers(deadline),
        )

    def submit_run(
        self,
        property: str,
        wait: bool = False,
        deadline: Optional[float] = None,
        **params: Any,
    ) -> dict:
        body = {"property": property, **params}
        return self._submit("/submit-run", body, wait, deadline)

    def analyze(
        self,
        run: str,
        wait: bool = False,
        deadline: Optional[float] = None,
        **params: Any,
    ) -> dict:
        return self._submit("/analyze", {"run": run, **params}, wait, deadline)

    def diff(
        self,
        before: str,
        after: str,
        wait: bool = False,
        deadline: Optional[float] = None,
        **params: Any,
    ) -> dict:
        body = {"before": before, "after": after, **params}
        return self._submit("/diff", body, wait, deadline)

    def campaign(
        self,
        wait: bool = False,
        deadline: Optional[float] = None,
        **params: Any,
    ) -> dict:
        return self._submit("/campaign", dict(params), wait, deadline)

    def synth(
        self,
        spec: Dict[str, Any],
        wait: bool = False,
        deadline: Optional[float] = None,
        **params: Any,
    ) -> dict:
        """Submit a synthesized-scenario campaign (a CampaignSpec dict)."""
        return self._submit("/synth", dict(params, spec=spec), wait, deadline)

    def export(
        self,
        runs: Optional[list] = None,
        csv: bool = False,
        wait: bool = False,
        deadline: Optional[float] = None,
        **params: Any,
    ) -> dict:
        """Submit a ground-truth dataset export over the archive."""
        body: Dict[str, Any] = dict(params)
        if runs:
            body["runs"] = list(runs)
        if csv:
            body["csv"] = True
        return self._submit("/export", body, wait, deadline)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def history(self) -> dict:
        return self._request("GET", "/history")

    def job(self, job_id: str, wait: bool = False) -> dict:
        suffix = "?wait=1" if wait else ""
        return self._request("GET", f"/jobs/{job_id}{suffix}")

    def status(self) -> dict:
        return self._request("GET", "/status")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """Prometheus text exposition (raw string)."""
        return self._request("GET", "/metrics", raw=True)

    def metrics_json(self) -> dict:
        return self._request("GET", "/metrics.json")

    def drain(self, timeout: float = 30.0) -> dict:
        """Stop intake, wait for in-flight work, flush durable state."""
        return self._request("POST", "/drain", {"timeout": timeout})
