"""Thin stdlib HTTP client for the job service's gateway.

Used by ``repro submit/status/result/cancel`` and by the test
harnesses; every method mirrors one endpoint of
:mod:`repro.serve.gateway`.  Construct with ``tenant="name"`` to stamp
every request with the ``X-Repro-Tenant`` header; a 429 from admission
control surfaces as :class:`ServeError` with ``retry_after`` set from
the ``Retry-After`` header.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from .daemon import DEFAULT_PORT
from .jobs import TERMINAL_STATES

DEFAULT_URL = f"http://127.0.0.1:{DEFAULT_PORT}"


class ServeError(RuntimeError):
    """The daemon answered with an error status."""

    def __init__(self, status: int, payload: dict,
                 retry_after: float | None = None):
        super().__init__(f"HTTP {status}: "
                         f"{payload.get('error', payload)}")
        self.status = status
        self.payload = payload
        #: Seconds the gateway suggested waiting before retrying
        #: (backpressure 429s); ``None`` otherwise.
        self.retry_after = retry_after


class ServeClient:
    """Talk to one gateway at ``url`` (default local port)."""

    def __init__(self, url: str = DEFAULT_URL, timeout: float = 30.0,
                 tenant: str | None = None):
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.tenant = tenant

    def _request(self, path: str, body: dict | None = None):
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.tenant is not None:
            headers["X-Repro-Tenant"] = self.tenant
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers,
            method="POST" if body is not None else "GET")
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as reply:
                return json.loads(reply.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read().decode("utf-8"))
            except ValueError:
                payload = {"error": str(exc)}
            retry_after = None
            raw = exc.headers.get("Retry-After") if exc.headers else None
            if raw:
                try:
                    retry_after = float(raw)
                except ValueError:
                    pass
            raise ServeError(exc.code, payload,
                             retry_after=retry_after) from None

    # -- endpoints --------------------------------------------------------

    def submit(self, kind: str, spec: dict, priority: int = 0,
               after: list[str] | None = None) -> dict:
        """Submit one job; ``after`` lists dependency job ids."""
        body = {"kind": kind, "spec": spec, "priority": priority}
        if after:
            body["after"] = list(after)
        return self._request("/api/submit", body)

    def submit_flow(self, flow: dict) -> dict:
        """Submit a whole DAG spec (see :mod:`repro.flow.spec`).

        One request journals the entire graph in a single group
        commit; the reply maps node names to job dicts:
        ``{"flow": name, "nodes": {node: job}}``.
        """
        return self._request("/api/flow", flow)

    def status(self, job_id: str) -> dict:
        return self._request(f"/api/job/{job_id}")

    def jobs(self, ids: list[str] | None = None) -> list[dict]:
        """The job table, or just ``ids`` — one request either way."""
        if ids:
            return self._request("/api/jobs?ids=" + ",".join(ids))
        return self._request("/api/jobs")

    def result(self, job_id: str) -> dict:
        return self._request(f"/api/result/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._request(f"/api/cancel/{job_id}", {})

    def health(self) -> dict:
        return self._request("/api/health")

    def gateway(self) -> dict:
        """Gateway admission stats (gateway front end only)."""
        return self._request("/api/gateway")

    # -- helpers ----------------------------------------------------------

    def wait(self, job_ids: list[str], timeout: float = 120.0,
             poll: float = 0.05) -> dict[str, dict]:
        """Poll until every job reaches a terminal state.

        One batched ``/api/jobs?ids=…`` query per tick — waiting on an
        N-job DAG is O(1) requests per poll, not O(N).  Returns
        ``id → job dict``; raises :class:`TimeoutError` if the deadline
        passes first.  A gateway 429 (admission backpressure) does not
        escape the loop: the client sleeps the advertised
        ``Retry-After`` (capped by the remaining deadline) and retries
        the batched query.
        """
        deadline = time.monotonic() + timeout
        jobs: dict[str, dict] = {}
        pending = list(job_ids)
        while pending:
            seen = set()
            try:
                batch = self.jobs(ids=pending)
            except ServeError as exc:
                if exc.status != 429:
                    raise
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"jobs not terminal after {timeout}s "
                        f"(rate-limited): {', '.join(pending)}") \
                        from None
                delay = exc.retry_after if exc.retry_after else poll
                time.sleep(max(0.0, min(delay, remaining)))
                continue
            for job in batch:
                seen.add(job["id"])
                if job["state"] in TERMINAL_STATES:
                    jobs[job["id"]] = job
            unknown = [job_id for job_id in pending
                       if job_id not in seen]
            if unknown:
                raise ServeError(404, {"error": "unknown job "
                                       f"{', '.join(unknown)}"})
            pending = [job_id for job_id in pending
                       if job_id not in jobs]
            if pending:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"jobs not terminal after {timeout}s: "
                        f"{', '.join(pending)}")
                time.sleep(poll)
        return jobs
