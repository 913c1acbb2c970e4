"""The job daemon's HTTP front end: an asyncio multi-tenant gateway.

One event loop accepts thousands of concurrent HTTP/1.1 connections
and serves the daemon's whole JSON API (routes below).  With no tenant
configured every request gets the open default policy, which is plain
daemon behaviour; on top of that it adds the multi-user features:

* **Tenants** — requests carry an ``X-Repro-Tenant`` header resolved
  against configured :class:`TenantPolicy` entries (token-bucket rate
  limit, active-job quota, priority boost).  Unknown tenants either
  get the default policy (``allow_unknown_tenants=True``) or ``403``.
* **Admission control / backpressure** — a submit is rejected with
  ``429`` + ``Retry-After`` the moment the global active-job depth or
  the tenant's own budget/bucket is exhausted, *before* it touches the
  journal.  Clients are expected to honour ``Retry-After`` and retry.
* **SSE streaming** — ``GET /api/events/<id>`` returns
  ``text/event-stream``: an immediate snapshot of the job, then one
  ``event: state`` message per journaled transition until the job
  reaches a terminal state.  Delivery is at-least-once (the snapshot
  may duplicate a transition that raced it); heartbeat comments keep
  idle streams alive.
* **Group-committed submits** — the loop never blocks on the journal.
  Submits queue to a committer thread that drains them into
  :meth:`Daemon.submit_many` groups, so N concurrent submits share one
  journal fsync; results resolve back onto the loop via
  ``call_soon_threadsafe``.

The execution backend is untouched: the same worker threads,
:class:`~repro.serve.scheduler.Scheduler` and journal-first
:class:`~repro.serve.store.JobStore` run behind the loop, bridged with
``loop.run_in_executor`` for lock-taking reads and daemon transition
listeners for push events.  Job results are byte-identical to direct
runs — the gateway adds no execution semantics.

Routes::

    POST /api/submit            {kind, spec, priority?, after?} → job
                                (admission-controlled, tenant aware)
    POST /api/flow              DAG spec → {flow, nodes: {name: job}}
    GET  /api/jobs[?ids=a,b]    lock-free job table (or subset) snapshot
    GET  /api/states?ids=a,b    {id: state} for high-rate pollers
    GET  /api/job/<id>          one job
    GET  /api/result/<id>       result blob (409 until done)
    GET  /api/events/<id>       SSE job progress stream
    POST /api/cancel/<id>       cancel a queued job (409 unless queued)
    GET  /api/health            queues, budgets, counts, caches, sim
                                (disk scan off-loop)
    GET  /api/gateway           gateway/tenant admission counters

Quickstart: ``examples/gateway_quickstart.py``; benchmark scenarios:
``benchmarks/bench_gateway.py``.
"""

from __future__ import annotations

import asyncio
import json
import queue
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import parse_qs, urlsplit

from .daemon import Daemon
from .jobs import TERMINAL_STATES, SpecError

_REASONS = {200: "OK", 400: "Bad Request", 403: "Forbidden",
            404: "Not Found", 409: "Conflict", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error"}

#: Bound on the map of terminal events that arrived before their
#: submit future resolved (worker threads race the committer).  Also
#: absorbs terminal events for jobs submitted outside the gateway.
_EARLY_TERMINAL_CAP = 8192


class _BadRequest(Exception):
    """Client-side protocol error → ``status`` (400 or 413) and close."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class TenantPolicy:
    """Admission policy for one tenant name.

    ``rate`` is sustained submits/second refilled into a bucket of
    ``burst`` tokens (``None`` = unlimited).  ``max_active`` caps the
    tenant's queued+running jobs (``None`` = unlimited).
    ``priority_boost`` is added to every submitted job's priority, so
    a paid tier can outrank best-effort traffic in the scheduler.
    """

    name: str = "default"
    rate: float | None = None
    burst: int = 64
    max_active: int | None = None
    priority_boost: int = 0


@dataclass
class GatewayConfig:
    """Gateway admission and transport knobs."""

    #: Global queued+running ceiling before submits get 429s.
    max_queue_depth: int = 512
    #: Named tenant policies; requests resolve via ``X-Repro-Tenant``.
    tenants: dict[str, TenantPolicy] = field(default_factory=dict)
    #: Policy applied to requests without a (known) tenant header.
    default_tenant: TenantPolicy = field(default_factory=TenantPolicy)
    #: ``False`` → an unrecognised ``X-Repro-Tenant`` is a 403.
    allow_unknown_tenants: bool = True
    #: ``Retry-After`` seconds suggested on queue-depth/quota 429s.
    retry_after: float = 0.25
    max_body_bytes: int = 8 * 1024 * 1024
    #: Max submits group-committed behind one journal fsync.
    submit_group_limit: int = 128
    #: Idle SSE streams emit a comment at this period (seconds).
    sse_heartbeat: float = 15.0


class _TenantState:
    """Mutable per-tenant accounting: token bucket + active jobs."""

    __slots__ = ("policy", "tokens", "last", "active", "submitted",
                 "throttled", "rejected")

    def __init__(self, policy: TenantPolicy):
        self.policy = policy
        self.tokens = float(policy.burst)
        self.last = time.monotonic()
        self.active = 0
        self.submitted = 0
        self.throttled = 0
        self.rejected = 0

    def admit(self, now: float) -> float:
        """Take one token; 0.0 if admitted, else seconds to retry."""
        rate = self.policy.rate
        if rate is None:
            return 0.0
        self.tokens = min(float(self.policy.burst),
                          self.tokens + (now - self.last) * rate)
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return max((1.0 - self.tokens) / rate, 0.001)

    def stats(self) -> dict:
        return {"active": self.active, "submitted": self.submitted,
                "throttled": self.throttled, "rejected": self.rejected,
                "rate": self.policy.rate,
                "max_active": self.policy.max_active,
                "priority_boost": self.policy.priority_boost}


@dataclass
class _SubmitItem:
    tenant: _TenantState
    kind: str
    spec: dict
    priority: int
    after: list[str]
    future: asyncio.Future


_STOP = object()


class Gateway:
    """The asyncio front end.  Construct, ``await start()``, serve."""

    def __init__(self, daemon: Daemon, host: str = "127.0.0.1",
                 port: int = 0, config: GatewayConfig | None = None):
        self.daemon = daemon
        self.host = host
        self.port = port
        self.config = config or GatewayConfig()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._tenants: dict[str, _TenantState] = {
            name: _TenantState(policy)
            for name, policy in self.config.tenants.items()}
        self._default_tenant = _TenantState(self.config.default_tenant)
        self._active_jobs = 0
        self._job_owner: dict[str, _TenantState] = {}
        self._early_terminal: dict[str, str] = {}
        self._watchers: dict[str, list[asyncio.Queue]] = {}
        self._transition_lock = threading.Lock()
        self._transition_buf: list[dict] = []
        self._transition_scheduled = False
        self._submit_queue: queue.SimpleQueue = queue.SimpleQueue()
        self._committer: threading.Thread | None = None
        self._conns: set[asyncio.Task] = set()
        self._disconnects = 0
        self._requests = 0
        self._rejected_depth = 0

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._committer = threading.Thread(
            target=self._commit_loop, name="gateway-committer",
            daemon=True)
        self._committer.start()
        self.daemon.add_listener(self._on_transition)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def close(self) -> None:
        self.daemon.remove_listener(self._on_transition)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conns):
            task.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)
        if self._committer is not None:
            self._submit_queue.put(_STOP)
            await asyncio.get_running_loop().run_in_executor(
                None, self._committer.join)
            self._committer = None

    async def serve_forever(self) -> None:
        """Run until cancelled (foreground mode for the CLI)."""
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    # -- submit path ------------------------------------------------------

    def _tenant_for(self, headers: dict) -> _TenantState | None:
        """Resolve the request's tenant; ``None`` means 403."""
        name = headers.get("x-repro-tenant")
        if name is None or name == self.config.default_tenant.name:
            return self._default_tenant
        state = self._tenants.get(name)
        if state is not None:
            return state
        if not self.config.allow_unknown_tenants:
            return None
        if len(self._tenants) < 4096:
            # Each unknown tenant gets its own bucket under the default
            # policy — one noisy stranger cannot starve the others.
            state = self._tenants[name] = _TenantState(
                self.config.default_tenant)
            return state
        return self._default_tenant

    def _release(self, tenant: _TenantState) -> None:
        tenant.active -= 1
        self._active_jobs -= 1

    async def _handle_submit(self, headers: dict, body: dict):
        tenant = self._tenant_for(headers)
        if tenant is None:
            return 403, {"error": "unknown tenant "
                         f"'{headers.get('x-repro-tenant')}'"}, ()
        after = body.get("after") or []
        if not (isinstance(after, list)
                and all(isinstance(a, str) for a in after)):
            return 400, {"error": "'after' must be a list of job ids"}, ()
        try:
            priority = int(body.get("priority", 0))
        except (ValueError, TypeError):
            return 400, {"error": "'priority' must be an integer"}, ()
        retry = tenant.admit(time.monotonic())
        if retry > 0.0:
            tenant.throttled += 1
            return 429, {"error": "tenant rate limit exceeded",
                         "retry_after": round(retry, 3)}, (
                ("Retry-After", f"{retry:.3f}"),)
        policy = tenant.policy
        if (policy.max_active is not None
                and tenant.active >= policy.max_active):
            tenant.rejected += 1
            return 429, {"error": "tenant active-job quota exceeded",
                         "retry_after": self.config.retry_after}, (
                ("Retry-After", f"{self.config.retry_after:.3f}"),)
        if self._active_jobs >= self.config.max_queue_depth:
            self._rejected_depth += 1
            return 429, {"error": "queue depth exceeded",
                         "retry_after": self.config.retry_after}, (
                ("Retry-After", f"{self.config.retry_after:.3f}"),)
        tenant.active += 1
        self._active_jobs += 1
        future = self._loop.create_future()
        self._submit_queue.put(_SubmitItem(
            tenant, body.get("kind", ""), body.get("spec", {}),
            priority + policy.priority_boost, after, future))
        try:
            job = await future
        except SpecError as exc:
            return 400, {"error": str(exc)}, ()
        except Exception as exc:            # journal failure etc.
            return 500, {"error": f"submit failed: {exc}"}, ()
        return 200, job, ()

    async def _handle_flow(self, headers: dict, body: dict):
        """Admit a whole DAG spec (``POST /api/flow``).

        One bucket token per request, but quota/depth admission charges
        the *expanded node count* — a 3×3 sweep occupies nine active
        slots, so a tenant cannot smuggle a fleet past ``max_active``
        inside one flow.  ``daemon.submit_flow`` is already a single
        group commit, so the request skips the committer queue and
        runs on the executor directly.
        """
        from ..flow.spec import validate_flow

        tenant = self._tenant_for(headers)
        if tenant is None:
            return 403, {"error": "unknown tenant "
                         f"'{headers.get('x-repro-tenant')}'"}, ()
        try:
            nodes = await self._loop.run_in_executor(
                None, validate_flow, body)
        except SpecError as exc:
            return 400, {"error": str(exc)}, ()
        count = len(nodes)
        retry = tenant.admit(time.monotonic())
        if retry > 0.0:
            tenant.throttled += 1
            return 429, {"error": "tenant rate limit exceeded",
                         "retry_after": round(retry, 3)}, (
                ("Retry-After", f"{retry:.3f}"),)
        policy = tenant.policy
        if (policy.max_active is not None
                and tenant.active + count > policy.max_active):
            tenant.rejected += 1
            return 429, {"error": "tenant active-job quota exceeded",
                         "retry_after": self.config.retry_after}, (
                ("Retry-After", f"{self.config.retry_after:.3f}"),)
        if self._active_jobs + count > self.config.max_queue_depth:
            self._rejected_depth += 1
            return 429, {"error": "queue depth exceeded",
                         "retry_after": self.config.retry_after}, (
                ("Retry-After", f"{self.config.retry_after:.3f}"),)
        tenant.active += count
        self._active_jobs += count
        try:
            payload = await self._loop.run_in_executor(
                None, lambda: self.daemon.submit_flow(
                    body, boost=policy.priority_boost))
        except SpecError as exc:
            for _ in range(count):
                self._release(tenant)
            return 400, {"error": str(exc)}, ()
        except Exception as exc:            # journal failure etc.
            for _ in range(count):
                self._release(tenant)
            return 500, {"error": f"flow submit failed: {exc}"}, ()
        tenant.submitted += count
        for job in payload["nodes"].values():
            # Same race as _resolve_submits: a worker may already have
            # finished a node; its terminal event is parked in
            # _early_terminal and must release the slot now.
            if self._early_terminal.pop(job["id"], None) is not None:
                self._release(tenant)
            else:
                self._job_owner[job["id"]] = tenant
        return 200, payload, ()

    def _commit_loop(self) -> None:
        """Committer thread: drain queued submits into group commits.

        Runs ``daemon.submit_many`` (journal fsync) off the loop; under
        load the drain naturally batches every submit that arrived
        while the previous group was fsyncing.
        """
        while True:
            item = self._submit_queue.get()
            if item is _STOP:
                return
            items = [item]
            while len(items) < self.config.submit_group_limit:
                try:
                    extra = self._submit_queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    self._submit_queue.put(extra)
                    break
                items.append(extra)
            try:
                outcomes = self.daemon.submit_many(
                    [(it.kind, it.spec, it.priority, it.after)
                     for it in items])
            except Exception as exc:
                outcomes = [exc] * len(items)
            self._loop.call_soon_threadsafe(self._resolve_submits,
                                            items, outcomes)

    def _resolve_submits(self, items: list[_SubmitItem],
                         outcomes: list) -> None:
        """Loop-side: settle submit futures + start tenant accounting."""
        for item, outcome in zip(items, outcomes):
            if isinstance(outcome, Exception):
                self._release(item.tenant)
                if not item.future.done():
                    item.future.set_exception(outcome)
                continue
            job_id = outcome["id"]
            item.tenant.submitted += 1
            # A worker may have finished the job before this callback
            # ran; the terminal event is parked in _early_terminal.
            if self._early_terminal.pop(job_id, None) is not None:
                self._release(item.tenant)
            else:
                self._job_owner[job_id] = item.tenant
            if not item.future.done():
                item.future.set_result(outcome)

    # -- transition fan-out ----------------------------------------------

    def _on_transition(self, blob: dict) -> None:
        """Daemon listener (worker threads) → loop-side fan-out.

        Transitions are buffered and drained with one loop wakeup per
        burst — under load a 64-job batch commit is 64 events, and one
        ``call_soon_threadsafe`` socketpair write each would make the
        loop thrash."""
        with self._transition_lock:
            self._transition_buf.append(blob)
            if self._transition_scheduled:
                return
            self._transition_scheduled = True
        try:
            self._loop.call_soon_threadsafe(self._drain_transitions)
        except RuntimeError:
            pass                            # loop already closed

    def _drain_transitions(self) -> None:
        with self._transition_lock:
            buffered = self._transition_buf
            self._transition_buf = []
            self._transition_scheduled = False
        for blob in buffered:
            self._fanout(blob)

    def _fanout(self, blob: dict) -> None:
        job_id = blob["id"]
        for watcher in self._watchers.get(job_id, ()):
            watcher.put_nowait(blob)
        if blob["state"] in TERMINAL_STATES:
            owner = self._job_owner.pop(job_id, None)
            if owner is not None:
                self._release(owner)
            else:
                self._early_terminal[job_id] = blob["state"]
                while len(self._early_terminal) > _EARLY_TERMINAL_CAP:
                    self._early_terminal.pop(
                        next(iter(self._early_terminal)))

    # -- HTTP plumbing ----------------------------------------------------

    def _client_connected(self, reader, writer) -> None:
        task = self._loop.create_task(self._serve_conn(reader, writer))
        self._conns.add(task)
        task.add_done_callback(self._conns.discard)

    async def _serve_conn(self, reader, writer) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    return
                method, target, headers, body = request
                self._requests += 1
                keep = headers.get("connection", "").lower() != "close"
                if not await self._dispatch(method, target, headers,
                                            body, writer, keep):
                    return
                if not keep:
                    return
        except _BadRequest as exc:
            await self._send_json(writer, exc.status, {"error": str(exc)},
                                  keep_alive=False)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            self._disconnects += 1
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            try:
                await self._send_json(writer, 500,
                                      {"error": f"internal: {exc}"},
                                      keep_alive=False)
            except (ConnectionResetError, BrokenPipeError):
                self._disconnects += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader):
        """Parse one request; ``None`` on clean EOF between requests."""
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise _BadRequest("request line too long") from None
        if not line:
            return None
        parts = line.decode("latin-1", "replace").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest("malformed request line")
        method, target = parts[0], parts[1]
        headers: dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                raise _BadRequest("header line too long") from None
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise _BadRequest("truncated headers")
            name, sep, value = raw.decode("latin-1",
                                          "replace").partition(":")
            if not sep:
                raise _BadRequest("malformed header line")
            headers[name.strip().lower()] = value.strip()
            if len(headers) > 128:
                raise _BadRequest("too many headers")
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _BadRequest("invalid Content-Length") from None
        if length < 0:
            raise _BadRequest("invalid Content-Length")
        if length > self.config.max_body_bytes:
            # Answered before a byte of the body is read; the connection
            # closes, so the unread body never reaches the parser.
            raise _BadRequest("request body too large", 413)
        data = b""
        while len(data) < length:
            chunk = await reader.read(length - len(data))
            if not chunk:
                break                       # client hung up early
            data += chunk
        return method, target, headers, data

    async def _send_json(self, writer, code: int, payload, *,
                         keep_alive: bool = True,
                         extra_headers=()) -> None:
        body = (json.dumps(payload, ensure_ascii=False,
                           sort_keys=True) + "\n").encode("utf-8")
        head = [f"HTTP/1.1 {code} {_REASONS.get(code, 'OK')}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}"]
        head.extend(f"{name}: {value}" for name, value in extra_headers)
        if not keep_alive:
            head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()

    async def _dispatch(self, method, target, headers, body,
                        writer, keep) -> bool:
        """Route one request.  Returns False if the response owned the
        connection (SSE) and the keep-alive loop must stop."""
        daemon = self.daemon
        url = urlsplit(target)
        path = url.path.rstrip("/")
        send = lambda code, payload, extra=(): self._send_json(
            writer, code, payload, keep_alive=keep, extra_headers=extra)
        try:
            if method == "GET":
                if path == "/api/health":
                    blob = await self._loop.run_in_executor(
                        None, daemon.health)
                    await send(200, blob)
                elif path == "/api/jobs":
                    ids_raw = parse_qs(url.query).get("ids")
                    ids = None
                    if ids_raw:
                        ids = [job_id for chunk in ids_raw
                               for job_id in chunk.split(",") if job_id]
                    await send(200, daemon.jobs(ids))
                elif path == "/api/states":
                    # Minimal polling payload: id → state for the
                    # requested ids (unknown ids omitted).  High-rate
                    # pollers use this instead of full job dicts.
                    ids_raw = parse_qs(url.query).get("ids")
                    ids = [job_id for chunk in ids_raw or ()
                           for job_id in chunk.split(",") if job_id]
                    table = daemon.store.jobs
                    states = {}
                    for job_id in ids:
                        job = table.get(job_id)
                        if job is not None:
                            states[job_id] = job.state
                    await send(200, states)
                elif path == "/api/gateway":
                    await send(200, self._gateway_stats())
                elif path.startswith("/api/events/"):
                    await self._handle_events(path.rsplit("/", 1)[1],
                                              writer)
                    return False
                elif path.startswith("/api/job/"):
                    job = daemon.job(path.rsplit("/", 1)[1])
                    if job is None:
                        await send(404, {"error": "unknown job"})
                    else:
                        await send(200, job)
                elif path.startswith("/api/result/"):
                    job_id = path.rsplit("/", 1)[1]
                    job = daemon.job(job_id)
                    if job is None:
                        await send(404, {"error": "unknown job"})
                    elif job["state"] != "done":
                        await send(409, {"error": f"job is "
                                         f"{job['state']}", "job": job})
                    else:
                        blob = await self._loop.run_in_executor(
                            None, daemon.result, job_id)
                        if blob is None:
                            await send(500,
                                       {"error": "result unavailable"})
                        else:
                            await send(200, blob)
                else:
                    await send(404, {"error": f"unknown path {target}"})
            elif method == "POST":
                if path == "/api/submit":
                    parsed = self._parse_body(body)
                    code, payload, extra = await self._handle_submit(
                        headers, parsed)
                    await send(code, payload, extra)
                elif path == "/api/flow":
                    parsed = self._parse_body(body)
                    code, payload, extra = await self._handle_flow(
                        headers, parsed)
                    await send(code, payload, extra)
                elif path.startswith("/api/cancel/"):
                    job_id = path.rsplit("/", 1)[1]
                    job = await self._loop.run_in_executor(
                        None, daemon.cancel, job_id)
                    if job is not None:
                        await send(200, job)
                    elif daemon.job(job_id) is None:
                        await send(404, {"error": "unknown job"})
                    else:
                        await send(409, {"error": "job is not queued",
                                         "job": daemon.job(job_id)})
                else:
                    await send(404, {"error": f"unknown path {target}"})
            else:
                await send(404, {"error": f"unsupported method "
                                 f"{method}"})
        except _BadRequest as exc:
            await self._send_json(writer, exc.status, {"error": str(exc)},
                                  keep_alive=False)
            return False
        return True

    @staticmethod
    def _parse_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            blob = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise _BadRequest("request body is not valid JSON") from None
        if not isinstance(blob, dict):
            raise _BadRequest("request body must be a JSON object")
        return blob

    def _gateway_stats(self) -> dict:
        return {
            "active_jobs": self._active_jobs,
            "max_queue_depth": self.config.max_queue_depth,
            "requests": self._requests,
            "disconnects": self._disconnects,
            "rejected_queue_depth": self._rejected_depth,
            "tenants": {name: state.stats()
                        for name, state in self._tenants.items()},
            "default_tenant": self._default_tenant.stats(),
        }

    # -- SSE --------------------------------------------------------------

    async def _handle_events(self, job_id: str, writer) -> None:
        """Stream ``event: state`` messages until the job is terminal.

        The watcher queue registers *before* the snapshot read, so a
        transition racing the snapshot is delivered (possibly twice —
        at-least-once is the contract) rather than lost.
        """
        watcher: asyncio.Queue = asyncio.Queue()
        queues = self._watchers.setdefault(job_id, [])
        queues.append(watcher)
        try:
            job = self.daemon.job(job_id)
            if job is None:
                await self._send_json(writer, 404,
                                      {"error": "unknown job"},
                                      keep_alive=False)
                return
            writer.write(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: text/event-stream\r\n"
                         b"Cache-Control: no-cache\r\n"
                         b"Connection: close\r\n\r\n")
            await self._write_event(writer, job)
            if job["state"] in TERMINAL_STATES:
                return
            while True:
                try:
                    blob = await asyncio.wait_for(
                        watcher.get(), self.config.sse_heartbeat)
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    continue
                await self._write_event(writer, blob)
                if blob["state"] in TERMINAL_STATES:
                    return
        except (ConnectionResetError, BrokenPipeError):
            self._disconnects += 1
        finally:
            queues.remove(watcher)
            if not queues:
                self._watchers.pop(job_id, None)

    async def _write_event(self, writer, blob: dict) -> None:
        data = json.dumps(blob, ensure_ascii=False, sort_keys=True)
        writer.write(f"event: state\ndata: {data}\n\n".encode("utf-8"))
        await writer.drain()


class GatewayServer:
    """Thread-hosted gateway for tests, benchmarks and embedding.

    ``start()`` blocks until the socket is bound (the bound port is in
    ``.port`` / ``.url``); ``stop()`` shuts the loop down and joins the
    thread.  The daemon's lifecycle stays the caller's job.
    """

    def __init__(self, daemon: Daemon, host: str = "127.0.0.1",
                 port: int = 0, config: GatewayConfig | None = None):
        self.gateway = Gateway(daemon, host=host, port=port,
                               config=config)
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.gateway.host

    @property
    def port(self) -> int:
        return self.gateway.port

    @property
    def url(self) -> str:
        return self.gateway.url

    def start(self) -> "GatewayServer":
        self._thread = threading.Thread(target=self._run,
                                        name="gateway-loop", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._error is not None:
            raise self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:       # surface bind errors etc.
            if not self._started.is_set():
                self._error = exc
                self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.gateway.start()
        self._started.set()
        await self._stop_event.wait()
        await self.gateway.close()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass
        self._thread.join()
        self._thread = None
