"""Crash-safe job service over augment / train / evaluate / simulate.

The service front-end the ROADMAP's production north star needs: the
batch subsystems (``repro.scale``, ``repro.train``, ``repro.eval``,
``repro.sim``) become first-class *jobs* behind a long-lived daemon,
chainable into dependency DAGs (``after``) — ``repro pipeline`` runs
augment → train → evaluate as one, with the evaluate stage scoring the
freshly trained model —

* :mod:`jobs`      — job model + spec validation + dependency edges
* :mod:`store`     — :class:`JobStore`: append-only JSONL journal +
  atomic snapshot; every transition journaled (group-committed: N
  events behind one fsync), kill-and-resume safe
* :mod:`scheduler` — priority/FIFO queues, per-kind budgets,
  fingerprint-compatible batching
* :mod:`executor`  — deterministic job execution (results are pure
  functions of the spec; byte-identical direct vs daemon vs resumed)
* :mod:`daemon`    — store + scheduler + worker threads: the
  execution backend
* :mod:`gateway`   — the one HTTP front end: the JSON API on one
  asyncio event loop for thousands of connections, ``X-Repro-Tenant``
  token-bucket rate limits and quotas, SSE job-progress streams
  (``GET /api/events/<id>``), and 429 + ``Retry-After`` backpressure
  once queue depth or a tenant budget is exhausted
* :mod:`client`    — stdlib client used by the CLI and tests (batched
  ``wait()``, tenant header support)

Proven by the fault-injection harness in
``tests/test_serve_recovery.py`` and stress-tested
by the scenario benchmarks in ``benchmarks/bench_gateway.py``; see
ROADMAP "repro.serve".
"""

from .client import DEFAULT_URL, ServeClient, ServeError
from .daemon import DEFAULT_PORT, Daemon
from .executor import (BatchResult, JobOutcome, compat_key, execute_batch,
                       execute_job)
from .gateway import Gateway, GatewayConfig, GatewayServer, TenantPolicy
from .jobs import (JOB_KINDS, JOB_STATES, TERMINAL_STATES, Job, SpecError,
                   validate_spec)
from .scheduler import (DEFAULT_BATCH_LIMIT, DEFAULT_BUDGETS, Batch,
                        Scheduler)
from .store import (CRASH_AFTER_ENV, CRASH_MODE_ENV,
                    STORE_FORMAT_VERSION, JobStore, StoreError)

__all__ = [
    "Job", "JOB_KINDS", "JOB_STATES", "TERMINAL_STATES", "SpecError",
    "validate_spec",
    "JobStore", "StoreError", "STORE_FORMAT_VERSION",
    "CRASH_AFTER_ENV", "CRASH_MODE_ENV",
    "Scheduler", "Batch", "DEFAULT_BUDGETS", "DEFAULT_BATCH_LIMIT",
    "compat_key", "execute_batch", "execute_job", "JobOutcome",
    "BatchResult",
    "Daemon", "DEFAULT_PORT",
    "Gateway", "GatewayConfig", "GatewayServer", "TenantPolicy",
    "ServeClient", "ServeError", "DEFAULT_URL",
]
