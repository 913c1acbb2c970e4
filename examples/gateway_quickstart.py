"""Quickstart: the asyncio multi-tenant serving gateway.

Boots a :class:`~repro.serve.GatewayServer` in front of a daemon with
three tenant tiers, then walks the gateway's contract end to end:

1. tenant routing — requests carry ``X-Repro-Tenant`` and inherit that
   tenant's rate limit / quota / priority boost;
2. backpressure — a tiny token bucket turns the fourth rapid submit
   into a ``429`` whose ``Retry-After`` header says when to come back;
3. live progress — ``GET /api/events/<id>`` streams job state
   transitions as Server-Sent Events until the job is terminal;
4. observability — ``GET /api/gateway`` reports per-tenant admission
   counters next to the global queue depth.

Run it with::

    python examples/gateway_quickstart.py

The CLI equivalent, against a long-lived gateway::

    repro serve --store /tmp/serve-store --workers 2 \
        --tenant 'vip=50:100:256:10' --tenant 'batch=5:10' &
    repro submit --tenant vip probe --payload smoke-test
    repro status
"""

import json
import socket
import tempfile
from urllib.parse import urlsplit

from repro.serve import (Daemon, GatewayConfig, GatewayServer,
                         ServeClient, ServeError, TenantPolicy)


def stream_events(url: str, job_id: str, tenant: str) -> list[str]:
    """Read the SSE stream for one job until a terminal state arrives."""
    parts = urlsplit(url)
    states = []
    with socket.create_connection((parts.hostname, parts.port),
                                  timeout=30) as sock:
        sock.sendall((f"GET /api/events/{job_id} HTTP/1.1\r\n"
                      f"Host: quickstart\r\n"
                      f"X-Repro-Tenant: {tenant}\r\n\r\n")
                     .encode("latin-1"))
        buffer = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            buffer += chunk
            # SSE frames are newline-delimited; only parse whole lines.
            complete, _, buffer = buffer.rpartition(b"\n")
            for line in complete.splitlines():
                if not line.startswith(b"data:"):
                    continue
                event = json.loads(line[5:])
                states.append(event["state"])
                if event["state"] in ("done", "failed", "cancelled"):
                    return states
    return states


def main() -> None:
    store = tempfile.mkdtemp(prefix="repro-gateway-")

    daemon = Daemon(store, workers=2)
    daemon.start()
    config = GatewayConfig(
        max_queue_depth=256,
        tenants={
            # Paid tier: fast refill, deep quota, scheduler boost.
            "vip": TenantPolicy(name="vip", rate=50.0, burst=100,
                                max_active=128, priority_boost=10),
            # Best-effort batch tier: 3-token bucket, slow refill.
            "batch": TenantPolicy(name="batch", rate=2.0, burst=3),
        },
    )
    server = GatewayServer(daemon, config=config).start()
    print(f"gateway listening on {server.url}")

    print()
    print("=" * 70)
    print("1. Tenant routing: vip submits outrank batch in the queue")
    print("=" * 70)
    vip = ServeClient(server.url, tenant="vip")
    batch = ServeClient(server.url, tenant="batch")
    job = vip.submit("probe", {"payload": "hello"}, priority=1)
    print(f"  vip submit    -> {job['id']} "
          f"priority {job['priority']} (1 + boost 10)")
    job_id = job["id"]

    print()
    print("=" * 70)
    print("2. Backpressure: the batch bucket empties after 3 submits")
    print("=" * 70)
    for index in range(4):
        try:
            job = batch.submit("probe", {"payload": index})
            print(f"  batch submit {index} -> 200 {job['id']}")
        except ServeError as error:
            print(f"  batch submit {index} -> {error.status} "
                  f"rate limited, Retry-After {error.retry_after}s")

    print()
    print("=" * 70)
    print("3. SSE progress: every transition for one job, streamed")
    print("=" * 70)
    states = stream_events(server.url, job_id, "vip")
    print(f"  {job_id}: " + " -> ".join(states))
    print(f"  result sha256: {vip.result(job_id)['sha256'][:16]}…")

    print()
    print("=" * 70)
    print("4. Gateway stats: admission counters per tenant")
    print("=" * 70)
    stats = vip.gateway()
    print(f"  active jobs: {stats['active_jobs']} / "
          f"{stats['max_queue_depth']}")
    for name, tenant in sorted(stats["tenants"].items()):
        print(f"  {name:<7} submitted {tenant['submitted']:>2}  "
              f"rate-throttled {tenant['throttled']}  "
              f"quota-blocked {tenant['rejected']}")

    vip.wait([job_id], timeout=60)
    server.stop()
    daemon.stop()


if __name__ == "__main__":
    main()
