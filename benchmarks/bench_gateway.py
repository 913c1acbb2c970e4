"""Scenario benchmarks for the asyncio serving gateway.

Three scenarios in the fixed-total/fixed-concurrency style (stress,
cold-start, kill-a-worker-mid-drain), each reporting wall time,
sustained jobs/s and p50/p95/p99 end-to-end latency where it applies.
Results merge into ``BENCH_serve.json`` under ``"scenarios"`` next to
``bench_serve.py``'s single-client numbers, so the serving-layer
trajectory is tracked per PR.

* **stress** — C concurrent keep-alive clients each push M probe jobs
  through ``POST /api/submit`` with a bounded in-flight window; one
  watcher polls a single batched ``GET /api/jobs?ids=…`` query.
  Latency is submit-request → observed-terminal per job.
* **cold_start** — journal a probe backlog, hard-stop, then measure
  store replay, gateway time-to-first-health, and backlog drain.
* **kill_worker** — a real ``repro serve`` subprocess is
  SIGKILLed mid-drain and restarted; the round trip must lose nothing
  and the re-drain time is reported.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from urllib.parse import urlsplit

from repro.serve import (Daemon, GatewayConfig, GatewayServer, JobStore,
                         ServeClient, TERMINAL_STATES)

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
RESULT_PATH = os.path.join(REPO, "BENCH_serve.json")

STRESS_CLIENTS = 32
STRESS_JOBS_PER_CLIENT = 125
STRESS_WINDOW = 8
COLD_BACKLOG = 300
KILL_JOBS = 60
KILL_SLEEP_MS = 10


def _percentiles(samples: list[float]) -> dict:
    ordered = sorted(samples)
    pick = lambda q: ordered[min(len(ordered) - 1,
                                 int(q * len(ordered)))]
    return {"p50_ms": round(pick(0.50) * 1000, 2),
            "p95_ms": round(pick(0.95) * 1000, 2),
            "p99_ms": round(pick(0.99) * 1000, 2)}


class _Conn:
    """Minimal keep-alive HTTP/1.1 client over asyncio streams."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, url: str) -> "_Conn":
        parts = urlsplit(url)
        reader, writer = await asyncio.open_connection(
            parts.hostname, parts.port)
        return cls(reader, writer)

    async def request(self, method: str, path: str,
                      body: dict | None = None):
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n")
        self.writer.write(head.encode("latin-1") + payload)
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        blob = json.loads(await self.reader.readexactly(length))
        return status, blob, headers

    def close(self) -> None:
        self.writer.close()


async def _stress_run(url: str) -> dict:
    total = STRESS_CLIENTS * STRESS_JOBS_PER_CLIENT
    loop = asyncio.get_running_loop()
    latencies: list[float] = []
    pending: dict[str, tuple] = {}
    throttled = 0

    async def submitter(client_index: int) -> None:
        nonlocal throttled
        conn = await _Conn.open(url)
        outstanding: set = set()
        try:
            for index in range(STRESS_JOBS_PER_CLIENT):
                while len(outstanding) >= STRESS_WINDOW:
                    done, outstanding_left = await asyncio.wait(
                        outstanding,
                        return_when=asyncio.FIRST_COMPLETED)
                    outstanding = set(outstanding_left)
                started = time.perf_counter()
                while True:
                    status, blob, headers = await conn.request(
                        "POST", "/api/submit",
                        {"kind": "probe",
                         "spec": {"payload":
                                  f"{client_index}-{index}"}})
                    if status == 200:
                        break
                    if status == 429:       # honour backpressure
                        throttled += 1
                        await asyncio.sleep(
                            float(headers.get("retry-after", "0.05")))
                        continue
                    raise RuntimeError(f"submit failed: {status} "
                                       f"{blob}")
                future = loop.create_future()
                pending[blob["id"]] = (started, future)
                outstanding.add(future)
            if outstanding:
                await asyncio.wait(outstanding)
        finally:
            conn.close()

    async def watcher() -> None:
        conn = await _Conn.open(url)
        try:
            while len(latencies) < total:
                if pending:
                    ids = list(pending)[:256]
                    _, states, _ = await conn.request(
                        "GET", "/api/states?ids=" + ",".join(ids))
                    now = time.perf_counter()
                    for job_id, state in states.items():
                        if state in TERMINAL_STATES:
                            assert state == "done", (job_id, state)
                            started, future = pending.pop(job_id)
                            latencies.append(now - started)
                            future.set_result(None)
                await asyncio.sleep(0.003)
        finally:
            conn.close()

    start = time.perf_counter()
    await asyncio.gather(watcher(),
                         *(submitter(index)
                           for index in range(STRESS_CLIENTS)))
    elapsed = time.perf_counter() - start
    result = {"jobs": total, "clients": STRESS_CLIENTS,
              "window": STRESS_WINDOW,
              "wall_s": round(elapsed, 4),
              "jobs_per_sec": round(total / elapsed, 1),
              "throttled_429": throttled}
    result.update(_percentiles(latencies))
    return result


def bench_stress(store: str) -> dict:
    """Concurrency-ramp stress: fixed request total, fixed clients."""
    daemon = Daemon(store, workers=2, batch_limit=128)
    daemon.start()
    server = GatewayServer(
        daemon, config=GatewayConfig(max_queue_depth=512)).start()
    try:
        return asyncio.run(_stress_run(server.url))
    finally:
        server.stop()
        daemon.stop()


def bench_cold_start(store: str) -> dict:
    """Journal a backlog, hard-stop, measure resume-to-drained."""
    writer = JobStore(store)
    writer.submit_many([("probe", {"payload": index, "sleep_ms": 0},
                         0, []) for index in range(COLD_BACKLOG)])
    writer._journal.close()     # hard stop: no snapshot, no compaction

    start = time.perf_counter()
    daemon = Daemon(store, workers=2, batch_limit=64)
    replay_s = time.perf_counter() - start
    server = GatewayServer(daemon).start()
    ServeClient(server.url).health()
    ready_s = time.perf_counter() - start
    daemon.start()
    assert daemon.wait_idle(timeout=300)
    drain_s = time.perf_counter() - start
    counts = daemon.store.counts()
    server.stop()
    daemon.stop()
    assert counts == {"done": COLD_BACKLOG}, counts
    return {"backlog_jobs": COLD_BACKLOG,
            "replay_s": round(replay_s, 4),
            "gateway_ready_s": round(ready_s, 4),
            "drain_s": round(drain_s, 4),
            "drain_jobs_per_sec": round(
                COLD_BACKLOG / max(drain_s - ready_s, 1e-9), 1)}


def _spawn_gateway(store: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", store,
         "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=REPO)
    url = None
    while True:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"serving on (http://\S+)", line)
        if match:
            url = match.group(1)
            break
    assert url is not None, "gateway subprocess failed to serve"
    return proc, url


def bench_kill_worker(store: str) -> dict:
    """SIGKILL a draining gateway process; restart; lose nothing."""
    proc, url = _spawn_gateway(store)
    client = ServeClient(url, timeout=10)
    ids = [client.submit("probe", {"payload": index,
                                   "sleep_ms": KILL_SLEEP_MS})["id"]
           for index in range(KILL_JOBS)]
    # Let the drain get properly underway before the kill.
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        done = sum(job["state"] == "done"
                   for job in client.jobs(ids=ids))
        if done >= KILL_JOBS // 4:
            break
        time.sleep(0.01)
    kill_at = time.perf_counter()
    proc.kill()
    proc.wait()
    proc.stdout.close()

    proc, url = _spawn_gateway(store)
    try:
        client = ServeClient(url, timeout=10)
        jobs = client.wait(ids, timeout=120)
        redrain_s = time.perf_counter() - kill_at
        lost = [job_id for job_id, job in jobs.items()
                if job["state"] != "done"]
        assert not lost, f"lost jobs across kill: {lost}"
        assert len(jobs) == KILL_JOBS
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return {"jobs": KILL_JOBS, "done_before_kill": done,
            "redrain_s": round(redrain_s, 4), "lost": 0}


def run_gateway_bench(root: str) -> dict:
    return {"stress": bench_stress(os.path.join(root, "stress")),
            "cold_start": bench_cold_start(os.path.join(root, "cold")),
            "kill_worker": bench_kill_worker(
                os.path.join(root, "kill"))}


def test_gateway_scenarios(once, benchmark, tmp_path):
    scenarios = once(run_gateway_bench, str(tmp_path))
    benchmark.extra_info.update(
        {f"stress_{key}": value
         for key, value in scenarios["stress"].items()})
    merged = {}
    try:
        with open(RESULT_PATH, encoding="utf-8") as handle:
            merged = json.load(handle)
    except (OSError, ValueError):
        pass
    merged["scenarios"] = scenarios
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n" + json.dumps(scenarios, indent=2, sort_keys=True))
    assert scenarios["stress"]["jobs"] == \
        STRESS_CLIENTS * STRESS_JOBS_PER_CLIENT
    assert scenarios["stress"]["jobs_per_sec"] > 0
    assert scenarios["kill_worker"]["lost"] == 0
