"""The ``serve-mix`` workload: a closed-loop client against the gateway.

Set-up starts ``repro serve --gateway`` (daemon defaults: two worker
threads) in a subprocess through ``servehost.py`` and trains one model
with an augment → train submission.  Then one closed-loop client runs
rounds of a ``simulate`` job (a thakur reference plus its testbench)
followed by an ``infer`` job (one thakur prompt, ``max_tokens=32``),
both drawn from the seed.  One client, because the gateway's own
threads already fill the two CPUs the benchmark is sized for: a second
client made the latency measure the scheduler.  End-to-end latency is
per round: the two kinds differ four-fold in latency, so the median of
single requests falls between two modes and jumps from run to run.  Per
request the client:

1. has opened the SSE connection it will watch the job on (untimed),
2. submits (``submit`` time ends at the acknowledgement),
3. reads ``/api/events/<id>`` and notes when it first sees ``running``
   (``queue`` time) and the terminal state (``run`` time),
4. fetches the result blob over its keep-alive connection (``result``
   time).

State transitions arrive as they are journaled, so no poll interval
sets a floor on the split.  Every result blob is afterwards compared
byte for byte with ``execute_job`` run directly on the same spec.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

from passes import write_corpus

HERE = os.path.dirname(os.path.abspath(__file__))
#: The gateway's peak RSS grows with the jobs it has served, so it is
#: read once this many are done, however many more the window holds.
RSS_AT_JOBS = 400
#: One client round: these job kinds, one after the other.
KINDS = ("simulate", "infer")
MODEL = "serve-model"
TERMINAL = ("done", "failed", "cancelled")


class Api:
    """One keep-alive HTTP/1.1 connection to the gateway."""

    def __init__(self, host: str, port: int):
        self.conn = http.client.HTTPConnection(host, port, timeout=60)

    def call(self, method: str, path: str, body: dict | None = None):
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data else {}
        self.conn.request(method, path, body=data, headers=headers)
        reply = self.conn.getresponse()
        return reply.status, json.loads(reply.read() or b"null")

    def close(self) -> None:
        self.conn.close()


def watch(conn: http.client.HTTPConnection, job_id: str) -> dict:
    """Follow a job's SSE stream to its end; ``{state: first seen at}``."""
    conn.request("GET", f"/api/events/{job_id}")
    reply = conn.getresponse()
    seen: dict[str, float] = {}
    try:
        if reply.status != 200:
            raise RuntimeError(f"events stream answered {reply.status}")
        while True:
            line = reply.readline()
            if not line:
                raise RuntimeError(f"events stream of {job_id} ended early")
            if not line.startswith(b"data: "):
                continue
            state = json.loads(line[6:])["state"]
            seen.setdefault(state, time.perf_counter())
            if state in TERMINAL:
                return seen
    finally:
        conn.close()


class Server:
    """A gateway subprocess with its own store directory."""

    def __init__(self, workdir: str, env: dict, trace: bool):
        os.makedirs(workdir, exist_ok=True)
        self.report_path = os.path.join(workdir, "host.json")
        self.log_path = os.path.join(workdir, "server.log")
        args = [sys.executable, os.path.join(HERE, "servehost.py"),
                self.report_path, "1" if trace else "0", "--",
                "serve", "--gateway", "--host", "127.0.0.1", "--port", "0",
                "--store", os.path.join(workdir, "store")]
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(args, stdout=log,
                                         stderr=subprocess.STDOUT, env=env)
        self.host, self.port = self._wait_bound(60.0)

    def _wait_bound(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as log:
                for line in log:
                    if line.startswith("-- serving on http://"):
                        address = line.split("http://", 1)[1].split()[0]
                        host, port = address.rsplit(":", 1)
                        return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"gateway did not start; see {self.log_path}")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> dict:
        """Stop the server, wait for it, and return its host report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            with open(self.report_path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}


def submit_and_wait(api: Api, server: Server, kind: str, spec: dict,
                    after: list[str] | None = None) -> tuple[str, dict]:
    status, job = api.call("POST", "/api/submit",
                           {"kind": kind, "spec": spec,
                            "after": after or []})
    if status != 200:
        raise RuntimeError(f"{kind} submit answered {status}: {job}")
    seen = watch(http.client.HTTPConnection(server.host, server.port,
                                            timeout=120), job["id"])
    if "done" not in seen:
        raise RuntimeError(f"{kind} job {job['id']} ended {list(seen)}")
    status, blob = api.call("GET", f"/api/result/{job['id']}")
    if status != 200:
        raise RuntimeError(f"{kind} result answered {status}")
    return job["id"], blob


def set_up(workdir: str, env: dict, seed: int, trace: bool,
           smoke: bool) -> tuple[Server, str, dict, float]:
    """Start a gateway and train the served model through it."""
    start = time.perf_counter()
    paths = write_corpus(os.path.join(workdir, "corpus"),
                         4 if smoke else 16, seed)
    server = Server(workdir, env, trace)
    api = Api(server.host, server.port)
    try:
        corpus = {"paths": paths, "seed": seed}
        augment_id, _ = submit_and_wait(api, server, "augment", corpus)
        train_spec = dict(corpus, register_as=MODEL,
                          **({"epochs": 1, "max_records": 16} if smoke
                             else {}))
        train_id, train_blob = submit_and_wait(api, server, "train",
                                               train_spec, [augment_id])
    except Exception:
        server.stop()
        raise
    finally:
        api.close()
    return server, train_id, train_blob, time.perf_counter() - start


class Requests:
    """Seeded request specs over the thakur suite."""

    def __init__(self, train_id: str):
        from repro.bench import thakur_suite
        from repro.infer.sampled import prompt_text
        self.problems = list(thakur_suite())
        self.prompt_text = prompt_text
        self.train_id = train_id

    def draw(self, rng: random.Random, kind: str) -> dict:
        problem = rng.choice(self.problems)
        if kind == "simulate":
            return {"source": problem.reference + "\n" + problem.testbench}
        level = rng.choice(("low", "middle", "high"))
        return {"prompts": [self.prompt_text(problem.prompt(level))],
                "trained": {"name": MODEL, "job": self.train_id},
                "max_tokens": 32, "temperature": 0.0, "seed": 0}


def one_request(api: Api, sse: http.client.HTTPConnection, kind: str,
                spec: dict) -> dict:
    """Submit one job, follow it on ``sse`` and fetch its result."""
    record = {"kind": kind, "spec": spec, "ok": False}
    start = time.perf_counter()
    try:
        status, job = api.call("POST", "/api/submit",
                               {"kind": kind, "spec": spec})
        acked = time.perf_counter()
        record["status"] = status
        if status == 429:
            time.sleep(float(job.get("retry_after", 0.05)))
            return record
        if status != 200:
            return record
        seen = watch(sse, job["id"])
        ended = seen[next(s for s in TERMINAL if s in seen)]
        running = seen.get("running", ended)
        status, blob = api.call("GET", f"/api/result/{job['id']}")
        fetched = time.perf_counter()
        record.update(ok=status == 200, blob=blob, submit=acked - start,
                      queue=running - acked, run=ended - running,
                      result=fetched - ended, latency=fetched - start)
    except (OSError, http.client.HTTPException, RuntimeError, ValueError,
            KeyError) as exc:
        record["error"] = repr(exc)
    return record


def peak_rss_mb(pid: int) -> float | None:
    """A live process's peak RSS so far (``VmHWM``), or None."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return None


def drive(server: Server, requests: Requests, seed: int, seconds: float,
          limit: int | None) -> dict:
    """Run the closed-loop client for ``seconds``.

    Each round is a ``simulate`` job and then an ``infer`` job; the
    round's latency runs from the first submit to the second result.
    Returns the job records, the round latencies and the server's peak
    RSS once :data:`RSS_AT_JOBS` jobs were done."""
    out: dict = {"records": [], "rounds": [], "rss_mb": None}
    rng = random.Random(f"serve-mix-{seed}")
    api = Api(server.host, server.port)
    start = time.perf_counter()
    done = 0
    try:
        while time.perf_counter() < start + seconds and (
                limit is None or len(out["rounds"]) < limit):
            streams = [http.client.HTTPConnection(
                server.host, server.port, timeout=60) for _ in KINDS]
            try:
                for sse in streams:
                    sse.connect()
            except OSError as exc:
                for sse in streams:
                    sse.close()
                out["records"].append({"kind": "connect", "ok": False,
                                       "error": repr(exc)})
                continue
            records = []
            began = time.perf_counter()
            for kind, sse in zip(KINDS, streams):
                records.append(one_request(api, sse, kind,
                                           requests.draw(rng, kind)))
                if not records[-1]["ok"]:
                    break
            latency = time.perf_counter() - began
            for sse in streams:
                sse.close()
            out["records"].extend(records)
            if all(record["ok"] for record in records) and \
                    len(records) == len(KINDS):
                out["rounds"].append(latency)
            done += sum(record["ok"] for record in records)
            if out["rss_mb"] is None and done >= RSS_AT_JOBS:
                out["rss_mb"] = peak_rss_mb(server.proc.pid)
    finally:
        api.close()
    return out


def canonical(blob) -> str:
    return json.dumps(blob, sort_keys=True, ensure_ascii=False)


def verify(records: list, train_id: str, train_blob: dict,
           workdir: str) -> None:
    """Mark failed every record whose blob differs from ``execute_job``
    run directly on the same spec (once per distinct spec)."""
    from repro.serve.executor import execute_job
    resolve = {train_id: train_blob}.get
    expected: dict[str, str] = {}
    for record in records:
        if not record["ok"]:
            continue
        key = canonical([record["kind"], record["spec"]])
        if key not in expected:
            expected[key] = canonical(execute_job(
                record["kind"], record["spec"],
                os.path.join(workdir, "direct"), resolve=resolve))
        if canonical(record["blob"]) != expected[key]:
            record["ok"] = False
            record["error"] = "result differs from direct execute_job"


def pct(values: list[float], q: int) -> float:
    """The q-th percentile (exclusive method); 0 with no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def sim_health(api: Api) -> dict:
    from layers import sim_counters
    _, health = api.call("GET", "/api/health")
    return sim_counters(health["sim_backend"])


def window(server: Server, requests: Requests, seed: int, seconds: float,
           limit: int | None, train_id: str, train_blob: dict,
           workdir: str) -> dict:
    """Measure one closed-loop window against a running server."""
    api = Api(server.host, server.port)
    sim_before = sim_health(api)
    out = drive(server, requests, seed, seconds, limit)
    records = out["records"]
    sim_after = sim_health(api)
    _, gateway = api.call("GET", "/api/gateway")
    api.close()
    verify(records, train_id, train_blob, workdir)
    done = [r for r in records if r["ok"]]
    # 429s seen in submit replies, or counted by the gateway's admission
    # control if that is more (its counters span the server's life).
    admission = gateway["default_tenant"]
    throttled = max(sum(1 for r in records if r.get("status") == 429),
                    admission.get("throttled", 0)
                    + admission.get("rejected", 0)
                    + gateway.get("rejected_queue_depth", 0))
    return {"records": records, "done": done, "rounds": out["rounds"],
            "rss_mb": out["rss_mb"],
            "attempted": len(records), "failed": len(records) - len(done),
            "throttled": throttled,
            "sim": {key: sim_after[key] - sim_before[key]
                    for key in sim_after}}


def client_metrics(measured: dict) -> dict[str, float]:
    """The client-side ``serve.*`` split of one window, in ms."""
    done = measured["done"]

    def ms(field, kind=None):
        return [1000 * r[field] for r in done
                if kind is None or r["kind"] == kind]

    return {"serve.submit_ms.p50": pct(ms("submit"), 50),
            "serve.submit_ms.p99": pct(ms("submit"), 99),
            "serve.queue_ms.p50": pct(ms("queue"), 50),
            "serve.run_ms.p50": pct(ms("run"), 50),
            "serve.result_ms.p50": pct(ms("result"), 50),
            "serve.infer_ms.p50": pct(ms("latency", "infer"), 50),
            "serve.simulate_ms.p50": pct(ms("latency", "simulate"), 50),
            "serve.request_ms.p99": pct(ms("latency"), 99),
            "serve.throttled_429": measured["throttled"]}


def run(workdir: str, env: dict, seed: int, seconds: float, trace: bool,
        smoke: bool) -> dict:
    """One benchmark invocation of serve-mix (see ``run.py``)."""
    limit = 3 if smoke else None
    if not trace:
        return _run_untraced(workdir, env, seed, seconds, smoke, limit)
    return _run_traced(workdir, env, seed, seconds, smoke, limit)


def _run_untraced(workdir, env, seed, seconds, smoke, limit) -> dict:
    setups, digests = [], set()
    count = 1 if smoke else 3
    for index in range(count):
        server, train_id, train_blob, setup_s = set_up(
            os.path.join(workdir, f"setup-{index}"), env, seed, False,
            smoke)
        setups.append(setup_s)
        digests.add(train_blob["weights_sha256"])
        if index < count - 1:
            server.stop()
    try:
        requests = Requests(train_id)
        measured = window(server, requests, seed, seconds, limit,
                          train_id, train_blob, workdir)
    finally:
        host = server.stop()
    rounds = measured["rounds"]
    p50_s = pct(rounds, 50)
    # Set-ups of one seed must train bit-identical weights.
    failed = measured["failed"] + (len(digests) - 1)
    return {"attempted": measured["attempted"] + count, "failed": failed,
            "samples": len(rounds),
            "metrics": {
                "setup_s": statistics.median(setups),
                "p50_ms": 1000 * p50_s,
                # As on the pass workloads: the rate at the median
                # operation.  Jobs done over the window moved twice as
                # much from run to run, with every stall of the host.
                "ops_per_s": len(KINDS) / p50_s if rounds else 0.0,
                # Smoke windows end before RSS_AT_JOBS: peak at exit.
                "peak_rss_mb": measured["rss_mb"]
                or host.get("peak_rss_mb", 0.0)}}


def _run_traced(workdir, env, seed, seconds, smoke, limit) -> dict:
    halves = {}
    for traced in (False, True):
        server, train_id, train_blob, _ = set_up(
            os.path.join(workdir, f"traced-{int(traced)}"), env, seed,
            traced, smoke)
        try:
            if traced:
                server.signal(signal.SIGUSR1)
            measured = window(server, Requests(train_id), seed,
                              seconds / 2, limit, train_id, train_blob,
                              workdir)
        finally:
            host = server.stop()
        halves[traced] = dict(measured, host=host)
    plain, traced = halves[False], halves[True]
    metrics = dict(traced["host"].get("layers", {}))
    metrics.update(traced["sim"])
    metrics.pop("sim.runs", None)
    metrics.update(client_metrics(plain))

    def median_latency(measured):
        return statistics.median(measured["rounds"] or [0.0])

    def share(measured):
        total = sum(r["latency"] for r in measured["done"])
        return 1 - sum(r["run"] for r in measured["done"]) / total \
            if total else 0.0

    metrics["trace.overhead_s"] = median_latency(traced) \
        - median_latency(plain)
    metrics["trace.unattributed_share"] = share(traced)
    metrics["exact.mismatches"] = 0
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return {"attempted": attempted, "failed": failed,
            "samples": len(plain["rounds"]) + len(traced["rounds"]),
            "metrics": metrics}
