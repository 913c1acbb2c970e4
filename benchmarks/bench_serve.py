"""Benchmark: job-service throughput + cold-resume latency.

Measures end-to-end jobs/sec through the daemon's HTTP API, served by
the asyncio gateway (submit → schedule → execute → journal → fetch
result), and how quickly a fresh daemon resumes a journaled backlog
after a hard stop, then writes ``BENCH_serve.json`` at the repo root so
the serving-layer trajectory is tracked from PR to PR.
"""

import json
import os
import time

from repro.serve import Daemon, GatewayServer, JobStore, ServeClient

N_THROUGHPUT_JOBS = 24
N_BACKLOG_JOBS = 12
N_JOURNAL_EVENTS = 600
RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_serve.json")


def _tb_source(index: int) -> str:
    """Distinct testbenches so nothing short-circuits through caches."""
    return (f"module tb;\n"
            f"  reg [7:0] n;\n"
            f"  initial begin\n"
            f"    n = 8'd{index % 200};\n"
            f"    $display(\"PASS %0d\", n + 8'd1);\n"
            f"    $finish;\n"
            f"  end\nendmodule\n")


def _run_daemon(store: str):
    daemon = Daemon(store, workers=2)
    daemon.start()
    server = GatewayServer(daemon).start()
    return daemon, server, ServeClient(server.url)


def _shutdown(daemon, server) -> None:
    server.stop()
    daemon.stop()


def bench_throughput(store: str) -> dict:
    """End-to-end jobs/sec over the HTTP API."""
    daemon, server, client = _run_daemon(store)
    try:
        start = time.perf_counter()
        ids = [client.submit("simulate",
                             {"source": _tb_source(i)})["id"]
               for i in range(N_THROUGHPUT_JOBS)]
        jobs = client.wait(ids, timeout=300)
        elapsed = time.perf_counter() - start
        assert all(job["state"] == "done" for job in jobs.values())
        for job_id in ids[:3]:
            assert client.result(job_id)["ok"]
    finally:
        _shutdown(daemon, server)
    return {"jobs": N_THROUGHPUT_JOBS,
            "wall_s": round(elapsed, 4),
            "jobs_per_sec": round(N_THROUGHPUT_JOBS / elapsed, 1)}


def bench_cold_resume(store: str) -> dict:
    """Latency from daemon construction to a drained resumed backlog.

    The backlog is journaled by a first daemon that is stopped without
    letting its workers start (workers=never started), simulating a
    killed service with queued work.
    """
    writer = JobStore(store)
    for index in range(N_BACKLOG_JOBS):
        writer.submit("simulate", {"source": _tb_source(index)})
    writer._journal.close()     # hard stop: no snapshot, no compaction

    start = time.perf_counter()
    daemon = Daemon(store, workers=2)
    load_s = time.perf_counter() - start
    daemon.start()
    assert daemon.wait_idle(timeout=300)
    drain_s = time.perf_counter() - start
    counts = daemon.store.counts()
    daemon.stop()
    assert counts == {"done": N_BACKLOG_JOBS}, counts
    return {"backlog_jobs": N_BACKLOG_JOBS,
            "store_load_s": round(load_s, 4),
            "resume_drain_s": round(drain_s, 4)}


def bench_journal_replay(store: str) -> dict:
    """Pure store recovery cost over a long journal (no snapshot help
    beyond the periodic cadence)."""
    writer = JobStore(store)
    events = 0
    index = 0
    while events < N_JOURNAL_EVENTS:
        job = writer.submit("simulate", {"source": _tb_source(index)})
        writer.mark_running(job.id)
        writer.mark_done(job.id, {"ok": True, "index": index})
        events += 3
        index += 1
    writer._journal.close()
    start = time.perf_counter()
    reloaded = JobStore(store)
    replay_s = time.perf_counter() - start
    jobs = len(reloaded.jobs)
    reloaded.close()
    return {"journal_events": events,
            "journal_jobs": jobs,
            "replay_s": round(replay_s, 4),
            "events_per_sec": round(events / max(replay_s, 1e-9), 1)}


def run_serve_bench(root: str) -> dict:
    result = {}
    result.update(bench_throughput(os.path.join(root, "throughput")))
    result.update(bench_cold_resume(os.path.join(root, "resume")))
    result.update(bench_journal_replay(os.path.join(root, "journal")))
    return result


def test_serve_throughput_and_resume(once, benchmark, tmp_path):
    result = once(run_serve_bench, str(tmp_path))
    benchmark.extra_info.update(result)
    # Merge-write: bench_gateway.py contributes scenario entries to the
    # same file (and collects first alphabetically) — a blind overwrite
    # here would drop them.
    merged = {}
    try:
        with open(RESULT_PATH, encoding="utf-8") as handle:
            merged = json.load(handle)
    except (OSError, ValueError):
        pass
    merged.update(result)
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n" + json.dumps(result, indent=2, sort_keys=True))
    assert result["jobs_per_sec"] > 0
    assert result["resume_drain_s"] > 0
    assert result["journal_jobs"] == N_JOURNAL_EVENTS // 3
