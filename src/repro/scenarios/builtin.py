"""The built-in scenario zoo: paper sweeps + operational checks.

Families:

* ``sweep`` — paper-style fan-outs expressed as flow specs with
  ``foreach`` templates: the Fig-7 seed grid, the data-ablation
  matrix, the Table-5 model zoo.
* ``chaos`` — fault injection: SIGKILL a draining service process and
  prove the restart loses nothing and corrupts nothing.
* ``perf`` — operational floors: warm-cache reruns must hit every
  manifest (``misses == 0``), the gateway must sustain a conservative
  jobs/sec floor end to end.

Every scenario is tagged ``ci`` and runs in the CI scenario gate
(`repro scenarios run --tag ci`); the deterministic ones additionally
pin metric fingerprints in ``tests/golden/scenario_reports.json``.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

from ..scale.cache import cache_counters
from .registry import Scenario, register
from .runner import ScenarioContext

# -- sweep: seed grid ------------------------------------------------------

def _build_seed_grid(ctx: ScenarioContext) -> dict:
    corpus = ctx.corpus()
    return {"name": "aug-seed-grid", "nodes": [
        {"name": "aug-{seed}", "kind": "augment",
         "spec": {"paths": [corpus], "seed": "{seed}"},
         "foreach": {"seed": [0, 1, 2]}}]}


def _extract_seed_grid(results: dict, ctx: ScenarioContext) -> dict:
    records = [blob["records"] for blob in results.values()]
    digests = {blob["sha256"] for blob in results.values()}
    return {"runs": len(results), "min_records": min(records),
            "distinct_datasets": len(digests)}


register(Scenario(
    name="aug-seed-grid", family="sweep", tags=("ci", "paper"),
    description="Fig-7-style seed fan-out: three augmentation seeds "
                "over one corpus must yield three distinct datasets.",
    build=_build_seed_grid, extract=_extract_seed_grid,
    expected={"runs": (3, 3), "min_records": (20, 100000),
              "distinct_datasets": (3, 3)},
    pinned=("runs", "min_records", "distinct_datasets")))


# -- sweep: data-ablation matrix ------------------------------------------

def _build_ablation(ctx: ScenarioContext) -> dict:
    corpus = ctx.corpus()
    return {"name": "aug-ablation-matrix", "nodes": [
        {"name": "full", "kind": "augment",
         "spec": {"paths": [corpus], "seed": 0}},
        {"name": "completion-only", "kind": "augment",
         "spec": {"paths": [corpus], "seed": 0,
                  "completion_only": True}}]}


def _extract_ablation(results: dict, ctx: ScenarioContext) -> dict:
    full = results["full"]["records"]
    ablated = results["completion-only"]["records"]
    return {"full_records": full, "ablated_records": ablated,
            "augmentation_gain": full / max(ablated, 1)}


register(Scenario(
    name="aug-ablation-matrix", family="sweep", tags=("ci", "paper"),
    description="Data-augmentation ablation: the full pipeline must "
                "produce measurably more records than completion-only.",
    build=_build_ablation, extract=_extract_ablation,
    expected={"full_records": (20, 100000),
              "ablated_records": (1, 100000),
              "augmentation_gain": (1.1, 10.0)}))


# -- sweep: model zoo ------------------------------------------------------

def _build_model_zoo(ctx: ScenarioContext) -> dict:
    return {"name": "eval-model-zoo", "nodes": [
        {"name": "zoo", "kind": "evaluate",
         "spec": {"suite": "thakur", "models": ["ours-13b", "gpt-3.5"],
                  "samples": 2, "k": 2, "levels": ["middle"]}}]}


def _extract_model_zoo(results: dict, ctx: ScenarioContext) -> dict:
    scores = results["zoo"]["scores"]
    ours = scores["ours-13b"]["solve_rate"]
    baseline = scores["gpt-3.5"]["solve_rate"]
    return {"ours_solve_rate": ours, "baseline_solve_rate": baseline,
            "finetune_margin": ours - baseline}


register(Scenario(
    name="eval-model-zoo", family="sweep", tags=("ci", "paper"),
    description="Table-5 spot check: the finetuned column must beat "
                "the gpt-3.5 baseline on the thakur suite.",
    build=_build_model_zoo, extract=_extract_model_zoo,
    expected={"ours_solve_rate": (0.55, 0.95),
              "baseline_solve_rate": (0.45, 0.9),
              "finetune_margin": (0.01, 0.5)}))


# -- perf: warm-cache rerun -----------------------------------------------

def _ops_warm_cache(ctx: ScenarioContext) -> dict:
    from ..flow import run_flow_direct
    flow = {"name": "warm-cache-rerun", "nodes": [
        {"name": "augment", "kind": "augment",
         "spec": {"paths": [ctx.corpus()], "seed": 0}},
        {"name": "score", "kind": "evaluate",
         "spec": {"suite": "thakur", "models": ["ours-13b"],
                  "samples": 1, "k": 1, "levels": ["middle"]}}]}
    workdir = ctx.workdir()
    cold = run_flow_direct(flow, workdir, engine_jobs=ctx.jobs)
    cold_counters = cache_counters(workdir)
    warm = run_flow_direct(flow, workdir, engine_jobs=ctx.jobs)
    warm_counters = cache_counters(workdir)
    return {"identical_results": int(cold == warm),
            "manifests": len(warm_counters),
            "cold_misses": sum(c["misses"]
                               for c in cold_counters.values()),
            "warm_misses": sum(c["misses"]
                               for c in warm_counters.values()),
            "warm_hits": sum(c["hits"]
                             for c in warm_counters.values())}


register(Scenario(
    name="warm-cache-rerun", family="perf", tags=("ci",),
    description="Rerunning an identical augment+evaluate flow in a "
                "warm workdir must recompute nothing: misses == 0 in "
                "every cache manifest and byte-identical results.",
    ops=_ops_warm_cache,
    expected={"identical_results": (1, 1), "manifests": (2, 64),
              "cold_misses": (1, 100000), "warm_misses": (0, 0),
              "warm_hits": (1, 100000)},
    pinned=("identical_results", "warm_misses")))


# -- chaos: kill-worker recovery ------------------------------------------

_KILL_JOBS = 24


def _spawn_serve(store: str):
    import repro
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", store,
         "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    url = None
    while True:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"serving on (http://\S+)", line)
        if match:
            url = match.group(1)
            break
    if url is None:
        proc.kill()
        proc.wait()
        raise RuntimeError("serve subprocess failed to start")
    return proc, url


def _ops_kill_worker(ctx: ScenarioContext) -> dict:
    from ..serve import ServeClient
    from ..serve.executor import execute_job
    store = ctx.workdir("store")
    proc, url = _spawn_serve(store)
    try:
        client = ServeClient(url, timeout=10)
        ids = [client.submit("probe", {"payload": index,
                                       "sleep_ms": 40})["id"]
               for index in range(_KILL_JOBS)]
        deadline = time.monotonic() + 60
        done = 0
        while time.monotonic() < deadline:
            done = sum(job["state"] == "done"
                       for job in client.jobs(ids=ids))
            if done >= _KILL_JOBS // 4:
                break
            time.sleep(0.01)
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc, url = _spawn_serve(store)
        client = ServeClient(url, timeout=10)
        jobs = client.wait(ids, timeout=120)
        lost = sum(job["state"] != "done" for job in jobs.values())
        # The survivors must also be *right*: every blob byte-identical
        # to a direct execution of the same spec.
        reference = ctx.workdir("reference")
        mismatches = 0
        for index, job_id in enumerate(ids):
            expected = execute_job(
                "probe", {"payload": index, "sleep_ms": 0}, reference)
            if client.result(job_id) != expected:
                mismatches += 1
        return {"jobs": _KILL_JOBS, "done_before_kill": done,
                "lost": lost, "blob_mismatches": mismatches}
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


register(Scenario(
    name="kill-worker-recovery", family="chaos", tags=("ci",),
    description="SIGKILL a draining service mid-flight; the restarted "
                "daemon must finish every job with correct results.",
    ops=_ops_kill_worker,
    expected={"jobs": (_KILL_JOBS, _KILL_JOBS),
              "done_before_kill": (1, _KILL_JOBS),
              "lost": (0, 0), "blob_mismatches": (0, 0)},
    pinned=("jobs", "lost", "blob_mismatches")))


# -- perf: gateway throughput floor ---------------------------------------

_GATEWAY_JOBS = 80


def _ops_gateway_floor(ctx: ScenarioContext) -> dict:
    from ..serve import Daemon, GatewayServer, ServeClient
    daemon = Daemon(ctx.workdir("store"), workers=2)
    server = GatewayServer(daemon).start()
    daemon.start()
    try:
        client = ServeClient(server.url, timeout=10)
        started = time.perf_counter()
        ids = [client.submit("probe", {"payload": index})["id"]
               for index in range(_GATEWAY_JOBS)]
        jobs = client.wait(ids, timeout=60)
        elapsed = time.perf_counter() - started
        lost = sum(job["state"] != "done" for job in jobs.values())
        return {"jobs": _GATEWAY_JOBS, "lost": lost,
                "elapsed_s": round(elapsed, 4),
                "jobs_per_sec": round(_GATEWAY_JOBS
                                      / max(elapsed, 1e-9), 1)}
    finally:
        server.stop()
        daemon.stop()


register(Scenario(
    name="gateway-stress-floor", family="perf", tags=("ci",),
    description="Serial submit+drain of a probe burst through the "
                "asyncio gateway must clear a conservative "
                "jobs/sec floor with nothing lost.",
    ops=_ops_gateway_floor,
    expected={"jobs": (_GATEWAY_JOBS, _GATEWAY_JOBS), "lost": (0, 0),
              "elapsed_s": (0.0, 30.0),
              "jobs_per_sec": (15.0, 1000000.0)}))
