"""The repository benchmark: one named workload at one seed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-loop --seed 0 --seconds 36 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``paper-loop`` — corpus → augment → train → evaluate, run direct;
* ``eval-sweep`` — cold Table-5 generation and Table-3 repair sweeps;
* ``serve-mix``  — closed-loop simulate/infer clients on the gateway.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, the tracing overhead and the exact-counter check.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a failed output
check makes the exit code 1.  Everything the run writes lives under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("paper-loop", "eval-sweep", "serve-mix")

#: End-to-end metrics (name, unit), as declared in ``BENCHMARK.json``.
END_TO_END = (("setup_s", "s"), ("p50_ms", "ms"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

#: BLAS/OpenMP thread-budget variables recorded in the environment stamp.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")

#: Passes a pass-based run makes at least.
MIN_PASSES = 3
#: A run must end within this many seconds, however slow its passes.
RUN_DEADLINE_S = 170


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"),
                  encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over every file under ``src/repro`` (path + content)."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy,
            "blas_threads": {name: os.environ.get(name)
                             for name in BLAS_VARS},
            "git_commit": git_commit(), "source_sha256": source_digest()}


def child_env(workdir: str) -> dict:
    """Environment for every process the benchmark starts: the
    checkout's ``src`` on the path and temporary files kept inside the
    work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


# -- pass-based workloads (paper-loop, eval-sweep) ---------------------------

def run_one_pass(args, workdir: str, env: dict, index: int,
                 traced: bool, timeout: float) -> dict:
    pass_dir = os.path.join(workdir, f"pass-{index:02d}")
    os.makedirs(pass_dir)
    request_path = os.path.join(pass_dir, "request.json")
    request = {"workload": args.workload, "seed": args.seed,
               "workdir": pass_dir, "trace": traced, "smoke": args.smoke,
               "out": os.path.join(pass_dir, "result.json"),
               "spawned_at": time.time()}
    with open(request_path, "w", encoding="utf-8") as handle:
        json.dump(request, handle)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "passes.py"),
             request_path], env=env, cwd=ROOT, capture_output=True,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": [f"timed out after {timeout}s"]}
    if proc.returncode != 0:
        return {"traced": traced,
                "error": proc.stderr.strip().splitlines()[-1:]}
    with open(request["out"], encoding="utf-8") as handle:
        result = json.load(handle)
    result["traced"] = traced
    return result


def run_passes(args, workdir: str, env: dict) -> list[dict]:
    """Fresh-process passes until ``--seconds`` is used up.

    Untraced runs make at least :data:`MIN_PASSES` passes; traced runs
    alternate traced and untraced passes, starting traced, and make at
    least two traced ones.  A new pass starts while, judged by the last
    one, at least half of it fits in the window, so runs end within half
    a pass of ``--seconds``.
    """
    minimum = 1 if args.smoke and not args.trace else MIN_PASSES
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        traced = bool(args.trace) and len(passes) % 2 == 0
        passes.append(run_one_pass(args, workdir, env, len(passes), traced,
                                   max(1.0, start + RUN_DEADLINE_S - began)))
        now = time.monotonic()
        if (len(passes) >= minimum or now - start > RUN_DEADLINE_S / 2) \
                and now - start + (now - began) / 2 > args.seconds:
            return passes


def check_passes(passes: list[dict]) -> int:
    """Failed passes: crashed, failed a check, or disagreed with the
    first pass's outputs (same seed, so outputs must be identical)."""
    reference = next((p["outputs"] for p in passes if "outputs" in p), None)
    failed = 0
    for index, result in enumerate(passes):
        problems = result.get("problems", [])
        if "error" in result:
            problems = [f"pass crashed: {result['error']}"]
        elif result["outputs"] != reference:
            problems = problems + [f"outputs {result['outputs']} differ "
                                   f"from {reference}"]
        for problem in problems:
            print(f"pass {index}: {problem}", file=sys.stderr)
        failed += bool(problems)
    return failed


def exact_mismatches(traced: list[dict]) -> list[str]:
    """Exact counters that did not repeat across traced passes."""
    names = sorted({key for p in traced for key in p.get("exact", {})})
    return [name for name in names
            if len({p.get("exact", {}).get(name) for p in traced}) > 1]


def pass_workload(args, workdir: str, env: dict) -> dict:
    passes = run_passes(args, workdir, env)
    failed = check_passes(passes)
    ok = [p for p in passes if "outputs" in p]
    walls = [p["wall_s"] for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    out = {"attempted": len(passes), "failed": failed,
           "samples": len(walls), "metrics": {}}
    if not walls or (args.trace and not traced):
        return out      # every pass crashed: reported as failed
    if not args.trace:
        out["metrics"] = {
            "setup_s": statistics.median(p["setup_s"] for p in ok),
            "p50_ms": 1000 * statistics.median(walls),
            # Few, long passes: the median pass sets the rate, so one
            # slow pass does not move it.
            "ops_per_s": 1 / statistics.median(walls),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in ok)}
        return out
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = statistics.median(
        p["wall_s"] for p in traced) - statistics.median(walls)
    mismatched = exact_mismatches(traced)
    for name in mismatched:
        values = [p["exact"].get(name) for p in traced]
        print(f"exact counter {name} varied across passes: {values}",
              file=sys.stderr)
    metrics["exact.mismatches"] = len(mismatched)
    out["metrics"] = metrics
    return out


# -- entry point ---------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro sources under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = child_env(workdir)
    sys.path.insert(0, SRC)
    os.environ.update(PYTHONPATH=env["PYTHONPATH"], TMPDIR=env["TMPDIR"])
    stamp = environment()
    print("env " + json.dumps(stamp, sort_keys=True), flush=True)

    if args.workload == "serve-mix":
        import servemix
        outcome = servemix.run(workdir, env, args.seed, args.seconds,
                               bool(args.trace), args.smoke)
    else:
        outcome = pass_workload(args, workdir, env)

    from layers import PER_LAYER
    declared = [(name, unit) for name, unit, _ in PER_LAYER] \
        if args.trace else END_TO_END
    values = dict(outcome["metrics"])
    if args.trace:
        values["error_ratio"] = outcome["failed"] / outcome["attempted"]
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in declared}
    correct = outcome["failed"] == 0
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{outcome['samples']} timed sample(s), "
          f"{outcome['attempted']} attempted, {outcome['failed']} failed")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    with open(os.path.join(workdir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"env": stamp, "args": vars(args), "outcome": {
            key: value for key, value in outcome.items()
            if key != "metrics"}, "metrics": metrics}, handle,
            sort_keys=True, indent=1)
    print(json.dumps({"correct": correct,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
