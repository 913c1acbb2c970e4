"""One pass of the ``paper-loop`` or ``eval-sweep`` workload.

Every pass runs in a fresh interpreter, so memos, design caches and
imports start cold.  ``run.py`` starts it as::

    python3 perfbench/passes.py <request.json>

and reads the JSON result it writes to ``request["out"]``.  The pass
reports its own set-up time (interpreter start, imports and input
generation, measured from ``request["spawned_at"]``), the wall time of
the measured operation, its peak RSS and the digests of its outputs.
With ``request["trace"]`` it also installs the outside-in tracer after
the imports and reports per-layer metrics and exact counters.
"""

from __future__ import annotations

import glob
import hashlib
import importlib
import json
import os
import random
import resource
import sys
import threading
import time

#: Modules holding the traced entry points.  Imported during set-up in
#: traced and untraced passes alike, so both time the same work.
ENTRY_MODULES = (
    "repro.verilog", "repro.core.pipeline", "repro.core.mutation",
    "repro.checker.lint", "repro.scale.service", "repro.train.service",
    "repro.infer.decode", "repro.sim.testbench", "repro.eval.engine",
    "repro.eval.suite_api", "repro.llm.behavioral", "repro.flow",
    "repro.serve.executor", "repro.corpus")

#: Train knobs of the paper loop; the decode time of the evaluate stage
#: depends on how well these train the model, so they are part of the
#: workload.
LOOP_TRAIN = {"d_model": 32, "d_ff": 64, "epochs": 2, "max_records": 512}
SMOKE_TRAIN = {"d_model": 16, "d_ff": 32, "epochs": 1, "max_records": 32}
#: Seed of the paper loop's Verilog corpus and its augmentation (see
#: :func:`setup_paper_loop`).
CORPUS_SEED = 0

#: Table 3 of the paper: repair success rate per model, in percent.
PAPER_TABLE3 = {"ours-13b": 72.4, "ours-7b": 51.7, "gpt-3.5": 34.5,
                "llama2-13b": 10.3}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _shuffled(names, seed: int) -> list[str]:
    names = list(names)
    random.Random(seed).shuffle(names)
    return names


def write_corpus(corpus_dir: str, count: int, seed: int) -> list[str]:
    """Write ``generate_corpus(count, seed)`` as ``d000.v``, ``d001.v``..."""
    from repro.corpus import generate_corpus
    os.makedirs(corpus_dir, exist_ok=True)
    paths = []
    for index, text in enumerate(generate_corpus(count, seed=seed)):
        path = os.path.join(corpus_dir, f"d{index:03d}.v")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        paths.append(path)
    return paths


# -- paper-loop -------------------------------------------------------------

def setup_paper_loop(request: dict) -> dict:
    """Write the corpus and build the flow spec.

    The Verilog corpus and the augmentation seed are the same for every
    workload seed, so every seed trains the same weights.  The workload
    seed goes only into the evaluate spec's ``seed``, which the
    generation suites do not use, so every seed does the same work.
    How long the evaluate stage decodes follows the weights: seeding the
    corpus
    swung it 4x (2.6k to 10.3k sampled tokens) and seeding the
    augmentation 5x (1.6k to 8.5k), which hid changes to the code under
    test.
    """
    from repro.flow.pipeline import pipeline_flow
    smoke = request["smoke"]
    # One corpus path for every pass of a run: files are sharded by
    # absolute path, and the shard-cache counters must repeat exactly.
    paths = write_corpus(os.path.join(os.path.dirname(request["workdir"]),
                                      "corpus"),
                         8 if smoke else 128, CORPUS_SEED)
    flow = pipeline_flow(paths=paths, seed=CORPUS_SEED,
                         train_knobs=SMOKE_TRAIN if smoke else LOOP_TRAIN,
                         samples=1 if smoke else 5,
                         levels=["middle"] if smoke else None)
    for node in flow["nodes"]:
        if node["name"] == "evaluate":
            node["spec"]["seed"] = request["seed"]
    return {"flow": flow, "work": os.path.join(request["workdir"], "work")}


def run_paper_loop(inputs: dict, request: dict) -> dict:
    from repro.flow import run_flow_direct
    results = run_flow_direct(inputs["flow"], inputs["work"])
    return {"records": results["augment"]["records"],
            "dataset_sha256": results["augment"]["sha256"],
            "steps": results["train"]["steps"],
            "weights_sha256": results["train"]["weights_sha256"],
            "rendered_sha256": _sha(results["evaluate"]["rendered"])}


def check_paper_loop(outputs: dict, request: dict) -> list[str]:
    problems = []
    if outputs["records"] <= 0:
        problems.append("augment produced no records")
    if outputs["steps"] <= 0:
        problems.append("training ran no steps")
    return problems


def manifest_counts(work: str) -> dict[str, int]:
    """``last_run`` hits/misses summed over the shard-cache manifests."""
    counts = {"scale.manifest.hits": 0, "scale.manifest.misses": 0}
    for path in sorted(glob.glob(os.path.join(work, "aug-*",
                                              "manifest.json"))):
        with open(path, encoding="utf-8") as handle:
            last = json.load(handle).get("last_run", {})
        counts["scale.manifest.hits"] += last.get("hits", 0)
        counts["scale.manifest.misses"] += last.get("misses", 0)
    return counts


# -- eval-sweep -------------------------------------------------------------

def setup_eval_sweep(request: dict) -> dict:
    from repro.llm import TABLE3_MODEL_ORDER, TABLE5_MODEL_ORDER
    seed = request["seed"]
    generation = _shuffled(TABLE5_MODEL_ORDER, seed)
    repair = _shuffled(TABLE3_MODEL_ORDER, seed)
    if request["smoke"]:
        generation, repair = generation[:2], repair[:2]
    return {"generation": generation, "repair": repair}


def run_eval_sweep(inputs: dict, request: dict) -> dict:
    from repro.eval import EvalEngine
    from repro.eval.suite_api import run_suite, suite_scores
    smoke = request["smoke"]
    engine = EvalEngine(jobs=1)
    generation = run_suite("thakur" if smoke else "generation",
                           models=inputs["generation"],
                           samples=1 if smoke else 5,
                           levels=("middle",) if smoke else None,
                           engine=engine)
    repair = run_suite("repair", models=inputs["repair"],
                       samples=1 if smoke else 5, seed=request["seed"],
                       engine=engine)
    scores = {"generation": suite_scores(generation.suite,
                                         generation.report),
              "repair": suite_scores(repair.suite, repair.report)}
    return {"report_sha256": _sha(generation.rendered + "\x1f"
                                  + repair.rendered),
            "scores_sha256": _sha(json.dumps(scores, sort_keys=True)),
            "repair_rates": {model: round(100 * row["solve_rate"], 1)
                             for model, row in scores["repair"].items()}}


def check_eval_sweep(outputs: dict, request: dict) -> list[str]:
    if request["smoke"]:
        return []
    if outputs["repair_rates"] != PAPER_TABLE3:
        return [f"repair success rates {outputs['repair_rates']} differ "
                f"from the paper's Table 3 {PAPER_TABLE3}"]
    return []


WORKLOADS = {
    "paper-loop": (setup_paper_loop, run_paper_loop, check_paper_loop),
    "eval-sweep": (setup_eval_sweep, run_eval_sweep, check_eval_sweep),
}


def run_pass(request: dict) -> dict:
    for name in ENTRY_MODULES:
        importlib.import_module(name)
    from repro.sim import backend_stats
    layers = None
    if request["trace"]:
        from layers import Layers
        layers = Layers().install()
    setup, run, check = WORKLOADS[request["workload"]]
    inputs = setup(request)
    ready = time.time()
    if layers is not None:
        layers.reset()
    before = backend_stats().copy()
    start = time.perf_counter()
    outputs = run(inputs, request)
    wall = time.perf_counter() - start
    result = {"setup_s": ready - request["spawned_at"], "wall_s": wall,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "outputs": outputs, "problems": check(outputs, request)}
    if layers is not None:
        from layers import EXACT, sim_counters
        sim = sim_counters(backend_stats().delta_since(before))
        metrics = layers.metrics()
        metrics.update({key: value for key, value in sim.items()
                        if key in metrics})
        tracer = layers.tracer
        attributed = tracer.attributed_ns(threading.get_ident()) / 1e9
        metrics["trace.unattributed_share"] = max(0.0,
                                                  1 - attributed / wall)
        counts = dict(metrics, **sim)
        if request["workload"] == "paper-loop":
            counts.update(manifest_counts(inputs["work"]))
        result["layers"] = metrics
        result["exact"] = {key: counts[key] for key in EXACT
                           if key in counts}
        tracer.dump(os.path.join(request["workdir"], "spans.jsonl"))
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        request = json.load(handle)
    result = run_pass(request)
    with open(request["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
