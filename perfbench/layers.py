"""Which public functions each layer is traced at, and its metrics.

:meth:`Layers.install` wraps the layer entry points of ``repro`` with
a :class:`~spantrace.Tracer`; :meth:`Layers.metrics` turns the recorded
spans and counters into the ``per_layer`` metrics of
``BENCHMARK.json``.  Span names are ``<layer>.<entry>``; the layer is
the ``repro`` subpackage the entry point belongs to.
"""

from __future__ import annotations

import importlib

from spantrace import Tracer

#: Per-layer metrics in ``BENCHMARK.json`` order: (name, unit, better).
PER_LAYER = (
    ("verilog.tokenize.calls", "count", "lower"),
    ("verilog.tokenize.self_s", "s", "lower"),
    ("verilog.tokens_per_s", "1/s", "higher"),
    ("verilog.tokenize.unique_ratio", "ratio", "higher"),
    ("verilog.parse.calls", "count", "lower"),
    ("verilog.parse.self_s", "s", "lower"),
    ("core.augment_file.calls", "count", "lower"),
    ("core.augment_file.self_s", "s", "lower"),
    ("core.records_per_s", "1/s", "higher"),
    ("core.mutate.calls", "count", "lower"),
    ("core.mutate.self_s", "s", "lower"),
    ("checker.check_source.calls", "count", "lower"),
    ("checker.check_source.self_s", "s", "lower"),
    ("scale.augment.wall_s", "s", "lower"),
    ("scale.shard_cache.hits", "count", "higher"),
    ("scale.shard_cache.misses", "count", "lower"),
    ("train.wall_s", "s", "lower"),
    ("train.steps", "count", "lower"),
    ("train.seq_per_s", "1/s", "higher"),
    ("infer.sample_tokens.calls", "count", "lower"),
    ("infer.sample_tokens.self_s", "s", "lower"),
    ("infer.rows", "count", "lower"),
    ("infer.tokens", "count", "lower"),
    ("infer.tokens_per_s", "1/s", "higher"),
    ("sim.testbench.calls", "count", "lower"),
    ("sim.testbench.self_s", "s", "lower"),
    ("sim.compiles", "count", "lower"),
    ("sim.codegen_hits", "count", "higher"),
    ("sim.codegen_misses", "count", "lower"),
    ("sim.interp_fallbacks", "count", "lower"),
    ("eval.cells", "count", "lower"),
    ("eval.evaluate_cell.self_s", "s", "lower"),
    ("eval.cache.hits", "count", "higher"),
    ("eval.cache.misses", "count", "lower"),
    ("llm.behavioral.generate.self_s", "s", "lower"),
    ("serve.submit_ms.p50", "ms", "lower"),
    ("serve.submit_ms.p99", "ms", "lower"),
    ("serve.queue_ms.p50", "ms", "lower"),
    ("serve.run_ms.p50", "ms", "lower"),
    ("serve.result_ms.p50", "ms", "lower"),
    ("serve.infer_ms.p50", "ms", "lower"),
    ("serve.simulate_ms.p50", "ms", "lower"),
    ("serve.request_ms.p99", "ms", "lower"),
    ("serve.throttled_429", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("error_ratio", "ratio", "lower"),
    ("exact.mismatches", "count", "lower"),
)

#: Counters that must repeat exactly across passes of one seed.
EXACT = ("sim.compiles", "sim.codegen_hits", "sim.codegen_misses",
         "sim.interp_fallbacks", "sim.runs", "eval.cache.hits",
         "eval.cache.misses", "scale.shard_cache.hits",
         "scale.shard_cache.misses", "scale.manifest.hits",
         "scale.manifest.misses", "train.steps", "infer.tokens")


class Layers:
    """The traced entry points of one process plus their hook state."""

    def __init__(self):
        self.tracer = Tracer()
        self.lexed: set[int] = set()

    # -- counter hooks ----------------------------------------------------

    def _tokenize(self, counters, args, kwargs, tokens) -> None:
        counters["verilog.tokens"] += len(tokens)
        self.lexed.add(hash(args[0] if args else kwargs["text"]))

    @staticmethod
    def _augment_file(counters, args, kwargs, records) -> None:
        counters["core.records"] += len(records)

    @staticmethod
    def _augment(counters, args, kwargs, report) -> None:
        counters["scale.shard_cache.hits"] += report.cache_hits
        counters["scale.shard_cache.misses"] += report.cache_misses

    @staticmethod
    def _train(counters, args, kwargs, report) -> None:
        from repro.train import TrainConfig
        config = args[1] if len(args) > 1 else kwargs.get("config")
        batch = (config or TrainConfig()).batch_size
        counters["train.steps"] += report.steps
        counters["train.sequences"] += report.steps * batch

    @staticmethod
    def _sample(counters, args, kwargs, outs) -> None:
        prompts = args[1] if len(args) > 1 else kwargs["prompts"]
        counters["infer.rows"] += len(prompts)
        counters["infer.tokens"] += sum(
            len(out) - len(prompt) for out, prompt in zip(outs, prompts))

    @staticmethod
    def _engine(counters, args, kwargs, results) -> None:
        stats = args[0].stats
        counters["eval.cells"] += stats.tasks
        counters["eval.cache.hits"] += stats.cache_hits
        counters["eval.cache.misses"] += stats.cache_misses

    # -- installation -----------------------------------------------------

    def install(self) -> "Layers":
        """Wrap every layer entry point; call once per process."""
        mod = importlib.import_module
        tracer = self.tracer
        for module, attr, name, hook in (
                ("repro.verilog.lexer", "tokenize", "verilog.tokenize",
                 self._tokenize),
                ("repro.verilog.parser", "parse", "verilog.parse", None),
                ("repro.core.pipeline", "augment_file",
                 "core.augment_file", self._augment_file),
                ("repro.checker.lint", "check_source",
                 "checker.check_source", None),
                ("repro.scale.service", "augment_distributed",
                 "scale.augment", self._augment),
                ("repro.train.service", "train_run", "train.run",
                 self._train),
                ("repro.infer.decode", "sample_tokens",
                 "infer.sample_tokens", self._sample),
                ("repro.sim.testbench", "run_simulation",
                 "sim.testbench", None),
                ("repro.sim.testbench", "run_testbench", "sim.testbench",
                 None),
                ("repro.sim.testbench", "run_testbench_batch",
                 "sim.testbench", None),
                ("repro.eval.verilog_eval", "evaluate_cell",
                 "eval.evaluate_cell", None),
                ("repro.eval.repair_eval", "evaluate_repair_cell",
                 "eval.evaluate_cell", None)):
            tracer.wrap_function(mod(module), attr, name, hook)
        tracer.wrap_method(mod("repro.core.mutation").Mutator, "mutate",
                           "core.mutate")
        tracer.wrap_method(mod("repro.eval.engine").EvalEngine, "run",
                           "eval.run", self._engine)
        behavioral = mod("repro.llm.behavioral").BehavioralModel
        for attr in ("generate_verilog", "repair_verilog"):
            tracer.wrap_method(behavioral, attr, "llm.behavioral.generate")
        return self

    def reset(self) -> None:
        self.tracer.reset()
        self.lexed.clear()

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Span-derived and counter-derived per-layer values."""
        table = self.tracer.by_name()
        counters = self.tracer.counters

        def calls(name):
            return table.get(name, {}).get("calls", 0)

        def self_s(name):
            return table.get(name, {}).get("self_ns", 0) / 1e9

        def total_s(name):
            return table.get(name, {}).get("total_ns", 0) / 1e9

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        out = {name: 0.0 for name, _, _ in PER_LAYER}
        for span in ("verilog.tokenize", "verilog.parse",
                     "core.augment_file", "core.mutate",
                     "checker.check_source", "infer.sample_tokens",
                     "sim.testbench"):
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.self_s"] = self_s(span)
        out["verilog.tokens_per_s"] = rate(counters["verilog.tokens"],
                                           total_s("verilog.tokenize"))
        out["verilog.tokenize.unique_ratio"] = rate(
            len(self.lexed), calls("verilog.tokenize"))
        out["core.records_per_s"] = rate(counters["core.records"],
                                         total_s("core.augment_file"))
        out["scale.augment.wall_s"] = total_s("scale.augment")
        out["train.wall_s"] = total_s("train.run")
        out["train.seq_per_s"] = rate(counters["train.sequences"],
                                      total_s("train.run"))
        out["infer.tokens_per_s"] = rate(counters["infer.tokens"],
                                         total_s("infer.sample_tokens"))
        out["eval.evaluate_cell.self_s"] = self_s("eval.evaluate_cell")
        out["llm.behavioral.generate.self_s"] = self_s(
            "llm.behavioral.generate")
        for name in ("scale.shard_cache.hits", "scale.shard_cache.misses",
                     "train.steps", "infer.rows", "infer.tokens",
                     "eval.cells", "eval.cache.hits", "eval.cache.misses"):
            out[name] = counters[name]
        return out


def sim_counters(stats) -> dict[str, int]:
    """Per-layer sim counts from a ``BackendStats``-shaped mapping."""
    get = stats.get if isinstance(stats, dict) else \
        lambda key: getattr(stats, key)
    return {"sim.compiles": get("compiles"),
            "sim.codegen_hits": get("codegen_hits"),
            "sim.codegen_misses": get("codegen_misses"),
            "sim.interp_fallbacks": get("fallbacks"),
            "sim.runs": get("compiled_runs") + get("interp_runs")}
