"""Benchmark: inference decoding throughput and model-host latency.

Measures tokens/sec through the naive full-window ``generate()`` loop
vs the batched KV-cache decoder (:func:`repro.infer.sample_tokens`) at
batch=1 and batched, in two regimes: prompts + completions inside the
window (the KV-cache path) and prompts longer than ``max_len`` (the
slide path, where every step recomputes its window with a
last-position-only forward, as the paper loop's long thakur prompts
do).  The slide regime also times that last-position forward against
the full-width forward on the same windows.  Plus the
:class:`repro.infer.ModelHost` cold-load vs warm-hit latency; writes
``BENCH_infer.json`` at the repo root so the serving-layer trajectory
is tracked from PR to PR.

Every timed decode asserts token-identity between the two paths first —
a speedup over a wrong decoder would be worthless.  The in-window paths
each get one untimed warm-up, then run ``DECODE_ROUNDS`` interleaved
timed rounds, and the speedups compare each path's fastest round.
"""

import json
import os
import time

import numpy as np

from repro.infer import ModelHost, forward_logits, sample_tokens
from repro.llm.tiny_transformer import (TinyTransformerLM,
                                        TransformerConfig, forward)
from repro.llm.tokenizer import Tokenizer
from repro.train import model_weights_bundle

RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_infer.json")

#: Production-shaped decode scale: real width, prompts + completions
#: inside the window so the KV path never recomputes a full prefix.
D_MODEL = 64
MAX_LEN = 128
VOCAB = 192
PROMPT_LEN = 24
NEW_TOKENS = 96
BATCH = 8

#: Slide regime: every prompt already overflows ``max_len``.
SLIDE_PROMPT_LEN = MAX_LEN + 32
SLIDE_NEW_TOKENS = 32

#: Timed rounds of the in-window decode paths, interleaved; each path
#: keeps its fastest round.  A single round swung ``kv_speedup_batch1``
#: from 2.3 to 4.9 on a 2-CPU host, depending on what ran before it.
DECODE_ROUNDS = 3


def _model(seed: int = 0) -> TinyTransformerLM:
    return TinyTransformerLM(TransformerConfig(
        vocab_size=VOCAB, d_model=D_MODEL, n_heads=4, n_layers=2,
        d_ff=4 * D_MODEL, max_len=MAX_LEN, seed=seed))


def _prompts(count: int, length: int = PROMPT_LEN) -> list[list[int]]:
    rng = np.random.default_rng(7)
    return [[3] + list(rng.integers(4, VOCAB, size=length - 1))
            for _ in range(count)]


def bench_decode_throughput(model) -> dict:
    prompts = _prompts(BATCH)
    seeds = list(range(BATCH))
    paths = {
        "naive": lambda: [model.generate(p, NEW_TOKENS, 0.8, seed)
                          for p, seed in zip(prompts, seeds)],
        "kv_solo": lambda: [sample_tokens(model, [p],
                                          max_tokens=NEW_TOKENS,
                                          temperature=0.8, seeds=seed)[0]
                            for p, seed in zip(prompts, seeds)],
        "kv_batched": lambda: sample_tokens(model, prompts,
                                            max_tokens=NEW_TOKENS,
                                            temperature=0.8, seeds=seeds),
    }
    # One untimed warm-up per path; its tokens are the ones compared.
    naive, kv_solo, kv_batched = (run() for run in paths.values())
    assert kv_solo == naive and kv_batched == naive  # token-identical
    wall = dict.fromkeys(paths, float("inf"))
    for _ in range(DECODE_ROUNDS):
        for name, run in paths.items():
            start = time.perf_counter()
            run()
            wall[name] = min(wall[name], time.perf_counter() - start)
    naive_wall, kv_solo_wall, kv_batched_wall = wall.values()
    tokens = BATCH * NEW_TOKENS
    return {
        "decode_tokens": tokens,
        "tok_per_sec_naive": round(tokens / naive_wall, 1),
        "tok_per_sec_kv_batch1": round(tokens / kv_solo_wall, 1),
        "tok_per_sec_kv_batched": round(tokens / kv_batched_wall, 1),
        "kv_speedup_batch1": round(naive_wall / kv_solo_wall, 2),
        "kv_speedup_batched": round(naive_wall / kv_batched_wall, 2),
    }


def bench_slide_regime(model) -> dict:
    prompts = _prompts(BATCH, SLIDE_PROMPT_LEN)
    seeds = list(range(BATCH))

    start = time.perf_counter()
    naive = [model.generate(p, SLIDE_NEW_TOKENS, 0.8, seed)
             for p, seed in zip(prompts, seeds)]
    naive_wall = time.perf_counter() - start

    start = time.perf_counter()
    batched = sample_tokens(model, prompts, max_tokens=SLIDE_NEW_TOKENS,
                            temperature=0.8, seeds=seeds)
    batched_wall = time.perf_counter() - start

    assert batched == naive                          # token-identical
    # The forward each slide step runs, last position only vs the
    # full-width logits it replaced, over the same decoded windows.
    windows = [np.array([row[i - MAX_LEN:i] for row in naive])
               for i in range(SLIDE_PROMPT_LEN,
                              SLIDE_PROMPT_LEN + SLIDE_NEW_TOKENS)]
    start = time.perf_counter()
    for ids in windows:
        forward_logits(model, ids)[:, -1]
    full_wall = time.perf_counter() - start
    start = time.perf_counter()
    for ids in windows:
        forward(model, ids, last_only=True)
    last_wall = time.perf_counter() - start
    tokens = BATCH * SLIDE_NEW_TOKENS
    return {
        "slide_prompt_len": SLIDE_PROMPT_LEN,
        "slide_decode_tokens": tokens,
        "tok_per_sec_slide_naive": round(tokens / naive_wall, 1),
        "tok_per_sec_slide_batched": round(tokens / batched_wall, 1),
        "slide_last_only_speedup": round(full_wall / last_wall, 2),
    }


def bench_host_latency(model) -> dict:
    bundle = model_weights_bundle(
        model, Tokenizer.train(["module wire endmodule"], vocab_size=64))
    host = ModelHost(capacity=2)
    start = time.perf_counter()
    host.load_bundle(bundle)
    cold = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(50):
        host.load_bundle(bundle)
    warm = (time.perf_counter() - start) / 50
    assert host.stats.misses == 1 and host.stats.hits == 50
    return {"host_cold_load_ms": round(cold * 1000, 3),
            "host_warm_hit_us": round(warm * 1e6, 2)}


def run_infer_bench() -> dict:
    model = _model()
    result = {"d_model": D_MODEL, "max_len": MAX_LEN, "batch": BATCH,
              "new_tokens": NEW_TOKENS}
    result.update(bench_decode_throughput(model))
    result.update(bench_slide_regime(model))
    result.update(bench_host_latency(model))
    return result


def test_infer_throughput_and_host(once, benchmark):
    result = once(run_infer_bench)
    benchmark.extra_info.update(result)
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n" + json.dumps(result, indent=2, sort_keys=True))
    # The tentpole's perf claim: KV-cache decoding beats the naive
    # full-window loop by >= 3x at bench scale, batched or not.
    assert result["kv_speedup_batch1"] >= 3.0
    assert result["kv_speedup_batched"] >= 3.0
    assert result["host_warm_hit_us"] < result["host_cold_load_ms"] * 1000
