"""Weight bundles, the model-host LRU, and sampled-model eval keying.

Covers the checkpoint → inference handoff (``repro.train.weights``),
the digest-keyed :class:`repro.infer.ModelHost`, and the ISSUE-6
regression: two trained artefacts registered under the *same* name must
never share eval cells — the weights digest, not the name, is the cache
identity.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.eval.engine import EvalEngine, EvalTask, profile_digest
from repro.bench.problems import Problem
from repro.infer import (LoadedModel, ModelHost, SampledModel,
                         forward_logits, sample_tokens)
from repro.llm import get_model, register_artifact, unregister_profile
from repro.llm.behavioral import PROFILES, BehavioralModel
from repro.llm.lora import attach_lora, merge_lora
from repro.llm.tiny_transformer import (TinyTransformerLM,
                                        TransformerConfig)
from repro.llm.tokenizer import Tokenizer
from repro.core.records import Dataset, Task, make_record
from repro.train import (TrainConfig, model_from_bundle,
                         model_weights_bundle, train_run)
from repro.train.checkpoint import CheckpointStore
from repro.train.weights import bundle_from_checkpoint


def _logits(model: TinyTransformerLM, ids: list[int]) -> np.ndarray:
    return forward_logits(model, np.array([ids], dtype=np.int64))


def _model(seed: int = 0) -> TinyTransformerLM:
    return TinyTransformerLM(TransformerConfig(
        vocab_size=32, d_model=16, n_heads=2, n_layers=1, d_ff=32,
        max_len=16, seed=seed))


def _tokenizer() -> Tokenizer:
    return Tokenizer.train(["module adder endmodule wire input output"],
                           vocab_size=32)


def _bundle(seed: int = 0) -> dict:
    return model_weights_bundle(_model(seed), _tokenizer())


class TestWeightsBundle:
    def test_round_trip_preserves_logits_and_tokenizer(self):
        model, tokenizer = _model(3), _tokenizer()
        restored, restored_tok = model_from_bundle(
            model_weights_bundle(model, tokenizer))
        ids = [1, 5, 9, 2]
        np.testing.assert_array_equal(_logits(model, ids),
                                      _logits(restored, ids))
        assert restored_tok.inverse == tokenizer.inverse

    def test_digest_mismatch_is_an_error(self):
        bundle = _bundle()
        bundle["weights_sha256"] = "0" * 64
        with pytest.raises(ValueError, match="digest mismatch"):
            model_from_bundle(bundle)

    def test_missing_fields_are_an_error(self):
        bundle = _bundle()
        del bundle["params"]
        with pytest.raises(ValueError, match="missing 'params'"):
            model_from_bundle(bundle)

    def test_lora_is_reattached_and_merged_at_load(self):
        model, tokenizer = _model(7), _tokenizer()
        attach_lora(model, rank=2, alpha=4.0, seed=11)
        # Give the B factors real values so the merge is observable.
        rng = np.random.default_rng(5)
        for param in model.params():
            if param.value.ndim == 2 and not param.value.any():
                param.value[...] = rng.normal(
                    scale=0.05, size=param.value.shape)
        bundle = model_weights_bundle(
            model, tokenizer, lora={"rank": 2, "alpha": 4.0,
                                    "seed": 11})
        restored, _ = model_from_bundle(bundle, merge=True)
        ids = [2, 4, 6, 8, 1]
        reference = _logits(model, ids)    # adapter path
        merge_lora(model)
        np.testing.assert_allclose(_logits(restored, ids),
                                   _logits(model, ids),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(_logits(restored, ids),
                                   reference, rtol=0, atol=1e-9)

    def test_bundle_from_checkpoint_reads_the_manifest(self, tmp_path):
        root = str(tmp_path / "ckpt")
        os.makedirs(root)
        model, tokenizer = _model(1), _tokenizer()
        store = CheckpointStore(root, "fp-test")
        store.save(4, {
            "steps_done": 4, "val_done": 0, "losses": [], "val_losses":
            [], "params": [p.value for p in model.params()],
            "adam_m": [], "adam_v": [], "adam_step": 4,
            "model_config": {"vocab_size": 32, "d_model": 16,
                             "n_heads": 2, "n_layers": 1, "d_ff": 32,
                             "max_len": 16, "seed": 1},
            "tokenizer": list(tokenizer.inverse)})
        bundle = bundle_from_checkpoint(root)
        restored, restored_tok = model_from_bundle(bundle)
        ids = [3, 1, 4]
        np.testing.assert_array_equal(_logits(model, ids),
                                      _logits(restored, ids))
        assert restored_tok.inverse == tokenizer.inverse


class TestModelHost:
    def test_cold_load_then_hit(self):
        host = ModelHost(capacity=2)
        bundle = _bundle()
        first = host.load_bundle(bundle)
        second = host.load_bundle(bundle)
        assert first is second          # one live model per digest
        assert isinstance(first, LoadedModel)
        assert host.stats.to_dict() == {"hits": 1, "misses": 1}
        assert host.resident == 1

    def test_lru_eviction_is_capacity_bounded(self):
        host = ModelHost(capacity=2)
        bundles = [_bundle(seed) for seed in (1, 2, 3)]
        for bundle in bundles:
            host.load_bundle(bundle)
        assert host.resident == 2
        assert host.stats.misses == 3
        # Oldest (seed 1) was evicted: loading it again is a miss,
        # the most recent (seed 3) is still a hit.
        host.load_bundle(bundles[2])
        assert host.stats.hits == 1
        host.load_bundle(bundles[0])
        assert host.stats.misses == 4

    def test_bundle_without_digest_is_refused(self):
        host = ModelHost()
        with pytest.raises(ValueError, match="no weights_sha256"):
            host.load_bundle({"model": {}, "params": []})

    def test_load_checkpoint_round_trip(self, tmp_path):
        root = str(tmp_path / "ckpt")
        os.makedirs(root)
        model, tokenizer = _model(9), _tokenizer()
        store = CheckpointStore(root, "fp-host")
        store.save(1, {
            "steps_done": 1, "val_done": 0, "losses": [],
            "val_losses": [],
            "params": [p.value for p in model.params()],
            "adam_m": [], "adam_v": [], "adam_step": 1,
            "model_config": {"vocab_size": 32, "d_model": 16,
                             "n_heads": 2, "n_layers": 1, "d_ff": 32,
                             "max_len": 16, "seed": 9},
            "tokenizer": list(tokenizer.inverse)})
        host = ModelHost()
        loaded = host.load_checkpoint(root)
        np.testing.assert_array_equal(
            _logits(model, [1, 2, 3]),
            _logits(loaded.model, [1, 2, 3]))

    def test_trained_checkpoint_serves_the_run_weights(self, tmp_path):
        """A real run's checkpoint store loads into serving as exactly
        the weights the run reports in its own bundle."""
        root = str(tmp_path / "ckpt")
        records = [make_record(
            Task.NL_VERILOG, f"a module named unit{index}",
            f"module unit{index}(input a, output y);\n"
            f"  assign y = {'~' if index % 2 else ''}a;\nendmodule")
            for index in range(12)]
        report = train_run(Dataset(records=records), TrainConfig(
            epochs=1, batch_size=4, micro_batch=2, seq_len=24,
            vocab_size=96, d_model=16, n_heads=2, n_layers=1, d_ff=32,
            max_records=None, checkpoint_every=2), checkpoint_dir=root)
        loaded = ModelHost().load_checkpoint(root)
        want, _ = model_from_bundle(report.weights_bundle)
        assert loaded.digest == report.weights_sha256
        assert loaded.digest == report.weights_bundle["weights_sha256"]
        ids = [1, 2, 3, 4, 5]
        np.testing.assert_array_equal(_logits(loaded.model, ids),
                                      _logits(want, ids))


def _trained_profile(name: str):
    return dataclasses.replace(PROFILES["llama2-13b"], name=name,
                               display=f"Trained({name})")


def _problem() -> Problem:
    return Problem(name="unit_and", suite="thakur", tier="basic",
                   difficulty=0.25,
                   prompts={"middle": "Write a 2-input AND gate "
                                      "module named unit_and."},
                   reference="module unit_and(input a, input b, "
                             "output y); assign y = a & b; endmodule",
                   testbench="module unit_and_tb;\n"
                             "  reg a, b; wire y;\n"
                             "  unit_and dut(.a(a), .b(b), .y(y));\n"
                             "  initial begin a = 0; b = 0; #1; "
                             "$finish; end\n"
                             "endmodule\n")


class TestSampledEvalKeying:
    """Two artefacts under one registered name never share eval cells."""

    def test_same_name_different_weights_have_distinct_cells(self):
        profile = _trained_profile("keying-test")
        one = SampledModel(profile, _bundle(1))
        two = SampledModel(profile, _bundle(2))
        assert one.name == two.name
        assert one.weights_sha256 != two.weights_sha256
        assert profile_digest(one) != profile_digest(two)
        task_one = EvalTask(kind="generation", model=one,
                            payload=_problem(), n_samples=1)
        task_two = EvalTask(kind="generation", model=two,
                            payload=_problem(), n_samples=1)
        assert task_one.slot() != task_two.slot()
        assert task_one.key() != task_two.key()

    def test_decode_knobs_are_part_of_the_identity(self):
        profile = _trained_profile("keying-test")
        bundle = _bundle(1)
        base = SampledModel(profile, bundle)
        hotter = SampledModel(profile, bundle, temperature=1.3)
        assert profile_digest(base) != profile_digest(hotter)

    def test_engine_cache_never_aliases_across_artifacts(self, tmp_path):
        profile = _trained_profile("keying-test")
        tasks = [EvalTask(kind="generation",
                          model=SampledModel(profile, _bundle(seed)),
                          payload=_problem(), n_samples=1)
                 for seed in (1, 2)]
        cache_dir = str(tmp_path / "cells")
        engine = EvalEngine(cache_dir=cache_dir)
        engine.run(tasks)
        assert engine.stats.cache_misses == 2     # no aliasing
        rerun = EvalEngine(cache_dir=cache_dir)
        rerun.run(tasks)
        assert rerun.stats.cache_misses == 0
        assert rerun.stats.cache_hits == 2

    def test_registry_resolves_weighted_artifacts_to_sampled_models(self):
        name = "registry-sampled-test"
        profile = _trained_profile(name)
        artifact = {"name": name,
                    "profile": dataclasses.asdict(profile),
                    "weights": _bundle(4)}
        try:
            register_artifact(artifact)
            model = get_model(name)
            assert isinstance(model, SampledModel)
            assert model.weights_sha256 == \
                artifact["weights"]["weights_sha256"]
            # Re-registering without weights falls back to behavioural.
            del artifact["weights"]
            register_artifact(artifact)
            assert isinstance(get_model(name), BehavioralModel)
        finally:
            unregister_profile(name)

    def test_sampled_model_round_trips_through_pickle(self):
        import pickle
        model = SampledModel(_trained_profile("pickle-test"),
                             _bundle(6))
        clone = pickle.loads(pickle.dumps(model))
        assert clone.eval_fingerprint == model.eval_fingerprint
        out = clone.generate_verilog("", "basic", 0.2, n_samples=2,
                                     problem_name="pickled",
                                     prompt="Write Verilog for a "
                                            "buffer.")
        assert out == model.generate_verilog(
            "", "basic", 0.2, n_samples=2, problem_name="pickled",
            prompt="Write Verilog for a buffer.")
