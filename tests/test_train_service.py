"""Proof of the training service's determinism + resume contract.

Mirrors ``test_serve_recovery.py``'s split: tier-1 runs fixed
interruption points and a derandomized hypothesis profile; the
randomized SIGKILL sweep runs under ``pytest -m tier2``.

The contract (see ``repro.train.service``): loss curves and final
weights are byte-identical across shard counts, checkpoint cadences,
and any number of interruption-and-resume cycles — including SIGKILL
between a checkpoint blob landing and the manifest pointing at it.
"""

import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.records import Dataset, Task, make_record
from repro.llm.tokenizer import Tokenizer
from repro.llm.trainer import records_to_text, split_dataset
from repro.serve import validate_spec
from repro.serve.executor import run_augment
from repro.train import (CRASH_AFTER_ENV, CRASH_MODE_ENV, CheckpointStore,
                         TrainConfig, build_artifact, dataset_digest,
                         train_run)
from repro.train.data import encode_sequences, epoch_plan

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

_SETTINGS = dict(deadline=None, derandomize=True,
                 suppress_health_check=(HealthCheck.too_slow,))

MODULE_A = """module dff(input clk, input d, output reg q);
  always @(posedge clk) q <= d;
endmodule
"""

MODULE_B = """module mux2(input a, input b, input sel, output y);
  assign y = sel ? b : a;
endmodule
"""


def _corpus(root) -> str:
    corpus = os.path.join(str(root), "corpus")
    os.makedirs(corpus, exist_ok=True)
    for name, text in (("dff.v", MODULE_A), ("mux2.v", MODULE_B)):
        with open(os.path.join(corpus, name), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
    return corpus


def _tiny_config(**overrides) -> TrainConfig:
    base = dict(epochs=2, batch_size=4, micro_batch=2, seq_len=24,
                vocab_size=128, d_model=16, n_heads=2, n_layers=1,
                d_ff=32, max_records=24, checkpoint_every=2)
    base.update(overrides)
    return TrainConfig(**base)


def _synthetic_dataset(n: int = 24) -> Dataset:
    """Records built directly (no augmentation) — fast property fuel."""
    records = []
    for index in range(n):
        records.append(make_record(
            Task.NL_VERILOG,
            f"a module named unit{index} with {index % 5} inputs "
            f"and a registered output",
            f"module unit{index}(input clk, output reg q);\n"
            f"  always @(posedge clk) q <= {index % 2};\n"
            f"endmodule"))
    return Dataset(records=records)


def _load(corpus: str, cache_dir, **spec):
    """The train job's corpus load for a one-path spec."""
    return run_augment(validate_spec("train", dict(spec, paths=[corpus])),
                       cache_dir, 1)


# --------------------------------------------------------------------------
# Data loading: shard-cache path
# --------------------------------------------------------------------------

class TestCorpusLoading:
    """A train job loads its corpus through the augment job's code."""

    def test_shard_count_invariance(self, tmp_path):
        corpus = _corpus(tmp_path)
        one = _load(corpus, None, shards=1).dataset
        many = _load(corpus, None, shards=5).dataset
        assert dataset_digest(one) == dataset_digest(many)

    def test_warm_cache_reaugments_nothing(self, tmp_path):
        corpus = _corpus(tmp_path)
        cache = str(tmp_path / "cache")
        cold = _load(corpus, cache)
        warm = _load(corpus, cache)
        assert cold.cache_misses > 0
        assert warm.cache_misses == 0 and warm.shards_computed == 0
        assert dataset_digest(cold.dataset) == dataset_digest(warm.dataset)

    def test_config_change_invalidates(self, tmp_path):
        corpus = _corpus(tmp_path)
        cache = str(tmp_path / "cache")
        _load(corpus, cache)
        report = _load(corpus, cache, seed=7)
        assert report.cache_misses > 0


# --------------------------------------------------------------------------
# Tier-1 fixed points: cadence / resume invariance
# --------------------------------------------------------------------------

class TestDeterminism:
    @pytest.fixture(scope="class")
    def dataset(self):
        return _synthetic_dataset()

    @pytest.fixture(scope="class")
    def reference(self, dataset):
        return train_run(dataset, _tiny_config())

    def test_checkpoint_cadence_is_operational_only(self, dataset,
                                                    reference, tmp_path):
        for cadence in (0, 1, 5):
            run = train_run(dataset, _tiny_config(
                checkpoint_every=cadence),
                checkpoint_dir=str(tmp_path / f"ck-{cadence}"))
            assert run.weights_sha256 == reference.weights_sha256
            assert run.losses == reference.losses

    @pytest.mark.parametrize("stop_at", [1, 3, 5])
    def test_stop_and_resume_byte_identical(self, dataset, reference,
                                            tmp_path, stop_at):
        ckpt = str(tmp_path / f"ck-{stop_at}")
        partial = train_run(dataset, _tiny_config(),
                            checkpoint_dir=ckpt,
                            stop_after_steps=stop_at)
        assert not partial.completed and partial.steps == stop_at
        resumed = train_run(dataset, _tiny_config(), checkpoint_dir=ckpt)
        assert resumed.resumed_steps == stop_at
        assert resumed.weights_sha256 == reference.weights_sha256
        assert resumed.losses == reference.losses
        assert resumed.val_losses == reference.val_losses

    def test_finished_run_resumes_instantly(self, dataset, reference,
                                            tmp_path):
        ckpt = str(tmp_path / "ck-done")
        first = train_run(dataset, _tiny_config(), checkpoint_dir=ckpt)
        again = train_run(dataset, _tiny_config(), checkpoint_dir=ckpt)
        assert again.resumed_steps == first.steps
        assert again.weights_sha256 == reference.weights_sha256
        assert again.val_losses == reference.val_losses
        assert again.checkpoints_written == 0   # nothing new to commit

    def test_no_redundant_final_checkpoint(self, dataset, reference,
                                           tmp_path):
        """When the cadence divides the step count, the last cadence
        write already holds the final step: no second write of it."""
        every = 4
        assert reference.steps % every == 0
        run = train_run(dataset, _tiny_config(checkpoint_every=every),
                        checkpoint_dir=str(tmp_path / "ck"))
        assert run.steps == reference.steps
        assert run.checkpoints_written == -(-run.steps // every)
        assert run.weights_sha256 == reference.weights_sha256

    def test_config_change_discards_checkpoints(self, dataset, tmp_path):
        ckpt = str(tmp_path / "ck")
        train_run(dataset, _tiny_config(), checkpoint_dir=ckpt,
                  stop_after_steps=2)
        run = train_run(dataset, _tiny_config(lr=1e-2),
                        checkpoint_dir=ckpt)
        assert run.resumed_steps == 0   # incompatible fingerprint

    def test_artifact_is_pure_in_run(self, dataset, reference):
        again = train_run(dataset, _tiny_config())
        first = build_artifact("tiny", reference, dataset)
        second = build_artifact("tiny", again, dataset)
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)
        assert first["profile"]["name"] == "tiny"
        assert first["weights_sha256"] == reference.weights_sha256


def test_trained_tokens_counts_only_the_targets_trained_on():
    # One record is far longer than seq_len + 1 tokens; training keeps
    # only its first seq_len targets, and so must the count.
    records = list(_synthetic_dataset(8))
    records.append(make_record(
        Task.NL_VERILOG, "a wide register bank",
        "module bank(input clk, input [7:0] d, output reg [7:0] q);\n"
        + "".join(f"  always @(posedge clk) q[{bit}] <= d[{bit}];\n"
                  for bit in range(8))
        + "endmodule"))
    dataset = Dataset(records=records)
    config = _tiny_config(epochs=1)
    report = train_run(dataset, config)
    train_set, _ = split_dataset(dataset, val_fraction=config.val_fraction,
                                 seed=config.seed)
    tokenizer = Tokenizer.train(records_to_text(train_set),
                                vocab_size=config.vocab_size)
    sequences = encode_sequences(train_set, tokenizer)
    assert max(map(len, sequences)) > config.seq_len + 1
    plan = epoch_plan(sequences, report.dataset_digest, config.seed, 0,
                      config.batch_size, config.micro_batch,
                      config.seq_len, tokenizer.pad_id)
    targets = sum(int((t != -1).sum()) for micros in plan
                  for _, t in micros)
    assert report.trained_tokens == targets
    assert targets < sum(map(len, sequences))


# --------------------------------------------------------------------------
# Hypothesis: one property over geometry × cadence × interruption
# --------------------------------------------------------------------------

@settings(max_examples=6, **_SETTINGS)
@given(batch_size=st.integers(min_value=2, max_value=5),
       micro_batch=st.integers(min_value=1, max_value=3),
       stop_at=st.integers(min_value=1, max_value=4),
       cadence=st.integers(min_value=1, max_value=3))
def test_property_resume_matches_uninterrupted(tmp_path_factory,
                                               batch_size, micro_batch,
                                               stop_at, cadence):
    """Interrupted-at-any-checkpoint + resumed equals an uninterrupted
    run, for arbitrary batch geometry and checkpoint cadence."""
    dataset = _synthetic_dataset(16)
    config = _tiny_config(epochs=1, batch_size=batch_size,
                          micro_batch=micro_batch, max_records=16,
                          checkpoint_every=cadence)
    reference = train_run(dataset, config)
    ckpt = str(tmp_path_factory.mktemp("ck"))
    train_run(dataset, config, checkpoint_dir=ckpt,
              stop_after_steps=stop_at)
    resumed = train_run(dataset, config, checkpoint_dir=ckpt)
    assert resumed.weights_sha256 == reference.weights_sha256
    assert resumed.losses == reference.losses
    assert resumed.val_losses == reference.val_losses


# --------------------------------------------------------------------------
# SIGKILL at checkpoint boundaries (subprocess, via the CLI)
# --------------------------------------------------------------------------

def _train_cli(corpus: str, ckpt: str, cache: str, report: str,
               crash_after: int | None = None,
               crash_mode: str | None = None, cwd: str = REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(CRASH_AFTER_ENV, None)
    env.pop(CRASH_MODE_ENV, None)
    if crash_after:
        env[CRASH_AFTER_ENV] = str(crash_after)
        env[CRASH_MODE_ENV] = crash_mode or "kill"
    return subprocess.run(
        [sys.executable, "-m", "repro", "train", corpus,
         "--cache-dir", cache, "--checkpoint-dir", ckpt,
         "--report-out", report, "--epochs", "2", "--batch-size", "4",
         "--seq-len", "24", "--vocab-size", "128",
         "--d-model", "16", "--n-heads", "2", "--n-layers", "1",
         "--d-ff", "32", "--max-records", "24",
         "--checkpoint-every", "1"],
        env=env, cwd=cwd, capture_output=True, text=True)


def _sigkill_round(tmp_path, crash_after: int, crash_mode: str) -> None:
    corpus = _corpus(tmp_path)
    cache = str(tmp_path / "cache")
    ref_report = str(tmp_path / "ref.json")
    done = _train_cli(corpus, str(tmp_path / "ck-ref"), cache,
                      ref_report)
    assert done.returncode == 0, done.stdout + done.stderr

    ckpt = str(tmp_path / f"ck-{crash_mode}-{crash_after}")
    report = str(tmp_path / f"report-{crash_mode}-{crash_after}.json")
    killed = _train_cli(corpus, ckpt, cache, report,
                        crash_after=crash_after, crash_mode=crash_mode)
    if killed.returncode == 0:
        pass        # crash point beyond this run's checkpoint traffic
    else:
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        assert not os.path.exists(report)
        resumed = _train_cli(corpus, ckpt, cache, report)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr

    with open(ref_report, encoding="utf-8") as handle:
        reference = json.load(handle)
    with open(report, encoding="utf-8") as handle:
        recovered = json.load(handle)
    assert recovered == reference       # weights digest, losses, all


class TestSigkillResume:
    """Fixed interruption points (tier-1 sample)."""

    @pytest.mark.parametrize("crash_after", [1, 4])
    def test_sigkill_after_checkpoint_commit(self, tmp_path, crash_after):
        _sigkill_round(tmp_path, crash_after, "kill")

    def test_sigkill_between_blob_and_manifest(self, tmp_path):
        """Journal-first ordering: the blob lands, the manifest still
        names the previous checkpoint — resume replays the gap."""
        _sigkill_round(tmp_path, 3, "early")


def test_cli_report_ignores_working_directory_files(tmp_path):
    """``repro train`` output depends on its arguments alone: a
    ``work/tune.json`` in the working directory (the file the retired
    autotuner wrote, here asking for ``micro_batch: 1``) changes
    nothing."""
    corpus = _corpus(tmp_path)
    cache = str(tmp_path / "cache")
    clean = str(tmp_path / "clean.json")
    done = _train_cli(corpus, str(tmp_path / "ck-clean"), cache, clean)
    assert done.returncode == 0, done.stdout + done.stderr

    host = tmp_path / "host"
    (host / "work").mkdir(parents=True)
    (host / "work" / "tune.json").write_text(json.dumps(
        {"version": 1, "config": {"jobs": 1, "pool": None,
                                  "micro_batch": 1,
                                  "checkpoint_every": 4}}))
    steered = str(tmp_path / "steered.json")
    done = _train_cli(corpus, str(tmp_path / "ck-steered"), cache,
                      steered, cwd=str(host))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(clean, encoding="utf-8") as handle:
        expected = json.load(handle)
    with open(steered, encoding="utf-8") as handle:
        assert json.load(handle) == expected


@pytest.mark.tier2
class TestSigkillResumeRandomized:
    """The full randomized sweep (``pytest -m tier2``)."""

    import random as _random
    POINTS = sorted(_random.Random(2026).sample(range(1, 14), 5))

    @pytest.mark.parametrize("crash_after", POINTS)
    @pytest.mark.parametrize("crash_mode", ["kill", "early"])
    def test_randomized_crash_points(self, tmp_path, crash_after,
                                     crash_mode):
        _sigkill_round(tmp_path, crash_after, crash_mode)


# --------------------------------------------------------------------------
# Checkpoint-store units
# --------------------------------------------------------------------------

class TestCheckpointStore:
    @staticmethod
    def _state(seed: int) -> dict:
        rng = np.random.default_rng(seed)
        shapes = [(7, 3), (3,), (2, 2, 5)]
        return {"steps_done": seed, "losses": [0.1 * seed, 1 / 3],
                "params": [rng.normal(size=s) for s in shapes],
                "adam_m": [rng.normal(size=s) for s in shapes],
                "adam_v": [rng.random(size=s) ** 9 for s in shapes]}

    @staticmethod
    def _blob(root, step: int) -> str:
        return os.path.join(str(root), f"checkpoint-{step:08d}.bin")

    def test_raw_round_trip_is_bit_exact(self, tmp_path):
        state = self._state(1)
        store = CheckpointStore(str(tmp_path), "fp")
        store.save(1, state)
        got = CheckpointStore(str(tmp_path), "fp").latest()
        assert got["steps_done"] == 1
        assert got["losses"] == state["losses"]     # floats, not approx
        for key in ("params", "adam_m", "adam_v"):
            assert len(got[key]) == len(state[key])
            for want, have in zip(state[key], got[key]):
                assert have.dtype == np.float64
                assert have.shape == want.shape
                assert have.tobytes() == want.tobytes()
                assert have.flags.writeable

    def test_corrupt_latest_falls_back(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "fp")
        store.save(1, {"steps_done": 1})
        store.save(2, {"steps_done": 2})
        with open(self._blob(tmp_path, 2), "w",
                  encoding="utf-8") as handle:
            handle.write("{tampered")
        reopened = CheckpointStore(str(tmp_path), "fp")
        assert reopened.latest() == {"steps_done": 1}

    def test_flipped_array_byte_falls_back(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "fp")
        store.save(1, self._state(1))
        store.save(2, self._state(2))
        path = self._blob(tmp_path, 2)
        with open(path, "r+b") as handle:
            handle.seek(-5, os.SEEK_END)    # inside the array region
            byte = handle.read(1)
            handle.seek(-5, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0x01]))
        got = CheckpointStore(str(tmp_path), "fp").latest()
        assert got["steps_done"] == 1

    def test_truncated_blob_falls_back(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "fp")
        store.save(1, self._state(1))
        store.save(2, self._state(2))
        path = self._blob(tmp_path, 2)
        os.truncate(path, os.path.getsize(path) // 2)
        got = CheckpointStore(str(tmp_path), "fp").latest()
        assert got["steps_done"] == 1

    def test_v2_json_store_is_discarded(self, tmp_path):
        root = str(tmp_path)
        for step in (3, 4):
            with open(os.path.join(root, f"checkpoint-{step:08d}.json"),
                      "w", encoding="utf-8") as handle:
                handle.write('{"steps_done": %d}\n' % step)
        with open(os.path.join(root, "manifest.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"version": 2, "fingerprint": "fp", "checkpoints": [
                {"step": step, "file": f"checkpoint-{step:08d}.json",
                 "sha256": "0" * 64} for step in (3, 4)]}, handle)
        store = CheckpointStore(root, "fp")
        assert store.latest() is None
        assert not [name for name in os.listdir(root)
                    if name.startswith("checkpoint-")]

    def test_fingerprint_mismatch_starts_clean(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "fp-a")
        store.save(1, {"steps_done": 1})
        reopened = CheckpointStore(str(tmp_path), "fp-b")
        assert reopened.latest() is None

    def test_old_checkpoints_are_pruned(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "fp")
        for step in (1, 2, 3, 4):
            store.save(step, {"steps_done": step})
        names = sorted(name for name in os.listdir(str(tmp_path))
                       if name.startswith("checkpoint-"))
        assert names == ["checkpoint-00000003.bin",
                         "checkpoint-00000004.bin"]
