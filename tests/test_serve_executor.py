"""``execute_batch`` dispatch, and the CLI commands that run job code.

One code path per job kind: ``repro infer`` and ``repro train`` must
produce exactly what the infer and train jobs produce for the same
inputs, and every kind's batch must keep its failure isolation and its
simulator accounting.
"""

import dataclasses
import json
import os

from repro.cli import main
from repro.llm.behavioral import PROFILES
from repro.llm.tiny_transformer import (TinyTransformerLM,
                                        TransformerConfig)
from repro.llm.tokenizer import Tokenizer
from repro.serve import Job, validate_spec
from repro.serve.executor import execute_batch, execute_job
from repro.sim import BackendStats
from repro.train import model_weights_bundle

MODULE_A = """module dff(input clk, input d, output reg q);
  always @(posedge clk) q <= d;
endmodule
"""

MODULE_B = """module mux2(input a, input b, input sel, output y);
  assign y = sel ? b : a;
endmodule
"""

#: Train knobs small enough for tier-1, as ``repro train`` flags.
TRAIN_FLAGS = ["--epochs", "1", "--batch-size", "4", "--seq-len", "24",
               "--vocab-size", "128", "--d-model", "16", "--n-heads",
               "2", "--n-layers", "1", "--d-ff", "32",
               "--checkpoint-every", "0", "--train-seed", "5",
               "--max-records", "0"]


def _corpus(root) -> str:
    corpus = os.path.join(str(root), "corpus")
    os.makedirs(corpus, exist_ok=True)
    for name, text in (("dff.v", MODULE_A), ("mux2.v", MODULE_B)):
        with open(os.path.join(corpus, name), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
    return corpus


def _job(seq: int, kind: str, spec: dict) -> Job:
    return Job(id=f"job-{seq:06d}", seq=seq, kind=kind, spec=spec)


class TestDispatch:
    def test_per_job_failure_stays_with_its_job(self, tmp_path):
        good = validate_spec("augment", {"paths": [_corpus(tmp_path)]})
        missing = os.path.join(str(tmp_path), "missing.v")
        bad = dict(good, paths=[missing])
        result = execute_batch("augment", [_job(1, "augment", bad),
                                           _job(2, "augment", good)],
                               str(tmp_path / "work"))
        failed = result.outcomes["job-000001"]
        assert not failed.ok and failed.blob is None
        assert failed.error.startswith("FileNotFoundError: ")
        assert missing in failed.error and "\n" not in failed.error
        done = result.outcomes["job-000002"]
        assert done.ok and done.blob["records"] > 0

    def test_unknown_kind_fails_every_job(self, tmp_path):
        jobs = [_job(seq, "bogus", {}) for seq in (1, 2)]
        result = execute_batch("bogus", jobs, str(tmp_path))
        assert {job_id: (o.ok, o.error)
                for job_id, o in result.outcomes.items()} == {
            job.id: (False, "unknown job kind 'bogus'") for job in jobs}

    def test_simulate_batch_counts_its_runs(self, tmp_path):
        jobs = []
        for seq in (1, 2):
            source = ("module top; initial begin "
                      f"$display(\"{tmp_path.name} run {seq}\"); end "
                      "endmodule\n")
            jobs.append(_job(seq, "simulate", validate_spec(
                "simulate", {"source": source})))
        result = execute_batch("simulate", jobs, str(tmp_path))
        assert all(o.ok for o in result.outcomes.values())
        stats = result.sim_stats
        assert stats.interp_runs + stats.cache_hits == len(jobs)

    def test_probe_batch_counts_no_simulation(self, tmp_path):
        jobs = [_job(seq, "probe", validate_spec("probe", {"payload": seq}))
                for seq in (1, 2)]
        result = execute_batch("probe", jobs, str(tmp_path))
        assert all(o.ok for o in result.outcomes.values())
        assert result.sim_stats == BackendStats()

    def test_evaluate_batch_reports_its_engines_counters(
            self, tmp_path, monkeypatch):
        import repro.eval
        from repro.eval import clear_cache
        from repro.sim import clear_memo
        engines = []

        class Recording(repro.eval.EvalEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr(repro.eval, "EvalEngine", Recording)
        clear_cache()
        clear_memo()
        spec = validate_spec("evaluate", {
            "suite": "thakur", "models": ["gpt-3.5"], "samples": 1,
            "levels": ["middle"]})
        result = execute_batch("evaluate", [_job(1, "evaluate", spec)],
                               str(tmp_path))
        assert result.outcomes["job-000001"].ok
        assert len(engines) == 1
        assert result.sim_stats == engines[0].sim_stats
        assert result.sim_stats.interp_runs > 0


class TestCliRunsJobCode:
    def test_infer_out_is_the_infer_job_blob(self, tmp_path):
        model = TinyTransformerLM(TransformerConfig(
            vocab_size=48, d_model=16, n_heads=2, n_layers=1, d_ff=32,
            max_len=24, seed=4))
        tokenizer = Tokenizer.train(
            ["module counter endmodule always begin end wire reg"],
            vocab_size=48)
        profile = dataclasses.replace(PROFILES["llama2-13b"],
                                      name="fresh",
                                      display="Trained(fresh)")
        artifact = {"name": "fresh",
                    "profile": dataclasses.asdict(profile),
                    "weights": model_weights_bundle(model, tokenizer)}
        path = tmp_path / "fresh.json"
        path.write_text(json.dumps(artifact))
        prompts = ["module counter", "always begin"]
        out = tmp_path / "c.json"
        argv = ["infer", str(path), "--max-tokens", "8",
                "--temperature", "0.9", "--seed", "5", "--out", str(out)]
        for prompt in prompts:
            argv += ["--prompt", prompt]
        assert main(argv) == 0
        blob = execute_job(
            "infer", {"prompts": prompts,
                      "trained": {"name": "fresh", "job": "job-000001"},
                      "max_tokens": 8, "temperature": 0.9, "seed": 5},
            str(tmp_path / "work"),
            resolve={"job-000001": {"artifact": artifact}}.get)
        assert out.read_text() == json.dumps(
            blob, indent=2, sort_keys=True) + "\n"

    def test_infer_without_weights_names_the_reason(self, tmp_path,
                                                    capsys):
        profile = dataclasses.replace(PROFILES["llama2-13b"],
                                      name="fresh",
                                      display="Trained(fresh)")
        artifact = {"name": "fresh",
                    "profile": dataclasses.asdict(profile)}
        path = tmp_path / "noweights.json"
        path.write_text(json.dumps(artifact))
        assert main(["infer", str(path), "--prompt", "x"]) == 2
        assert capsys.readouterr().err == (
            f"cannot decode {path}: the artefact carries no weights "
            "bundle (trained by a pre-inference repro.train?)\n")
        # A malformed bundle is named without an exception class too.
        bad = tmp_path / "bad_art.json"
        bad.write_text(json.dumps({"name": "x", "weights": {"bogus": 1}}))
        assert main(["infer", str(bad), "--prompt", "x"]) == 2
        assert capsys.readouterr().err == (
            f"cannot decode {bad}: weights bundle has no weights_sha256\n")
        # The service's job error keeps its class and dependency id.
        job = _job(2, "infer", validate_spec("infer", {
            "prompts": ["x"],
            "trained": {"name": "fresh", "job": "job-000001"}}))
        result = execute_batch(
            "infer", [job], str(tmp_path / "work"),
            resolve={"job-000001": {"artifact": artifact}}.get)
        assert result.outcomes[job.id].error == (
            "RuntimeError: artefact of job job-000001 carries no weights "
            "bundle (trained by a pre-inference repro.train?)")

    def test_train_report_is_the_train_job_blob(self, tmp_path):
        corpus = _corpus(tmp_path)
        report = tmp_path / "report.json"
        out = tmp_path / "artifact.json"
        assert main(["train", corpus, "--register-as", "fresh",
                     "--checkpoint-dir", str(tmp_path / "ck"),
                     "--out", str(out), "--report-out", str(report)]
                    + TRAIN_FLAGS) == 0
        spec = {"paths": [corpus], "register_as": "fresh", "epochs": 1,
                "batch_size": 4, "seq_len": 24, "vocab_size": 128,
                "d_model": 16, "n_heads": 2, "n_layers": 1, "d_ff": 32,
                "checkpoint_every": 0, "train_seed": 5,
                "max_records": None}
        blob = json.loads(json.dumps(execute_job(
            "train", spec, str(tmp_path / "work"))))
        written = json.loads(report.read_text())
        assert {"steps", "records", "losses", "val_losses",
                "final_loss", "weights_sha256", "dataset_digest",
                "trained_tokens"} <= set(written)
        assert written == {key: blob[key] for key in written}
        assert json.loads(out.read_text()) == blob["artifact"]
