"""The CLI's two front ends for one job kind build the same job.

``repro <kind>`` runs a job's code locally and ``repro submit <kind>``
sends the job to a daemon.  For every flag both accept, the spec the
submit path sends must normalise to what the direct command runs, so a
user can move a command line between the two without changing its
result.  The submit side is read through a fake client; the direct
side by stopping the command at the function that would do the work.
"""

import json
import os
import subprocess
import sys

import pytest

import repro.cli as cli
from repro.cli import main
from repro.scale.store import DEFAULT_NUM_SHARDS
from repro.serve import (Daemon, GatewayServer, ServeClient, SpecError,
                         validate_spec)
from repro.serve.executor import _config_from_spec

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

TESTBENCH = """module tb;
  reg a;
  initial begin a = 1; $display("a=%b", a); $finish; end
endmodule
"""


class _Stop(Exception):
    """Raised by a stand-in for the work a direct command would do."""


class _Host:
    """A model host that loads any bundle."""

    def load_bundle(self, bundle):
        return None


class _FakeClient:
    def __init__(self):
        self.sent = []

    def submit(self, kind, spec, priority=0, after=None):
        self.sent.append((kind, json.loads(json.dumps(spec)), after))
        return {"id": "job-000001", "kind": kind, "priority": priority}


@pytest.fixture
def submitted(monkeypatch):
    """``argv -> (kind, spec, after)`` as ``repro submit`` sends it."""
    client = _FakeClient()
    monkeypatch.setattr(cli, "_client", lambda args: client)

    def run(argv):
        assert main(["submit"] + argv) == 0
        return client.sent.pop()
    return run


def _capture(monkeypatch, module, name):
    """Replace ``module.name`` by a recorder that stops the command."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Stop
    monkeypatch.setattr(module, name, record)
    return calls


def _direct(argv, calls):
    with pytest.raises(_Stop):
        main(argv)
    return calls.pop()


PATHS = ["corpus", "extra/one.v"]

AUGMENT_FLAGS = [[], ["--seed", "3"], ["--completion-only"],
                 ["--seed", "2", "--completion-only"],
                 ["--shards", "3"], ["--shards", "0"]]

TRAIN_FLAGS = [
    [], ["--max-records", "0"],
    ["--completion-only", "--seed", "4", "--register-as", "mine"],
    ["--shards", "5"], ["--shards", "0"],
    ["--epochs", "3", "--batch-size", "6", "--micro-batch", "3",
     "--seq-len", "40", "--lr", "0.01", "--train-seed", "7",
     "--vocab-size", "200", "--d-model", "24", "--n-heads", "3",
     "--n-layers", "2", "--d-ff", "48", "--max-records", "17",
     "--checkpoint-every", "0"]]

EVALUATE_FLAGS = [
    [], ["--suite", "repair", "--seed", "1"],
    ["--suite", "thakur", "--models", "ours-13b,gpt-3.5", "--samples",
     "2", "--k", "1", "--levels", "low,high", "--seed", "3"],
    ["--suite", "scripts", "--models", "ours-7b"]]

INFER_FLAGS = [
    ["--prompt", "a"],
    ["--prompt", "a", "--prompt", "b", "--max-tokens", "8",
     "--temperature", "0.5", "--seed", "2"]]


class TestSubmitMatchesDirect:
    @pytest.mark.parametrize("flags", AUGMENT_FLAGS)
    def test_augment(self, flags, submitted, monkeypatch):
        import repro.scale
        calls = _capture(monkeypatch, repro.scale, "augment_distributed")
        args, kwargs = _direct(["augment"] + PATHS + flags, calls)
        kind, spec, after = submitted(["augment"] + PATHS + flags)
        assert (kind, after) == ("augment", None)
        spec = validate_spec("augment", spec)
        assert spec["paths"] == [os.path.abspath(p) for p in PATHS]
        assert [os.path.abspath(p) for p in args[0]] == spec["paths"]
        assert kwargs["config"].fingerprint() == \
            _config_from_spec(spec).fingerprint()
        assert kwargs["num_shards"] == \
            (spec["shards"] or DEFAULT_NUM_SHARDS)

    @pytest.mark.parametrize("flags", TRAIN_FLAGS)
    def test_train(self, flags, submitted, monkeypatch):
        import repro.serve.executor
        calls = _capture(monkeypatch, repro.serve.executor,
                         "run_training")
        args, _ = _direct(["train"] + PATHS + flags, calls)
        ran = dict(args[0], paths=[os.path.abspath(p)
                                   for p in args[0]["paths"]])
        kind, spec, after = submitted(["train"] + PATHS + flags)
        assert (kind, after) == ("train", None)
        assert validate_spec("train", spec) == ran

    @pytest.mark.parametrize("flags", EVALUATE_FLAGS)
    def test_evaluate(self, flags, submitted, monkeypatch):
        import repro.eval
        calls = _capture(monkeypatch, repro.eval, "run_suite")
        args, kwargs = _direct(["evaluate"] + flags, calls)
        levels = kwargs.get("levels")
        ran = {key: kwargs[key] for key in ("models", "samples", "k",
                                            "seed") if key in kwargs}
        ran.update(suite=args[0] if args else kwargs["suite"],
                   levels=list(levels) if levels else None)
        kind, spec, after = submitted(["evaluate"] + flags)
        assert (kind, after) == ("evaluate", None)
        assert validate_spec("evaluate", spec) == \
            validate_spec("evaluate", ran)

    @pytest.mark.parametrize("flags", INFER_FLAGS)
    def test_infer(self, flags, submitted, monkeypatch, tmp_path):
        import repro.infer
        import repro.serve.executor
        monkeypatch.setattr(repro.infer, "shared_host", lambda: _Host())
        monkeypatch.setattr(repro.serve.executor, "artifact_weights",
                            lambda artifact, what: {})
        calls = _capture(monkeypatch, repro.serve.executor,
                         "execute_job")
        artifact = tmp_path / "art.json"
        artifact.write_text(json.dumps({"name": "fresh"}))
        args, _ = _direct(["infer", str(artifact)] + flags, calls)
        assert args[0] == "infer"
        ran = validate_spec("infer", args[1])
        kind, spec, after = submitted(
            ["infer", "job-000007", "--trained-name", "fresh"] + flags)
        assert (kind, after) == ("infer", ["job-000007"])
        spec = validate_spec("infer", spec)
        assert spec["trained"] == {"name": "fresh", "job": "job-000007"}
        assert ran["trained"] == {"name": "fresh", "job": "local"}
        assert dict(spec, trained=None) == dict(ran, trained=None)

    @pytest.mark.parametrize("direct, flags", [
        ([], []), (["--top", "tb"], ["--top", "tb"]),
        (["--vcd", "w.vcd"], ["--vcd"])])
    def test_simulate(self, direct, flags, submitted, monkeypatch,
                      tmp_path):
        import repro.sim
        calls = _capture(monkeypatch, repro.sim, "run_simulation")
        path = tmp_path / "tb.v"
        path.write_text(TESTBENCH)
        args, kwargs = _direct(["simulate", str(path)] + direct, calls)
        ran = {"source": args[0], "top": kwargs["top"],
               "vcd": kwargs["trace"]}
        kind, spec, after = submitted(["simulate", str(path)] + flags)
        assert (kind, after) == ("simulate", None)
        assert validate_spec("simulate", spec) == \
            validate_spec("simulate", ran)


def test_submit_probe_status_result_round_trip(tmp_path, capsys):
    daemon = Daemon(str(tmp_path / "store"), workers=1)
    daemon.start()
    server = GatewayServer(daemon).start()
    try:
        assert main(["submit", "--url", server.url, "--priority", "2",
                     "probe", "--payload", '{"a": [1, 2]}']) == 0
        lines = capsys.readouterr().out.splitlines()
        job_id = lines[-1]
        assert lines[0] == f"-- submitted {job_id} (probe, priority 2)"
        ServeClient(server.url).wait([job_id], timeout=60)
        assert main(["status", "--url", server.url, job_id]) == 0
        job = json.loads(capsys.readouterr().out)
        assert (job["kind"], job["state"], job["spec"]) == \
            ("probe", "done", {"payload": {"a": [1, 2]}, "sleep_ms": 0})
        assert main(["result", "--url", server.url, "--json",
                     job_id]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["payload"] == {"a": [1, 2]}
        assert blob == ServeClient(server.url).result(job_id)
    finally:
        server.stop()
        daemon.stop()


class TestSharedFlags:
    @pytest.mark.parametrize("argv, spec", [
        (["augment", "a.v"], {"paths": [os.path.abspath("a.v")]}),
        (["train", "a.v"], {"paths": [os.path.abspath("a.v")]}),
        (["evaluate"], {"suite": "generation"}),
        (["infer", "job-000003", "--prompt", "p"],
         {"prompts": ["p"],
          "trained": {"name": "trained", "job": "job-000003"}})])
    def test_unset_flags_are_left_to_the_normaliser(self, argv, spec,
                                                    submitted):
        """No shared flag carries a default of its own."""
        assert submitted(argv)[1] == spec

    def test_train_flags_are_the_spec_knobs(self):
        from repro.serve.jobs import TRAIN_KNOBS
        from repro.train import TrainConfig
        assert cli.TRAIN_KNOBS == tuple(TRAIN_KNOBS)
        fields = set(TrainConfig.__dataclass_fields__) - {"val_fraction"}
        assert set(TRAIN_KNOBS.values()) == fields

    def test_pipeline_builds_pipeline_flow(self, monkeypatch):
        from repro.flow import pipeline_flow

        class _Client:
            def submit_flow(self, blob):
                self.blob = blob
                return {"flow": blob["name"], "nodes": {
                    name: {"id": f"job-{i}"} for i, name in
                    enumerate(("augment", "train", "evaluate"))}}
        client = _Client()
        monkeypatch.setattr(cli, "_client", lambda args: client)
        assert main(["pipeline", "c", "--no-wait"]) == 0
        assert client.blob == pipeline_flow(
            paths=[os.path.abspath("c")], register_as="trained")
        assert main(["pipeline", "c", "--no-wait", "--seed", "3",
                     "--completion-only", "--epochs", "1",
                     "--max-records", "0", "--register-as", "m",
                     "--suite", "rtllm", "--models", "ours-7b",
                     "--samples", "2", "--k", "1", "--levels", "low",
                     "--priority", "4"]) == 0
        assert client.blob == pipeline_flow(
            paths=[os.path.abspath("c")], seed=3, completion_only=True,
            train_knobs={"epochs": 1, "max_records": None},
            register_as="m", suite="rtllm", models=["ours-7b"],
            samples=2, k=1, levels=["low"], priority=4)


class TestShards:
    @pytest.mark.parametrize("shards", [-2, True, "4", 2.5])
    @pytest.mark.parametrize("kind", ["augment", "train"])
    def test_spec_rejects_bad_shards(self, kind, shards):
        with pytest.raises(SpecError, match="'shards' must be"):
            validate_spec(kind, {"paths": ["a.v"], "shards": shards})

    @pytest.mark.parametrize("shards", [None, 0, 4])
    def test_spec_keeps_good_shards(self, shards):
        assert validate_spec("augment", {"paths": ["a.v"],
                                         "shards": shards})["shards"] \
            == shards

    def test_cli_shards_zero_means_the_default(self, tmp_path, capsys):
        path = tmp_path / "m.v"
        path.write_text(TESTBENCH)
        outputs = []
        for flags in ([], ["--shards", "0"]):
            out = tmp_path / f"d{len(outputs)}.jsonl"
            assert main(["augment", str(path), "--out", str(out)]
                        + flags) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["augment", "train"])
    def test_cli_negative_shards_exit_2_with_the_reason(self, kind,
                                                        capsys):
        assert main([kind, "a.v", "--shards", "-2"]) == 2
        assert capsys.readouterr().err == (
            f"invalid {kind} options: 'shards' must be an integer >= 0 "
            "(0 = the default count) or null\n")


class TestBadValues:
    def test_train_exits_2_with_the_spec_reason(self, capsys):
        assert main(["train", "a.v", "--epochs", "0"]) == 2
        assert capsys.readouterr().err == ("invalid train options: "
                                           "epochs/batch_size/micro_batch "
                                           "must be >= 1\n")

    def test_evaluate_exits_2_with_the_spec_reason(self, capsys):
        assert main(["evaluate", "--suite", "thakur", "--samples", "0",
                     "--models", "ours-13b", "--levels", "middle"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("invalid evaluate options: 'samples' "
                                "must be a positive integer\n")
        assert captured.out == ""

    def test_evaluate_scores_an_artifact_model(self, tmp_path, capsys):
        """Artefact models register when the suite runs, after the
        spec check, so naming one in --models is not an unknown model."""
        import dataclasses

        from repro.llm import get_profile, unregister_profile
        profile = dataclasses.replace(get_profile("ours-13b"),
                                      name="cli-art")
        artifact = tmp_path / "art.json"
        artifact.write_text(json.dumps(
            {"name": "cli-art", "profile": dataclasses.asdict(profile)}))
        flags = ["evaluate", "--suite", "thakur", "--models", "cli-art",
                 "--levels", "middle", "--artifact", str(artifact)]
        try:
            assert main(flags + ["--samples", "1"]) == 0
            assert "-- 17 cell(s) [17 computed" in capsys.readouterr().out
            assert main(flags + ["--samples", "0"]) == 2
            assert "'samples' must be" in capsys.readouterr().err
        finally:
            unregister_profile("cli-art")

    def test_infer_exits_2_with_the_spec_reason(self, monkeypatch,
                                                tmp_path, capsys):
        import repro.infer
        import repro.serve.executor
        monkeypatch.setattr(repro.infer, "shared_host", lambda: _Host())
        monkeypatch.setattr(repro.serve.executor, "artifact_weights",
                            lambda artifact, what: {})
        artifact = tmp_path / "art.json"
        artifact.write_text(json.dumps({"name": "fresh"}))
        assert main(["infer", str(artifact), "--prompt", "x",
                     "--max-tokens", "0"]) == 2
        assert capsys.readouterr().err == (
            f"cannot decode {artifact}: 'max_tokens' must be >= 1\n")


def test_parser_construction_stays_import_light():
    code = ("import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser().parse_args(['train', 'x', '--epochs', '1'])\n"
            "heavy = ('numpy', 'repro.train', 'repro.serve', 'repro.eval')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert run.stdout == "[]\n"


def test_pipeline_reports_each_failed_stage(tmp_path, capsys):
    daemon = Daemon(str(tmp_path / "store"), workers=1)
    daemon.start()
    server = GatewayServer(daemon).start()
    try:
        assert main(["pipeline", str(tmp_path / "missing"), "--url",
                     server.url, "--timeout", "60"]) == 1
    finally:
        server.stop()
        daemon.stop()
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "-- submitted job-000001 (augment)",
        "-- submitted job-000002 (train)",
        "-- submitted job-000003 (evaluate)"]
    errors = captured.err.splitlines()
    assert [line.split(":")[0] for line in errors] == [
        "-- job-000001 failed", "-- job-000002 failed",
        "-- job-000003 failed"]
    assert "FileNotFoundError" in errors[0]
    assert errors[1].endswith("dependency failed: job-000001 is failed")
