"""Golden end-to-end proof of the augment → train → evaluate pipeline.

A tiny corpus flows through the daemon as a dependency DAG; the final
evaluation report and trained weights are pinned against
``tests/golden/pipeline_report.json`` (regenerate by deleting the file
and running this test with ``REPRO_REGEN_GOLDEN=1``).  A warm rerun of
the identical DAG must then report ``misses == 0`` in every cache
manifest the work dir accumulated (augment shards, eval cells, and —
when any design is compile-unsupported — sim verdicts), proving the
train stage re-augments nothing and the evaluate stage recomputes no
cells.

Plus the DAG-layer units: dependency gating and doom propagation in
the scheduler, ``after`` persistence through the journal, and train /
trained-evaluate spec validation.
"""

import hashlib
import json
import os
import re
import signal
import subprocess
import sys

import pytest

from repro.llm import unregister_profile
from repro.serve import (Daemon, GatewayServer, Job, Scheduler,
                         ServeClient, SpecError, execute_job,
                         validate_spec)
from repro.serve.jobs import CANCELLED, DONE, FAILED, QUEUED

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
GOLDEN_PATH = os.path.join(REPO, "tests", "golden",
                           "pipeline_report.json")

MODULE_A = """module dff(input clk, input d, output reg q);
  always @(posedge clk) q <= d;
endmodule
"""

MODULE_B = """module mux2(input a, input b, input sel, output y);
  assign y = sel ? b : a;
endmodule
"""

#: The pinned pipeline: any change to these specs (or to augmentation,
#: training or evaluation semantics) must regenerate the golden file.
TRAIN_SPEC = {"seed": 0, "completion_only": False, "epochs": 1,
              "batch_size": 4, "micro_batch": 2, "seq_len": 32,
              "vocab_size": 160, "d_model": 16, "n_heads": 2,
              "n_layers": 1, "d_ff": 32, "max_records": 32,
              "checkpoint_every": 4, "register_as": "pipe-tiny"}
EVAL_SPEC = {"suite": "thakur", "models": ["pipe-tiny"], "samples": 2,
             "levels": ["middle"], "k": 2}


def _corpus(root) -> str:
    corpus = os.path.join(str(root), "corpus")
    os.makedirs(corpus, exist_ok=True)
    for name, text in (("dff.v", MODULE_A), ("mux2.v", MODULE_B)):
        with open(os.path.join(corpus, name), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
    return corpus


def _start_daemon(store: str):
    daemon = Daemon(store, workers=2)
    daemon.start()
    server = GatewayServer(daemon).start()
    return daemon, server, ServeClient(server.url)


def _stop_daemon(daemon, server) -> None:
    server.stop()
    daemon.stop()


def _submit_dag(client: ServeClient, corpus: str) -> dict[str, str]:
    augment = client.submit("augment", {"paths": [corpus], "seed": 0})
    train = client.submit("train", {"paths": [corpus], **TRAIN_SPEC},
                          after=[augment["id"]])
    evaluate = client.submit(
        "evaluate",
        {**EVAL_SPEC, "trained": {"name": "pipe-tiny",
                                  "job": train["id"]}},
        after=[train["id"]])
    return {"augment": augment["id"], "train": train["id"],
            "evaluate": evaluate["id"]}


def _run_dag(client: ServeClient, corpus: str) -> tuple[dict, dict]:
    ids = _submit_dag(client, corpus)
    jobs = client.wait(list(ids.values()), timeout=300)
    for job in jobs.values():
        assert job["state"] == "done", job
    return client.result(ids["train"]), client.result(ids["evaluate"])


def _manifest_counters(workdir: str) -> dict[str, dict]:
    """``relative dir → last_run`` for every cache manifest found."""
    counters = {}
    for root, _, names in os.walk(workdir):
        if "manifest.json" not in names:
            continue
        with open(os.path.join(root, "manifest.json"),
                  encoding="utf-8") as handle:
            blob = json.load(handle)
        if "last_run" in blob:
            counters[os.path.relpath(root, workdir)] = blob["last_run"]
    return counters


class TestPipelineGolden:
    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        yield
        unregister_profile("pipe-tiny")

    def test_pipeline_end_to_end_and_warm_rerun(self, tmp_path):
        corpus = _corpus(tmp_path)
        store = str(tmp_path / "store")

        daemon, server, client = _start_daemon(store)
        try:
            train_blob, eval_blob = _run_dag(client, corpus)
        finally:
            _stop_daemon(daemon, server)

        # -- golden pin: the loop's final artefacts are reproducible --
        observed = {
            "report_sha256": hashlib.sha256(
                eval_blob["rendered"].encode("utf-8")).hexdigest(),
            "weights_sha256": train_blob["weights_sha256"],
            "dataset_digest": train_blob["dataset_digest"],
            "final_loss": train_blob["final_loss"],
            "steps": train_blob["steps"],
        }
        if (os.environ.get("REPRO_REGEN_GOLDEN")
                or not os.path.exists(GOLDEN_PATH)):
            with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
                json.dump(observed, handle, indent=2, sort_keys=True)
                handle.write("\n")
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
        assert observed == golden, (
            "pipeline output drifted from tests/golden/"
            "pipeline_report.json; if the change is intentional, "
            "rerun with REPRO_REGEN_GOLDEN=1")

        # -- warm rerun through a fresh daemon on the same store ------
        unregister_profile("pipe-tiny")
        daemon, server, client = _start_daemon(store)
        try:
            warm_train, warm_eval = _run_dag(client, corpus)
            health = client.health()
        finally:
            _stop_daemon(daemon, server)
        assert warm_train == train_blob     # byte-identical results
        assert warm_eval == eval_blob
        counters = _manifest_counters(os.path.join(store, "work"))
        assert any(name.startswith("aug-") for name in counters)
        assert "eval-cache" in counters
        for name, last_run in counters.items():
            assert last_run["misses"] == 0, (name, counters)
            assert last_run["hits"] > 0, (name, counters)
        # The daemon's health endpoint reports the same counters.
        for name, last_run in health["caches"].items():
            if "misses" in last_run:
                assert last_run["misses"] == 0, (name, health["caches"])

    def test_direct_execution_matches_daemon(self, tmp_path):
        """Same specs, no daemon/store: byte-identical blobs."""
        corpus = _corpus(tmp_path)
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
        train_blob = execute_job(
            "train", {"paths": [corpus], **TRAIN_SPEC},
            str(tmp_path / "w1"))
        assert train_blob["weights_sha256"] == golden["weights_sha256"]
        assert train_blob["final_loss"] == golden["final_loss"]
        unregister_profile("pipe-tiny")
        eval_blob = execute_job(
            "evaluate",
            {**EVAL_SPEC, "trained": {"name": "pipe-tiny",
                                      "job": "job-000042"}},
            str(tmp_path / "w2"),
            resolve={"job-000042": train_blob}.get)
        assert hashlib.sha256(
            eval_blob["rendered"].encode("utf-8")).hexdigest() == \
            golden["report_sha256"]


def _spawn_daemon(store: str, env_extra: dict | None = None,
                  jobs: int = 1):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_TRAIN_CRASH_AFTER", None)
    env.pop("REPRO_TRAIN_CRASH_MODE", None)
    env.update(env_extra or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", store,
         "--port", "0", "--workers", "2", "--jobs", str(jobs)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=REPO)
    url = None
    while True:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"serving on (http://\S+)", line)
        if match:
            url = match.group(1)
            break
    return proc, url


class TestPipelineSigkillResume:
    """The acceptance criterion: a pipeline SIGKILL'd at a training
    checkpoint resumes to byte-identical weights and report."""

    @pytest.mark.parametrize("crash_after,jobs", [(1, 1), (2, 2)])
    def test_daemon_killed_mid_training_resumes_identically(
            self, tmp_path, crash_after, jobs):
        corpus = _corpus(tmp_path)
        store = str(tmp_path / f"store-{crash_after}-{jobs}")
        proc, url = _spawn_daemon(
            store, {"REPRO_TRAIN_CRASH_AFTER": str(crash_after),
                    "REPRO_TRAIN_CRASH_MODE": "kill"})
        try:
            assert url is not None
            client = ServeClient(url, timeout=10.0)
            _submit_dag(client, corpus)
            # The Nth checkpoint write SIGKILLs the daemon mid-train.
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

        proc, url = _spawn_daemon(store, jobs=jobs)
        try:
            assert url is not None, "restarted daemon failed to serve"
            client = ServeClient(url, timeout=10.0)
            jobs_by_id = {job["id"]: job for job in client.jobs()}
            done = client.wait(list(jobs_by_id), timeout=300)
            assert all(job["state"] == "done"
                       for job in done.values()), done
            train_id = next(job["id"] for job in done.values()
                            if job["kind"] == "train")
            eval_id = next(job["id"] for job in done.values()
                           if job["kind"] == "evaluate")
            train_blob = client.result(train_id)
            eval_blob = client.result(eval_id)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)     # clean stop
                proc.wait(timeout=30)
            proc.stdout.close()
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
        assert train_blob["weights_sha256"] == golden["weights_sha256"]
        assert train_blob["steps"] == golden["steps"]
        assert hashlib.sha256(
            eval_blob["rendered"].encode("utf-8")).hexdigest() == \
            golden["report_sha256"]


def _randomized_cases(seed: int = 77) -> list[tuple[int, int]]:
    import random
    rng = random.Random(seed)
    return [(point, rng.choice([1, 2, 3]))
            for point in sorted(rng.sample(range(1, 3), 2))]


@pytest.mark.tier2
class TestPipelineSigkillResumeRandomized:
    """Randomized crash points / jobs settings (``pytest -m tier2``)."""

    @pytest.mark.parametrize("crash_after,jobs", _randomized_cases())
    def test_randomized(self, tmp_path, crash_after, jobs):
        TestPipelineSigkillResume() \
            .test_daemon_killed_mid_training_resumes_identically(
                tmp_path, crash_after, jobs)


class TestPipelineCli:
    """`repro pipeline` against a daemon subprocess."""

    def test_cli_pipeline_roundtrip(self, tmp_path):
        corpus = _corpus(tmp_path)
        store = str(tmp_path / "store")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", store,
             "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=REPO)
        url = None
        try:
            while True:
                line = daemon.stdout.readline()
                if not line:
                    break
                match = re.search(r"serving on (http://\S+)", line)
                if match:
                    url = match.group(1)
                    break
            assert url is not None
            out = str(tmp_path / "report.txt")
            result = subprocess.run(
                [sys.executable, "-m", "repro", "pipeline", corpus,
                 "--url", url, "--suite", "thakur", "--samples", "2",
                 "--levels", "middle", "--k", "2", "--epochs", "1",
                 "--batch-size", "4", "--micro-batch", "2",
                 "--seq-len", "32", "--vocab-size", "160",
                 "--d-model", "16", "--n-heads", "2", "--n-layers", "1",
                 "--d-ff", "32", "--max-records", "32",
                 "--checkpoint-every", "4", "--register-as",
                 "pipe-tiny", "--timeout", "240", "--out", out],
                env=env, cwd=REPO, capture_output=True, text=True,
                timeout=300)
            assert result.returncode == 0, result.stdout + result.stderr
            assert "Trained(pipe-tiny)" in result.stdout
            with open(GOLDEN_PATH, encoding="utf-8") as handle:
                golden = json.load(handle)
            with open(out, encoding="utf-8") as handle:
                rendered = handle.read().rstrip("\n")
            assert hashlib.sha256(
                rendered.encode("utf-8")).hexdigest() == \
                golden["report_sha256"]
        finally:
            if daemon.poll() is None:
                daemon.terminate()
                daemon.wait(timeout=30)
            daemon.stdout.close()


# --------------------------------------------------------------------------
# DAG-layer units
# --------------------------------------------------------------------------

def _job(seq: int, kind: str = "simulate",
         after: list[str] | None = None) -> Job:
    return Job(id=f"job-{seq:06d}", seq=seq, kind=kind, spec={},
               after=list(after or ()))


class TestSchedulerDependencies:
    def _scheduler(self, states: dict[str, str]) -> Scheduler:
        return Scheduler(compat_fn=lambda job: job.kind,
                         state_fn=states.get)

    def test_jobs_wait_for_dependencies(self):
        states = {"job-000001": QUEUED}
        scheduler = self._scheduler(states)
        scheduler.submit(_job(2, after=["job-000001"]))
        assert scheduler.next_batch() is None
        states["job-000001"] = DONE
        batch = scheduler.next_batch()
        assert batch is not None and batch.ids == ["job-000002"]

    def test_gated_jobs_never_join_batches(self):
        states = {"job-000001": QUEUED}
        scheduler = self._scheduler(states)
        scheduler.submit(_job(2))
        scheduler.submit(_job(3, after=["job-000001"]))
        batch = scheduler.next_batch()
        assert batch.ids == ["job-000002"]       # mate was not ready

    def test_doomed_lists_failed_and_unknown_deps(self):
        states = {"job-000001": FAILED}
        scheduler = self._scheduler(states)
        scheduler.submit(_job(2, after=["job-000001"]))
        scheduler.submit(_job(3, after=["job-999999"]))
        scheduler.submit(_job(4))
        assert [job.id for job in scheduler.doomed()] == \
            ["job-000002", "job-000003"]

    def test_after_round_trips_through_job_dict(self):
        job = _job(5, after=["job-000001", "job-000002"])
        assert Job.from_dict(job.to_dict()).after == job.after

    def test_deep_chain_drains_in_order(self):
        """A 40-deep ``after`` chain dispatches strictly in dependency
        order, and the waiter index never re-polls a dependency after
        observing it done (terminal states are memoised)."""
        depth = 40
        states = {f"job-{seq:06d}": QUEUED for seq in range(1, depth + 1)}
        done_served: set[str] = set()

        def state_fn(job_id: str) -> str | None:
            assert job_id not in done_served, \
                f"{job_id} polled again after it resolved done"
            state = states.get(job_id)
            if state == DONE:
                done_served.add(job_id)
            return state

        scheduler = Scheduler(compat_fn=lambda job: job.id,
                              state_fn=state_fn)
        for seq in range(1, depth + 1):
            after = [f"job-{seq - 1:06d}"] if seq > 1 else []
            scheduler.submit(_job(seq, after=after))
        drained = []
        while True:
            batch = scheduler.next_batch()
            if batch is None:
                break
            assert len(batch.ids) == 1      # successor is still gated
            drained.extend(batch.ids)
            states[batch.ids[0]] = DONE
            scheduler.finish(batch)
        assert drained == [f"job-{seq:06d}"
                           for seq in range(1, depth + 1)]
        # The index is fully drained: nothing left to poll or dispatch.
        assert scheduler.next_batch() is None
        assert scheduler.doomed() == []

    def test_shared_dependency_is_polled_once_for_all_waiters(self):
        """A fan-out (many jobs after one dependency) resolves every
        waiter with a single done observation of the shared dep."""
        states = {"job-000001": QUEUED}
        polls = {"job-000001": 0}

        def state_fn(job_id: str) -> str | None:
            polls[job_id] = polls.get(job_id, 0) + 1
            return states.get(job_id)

        scheduler = Scheduler(compat_fn=lambda job: job.kind,
                              state_fn=state_fn)
        for seq in range(2, 8):
            scheduler.submit(_job(seq, after=["job-000001"]))
        assert scheduler.next_batch() is None
        blocked_polls = polls["job-000001"]
        assert blocked_polls == 1           # one poll, not one per waiter
        states["job-000001"] = DONE
        batch = scheduler.next_batch()
        assert batch is not None and len(batch.ids) == 6
        assert polls["job-000001"] == blocked_polls + 1
        scheduler.finish(batch)
        # Resolved for good: later dispatch attempts poll nothing.
        scheduler.submit(_job(99))
        scheduler.next_batch()
        assert polls["job-000001"] == blocked_polls + 1

    def test_doom_propagates_through_the_chain(self):
        """Failing a middle dependency dooms the whole downstream chain
        as the daemon's cancel-and-mark loop walks it."""
        states = {"job-000001": FAILED}
        scheduler = Scheduler(compat_fn=lambda job: job.kind,
                              state_fn=states.get)
        for seq in (2, 3, 4):
            scheduler.submit(_job(seq, after=[f"job-{seq - 1:06d}"]))
        seen = []
        while True:     # mirror Daemon._fail_doomed_locked
            doomed = scheduler.doomed()
            if not doomed:
                break
            for job in doomed:
                seen.append(job.id)
                scheduler.cancel(job.id)
                states[job.id] = CANCELLED
        assert seen == ["job-000002", "job-000003", "job-000004"]
        assert scheduler.next_batch() is None


class TestTrainSpecValidation:
    def test_train_spec_is_canonicalised(self, tmp_path):
        corpus = _corpus(tmp_path)
        spec = validate_spec("train", {"paths": [corpus]})
        assert spec["register_as"] == "trained"
        assert spec["epochs"] >= 1 and spec["batch_size"] >= 1
        assert isinstance(spec["lr"], float)

    def test_bad_train_specs_are_rejected(self, tmp_path):
        corpus = _corpus(tmp_path)
        with pytest.raises(SpecError):
            validate_spec("train", {"paths": [corpus],
                                    "register_as": "ours-13b"})
        with pytest.raises(SpecError):
            validate_spec("train", {"paths": [corpus], "lr": -1})
        with pytest.raises(SpecError):
            validate_spec("train", {"paths": [corpus], "d_model": 15,
                                    "n_heads": 2})
        with pytest.raises(SpecError):
            validate_spec("train", {"paths": []})

    def test_retired_pool_keys_are_ignored(self, tmp_path):
        """Train specs journaled when ``pool``/``pool_jobs`` still
        chose a gradient worker pool validate to the same canonical
        spec as specs without them, so those journals still replay."""
        corpus = _corpus(tmp_path)
        plain = validate_spec("train", {"paths": [corpus]})
        legacy = validate_spec("train", {"paths": [corpus],
                                         "pool": "procs", "pool_jobs": 2})
        assert legacy == plain
        assert "pool" not in legacy and "pool_jobs" not in legacy

    def test_trained_evaluate_spec(self):
        spec = validate_spec(
            "evaluate", {"suite": "thakur", "models": ["fresh"],
                         "trained": {"name": "fresh",
                                     "job": "job-000001"}})
        assert spec["trained"] == {"name": "fresh", "job": "job-000001"}
        with pytest.raises(SpecError):
            validate_spec("evaluate",
                          {"suite": "thakur", "models": ["fresh"]})
        with pytest.raises(SpecError):
            validate_spec("evaluate", {"suite": "thakur",
                                       "trained": {"name": "fresh"}})
