"""Fault-injection proof of the job service's crash-safety contract.

The daemon is killed (SIGKILL after a complete journal append, SIGKILL
halfway through one — a torn write — and injected ``OSError`` before
one) at chosen/randomized journal points; a restarted daemon must then
complete every acknowledged job with **zero lost or duplicated jobs**
and results **byte-identical** to running the same spec directly (no
store, no daemon, fresh caches).

Tier-1 runs a derandomized sample of crash points; the randomized
sweeps run under ``pytest -m tier2``.
"""

import json
import os
import random
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.serve import (CRASH_AFTER_ENV, CRASH_MODE_ENV, Daemon,
                         GatewayServer, JobStore, ServeClient, ServeError,
                         StoreError, execute_job, validate_spec)
from repro.serve.jobs import DONE, QUEUED, RUNNING, SpecError

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

TB_PASS = """module tb;
  reg [3:0] n;
  initial begin
    n = 4'd3;
    $display("PASS %0d", n);
    $finish;
  end
endmodule
"""

TB_COUNT = """module tb;
  reg clk; reg [7:0] count;
  initial begin clk = 0; count = 0; end
  always #5 clk = ~clk;
  always @(posedge clk) count <= count + 8'd1;
  initial begin
    #42 $display("count=%0d", count);
    $finish;
  end
endmodule
"""

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
    with open(os.path.join(corpus, "dff.v"), "w",
              encoding="utf-8") as handle:
        handle.write(MODULE_A)
    with open(os.path.join(corpus, "mux2.v"), "w",
              encoding="utf-8") as handle:
        handle.write(MODULE_B)
    return corpus


def _job_specs(corpus: str) -> list[tuple[str, dict]]:
    """The job mix every crash round submits."""
    return [
        ("simulate", {"source": TB_PASS}),
        ("augment", {"paths": [corpus], "seed": 0}),
        ("simulate", {"source": TB_COUNT}),
    ]


def _canonical(blob: dict) -> str:
    return json.dumps(blob, ensure_ascii=False, sort_keys=True)


class _DirectRuns:
    """Reference results, computed directly (no daemon) per unique spec."""

    def __init__(self, root):
        self.root = str(root)
        self._blobs: dict[str, str] = {}
        self._count = 0

    def canonical(self, kind: str, spec: dict) -> str:
        key = _canonical({"kind": kind, "spec": spec})
        if key not in self._blobs:
            self._count += 1
            workdir = os.path.join(self.root, f"direct-{self._count}")
            blob = execute_job(kind, spec, workdir)
            self._blobs[key] = _canonical(blob)
        return self._blobs[key]


# --------------------------------------------------------------------------
# Daemon-subprocess harness
# --------------------------------------------------------------------------

def _spawn(store: str, crash_after: int | None = None,
           crash_mode: str | None = None):
    """Start ``repro serve`` on an ephemeral port; returns (proc, url).

    ``url`` is None if the daemon died before binding (possible when a
    crash point lands inside recovery itself).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(CRASH_AFTER_ENV, None)
    env.pop(CRASH_MODE_ENV, None)
    if crash_after:
        env[CRASH_AFTER_ENV] = str(crash_after)
        env[CRASH_MODE_ENV] = crash_mode or "kill"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", store,
         "--port", "0", "--workers", "2"],
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


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _try_submit(client: ServeClient, kind: str, spec: dict):
    """Submit, tolerating a daemon that dies mid-request; returns the
    acknowledged job dict or None."""
    try:
        return client.submit(kind, spec)
    except Exception:
        return None


def _wait_all_done(client: ServeClient, timeout: float = 180.0) -> list:
    """Poll until every job the daemon knows is terminal."""
    deadline = time.monotonic() + timeout
    while True:
        jobs = client.jobs()
        if all(job["state"] in ("done", "failed", "cancelled")
               for job in jobs):
            return jobs
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"jobs not terminal: "
                f"{[(j['id'], j['state']) for j in jobs]}")
        time.sleep(0.05)


def _crash_round(tmp_path, direct: _DirectRuns, crash_after: int,
                 crash_mode: str) -> None:
    """One kill-and-resume cycle; asserts the full contract."""
    store = os.path.join(str(tmp_path), f"store-{crash_mode}-{crash_after}")
    corpus = _corpus(tmp_path)
    proc, url = _spawn(store, crash_after=crash_after,
                       crash_mode=crash_mode)
    acked = []
    try:
        if url is not None:
            client = ServeClient(url, timeout=10.0)
            for kind, spec in _job_specs(corpus):
                job = _try_submit(client, kind, spec)
                if job is not None:
                    acked.append(job)
        # The injected crash fires once the Nth append happens — either
        # during the submits above or while workers journal progress.
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            # Crash point beyond this round's journal traffic: the run
            # completed; kill it anyway to exercise resume-from-done.
            proc.kill()
            proc.wait()
        assert proc.poll() is not None
    finally:
        _stop(proc)

    proc, url = _spawn(store)
    try:
        assert url is not None, "restarted daemon failed to serve"
        client = ServeClient(url, timeout=10.0)
        jobs = _wait_all_done(client)

        # Zero duplicated jobs: ids are unique, and each acknowledged
        # submission appears exactly once.
        ids = [job["id"] for job in jobs]
        assert len(ids) == len(set(ids))
        known = set(ids)
        for job in acked:
            assert job["id"] in known, f"lost acknowledged {job['id']}"
        # Zero lost jobs, and every result byte-identical to a direct
        # run of the same canonical spec.
        for job in jobs:
            assert job["state"] == "done", (job, jobs)
            result = client.result(job["id"])
            assert _canonical(result) == direct.canonical(job["kind"],
                                                          job["spec"])
    finally:
        _stop(proc)


# --------------------------------------------------------------------------
# Tier-1: daemon parity + a derandomized sample of crash points
# --------------------------------------------------------------------------

class TestDaemonParity:
    def test_results_byte_identical_to_direct_runs(self, tmp_path):
        """No crash: daemon results == direct runs, byte for byte."""
        direct = _DirectRuns(tmp_path / "ref")
        store = str(tmp_path / "store")
        corpus = _corpus(tmp_path)
        daemon = Daemon(store, workers=2)
        daemon.start()
        server = GatewayServer(daemon).start()
        client = ServeClient(server.url)
        try:
            specs = _job_specs(corpus) + [
                ("evaluate", {"suite": "scripts",
                              "models": ["ours-13b"], "samples": 2}),
                ("experiment", {"name": "table1"}),
            ]
            submitted = [client.submit(kind, spec)["id"]
                         for kind, spec in specs]
            jobs = client.wait(submitted, timeout=180)
            for job_id, job in jobs.items():
                assert job["state"] == "done", job
                assert _canonical(client.result(job_id)) == \
                    direct.canonical(job["kind"], job["spec"])
            health = client.health()
            assert health["jobs"] == {"done": len(specs)}
            assert health["queue_depths"] == {}
            assert "summary" in health["sim_backend"]
            assert any(name.startswith("aug-")
                       for name in health["caches"])
        finally:
            server.stop()
            daemon.stop()

    def test_http_error_paths(self, tmp_path):
        daemon = Daemon(str(tmp_path / "store"), workers=1)
        daemon.start()
        server = GatewayServer(daemon).start()
        client = ServeClient(server.url)
        try:
            with pytest.raises(ServeError) as err:
                client.status("job-999999")
            assert err.value.status == 404
            with pytest.raises(ServeError) as err:
                client.submit("evaluate", {"suite": "no-such-suite"})
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client.submit("frobnicate", {})
            assert err.value.status == 400
            job = client.submit("simulate", {"source": TB_PASS})
            client.wait([job["id"]], timeout=60)
            with pytest.raises(ServeError) as err:
                client.cancel(job["id"])     # terminal: not cancellable
            assert err.value.status == 409
        finally:
            server.stop()
            daemon.stop()

    def test_cli_default_port_matches_daemon(self, capsys):
        from repro.cli import build_parser
        from repro.serve import DEFAULT_PORT
        args = build_parser().parse_args(["serve", "--store", "x"])
        assert args.port == DEFAULT_PORT
        args = build_parser().parse_args(["status"])
        assert args.url.endswith(f":{DEFAULT_PORT}")
        # `--gateway` is a hidden no-op: command lines that pass it
        # (perfbench's serve-mix among them) must still parse, but
        # help no longer advertises it.
        args = build_parser().parse_args(
            ["serve", "--store", "x", "--gateway"])
        assert args.port == DEFAULT_PORT
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        help_text = capsys.readouterr().out
        assert "--store" in help_text
        assert "--gateway" not in help_text


class TestKillAndResume:
    """SIGKILL at fixed journal points (tier-1 sample)."""

    @pytest.mark.parametrize("crash_after", [3, 6, 7])
    def test_sigkill_after_append(self, tmp_path, crash_after):
        _crash_round(tmp_path, _DirectRuns(tmp_path / "ref"),
                     crash_after, "kill")

    def test_sigkill_mid_write_torn_line(self, tmp_path):
        _crash_round(tmp_path, _DirectRuns(tmp_path / "ref"), 5, "torn")


@pytest.mark.tier2
class TestKillAndResumeRandomized:
    """The full randomized sweep (``pytest -m tier2``)."""

    POINTS = sorted(random.Random(2024).sample(range(2, 14), 6))

    @pytest.mark.parametrize("crash_after", POINTS)
    @pytest.mark.parametrize("crash_mode", ["kill", "torn"])
    def test_randomized_crash_points(self, tmp_path, crash_after,
                                     crash_mode):
        _crash_round(tmp_path, _DirectRuns(tmp_path / "ref"),
                     crash_after, crash_mode)


# --------------------------------------------------------------------------
# In-process store fault injection (exceptions, not signals)
# --------------------------------------------------------------------------

def _scripted_ops(store: JobStore, acked: list[str]) -> None:
    """A fixed transition script; appends each op's label to ``acked``
    as it is acknowledged (so a mid-script exception loses nothing)."""
    ops = [
        ("submit-1", lambda: store.submit("simulate",
                                          {"source": TB_PASS})),
        ("submit-2", lambda: store.submit("simulate",
                                          {"source": TB_COUNT})),
        ("start-1", lambda: store.mark_running("job-000001")),
        ("done-1", lambda: store.mark_done("job-000001", {"ok": True})),
        ("start-2", lambda: store.mark_running("job-000002")),
        ("fail-2", lambda: store.mark_failed("job-000002", "boom")),
        ("submit-3", lambda: store.submit("simulate",
                                          {"source": TB_PASS})),
        ("cancel-3", lambda: store.mark_cancelled("job-000003")),
    ]
    for label, op in ops:
        op()
        acked.append(label)


#: op label → (job id, state it durably commits)
_OP_STATES = {
    "submit-1": ("job-000001", QUEUED),
    "submit-2": ("job-000002", QUEUED),
    "start-1": ("job-000001", RUNNING),
    "done-1": ("job-000001", "done"),
    "start-2": ("job-000002", RUNNING),
    "fail-2": ("job-000002", "failed"),
    "submit-3": ("job-000003", QUEUED),
    "cancel-3": ("job-000003", "cancelled"),
}


def _check_recovery(root: str, acked: list[str]) -> None:
    """Reopen the store and assert acked ops survived, exactly once."""
    store = JobStore(root)
    expected: dict[str, str] = {}
    for label in acked:
        job_id, state = _OP_STATES[label]
        expected[job_id] = state
    # Interrupted `running` jobs come back queued.
    expected = {job_id: (QUEUED if state == RUNNING else state)
                for job_id, state in expected.items()}
    assert {job_id: job.state for job_id, job in store.jobs.items()} \
        == expected
    if "done-1" in acked:
        assert store.result("job-000001") == {"ok": True}
    store.close()


class TestInjectedWriteFailures:
    """``raise`` mode: the disk fails mid-journal; nothing is lost."""

    @pytest.mark.parametrize("crash_after", [1, 4, 6])
    def test_exception_at_fixed_points(self, tmp_path, crash_after):
        root = str(tmp_path / "store")
        store = JobStore(root, crash_after=crash_after,
                         crash_mode="raise")
        acked: list[str] = []
        try:
            _scripted_ops(store, acked)
        except OSError:
            pass
        # The crashed handle is abandoned (as a dying daemon would).
        store._journal.close()
        _check_recovery(root, acked)

    @pytest.mark.tier2
    @pytest.mark.parametrize("crash_after", range(1, 9))
    def test_exception_at_every_point(self, tmp_path, crash_after):
        self.test_exception_at_fixed_points(tmp_path, crash_after)


class TestStoreRecoveryUnits:
    def test_torn_final_line_is_ignored(self, tmp_path):
        root = str(tmp_path / "store")
        store = JobStore(root)
        store.submit("simulate", {"source": TB_PASS})
        store.submit("simulate", {"source": TB_COUNT})
        store._journal.close()
        path = os.path.join(root, "journal.jsonl")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + '{"n": 3, "event": "sub')
        reopened = JobStore(root)
        assert sorted(reopened.jobs) == ["job-000001", "job-000002"]
        # The torn event's number is reused by the next append.
        reopened.submit("simulate", {"source": TB_PASS})
        assert sorted(reopened.jobs) == \
            ["job-000001", "job-000002", "job-000003"]
        reopened.close()

    # Blobs over INLINE_RESULT_LIMIT take the result-file path; the
    # lost/corrupt-file recovery below only applies to them (small
    # blobs ride inside the fsync'd done event and cannot be lost
    # separately from it).
    BIG_BLOB = {"ok": True, "pad": "x" * (JobStore.INLINE_RESULT_LIMIT)}

    def test_done_without_result_blob_requeues(self, tmp_path):
        root = str(tmp_path / "store")
        store = JobStore(root)
        job = store.submit("simulate", {"source": TB_PASS})
        store.mark_running(job.id)
        store.mark_done(job.id, self.BIG_BLOB)
        store._journal.close()
        os.unlink(os.path.join(root, "results", f"{job.id}.json"))
        reopened = JobStore(root)
        assert reopened.jobs[job.id].state == QUEUED
        assert reopened.recovered == [job.id]
        reopened.close()

    def test_corrupt_result_blob_requeues(self, tmp_path):
        root = str(tmp_path / "store")
        store = JobStore(root)
        job = store.submit("simulate", {"source": TB_PASS})
        store.mark_running(job.id)
        store.mark_done(job.id, self.BIG_BLOB)
        store._journal.close()
        with open(os.path.join(root, "results", f"{job.id}.json"),
                  "w", encoding="utf-8") as handle:
            handle.write('{"ok": "tampered"}\n')
        reopened = JobStore(root)
        assert reopened.jobs[job.id].state == QUEUED
        reopened.close()

    def test_inline_result_survives_reload_and_compaction(self, tmp_path):
        """Small blobs journal inline with the done event: no result
        file, same result() payload across replay *and* across a clean
        close (snapshot + journal compaction)."""
        root = str(tmp_path / "store")
        store = JobStore(root)
        job = store.submit("simulate", {"source": TB_PASS})
        store.mark_running(job.id)
        store.mark_done(job.id, {"ok": True, "n": 7})
        assert not os.path.exists(
            os.path.join(root, "results", f"{job.id}.json"))
        store._journal.close()      # hard stop: replay from journal
        reopened = JobStore(root)
        assert reopened.jobs[job.id].state == DONE
        assert reopened.result(job.id) == {"ok": True, "n": 7}
        reopened.close()            # compaction: snapshot-only now
        again = JobStore(root)
        assert again.result(job.id) == {"ok": True, "n": 7}
        again.close()

    def test_running_jobs_requeue_on_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        store = JobStore(root)
        job = store.submit("simulate", {"source": TB_PASS})
        store.mark_running(job.id)
        store._journal.close()
        reopened = JobStore(root)
        assert reopened.jobs[job.id].state == QUEUED
        assert reopened.jobs[job.id].attempts == 1
        reopened.close()

    def test_clean_close_compacts_journal(self, tmp_path):
        root = str(tmp_path / "store")
        store = JobStore(root)
        for _ in range(5):
            store.submit("simulate", {"source": TB_PASS})
        store.close()
        with open(os.path.join(root, "journal.jsonl"),
                  encoding="utf-8") as handle:
            assert handle.read() == ""
        reopened = JobStore(root)
        assert len(reopened.jobs) == 5
        assert reopened._next_job_seq == 6
        reopened.close()

    def test_snapshot_plus_suffix_replay(self, tmp_path):
        root = str(tmp_path / "store")
        store = JobStore(root)
        ids = [store.submit("simulate", {"source": TB_PASS}).id
               for _ in range(3)]
        store.write_snapshot()
        store.mark_running(ids[0])        # journal suffix, post-snapshot
        store._journal.close()
        reopened = JobStore(root)
        assert reopened.jobs[ids[0]].state == QUEUED   # requeued
        assert reopened.jobs[ids[1]].state == QUEUED
        assert reopened.recovered == [ids[0]]
        reopened.close()

    def test_future_format_version_is_rejected(self, tmp_path):
        root = str(tmp_path / "store")
        store = JobStore(root)
        store.submit("simulate", {"source": TB_PASS})
        store.close()
        path = os.path.join(root, "snapshot.json")
        with open(path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        snapshot["version"] = 99
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)
        with pytest.raises(StoreError):
            JobStore(root)


class TestSpecValidation:
    def test_specs_are_canonicalised(self):
        spec = validate_spec("evaluate", {"suite": "scripts"})
        assert spec["samples"] == 10 and spec["models"]
        assert spec["levels"] == []
        spec = validate_spec("evaluate", {"suite": "thakur"})
        assert spec["levels"] == ["low", "middle", "high"]
        spec = validate_spec("experiment", {"name": "table1"})
        assert spec == {"name": "table1", "quick": True}

    def test_bad_specs_are_rejected(self):
        with pytest.raises(SpecError):
            validate_spec("augment", {"paths": []})
        with pytest.raises(SpecError):
            validate_spec("evaluate", {"suite": "scripts",
                                       "models": ["no-such-model"]})
        for samples in (0, True, "2"):
            with pytest.raises(SpecError,
                               match="'samples' must be a positive integer"):
                validate_spec("evaluate", {"suite": "thakur",
                                           "samples": samples})
        with pytest.raises(SpecError):
            validate_spec("simulate", {"source": "   "})
        with pytest.raises(SpecError):
            validate_spec("experiment", {"name": "table99"})
        with pytest.raises(SpecError):
            validate_spec("frobnicate", {})


class TestHardeningRegressions:
    """Regressions for review findings on the first cut of the store."""

    def test_torn_tail_is_truncated_before_new_appends(self, tmp_path):
        """Appending after a torn tail must not merge into it: events
        acknowledged *after* a torn-tail recovery survive a second
        crash."""
        root = str(tmp_path / "store")
        store = JobStore(root)
        store.submit("simulate", {"source": TB_PASS})
        store._journal.close()
        path = os.path.join(root, "journal.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"n": 2, "event": "sub')      # torn, no \n
        second = JobStore(root)
        second.submit("simulate", {"source": TB_COUNT})  # acknowledged
        second._journal.close()                          # crash again
        third = JobStore(root)
        assert sorted(third.jobs) == ["job-000001", "job-000002"]
        third.close()

    def test_live_foreign_owner_is_rejected(self, tmp_path):
        root = str(tmp_path / "store")
        os.makedirs(root, exist_ok=True)
        helper = subprocess.Popen([sys.executable, "-c",
                                   "import time; time.sleep(60)"])
        try:
            with open(os.path.join(root, "lock"), "w",
                      encoding="utf-8") as handle:
                handle.write(f"{helper.pid}\n")
            with pytest.raises(StoreError):
                JobStore(root)
        finally:
            helper.kill()
            helper.wait()
        # Once the owner is dead the lock is stale and stolen.
        store = JobStore(root)
        store.close()

    def test_same_process_reopen_steals_own_stale_lock(self, tmp_path):
        root = str(tmp_path / "store")
        store = JobStore(root)
        store.submit("simulate", {"source": TB_PASS})
        store._journal.close()       # abandoned without close()
        reopened = JobStore(root)    # same pid: not a live foreign owner
        assert len(reopened.jobs) == 1
        reopened.close()

    def test_evaluate_levels_are_validated(self):
        with pytest.raises(SpecError):
            validate_spec("evaluate", {"suite": "thakur",
                                       "levels": "low"})
        with pytest.raises(SpecError):
            validate_spec("evaluate", {"suite": "thakur",
                                       "levels": ["bogus"]})
        spec = validate_spec("evaluate", {"suite": "thakur",
                                          "levels": ["middle"]})
        assert spec["levels"] == ["middle"]
