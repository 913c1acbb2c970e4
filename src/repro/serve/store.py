"""Crash-safe job persistence: append-only journal + atomic snapshot.

Layout under the store root::

    journal.jsonl        append-only event log (fsync'd per event)
    snapshot.json        atomic checkpoint of the full job table
    results/<id>.json    one atomically-written blob per finished job

**Write discipline.**  Every state transition is journaled *before* the
in-memory table changes (journal-first), each journal line is flushed
and fsync'd before the call returns, and every non-append write
(snapshot, result blobs) goes through the same temp-file + ``os.replace``
path as ``repro.scale`` (:func:`repro.core.records.atomic_write_text`).
A result blob is written *before* its ``done`` event, and the event
records the blob's sha256 — so a ``done`` job always has a verified
result, and a crash between the two writes merely re-runs the job,
which rewrites the identical bytes (results are pure functions of the
spec; see ``repro.serve.executor``).

**Recovery.**  Loading a store replays ``snapshot + journal suffix``:
events numbered at or below the snapshot's watermark are skipped, a
torn final line (the signature of a crash mid-append) is ignored, and
jobs left ``running`` — or ``done`` with a missing/corrupt result blob —
are requeued (journaled as ``requeue`` events, so the next snapshot is
consistent).  No event is ever rewritten, so a crashed writer can lose
at most the single transition it was writing — never a previously
acknowledged one, and never a whole job.

**Fault injection.**  The test harness drives the crash hooks via
``REPRO_SERVE_CRASH_AFTER`` (crash on the Nth journal append) and
``REPRO_SERVE_CRASH_MODE``: ``kill`` (SIGKILL after a complete append),
``torn`` (SIGKILL halfway through the line — a torn write), or
``raise`` (an injected :class:`OSError` before the write, simulating a
failing disk).  See ``tests/test_serve_recovery.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import time

from ..core.records import atomic_write_text
from .jobs import (CANCELLED, DONE, FAILED, QUEUED, RUNNING,
                   TERMINAL_STATES, Job)

#: Bump when the journal/snapshot format changes; old stores are
#: rejected rather than misread.
STORE_FORMAT_VERSION = 1

#: Environment hooks for fault-injection tests.
CRASH_AFTER_ENV = "REPRO_SERVE_CRASH_AFTER"
CRASH_MODE_ENV = "REPRO_SERVE_CRASH_MODE"


class StoreError(RuntimeError):
    """The on-disk store is unusable (wrong version, not a store…)."""


class JobStore:
    """The persistent job table.

    Not thread-safe by itself — the daemon serialises access under its
    store lock.  Exactly one process may own a store at a time.
    """

    #: Snapshot every N journal events to bound replay cost.
    SNAPSHOT_EVERY = 64
    #: Result blobs whose canonical text fits this ride *inside* the
    #: fsync'd ``done`` event (and the snapshot) instead of costing a
    #: separate atomic file write (~93µs each — the dominant per-job
    #: store cost at probe rates).  Large results keep the file path.
    INLINE_RESULT_LIMIT = 4096
    #: ... but never more often than this (seconds).  A snapshot is
    #: O(job table); at gateway rates the event counter alone would
    #: demand hundreds per second, each stalling the journal for the
    #: full table dump.  Replay is cheap (~100k events/s), so letting
    #: the journal run a couple of seconds ahead costs nothing.
    SNAPSHOT_MIN_INTERVAL = 2.0

    def __init__(self, root: str, crash_after: int | None = None,
                 crash_mode: str | None = None):
        self.root = root
        self.jobs: dict[str, Job] = {}
        #: Small result blobs journaled inline with their done event.
        self._inline: dict[str, dict] = {}
        self.recovered: list[str] = []      #: job ids requeued on load
        self._journal_path = os.path.join(root, "journal.jsonl")
        self._snapshot_path = os.path.join(root, "snapshot.json")
        self._results_dir = os.path.join(root, "results")
        self._next_job_seq = 1
        self._next_event_n = 1
        self._since_snapshot = 0
        if crash_after is None:
            crash_after = int(os.environ.get(CRASH_AFTER_ENV, "0") or 0)
            crash_mode = crash_mode or os.environ.get(CRASH_MODE_ENV)
        self._crash_after = crash_after or 0
        self._crash_mode = crash_mode or "kill"
        self._appends = 0
        self._last_snapshot = 0.0
        os.makedirs(self._results_dir, exist_ok=True)
        self._acquire_lock()
        self._load()
        self._journal = open(self._journal_path, "a", encoding="utf-8")
        self._recover_interrupted()

    # -- ownership --------------------------------------------------------

    def _acquire_lock(self) -> None:
        """Enforce single ownership: a second live process on the same
        store corrupts the journal, so fail fast instead."""
        self._lock_path = os.path.join(self.root, "lock")
        my_pid = os.getpid()
        while True:
            try:
                fd = os.open(self._lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    with open(self._lock_path,
                              encoding="utf-8") as handle:
                        owner = int(handle.read().strip() or 0)
                except (OSError, ValueError):
                    owner = 0
                alive = False
                if owner and owner != my_pid:
                    try:
                        os.kill(owner, 0)
                        alive = True
                    except OSError:
                        alive = False
                if alive:
                    raise StoreError(
                        f"store {self.root} is owned by live process "
                        f"{owner}; exactly one daemon may serve it")
                # Stale (crashed owner) or our own earlier handle:
                # steal the lock.
                try:
                    os.unlink(self._lock_path)
                except OSError:
                    pass
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(f"{my_pid}\n")
            return

    def _release_lock(self) -> None:
        try:
            os.unlink(self._lock_path)
        except OSError:
            pass

    # -- load / replay ----------------------------------------------------

    def _load(self) -> None:
        applied = 0
        try:
            with open(self._snapshot_path, encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except OSError:
            snapshot = None
        except ValueError:
            raise StoreError(f"corrupt snapshot {self._snapshot_path}")
        if snapshot is not None:
            if snapshot.get("version") != STORE_FORMAT_VERSION:
                raise StoreError(
                    f"store format {snapshot.get('version')!r} != "
                    f"{STORE_FORMAT_VERSION} in {self._snapshot_path}")
            self.jobs = {job_id: Job.from_dict(blob)
                         for job_id, blob in snapshot["jobs"].items()}
            self._inline = dict(snapshot.get("results", {}))
            self._next_job_seq = snapshot["next_job_seq"]
            applied = snapshot["applied_n"]
        self._next_event_n = applied + 1
        try:
            with open(self._journal_path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            text = ""
        lines = text.splitlines()
        kept = 0
        for line in lines:
            if not line.strip():
                kept += 1
                continue
            try:
                event = json.loads(line)
            except ValueError:
                # A torn final line is the expected signature of a crash
                # mid-append; everything after it cannot exist (appends
                # are sequential), so stop replaying here.
                break
            n = event.get("n", 0)
            if n < self._next_event_n:
                kept += 1
                continue        # already folded into the snapshot
            if n != self._next_event_n:
                break           # gap: refuse to replay past it
            self._apply(event)
            self._next_event_n = n + 1
            kept += 1
        if kept < len(lines) or (text and not text.endswith("\n")):
            # Drop the torn/unreplayable tail *on disk* too — appending
            # after a partial line would merge into it and make the next
            # replay lose acknowledged events that follow.
            good = "".join(line + "\n" for line in lines[:kept])
            atomic_write_text(self._journal_path, good)

    def _apply(self, event: dict) -> None:
        """Fold one journal event into the in-memory table."""
        kind = event["event"]
        if kind == "submit":
            job = Job.from_dict(event["job"])
            self.jobs.setdefault(job.id, job)
            self._next_job_seq = max(self._next_job_seq, job.seq + 1)
            return
        if kind == "submit_group":
            for blob in event["jobs"]:
                job = Job.from_dict(blob)
                self.jobs.setdefault(job.id, job)
                self._next_job_seq = max(self._next_job_seq,
                                         job.seq + 1)
            return
        job = self.jobs.get(event.get("id", ""))
        if job is None:
            return
        if kind == "start":
            job.state = RUNNING
            job.attempts += 1
        elif kind == "done":
            job.state = DONE
            job.error = None
            job.result_sha256 = event.get("sha256")
            if "blob" in event:
                self._inline[job.id] = event["blob"]
        elif kind == "fail":
            job.state = FAILED
            job.error = event.get("error")
        elif kind == "cancel":
            job.state = CANCELLED
        elif kind == "requeue":
            job.state = QUEUED
            self._inline.pop(job.id, None)

    def _recover_interrupted(self) -> None:
        """Requeue work a crashed daemon left behind.

        ``running`` jobs were mid-execution; ``done`` jobs whose result
        blob is missing or fails its digest check lost a race with the
        crash.  Both re-run from scratch — results are deterministic,
        so the retry produces byte-identical output.
        """
        for job in sorted(self.jobs.values(), key=lambda j: j.seq):
            requeue = job.state == RUNNING
            if job.state == DONE and self._result_text(job.id) is None:
                requeue = True
            if requeue:
                self.requeue(job.id)
                self.recovered.append(job.id)

    # -- journal ----------------------------------------------------------

    def _crash(self, line: str) -> None:
        """Fault-injection point: fire the configured crash."""
        if self._crash_mode == "raise":
            raise OSError("injected journal write failure")
        if self._crash_mode == "torn":
            self._journal.write(line[:max(1, len(line) // 2)])
        else:                   # "kill": the append itself completes
            self._journal.write(line + "\n")
        self._journal.flush()
        os.fsync(self._journal.fileno())
        os.kill(os.getpid(), signal.SIGKILL)

    def _append(self, event: dict) -> None:
        self._append_group([event])

    def _append_group(self, events: list[dict]) -> None:
        """Group commit: journal N events behind ONE flush+fsync.

        The journal-first discipline is untouched — no event is applied
        to the in-memory table (and no caller may acknowledge anything)
        before the group's fsync returns.  A crash inside the group can
        only lose *unacknowledged* transitions: callers treat the whole
        group as acknowledged-or-not atomically.

        Fault injection: the crash counter still advances one notch per
        *event*, so configured crash points land on the same journal
        line whether appends arrive solo or grouped.  ``raise`` mode
        aborts before any of the group's lines are buffered (a clean
        all-or-nothing failure); ``kill``/``torn`` fire mid-group with
        the preceding lines flushed, exactly like a real crash between
        two appends.
        """
        if not events:
            return
        numbered = [{"n": self._next_event_n + index, **event}
                    for index, event in enumerate(events)]
        lines = [json.dumps(event, ensure_ascii=False, sort_keys=True)
                 for event in numbered]
        crash_at = None
        if self._crash_after:
            for index in range(len(lines)):
                if self._appends + index + 1 >= self._crash_after:
                    crash_at = index
                    break
        self._appends += len(lines)
        if crash_at is not None:
            if self._crash_mode == "raise":
                raise OSError("injected journal write failure")
            for line in lines[:crash_at]:
                self._journal.write(line + "\n")
            self._crash(lines[crash_at])
        for line in lines:
            self._journal.write(line + "\n")
        self._journal.flush()
        os.fsync(self._journal.fileno())
        for event in numbered:
            self._next_event_n += 1
            self._apply(event)
        self._since_snapshot += len(numbered)
        if self._since_snapshot >= self.SNAPSHOT_EVERY and \
                time.monotonic() - self._last_snapshot \
                >= self.SNAPSHOT_MIN_INTERVAL:
            self.write_snapshot()

    # -- transitions (journal-first) --------------------------------------

    def submit(self, kind: str, spec: dict, priority: int = 0,
               after: list[str] | None = None) -> Job:
        return self.submit_many([(kind, spec, priority,
                                  list(after or ()))])[0]

    def reserve_ids(self, count: int) -> list[str]:
        """The ids the next ``submit_many`` of ``count`` jobs will get.

        Lets a flow submission resolve intra-graph references (node →
        job id) *before* journaling, so the whole DAG lands in one
        group commit with its edges already pointing at real ids.
        Callers must hold the daemon's store lock between the peek and
        the submit — nothing else may allocate ids in between.
        """
        return [f"job-{self._next_job_seq + index:06d}"
                for index in range(count)]

    def submit_many(self, requests: list[tuple[str, dict, int,
                                               list[str]]]) -> list[Job]:
        """Journal a group of submissions behind one fsync.

        ``requests`` is ``[(kind, canonical_spec, priority, after)]``;
        the returned jobs are in request order.  The gateway's
        committer thread folds every submit that arrived while the
        previous fsync was in flight into one group, which is what
        keeps admission latency flat under thousands of submits/sec.
        """
        jobs = []
        for index, (kind, spec, priority, after) in enumerate(requests):
            seq = self._next_job_seq + index
            jobs.append(Job(id=f"job-{seq:06d}", seq=seq, kind=kind,
                            spec=spec, priority=priority,
                            after=list(after or ())))
        self._append_group([{"event": "submit", "job": job.to_dict()}
                            for job in jobs])
        return [self.jobs[job.id] for job in jobs]

    def submit_group(self, requests: list[tuple[str, dict, int,
                                                list[str]]]
                     ) -> list[Job]:
        """Journal a whole DAG as ONE journal line (atomic commit).

        ``submit_many`` writes N independent ``submit`` events behind
        one fsync — a crash inside the group can land a prefix, which
        is fine for unrelated submits (each unacknowledged event is an
        independent loss) but not for a flow, whose nodes reference
        each other by id.  A single ``submit_group`` line is
        all-or-nothing by construction: replay drops a torn final line
        whole, so either the entire graph exists after recovery or
        none of it does.
        """
        jobs = []
        for index, (kind, spec, priority, after) in enumerate(requests):
            seq = self._next_job_seq + index
            jobs.append(Job(id=f"job-{seq:06d}", seq=seq, kind=kind,
                            spec=spec, priority=priority,
                            after=list(after or ())))
        self._append({"event": "submit_group",
                      "jobs": [job.to_dict() for job in jobs]})
        return [self.jobs[job.id] for job in jobs]

    def _transition(self, job_id: str, event: dict,
                    allowed: tuple[str, ...]) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job '{job_id}'")
        if job.state not in allowed:
            raise ValueError(f"{job_id} is {job.state}, expected one "
                             f"of {allowed}")
        self._append({"id": job_id, **event})
        return job

    def _check_transition(self, job_id: str,
                          allowed: tuple[str, ...]) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job '{job_id}'")
        if job.state not in allowed:
            raise ValueError(f"{job_id} is {job.state}, expected one "
                             f"of {allowed}")
        return job

    def mark_running(self, job_id: str) -> Job:
        return self._transition(job_id, {"event": "start"}, (QUEUED,))

    def mark_running_many(self, job_ids: list[str]) -> list[Job]:
        """Journal a batch's ``start`` events behind one fsync."""
        for job_id in job_ids:
            self._check_transition(job_id, (QUEUED,))
        self._append_group([{"id": job_id, "event": "start"}
                            for job_id in job_ids])
        return [self.jobs[job_id] for job_id in job_ids]

    def mark_done(self, job_id: str, blob: dict) -> Job:
        return self.mark_done_many([(job_id, blob)])[0]

    def mark_done_many(self,
                       outcomes: list[tuple[str, dict]]) -> list[Job]:
        """Write every result blob, then journal all ``done`` events
        behind one fsync.  Blob-before-event holds for the whole group:
        a crash between the two merely re-runs the jobs, which rewrite
        identical bytes (results are pure functions of the spec)."""
        events = []
        for job_id, blob in outcomes:
            self._check_transition(job_id, (RUNNING, QUEUED))
            text = json.dumps(blob, ensure_ascii=False,
                              sort_keys=True) + "\n"
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            event = {"id": job_id, "event": "done", "sha256": digest}
            if len(text) <= self.INLINE_RESULT_LIMIT:
                # Small blob: ride inside the fsync'd event itself —
                # durable atomically with the transition, no file I/O.
                event["blob"] = blob
            else:
                # Result first, then the event that promises it exists.
                atomic_write_text(self._result_path(job_id), text)
            events.append(event)
        self._append_group(events)
        return [self.jobs[job_id] for job_id, _ in outcomes]

    def mark_failed(self, job_id: str, error: str) -> Job:
        return self.mark_failed_many([(job_id, error)])[0]

    def mark_failed_many(self,
                         failures: list[tuple[str, str]]) -> list[Job]:
        """Journal a group of ``fail`` events behind one fsync."""
        events = []
        for job_id, error in failures:
            self._check_transition(job_id, (RUNNING, QUEUED))
            events.append({"id": job_id, "event": "fail",
                           "error": str(error)})
        self._append_group(events)
        return [self.jobs[job_id] for job_id, _ in failures]

    def mark_cancelled(self, job_id: str) -> Job:
        return self._transition(job_id, {"event": "cancel"}, (QUEUED,))

    def requeue(self, job_id: str) -> Job:
        return self._transition(job_id, {"event": "requeue"},
                                (RUNNING, DONE, FAILED))

    # -- results ----------------------------------------------------------

    def _result_path(self, job_id: str) -> str:
        return os.path.join(self._results_dir, f"{job_id}.json")

    def _result_text(self, job_id: str) -> str | None:
        """The verified raw result text, or None if absent/corrupt."""
        inline = self._inline.get(job_id)
        if inline is not None:
            # Came through the fsync'd journal (or snapshot): canonical
            # re-serialisation reproduces the digested text exactly.
            return json.dumps(inline, ensure_ascii=False,
                              sort_keys=True) + "\n"
        try:
            with open(self._result_path(job_id),
                      encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            return None
        job = self.jobs.get(job_id)
        expected = job.result_sha256 if job is not None else None
        if expected is not None and hashlib.sha256(
                text.encode("utf-8")).hexdigest() != expected:
            return None
        return text

    def result(self, job_id: str) -> dict | None:
        """The result blob of a ``done`` job, or None."""
        job = self.jobs.get(job_id)
        if job is None or job.state != DONE:
            return None
        text = self._result_text(job_id)
        if text is None:
            return None
        try:
            return json.loads(text)
        except ValueError:
            return None

    # -- queries ----------------------------------------------------------

    def queued(self) -> list[Job]:
        return sorted((job for job in list(self.jobs.values())
                       if job.state == QUEUED), key=lambda j: j.sort_key)

    def counts(self) -> dict[str, int]:
        # list() snapshots the table atomically (C-level, no GIL
        # release), so readers never race a concurrent submit's resize.
        counts: dict[str, int] = {}
        for job in list(self.jobs.values()):
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    # -- snapshot / lifecycle ---------------------------------------------

    def write_snapshot(self) -> None:
        """Atomic checkpoint: replay can skip everything up to here."""
        snapshot = {
            "version": STORE_FORMAT_VERSION,
            "applied_n": self._next_event_n - 1,
            "next_job_seq": self._next_job_seq,
            "jobs": {job_id: job.to_dict()
                     for job_id, job in sorted(self.jobs.items())},
            # Inline result blobs must survive journal compaction —
            # after close() the journal is empty and the snapshot is
            # the only durable copy.
            "results": {job_id: blob
                        for job_id, blob in sorted(self._inline.items())
                        if job_id in self.jobs},
        }
        atomic_write_text(self._snapshot_path,
                          json.dumps(snapshot, indent=2, sort_keys=True)
                          + "\n")
        self._since_snapshot = 0
        self._last_snapshot = time.monotonic()

    def close(self) -> None:
        """Clean shutdown: snapshot, compact the journal, release it.

        Compaction order is crash-safe: the snapshot that covers every
        journal event is atomically in place *before* the journal is
        emptied, so a process dying between the two steps loses
        nothing.
        """
        self.write_snapshot()
        self._journal.close()
        atomic_write_text(self._journal_path, "")
        self._release_lock()
