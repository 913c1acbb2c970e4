"""The long-lived job daemon behind the asyncio gateway.

One :class:`Daemon` owns a :class:`~repro.serve.store.JobStore`, a
:class:`~repro.serve.scheduler.Scheduler` and a small pool of worker
threads.  Workers claim scheduler batches under the scheduler condition
lock, execute them *outside* the lock (the heavy lifting parallelises
through the subsystems' own pools), and commit the outcomes back
through the store — so every transition is journaled and a SIGKILL at
any point resumes cleanly on the next start (interrupted jobs are
requeued by the store; see ``repro.serve.store``).

**Locking discipline.**  Two locks, never nested:

* ``_cond`` — the scheduler condition lock.  Guards the in-memory
  queue/budget state and is the only thing workers sleep on; it is
  *never* held across disk I/O, so a slow journal fsync or health scan
  cannot stall dispatch or the API.
* ``_store_lock`` — serialises :class:`JobStore` access (the journal
  is single-writer).  Journal appends, result-blob writes and result
  reads happen here, off the scheduler lock.

Idle workers block on ``_cond.wait()`` with **no timeout**; every
transition that could make new work dispatchable (submit, cancel,
batch finish, dependency doom) notifies, so an idle daemon burns no
CPU.

State transitions can be observed via :meth:`Daemon.add_listener`
(each listener is called with the job dict after the transition is
journaled, outside all locks) — the asyncio gateway uses this to
stream SSE job-progress events and keep per-tenant accounting live.

The health payload reports queue depths and in-flight batches per
kind, job-state counts, ``last_run`` hit/miss counters from every
cache manifest under the work dir, and the daemon's aggregated
simulator stats.  Cache manifests are read from disk *outside*
the locks — a slow health scan never blocks workers or API calls.
"""

from __future__ import annotations

import os
import sys
import threading
from collections.abc import Callable

from ..scale.cache import cache_counters
from .executor import execute_batch
from .jobs import SpecError, validate_spec
from .scheduler import DEFAULT_BATCH_LIMIT, Scheduler
from .store import JobStore

#: Default API port (`repro serve` / clients agree through here).
DEFAULT_PORT = 8471


class Daemon:
    """Crash-safe job service: store + scheduler + worker threads."""

    def __init__(self, store_dir: str, budgets: dict[str, int] | None = None,
                 engine_jobs: int = 1, workers: int = 2,
                 batch_limit: int = DEFAULT_BATCH_LIMIT):
        from ..sim import BackendStats
        self.store_dir = store_dir
        self.work_dir = os.path.join(store_dir, "work")
        self.engine_jobs = max(1, engine_jobs)
        self.workers = max(1, workers)
        os.makedirs(self.work_dir, exist_ok=True)
        self.store = JobStore(store_dir)
        self.scheduler = Scheduler(budgets=budgets,
                                   batch_limit=batch_limit,
                                   state_fn=self._job_state)
        self.sim_stats = BackendStats()
        self._cond = threading.Condition()
        self._store_lock = threading.RLock()
        self._listeners: list[Callable[[dict], None]] = []
        self._stop = False
        self._threads: list[threading.Thread] = []
        # Resume: everything the previous daemon left queued (including
        # jobs the store just requeued) goes straight back on the queue.
        for job in self.store.queued():
            self.scheduler.submit(job)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        for index in range(self.workers):
            thread = threading.Thread(target=self._worker,
                                      name=f"serve-worker-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Stop workers after their current batch, then compact the
        store.  Queued jobs stay journaled and resume on next start."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads.clear()
        with self._store_lock:
            self.store.close()

    def wait_idle(self, timeout: float = 60.0) -> bool:
        """Block until no work is queued or in flight (True), or until
        the timeout elapses (False)."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not len(self.scheduler)
                and not sum(self.scheduler.in_flight.values()),
                timeout=timeout)

    def _job_state(self, job_id: str) -> str | None:
        """Dependency state lookup the scheduler gates dispatch on.

        Lock-free: states only mutate *after* their journal fsync
        (under the store lock), and a stale read merely delays the
        dependent to the next dispatch attempt.
        """
        job = self.store.jobs.get(job_id)
        return job.state if job is not None else None

    # -- transition listeners ---------------------------------------------

    def add_listener(self, listener: Callable[[dict], None]) -> None:
        """Register a callback fired (from arbitrary threads, outside
        all daemon locks) with the job dict after every journaled
        transition.  Listeners must not block; exceptions are dropped."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[dict], None]) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _emit(self, jobs) -> None:
        if not self._listeners or not jobs:
            return
        for job in jobs:
            blob = job.to_dict()
            for listener in list(self._listeners):
                try:
                    listener(blob)
                except Exception:
                    pass

    # -- operations (thread-safe) -----------------------------------------

    def submit_many(self, requests: list[tuple[str, dict, int,
                                               list[str]]]
                    ) -> list[dict | Exception]:
        """Admit a group of submissions behind one journal fsync.

        ``requests`` is ``[(kind, spec, priority, after)]``; the return
        value is per-request and order-preserving: the submitted job
        dict, or the :class:`SpecError` (or store failure) that
        rejected it.  Validation runs outside every lock; the journal
        group commit runs under the store lock only; scheduler
        admission (+ worker wakeup) under the scheduler lock only.
        """
        outcomes: list[dict | Exception | None] = [None] * len(requests)
        valid = []
        for index, (kind, spec, priority, after) in enumerate(requests):
            try:
                valid.append((index, kind, validate_spec(kind, spec),
                              int(priority), list(after or ())))
            except SpecError as exc:
                outcomes[index] = exc
        jobs = []
        admitted = []
        with self._store_lock:
            for index, kind, spec, priority, after in valid:
                missing = [dep for dep in after
                           if dep not in self.store.jobs]
                if missing:
                    outcomes[index] = SpecError(
                        f"unknown dependency job '{missing[0]}'")
                else:
                    admitted.append((index, kind, spec, priority, after))
            if admitted:
                try:
                    jobs = self.store.submit_many(
                        [(kind, spec, priority, after)
                         for _, kind, spec, priority, after in admitted])
                except Exception as exc:
                    for index, *_ in admitted:
                        outcomes[index] = exc
                    admitted = []
        if jobs:
            with self._cond:
                for job in jobs:
                    self.scheduler.submit(job)
                self._cond.notify_all()
            for (index, *_), job in zip(admitted, jobs):
                outcomes[index] = job.to_dict()
            self._emit(jobs)
        return outcomes

    def submit_flow(self, blob: dict, boost: int = 0) -> dict:
        """Admit a whole DAG spec behind one journal fsync.

        Validates/expands the flow (:func:`repro.flow.validate_flow`,
        outside every lock — a bad graph raises :class:`SpecError`
        before anything is journaled), then under the store lock peeks
        the id allocator, resolves intra-graph ``after`` edges and
        ``@flow:`` spec references to real job ids, and journals the
        whole graph as one atomic ``submit_group`` line — a crash
        mid-commit leaves either the entire DAG or nothing, never a
        partial graph.  Scheduler admission happens in
        topological order, so the waiter index sees each dependency
        before its dependents.  ``boost`` is the gateway tenant's
        priority boost, applied uniformly on top of per-node
        priorities.  Returns ``{"flow": name, "nodes": {node: job}}``.
        """
        from ..flow.spec import flow_name, resolve_refs, validate_flow

        nodes = validate_flow(blob)
        with self._store_lock:
            ids = self.store.reserve_ids(len(nodes))
            id_map = {node.name: job_id
                      for node, job_id in zip(nodes, ids)}
            requests = []
            for node in nodes:
                requests.append((node.kind,
                                 resolve_refs(node.spec, id_map),
                                 node.priority + boost,
                                 [id_map[dep] for dep in node.after]))
            jobs = self.store.submit_group(requests)
        with self._cond:
            for job in jobs:
                self.scheduler.submit(job)
            self._cond.notify_all()
        self._emit(jobs)
        return {"flow": flow_name(blob),
                "nodes": {node.name: job.to_dict()
                          for node, job in zip(nodes, jobs)}}

    def cancel(self, job_id: str) -> dict | None:
        """Cancel a queued job; None if it is not cancellable."""
        with self._cond:
            if not self.scheduler.cancel(job_id):
                return None
        with self._store_lock:
            job = self.store.mark_cancelled(job_id)
        with self._cond:
            self._cond.notify_all()
        self._emit([job])
        return job.to_dict()

    def job(self, job_id: str) -> dict | None:
        job = self.store.jobs.get(job_id)
        return job.to_dict() if job is not None else None

    def jobs(self, ids: list[str] | None = None) -> list[dict]:
        """All jobs (or just ``ids``, unknown ids silently omitted) in
        submission order.  Lock-free snapshot read — pollers never
        stall behind a journal fsync."""
        if ids is not None:
            found = (self.store.jobs.get(job_id) for job_id in ids)
            table = [job for job in found if job is not None]
        else:
            table = list(self.store.jobs.values())
        return [job.to_dict()
                for job in sorted(table, key=lambda j: j.seq)]

    def result(self, job_id: str) -> dict | None:
        with self._store_lock:
            return self.store.result(job_id)

    def health(self) -> dict:
        # Snapshot the in-memory state under the scheduler lock, then
        # do every disk read (cache manifests) with no lock held — a
        # slow filesystem scan must not stall workers or API calls.
        with self._cond:
            queue_depths = self.scheduler.queue_depths()
            in_flight = dict(self.scheduler.in_flight)
            budgets = {kind: self.scheduler.budget_for(kind)
                       for kind in self.scheduler.budgets}
            stats = self.sim_stats.copy()
        counts = self.store.counts()
        recovered = list(self.store.recovered)
        return {
            "queue_depths": queue_depths,
            "in_flight": in_flight,
            "budgets": budgets,
            "jobs": counts,
            "recovered": recovered,
            "caches": cache_counters(self.work_dir),
            "sim_backend": {
                "summary": stats.summary(),
                "compiled_runs": stats.compiled_runs,
                "interp_runs": stats.interp_runs,
                "fallbacks": stats.fallbacks,
                "compiles": stats.compiles,
                "cache_hits": stats.cache_hits,
                "codegen_hits": stats.codegen_hits,
                "codegen_misses": stats.codegen_misses,
            },
        }

    # -- workers ----------------------------------------------------------

    def _doomed_locked(self) -> list[tuple]:
        """Claim queued jobs whose dependencies can no longer succeed
        (scheduler-side only; the journal writes happen outside the
        condition lock in :meth:`_fail_doomed`)."""
        claimed = []
        for job in self.scheduler.doomed():
            if not self.scheduler.cancel(job.id):
                continue
            states = {dep: self._job_state(dep) for dep in job.after}
            claimed.append((job, states))
        return claimed

    def _fail_doomed(self, claimed: list[tuple]) -> None:
        """Journal dependency failures for jobs :meth:`_doomed_locked`
        claimed.  Failing one job may doom its own dependents — the
        claim loop re-runs until the cascade settles."""
        failed = []
        with self._store_lock:
            for job, states in claimed:
                broken = ", ".join(
                    f"{dep} is {state or 'unknown'}"
                    for dep, state in states.items()
                    if state != "done")
                try:
                    failed.append(self.store.mark_failed(
                        job.id, f"dependency failed: {broken}"))
                except Exception as exc:
                    print(f"serve: failed to journal dependency "
                          f"failure of {job.id}: {exc}",
                          file=sys.stderr)
        with self._cond:
            self._cond.notify_all()
        self._emit(failed)

    def _mark_running(self, batch) -> None:
        """Journal the batch's ``start`` events (one fsync).  Non-fatal
        on failure: execution proceeds and the done/fail transition is
        legal straight from ``queued``."""
        running = []
        with self._store_lock:
            try:
                running = self.store.mark_running_many(batch.ids)
            except Exception as exc:
                print(f"serve: failed to journal start of "
                      f"{'/'.join(batch.ids)}: {exc}", file=sys.stderr)
        self._emit(running)

    def _claim(self):
        """Block until a batch is dispatchable (or the daemon stops).

        The wait carries **no timeout**: every transition that could
        unblock dispatch (submit, cancel, finish, doom) notifies the
        condition, so idle workers sleep instead of polling.  All
        journal writes happen outside the condition lock.
        """
        while True:
            doomed = []
            batch = None
            with self._cond:
                while not self._stop:
                    doomed = self._doomed_locked()
                    if doomed:
                        break
                    batch = self.scheduler.next_batch()
                    if batch is not None:
                        break
                    self._cond.wait()
                if self._stop:
                    return None
            if doomed:
                self._fail_doomed(doomed)
                continue
            self._mark_running(batch)
            return batch

    def _commit(self, batch, result) -> None:
        """Journal a batch's outcomes behind one fsync per event group.

        Runs under the store lock only — API calls and dispatch never
        wait on the commit's disk latency.  A store write failing
        (e.g. disk full) must not kill the worker: the jobs simply stay
        ``running`` and are requeued on the next daemon start.
        """
        done, failed = [], []
        for job in batch.jobs:
            outcome = result.outcomes.get(job.id)
            if outcome is not None and outcome.ok:
                done.append((job.id, outcome.blob))
            else:
                failed.append((job.id,
                               outcome.error if outcome is not None
                               else "no outcome produced"))
        committed = []
        with self._store_lock:
            if done:
                try:
                    committed.extend(self.store.mark_done_many(done))
                except Exception as exc:
                    print(f"serve: failed to journal outcome of "
                          f"{'/'.join(job_id for job_id, _ in done)}: "
                          f"{exc}", file=sys.stderr)
            if failed:
                try:
                    committed.extend(
                        self.store.mark_failed_many(failed))
                except Exception as exc:
                    print(f"serve: failed to journal failure of "
                          f"{'/'.join(job_id for job_id, _ in failed)}: "
                          f"{exc}", file=sys.stderr)
        if result.sim_stats is not None:
            with self._cond:
                self.sim_stats.add(result.sim_stats)
        self._emit(committed)

    def _worker(self) -> None:
        while True:
            batch = self._claim()
            if batch is None:
                return
            try:
                result = execute_batch(batch.kind, batch.jobs,
                                       self.work_dir,
                                       engine_jobs=self.engine_jobs,
                                       resolve=self.result)
                self._commit(batch, result)
            finally:
                # The budget slot is released no matter what failed
                # above — a wedged kind would otherwise outlive the
                # error that wedged it.
                with self._cond:
                    self.scheduler.finish(batch)
                    self._cond.notify_all()
