"""Run validated flows: direct topo-serial, or through the service.

The direct path is the determinism reference — nodes execute one at a
time in :func:`validate_flow`'s stable topological order via the same
``execute_job`` the daemon's workers call, with synthetic per-node ids
that never leak into result blobs.  The service path submits the whole
graph in one ``POST /api/flow`` (one journal group commit; the
scheduler's waiter index gates dependents) and collects results per
node.  Both yield byte-identical blobs for the same spec — the
property the flow test-suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spec import FlowNode, flow_name, resolve_refs, validate_flow


class FlowError(RuntimeError):
    """A flow finished with failed or dropped nodes."""

    def __init__(self, message: str, failures: dict[str, dict]):
        super().__init__(message)
        self.failures = failures


def run_flow_direct(blob: dict, workdir: str, *,
                    engine_jobs: int = 1) -> dict[str, dict]:
    """Execute a flow serially in topological order, no daemon.

    Returns ``{node name: result blob}``.  Blobs are pure functions of
    the canonical specs, so this is the reference the service path is
    compared against byte for byte.
    """
    from ..serve.executor import execute_job

    nodes = validate_flow(blob)
    id_map = {node.name: f"flow-{node.name}" for node in nodes}
    blobs_by_id: dict[str, dict] = {}
    results: dict[str, dict] = {}
    for node in nodes:
        spec = resolve_refs(node.spec, id_map)
        result = execute_job(node.kind, spec, workdir,
                             engine_jobs=engine_jobs,
                             resolve=blobs_by_id.get)
        blobs_by_id[id_map[node.name]] = result
        results[node.name] = result
    return results


@dataclass
class FlowRun:
    """A submitted flow: node name -> job dict, as returned by the API."""

    name: str
    jobs: dict[str, dict]

    @property
    def ids(self) -> list[str]:
        return [job["id"] for job in self.jobs.values()]

    def id_for(self, node: str) -> str:
        return self.jobs[node]["id"]


def submit_flow(client, blob: dict) -> FlowRun:
    """Submit a flow through a :class:`ServeClient`."""
    payload = client.submit_flow(blob)
    return FlowRun(name=payload.get("flow", flow_name(blob)),
                   jobs=payload["nodes"])


def run_flow(client, blob: dict, *, timeout: float = 600.0,
             poll: float = 0.05) -> dict[str, dict]:
    """Submit a flow and wait for every node; return name -> result blob.

    Raises :class:`FlowError` if any node ends failed (or is dropped
    because a dependency failed), carrying the terminal job dicts so
    callers can render errors per node.
    """
    run = submit_flow(client, blob)
    final = client.wait(run.ids, timeout=timeout, poll=poll)
    failures = {name: final[job["id"]]
                for name, job in run.jobs.items()
                if final[job["id"]]["state"] != "done"}
    if failures:
        detail = "; ".join(
            f"{name}: {job['state']} ({job.get('error') or 'no error'})"
            for name, job in sorted(failures.items()))
        raise FlowError(f"flow '{run.name}' failed: {detail}", failures)
    return {name: client.result(job["id"])
            for name, job in run.jobs.items()}


__all__ = ["FlowError", "FlowRun", "run_flow", "run_flow_direct",
           "submit_flow", "validate_flow", "FlowNode"]
