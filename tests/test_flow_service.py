"""The flow layer through the service: parity, rejection, recovery.

* Any valid DAG submitted via ``/api/flow`` must produce results
  byte-identical to topological serial execution with no daemon
  (hypothesis property) — including across a randomized SIGKILL /
  resume round (tier-2).
* Malformed graphs (duplicate node names, self edges, cycles, unknown
  refs/kinds) must come back as HTTP 400s from the gateway and must
  leave the service healthy.
* Fan-out results are invariant to ``--jobs`` and to the transport.
"""

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flow import pipeline_flow, run_flow, run_flow_direct, \
    validate_flow
from repro.serve import (Daemon, GatewayConfig, GatewayServer,
                         ServeClient, ServeError, TenantPolicy)
from test_serve_recovery import MODULE_A, MODULE_B, _spawn, _stop

_SETTINGS = dict(deadline=None, derandomize=True,
                 suppress_health_check=(HealthCheck.too_slow,))

#: Flows whose validation must 400 — name → (spec, error fragment).
BAD_FLOWS = {
    "duplicate-names": ({"nodes": [
        {"name": "a", "kind": "probe", "spec": {"payload": 1}},
        {"name": "a", "kind": "probe", "spec": {"payload": 2}}]},
        "duplicate node name"),
    "self-edge": ({"nodes": [
        {"name": "a", "kind": "probe", "spec": {"payload": 1},
         "after": ["a"]}]}, "depends on itself"),
    "cycle": ({"nodes": [
        {"name": "a", "kind": "probe", "spec": {"payload": 1},
         "after": ["b"]},
        {"name": "b", "kind": "probe", "spec": {"payload": 2},
         "after": ["a"]}]}, "cycle"),
    "unknown-ref": ({"nodes": [
        {"name": "a", "kind": "probe", "spec": {"payload": 1},
         "after": ["ghost"]}]}, "unknown node"),
    "unknown-kind": ({"nodes": [
        {"name": "a", "kind": "frobnicate"}]}, "unknown job kind"),
    "bad-node-spec": ({"nodes": [
        {"name": "a", "kind": "augment", "spec": {}}]}, "node 'a'"),
}


def _corpus(root) -> str:
    corpus = os.path.join(str(root), "corpus")
    os.makedirs(corpus, exist_ok=True)
    for name, text in (("dff.v", MODULE_A), ("mux2.v", MODULE_B)):
        with open(os.path.join(corpus, name), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
    return corpus


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    """One shared in-process daemon + gateway for the module."""
    root = tmp_path_factory.mktemp("flow-service")
    daemon = Daemon(str(root / "store"), workers=2,
                    configure_sim_cache=False)
    daemon.start()
    server = GatewayServer(daemon).start()
    yield daemon, ServeClient(server.url), root
    server.stop()
    daemon.stop()


@st.composite
def flow_specs(draw):
    """Random valid probe DAGs: templates, fan-in edges, diamonds.

    Probe payloads never contain ``@flow:`` references — resolved refs
    are job ids, and probe blobs echo their payload, so a ref inside a
    payload would (correctly) differ between transports.  Reference
    resolution parity is covered by the pipeline golden e2e instead.
    """
    count = draw(st.integers(min_value=1, max_value=5))
    nodes, names = [], []
    for index in range(count):
        deps = draw(st.lists(st.sampled_from(names), unique=True,
                             max_size=3)) if names else []
        if draw(st.booleans()):
            values = draw(st.lists(st.integers(0, 9), min_size=1,
                                   max_size=3, unique=True))
            nodes.append({"name": f"n{index}-{{i}}", "kind": "probe",
                          "spec": {"payload": ["{i}", index]},
                          "foreach": {"i": values}, "after": deps})
            names.extend(f"n{index}-{value}" for value in values)
        else:
            payload = draw(st.integers(0, 99))
            nodes.append({"name": f"n{index}", "kind": "probe",
                          "spec": {"payload": payload},
                          "after": deps})
            names.append(f"n{index}")
    return {"name": "prop", "nodes": nodes}


class TestDaemonFlow:
    @settings(max_examples=25, **_SETTINGS)
    @given(blob=flow_specs())
    def test_daemon_matches_topological_serial(self, stack, blob):
        daemon, client, root = stack
        direct = run_flow_direct(blob, str(root / "direct"))
        via = run_flow(client, blob, timeout=60)
        assert via == direct

    def test_group_commit_is_all_or_nothing(self, stack):
        daemon, client, root = stack
        before = {job["id"] for job in client.jobs()}
        with pytest.raises(ServeError):
            client.submit_flow({"nodes": [
                {"name": "good", "kind": "probe",
                 "spec": {"payload": 1}},
                {"name": "bad", "kind": "augment", "spec": {}}]})
        assert {job["id"] for job in client.jobs()} == before

    def test_fanout_invariant_to_jobs_and_transport(self, tmp_path):
        corpus = _corpus(tmp_path)
        flow = {"name": "grid", "nodes": [
            {"name": "aug-{seed}", "kind": "augment",
             "spec": {"paths": [corpus], "seed": "{seed}"},
             "foreach": {"seed": [0, 1]}}]}
        serial = run_flow_direct(flow, str(tmp_path / "w1"),
                                 engine_jobs=1)
        parallel = run_flow_direct(flow, str(tmp_path / "w2"),
                                   engine_jobs=2)
        daemon = Daemon(str(tmp_path / "store"), workers=2,
                        configure_sim_cache=False)
        daemon.start()
        server = GatewayServer(daemon).start()
        try:
            via = run_flow(ServeClient(server.url), flow, timeout=120)
        finally:
            server.stop()
            daemon.stop()
        assert serial == parallel == via
        assert serial["aug-0"]["sha256"] != serial["aug-1"]["sha256"]


class TestGatewayFlow:
    @pytest.fixture
    def gateway(self, tmp_path):
        daemon = Daemon(str(tmp_path / "store"), workers=2,
                        configure_sim_cache=False)
        config = GatewayConfig(
            max_queue_depth=8,
            tenants={"small": TenantPolicy(name="small",
                                           max_active=2)})
        server = GatewayServer(daemon, config=config).start()
        daemon.start()
        yield ServeClient(server.url), ServeClient(server.url,
                                                   tenant="small")
        server.stop()
        daemon.stop()

    def test_flow_roundtrip_and_parity(self, gateway, tmp_path):
        client, _ = gateway
        blob = {"name": "gw", "nodes": [
            {"name": "a-{i}", "kind": "probe",
             "spec": {"payload": "{i}"}, "foreach": {"i": [0, 1]}},
            {"name": "sum", "kind": "probe", "spec": {"payload": 2},
             "after": ["a-0", "a-1"]}]}
        via = run_flow(client, blob, timeout=60)
        assert via == run_flow_direct(blob, str(tmp_path / "direct"))

    def test_rejects_bad_flows_with_400_and_survives(self, gateway):
        client, _ = gateway
        before = client.jobs()
        for name, (blob, fragment) in BAD_FLOWS.items():
            with pytest.raises(ServeError) as err:
                client.submit_flow(blob)
            assert err.value.status == 400, name
            assert fragment in str(err.value), name
        # Nothing was journaled and the service still serves.
        assert client.jobs() == before
        probe = client.submit("probe", {"payload": "alive"})
        assert client.wait([probe["id"]], timeout=30)[
            probe["id"]]["state"] == "done"

    def test_admission_charges_expanded_node_count(self, gateway):
        _, small = gateway
        blob = {"nodes": [
            {"name": "p-{i}", "kind": "probe",
             "spec": {"payload": "{i}", "sleep_ms": 200},
             "foreach": {"i": [0, 1, 2]}}]}
        # Three nodes against a max_active of two: rejected up front,
        # with no partial admission.
        with pytest.raises(ServeError) as err:
            small.submit_flow(blob)
        assert err.value.status == 429
        assert "quota" in str(err.value)
        assert small.jobs() == []


@pytest.mark.tier2
class TestFlowCrashResume:
    """Randomized SIGKILL mid-flow; resume must finish byte-identical."""

    def _flow(self):
        nodes = []
        for index in range(8):
            deps = []
            if index:
                deps = [f"p{index - 1}"] if index % 2 else ["p0"]
            nodes.append({"name": f"p{index}", "kind": "probe",
                          "spec": {"payload": [index, "crash"],
                                   "sleep_ms": 20},
                          "after": deps})
        return {"name": "crash-flow", "nodes": nodes}

    @pytest.mark.parametrize("round_index", range(4))
    def test_randomized_sigkill_resume(self, tmp_path, round_index):
        rng = random.Random(0xF10C + round_index)
        crash_after = rng.randint(2, 40)
        flow = self._flow()
        expected = run_flow_direct(flow, str(tmp_path / "direct"))
        store = str(tmp_path / "store")
        proc, url = _spawn(store, crash_after=crash_after,
                           crash_mode="kill")
        acked = None
        try:
            if url is not None:
                client = ServeClient(url, timeout=10)
                try:
                    acked = client.submit_flow(flow)
                except Exception:
                    acked = None
            try:
                proc.wait(timeout=60)
            except Exception:
                proc.kill()
                proc.wait()
        finally:
            _stop(proc)

        proc, url = _spawn(store)
        try:
            assert url is not None
            client = ServeClient(url, timeout=10)
            jobs = client.jobs()
            # /api/flow is one group commit: the graph is journaled
            # whole or not at all — never partially.
            assert len(jobs) in (0, 8), [job["id"] for job in jobs]
            if acked is not None:
                by_node = {name: job["id"]
                           for name, job in acked["nodes"].items()}
            elif jobs:
                # Acknowledgement was lost but the commit landed: the
                # journal order is the deterministic topological order.
                order = [node.name for node in validate_flow(flow)]
                by_node = dict(zip(order, (job["id"] for job in jobs)))
            else:
                by_node = {name: job["id"] for name, job in
                           client.submit_flow(flow)["nodes"].items()}
            final = client.wait(list(by_node.values()), timeout=120)
            assert all(job["state"] == "done"
                       for job in final.values())
            for name, job_id in by_node.items():
                assert client.result(job_id) == expected[name], name
        finally:
            _stop(proc)
