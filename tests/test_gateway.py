"""The asyncio gateway: tenants, backpressure, SSE, and parity.

The gateway adds admission semantics in front of the daemon but no
execution semantics: results must stay byte-identical to direct runs.
The kill-and-resume contract through the gateway is proven by
``test_serve_recovery``.
"""

import json
import time
import urllib.request

import pytest

from repro.serve import (Daemon, GatewayConfig, GatewayServer,
                         ServeClient, ServeError, TenantPolicy,
                         execute_job)
from test_serve_recovery import TB_PASS, _canonical


@pytest.fixture
def stack(tmp_path):
    """A daemon + gateway with tight, test-friendly admission knobs."""
    daemon = Daemon(str(tmp_path / "store"), workers=2)
    daemon.start()
    config = GatewayConfig(
        max_queue_depth=4,
        retry_after=0.05,
        tenants={
            "throttled": TenantPolicy(name="throttled", rate=1.0,
                                      burst=2),
            "capped": TenantPolicy(name="capped", max_active=1),
            "vip": TenantPolicy(name="vip", priority_boost=10),
        })
    server = GatewayServer(daemon, config=config).start()
    yield daemon, server
    server.stop()
    daemon.stop()


def test_results_byte_identical_to_direct_runs(stack, tmp_path):
    daemon, server = stack
    client = ServeClient(server.url)
    specs = [("probe", {"payload": {"n": 7}}),
             ("simulate", {"source": TB_PASS})]
    submitted = [client.submit(kind, spec)["id"] for kind, spec in specs]
    jobs = client.wait(submitted, timeout=120)
    for (kind, spec), job_id in zip(specs, submitted):
        job = jobs[job_id]
        assert job["state"] == "done", job
        direct = execute_job(kind, spec,
                             str(tmp_path / f"direct-{job_id}"))
        assert _canonical(client.result(job_id)) == _canonical(direct)


def test_rate_limit_429_with_retry_after(stack):
    _, server = stack
    client = ServeClient(server.url, tenant="throttled")
    codes = []
    for index in range(4):
        try:
            client.submit("probe", {"payload": index})
            codes.append(200)
        except ServeError as exc:
            codes.append(exc.status)
            assert exc.retry_after is not None and exc.retry_after > 0
    # burst of 2 admits the first two; the bucket is then empty.
    assert codes[:2] == [200, 200]
    assert 429 in codes[2:]


def test_wait_retries_through_429(monkeypatch):
    # No live server: the poll loop's 429 handling is exercised by
    # stubbing the batched query it wraps.
    client = ServeClient("http://127.0.0.1:1")
    calls = {"n": 0}

    def throttled_then_done(ids=None):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise ServeError(429, {"error": "rate limited"},
                             retry_after=0.01)
        return [{"id": "j1", "state": "done"}]

    monkeypatch.setattr(client, "jobs", throttled_then_done)
    jobs = client.wait(["j1"], timeout=5, poll=0.01)
    assert jobs["j1"]["state"] == "done"
    assert calls["n"] == 3


def test_wait_429_past_deadline_raises_timeout(monkeypatch):
    client = ServeClient("http://127.0.0.1:1")

    def always_throttled(ids=None):
        raise ServeError(429, {"error": "rate limited"},
                         retry_after=60.0)

    monkeypatch.setattr(client, "jobs", always_throttled)
    with pytest.raises(TimeoutError, match="rate-limited"):
        client.wait(["j1"], timeout=0.05, poll=0.01)


def test_wait_non_429_errors_escape(monkeypatch):
    client = ServeClient("http://127.0.0.1:1")

    def server_error(ids=None):
        raise ServeError(500, {"error": "boom"})

    monkeypatch.setattr(client, "jobs", server_error)
    with pytest.raises(ServeError) as err:
        client.wait(["j1"], timeout=1)
    assert err.value.status == 500


def test_tenant_quota_and_release(stack):
    _, server = stack
    client = ServeClient(server.url, tenant="capped")
    job = client.submit("probe", {"payload": "a", "sleep_ms": 300})
    with pytest.raises(ServeError) as err:
        client.submit("probe", {"payload": "b"})
    assert err.value.status == 429
    client.wait([job["id"]], timeout=30)
    # Quota is released once the job is terminal.
    deadline = time.monotonic() + 10
    while True:
        try:
            client.submit("probe", {"payload": "c"})
            break
        except ServeError as exc:
            assert exc.status == 429
            assert time.monotonic() < deadline, "quota never released"
            time.sleep(0.05)


def test_queue_depth_backpressure(stack):
    _, server = stack
    client = ServeClient(server.url)
    jobs = []
    rejected = 0
    for index in range(8):          # depth ceiling is 4
        try:
            jobs.append(client.submit(
                "probe", {"payload": index, "sleep_ms": 200})["id"])
        except ServeError as exc:
            assert exc.status == 429
            assert exc.retry_after is not None
            rejected += 1
    assert rejected > 0, "queue-depth ceiling never triggered"
    done = client.wait(jobs, timeout=60)
    assert all(job["state"] == "done" for job in done.values())
    # Depth drains: a new submit is admitted again.
    deadline = time.monotonic() + 10
    while True:
        try:
            client.submit("probe", {"payload": "post-drain"})
            break
        except ServeError:
            assert time.monotonic() < deadline, "depth never released"
            time.sleep(0.05)


def test_priority_boost(stack):
    _, server = stack
    vip = ServeClient(server.url, tenant="vip")
    job = vip.submit("probe", {"payload": "v"}, priority=1)
    assert job["priority"] == 11


def test_sse_stream_reaches_terminal(stack):
    _, server = stack
    client = ServeClient(server.url)
    job = client.submit("probe", {"payload": "sse", "sleep_ms": 150})
    request = urllib.request.Request(
        f"{server.url}/api/events/{job['id']}")
    states = []
    with urllib.request.urlopen(request, timeout=30) as stream:
        data = b""
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            data += stream.read(256)
            # Parse complete lines only — a 256-byte read can split a
            # data: line in half.
            complete = data.decode().rsplit("\n", 1)[0]
            states = [json.loads(line[6:])["state"]
                      for line in complete.splitlines()
                      if line.startswith("data: ")]
            if states and states[-1] in ("done", "failed", "cancelled"):
                break
    assert states[-1] == "done"
    assert states[0] in ("queued", "running", "done")


def test_sse_unknown_job_404(stack):
    _, server = stack
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(f"{server.url}/api/events/job-999999",
                               timeout=10)
    assert err.value.code == 404


def test_batched_wait_and_ids_query(stack):
    _, server = stack
    client = ServeClient(server.url)
    ids = [client.submit("probe", {"payload": index})["id"]
           for index in range(3)]
    subset = client.jobs(ids=ids[:2])
    assert [job["id"] for job in subset] == ids[:2]
    done = client.wait(ids, timeout=30)
    assert sorted(done) == sorted(ids)
    with pytest.raises(ServeError) as err:
        client.wait(["job-424242"], timeout=5)
    assert err.value.status == 404


@pytest.mark.parametrize("kind,spec", [
    ("simulate", {"source": TB_PASS, "backend": "codegen"}),
    ("evaluate", {"suite": "scripts", "sim_backend": "codegen"}),
])
def test_unknown_sim_backend_is_a_400(stack, kind, spec):
    client = ServeClient(stack[1].url)
    with pytest.raises(ServeError) as err:
        client.submit(kind, spec)
    assert err.value.status == 400
    assert "compiled, interp" in err.value.payload["error"]


def test_cancel_and_result_conflict(stack):
    _, server = stack
    client = ServeClient(server.url)
    job = client.submit("probe", {"payload": "x", "sleep_ms": 2000})
    blocker = client.submit("probe", {"payload": "y", "sleep_ms": 0})
    with pytest.raises(ServeError) as err:
        client.result(job["id"])
    assert err.value.status == 409
    del blocker
    with pytest.raises(ServeError) as err:
        client.cancel("job-999999")
    assert err.value.status == 404


def test_gateway_stats_endpoint(stack):
    _, server = stack
    client = ServeClient(server.url, tenant="vip")
    client.wait([client.submit("probe", {"payload": 1})["id"]],
                timeout=30)
    blob = json.loads(urllib.request.urlopen(
        f"{server.url}/api/gateway", timeout=10).read())
    assert blob["max_queue_depth"] == 4
    assert blob["tenants"]["vip"]["submitted"] >= 1

