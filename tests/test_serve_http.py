"""Malformed-HTTP coverage for the serve front end (the gateway).

Every case must come back as a 4xx JSON error — and the server must
keep answering well-formed requests afterwards: a hostile or buggy
client can cost itself a connection, never the loop.
"""

import json
import socket

import pytest

from repro.serve import (Daemon, GatewayConfig, GatewayServer,
                         ServeClient, ServeError, TenantPolicy)

#: The fixture's body ceiling: small enough to exceed cheaply, above
#: every body the other cases send.
MAX_BODY = 8192


# The single param only names the cases: ids stay ``test_*[gateway]``.
@pytest.fixture(params=["gateway"])
def server(tmp_path):
    """(host, port) of a gateway with a strict tenant list."""
    daemon = Daemon(str(tmp_path / "store"), workers=1,
                    configure_sim_cache=False)
    daemon.start()
    config = GatewayConfig(
        allow_unknown_tenants=False, max_body_bytes=MAX_BODY,
        tenants={"known": TenantPolicy(name="known")})
    gserver = GatewayServer(daemon, config=config).start()
    yield gserver.host, gserver.port
    gserver.stop()
    daemon.stop()


def _raw(host, port, payload: bytes, shutdown_wr: bool = False) -> bytes:
    """One raw request; returns everything the server sent back."""
    sock = socket.create_connection((host, port), timeout=10)
    try:
        sock.sendall(payload)
        if shutdown_wr:
            sock.shutdown(socket.SHUT_WR)
        chunks = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks += chunk
            if b"\r\n\r\n" in chunks:
                head, _, rest = chunks.partition(b"\r\n\r\n")
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length:"):
                        if len(rest) >= int(line.split(b":")[1]):
                            return chunks
        return chunks
    finally:
        sock.close()


def _post(path: str, body: bytes, *, content_length: int | None = None,
          headers: dict | None = None) -> bytes:
    length = len(body) if content_length is None else content_length
    lines = [f"POST {path} HTTP/1.1", "Host: x",
             "Content-Type: application/json",
             f"Content-Length: {length}", "Connection: close"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _status(reply: bytes) -> int:
    assert reply, "server sent no reply"
    return int(reply.split(b"\r\n", 1)[0].split()[1])


def _alive(host, port) -> None:
    """The server must still answer a well-formed request."""
    client = ServeClient(f"http://{host}:{port}",
                         tenant="known", timeout=10)
    assert "jobs" in client.health()


def test_invalid_json_body(server):
    host, port = server
    reply = _raw(host, port, _post("/api/submit", b"{not json"))
    assert _status(reply) == 400
    _alive(host, port)


def test_non_dict_body(server):
    host, port = server
    reply = _raw(host, port, _post("/api/submit", b"[1, 2, 3]"))
    assert _status(reply) == 400
    _alive(host, port)


def test_wrong_content_length(server):
    """Content-Length larger than the sent body: the truncated read
    must surface as a 400, not hang or kill the handler."""
    host, port = server
    reply = _raw(host, port,
                 _post("/api/submit", b'{"kind": "probe"',
                       content_length=4096),
                 shutdown_wr=True)
    assert _status(reply) == 400
    _alive(host, port)


def test_non_integer_priority(server):
    host, port = server
    body = json.dumps({"kind": "probe", "spec": {"payload": "x"},
                       "priority": [1]}).encode()
    headers = {"X-Repro-Tenant": "known"}
    reply = _raw(host, port,
                 _post("/api/submit", body, headers=headers))
    assert _status(reply) == 400
    _alive(host, port)


def test_malformed_request_line(server):
    host, port = server
    reply = _raw(host, port, b"GARBAGE\r\n\r\n", shutdown_wr=True)
    assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
    _alive(host, port)


def test_oversized_body_is_413(server):
    """A Content-Length past ``max_body_bytes`` is refused from the
    headers alone: 413, connection closed, body never read."""
    host, port = server
    reply = _raw(host, port,
                 _post("/api/submit", b"", content_length=MAX_BODY + 1))
    assert reply.startswith(b"HTTP/1.1 413 Payload Too Large\r\n")
    assert b"Connection: close" in reply.split(b"\r\n\r\n")[0]
    assert b"request body too large" in reply
    _alive(host, port)


def test_unknown_tenant_rejected(server):
    host, port = server
    client = ServeClient(f"http://{host}:{port}", tenant="stranger")
    with pytest.raises(ServeError) as err:
        client.submit("probe", {"payload": "x"})
    assert err.value.status == 403
    _alive(host, port)


def test_client_disconnect_mid_response(server):
    """Hang up without reading: the server drops the connection
    silently and keeps serving."""
    host, port = server
    for _ in range(3):
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(b"GET /api/jobs HTTP/1.1\r\nHost: x\r\n\r\n")
        sock.close()            # never read the reply
    _alive(host, port)
