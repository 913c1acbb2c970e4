"""Quickstart: the crash-safe job service (``repro serve``).

Boots a daemon in-process behind the asyncio gateway (the service's
HTTP front end) on an ephemeral port, submits one job of each kind over
the HTTP API, waits for the results, prints the health report, then
restarts the daemon on the same store to show that the journal makes
everything durable:

    python examples/serve_quickstart.py

The CLI equivalent, against a long-lived daemon::

    repro serve --store /tmp/serve-store --workers 2 &
    repro submit simulate my_tb.v
    repro submit --priority 5 augment rtl/
    repro submit evaluate --suite scripts --models ours-13b
    repro status                # all jobs + queue depths + cache hits
    repro result job-000001     # rendered report / result blob
"""

import os
import tempfile

from repro.serve import Daemon, GatewayServer, ServeClient

TB = """module tb;
  reg [3:0] n;
  initial begin
    n = 4'd7;
    $display("PASS %0d", n);
    $finish;
  end
endmodule
"""

DFF = """module dff(input clk, input d, output reg q);
  always @(posedge clk) q <= d;
endmodule
"""


def boot(store: str):
    """One daemon + gateway on an ephemeral port."""
    daemon = Daemon(store, workers=2)
    daemon.start()
    server = GatewayServer(daemon).start()
    return daemon, server, ServeClient(server.url)


def main() -> None:
    root = tempfile.mkdtemp(prefix="repro-serve-")
    corpus = os.path.join(root, "corpus")
    os.makedirs(corpus)
    with open(os.path.join(corpus, "dff.v"), "w",
              encoding="utf-8") as handle:
        handle.write(DFF)
    store = os.path.join(root, "store")

    print("=" * 70)
    print("1. Submit one job of each kind")
    print("=" * 70)
    daemon, server, client = boot(store)
    ids = [
        client.submit("simulate", {"source": TB})["id"],
        client.submit("augment", {"paths": [corpus]},
                      priority=5)["id"],
        client.submit("evaluate", {"suite": "scripts",
                                   "models": ["ours-13b"],
                                   "samples": 3})["id"],
        client.submit("experiment", {"name": "table1"})["id"],
    ]
    for job_id, job in sorted(client.wait(ids, timeout=300).items()):
        print(f"  {job_id}: {job['kind']:<10} -> {job['state']}")

    print()
    print("=" * 70)
    print("2. Results (simulate output / augment counts / a table)")
    print("=" * 70)
    print(f"  simulate: {client.result(ids[0])['output']!r}")
    print(f"  augment:  {client.result(ids[1])['records']} records")
    print("  evaluate:")
    for line in client.result(ids[2])["rendered"].splitlines()[:4]:
        print(f"    {line}")

    print()
    print("=" * 70)
    print("3. Health: queues, budgets, cache hit rates, sim backend")
    print("=" * 70)
    health = client.health()
    print(f"  jobs:   {health['jobs']}")
    print(f"  queues: {health['queue_depths']} "
          f"(budgets {health['budgets']})")
    print(f"  caches: {health['caches']}")
    print(f"  sim:    {health['sim_backend']['summary']}")

    server.stop()
    daemon.stop()

    print()
    print("=" * 70)
    print("4. Restart on the same store: the journal survives")
    print("=" * 70)
    daemon, server, client = boot(store)
    for job in client.jobs():
        print(f"  {job['id']}: {job['kind']:<10} {job['state']} "
              f"(still served from the journal)")
    server.stop()
    daemon.stop()


if __name__ == "__main__":
    main()
