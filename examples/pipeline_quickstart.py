"""Quickstart: the augment → train → evaluate pipeline (``repro pipeline``).

Boots the job daemon in-process behind the asyncio gateway (the
service's HTTP front end), submits the three stages as one dependency
DAG, waits, and prints the trained model's loss curve and
its benchmark column next to a paper baseline.  Then resubmits the
identical DAG to show the warm path: the augment shard cache, the
train checkpoint store and the eval cell cache mean the whole loop
replays with zero recomputation (``misses == 0`` everywhere):

    python examples/pipeline_quickstart.py

The CLI equivalent, against a long-lived daemon::

    repro serve --store /tmp/pipe-store --workers 2 &
    repro pipeline rtl/ --suite thakur --register-as ours-tiny \\
        --models ours-tiny,llama2-13b --samples 2 --levels middle

Or without a daemon (direct, still checkpointed and resumable)::

    repro train rtl/ --cache-dir /tmp/aug --checkpoint-dir /tmp/ck \\
        --out ours-tiny.json
    repro evaluate --suite thakur --artifact ours-tiny.json
"""

import json
import os
import tempfile

from repro.serve import Daemon, GatewayServer, ServeClient

DFF = """module dff(input clk, input d, output reg q);
  always @(posedge clk) q <= d;
endmodule
"""

MUX = """module mux2(input a, input b, input sel, output y);
  assign y = sel ? b : a;
endmodule
"""

TRAIN_KNOBS = {"epochs": 2, "batch_size": 4, "micro_batch": 2,
               "seq_len": 32, "vocab_size": 160, "d_model": 16,
               "n_heads": 2, "n_layers": 1, "d_ff": 32,
               "max_records": 32, "checkpoint_every": 4,
               "register_as": "ours-tiny"}


def boot(store: str):
    daemon = Daemon(store, workers=2)
    daemon.start()
    server = GatewayServer(daemon).start()
    return daemon, server, ServeClient(server.url)


def run_dag(client: ServeClient, corpus: str) -> tuple[dict, dict]:
    """Submit the three stages as a DAG and wait for the results."""
    augment = client.submit("augment", {"paths": [corpus]})
    train = client.submit("train", {"paths": [corpus], **TRAIN_KNOBS},
                          after=[augment["id"]])
    evaluate = client.submit(
        "evaluate",
        {"suite": "thakur", "models": ["ours-tiny", "llama2-13b"],
         "samples": 2, "levels": ["middle"], "k": 2,
         "trained": {"name": "ours-tiny", "job": train["id"]}},
        after=[train["id"]])
    ids = [augment["id"], train["id"], evaluate["id"]]
    for job_id, job in sorted(client.wait(ids, timeout=300).items()):
        print(f"  {job_id}: {job['kind']:<9} -> {job['state']}")
    return client.result(train["id"]), client.result(evaluate["id"])


def main() -> None:
    root = tempfile.mkdtemp(prefix="repro-pipeline-")
    corpus = os.path.join(root, "corpus")
    os.makedirs(corpus)
    for name, text in (("dff.v", DFF), ("mux2.v", MUX)):
        with open(os.path.join(corpus, name), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
    store = os.path.join(root, "store")

    print("=" * 70)
    print("1. Cold run: augment -> train -> evaluate as one DAG")
    print("=" * 70)
    daemon, server, client = boot(store)
    train_blob, eval_blob = run_dag(client, corpus)

    print()
    print("=" * 70)
    print("2. The trained model")
    print("=" * 70)
    print(f"  records:    {train_blob['records']} "
          f"({train_blob['trained_tokens']} tokens)")
    curve = " -> ".join(f"{loss:.3f}"
                        for loss in train_blob["losses"][:6])
    print(f"  loss curve: {curve} ...")
    print(f"  final loss: {train_blob['final_loss']:.4f}")
    print(f"  weights:    {train_blob['weights_sha256'][:16]}")

    print()
    print("=" * 70)
    print("3. Scored next to a paper baseline (Table-5 renderer)")
    print("=" * 70)
    print(eval_blob["rendered"])

    print()
    print("=" * 70)
    print("4. Warm rerun: identical DAG, zero recomputation")
    print("=" * 70)
    run_dag(client, corpus)
    health = client.health()
    print(f"  cache manifests: "
          f"{json.dumps(health['caches'], sort_keys=True)}")

    server.stop()
    daemon.stop()


if __name__ == "__main__":
    main()
