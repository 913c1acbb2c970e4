"""Quickstart: checkpoint → ``repro infer`` → ``repro evaluate``.

The inference loop end-to-end at laptop scale: finetune the tiny
transformer on an augmented corpus (checkpointed), write the trained
artefact — which now embeds a portable weights bundle — then decode
completions from it with the batched KV-cache sampler and score the
*sampled* model on a benchmark suite:

    python examples/infer_quickstart.py

The CLI equivalent::

    repro train rtl/ --checkpoint-dir /tmp/ck --register-as ours-tiny \\
        --max-records 32 --seq-len 32 --vocab-size 160 --d-model 16 \\
        --out ours-tiny.json
    repro infer ours-tiny.json --prompt "### instruct: Write Verilog" \\
        --max-tokens 24 --temperature 0.8
    repro evaluate --suite thakur --artifact ours-tiny.json \\
        --models ours-tiny --samples 2 --levels middle

Or through the daemon, as one decode job batched by weights digest::

    repro serve --store /tmp/infer-store &
    repro submit infer <train-job-id> --trained-name ours-tiny \\
        --prompt "### instruct: Write Verilog for a counter"
"""

import json
import os
import tempfile

from repro.cli import main as repro
from repro.scale import augment_distributed
from repro.train import TrainConfig, build_artifact, train_run

DESIGNS = {
    "dff.v": "module dff(input clk, input d, output reg q);\n"
             "  always @(posedge clk) q <= d;\nendmodule\n",
    "mux2.v": "module mux2(input a, input b, input sel, output y);\n"
              "  assign y = sel ? b : a;\nendmodule\n",
}


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        rtl = os.path.join(root, "rtl")
        os.makedirs(rtl)
        for name, text in DESIGNS.items():
            with open(os.path.join(rtl, name), "w",
                      encoding="utf-8") as handle:
                handle.write(text)

        # 1. Augment the corpus, finetune (checkpointed) and build the
        #    weights-carrying artefact — the single JSON handoff every
        #    later stage uses.
        dataset = augment_distributed([rtl]).dataset
        report = train_run(
            dataset,
            TrainConfig(epochs=1, batch_size=4, micro_batch=2,
                        seq_len=32, vocab_size=160, d_model=16,
                        n_heads=2, n_layers=1, d_ff=32,
                        max_records=32, checkpoint_every=4),
            checkpoint_dir=os.path.join(root, "ckpt"))
        print(f"trained: {report.summary()}")
        artifact = build_artifact("ours-tiny", report, dataset)
        artifact_path = os.path.join(root, "ours-tiny.json")
        with open(artifact_path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True)
        print(f"artefact embeds weights: "
              f"{artifact['weights']['weights_sha256'][:12]}…\n")

        # 2. Decode completions from the artefact (KV-cache sampler;
        #    same blob the daemon's infer jobs produce).
        print("== repro infer ==")
        repro(["infer", artifact_path,
               "--prompt", "### instruct: Write Verilog for a flip "
                           "flop\n### input: \n### output:",
               "--max-tokens", "24", "--temperature", "0.8"])

        # 3. Score the sampled transformer on a benchmark suite — the
        #    eval cells key on the weights digest, not the name.
        print("\n== repro evaluate --artifact ==")
        repro(["evaluate", "--suite", "thakur",
               "--artifact", artifact_path, "--models", "ours-tiny",
               "--samples", "2", "--levels", "middle", "--k", "2"])


if __name__ == "__main__":
    main()
