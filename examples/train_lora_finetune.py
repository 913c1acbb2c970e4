"""Finetune the numpy transformer with LoRA on augmented data.

Mirrors the paper's training setup at laptop scale: build an augmented
dataset with the pipeline, "pre-train" the tiny transformer on completion
data with the repository's trainer, then LoRA-finetune on the aligned
NL→Verilog pairs (only low-rank adapter factors receive gradients, like
the paper's LoraNet on Llama-2):

    python examples/train_lora_finetune.py
"""

from repro.core import AugmentationPipeline, PipelineConfig
from repro.corpus import generate_corpus
from repro.llm import Adam, attach_lora, count_lora_params, split_dataset
from repro.train import (TrainConfig, dataset_digest, encode_sequences,
                         epoch_plan, evaluate_transformer,
                         model_from_bundle, train_run)

SEQ_LEN = 64


def main() -> None:
    corpus = generate_corpus(8, seed=0)
    completion = AugmentationPipeline(PipelineConfig.completion_only()) \
        .run(corpus).dataset.trimmed(120)
    aligned = AugmentationPipeline(PipelineConfig.nl_only()) \
        .run(corpus).dataset.trimmed(200)
    print(f"completion records: {len(completion)}, "
          f"aligned records: {len(aligned)}")

    # Stage 1: base training on completion data (the paper's stage 1).
    report = train_run(completion, TrainConfig(
        epochs=2, batch_size=8, micro_batch=8, seq_len=SEQ_LEN,
        vocab_size=768, d_model=32, n_heads=2, n_layers=2, d_ff=64,
        checkpoint_every=0, val_fraction=0.15))
    model, tokenizer = model_from_bundle(report.weights_bundle)
    print(f"model parameters: {model.num_parameters():,}")
    print(f"stage 1 (completion): val loss "
          f"{report.val_losses[0]:.3f} -> {report.val_losses[-1]:.3f}")

    # Stage 2: LoRA finetuning on aligned data (base weights frozen).
    adapters = attach_lora(model, rank=4, alpha=8, seed=1)
    print(f"LoRA trainable parameters: "
          f"{count_lora_params(adapters):,} "
          f"({count_lora_params(adapters) / model.num_parameters():.2%} "
          f"of base)")
    # The stage-1 tokenizer carries over; words it never saw encode as
    # characters.
    train, val = split_dataset(aligned, val_fraction=0.2)
    train_ids = encode_sequences(train, tokenizer)
    val_ids = encode_sequences(val, tokenizer)
    pad, digest = tokenizer.pad_id, dataset_digest(train)
    optimizer = Adam(model.params(), lr=5e-3)
    val_losses = [evaluate_transformer(model, val_ids, pad, SEQ_LEN)]
    for epoch in range(3):
        for micros in epoch_plan(train_ids, digest, 0, epoch, 8, 8,
                                 SEQ_LEN, pad):
            for ids, targets in micros:     # one micro-batch per step
                optimizer.zero_grad()
                model.loss_and_backward(ids, targets)
                optimizer.step()
        val_losses.append(evaluate_transformer(model, val_ids, pad,
                                               SEQ_LEN))
    print(f"stage 2 (LoRA on aligned): val loss "
          f"{val_losses[0]:.3f} -> {val_losses[-1]:.3f}")
    improved = val_losses[-1] < val_losses[0]
    print("LoRA finetuning reduced aligned-task loss:",
          "yes" if improved else "no")


if __name__ == "__main__":
    main()
