"""LoRA adapters (Hu et al., ICLR 2022) for the numpy transformer.

The paper finetunes Llama-2 with "LoraNet"; here the same mechanism is
applied to :class:`repro.llm.tiny_transformer.TinyTransformerLM`: freeze
the base weights and train only rank-``r`` factors ``B @ A`` added to the
attention q/v projections.
"""

from __future__ import annotations

import numpy as np

from .tiny_transformer import Linear, Param, TinyTransformerLM


class LoRAAdapter:
    """Low-rank delta ``y += (alpha / r) * x A^T B^T`` for one Linear."""

    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int,
                 rank: int = 4, alpha: float = 8.0):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        self.scaling = alpha / rank
        # A is random, B starts at zero → adapter starts as identity.
        self.A = Param(rng.normal(0, 1.0 / np.sqrt(d_in), (rank, d_in)))
        self.B = Param(np.zeros((d_out, rank)))

    def backward(self, grad_y: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Gradient of the delta (applied by ``Linear.apply``) at the
        input ``x`` its :class:`Linear` cached."""
        flat_x = x.reshape(-1, x.shape[-1])
        flat_g = grad_y.reshape(-1, grad_y.shape[-1]) * self.scaling
        xa = flat_x @ self.A.value.T                      # (N, r)
        if self.B.trainable:
            self.B.grad += flat_g.T @ xa
        if self.A.trainable:
            self.A.grad += (flat_g @ self.B.value).T @ flat_x
        return ((grad_y * self.scaling) @ self.B.value) @ self.A.value

    def params(self) -> list[Param]:
        return [self.A, self.B]

    def merged_delta(self) -> np.ndarray:
        """The dense weight delta this adapter represents."""
        return self.scaling * (self.B.value @ self.A.value)


def attach_lora(model: TinyTransformerLM, rank: int = 4,
                alpha: float = 8.0, seed: int = 0,
                freeze_base: bool = True) -> list[LoRAAdapter]:
    """Attach LoRA adapters to the model's attention q/v projections.

    Returns the adapters; with ``freeze_base`` the base network is frozen
    so only adapter factors receive gradient updates (the paper's setup).
    """
    if freeze_base:
        model.freeze_base()
    rng = np.random.default_rng(seed)
    adapters = []
    for linear in model.attention_linears():
        d_out, d_in = linear.weight.value.shape
        adapter = LoRAAdapter(rng, d_in, d_out, rank=rank, alpha=alpha)
        linear.lora = adapter
        adapters.append(adapter)
    return adapters


def merge_lora(model: TinyTransformerLM) -> None:
    """Fold adapters into the base weights and remove them."""
    for linear in model.attention_linears():
        if linear.lora is not None:
            linear.weight.value += linear.lora.merged_delta()
            linear.lora = None


def detach_lora(model: TinyTransformerLM) -> None:
    """Remove adapters without merging (back to the pre-trained base)."""
    for linear in model.attention_linears():
        linear.lora = None


def count_lora_params(adapters: list[LoRAAdapter]) -> int:
    return sum(a.A.value.size + a.B.value.size for a in adapters)
