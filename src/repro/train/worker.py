"""The trainer's micro-batch gradient kernel and model-state helpers.

:class:`FlatGrads` rebinds every parameter's gradient to a view into
one flat buffer, so a micro-batch is zero-the-buffer → backward and its
whole gradient reads back as one contiguous vector.
:class:`~repro.train.service.TrainerService` re-weights each
micro-batch's gradient by its valid-token count and reduces them in
canonical micro-batch index order — float addition is not associative,
so that fixed order is part of what keeps loss curves and final weights
bit-identical across checkpoint cadences and resumes.
"""

from __future__ import annotations

import numpy as np

from ..llm.tiny_transformer import TinyTransformerLM


def model_state(model: TinyTransformerLM) -> list[np.ndarray]:
    """Copies of every parameter tensor, in canonical params() order."""
    return [param.value.copy() for param in model.params()]


def set_model_state(model: TinyTransformerLM,
                    arrays: list[np.ndarray]) -> None:
    """Load a :func:`model_state` snapshot (by copy) into ``model``."""
    params = model.params()
    if len(params) != len(arrays):
        raise ValueError(f"state has {len(arrays)} tensors, model has "
                         f"{len(params)}")
    for param, array in zip(params, arrays):
        if param.value.shape != array.shape:
            raise ValueError(f"shape mismatch {array.shape} vs "
                             f"{param.value.shape}")
        param.value[...] = array


class FlatGrads:
    """Rebind every param's ``.grad`` to slices of one flat buffer.

    Zeroing becomes a single vectorised store and a whole gradient
    reads back as one contiguous vector — replacing the per-param
    zero/backward/copy loop.  The views alias exactly the memory the
    backward pass accumulates into, so the arithmetic (and therefore
    every loss/weight byte) is unchanged.
    """

    def __init__(self, model: TinyTransformerLM):
        params = model.params()
        self.size = int(sum(param.value.size for param in params))
        self.flat = np.zeros(self.size)
        offset = 0
        for param in params:
            end = offset + param.value.size
            param.grad = self.flat[offset:end] \
                .reshape(param.value.shape)
            offset = end

    def zero(self) -> None:
        self.flat[...] = 0.0


def flat_microbatch_grads(model: TinyTransformerLM, grads: FlatGrads,
                          ids: np.ndarray, targets: np.ndarray
                          ) -> tuple[float, int]:
    """(mean loss, valid-token count); gradients land in ``grads.flat``.

    Gradients are the model's own per-micro-batch normalisation (mean
    over the micro-batch's valid tokens); the caller re-weights them by
    ``count`` when reducing, so the combined step gradient equals a
    token-weighted mean over the whole macro-batch.
    """
    grads.zero()
    loss = model.loss_and_backward(ids, targets)
    return loss, int((targets >= 0).sum())
