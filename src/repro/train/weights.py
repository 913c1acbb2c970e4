"""Portable weight bundles: the checkpoint → inference handoff.

A *weights bundle* is the JSON-safe, self-contained form of one trained
model: the ``TransformerConfig`` fields, the tokenizer's inverse vocab,
every parameter in canonical ``params()`` order (losslessly base64
encoded), an optional LoRA section (rank/alpha/seed, so adapters can be
re-attached before the saved A/B factors are restored), and the sha256
:func:`state_digest` of the saved arrays — the identity the inference
:class:`repro.infer.ModelHost` keys its LRU on and verifies at load.

Bundles travel inside train artifacts (``repro train --out`` /
the serve ``train`` result blob) so evaluation and inference are pure
functions of job specs — no filesystem coupling — and can also be
pulled straight out of a :class:`CheckpointStore` directory via
:func:`bundle_from_checkpoint` for local serving.
"""

from __future__ import annotations

import base64
import json
import os

import numpy as np

from ..llm.lora import attach_lora
from ..llm.tiny_transformer import TinyTransformerLM, TransformerConfig
from ..llm.tokenizer import Tokenizer
from .checkpoint import CheckpointStore, state_digest

__all__ = ["model_weights_bundle", "model_from_bundle",
           "bundle_from_checkpoint", "bundle_from_payload",
           "encode_array", "decode_array"]


def encode_array(array: np.ndarray) -> dict:
    """Lossless JSON form of one ndarray (raw bytes, base64)."""
    contiguous = np.ascontiguousarray(array)
    return {"dtype": str(contiguous.dtype),
            "shape": list(contiguous.shape),
            "data": base64.b64encode(contiguous.tobytes()).decode("ascii")}


def decode_array(blob: dict) -> np.ndarray:
    """Inverse of :func:`encode_array` (bit-exact round trip)."""
    raw = base64.b64decode(blob["data"])
    return np.frombuffer(raw, dtype=np.dtype(blob["dtype"])) \
        .reshape(blob["shape"]).copy()


def model_weights_bundle(model: TinyTransformerLM, tokenizer: Tokenizer,
                         lora: dict | None = None) -> dict:
    """Snapshot ``model`` (+ tokenizer) as a portable bundle.

    ``lora`` must be ``{"rank", "alpha", "seed"}`` when adapters are
    attached, so :func:`model_from_bundle` can rebuild the same
    parameter layout before restoring the saved factors.
    """
    arrays = [p.value for p in model.params()]
    bundle = {
        "model": {"vocab_size": model.config.vocab_size,
                  "d_model": model.config.d_model,
                  "n_heads": model.config.n_heads,
                  "n_layers": model.config.n_layers,
                  "d_ff": model.config.d_ff,
                  "max_len": model.config.max_len,
                  "seed": model.config.seed},
        "tokenizer": list(tokenizer.inverse),
        "params": [encode_array(a) for a in arrays],
        "weights_sha256": state_digest(arrays),
    }
    if lora is not None:
        bundle["lora"] = {"rank": int(lora["rank"]),
                          "alpha": float(lora["alpha"]),
                          "seed": int(lora.get("seed", 0))}
    return bundle


def model_from_bundle(bundle: dict, merge: bool = True
                      ) -> tuple[TinyTransformerLM, Tokenizer]:
    """Rebuild the live model + tokenizer from a bundle.

    Verifies the restored arrays against ``weights_sha256`` (a corrupt
    or hand-edited bundle fails loudly, mirroring ``CheckpointStore``'s
    digest discipline).  With ``merge`` (the default, what inference
    wants) any LoRA adapters are folded into the base weights after
    restore, so the served model is a plain dense transformer.
    """
    for field in ("model", "tokenizer", "params", "weights_sha256"):
        if field not in bundle:
            raise ValueError(f"weights bundle missing {field!r} "
                             "(checkpoint predates weight bundles?)")
    model = TinyTransformerLM(TransformerConfig(**bundle["model"]))
    lora = bundle.get("lora")
    if lora is not None:
        attach_lora(model, rank=lora["rank"], alpha=lora["alpha"],
                    seed=lora.get("seed", 0), freeze_base=True)
    params = model.params()
    if len(params) != len(bundle["params"]):
        raise ValueError(
            f"weights bundle has {len(bundle['params'])} arrays, "
            f"model expects {len(params)}")
    arrays = [decode_array(blob) for blob in bundle["params"]]
    digest = state_digest(arrays)
    if digest != bundle["weights_sha256"]:
        raise ValueError("weights bundle digest mismatch: "
                         f"{digest[:12]} != "
                         f"{bundle['weights_sha256'][:12]}")
    for param, array in zip(params, arrays):
        if param.value.shape != array.shape:
            raise ValueError(f"shape mismatch {param.value.shape} "
                             f"vs {array.shape}")
        param.value[...] = array
    if lora is not None and merge:
        from ..llm.lora import merge_lora
        merge_lora(model)
    inverse = list(bundle["tokenizer"])
    tokenizer = Tokenizer(vocab={piece: index
                                 for index, piece in enumerate(inverse)},
                          inverse=inverse)
    return model, tokenizer


def bundle_from_payload(payload: dict) -> dict:
    """Bundle form of one checkpoint payload (see ``service._payload``),
    whose arrays are ndarrays as :meth:`CheckpointStore.latest` returns
    them."""
    for field in ("model_config", "tokenizer", "params"):
        if field not in payload:
            raise ValueError(
                f"checkpoint payload missing {field!r} — written by a "
                "pre-inference repro.train? retrain to serve it")
    arrays = payload["params"]
    return {"model": dict(payload["model_config"]),
            "tokenizer": list(payload["tokenizer"]),
            "params": [encode_array(a) for a in arrays],
            "weights_sha256": state_digest(arrays),
            **({"lora": payload["lora"]} if "lora" in payload else {})}


def bundle_from_checkpoint(root: str,
                           fingerprint: str | None = None) -> dict:
    """Load the newest verified checkpoint under ``root`` as a bundle.

    With ``fingerprint=None`` the store's own manifest fingerprint is
    trusted (read-only open of an existing run directory).
    """
    if fingerprint is None:
        manifest_path = os.path.join(root, "manifest.json")
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                fingerprint = json.load(handle).get("fingerprint", "")
        except (OSError, ValueError) as exc:
            raise ValueError(f"no readable manifest under {root}") \
                from exc
    payload = CheckpointStore(root, fingerprint).latest()
    if payload is None:
        raise ValueError(f"no verified checkpoint under {root}")
    return bundle_from_payload(payload)
