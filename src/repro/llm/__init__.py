"""Language-model substrate.

Two layers (see DESIGN.md substitution table):

* **real models** — :class:`Tokenizer`, :class:`NGramModel` and
  :class:`TinyTransformerLM` (+ LoRA) trained by actual counting /
  gradient descent on augmented datasets.  The n-gram model powers the
  Fig. 3 scaling law and the Fig. 7 ablation; the transformer is what
  :mod:`repro.train` finetunes and :mod:`repro.infer` decodes.
* **behavioural models** — calibrated per-model generation policies used
  to regenerate the pass-rate tables, honestly evaluated by the checker,
  simulator and EDA flow.
"""

from .behavioral import (LEVEL_BONUS, PROFILES, BehavioralModel,
                         ModelProfile, ScriptSkill, corrupt_functionally,
                         corrupt_syntax, derived_solve_rate)
from .lora import LoRAAdapter, attach_lora, count_lora_params, detach_lora, merge_lora
from .ngram import NGramModel
from .oracle import DescriptionOracle
from .registry import (TABLE3_MODEL_ORDER, TABLE4_MODEL_ORDER,
                       TABLE5_MODEL_ORDER, available_models, get_model,
                       get_profile, profile_from_dict, register_artifact,
                       register_profile, registered_models,
                       unregister_profile)
from .tiny_transformer import (Adam, TinyTransformerLM, TransformerConfig)
from .tokenizer import Tokenizer, pretokenize
from .trainer import (TrainResult, record_to_text, records_to_text,
                      scaling_curve, split_dataset, train_ngram)

__all__ = [
    "Tokenizer", "pretokenize", "NGramModel",
    "TinyTransformerLM", "TransformerConfig", "Adam",
    "LoRAAdapter", "attach_lora", "merge_lora", "detach_lora",
    "count_lora_params",
    "train_ngram", "scaling_curve", "split_dataset", "TrainResult",
    "record_to_text", "records_to_text",
    "DescriptionOracle",
    "BehavioralModel", "ModelProfile", "ScriptSkill", "PROFILES",
    "LEVEL_BONUS", "corrupt_functionally", "corrupt_syntax",
    "derived_solve_rate",
    "get_model", "get_profile", "available_models",
    "register_profile", "register_artifact", "unregister_profile",
    "registered_models", "profile_from_dict",
    "TABLE5_MODEL_ORDER", "TABLE3_MODEL_ORDER", "TABLE4_MODEL_ORDER",
]
