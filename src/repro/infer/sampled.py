"""The eval-facing adapter that actually samples the trained weights.

Where :class:`repro.llm.BehavioralModel` *simulates* a model from a
calibrated profile, :class:`SampledModel` decodes real candidates from
a trained :class:`TinyTransformerLM` weights bundle: prompts are laid
out by :func:`repro.llm.prompt_text`, the finetuning record layout with
the output left open, encoded with the run's own tokenizer, and
completed with batched KV-cache sampling
(:func:`repro.infer.sample_tokens`) under content-derived seeds — the
same candidate list for the same weights, prompt and knobs, on every
host and worker count, which is what keeps eval cells cacheable.

Identity for caching is the **weights digest**, not the registered
name: :attr:`eval_fingerprint` feeds ``repro.eval.profile_digest`` so
two artefacts registered under the same spec name can never share eval
cells (the wart ISSUE 6 retires).

The EDA-script suite (Table 4) stays behavioural — the tiny LM is
trained on Verilog-aligned text, not SiliconCompiler Python, so script
emission still comes from the artefact's calibrated profile.
"""

from __future__ import annotations

from ..llm.behavioral import BehavioralModel, ModelProfile
from ..llm.trainer import prompt_text
from ..train.data import stable_seed
from .decode import sample_tokens
from .host import shared_host

__all__ = ["SampledModel", "DEFAULT_MAX_NEW_TOKENS",
           "DEFAULT_TEMPERATURE"]

DEFAULT_MAX_NEW_TOKENS = 48
DEFAULT_TEMPERATURE = 0.8


class SampledModel:
    """Generate candidates by decoding from trained weights.

    Picklable (the bundle is a plain JSON-safe dict; live weights are
    always resolved through the per-process :func:`shared_host`), so
    eval tasks carrying it can fan out over process pools.
    """

    def __init__(self, profile: ModelProfile, weights: dict,
                 seed: int = 0,
                 max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS,
                 temperature: float = DEFAULT_TEMPERATURE):
        self.profile = profile
        self.seed = seed
        self.weights = weights
        self.max_new_tokens = max_new_tokens
        self.temperature = temperature

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def weights_sha256(self) -> str:
        return self.weights.get("weights_sha256", "")

    @property
    def eval_fingerprint(self) -> str:
        """What eval cells key on: weights identity + decode knobs."""
        return (f"{self.weights_sha256}:{self.max_new_tokens}"
                f":{self.temperature}")

    # -- decoding ---------------------------------------------------------

    def _behavioral(self) -> BehavioralModel:
        return BehavioralModel(self.profile, seed=self.seed)

    def complete(self, instructs: list[str], salts: list[object],
                 inputs: list[str] | None = None) -> list[str]:
        """One decoded completion per instruct (one shared batch).

        ``salts`` derive the per-row sampling seed together with the
        weights digest, so distinct samples of one prompt diverge while
        every rerun reproduces them exactly.
        """
        loaded = shared_host().load_bundle(self.weights)
        tokenizer = loaded.tokenizer
        prompts, seeds = [], []
        for index, instruct in enumerate(instructs):
            inp = inputs[index] if inputs else ""
            text = prompt_text(instruct, inp)
            prompts.append([tokenizer.bos_id]
                           + tokenizer.encode(text))
            seeds.append(stable_seed("infer", self.weights_sha256,
                                     salts[index], self.seed))
        outs = sample_tokens(loaded.model, prompts,
                             max_tokens=self.max_new_tokens,
                             temperature=self.temperature, seeds=seeds,
                             stop_token=tokenizer.eos_id)
        return [tokenizer.decode(out[len(prompts[i]):])
                for i, out in enumerate(outs)]

    # -- the eval-suite surface (mirrors BehavioralModel) -----------------

    def solves(self, tier: str, difficulty: float,
               level: str = "middle") -> bool:
        return self.profile.solve_rate.get(tier, 0.0) > difficulty

    def generate_verilog(self, reference: str, tier: str,
                         difficulty: float, level: str = "middle",
                         n_samples: int = 5, problem_name: str = "",
                         prompt: str = "") -> list[str]:
        """``n_samples`` sampled implementations for one problem.

        ``prompt`` is the problem's natural-language description at the
        requested detail level (passed by ``evaluate_cell``); the
        reference solution is *not* shown to the model.
        """
        instruct = prompt or f"Write Verilog for {problem_name}"
        return self.complete(
            [instruct] * n_samples,
            [("gen", problem_name, level, k) for k in range(n_samples)])

    def repair_verilog(self, broken: str, feedback: str, reference: str,
                       difficulty: float, n_samples: int = 5,
                       problem_name: str = "") -> list[str]:
        """Sampled repair attempts: broken source + tool feedback in."""
        instruct = "Fix the following Verilog so it compiles and " \
            "passes its testbench.\n" + feedback
        return self.complete(
            [instruct] * n_samples,
            [("repair", problem_name, k) for k in range(n_samples)],
            inputs=[broken] * n_samples)

    def generate_script(self, task_name: str, reference_script: str,
                        attempt: int) -> str:
        return self._behavioral().generate_script(
            task_name, reference_script, attempt)
