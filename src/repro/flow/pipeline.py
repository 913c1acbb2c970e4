"""The augment → train → evaluate pipeline as a built-in flow spec.

``repro pipeline`` submits this data as one flow.  The result blobs,
and so the golden e2e digest pin in
``tests/golden/pipeline_report.json``, depend only on these node
specs.  The evaluate node points at the train node's artefact with an
``@flow:train`` reference, which the submit path resolves to the real
train job id.
"""

from __future__ import annotations


def pipeline_flow(*, paths: list[str], seed: int = 0,
                  completion_only: bool = False,
                  train_knobs: dict | None = None,
                  register_as: str = "pipeline-model",
                  suite: str = "thakur",
                  models: list[str] | None = None,
                  samples: int | None = None, k: int = 5,
                  levels: list[str] | None = None,
                  priority: int = 0) -> dict:
    """Build the 3-node pipeline DAG spec.

    ``models`` lists baseline columns; the freshly trained
    ``register_as`` model is appended when absent, never dropped —
    scoring it is the point of the pipeline.
    """
    corpus_spec = {"paths": list(paths), "seed": seed,
                   "completion_only": completion_only}
    train_spec = dict(corpus_spec)
    train_spec.update(train_knobs or {})
    train_spec["register_as"] = register_as
    eval_models = list(models) if models else [register_as]
    if register_as not in eval_models:
        eval_models = eval_models + [register_as]
    eval_spec = {"suite": suite, "models": eval_models,
                 "samples": samples, "k": k, "levels": levels, "seed": 0,
                 "trained": {"name": register_as, "job": "@flow:train"}}
    return {"name": "pipeline", "priority": priority, "nodes": [
        {"name": "augment", "kind": "augment", "spec": corpus_spec},
        {"name": "train", "kind": "train", "spec": train_spec,
         "after": ["augment"]},
        {"name": "evaluate", "kind": "evaluate", "spec": eval_spec},
    ]}
