"""User-defined job DAGs: spec format, validation, execution.

See :mod:`repro.flow.spec` for the spec format (nodes, ``after``
edges, ``foreach`` fan-out templates, ``@flow:`` references) and
:mod:`repro.flow.run` for the two execution paths (direct topo-serial
reference vs whole-graph service submission) — byte-identical results
either way.
"""

from .pipeline import pipeline_flow
from .run import (FlowError, FlowRun, run_flow, run_flow_direct,
                  submit_flow, wait_flow)
from .spec import (FLOW_REF_PREFIX, MAX_FLOW_NODES, FlowNode,
                   expand_nodes, flow_name, resolve_refs, validate_flow)

__all__ = [
    "FLOW_REF_PREFIX", "MAX_FLOW_NODES", "FlowError", "FlowNode",
    "FlowRun", "expand_nodes", "flow_name", "pipeline_flow",
    "resolve_refs", "run_flow", "run_flow_direct", "submit_flow",
    "validate_flow", "wait_flow",
]
