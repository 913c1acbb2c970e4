"""Shared benchmark configuration.

Every benchmark runs its experiment once per round (the sweeps are the
workload, not micro-ops) and attaches the reproduced table plus paper
targets to ``benchmark.extra_info`` so `--benchmark-verbose` shows the
side-by-side.  Rows written to ``BENCH_*.json`` carry the
:func:`env_stamp` fields, so a number read later says what host made it.
"""

import os

import pytest


@pytest.fixture
def once(benchmark):
    """Run the target exactly once and return its result."""
    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)
    return runner


@pytest.fixture
def env_stamp():
    """``cpus`` available to this process (affinity-aware) and the
    ``OPENBLAS_NUM_THREADS`` budget (``None`` when unset)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return {"cpus": cpus,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
