"""Unit tests for the generic WorkPool layer (repro.scale.runner).

Covers serial in-process maps, and completion callbacks and error
ordering under worker faults.
"""

import pytest

from repro.scale.runner import WorkPool


def _double(value):
    return value * 2


def _maybe_fail(value):
    if value < 0:
        raise ValueError(f"bad item {value}")
    return value * 10


def test_serial_map_runs_inline_with_on_done():
    pool = WorkPool(jobs=1)
    seen = []
    out = pool.map(_double, {"a": 1, "b": 2},
                   on_done=lambda key, result: seen.append((key, result)))
    assert out == {"a": 2, "b": 4}
    assert seen == [("a", 2), ("b", 4)]


def test_on_done_fires_for_successes_despite_sibling_fault():
    done = []
    pool = WorkPool(jobs=2)
    with pytest.raises(ValueError, match="bad item -1"):
        pool.map(_maybe_fail, {"ok1": 1, "boom": -1, "ok2": 2},
                 on_done=lambda key, result: done.append(key))
    assert sorted(done) == ["ok1", "ok2"]


def test_first_error_in_submission_order_wins():
    pool = WorkPool(jobs=2)
    for _ in range(5):                        # completion order varies
        with pytest.raises(ValueError, match="bad item -7"):
            pool.map(_maybe_fail, {"a": -7, "b": -9, "c": 3})
