"""Unit tests of the outside-in span tracer."""

from __future__ import annotations

import json
import os
import sys
import threading
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from spantrace import Tracer  # noqa: E402


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


@pytest.fixture
def package():
    """A throwaway package whose submodule re-exports its function."""
    pkg = types.ModuleType("pbsynthetic")
    inner = types.ModuleType("pbsynthetic.inner")
    other = types.ModuleType("pbsynthetic.other")

    def child(n):
        return _spin(n)

    def parent(n):
        return inner.child(n) + other.alias(2 * n) + _spin(n)

    inner.child = child
    inner.parent = parent
    other.alias = child
    pkg.child = child
    modules = {"pbsynthetic": pkg, "pbsynthetic.inner": inner,
               "pbsynthetic.other": other}
    sys.modules.update(modules)
    yield pkg, inner, other
    for name in modules:
        sys.modules.pop(name, None)


def test_nested_self_times_sum_exactly_to_parent_span(package):
    pkg, inner, other = package
    tracer = Tracer()
    tracer.wrap_function(inner, "child", "layer.child")
    tracer.wrap_function(inner, "parent", "layer.parent")
    inner.parent(20000)
    parent = next(s for s in tracer.spans if s.name == "layer.parent")
    children = [s for s in tracer.spans if s.parent is parent]
    assert len(children) == 2
    assert parent.self_ns + sum(c.self_ns for c in children) \
        == parent.duration_ns
    assert all(c.self_ns == c.duration_ns for c in children)
    table = tracer.by_name()
    assert table["layer.child"]["calls"] == 2
    assert table["layer.parent"]["self_ns"] + table["layer.child"][
        "self_ns"] == table["layer.parent"]["total_ns"]


def test_every_binding_of_the_function_is_rebound(package):
    pkg, inner, other = package
    original = inner.child
    tracer = Tracer()
    assert tracer.wrap_function(inner, "child", "layer.child") == 3
    assert pkg.child is inner.child is other.alias
    assert pkg.child is not original
    pkg.child(10)
    other.alias(10)
    assert tracer.by_name()["layer.child"]["calls"] == 2


def test_same_name_reentry_folds_into_one_span(package):
    pkg, inner, other = package
    tracer = Tracer()
    tracer.wrap_function(inner, "child", "layer.entry")
    tracer.wrap_function(inner, "parent", "layer.entry")
    inner.parent(100)
    assert [s.name for s in tracer.spans] == ["layer.entry"]


def test_methods_hooks_and_reset():
    class Engine:
        def run(self, items):
            return [item * 2 for item in items]

    tracer = Tracer()

    def hook(counters, args, kwargs, result):
        counters["items"] += len(result)

    tracer.wrap_method(Engine, "run", "eval.run", hook)
    assert Engine().run([1, 2, 3]) == [2, 4, 6]
    assert tracer.counters["items"] == 3
    assert tracer.by_name()["eval.run"]["calls"] == 1
    tracer.reset()
    assert tracer.spans == [] and tracer.counters["items"] == 0


def test_threads_keep_separate_stacks(package):
    pkg, inner, other = package
    tracer = Tracer()
    tracer.wrap_function(inner, "child", "layer.child")
    tracer.wrap_function(inner, "parent", "layer.parent")
    threads = [threading.Thread(target=inner.parent, args=(5000,))
               for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    parents = [s for s in tracer.spans if s.name == "layer.parent"]
    assert len(parents) == 4
    for parent in parents:
        assert parent.parent is None
        children = [s for s in tracer.spans if s.parent is parent]
        assert len(children) == 2
        assert all(c.thread == parent.thread for c in children)
        assert parent.self_ns + sum(c.duration_ns for c in children) \
            == parent.duration_ns
    # Finished threads may hand their ident to later ones.
    idents = {p.thread for p in parents}
    assert sum(tracer.attributed_ns(t) for t in idents) == sum(
        p.duration_ns for p in parents)


def test_dump_writes_one_line_per_span(package, tmp_path):
    pkg, inner, other = package
    tracer = Tracer()
    tracer.wrap_function(inner, "child", "layer.child")
    tracer.wrap_function(inner, "parent", "layer.parent")
    inner.parent(10)
    path = tmp_path / "spans.jsonl"
    tracer.dump(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    rows = [json.loads(line) for line in lines]
    root = [i for i, row in enumerate(rows) if row[3] == -1]
    assert len(root) == 1 and rows[root[0]][0] == "layer.parent"
    assert all(row[3] == root[0] for i, row in enumerate(rows)
               if i != root[0])
