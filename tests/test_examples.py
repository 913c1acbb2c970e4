"""The shipped examples keep up with the library they demonstrate.

Every ``from repro... import name`` in ``examples/`` must resolve, so a
renamed or deleted public name cannot strand an example unnoticed; the
inference quickstart also runs end to end (about a second).
"""

import ast
import importlib
import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


def _repro_imports(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.py")),
                         ids=lambda path: path.stem)
def test_example_imports_resolve(path):
    imports = list(_repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), \
            f"{path.name}: {module} has no '{name}'"


def test_infer_quickstart_runs(capsys):
    runpy.run_path(str(EXAMPLES / "infer_quickstart.py"))["main"]()
    out = capsys.readouterr().out
    assert "artefact embeds weights:" in out
    assert "-- decoded 1 completion(s) from weights" in out
    assert "pass@1" in out
