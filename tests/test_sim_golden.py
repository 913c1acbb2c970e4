"""Golden-trace regression suite: the simulator vs checked-in traces.

Every design under ``tests/golden/`` has an expected ``$display``
transcript (``.out``) and — for the smaller designs — an expected VCD
dump (``.vcd``).  The simulator must reproduce them byte-for-byte, so a
scheduler change that silently reorders events (or shifts a delta
cycle) fails here.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.sim import run_simulation

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

DESIGNS = sorted(
    os.path.splitext(os.path.basename(p))[0]
    for p in glob.glob(os.path.join(GOLDEN_DIR, "*.v")))


def golden_path(name: str, suffix: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}{suffix}")


def golden_source(name: str) -> str:
    with open(golden_path(name, ".v"), encoding="utf-8") as fh:
        return fh.read()


def expected_out(name: str) -> str:
    with open(golden_path(name, ".out"), encoding="utf-8") as fh:
        return fh.read()


def render_out(result) -> str:
    return "\n".join(result.display) + \
        f"\n-- finished={result.finished} time={result.time}\n"


def test_golden_inventory():
    """The suite stays at the contracted size with full .out coverage."""
    assert len(DESIGNS) >= 10
    for name in DESIGNS:
        assert os.path.exists(golden_path(name, ".out")), name


@pytest.mark.parametrize("name", DESIGNS)
def test_golden_interp(name):
    result = run_simulation(golden_source(name), trace=True)
    assert result.ok, result.error
    assert render_out(result) == expected_out(name)
    vcd_file = golden_path(name, ".vcd")
    if os.path.exists(vcd_file):
        with open(vcd_file, encoding="utf-8") as fh:
            assert result.vcd == fh.read()
