"""Shared test helpers."""

import json
import os

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture
def golden():
    """``check(name, observed)``: assert ``observed`` equals the JSON
    pinned in ``tests/golden/<name>``.

    Regenerate a pin on purpose by deleting the file and rerunning the
    test with ``REPRO_REGEN_GOLDEN=1``; a missing file without that
    variable fails instead of passing vacuously.
    """
    def check(name: str, observed: dict) -> None:
        path = os.path.join(GOLDEN_DIR, name)
        if os.environ.get("REPRO_REGEN_GOLDEN") \
                and not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(observed, handle, indent=1, sort_keys=True)
                handle.write("\n")
        assert os.path.exists(path), (
            f"tests/golden/{name} is missing; regenerate it with "
            f"REPRO_REGEN_GOLDEN=1")
        with open(path, encoding="utf-8") as handle:
            pinned = json.load(handle)
        assert observed == pinned, (
            f"output drifted from tests/golden/{name}; if the change is "
            f"intentional, delete the file and rerun with "
            f"REPRO_REGEN_GOLDEN=1")
    return check
