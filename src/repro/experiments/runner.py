"""Experiment dispatch: run selected tables/figures, lazily.

``EXPERIMENTS`` maps every experiment id to a thunk; ``run_selected``
computes *only* the requested ones (``repro tables --only table5`` no
longer sweeps all nine).  The benchmark-table thunks accept the shared
evaluation engine so ``--jobs``/``--cache-dir`` reach Tables 3–5.
The command line is ``repro tables`` (and ``repro submit experiment``
for the daemon); this module has no entry point of its own.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from ..eval import render_table1
from .fig2 import run_fig2
from .fig3 import run_fig3
from .fig5 import run_fig5
from .fig7 import run_fig7
from .table2 import run_table2
from .table3 import run_table3
from .table4 import run_table4
from .table5 import run_table5

#: id → thunk(quick, engine) rendering one experiment.  The figure and
#: Table-1/2 thunks ignore ``engine``; Tables 3–5 evaluate through it.
EXPERIMENTS: dict[str, Callable[..., str]] = {
    "table1": lambda quick=True, engine=None: render_table1(),
    "table2": lambda quick=True, engine=None:
        run_table2(quick=quick).rendered,
    "table3": lambda quick=True, engine=None:
        run_table3(quick=quick, engine=engine).rendered,
    "table4": lambda quick=True, engine=None:
        run_table4(quick=quick, engine=engine).rendered,
    "table5": lambda quick=True, engine=None:
        run_table5(quick=quick, engine=engine).rendered,
    "fig2": lambda quick=True, engine=None: run_fig2(quick=quick).rendered,
    "fig3": lambda quick=True, engine=None: run_fig3(quick=quick).rendered,
    "fig5": lambda quick=True, engine=None: run_fig5(quick=quick).rendered,
    "fig7": lambda quick=True, engine=None: run_fig7(quick=quick).rendered,
}


def run_selected(names: Iterable[str] | None = None, quick: bool = True,
                 engine=None) -> dict[str, str]:
    """Render the requested experiments (all of them when ``names`` is
    None), computing nothing else."""
    wanted = list(EXPERIMENTS) if names is None else list(names)
    unknown = [name for name in wanted if name not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment(s) {', '.join(unknown)}; "
                       f"available: {', '.join(EXPERIMENTS)}")
    return {name: EXPERIMENTS[name](quick=quick, engine=engine)
            for name in wanted}


def run_all(quick: bool = True, engine=None) -> dict[str, str]:
    """Every table and figure, rendered; quick mode trims sweep sizes."""
    return run_selected(None, quick=quick, engine=engine)
