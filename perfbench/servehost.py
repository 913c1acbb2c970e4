"""Run ``repro serve`` in this process and report on it when it stops.

``servemix.py`` starts the gateway through this host so that the
process doing the serving can be traced from the outside and can report
its own peak RSS::

    python3 perfbench/servehost.py <report.json> <trace 0|1> -- <repro serve args>

``SIGUSR1`` forgets the spans recorded so far (sent once set-up is
over); ``SIGINT`` stops the server.  On exit the host writes
``{"peak_rss_mb", "layers"?}`` to ``report.json`` and, when traced, the
raw spans next to it.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import signal
import sys

from passes import ENTRY_MODULES


def main() -> int:
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    for name in ENTRY_MODULES:
        importlib.import_module(name)
    from repro.cli import main as repro_main
    layers = None
    if trace:
        from layers import Layers
        layers = Layers().install()
        signal.signal(signal.SIGUSR1, lambda *_: layers.reset())
    code = repro_main(argv)
    report = {"peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if layers is not None:
        report["layers"] = layers.metrics()
        layers.tracer.dump(os.path.join(os.path.dirname(report_path),
                                        "spans.jsonl"))
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
