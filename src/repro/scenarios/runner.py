"""Execute registered scenarios and emit one machine-readable report.

Flow-backed scenarios run either *direct* (topo-serial in process, no
daemon — the determinism reference) or *daemon* (a private in-process
daemon + gateway per scenario, exercising the whole journaled
submit/schedule/batch path).  Operational scenarios (``ops``) always
drive their own topology — subprocess daemons to SIGKILL, gateway
front ends to stress — and ignore ``via``.

The report (:class:`ScenarioReport`) is what CI gates: per scenario
the scores, the declared ranges, every violation, the wall time, and
a fingerprint over the pinned (deterministic) metrics that golden
tests compare against ``tests/golden/scenario_reports.json``.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field

from .registry import Scenario, select_scenarios

#: Tiny deterministic Verilog corpus shared by scenario specs — same
#: designs the pipeline e2e golden pins.
MODULE_DFF = """module dff(input clk, input d, output reg q);
  always @(posedge clk) q <= d;
endmodule
"""

MODULE_MUX2 = """module mux2(input a, input b, input sel, output y);
  assign y = sel ? b : a;
endmodule
"""


@dataclass
class ScenarioContext:
    """Per-scenario scratch space + execution knobs.

    ``root`` is private to the scenario run; ``corpus()`` materialises
    the standard tiny corpus inside it, ``workdir()`` hands out named
    scratch dirs.  ``via``/``jobs`` steer flow-backed scenarios; ops
    scenarios are free to ignore them.
    """

    root: str
    via: str = "direct"
    jobs: int = 1

    def workdir(self, name: str = "work") -> str:
        path = os.path.join(self.root, name)
        os.makedirs(path, exist_ok=True)
        return path

    def corpus(self) -> str:
        corpus = os.path.join(self.root, "corpus")
        os.makedirs(corpus, exist_ok=True)
        for name, text in (("dff.v", MODULE_DFF),
                           ("mux2.v", MODULE_MUX2)):
            path = os.path.join(corpus, name)
            if not os.path.exists(path):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
        return corpus


def run_flow_daemon(flow: dict, store_dir: str, *,
                    workers: int = 2, engine_jobs: int = 1,
                    timeout: float = 600.0) -> dict[str, dict]:
    """Run one flow through a private in-process daemon + gateway."""
    from ..flow import run_flow
    from ..serve import Daemon, GatewayServer, ServeClient

    daemon = Daemon(store_dir, workers=workers, engine_jobs=engine_jobs)
    daemon.start()
    server = GatewayServer(daemon).start()
    try:
        return run_flow(ServeClient(server.url), flow, timeout=timeout)
    finally:
        server.stop()
        daemon.stop()


@dataclass
class ScenarioResult:
    """One scenario's outcome inside a report."""

    name: str
    family: str
    via: str
    scores: dict
    expected: dict[str, tuple[float, float]]
    violations: list[dict]
    fingerprint: str
    duration_s: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.violations

    def to_dict(self) -> dict:
        return {"name": self.name, "family": self.family,
                "via": self.via, "ok": self.ok, "scores": self.scores,
                "expected": {metric: list(bounds) for metric, bounds
                             in self.expected.items()},
                "violations": self.violations,
                "fingerprint": self.fingerprint,
                "duration_s": round(self.duration_s, 3),
                "error": self.error}


@dataclass
class ScenarioReport:
    """Every result of one ``repro scenarios run`` invocation."""

    via: str
    results: list[ScenarioResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def to_dict(self) -> dict:
        return {"version": 1, "via": self.via, "ok": self.ok,
                "scenarios": [result.to_dict()
                              for result in self.results],
                "violations": sum(len(result.violations)
                                  for result in self.results)}

    def render(self) -> str:
        lines = [f"{'scenario':24} {'family':6} {'ok':3} scores"]
        for result in self.results:
            shown = ", ".join(
                f"{metric}={value:.4g}" if isinstance(value,
                                                     (int, float))
                and not isinstance(value, bool)
                else f"{metric}={value}"
                for metric, value in result.scores.items())
            status = "ok" if result.ok else "FAIL"
            lines.append(f"{result.name:24} {result.family:6} "
                         f"{status:4} {shown}")
            for violation in result.violations:
                lines.append(
                    f"  !! {violation['metric']}="
                    f"{violation['value']} outside "
                    f"[{violation['low']}, {violation['high']}] "
                    f"({violation['reason']})")
            if result.error:
                lines.append(f"  !! error: {result.error}")
        return "\n".join(lines)


def run_scenario(scenario: Scenario, root: str, *, via: str = "direct",
                 jobs: int = 1) -> ScenarioResult:
    """Run one scenario in its own scratch dir under ``root``."""
    from ..flow import run_flow_direct

    ctx = ScenarioContext(root=os.path.join(root, scenario.name),
                          via=via, jobs=jobs)
    os.makedirs(ctx.root, exist_ok=True)
    started = time.monotonic()
    error = None
    scores: dict = {}
    try:
        if scenario.ops is not None:
            scores = scenario.ops(ctx)
        else:
            flow = scenario.build(ctx)
            if via == "daemon":
                results = run_flow_daemon(flow, ctx.workdir("store"),
                                          engine_jobs=jobs)
            else:
                results = run_flow_direct(flow, ctx.workdir("work"),
                                          engine_jobs=jobs)
            scores = scenario.extract(results, ctx)
    except Exception as exc:        # noqa: BLE001 — reported, not raised
        error = f"{type(exc).__name__}: {exc}"
    duration = time.monotonic() - started
    violations = scenario.violations(scores) if error is None else []
    return ScenarioResult(
        name=scenario.name, family=scenario.family, via=via,
        scores=scores, expected=dict(scenario.expected),
        violations=violations,
        fingerprint=scenario.fingerprint(scores),
        duration_s=duration, error=error)


def run_scenarios(names: list[str] | None = None,
                  tag: str | None = None, *, root: str | None = None,
                  via: str = "direct", jobs: int = 1) -> ScenarioReport:
    """Run a selection (see :func:`select_scenarios`) and report."""
    from . import builtin  # noqa: F401 — ensure registrations
    scenarios = select_scenarios(names, tag)
    owned = root is None
    if owned:
        root = tempfile.mkdtemp(prefix="repro-scenarios-")
    report = ScenarioReport(via=via)
    for scenario in scenarios:
        report.results.append(
            run_scenario(scenario, root, via=via, jobs=jobs))
    return report
