"""VCD (Value Change Dump) waveform output for the simulator.

``$dumpfile``/``$dumpvars`` in a testbench — or ``trace=True`` on
:func:`repro.sim.run_simulation` — turn on a :class:`Tracer` that records
every signal change; :meth:`Tracer.to_vcd` renders the standard VCD text
any waveform viewer (GTKWave etc.) opens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .elaborate import Design
from .values import Value

_IDCHARS = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _idcode(index: int) -> str:
    """Compact VCD identifier codes (base-59 over printable chars)."""
    out = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_IDCHARS))
        out = _IDCHARS[rem] + out
    return out


@dataclass
class _Change:
    time: int
    value: Value


@dataclass
class Tracer:
    """Records signal changes during simulation."""

    design: Design
    filename: str = "dump.vcd"
    changes: dict[str, list[_Change]] = field(default_factory=dict)
    enabled: bool = True

    def record(self, name: str, time: int, value: Value) -> None:
        if not self.enabled:
            return
        history = self.changes.setdefault(name, [])
        if history and history[-1].time == time:
            history[-1] = _Change(time, value)
        else:
            history.append(_Change(time, value))

    def snapshot_initial(self, time: int = 0) -> None:
        """Record the current value of every scalar/vector signal."""
        for name, signal in self.design.signals.items():
            if not signal.is_array:
                self.record(name, time, signal.value)

    # -- rendering -----------------------------------------------------------

    def to_vcd(self, timescale: str = "1ns") -> str:
        traced = sorted(self.changes)
        codes = {name: _idcode(i) for i, name in enumerate(traced)}
        lines = ["$date", "  repro.sim trace", "$end",
                 "$version", "  repro VCD tracer", "$end",
                 f"$timescale {timescale} $end"]
        # Scope tree from hierarchical names.
        lines.append(f"$scope module {self.design.top} $end")
        open_scopes: list[str] = []

        def close_to(depth: int) -> None:
            while len(open_scopes) > depth:
                open_scopes.pop()
                lines.append("$upscope $end")

        for name in traced:
            *scopes, leaf = name.split(".")
            common = 0
            for a, b in zip(open_scopes, scopes):
                if a != b:
                    break
                common += 1
            close_to(common)
            for scope in scopes[common:]:
                open_scopes.append(scope)
                lines.append(f"$scope module {scope} $end")
            signal = self.design.signals[name]
            width = signal.width
            ref = leaf if width == 1 else \
                f"{leaf} [{signal.msb}:{signal.lsb}]"
            lines.append(f"$var wire {width} {codes[name]} {ref} $end")
        close_to(0)
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")

        # Merge changes into a single time-ordered stream.
        events: list[tuple[int, str, Value]] = []
        for name, history in self.changes.items():
            for change in history:
                events.append((change.time, codes[name], change.value))
        events.sort(key=lambda item: (item[0], item[1]))
        current_time = None
        for time, code, value in events:
            if time != current_time:
                lines.append(f"#{time}")
                current_time = time
            lines.append(_format_change(code, value))
        return "\n".join(lines) + "\n"


def _format_change(code: str, value: Value) -> str:
    if value.width == 1:
        return f"{value.bit(0)}{code}"
    bits = "".join(value.bit(i) for i in reversed(range(value.width)))
    return f"b{bits} {code}"
