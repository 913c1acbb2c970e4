"""EDA-script dataset augmentation (paper Sec. 3.3, Eq. 1).

The paper feeds ~200 valid SiliconCompiler scripts to an *existing* LLM
(GPT-3.5) and keeps the generated natural-language description::

    GeneralLLM(SiliconCompiler Script) = Natural language Desc.

Here the "existing LLM" is any callable ``describer(script_text) -> str``;
the default is :class:`repro.llm.oracle.DescriptionOracle`, a
program-analysis describer over the mini-SiliconCompiler API that plays
GPT-3.5's role (see :mod:`repro.llm.oracle`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from .records import Record, Task, make_record

Describer = Callable[[str], str]


def script_records(scripts: Iterable[str],
                   describer: Describer) -> Iterator[Record]:
    """(LLM description → script) pairs in the paper's record format."""
    for script in scripts:
        description = describer(script)
        if not description.strip():
            continue
        yield make_record(Task.EDA_SCRIPT, description.strip(),
                          script.strip())


def default_describer() -> Describer:
    """The GPT-3.5 stand-in used throughout the repo."""
    from ..llm.oracle import DescriptionOracle
    return DescriptionOracle().describe
