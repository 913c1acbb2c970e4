"""Instruction-tuning records and dataset containers.

The paper's framework emits records with exactly three fields
(Sec. 3): an ``instruct`` field distinguishing the task, an ``input``
field with the prompt/context, and an ``output`` field with the expected
result.  ``Task`` enumerates the seven dataset rows of Table 2.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum


class Task(Enum):
    """Dataset categories (one per row of the paper's Table 2)."""

    NL_VERILOG = "nl_verilog_generation"
    MASK_COMPLETION = "verilog_mask_completion"
    DEBUG = "verilog_debug"
    WORD_COMPLETION = "verilog_word_level_completion"
    MODULE_COMPLETION = "verilog_module_level_completion"
    STATEMENT_COMPLETION = "verilog_statement_level_completion"
    EDA_SCRIPT = "nl_eda_script_generation"

    @property
    def table2_label(self) -> str:
        return _TABLE2_LABELS[self]


_TABLE2_LABELS = {
    Task.NL_VERILOG: "Natural Language Verilog Generation",
    Task.MASK_COMPLETION: "Verilog Mask Completion",
    Task.DEBUG: "Verilog Debug",
    Task.WORD_COMPLETION: "Verilog Word-Level Completion",
    Task.MODULE_COMPLETION: "Verilog Module-Level Completion",
    Task.STATEMENT_COMPLETION: "Verilog Statement-Level Completion",
    Task.EDA_SCRIPT: "Natural Language EDA Script Generation",
}

#: Instruction strings exactly as printed in the paper.
INSTRUCTIONS = {
    Task.NL_VERILOG: "give me the Verilog module of this description. ",
    Task.MASK_COMPLETION: "complete the masked tokens of this Verilog "
                          "file. ",
    Task.DEBUG: "give me correct Verilog according to the given wrong "
                "Verilog. ",
    Task.WORD_COMPLETION: "complete the next token of Verilog file. ",
    Task.MODULE_COMPLETION: "complete the next module of Verilog file. ",
    Task.STATEMENT_COMPLETION: "complete the next statement of Verilog "
                               "file. ",
    Task.EDA_SCRIPT: "give me SiliconCompiler script. ",
}


@dataclass(frozen=True)
class Record:
    """One training example in the paper's three-field format."""

    task: Task
    instruct: str
    input: str
    output: str
    meta: tuple[tuple[str, str], ...] = ()

    def to_json(self) -> str:
        return json.dumps({"instruct": self.instruct, "input": self.input,
                           "output": self.output}, ensure_ascii=False)

    def to_dict(self) -> dict:
        """Lossless form (incl. task + meta) for shard caches."""
        return {"task": self.task.value, "instruct": self.instruct,
                "input": self.input, "output": self.output,
                "meta": [list(pair) for pair in self.meta]}

    @staticmethod
    def from_dict(blob: dict) -> "Record":
        """Inverse of :meth:`to_dict`."""
        return Record(task=Task(blob["task"]), instruct=blob["instruct"],
                      input=blob["input"], output=blob["output"],
                      meta=tuple((key, value)
                                 for key, value in blob.get("meta", ())))

    @property
    def approx_tokens(self) -> int:
        """Whitespace-token count used for max-length trimming."""
        return (len(self.instruct.split()) + len(self.input.split())
                + len(self.output.split()))

    @property
    def size_bytes(self) -> int:
        return len(self.to_json().encode())


def atomic_write_bytes(path: str, chunks) -> None:
    """Replace ``path`` with the concatenated ``chunks`` (bytes-like).

    Atomic against process death: the data goes to a temp file that
    ``os.replace`` renames over ``path``, so a reader sees the old file
    or the new one, never a partial write.  Not durable against power
    loss (no fsync): the renamed file can come back torn, so readers
    that must notice keep a digest of it (the train checkpoint manifest
    does, and ``CheckpointStore.latest`` walks back past a mismatch).
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory,
                                    prefix=os.path.basename(path) + ".",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8); same
    guarantee as :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, [text.encode("utf-8")])


def make_record(task: Task, input_text: str, output_text: str,
                **meta: str) -> Record:
    """Build a record with the paper's canonical instruction string."""
    return Record(task=task, instruct=INSTRUCTIONS[task], input=input_text,
                  output=output_text,
                  meta=tuple(sorted(meta.items())))


@dataclass
class Dataset:
    """A collection of records with per-task accounting."""

    records: list[Record] = field(default_factory=list)

    def add(self, record: Record) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[Record]) -> None:
        self.records.extend(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def by_task(self, task: Task) -> list[Record]:
        return [r for r in self.records if r.task is task]

    def task_counts(self) -> dict[Task, int]:
        counts: dict[Task, int] = {}
        for record in self.records:
            counts[record.task] = counts.get(record.task, 0) + 1
        return counts

    def trimmed(self, max_tokens: int) -> "Dataset":
        """Drop records above the token budget (paper Sec. 4, Implementation:
        "We trim the data that exceeds the maximum token length")."""
        return Dataset(records=[r for r in self.records
                                if r.approx_tokens <= max_tokens])

    def to_jsonl(self) -> str:
        return "\n".join(record.to_json() for record in self.records)

    def save(self, path: str) -> None:
        """Write JSONL atomically (temp file + rename).

        Parent directories are created on demand, and the rename means a
        concurrent reader — or another shard writer crashing mid-write —
        can never observe a torn file.
        """
        atomic_write_text(path, self.to_jsonl() + ("\n" if self.records
                                                   else ""))

    @staticmethod
    def load(path: str, task: Task) -> "Dataset":
        dataset = Dataset()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                blob = json.loads(line)
                dataset.add(Record(task=task, instruct=blob["instruct"],
                                   input=blob["input"],
                                   output=blob["output"]))
        return dataset
