#!/usr/bin/env python3
"""List the lines of the package that the pipeline's own runs never execute.

Runs a fixed set of invocations in one process under the standard
library's ``trace``: every CLI subcommand, both output formats,
``lattice --scale 1/2``, ``fill --balance-c 1``, two small ``enumerate``
boxes, and both demos (the search at ``--free 2``).  Then it prints, per
module of ``src/dehn24``, each executable line that never ran, and a
total with the number of those lines that are ``raise`` statements.

The package is first imported inside the traced call, so module-level
definitions count as run.  A run takes about 3 s on a 2-core machine
with Python 3.11.

Usage:
    python3 tools/pipeline_lines.py
"""

import contextlib
import dis
import os
import pathlib
import runpy
import sys
import trace
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dehn24"

COEFFICIENTS = ("3,3",) * 5
BOX = "--box=-1:1,-1:1,0:0,0:1,0:0,0:0,0:0,0:0,-2:0,0:0"
INVOCATIONS = (
    ("build",),
    ("build", "--copies", "2", "--format", "jsonl"),
    ("cusps",),
    ("cusps", "--format", "jsonl"),
    ("peripheral",),
    ("peripheral", "--format", "jsonl"),
    ("lattice",),
    ("lattice", "--scale", "1/2", "--format", "jsonl"),
    ("fill", *COEFFICIENTS),
    ("fill", "--balance-c", "1", "--format", "jsonl", *COEFFICIENTS),
    ("enumerate", "--box", "0:0"),
    ("enumerate", BOX, "--format", "jsonl"),
)
DEMOS = (
    ("homology_sphere_walkthrough.py",),
    ("search_side_pairings.py", "--free", "2"),
)


def run_pipeline() -> None:
    from dehn24.cli import main

    for argv in INVOCATIONS:
        if main(list(argv)) != 0:
            raise SystemExit(f"dehn24 {' '.join(argv)} failed")
    for script, *args in DEMOS:
        path = str(ROOT / "demos" / script)
        sys.argv = [path, *args]
        runpy.run_path(path, run_name="__main__")


def executable_lines(code: types.CodeType) -> set[int]:
    """The lines that start an instruction in ``code`` or a code object in it."""
    # Line 0 (or None) marks an instruction with no source line of its own.
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = trace.Trace(count=1, trace=0)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracer.runfunc(run_pipeline)
    ran = tracer.results().counts  # (file name, line) -> times run

    total = missed = raised = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text("utf-8")
        text = source.splitlines()
        lines = sorted(executable_lines(compile(source, str(path), "exec")))
        never = [line for line in lines if (str(path), line) not in ran]
        total += len(lines)
        missed += len(never)
        print(f"{path.name}: {len(never)} of {len(lines)} executable lines never ran")
        for line in never:
            statement = text[line - 1].strip()
            raised += statement.startswith("raise")
            print(f"  {line:4d}  {statement}")
    print(f"total: {missed} of {total} executable lines never ran, {raised} of them raise")


if __name__ == "__main__":
    main()
