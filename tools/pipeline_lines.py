#!/usr/bin/env python3
"""Map the lines of the package that the pipeline's own runs never execute,
and the record fields they never read.

Runs a fixed set of invocations in one process under a line tracer
(``sys.settrace``) that follows only the package's frames: every CLI
subcommand, both output formats, ``build --pairing`` on the bundled
file, ``lattice --scale 3/2`` (which overlaps the cusps), ``fill
--balance-c 1``, two small ``enumerate`` boxes, both demos (the search
at ``--free 2``) and the benchmark's layer probe (``perfbench/child.py``'s
``run_probe``).  The package is first imported inside the traced call,
so module-level definitions count as run.  Every attribute read from an
instance of ``Record`` is recorded too, by class and name, so a field is
read only where its own class (or a subclass) is read, whatever other
classes share its name.

Every executable line of ``src/dehn24`` that never ran, and the
annotation line of every record field never read, must be listed in
``tests/data/pipeline_lines.txt`` with its kind (see that file's header).
An entry is the module, the kind and the line's text, so line shifts
alone change nothing.  Stdout gets the map regenerated from this run:
each listed line keeps its kind, and a line missing from the map comes
out as ``untriaged``.  Stderr gets the per-module counts, each untriaged
line with its line number, and each listed line that now runs; the exit
status is 1 if there is any.  A run takes about 3 s on a 2-core machine
with Python 3.11.

Usage:
    python3 tools/pipeline_lines.py > lines.new; mv lines.new tests/data/pipeline_lines.txt
"""

import ast
import collections
import contextlib
import dis
import os
import pathlib
import re
import runpy
import sys
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dehn24"
MAP = ROOT / "tests" / "data" / "pipeline_lines.txt"
PAIRING = str(PACKAGE / "data" / "pairing_1011.txt")

HEADER = """\
# Executable lines of src/dehn24 that tools/pipeline_lines.py never runs,
# and the annotation lines of the record fields that it never reads.
# One entry per line: module, kind and the line's text, tab-separated.
# Kinds:
#   refusal TEST       a refusal, reached by the named test
#   refusal untested   a refusal no test reaches (ROADMAP item 10)
#   gate-only          only the acceptance gate runs it
#   kept ITEM          kept for a named open ROADMAP item
#   input TEST         a branch for an input or entry the traced runs do
#                      not give (a residue with no unit pivot, a two-copy
#                      presentation, repr), given by the named test
# A dead line or field is deleted, not listed.  Regenerate with
#   python3 tools/pipeline_lines.py > lines.new; mv lines.new tests/data/pipeline_lines.txt
# and give every "untriaged" line its kind.  The tool reads this map, so
# never redirect its output straight into it: the shell empties the map
# before the tool reads its triage.
"""
KIND = re.compile(r"refusal \S+|gate-only|kept \S.*|input \S+")

COEFFICIENTS = ("3,3",) * 5
BOX = "--box=-1:1,-1:1,0:0,0:1,0:0,0:0,0:0,0:0,-2:0,0:0"
INVOCATIONS = (
    ("build",),
    ("build", "--copies", "2", "--pairing", PAIRING, "--format", "jsonl"),
    ("cusps",),
    ("cusps", "--format", "jsonl"),
    ("peripheral",),
    ("peripheral", "--format", "jsonl"),
    ("lattice",),
    ("lattice", "--scale", "3/2", "--format", "jsonl"),
    ("fill", "--balance-c", "1", *COEFFICIENTS),
    ("fill", "--format", "jsonl", *COEFFICIENTS),
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
    child = runpy.run_path(str(ROOT / "perfbench" / "child.py"))
    child["run_probe"](child["Tracer"]())


def reading_fields(reads: set, func) -> None:
    """Run ``func()`` adding (class, name) to ``reads`` for every attribute
    read from an instance of the package's ``Record``."""
    from dehn24.record import Record

    def read(self, name, get=object.__getattribute__):
        reads.add((type(self), name))
        return get(self, name)

    Record.__getattribute__ = read
    try:
        func()
    finally:
        del Record.__getattribute__


def lines_run(files: set[str], func) -> set[tuple[str, int]]:
    """(file name, line) of each line that ``func()`` runs in ``files``."""
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.settrace(calls)
    threading.settrace(calls)
    try:
        func()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def executable_lines(code: types.CodeType) -> set[int]:
    """The lines that start an instruction in ``code`` or a code object in it."""
    # Line 0 (or None) marks an instruction with no source line of its own.
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def never_run(paths, ran) -> list[tuple[str, int, str]]:
    """(module, line, stripped text) of each executable line of ``paths``
    whose (file name, line) is not in ``ran``."""
    found = []
    for path in paths:
        source = path.read_text("utf-8")
        text = source.splitlines()
        for line in sorted(executable_lines(compile(source, str(path), "exec"))):
            if (str(path), line) not in ran:
                found.append((path.name, line, text[line - 1].strip()))
    return found


def unread_fields(path, namespace, reads) -> list[tuple[str, int, str]]:
    """(module, line, stripped text) of each field annotation of a record
    class defined at the top of ``path`` (``namespace`` is its module's)
    that no (class, name) in ``reads`` names on that class or a subclass."""
    source = path.read_text("utf-8")
    text = source.splitlines()
    found = []
    for node in ast.parse(source).body:
        cls = namespace.get(node.name) if isinstance(node, ast.ClassDef) else None
        fields = getattr(cls, "_fields", ())
        for stmt in node.body if fields else ():
            if (isinstance(stmt, ast.AnnAssign) and stmt.target.id in fields
                    and not any(name == stmt.target.id and issubclass(owner, cls)
                                for owner, name in reads)):
                found.append((path.name, stmt.lineno, text[stmt.lineno - 1].strip()))
    return found


def read_map(text: str) -> dict[tuple[str, str], list[str]]:
    """(module, line text) -> the kinds listed for it, in file order."""
    listed = collections.defaultdict(list)
    for row in text.splitlines():
        if row and not row.startswith("#"):
            module, kind, line = row.split("\t", 2)
            listed[module, line].append(kind)
    return listed


def match(never, listed):
    """Pair each line that never ran (or field never read) with a listed
    kind of the same module and text.  Returns (module, line, kind, text)
    per line, ``untriaged`` where none is left or the kind is not a known
    one, and the listed (module, kind, text) that no such line takes:
    lines that now run (or fields now read)."""
    left = {key: list(kinds) for key, kinds in listed.items()}
    entries = []
    for module, line, text in never:
        kinds = left.get((module, text))
        kind = kinds.pop(0) if kinds else "untriaged"
        entries.append((module, line, kind if KIND.fullmatch(kind) else "untriaged", text))
    now_run = [(module, kind, text) for (module, text), kinds in left.items()
               for kind in kinds]
    return entries, now_run


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted(PACKAGE.glob("*.py"))
    reads: set = set()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        ran = lines_run({str(path) for path in paths},
                        lambda: reading_fields(reads, run_pipeline))
    unread = [field for path in paths for field in unread_fields(
        path, vars(sys.modules.get(f"dehn24.{path.stem}", sys.modules["dehn24"])), reads)]
    never = sorted(never_run(paths, ran) + unread)
    entries, now_run = match(never, read_map(MAP.read_text("utf-8")))

    sys.stdout.write(HEADER)
    for module, _, kind, text in entries:
        print(f"{module}\t{kind}\t{text}")
    total = sum(len(executable_lines(compile(p.read_text("utf-8"), str(p), "exec")))
                for p in paths)
    fields = {(module, line) for module, line, _ in unread}
    lines = [entry for entry in entries if entry[:2] not in fields]
    per_module = collections.Counter(module for module, *_ in lines)
    for path in paths:
        print(f"{path.name}: {per_module[path.name]} lines never ran", file=sys.stderr)
    raised = sum(text.startswith("raise") for *_, text in lines)
    print(f"total: {len(lines)} of {total} executable lines never ran, "
          f"{raised} of them raise; {len(unread)} record fields never read", file=sys.stderr)
    untriaged = [entry for entry in entries if entry[2] == "untriaged"]
    for module, line, _, text in untriaged:
        print(f"untriaged: {module}:{line}  {text}", file=sys.stderr)
    for module, kind, text in now_run:
        print(f"now runs: {module}  {text}  ({kind})", file=sys.stderr)
    return 1 if untriaged or now_run else 0


if __name__ == "__main__":
    sys.exit(main())
