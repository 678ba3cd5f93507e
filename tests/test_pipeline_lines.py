"""The line map: every line of the package that the pipeline never runs
is listed in ``tests/data/pipeline_lines.txt`` with its kind.

The full check runs ``tools/pipeline_lines.py`` in a fresh interpreter:
in this process the package's caches are warm, so a trace here would
miss the lines that only a cold start runs.
"""

import importlib.util
import pathlib
import re
import runpy
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "pipeline_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("pipeline_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_line_map_matches_a_fresh_run():
    """No line that never ran is missing from the map or untriaged, and
    no listed line now runs."""
    run = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                         cwd=ROOT, timeout=120)
    assert run.returncode == 0, run.stderr


def test_map_names_tests_that_exist():
    """Every test a refusal or input entry names is defined in its file."""
    named = set()
    for row in (ROOT / "tests" / "data" / "pipeline_lines.txt").read_text("utf-8").splitlines():
        if not row.startswith("#"):
            kind = row.split("\t")[1]
            if kind.startswith(("refusal test_", "input test_")):
                named.add(kind.split()[1])
    assert named
    for test in sorted(named):
        path, _, name = test.partition("::")
        assert f"def {name}(" in (ROOT / "tests" / path).read_text("utf-8"), test


def test_no_documented_command_redirects_into_the_map():
    """The tool reads the map's triage, so a command that redirects its
    output into the map (the shell empties the file first) would lose
    every kind: the map's header, the tool's usage and the README must
    each name a scratch file instead."""
    tool = _tool()
    texts = (tool.HEADER, tool.__doc__, (ROOT / "README.md").read_text("utf-8"))
    targets = [target for text in texts
               for target in re.findall(r"(?:^|\s)>\s*([\w./-]+)", text)]
    assert targets
    assert tool.MAP not in [(ROOT / target).resolve() for target in targets]


def test_unread_fields_on_a_fixture(tmp_path):
    """A field counts as read only through its own class or a subclass,
    whatever another record reads under the same name."""
    tool = _tool()
    module = tmp_path / "tiny.py"
    module.write_text("from dehn24.record import Record\n"
                      "class A(Record):\n"
                      "    x: int\n"
                      "    y: int = 0\n"
                      "class B(A):\n"
                      "    z: int\n"
                      "class C(Record):\n"
                      "    y: int\n"
                      "class Plain:\n"
                      "    w: int\n")
    namespace = runpy.run_path(str(module))
    reads = set()
    tool.reading_fields(reads, lambda: (namespace["B"](1, 2, 3).x, namespace["C"](4).y))
    assert {(namespace["B"], "x"), (namespace["C"], "y")} <= reads
    assert tool.unread_fields(module, namespace, reads) == [
        ("tiny.py", 4, "y: int = 0"), ("tiny.py", 6, "z: int")]


def test_map_comparison_on_a_fixture(tmp_path):
    tool = _tool()
    module = tmp_path / "tiny.py"
    module.write_text("def f(x):\n"
                      "    if x:\n"
                      "        return 1\n"
                      "    raise ValueError('no')\n"
                      "def g(x):\n"
                      "    if x:\n"
                      "        return 0\n"
                      "    return 0\n")
    ran = tool.lines_run({str(module)}, lambda: runpy.run_path(str(module))["f"](1))
    never = tool.never_run([module], ran)
    assert never == [("tiny.py", 4, "raise ValueError('no')"), ("tiny.py", 6, "if x:"),
                     ("tiny.py", 7, "return 0"), ("tiny.py", 8, "return 0")]

    listed = tool.read_map("# a comment\n"
                           "tiny.py\trefusal test_f\traise ValueError('no')\n"
                           "tiny.py\tdead\tif x:\n"
                           "tiny.py\tkept item 7\treturn 0\n"
                           "tiny.py\tgate-only\treturn 1\n")
    entries, now_run = tool.match(never, listed)
    # "dead" is not a kind, and the second "return 0" has no entry left.
    assert [(line, kind) for _, line, kind, _ in entries] == [
        (4, "refusal test_f"), (6, "untriaged"), (7, "kept item 7"), (8, "untriaged")]
    assert now_run == [("tiny.py", "gate-only", "return 1")]
