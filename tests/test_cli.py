"""End-to-end tests for the command-line interface.

Each test drives ``main`` with an argv list and inspects captured
stdout, so the full pipeline (parsing, gluing, peripheral structure,
development, filling) runs exactly as a shell user would see it.
"""

import collections
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from dehn24 import chains, cli, intlinalg, peripheral
from dehn24.chains import euler_characteristic
from dehn24.cli import main
from dehn24.filling import adapted_slopes, is_homology_sphere
from dehn24.flatgeom import TWO_PI_SQUARED_HIGH, TWO_PI_SQUARED_LOW, _sqrt_enclosure
from dehn24.gluing import census_pairing, orientation_character

GOLDEN = Path(__file__).parent / "data" / "cli"
_BOX = "--box=-1:1,-1:1,0:0,0:1,0:0,0:0,0:0,0:0,-2:0,0:0"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _child_env(unbuffered: bool = False) -> dict:
    """The environment of a child that imports the package this process
    imported, installed or not, with stdout buffered unless asked."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_build_table_report(capsys):
    code, out, _ = run(capsys, "build")
    assert code == 0
    lines = out.splitlines()
    assert "census: 1011" in lines
    assert "cells: 24 84 96 36 1" in lines
    assert "chi: 1" in lines
    assert "orientable: no" in lines
    assert "H1: Z_2^6" in lines
    assert "H2: Z_2^4" in lines
    assert "H3: 0" in lines


def test_build_cover_jsonl(capsys):
    code, out, _ = run(capsys, "build", "--copies", "2", "--format", "jsonl")
    assert code == 0
    record = json.loads(out)
    assert record["cells"] == [48, 168, 192, 72, 2]
    assert record["chi"] == 2
    assert record["h"] == ["Z^5", "Z^10", "Z^4"]
    assert record["orientable"] is True
    assert record["pairings"] == 12
    assert record["metadata"]["census"] == "1011"


def test_cusps_report(capsys):
    code, out, _ = run(capsys, "cusps", "--copies", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "cusp 1: cubes 4, cells 4 12 12 4, H1 Z^3, H2 Z^3, H3 Z"
    assert lines[4].startswith("cusp 5: cubes 32")


def test_peripheral_matches_library_report(capsys, census_m, census_system):
    from dehn24.peripheral import report
    code, out, _ = run(capsys, "peripheral")
    assert code == 0
    assert out == report(census_system)


def test_lattice_covolumes(capsys):
    code, out, _ = run(capsys, "lattice", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["covolume"] for r in records] == ["4", "4", "4", "4", "32"]
    assert [r["cusp"] for r in records] == [1, 2, 3, 4, 5]


def test_lattice_scale(capsys):
    code, out, _ = run(capsys, "lattice", "--scale", "1/2", "--format", "jsonl")
    assert code == 0
    first = json.loads(out.splitlines()[0])
    assert first["covolume"] == "1/2"
    assert first["scale"] == "1/2"


def test_fill_zero_tuple(capsys):
    code, out, _ = run(capsys, "fill", "0,0", "0,0", "0,0", "0,0", "0,0",
                       "--format", "jsonl")
    assert code == 0
    record = json.loads(out)
    assert record["h1"] == "0"
    assert record["sphere"] is True
    assert record["two_pi"] is False
    assert record["status"] == "ok"
    assert record["balanced"] is None
    assert [s["sq"] for s in record["lengths"]] == ["1", "1", "1", "1", "4"]


def test_fill_table_has_notes(capsys):
    code, out, _ = run(capsys, "fill", "1,2", "3,4", "5,6", "7,8", "9,10")
    assert code == 0
    assert "homology 4-sphere: yes" in out
    assert any(line.startswith("note: ") and "Poincare duality" in line
               for line in out.splitlines())


# At this scale cusps 1 to 4 of the 3,3 tuple have squared lengths inside
# the certified bracket for 4*pi^2.  At scale 1 their squared length is
# 73, and at this c the enclosures of weak balance overlap.
_PRECISION_SCALE = "4596195102491/6250000000000"
_PRECISION_C = "1280930496648949/281474976710656000"


def test_fill_reports_an_undecided_two_pi_test(capsys):
    code, out, err = run(capsys, "fill", "--scale", _PRECISION_SCALE, *("3,3",) * 5)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    squared = [Fraction(line.split()[4].rstrip(",")) for line in lines
               if line.startswith("cusp ")]
    inside = [TWO_PI_SQUARED_LOW <= x <= TWO_PI_SQUARED_HIGH for x in squared]
    assert inside == [True, True, True, True, False]
    assert lines[-7:-5] == ["all slopes >= 2pi: -", "status: precision"]


def test_fill_reports_an_undecided_balance_test(capsys):
    code, out, err = run(capsys, "fill", "--balance-c", _PRECISION_C, *("3,3",) * 5)
    assert (code, err) == (0, "")
    assert out.splitlines()[-8:-5] == [
        "all slopes >= 2pi: yes", f"weakly balanced (c = {_PRECISION_C}): -",
        "status: precision"]


def test_enumerate_records_an_undecided_balance_test(capsys):
    code, out, err = run(capsys, "enumerate", "--format", "jsonl", "--box=3:3",
                         "--balance-c", _PRECISION_C)
    assert (code, err) == (0, "")
    [record] = [json.loads(line) for line in out.splitlines()]
    assert (record["two_pi"], record["balanced"], record["status"]) == (True, None, "precision")


def test_enumerate_single_record(capsys):
    code, out, _ = run(capsys, "enumerate", "--box", "0:0", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 1
    assert records[0]["tuple"] == [0] * 10
    assert records[0]["sphere"] is True


def test_enumerate_box_order_and_flags(capsys):
    box = "-1:1,-1:1,0:0,0:0,0:0,0:0,0:0,0:0,0:0,0:0"
    code, out, _ = run(capsys, "enumerate", "--box=" + box, "--format", "jsonl",
                       "--balance-c", "1/100")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 9
    tuples = [tuple(r["tuple"]) for r in records]
    assert tuples == sorted(tuples)
    assert all(r["sphere"] is True for r in records)
    assert all(r["balanced"] in (True, False) for r in records)


def test_enumerate_sphere_flags_match_library(capsys, census_system, census_m):
    box = "0:1,0:0,0:0,0:1,0:0,0:0,0:0,0:0,0:0,0:0"
    code, out, _ = run(capsys, "enumerate", "--box", box, "--format", "jsonl")
    assert code == 0
    chi = euler_characteristic(census_m.chain)
    for record in map(json.loads, out.splitlines()):
        t = record["tuple"]
        pairs = [(t[2 * i], t[2 * i + 1]) for i in range(5)]
        slopes = adapted_slopes(census_system, pairs)
        redone = is_homology_sphere(census_system, slopes, chi, orientable=True)
        assert record["sphere"] == redone.is_homology_sphere
        assert record["h1"] == str(redone.h1)
        assert record["slopes"] == [list(v) for v in slopes.classes]


def test_enumerate_threads_do_not_change_output(capsys):
    box = "--box=-1:1,0:0,-1:1,0:0,0:0,0:0,0:0,0:0,0:0,0:0"
    _, single, _ = run(capsys, "enumerate", box, "--format", "jsonl")
    _, threaded, _ = run(capsys, "enumerate", box, "--format", "jsonl",
                         "--threads", "8")
    assert single == threaded


@pytest.mark.parametrize("argv", [
    pytest.param(["build"], id="build"),
    pytest.param(["build", "--format", "jsonl"], id="build_jsonl"),
    pytest.param(["build", "--copies", "2"], id="build_copies2"),
    pytest.param(["build", "--copies", "2", "--format", "jsonl"], id="build_copies2_jsonl"),
    pytest.param(["cusps"], id="cusps"),
    pytest.param(["cusps", "--copies", "2"], id="cusps_copies2"),
    pytest.param(["cusps", "--copies", "2", "--format", "jsonl"], id="cusps_copies2_jsonl"),
    pytest.param(["peripheral", "--format", "jsonl"], id="peripheral_jsonl"),
    pytest.param(["lattice"], id="lattice"),
    pytest.param(["lattice", "--format", "jsonl", "--scale", "1/2"],
                 id="lattice_scale_jsonl"),
    pytest.param(["fill", "3,3", "3,3", "3,3", "3,3", "3,3"], id="fill_3_3"),
    pytest.param(["fill", "3,3", "3,3", "3,3", "3,3", "3,3", "--format", "jsonl"],
                 id="fill_3_3_jsonl"),
    pytest.param(["fill", "--balance-c", "1/100", "--",
                  "1,-2", "3,4", "5,6", "7,8", "9,10"], id="fill_balance"),
    # Written by the code before scales were checked: a scale below the
    # embedded bound prints what it printed then.
    pytest.param(["fill", "--scale", "1/2", "3,3", "3,3", "3,3", "3,3", "3,3"],
                 id="fill_scale_half"),
    pytest.param(["enumerate", _BOX, "--scale", "1/2", "--format", "jsonl"],
                 id="enumerate_box_scale_half_jsonl"),
    pytest.param(["enumerate", _BOX], id="enumerate_box"),
    pytest.param(["enumerate", _BOX, "--format", "jsonl"], id="enumerate_box_jsonl"),
    pytest.param(["enumerate", _BOX, "--format", "jsonl", "--balance-c", "1/100"],
                 id="enumerate_box_balance_jsonl"),
    # 1,536 tuples: the records cross the first 1,024-tuple chunk boundary.
    pytest.param(["enumerate", "--box=" + ",".join(["0:1"] * 9 + ["0:2"]),
                  "--threads", "8"], id="enumerate_two_chunks_threads"),
])
def test_output_matches_golden(capsys, request, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    golden = GOLDEN / f"{request.node.callspec.id}.out"
    assert out.encode() == golden.read_bytes()


def test_enumerate_streams_without_threads(monkeypatch):
    """The first record is written after one chunk is drawn, and no thread starts."""
    class FirstWrite(Exception):
        pass

    drawn, started = [0], []
    real_product = cli.product

    def counting_product(*ranges):
        for tup in real_product(*ranges):
            drawn[0] += 1
            yield tup

    def start(thread):
        started.append(thread)
        raise FirstWrite

    def write(text):
        raise FirstWrite

    monkeypatch.setattr(cli, "product", counting_product)
    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=write))
    with pytest.raises(FirstWrite):
        main(["enumerate", "--box=-1:1", "--format", "jsonl", "--threads", "8"])
    assert started == []
    assert 0 < drawn[0] <= 1024


def test_enumerate_box_forms_agree(capsys):
    _, short_form, _ = run(capsys, "enumerate", "--box", "0:1")
    _, long_form, _ = run(capsys, "enumerate", "--box",
                          ",".join(["0:1"] * 10))
    assert short_form == long_form


def test_enumerate_table_header(capsys):
    code, out, _ = run(capsys, "enumerate", "--box", "0:0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["b1", "c1", "b2", "c2", "b3", "c3", "b4", "c4",
                                "b5", "c5", "H1", "sphere", "min_len", "2pi",
                                "balanced", "status"]
    assert len(lines) == 2


def test_input_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    code, _, err = run(capsys, "build", "--pairing", str(bad))
    assert code == 2
    assert "line 1" in err
    code, _, _ = run(capsys, "build", "--pairing", str(tmp_path / "missing.txt"))
    assert code == 2
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe")
    code, _, err = run(capsys, "build", "--pairing", str(binary))
    assert code == 2
    assert "not a text file" in err
    code, _, err = run(capsys, "enumerate", "--box", "5:1")
    assert code == 2
    assert "empty" in err
    code, _, _ = run(capsys, "enumerate", "--box", "1:2,3:4")
    assert code == 2
    code, _, _ = run(capsys, "lattice", "--scale", "0")
    assert code == 2
    code, _, _ = run(capsys, "enumerate", "--balance-c", "-1")
    assert code == 2
    code, _, _ = run(capsys, "enumerate", "--threads", "0")
    assert code == 2
    # Refused while parsing the options, before any work (or thread) starts.
    code, out, err = run(capsys, "enumerate", "--threads", "65")
    assert code == 2
    assert out == ""
    assert err == "error: thread count must be at most 64\n"
    code, _, err = run(capsys, "fill", "1;2", "3,4", "5,6", "7,8", "9,10")
    assert code == 2
    assert "is not 'b,c'" in err


_CENSUS_TEXT = resources.files("dehn24").joinpath("data/pairing_1011.txt").read_text("utf-8")
_RECORD_0_5 = "0 5 ; 0->0 1->5 2->6 3->7 4->8 9->14\n"


@pytest.mark.parametrize("old, new, err", [
    pytest.param("0 5 ; 0->0 1->5", "0 5 ; 0->5 1->0",
                 "error: bijection sends face [0, 4] of facet 0 to the non-face [5, 8] "
                 "of facet 5\n", id="non_face"),
    pytest.param("3 20 ; 0->23 2->21 4->19 6->17 8->15 12->11\n", "",
                 "error: facets left unpaired: [(0, 3), (0, 20)]\n", id="unpaired"),
    pytest.param(_RECORD_0_5, _RECORD_0_5 * 2,
                 "error: facet (0, 0) appears in more than one pairing\n", id="repeated"),
    pytest.param("18 23 ;", "18 24 ;",
                 "error: facet index 24 out of range\n", id="facet_range"),
    pytest.param("4->8 9->14", "4->8 10->14",
                 "error: bijection domain [0, 1, 2, 3, 4, 10] is not facet 0's vertex set\n",
                 id="domain"),
    pytest.param("4->8 9->14", "4->8 9->13",
                 "error: bijection image is not facet 5's vertex set\n", id="image"),
    # A 4,000-digit index parses, and its refusal quotes 40 characters of it.
    pytest.param("18 23 ;", "18 " + "9" * 4000 + " ;",
                 "error: facet index " + "9" * 40 + "... out of range\n", id="long_facet"),
    pytest.param("4->8 9->14", "4->8 " + "9" * 4000 + "->14",
                 "error: bijection domain [0, 1, 2, 3, 4, " + "9" * 24
                 + "... is not facet 0's vertex set\n", id="long_vertex"),
])
def test_invalid_pairing_file_refusals(capsys, tmp_path, old, new, err):
    """One edit of the bundled file per validation rule, refused with exit 2."""
    assert _CENSUS_TEXT.count(old) == 1
    path = tmp_path / "pairing.txt"
    path.write_text(_CENSUS_TEXT.replace(old, new))
    assert run(capsys, "build", "--pairing", str(path)) == (2, "", err)


def test_contract_failures_exit_1(capsys):
    """The one-copy quotient, word for word: its ambient H_1 has torsion
    and its cross sections are not tori."""
    ambient = ("error: ambient H_1 = Z_2^6 has torsion; the peripheral system needs "
               "free ambient H_1 (pass the orientation double cover)\n")
    assert run(capsys, "peripheral", "--copies", "1") == (1, "", ambient)
    assert run(capsys, "fill", "--copies", "1", *["3,3"] * 5) == (1, "", ambient)
    assert run(capsys, "enumerate", "--copies", "1", "--box=0:0") == (1, "", ambient)
    assert run(capsys, "lattice", "--copies", "1") == (
        1, "", "error: cross section has rotational holonomy; not a torus\n")


def test_filling_reads_orientability_from_the_quotient(capsys, monkeypatch, census_m,
                                                      census_system):
    """With the cover's peripheral system and sections put in place of the
    base's (which stops at its ambient torsion), fill and enumerate on one
    copy reach the verdict, which refuses the nonorientable base."""
    monkeypatch.setattr(cli, "peripheral_system", lambda q: census_system)
    monkeypatch.setattr(cli, "cusp_sections", lambda q: peripheral.cusp_sections(census_m))
    err = ("error: the homology-sphere argument needs an orientable manifold; "
           "fill the orientation double cover\n")
    assert run(capsys, "fill", "--copies", "1", *["3,3"] * 5) == (1, "", err)
    assert run(capsys, "enumerate", "--copies", "1", "--box=0:0") == (1, "", err)


@pytest.mark.parametrize("argv", [
    ["fill", "--scale", "100", "0,0", "0,0", "0,0", "0,0", "0,0"],
    ["fill", "--scale", "1000001/1000000", "0,0", "0,0", "0,0", "0,0", "0,0"],
    ["enumerate", "--scale", "3/2"],
])
def test_overlapping_cusp_scale_exits_1(capsys, argv):
    """Above scale 1 the cusps overlap and the 2*pi theorem does not apply."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: scale {argv[2]} exceeds the largest embedded cusp scale 1")
    assert err.count("\n") == 1


def test_lattice_notes_an_overlapping_scale(capsys):
    """Above scale 1 ``lattice`` still develops the cusps, and says on
    stderr that they overlap."""
    code, out, err = run(capsys, "lattice", "--scale", "2", "--format", "jsonl")
    assert code == 0
    assert err == ("note: scale 2 exceeds the largest embedded cusp scale 1: "
                   "the cusps overlap\n")
    assert [json.loads(line)["covolume"] for line in out.splitlines()] == [
        "32", "32", "32", "32", "256"]


@pytest.mark.parametrize("argv", [
    ["fill", "--scale", "1e10000000"],
    ["fill", "--scale", "1e5000"],
    ["fill", "--scale", "1e-5000"],
    ["fill", "--scale", "1e-1000"],
    ["fill", "--balance-c", "1" * 1001],
    ["lattice", "--scale", "1/1" + "0" * 1000],
    ["enumerate", "--scale", "1_0e9_999"],
])
def test_long_rationals_refused_before_set_up(capsys, monkeypatch, argv):
    """A numerator or denominator over 1,000 digits is refused from the text
    alone: no set-up, and no 10^(10^7) built first."""
    def refuse(*args):
        raise AssertionError("set-up ran for a refused rational")

    monkeypatch.setattr(cli, "_load_spec", refuse)
    name = "balance constant" if argv[1] == "--balance-c" else "scale"
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, *(["1,1"] * 5 if argv[0] == "fill" else []))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: {name} has a numerator or denominator of more than 1000 digits\n"


def test_rationals_at_the_digit_bound_render(capsys):
    """1000 digits pass: the cusps develop at 10^999 and fill runs at 10^-999."""
    code, out, err = run(capsys, "lattice", "--scale", "1e999", "--format", "jsonl")
    assert code == 0
    assert err.startswith("note: scale 1" + "0" * 999 + " exceeds")
    assert json.loads(out.splitlines()[0])["covolume"] == "4" + "0" * 2997
    code, out, err = run(capsys, "fill", "--scale", "1e-999", "--balance-c",
                         "9" * 1000, "3,3", "3,3", "3,3", "3,3", "3,3")
    assert (code, err) == (0, "")
    assert "all slopes >= 2pi: no" in out.splitlines()


_TEN_TO_1000 = "1" + "0" * 1000


@pytest.mark.parametrize("argv", [
    ["fill", _TEN_TO_1000 + ",1"],
    ["fill", "1" * 2200 + ",1"],
    ["fill", "1,-" + "7" * 5000],
    ["enumerate", "--box=" + _TEN_TO_1000 + ":" + _TEN_TO_1000],
    ["enumerate", "--format", "jsonl", "--box=" + "1" * 2500 + ":" + "1" * 2500],
])
def test_long_integers_refused_before_set_up(capsys, monkeypatch, argv):
    """A surgery coefficient or box bound over 1,000 digits is refused from
    the text alone, on one short line."""
    def refuse(*args):
        raise AssertionError("set-up ran for a refused integer")

    monkeypatch.setattr(cli, "_load_spec", refuse)
    code, out, err = run(capsys, *argv, *(["1,1"] * 4 if argv[0] == "fill" else []))
    assert (code, out) == (2, "")
    assert err.endswith(" has an integer of more than 1000 digits\n")
    assert err.count("\n") == 1 and len(err.encode()) < 200


def test_integers_at_the_digit_bound_render(capsys):
    """1000-digit coefficients and box bounds pass, and so does a box too
    large to write its tuple count in full."""
    nines = "9" * 1000
    code, out, err = run(capsys, "fill", f"{nines},-{nines}", "1,1", "1,1", "1,1", "1,1")
    assert (code, err) == (0, "")
    assert nines in out.splitlines()[0]
    code, out, err = run(capsys, "enumerate", "--format", "jsonl",
                         f"--box=-{nines}:-{nines}")
    assert (code, err) == (0, "")
    assert json.loads(out)["tuple"] == [-int(nines)] * 10
    code, out, err = run(capsys, "enumerate", f"--box=-{nines}:{nines}")
    assert (code, out) == (2, "")
    assert err == ("error: box has more than 10^40 tuples; enumerate renders at "
                   "most 1,000,000\n")


@pytest.mark.parametrize("argv, message", [
    (["fill", "--scale", "x" * 100_000] + ["1,1"] * 5, "scale must be a rational number"),
    (["enumerate", "--box", "x" * 50_000], "box range 'xxx"),
    (["enumerate", "--box", "0:" + "x" * 50_000], "is not a pair of integers"),
    (["fill", "x" * 100_000] + ["1,1"] * 4, "is not 'b,c'"),
    (["fill", "1," + "x" * 100_000] + ["1,1"] * 4, "is not a pair of integers"),
    (["build", "--pairing"], "cannot parse pairing record 'xxx"),
])
def test_refused_text_is_cut_short(capsys, tmp_path, argv, message):
    """Refused input is quoted by its first 40 characters only."""
    if argv[-1] == "--pairing":
        path = tmp_path / "long.txt"
        path.write_text("x" * 100_000 + "\n")
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err and "x'..." in err and "x" * 41 not in err
    assert err.count("\n") == 1 and len(err.encode()) < 200


def _pairing_text(spec, records):
    """Pairing-file text: ``spec``'s metadata, then one line per
    ``(facet_a, facet_b, vertex assignments)`` record."""
    lines = [f"{key}: {value}" for key, value in spec.metadata]
    lines += [f"{a} {b} ; " + " ".join(f"{v}->{w}" for v, w in assignments)
              for a, b, assignments in records]
    return "\n".join(lines) + "\n"


def _shuffled_pairing_file(tmp_path):
    """The bundled pairing with its records in a seeded order, every other
    one written from its far side; returns the path and the records' order."""
    spec = census_pairing()
    pairings = list(spec.pairings)
    random.Random(1011).shuffle(pairings)
    path = tmp_path / "shuffled.txt"
    path.write_text(_pairing_text(spec, [
        (p.facet_b, p.facet_a, sorted(p.backward().items())) if i % 2
        else (p.facet_a, p.facet_b, p.vertex_map) for i, p in enumerate(pairings)]))
    return path, [spec.pairings.index(p) for p in pairings]


@pytest.mark.parametrize("golden, argv", [
    ("build_copies2", ["build", "--copies", "2"]),
    ("cusps", ["cusps"]),
    ("cusps_copies2", ["cusps", "--copies", "2"]),
    ("peripheral_jsonl", ["peripheral", "--format", "jsonl"]),
    ("lattice", ["lattice"]),
    ("fill_3_3", ["fill", "3,3", "3,3", "3,3", "3,3", "3,3"]),
])
def test_shuffled_pairing_file_matches_goldens(capsys, tmp_path, golden, argv):
    """Record order and the side a record is written from change nothing."""
    path, _ = _shuffled_pairing_file(tmp_path)
    code, out, err = run(capsys, *argv, "--pairing", str(path))
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"{golden}.out").read_bytes()


@pytest.mark.parametrize("argv", [["peripheral"], ["fill", "1,0", "1,0", "1,0", "1,0", "1,0"]])
def test_torsion_section_refusal_numbers_the_cusp_from_one(capsys, tmp_path, search_demo, argv):
    """Leaf 20 of the demo's slice (0, 1) has a first cusp section with
    H_1 = Z + Z_2^2; the refusal names it cusp 1, as ``cusps`` prints it."""
    path = tmp_path / "leaf20.txt"
    spec = search_demo.Search({0, 1}).run()[20]
    path.write_text(_pairing_text(spec, [(p.facet_a, p.facet_b, p.vertex_map)
                                         for p in spec.pairings]))
    code, out, _ = run(capsys, "cusps", "--copies", "2", "--pairing", str(path))
    assert code == 0 and out.startswith("cusp 1: cubes 4, cells 4 12 12 4, H1 Z + Z_2^2,")
    code, out, err = run(capsys, *argv, "--pairing", str(path))
    assert (code, out) == (1, "")
    assert err == ("error: cusp 1 section has H_1 = Z + Z_2^2; adapted bases need a "
                   "torsion-free section (a 3-torus cross section)\n")


def test_shuffled_pairing_file_build_lists_signs_in_record_order(capsys, tmp_path):
    path, order = _shuffled_pairing_file(tmp_path)
    code, out, err = run(capsys, "build", "--pairing", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    expected = (GOLDEN / "build.out").read_text().splitlines()
    at = next(i for i, line in enumerate(expected) if line.startswith("character: "))
    assert lines[:at] + lines[at + 1:] == expected[:at] + expected[at + 1:]
    signs = orientation_character(census_pairing()).signs
    assert lines[at] == "character: " + " ".join("+" if signs[i] == 1 else "-" for i in order)
    assert lines[at] != expected[at]


def test_box_bound_refused_before_set_up(capsys, monkeypatch):
    """5^10 tuples are refused from the ranges alone: no set-up, no record."""
    def refuse(config):
        raise AssertionError("set-up ran for a refused box")

    monkeypatch.setattr(cli, "_filling_setup", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--box=-2:2")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: box has 9,765,625 tuples; enumerate renders at most 1,000,000\n"
    # The bound itself is allowed: 1,000,000 = 10^6 tuples pass the check.
    config = cli._config_from_args(cli._build_parser().parse_args(
        ["enumerate", "--box=" + ",".join(["0:9"] * 6 + ["0:0"] * 4)]))
    assert math.prod(hi - lo + 1 for lo, hi in config.box) == cli._MAX_BOX


def test_benchmark_probe_runs(tmp_path):
    """The benchmark's probe mode, run as the benchmark runs it, still reads
    every boundary matrix row by row and finds the cover's cells."""
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "probe.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), "probe", "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), cwd=root)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(out.read_text())
    assert probe["cells"] == [48, 168, 192, 72, 2]
    assert probe["boundary_nnz"] == 1664


def test_argparse_arity_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["fill", "1,2", "3,4"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["enumerate", "--threads", "x" * 3000],
    ["build", "--copies", "x" * 3000],
    ["build", "--format", "x" * 3000],
    ["x" * 3000],
])
def test_argparse_refusal_quotes_a_long_value_short(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert err.startswith("usage: dehn24")
    assert "x'..." in err and "x" * 41 not in err and len(err.encode()) < 400


def test_argparse_refusal_keeps_a_short_value(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["build", "--copies", "3"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --copies: invalid choice: 3 (choose from 1, 2)\n")


@pytest.mark.parametrize("facet", ["a", "9" * 5000], ids=["letter", "5000-digits"])
def test_unreadable_facet_index_is_an_input_error(capsys, tmp_path, facet):
    text = resources.files("dehn24").joinpath("data/pairing_1011.txt").read_text("utf-8")
    assert "\n0 5 ;" in text
    path = tmp_path / "facet.txt"
    path.write_text(text.replace("\n0 5 ;", f"\n{facet} 5 ;", 1))
    code, out, err = run(capsys, "build", "--pairing", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: line ") and err.count("\n") == 1
    assert f"cannot parse pairing record '{(facet + ' 5 ;')[:5]}" in err
    assert len(err.encode()) < 200


def test_long_pairing_file_is_refused_from_the_read(capsys, tmp_path):
    """A pairing file is read up to 1 MiB and 1 byte; anything longer is
    refused before it is parsed."""
    path = tmp_path / "long.txt"
    path.write_bytes(b"#" * ((1 << 20) + 1))
    start = time.perf_counter()
    code, out, err = run(capsys, "build", "--pairing", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: {path}: longer than 1,048,576 bytes\n"


def test_endless_pairing_file_is_refused(tmp_path):
    """``--pairing /dev/zero`` is refused from a bounded read.  The child
    caps its address space, so a reader without the bound fails with an
    error instead of taking the machine's memory."""
    if not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero")
    code = ("import resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
            "from dehn24.cli import main\n"
            "start = time.perf_counter()\n"
            "status = main(['build', '--pairing', '/dev/zero'])\n"
            "print(time.perf_counter() - start)\n"
            "sys.exit(status)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2, done.stderr[-2000:]
    assert done.stderr == "error: /dev/zero: longer than 1,048,576 bytes\n"
    assert float(done.stdout) < 1


def test_cold_fill_builds_no_smith_column_transform(capsys, monkeypatch):
    """Kernels and adapted bases come from Hermite reductions: a cold
    fill asks no Smith form for its column transform V, and replays each
    reduction's row operations onto only the generators it keeps, 5 rows
    of U and 5 columns of U^-1 for the ambient H_1 and 3 and 3 per cusp."""
    real_smith, real_transforms = intlinalg._smith, intlinalg._Reduction.transforms
    sides, kept = [], []

    def recording_smith(a, right):
        sides.append(right)
        return real_smith(a, right)

    def recording_transforms(self, positions):
        kept.append(len(positions))
        return real_transforms(self, positions)

    monkeypatch.setattr(chains, "_smith", recording_smith)
    monkeypatch.setattr(intlinalg, "_smith", recording_smith)
    monkeypatch.setattr(intlinalg._Reduction, "transforms", recording_transforms)
    for cached in (chains.homology_basis, chains._boundary_invariants, peripheral.cusp_sections):
        cached.cache_clear()
    code, out, err = run(capsys, "fill", "3,3", "3,3", "3,3", "3,3", "3,3")
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / "fill_3_3.out").read_bytes()
    assert sides == [False] * 6
    assert kept == [5, 3, 3, 3, 3, 3]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_output_pipe_exits_141(unbuffered):
    """A reader that stops after one line gets the status of a filter
    killed by SIGPIPE, 128 + 13, and nothing on stderr."""
    # About 95 kB of records: more than the pipe holds, so a write fails.
    proc = subprocess.Popen([sys.executable, "-m", "dehn24.cli", "enumerate", "--box=0:1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env(unbuffered))
    assert proc.stdout.readline().startswith(b" b1  c1")
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (141, b"")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["fill"] + ["3,3"] * 5, ["build"], ["peripheral"],
                                  ["enumerate", "--box=0:0"]],
                         ids=["fill", "build", "peripheral", "enumerate"])
def test_reader_gone_before_the_start_exits_141(unbuffered, argv):
    """Output that fits in stdout's buffer fails in main's own flush, not
    in the interpreter's at exit, so a reader that closed before the
    command started gets 141 and nothing on stderr as well."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "dehn24.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=_child_env(unbuffered), timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


class _GoneReader(io.StringIO):
    """A stdout whose reader has left."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("collecting", [True, False], ids=["collecting", "not-collecting"])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, collecting):
    """main turns the collector off while a command runs and puts it back
    on every exit: success, contract failure, input error and a reader
    that left.  It freezes nothing in-process; only the exit hook does."""
    was_collecting, frozen = gc.isenabled(), gc.get_freeze_count()
    during = []
    real_load_spec = cli._load_spec

    def recording_load_spec(config):
        during.append(gc.isenabled())
        return real_load_spec(config)

    monkeypatch.setattr(cli, "_load_spec", recording_load_spec)
    (gc.enable if collecting else gc.disable)()
    try:
        for argv, status in [(["cusps"], 0), (["lattice", "--copies", "1"], 1),
                             (["enumerate", "--box=1:0"], 2)]:
            assert run(capsys, *argv)[0] == status
            assert (gc.isenabled(), gc.get_freeze_count()) == (collecting, frozen)
        monkeypatch.setattr(sys, "stdout", _GoneReader())
        assert main(["cusps"]) == 141
        sys.stdout.close()
        assert (gc.isenabled(), gc.get_freeze_count()) == (collecting, frozen)
        assert during == [False] * 3
    finally:
        (gc.enable if was_collecting else gc.disable)()


def test_the_heap_is_frozen_at_exit_with_stdout_whole():
    """The CLI registers ``gc.freeze`` at import, so a hook registered
    before that import runs after it and finds the heap frozen, with the
    output still flushed byte for byte."""
    code = ("import atexit, gc, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
            "from dehn24.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", code, "fill"] + ["3,3"] * 5,
                          capture_output=True, env=_child_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"True\n")
    assert proc.stdout == (GOLDEN / "fill_3_3.out").read_bytes()


def test_records_leave_no_cyclic_garbage(capsys):
    """Collecting is safe to skip while a command runs because its cyclic
    garbage does not grow with the box: a collection after 1,024 records
    finds as many unreachable objects as after one."""
    was_collecting = gc.isenabled()
    gc.disable()
    try:
        assert run(capsys, "enumerate", "--box=0:0")[0] == 0
        gc.collect()
        found = []
        for box in ("--box=0:0", "--box=0:1"):
            assert run(capsys, "enumerate", box)[0] == 0
            found.append(gc.collect())
        assert found[0] == found[1]
    finally:
        if was_collecting:
            gc.enable()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dehn24.cli", "build", "--format", "jsonl"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["chi"] == 1


def test_exact_decimal_refuses_a_value_off_the_enclosure_grid():
    """Bounds render on flatgeom's 10^-13 grid; a value off it raises
    rather than print the digits of a rounded value."""
    assert cli._exact_decimal(Fraction(-1, 10 ** 13)) == "-0.0000000000001"
    assert cli._exact_decimal(Fraction(7, 2)) == "3.5000000000000"
    for x in (Fraction(1, 3), Fraction(1, 10 ** 15)):
        with pytest.raises(ValueError, match="not a multiple of 10\\^-13"):
            cli._exact_decimal(x)


def test_jsonl_bounds_are_the_enclosures_of_their_squared_lengths(capsys):
    code, out, _ = run(capsys, "fill", "--format", "jsonl", *["3,3"] * 5)
    assert code == 0
    for length in json.loads(out)["lengths"]:
        assert (Fraction(length["lo"]), Fraction(length["hi"])) == _sqrt_enclosure(
            Fraction(length["sq"]))


def test_search_leaves_through_pairing_files(capsys, tmp_path, search_demo):
    """The 53 leaves of the search demo's slice (0, 1), each read from a
    pairing file by ``build --copies 2``, ``peripheral`` and ``lattice``.
    The exit statuses are pinned by kind; the 14 leaves with no CW
    quotient refuse all three as input errors.  A run prints on stdout
    only when it succeeds, and a failed one prints one short ``error:``
    line."""
    statuses = collections.Counter()
    for n, spec in enumerate(search_demo.Search({0, 1}).run()):
        path = tmp_path / f"leaf{n}.txt"
        path.write_text(_pairing_text(spec, [(p.facet_a, p.facet_b, p.vertex_map)
                                             for p in spec.pairings]))
        codes = []
        for argv in (["build", "--copies", "2"], ["peripheral"], ["lattice"]):
            code, out, err = run(capsys, *argv, "--pairing", str(path))
            if code == 0:
                assert out and err == "", (n, argv)
            else:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
                assert len(err.encode()) < 400, (n, argv)
            codes.append(code)
        statuses[tuple(codes)] += 1
    assert statuses == {(0, 1, 1): 34, (2, 2, 2): 14, (0, 1, 0): 4, (0, 0, 0): 1}


class _Reached(Exception):
    """Raised in place of reading the pairing: the input was accepted."""


def _reach(args):
    raise _Reached


_RATIONALS = ["1e999", "1e1001", "1e-99999", "9" * 1001, "1/0", "x", "",
              "١٠", "1_0", "1", "3/2", "1/1000", "-1", "0"]
_PAIRS = ["3,3", "-1,0", "0,0", "1", "1,2,3", "a,b", "", "١,٢", "1e5,2",
          "9" * 1001 + ",1", "1/2,1", "1;2"]
_OVERLAP = " exceeds the largest embedded cusp scale 1"


def _random_box(rng):
    count = rng.choice([1, 2, 9, 10, 11])
    ranges = []
    for _ in range(count):
        lo, hi = rng.randint(-2, 2), rng.randint(-2, 2)
        ranges.append(f"{lo}:{hi}" if rng.random() < 0.8 else f"{max(lo, hi) + 1}:{min(lo, hi)}")
    return ",".join(ranges)


_OPTIONS = {
    "--pairing": lambda rng: ["p" * 500],
    "--copies": lambda rng: [rng.choice(["1", "2", "3"])],
    "--format": lambda rng: [rng.choice(["table", "jsonl", "xml"])],
    "--scale": lambda rng: [rng.choice(_RATIONALS)],
    "--balance-c": lambda rng: [rng.choice(_RATIONALS)],
    "--box": lambda rng: [_random_box(rng)],
    "--threads": lambda rng: [rng.choice(["0", "1", "64", "65"])],
    "--frobnicate": lambda rng: [],
}
_COMMON = ("--pairing", "--copies", "--format")
_TAKES = {"build": _COMMON, "cusps": _COMMON, "peripheral": _COMMON,
          "lattice": _COMMON + ("--scale",),
          "fill": _COMMON + ("--scale", "--balance-c"),
          "enumerate": _COMMON + ("--scale", "--balance-c", "--box", "--threads"),
          "frobnicate": ()}


def _random_argv(rng):
    """A subcommand (or an unknown one) with zero to three options, each
    one it takes but one time in six any option, holding values at and
    past every bound the options check."""
    command = rng.choice(list(_TAKES))
    argv = [command]
    for _ in range(rng.randint(0, 3)):
        names = _TAKES[command]
        name = rng.choice(list(_OPTIONS) if rng.random() < 1 / 6 or not names else names)
        argv += [name, *_OPTIONS[name](rng)]
    if command == "fill":
        argv += [rng.choice(_PAIRS) for _ in range(rng.randint(4, 6))]
    return argv


def test_bad_argument_corpus_stops_before_set_up_or_refuses(capsys, monkeypatch):
    """600 seeded argument lists, with reading the pairing replaced by a
    sentinel: each call reaches the sentinel, or ends in argparse's
    SystemExit(2) or in status 2 with one ``error:`` line, in under a
    second and with nothing on stdout.  A scale above the embedded bound
    also ends ``fill`` and ``enumerate`` with status 1 before the pairing
    is read, and is the one refusal that prints its value whole (so the
    only stderr line of 400 bytes or more)."""
    monkeypatch.setattr(cli, "_load_spec", _reach)
    rng = random.Random(31)
    endings = collections.Counter()
    for _ in range(600):
        argv = _random_argv(rng)
        start = time.perf_counter()
        try:
            ending = main(argv)
        except _Reached:
            ending = "set-up"
        except SystemExit as exc:
            assert exc.code == 2, argv
            ending = "usage"
        assert time.perf_counter() - start < 1, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        lines = err.splitlines()
        overlap = [line for line in lines if _OVERLAP in line]
        assert all(len(line.encode()) < 400 for line in lines if line not in overlap), argv
        if ending == "usage":
            assert lines[0].startswith("usage: dehn24") and ": error: " in lines[-1], argv
            assert all(": error: " not in line for line in lines[:-1]), argv
        elif ending == "set-up":
            assert lines == [] or (argv[0] == "lattice" and lines == overlap
                                   and len(lines) == 1 and lines[0].startswith("note: ")), argv
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), argv
            assert ending == 2 or (ending == 1 and lines == overlap), argv
        endings[ending] += 1
    assert endings == {"usage": 290, "set-up": 252, 2: 56, 1: 2}
