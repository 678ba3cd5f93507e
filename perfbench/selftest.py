#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs; exits non-zero on a failure.

    python3 perfbench/selftest.py

Runs one two-tuple ``enumerate``, shows that the gate passes its real
output and fails each corrupted copy (a flipped two_pi, a dropped,
reordered or altered record, a changed digest), checks the search gate
against the recorded stage counts, and checks that the benchmark
refuses to run where the package is missing.  Takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import gate
import run

FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def corrupt(out, index, change):
    lines = out.split(b"\n")
    rec = json.loads(lines[index])
    change(rec)
    lines[index] = json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
    return b"\n".join(lines)


def gate_fails(out, tuples):
    _, bad, _ = gate.stream_errors(out, tuples)
    return bad > 0


def main():
    bench = run.Bench(seconds=1)
    box = ((2, 3),) + ((4, 4),) * 9
    tuples = run.box_tuples(box)
    result = bench.cli(run.enumerate_args(box))
    check(result.status == 0, "two-tuple enumerate exits 0")
    out = result.out
    check(not gate_fails(out, tuples), "gate passes the real output")
    check(bench.records(result, tuples, "box") and bench.failed == 0,
          "bench counts the real output as correct")

    def flip_two_pi(rec):
        rec["two_pi"] = not rec["two_pi"]

    def shorten(rec):
        rec["lengths"][0].update(sq="39", lo="6.2", hi="6.3")

    def not_sphere(rec):
        rec["sphere"] = False

    def torsion(rec):
        rec["h1"] = "Z_2"

    def loose_bounds(rec):
        rec["lengths"][2]["hi"] = rec["lengths"][2]["lo"]

    lines = out.split(b"\n")
    for what, bad in [
            ("flipped two_pi", corrupt(out, 1, flip_two_pi)),
            ("a squared length below 4 pi^2 with two_pi true", corrupt(out, 0, shorten)),
            ("sphere false", corrupt(out, 0, not_sphere)),
            ("non-trivial h1", corrupt(out, 1, torsion)),
            ("an enclosure that misses its square", corrupt(out, 0, loose_bounds)),
            ("a dropped record", b"\n".join(lines[1:])),
            ("a duplicated record", b"\n".join(lines[:1] + lines)),
            ("swapped records", b"\n".join([lines[1], lines[0]] + lines[2:])),
            ("a missing final newline", out[:-1]),
            ("garbage", b"not json\n")]:
        check(gate_fails(bad, tuples), f"gate fails {what}")

    before = bench.failed
    result.out = corrupt(out, 1, flip_two_pi)
    bench.records(result, tuples, "box")
    check(bench.failed > before, "bench counts a corrupted rerun as failed")
    respaced = b"".join(json.dumps(json.loads(line)).encode() + b"\n"
                        for line in out.splitlines())
    check(not gate_fails(respaced, tuples), "gate passes records with other spacing")
    before = bench.failed
    result.out = respaced
    bench.records(result, tuples, "box")
    check(bench.failed == before + 1, "a rerun with other bytes fails the digest check")

    check(gate.expected_two_pi([Fraction(40)] * 5) is True, "40 > 4 pi^2")
    check(gate.expected_two_pi([Fraction(39)] + [Fraction(40)] * 4) is False, "39 < 4 pi^2")
    check(gate.expected_two_pi([Fraction("39.478415")] * 5) is None,
          "a square inside the enclosure is undecided")

    slices = run.search_slices(0)
    check(sorted(slices) == sorted(run.search_slices(1)) and len(set(slices)) == 4,
          "search rotates through the four slices of the demo's stage counts")
    counts = list(run.SEARCH_CLASS)
    good = {"stages": counts, "leaves": counts[0], "bundled": True}
    check(not gate.search_errors(good, counts), "search gate passes recorded counts")
    check(bool(gate.search_errors(dict(good, bundled=False), counts)),
          "search gate fails when the bundled pairing is lost")
    check(bool(gate.search_errors(dict(good, stages=counts[:-1] + [0]), counts)),
          "search gate fails on a changed stage count")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((run.BENCH / "layers.json").read_text())
    check([m["name"] for m in spec["per_layer"]] == list(layers["per_layer_moves"]),
          "layers.json maps every per-layer metric of BENCHMARK.json")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    alone = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    check(alone.returncode != 0 and not alone.stdout.strip(),
          "refuses to run without the package, printing no result")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
