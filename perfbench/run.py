#!/usr/bin/env python3
"""Benchmark of the dehn24 pipeline, driven from outside the package.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from its
``src`` directory.  Every measured invocation is a fresh interpreter,
one at a time, because the package caches homology bases, geometries
and cusp sections for the life of a process and every command-line
user pays the cold cost.  Workloads (the seed sets only the inputs):

certify  cold ``dehn24 fill`` runs on one tuple of five b,c pairs drawn
         from [-10, 10], and a cold one-tuple ``enumerate`` on the same
         tuple.  Almost all of it is set-up: gluing, homology and the
         peripheral system.
sweep    a cold one-tuple ``enumerate`` at the corner of a box of fixed
         shape whose position the seed draws inside [-10, 10]^10, then
         cold runs of ``enumerate`` over the whole box.  Per-record filling,
         flat geometry and rendering dominate the second.
search   the demo's ridge-pruned search and invariant cascade, one cold
         process per slice, over the four slices (pairs of free support
         classes) whose stage counts equal the demo's default slice; the
         seed sets the order.  Other slices do up to 1.5x more or less
         work, which would make the seed change the amount of work.

Untraced runs (--trace 0) print the end-to-end metrics; traced runs
(--trace 1) trace each layer in separate processes and print the
per-layer metrics.  Outputs are checked on every run (see gate.py); the
last line of stdout is the JSON result.
"""

import argparse
import compileall
import hashlib
import itertools
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEMO = ROOT / "demos" / "search_side_pairings.py"
OUT = BENCH / "out"
CLI = "import sys; from dehn24.cli import main; sys.exit(main())"
SWEEP_SHAPE = (3, 3, 3, 3, 3, 3, 3, 1, 1, 1)
SEARCH_CLASS = (53, 52, 12, 12, 3, 1, 1)  # stage counts of the demo's default slice
STAGES = ("cusp_pattern", "h1_z2_6", "nonorientable", "manifold_build",
          "full_homology", "double_cover")
RUN_LIMIT_S = 170
BURST_GAP_S = 0.005
REFERENCE_S = 0.3  # calibration run time that defines the reported seconds
COLD_COMMANDS = {
    "build": ["build"],
    "build2": ["build", "--copies", "2"],
    "cusps": ["cusps"],
    "peripheral": ["peripheral"],
    "lattice": ["lattice"],
}


class Run:
    """One invocation: its timings, output and peak memory."""

    def __init__(self, argv, deadline):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        chunks, err = [], []
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, chunks)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        key.data.append((time.perf_counter(), data))
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        self.end = time.perf_counter()
        self.status = proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.wall = self.end - self.start
        self.out = b"".join(data for _, data in chunks)
        self.err = b"".join(data for _, data in err).decode(errors="replace")
        self.rss_mb = usage.ru_maxrss / 1024
        self.first_out = chunks[0][0] - self.start if chunks else self.wall
        # Lines per second while output flows: the lines after the first
        # burst of output over the time from that burst to the last.  A
        # burst is reads less than BURST_GAP_S apart, so this holds whether
        # the program writes line by line or in blocks.
        bursts = []  # [time of last read, lines]
        for t, data in chunks:
            if bursts and t - bursts[-1][0] < BURST_GAP_S:
                bursts[-1][0] = t
                bursts[-1][1] += data.count(b"\n")
            else:
                bursts.append([t, data.count(b"\n")])
        self.rate = None
        if len(bursts) > 1:
            self.rate = sum(n for _, n in bursts[1:]) / (bursts[-1][0] - bursts[0][0])


class Bench:
    """One benchmark run: its clock, its operations and their failures."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.deadline = self.start + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.calibrations = []

    def calibrate(self):
        run = self.run([str(BENCH / "calibrate.py")])
        if run.status != 0:
            raise RuntimeError(f"calibration failed: {run.err.strip()[-300:]}")
        self.calibrations.append(run.wall)
        return run.wall

    def fail(self, what, n=1):
        self.failed += n
        if len(self.problems) < 10:
            self.problems.append(what)

    def run(self, argv):
        return Run([sys.executable] + argv, self.deadline)

    def cli(self, args):
        return self.run(cli(args))

    def timed(self, argv):
        """A measured invocation, between two calibration runs; sets run.scale."""
        before = self.calibrations[-1] if self.calibrations else self.calibrate()
        run = self.run(argv)
        run.scale = REFERENCE_S / ((before + self.calibrate()) / 2)
        return run

    def exited(self, run, label, items=0):
        """Count an invocation and the items it owes; all fail unless it exits 0."""
        self.attempted += 1 + items
        if run.status != 0:
            self.fail(f"{label}: exit {run.status}: {run.err.strip()[-300:]}", 1 + items)
        return run.status == 0

    def records(self, run, tuples, label):
        """Gate a jsonl command's output; count the invocation and each record."""
        if not self.exited(run, label, len(tuples)):
            return False
        n, bad, problems = gate.stream_errors(run.out, tuples)
        self.attempted += n - len(tuples)
        if bad:
            self.fail(f"{label}: {'; '.join(problems)}", bad)
        digest = hashlib.sha256(run.out).hexdigest()
        if self.digests.setdefault(label, digest) != digest:
            self.fail(f"{label}: output differs from an earlier run of the same input")
        return not bad

    def same(self, a, b, label):
        if a != b:
            self.fail(f"{label}: outputs that must be byte-identical differ")

    def repeat(self, steps):
        """Run every step once, then the steps in turn while the next fits in the seconds."""
        took = {}
        for i in itertools.count():
            step = steps[i % len(steps)]
            if (i >= len(steps)
                    and time.perf_counter() - self.start + took[step] > self.seconds):
                return
            t0 = time.perf_counter()
            step()
            took[step] = time.perf_counter() - t0

    def result(self, metrics):
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


# -- inputs ------------------------------------------------------------

def certify_tuple(seed):
    rng = random.Random(f"certify-{seed}")
    return tuple((rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(5))


def sweep_box(seed):
    rng = random.Random(f"sweep-{seed}")
    box = []
    for width in SWEEP_SHAPE:
        lo = rng.randint(-10, 11 - width)
        box.append((lo, lo + width - 1))
    return tuple(box)


def search_slices(seed):
    """The slices with the demo's default stage counts, in a seeded order."""
    stages = json.loads((BENCH / "search_stages.json").read_text())
    keys = [key for key, counts in stages.items() if tuple(counts) == SEARCH_CLASS]
    random.Random(f"search-{seed}").shuffle(keys)
    return keys


def cli(args):
    """Arguments that run the ``dehn24`` console script's entry point."""
    return ["-c", CLI] + args


def fill_args(pairs):
    return ["fill", "--format", "jsonl", "--"] + [f"{b},{c}" for b, c in pairs]


def enumerate_args(box):
    return ["enumerate", "--format", "jsonl", "--threads", "1",
            "--box=" + ",".join(f"{lo}:{hi}" for lo, hi in box)]


def flat(pairs):
    return tuple(x for pair in pairs for x in pair)


def box_tuples(box):
    return list(itertools.product(*(range(lo, hi + 1) for lo, hi in box)))


# -- untraced workloads ------------------------------------------------
#
# On a shared machine the speed drifts by 30% or more over minutes, far
# beyond any useful bound.  Every measured invocation therefore runs
# between two cold runs of calibrate.py, and each time is scaled by
# REFERENCE_S over the mean of those two.  The metrics are medians of
# the scaled times: seconds on a machine where the calibration takes
# REFERENCE_S.  The program never runs inside the calibration, so a
# change to it moves the scaled time exactly as much as the wall time.

def metric(value, unit):
    return {"value": value, "unit": unit}


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def scaled(runs, time_of=lambda run: run.wall):
    return median(time_of(run) * run.scale for run in runs)


def certify(bench, seed):
    pairs = certify_tuple(seed)
    tup = flat(pairs)
    fills, setups = [], []

    def fill():
        run = bench.timed(cli(fill_args(pairs)))
        if bench.records(run, [tup], "fill"):
            fills.append(run)

    def one():
        run = bench.timed(cli(enumerate_args([(x, x) for x in tup])))
        if bench.records(run, [tup], "enumerate-one"):
            setups.append(run)
            if fills:
                bench.same(fills[0].out, run.out, "fill vs one-tuple enumerate")

    # Two fills per set-up run: verdict_s is the metric this workload is for.
    bench.repeat([fill, fill, one])
    verdict = scaled(fills)
    return {
        "verdict_s": metric(verdict, "s"),
        "setup_s": metric(scaled(setups), "s"),
        "first_record_s": metric(scaled(fills, lambda run: run.first_out), "s"),
        "items_per_s": metric(1 / verdict if verdict else None, "1/s"),
        "peak_rss_mb": metric(median(run.rss_mb for run in fills), "MB"),
    }


def sweep(bench, seed):
    box = sweep_box(seed)
    tuples = box_tuples(box)
    boxes, setups = [], []

    def one():
        run = bench.timed(cli(enumerate_args([(x, x) for x in tuples[0]])))
        if bench.records(run, tuples[:1], "enumerate-one"):
            setups.append(run)

    def whole():
        run = bench.timed(cli(enumerate_args(box)))
        if bench.records(run, tuples, "enumerate-box"):
            boxes.append(run)
            if setups:
                bench.same(setups[0].out, run.out[:len(setups[0].out)],
                           "one-tuple vs box enumerate")

    # Three boxes per set-up run: three of the metrics come from the box.
    bench.repeat([one, whole, whole, whole])
    return {
        "verdict_s": metric(scaled(boxes), "s"),
        "setup_s": metric(scaled(setups), "s"),
        "first_record_s": metric(scaled(boxes, lambda run: run.first_out), "s"),
        "items_per_s": metric(median(run.rate / run.scale for run in boxes if run.rate),
                              "1/s"),
        "peak_rss_mb": metric(median(run.rss_mb for run in boxes), "MB"),
    }


def search_run(bench, key, trace_to=None, timed=False):
    """One cold search of one slice; returns (run, report) or None on failure."""
    expected = list(SEARCH_CLASS)
    argv = [str(BENCH / "child.py"), "search", key]
    if trace_to:
        argv += ["--out", str(trace_to)]
    run = bench.timed(argv) if timed else bench.run(argv)
    if not bench.exited(run, f"search {key}", expected[0]):
        return None
    try:
        report = json.loads(trace_to.read_text() if trace_to else run.out)
    except (ValueError, OSError) as exc:
        errors = [f"no report: {exc}"]
    else:
        errors = gate.search_errors(report, expected)
    if errors:
        bench.fail(f"search {key}: {'; '.join(errors)}", 1 + expected[0])
        return None
    return run, report


def search(bench, seed):
    slices = search_slices(seed)
    runs = {key: [] for key in slices}
    order = itertools.cycle(slices)

    def screen():
        key = next(order)
        got = search_run(bench, key, timed=True)
        if got:
            run, run.report = got
            runs[key].append(run)

    def per_slice(value):
        """Mean over the slices of each slice's median, so every slice weighs the same."""
        medians = [median(value(run) for run in own) for own in runs.values() if own]
        return statistics.mean(medians) if medians else None

    bench.repeat([screen])
    return {
        "verdict_s": metric(per_slice(lambda run: run.wall * run.scale), "s"),
        "setup_s": metric(per_slice(
            lambda run: (run.report["t_setup"] - run.start) * run.scale), "s"),
        "first_record_s": metric(per_slice(
            lambda run: (run.report["t_first"] - run.start) * run.scale), "s"),
        "items_per_s": metric(per_slice(
            lambda run: run.report["leaves"]
            / ((run.report["t_end"] - run.report["t_setup"]) * run.scale)), "1/s"),
        "peak_rss_mb": metric(per_slice(lambda run: run.rss_mb), "MB"),
    }


# -- traced run --------------------------------------------------------

def spans_total(spans, name, after=None):
    return sum(e - s for n, s, e, _ in spans if n == name and (after is None or s >= after))


def self_times(spans, wall):
    """Per span name: calls, total and self time; plus the process itself."""
    child_time = [0.0] * len(spans)
    for name, s, e, parent in spans:
        if parent is not None:
            child_time[parent] += e - s
    table = {}
    for (name, s, e, parent), inner in zip(spans, child_time):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += e - s
        row[2] += e - s - inner
    top = sum(e - s for _, s, e, parent in spans if parent is None)
    table["(process: start-up, exit)"] = [1, wall, wall - top]
    return table


# Spans around a whole command rather than a call into a layer.
COMMAND_SPANS = ("cli.main", "search.cascade")


def residue(spans, wall):
    """Wall time outside every layer span: start-up, argument parsing, rendering."""
    table = self_times(spans, wall)
    return sum(table[name][2] for name in COMMAND_SPANS if name in table) + \
        table["(process: start-up, exit)"][2]


def traced(bench, workload, seed):
    """Per-layer metrics: every command traced in a cold process of its own.

    The untraced twin of the workload's own command runs just before
    the traced one, so the two see the same machine state.
    """
    OUT.mkdir(exist_ok=True)
    pairs, box = certify_tuple(seed), sweep_box(seed)
    tuples = box_tuples(box)
    key = search_slices(seed)[0]
    path = OUT / f"spans-{os.getpid()}.json"

    def spans(argv, check):
        run = bench.run([str(BENCH / "child.py")] + argv + ["--out", str(path)])
        if not check(run):
            return None
        data = json.loads(path.read_text())
        path.unlink()
        data["wall"] = data["t_dump"] - run.start
        return data

    untraced = {"fill": bench.cli(fill_args(pairs))}
    bench.records(untraced["fill"], [flat(pairs)], "fill")
    fill = spans(["cli", "--"] + fill_args(pairs),
                 lambda run: bench.records(run, [flat(pairs)], "fill"))
    if workload == "sweep":
        untraced["sweep"] = bench.cli(enumerate_args(box))
        bench.records(untraced["sweep"], tuples, "enumerate-box")
    enum = spans(["cli", "--"] + enumerate_args(box),
                 lambda run: bench.records(run, tuples, "enumerate-box"))
    probe = spans(["probe"], lambda run: bench.exited(run, "probe"))
    if workload == "search":
        got = search_run(bench, key)
        untraced["search"] = got[0] if got else None
    got = search_run(bench, key, trace_to=path)
    search_trace = None
    if got:
        search_trace = dict(got[1], wall=got[1]["t_dump"] - got[0].start)
        path.unlink()
    cold = {name: bench.cli(args) for name, args in COLD_COMMANDS.items()}
    cold = {name: run.wall for name, run in cold.items() if bench.exited(run, name)}
    cold["fill"] = untraced["fill"].wall
    mine = {"certify": fill, "sweep": enum, "search": search_trace}[workload]
    twin = untraced.get(workload, untraced["fill"])
    if bench.failed or None in (fill, enum, probe, search_trace, twin):
        return None, {}
    untraced_wall = twin.wall

    F, E, P, S = fill["spans"], enum["spans"], probe["spans"], search_trace["spans"]
    records = len(tuples)
    setup_end = max(e for n, _, e, _ in E if n == "chains.euler_characteristic")
    main_end = next(e for n, _, e, _ in E if n == "cli.main")
    per_tuple = {
        "filling.adapted_slopes_us": "filling.adapted_slopes",
        "filling.is_homology_sphere_us": "filling.is_homology_sphere",
        "flatgeom.slope_lengths_us": "flatgeom.slope_length",
        "flatgeom.two_pi_ok_us": "flatgeom.two_pi_ok",
    }
    per_tuple_s = {m: spans_total(E, n, after=setup_end) for m, n in per_tuple.items()}
    values = {
        "cli.import_s": spans_total(F, "cli.import"),
        "cli.render_us": (main_end - setup_end - sum(per_tuple_s.values())) / records * 1e6,
        **{f"cli.cold_s.{name}": wall for name, wall in cold.items()},
        "polytope.build_24cell_s": spans_total(P, "polytope.build_24cell"),
        "polytope.truncate_s": spans_total(P, "polytope.truncate"),
        "gluing.census_pairing_s": spans_total(F, "gluing.census_pairing"),
        "gluing.quotient_complex_s.copies1": spans_total(P, "gluing.quotient_complex.copies1"),
        "gluing.quotient_complex_s.copies2": spans_total(F, "gluing.quotient_complex.copies2"),
        **{f"gluing.{n}_s": spans_total(S, f"gluing.{n}")
           for n in ("validate_spec", "vertex_cycles", "presentation", "orientation_character")},
        **{f"gluing.cells.copies2.d{k}": n for k, n in enumerate(probe["cells"])},
        "gluing.boundary_nnz.copies2": probe["boundary_nnz"],
        **{f"chains.homology_s.copies2.H{k}": spans_total(P, f"chains.homology.copies2.H{k}")
           for k in (1, 2, 3)},
        "chains.homology_s.copies1": spans_total(S, "chains.homology.copies1"),
        "chains.homology_cache.hits": fill["cache_hits"],
        "chains.homology_cache.misses": fill["cache_misses"],
        "intlinalg.kernel_basis_s.copies2.d1": spans_total(P, "intlinalg.kernel_basis.copies2.d1"),
        "intlinalg.snf_s.copies2.d2": spans_total(P, "intlinalg.snf.copies2.d2"),
        "peripheral.cusp_sections_s": spans_total(P, "peripheral.cusp_sections"),
        "peripheral.peripheral_system_s": spans_total(F, "peripheral.peripheral_system"),
        "flatgeom.develop_lattice_s": spans_total(F, "flatgeom.develop_lattice"),
        **{m: s / records * 1e6 for m, s in per_tuple_s.items()},
        "sweep.records": records,
        "search.leaves": search_trace["leaves"],
        **{f"search.stage.{name}": n for name, n in zip(STAGES, search_trace["stages"][1:])},
        "search.generate_s": spans_total(S, "search.generate"),
        "trace.traced_s": mine["wall"],
        "trace.untraced_s": untraced_wall,
        "trace.overhead_s": mine["wall"] - untraced_wall,
        "trace.residue_s": residue(mine["spans"], mine["wall"]),
    }
    tables = {label: self_times(data["spans"], data["wall"])
              for label, data in (("fill", fill), ("enumerate", enum), ("probe", probe),
                                  ("search", search_trace))}
    (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "self_times": tables,
         "spans": {"fill": F, "enumerate": E, "probe": P, "search": S}}))
    return tables, values


def print_tables(tables):
    for label, table in tables.items():
        print(f"self time per span, traced {label} (calls, total s, self s):")
        for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:40} {calls:6d} {total:10.4f} {own:10.4f}")


# -- entry -------------------------------------------------------------

WORKLOADS = {"certify": certify, "sweep": sweep, "search": search}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dehn24" / "cli.py").is_file() or not DEMO.is_file():
        print(f"error: {ROOT} is not a dehn24 source checkout (no src/dehn24 "
              f"or demos/search_side_pairings.py)", file=sys.stderr)
        return 2
    # Users run installed, byte-compiled code; compile once up front so
    # the first measured start-up does not pay for it.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_file(str(DEMO), quiet=1)

    bench = Bench(args.seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        tables, values = traced(bench, args.workload, args.seed)
        if tables:
            print_tables(tables)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: metric(values.get(name), unit) for name, unit in units.items()}
    else:
        metrics = WORKLOADS[args.workload](bench, args.seed)
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing and not bench.failed:
        bench.fail(f"no measurement for {', '.join(missing)}")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    if bench.calibrations:
        print(f"calibration: median {median(bench.calibrations)} s over "
              f"{len(bench.calibrations)} runs; times are scaled to {REFERENCE_S} s")
    print(f"failed_frac = {bench.failed / max(bench.attempted, 1)} "
          f"({bench.failed} of {bench.attempted} operations)")
    print(json.dumps(bench.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
