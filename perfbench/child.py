"""One measured program run of the benchmark, in a fresh interpreter.

``run.py`` starts this script once per measured invocation, so every
run pays the cold cost a command-line user pays (the package caches
homology bases, geometries and cusp sections for the life of a
process).  Modes:

    child.py search SLICE              untraced search of one slice
    child.py search SLICE --out F      the same, traced
    child.py cli --out F -- ARGS...    traced ``dehn24 ARGS...``
    child.py probe --out F             traced cold calls, one per layer

SLICE names the two free support classes of the search, as ``i,j``.
Traced modes record a span (name, start, end, parent) around every
public call the program makes into a layer and write the spans to F
as JSON; the untraced search prints its timestamps on stdout.  The
``cli`` and ``probe`` modes are always traced.  All
times are ``time.perf_counter()`` readings, which share one clock with
the parent process.
"""

import os
import sys
import time


class Tracer:
    """Spans kept in memory and written out when the run ends."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, module, attr, name):
        """Replace ``module.attr`` by a copy that records one span per call.

        ``name`` is a span name or a function of the call's arguments
        returning one.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            self.begin(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        setattr(module, attr, traced)

    def dump(self, path, **extra):
        import json
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def _copies_name(prefix):
    return lambda spec, copies=1: f"{prefix}.copies{copies}"


def run_cli(tracer, argv):
    """The CLI command, with spans around each public call it makes."""
    tracer.begin("cli.import")
    from dehn24 import cli
    tracer.end()
    for attr, name in [
            ("census_pairing", "gluing.census_pairing"),
            ("quotient_complex", _copies_name("gluing.quotient_complex")),
            ("peripheral_system", "peripheral.peripheral_system"),
            ("cusp_sections", "peripheral.cusp_sections"),
            ("develop_lattice", "flatgeom.develop_lattice"),
            ("euler_characteristic", "chains.euler_characteristic"),
            ("adapted_slopes", "filling.adapted_slopes"),
            ("is_homology_sphere", "filling.is_homology_sphere"),
            ("slope_length", "flatgeom.slope_length"),
            ("two_pi_ok", "flatgeom.two_pi_ok")]:
        tracer.wrap(cli, attr, name)
    tracer.begin("cli.main")
    try:
        status = cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.end()
    from dehn24.chains import homology_basis
    info = homology_basis.cache_info()
    return status, {"cache_hits": info.hits, "cache_misses": info.misses}


def run_probe(tracer):
    """Cold calls into each layer on the bundled pairing and its cover."""
    from dehn24 import chains, gluing, intlinalg, peripheral, polytope

    def timed(name, fn, *args, **kwargs):
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    lattice = timed("polytope.build_24cell", polytope.build_24cell)
    timed("polytope.truncate", polytope.truncate, lattice)
    spec = timed("gluing.census_pairing", gluing.census_pairing)
    timed("gluing.quotient_complex.copies1", gluing.quotient_complex, spec)
    cover = timed("gluing.quotient_complex.copies2", gluing.quotient_complex,
                  spec, copies=2)
    timed("peripheral.cusp_sections", peripheral.cusp_sections, cover)
    for k in (1, 2, 3):
        timed(f"chains.homology.copies2.H{k}", chains.homology, cover.chain, k)
    d = cover.chain.boundary
    timed("intlinalg.kernel_basis.copies2.d1", intlinalg.kernel_basis, d[1])
    timed("intlinalg.snf.copies2.d2", intlinalg.snf, d[2])
    nnz = sum(1 for m in d for i in range(m.rows) for x in m.row(i) if x)
    return 0, {"cells": [cover.chain.cell_count(k) for k in range(cover.chain.top_dim + 1)],
               "boundary_nnz": nnz}


def run_search(tracer, free, traced):
    """The demo's ridge-pruned search on one slice, then its cascade.

    The cascade runs on the first leaf alone, then on the rest, so the
    time to the first screened leaf is known without instrumenting it.
    """
    import contextlib
    import importlib.util
    import io

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tracer.begin("search.import")
    loader = importlib.util.spec_from_file_location(
        "search_side_pairings", os.path.join(root, "demos", "search_side_pairings.py"))
    demo = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(demo)
    tracer.end()
    census_pairing = demo.census_pairing
    if traced:
        quotient_complex = demo.quotient_complex
        copies_of = {}

        def quotient(spec, copies=1):
            q = quotient_complex(spec, copies)
            copies_of[id(q.chain)] = copies
            return q

        def homology_name(chain, k):
            copies = copies_of.get(id(chain), 1)
            return f"chains.homology.copies{copies}" + (f".H{k}" if copies == 2 else "")

        demo.quotient_complex = quotient
        for attr in ("validate_spec", "vertex_cycles", "presentation",
                     "orientation_character", "census_pairing"):
            tracer.wrap(demo, attr, f"gluing.{attr}")
        tracer.wrap(demo, "quotient_complex", _copies_name("gluing.quotient_complex"))
        tracer.wrap(demo, "homology", homology_name)
        tracer.wrap(demo, "euler_characteristic", "chains.euler_characteristic")

    tracer.begin("search.generate")
    leaves = demo.Search(set(free)).run()
    tracer.end()
    t_setup = time.perf_counter()
    tracer.begin("search.cascade")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        survivors = demo.invariant_cascade(leaves[:1])
        t_first = time.perf_counter()
        survivors += demo.invariant_cascade(leaves[1:])
    tracer.end()
    t_end = time.perf_counter()
    counts = [0] * 7
    for i, line in enumerate(out.getvalue().splitlines()):
        counts[i % 7] += int(line.rsplit(":", 1)[1])
    shipped = demo.normalized(census_pairing())
    return 0, {"t_setup": t_setup, "t_first": t_first, "t_end": t_end,
               "leaves": len(leaves), "stages": counts,
               "bundled": shipped in [demo.normalized(s) for s in survivors]}


def main(argv):
    mode, rest = argv[0], argv[1:]
    out = None
    if "--out" in rest:
        i = rest.index("--out")
        out = rest[i + 1]
        rest = rest[:i] + rest[i + 2:]
    tracer = Tracer()
    if mode == "cli":
        status, extra = run_cli(tracer, rest[rest.index("--") + 1:])
    elif mode == "probe":
        status, extra = run_probe(tracer)
    elif mode == "search":
        free = tuple(int(x) for x in rest[0].split(","))
        status, extra = run_search(tracer, free, traced=out is not None)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if out:
        tracer.dump(out, t_dump=time.perf_counter(), **extra)
    else:
        import json
        print(json.dumps(extra))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
