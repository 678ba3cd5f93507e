"""Tests for the side-pairing search demo (``demos/search_side_pairings.py``).

The demo's ridge walk composes position triples from per-side triangle
tables, and its admissible maps come from each side's equatorial square.
The first version composed vertex dicts step by step and filtered all 24
permutations of the half vertices; both are kept here as oracles.  Every
two-free-class slice must also reproduce the stage counts the benchmark
gate checks, with the bundled pairing among its survivors, and the
cascade over slice (0, 1) must finish without a Smith form and without
building a relation matrix from columns.
"""

import collections
import itertools
import json
from pathlib import Path

import pytest

from dehn24 import chains, intlinalg
from test_intlinalg import _recording_snf

STAGES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "search_stages.json").read_text())


def oracle_admissible_maps(demo, a, b):
    """The eight maps by filtering every permutation of the half vertices."""
    va, vb = demo.FACETS[a], demo.FACETS[b]
    unit_b = {demo.UNIT_AXIS[v]: v for v in vb if demo.UNIT_AXIS[v] is not None}
    forced = {v: unit_b[demo.UNIT_AXIS[v]] for v in va if demo.UNIT_AXIS[v] is not None}
    half_a = [v for v in va if demo.UNIT_AXIS[v] is None]
    half_b = [v for v in vb if demo.UNIT_AXIS[v] is None]
    out = []
    for perm in itertools.permutations(half_b):
        cand = dict(forced)
        cand.update(zip(half_a, perm))
        if all((frozenset((cand[x], cand[y])) in demo.ADJACENT)
               == (frozenset((x, y)) in demo.ADJACENT)
               for x, y in itertools.combinations(va, 2)):
            out.append(cand)
    return out


def triangle_sides(demo):
    """Per triangle (a vertex triple) its two sides, and per side its triangles."""
    containing, side_triangles = {}, {}
    for f, members in enumerate(demo.FACETS):
        for t in demo.TRIANGLES:
            if set(members).issuperset(t):
                containing.setdefault(t, []).append(f)
                side_triangles.setdefault(f, []).append(t)
    return containing, side_triangles


def oracle_ridge_violation(tables, assignment, sides):
    """The ridge check composing vertex dicts along each walk; the
    assignment maps a side to (target, vertex map)."""
    containing, side_triangles = tables
    for f0 in sides:
        for t0 in side_triangles[f0]:
            f, t = f0, t0
            phi = {v: v for v in t0}
            for step in range(1, 5):
                if f not in assignment:
                    break
                target, psi = assignment[f]
                phi = {v: psi[w] for v, w in phi.items()}
                t = tuple(sorted(psi[v] for v in t))
                a, b = containing[t]
                f = b if target == a else a
                if (f, t) == (f0, t0):
                    if step < 4 or any(v != w for v, w in phi.items()):
                        return True
                    break
            else:
                return True
    return False


def oracle_search(demo, free):
    """The depth-first search with the oracles above: (nodes, leaves)."""
    classes = demo.support_classes()
    keys = list(classes)
    order = ([k for i, k in enumerate(keys) if i not in free]
             + [k for i, k in enumerate(keys) if i in free])
    shipped = demo.shipped_assignment()
    tables = triangle_sides(demo)
    nodes, leaves = [0], []

    def install(assignment, a, b, forward):
        assignment[a] = (b, forward)
        assignment[b] = (a, {w: v for v, w in forward.items()})

    def checked(assignment, sides):
        nodes[0] += 1
        return not oracle_ridge_violation(tables, assignment, sides)

    def descend(depth, assignment):
        if depth == len(order):
            leaves.append(demo.to_spec(assignment))
            return
        four = classes[order[depth]]
        if order[depth] not in [keys[i] for i in free]:
            glued = {a: shipped[a] for a in four if a < shipped[a][0]}
            for a, (b, forward) in glued.items():
                install(assignment, a, b, forward)
            if checked(assignment, four):
                descend(depth + 1, assignment)
            for a, (b, _) in glued.items():
                del assignment[a], assignment[b]
            return
        for (a1, b1), (a2, b2) in demo.matchings(four):
            for m1 in oracle_admissible_maps(demo, a1, b1):
                install(assignment, a1, b1, m1)
                if checked(assignment, (a1, b1)):
                    for m2 in oracle_admissible_maps(demo, a2, b2):
                        install(assignment, a2, b2, m2)
                        if checked(assignment, (a2, b2)):
                            descend(depth + 1, assignment)
                        del assignment[a2], assignment[b2]
                del assignment[a1], assignment[b1]

    descend(0, {})
    return nodes[0], leaves


def test_admissible_maps_match_the_permutation_filter(search_demo):
    pairs = [(a, b) for four in search_demo.support_classes().values()
             for a, b in itertools.permutations(four, 2)]
    assert len(pairs) == 72
    for a, b in pairs:
        got = search_demo.admissible_maps(a, b)
        assert len(got) == 8
        assert got == oracle_admissible_maps(search_demo, a, b)


# With three free classes some ridge cycles close after four steps with a
# nontrivial return map, so the identity check prunes there too.
@pytest.mark.parametrize("free, nodes, leaves", [((0, 1), 868, 53), ((0, 1, 2), 6691, 459)])
def test_ridge_walk_matches_the_dict_walk(search_demo, free, nodes, leaves):
    """Same nodes and the same leaves in the same order on a slice."""
    search = search_demo.Search(set(free))
    got = search.run()
    expected = oracle_search(search_demo, free)
    assert (search.nodes, len(got)) == (expected[0], len(expected[1])) == (nodes, leaves)
    assert got == expected[1]


@pytest.mark.parametrize("key", sorted(STAGES))
def test_slice_reproduces_its_stage_counts(search_demo, capsys, key):
    """The counts ``perfbench/search_stages.json`` holds, and the bundled
    pairing survives its slice."""
    leaves = search_demo.Search({int(x) for x in key.split(",")}).run()
    capsys.readouterr()
    survivors = search_demo.invariant_cascade(leaves)
    counts = [int(line.rsplit(":", 1)[1]) for line in capsys.readouterr().out.splitlines()]
    assert counts == STAGES[key]
    shipped = search_demo.normalized(search_demo.census_pairing())
    assert shipped in [search_demo.normalized(s) for s in survivors]


def _counting(counted, name, real):
    """``real``, counting each call under ``name``."""
    def call(*args, **kwargs):
        counted[name] += 1
        return real(*args, **kwargs)
    return call


def test_slice_cascade_runs_no_smith_form(search_demo, capsys, monkeypatch):
    """Cost guard: every relation matrix and boundary the cascade over
    slice (0, 1) reduces finishes on unit pivots, after content division,
    so ``intlinalg.snf`` is never called; the stage counts stay put.  The
    H1 screen writes its relation rows straight into the reduction, so
    no ``IntMatrix`` is built from columns and rows are transposed only
    for the four maps of each of the four complexes whose homology is
    taken (three quotients and one double cover)."""
    calls = _recording_snf(monkeypatch)
    counted = collections.Counter()
    monkeypatch.setattr(intlinalg.IntMatrix, "from_columns", staticmethod(
        _counting(counted, "from_columns", intlinalg.IntMatrix.from_columns)))
    monkeypatch.setattr(intlinalg, "_transposed",
                        _counting(counted, "_transposed", intlinalg._transposed))
    chains._boundary_invariants.cache_clear()
    leaves = search_demo.Search({0, 1}).run()
    capsys.readouterr()
    search_demo.invariant_cascade(leaves)
    counts = [int(line.rsplit(":", 1)[1]) for line in capsys.readouterr().out.splitlines()]
    assert counts == [53, 52, 12, 12, 3, 1, 1]
    assert calls == []
    assert (counted["from_columns"], counted["_transposed"]) == (0, 16)
