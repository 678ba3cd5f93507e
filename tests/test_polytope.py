"""Tests for the 24-cell face lattice and its truncation.

The face lattice is checked against a brute-force convex hull oracle
that knows nothing about the inner-product incidence rules the module
uses: it enumerates all supporting hyperplanes through quadruples of
vertices with exact fraction-free integer arithmetic on doubled
coordinates, then recovers every face as an intersection of facets and
classifies it by affine rank.  The truncated counts are checked against
flag-counting identities computed from the base lattice alone.
"""

import collections
import itertools
from fractions import Fraction

import pytest

from dehn24.polytope import HALF, _inner, build_24cell, embedded_cusp_scale, truncate


# ---------------------------------------------------------------------------
# Hull oracle.  Valid because the origin is interior (the vertex set is
# centrally symmetric), so every facet hyperplane can be scaled to
# <a, x> = 1 and is determined by any 4 affinely independent points on it.
# The oracle works on doubled coordinates, which are integers, and keeps
# every comparison exact without rational arithmetic in the inner loop.


def doubled(vertices):
    """The points times two, as integer vectors; every coordinate here is
    a multiple of 1/2."""
    out = [tuple(int(2 * x) for x in v) for v in vertices]
    assert all(2 * x == y for v, w in zip(vertices, out) for x, y in zip(v, w))
    return out


def solve_unit_hyperplane(points):
    """Solve <a, p> = 1 for 4 points given doubled, as integer vectors 2p.

    Fraction-free Gauss-Jordan on <a, 2p> = 2: each division is exact
    (Bareiss), and the system ends as d * a = x with d the determinant.
    Returns (x, d) with d > 0, or None if the points are degenerate.
    """
    rows = [list(p) + [2] for p in points]
    previous = 1
    for k in range(4):
        pivot = next((r for r in range(k, 4) if rows[r][k] != 0), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        pk = rows[k][k]
        for r in range(4):
            if r != k:
                f = rows[r][k]
                rows[r] = [(pk * x - f * y) // previous for x, y in zip(rows[r], rows[k])]
        previous = pk
    sign = 1 if previous > 0 else -1
    x, d = tuple(sign * rows[r][4] for r in range(4)), sign * previous
    assert all(sum(a * b for a, b in zip(x, p)) == 2 * d for p in points)
    return x, d


def oracle_facets(vertices):
    """All supporting hyperplanes <a, x> = 1 through at least 4 vertices."""
    points = doubled(vertices)
    facets = {}
    for quad in itertools.combinations(range(len(points)), 4):
        solved = solve_unit_hyperplane([points[i] for i in quad])
        if solved is None:
            continue
        x, d = solved
        # <a, v> = <x, 2v> / (2d), so <a, v> <= 1 iff <x, 2v> <= 2d.
        values = [sum(a * b for a, b in zip(x, p)) for p in points]
        if all(v <= 2 * d for v in values):
            members = tuple(i for i, v in enumerate(values) if v == 2 * d)
            facets[members] = tuple(Fraction(a, d) for a in x)
    return facets


def affine_rank(points):
    base = points[0]
    rows = [[x - y for x, y in zip(p, base)] for p in points[1:]]
    rank = 0
    for col in range(4):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def intersection_closure(facet_sets):
    faces = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        new = set()
        for f in frontier:
            for g in facet_sets:
                h = tuple(sorted(set(f) & set(g)))
                if h and h not in faces and h not in new:
                    new.add(h)
        faces |= new
        frontier = new
    return faces


@pytest.fixture(scope="module")
def lattice():
    return build_24cell()


@pytest.fixture(scope="module")
def trunc():
    return truncate()


@pytest.fixture(scope="module")
def hull(lattice):
    return oracle_facets(lattice.vertices)


def test_hull_oracle_recovers_face_lattice(lattice, hull):
    assert len(hull) == 24
    assert sorted(hull) == list(lattice.faces[3])
    by_dim = {0: set(), 1: set(), 2: set(), 3: set()}
    for members in intersection_closure(hull):
        pts = [lattice.vertices[i] for i in members]
        by_dim[affine_rank(pts)].add(members)
    by_dim[0] |= {(i,) for i in range(24)}  # vertices on no two facets do not occur here
    for dim in range(4):
        assert sorted(by_dim[dim]) == list(lattice.faces[dim]), dim


def test_hull_oracle_normals_match(lattice, hull):
    for members, a in hull.items():
        assert lattice.facet_normal[lattice.faces[3].index(members)] == a


def test_f_vector(lattice):
    assert lattice.f_vector() == (24, 96, 96, 24)
    # Euler relation for a 4-polytope boundary (a 3-sphere).
    assert 24 - 96 + 96 - 24 == 0


def test_vertices_are_units_and_halves(lattice):
    units = {tuple(Fraction(s) if k == i else Fraction(0) for k in range(4))
             for i in range(4) for s in (-1, 1)}
    halves = {v for v in lattice.vertices if v not in units}
    assert len(units) == 8 and len(halves) == 16
    assert all(all(abs(x) == HALF for x in v) for v in halves)
    assert all(_inner(v, v) == 1 for v in lattice.vertices)


def test_canonical_vertex_order(lattice):
    V = lattice.vertices

    def unit(i, s):
        return tuple(Fraction(s) if k == i else Fraction(0) for k in range(4))

    assert V[0] == unit(0, -1)
    assert V[23] == unit(0, 1)
    assert [V[i] for i in (9, 10, 11, 12, 13, 14)] == [
        unit(1, -1), unit(2, -1), unit(3, -1), unit(3, 1), unit(2, 1), unit(1, 1)]
    assert all(V[i][0] == -HALF for i in range(1, 9))
    assert all(V[i][0] == HALF for i in range(15, 23))


def test_edges_have_inner_product_half(lattice):
    edges = set(lattice.faces[1])
    for i, j in itertools.combinations(range(24), 2):
        expected = _inner(lattice.vertices[i], lattice.vertices[j]) == HALF
        assert ((i, j) in edges) == expected


def test_facets_are_octahedra(lattice):
    edges = set(lattice.faces[1])
    for members in lattice.faces[3]:
        assert len(members) == 6
        inside = [e for e in edges if set(e) <= set(members)]
        tris = [t for t in lattice.faces[2] if set(t) <= set(members)]
        assert len(inside) == 12 and len(tris) == 8
        # Non-edges pair up each vertex with a unique antipode.
        non = {frozenset(p) for p in itertools.combinations(members, 2)
               if p not in edges}
        assert len(non) == 3 and len(set().union(*non)) == 6


def test_each_triangle_in_two_facets(lattice):
    for t in lattice.faces[2]:
        count = sum(1 for f in lattice.faces[3] if set(t) <= set(f))
        assert count == 2


def test_each_edge_in_three_facets(lattice):
    # The edge figure of the 24-cell is a triangle.
    for e in lattice.faces[1]:
        fs = sum(1 for f in lattice.faces[3] if set(e) <= set(f))
        ts = sum(1 for t in lattice.faces[2] if set(e) <= set(t))
        assert fs == 3 and ts == 3


def test_vertex_figure_counts(lattice):
    # The vertex figure is a cube: 8 edges, 12 triangles, 6 facets meet
    # each vertex.
    for v in range(24):
        assert sum(1 for e in lattice.faces[1] if v in e) == 8
        assert sum(1 for t in lattice.faces[2] if v in t) == 12
        assert sum(1 for f in lattice.faces[3] if v in f) == 6


def test_facet_of_normal(lattice):
    for i, u in enumerate(lattice.facet_normal):
        assert lattice.facet_of_normal(u) == i
        assert sorted(x for x in u) in ([-1, -1, 0, 0], [-1, 0, 0, 1], [0, 0, 1, 1])


def test_face_index_roundtrip(lattice):
    for dim in range(4):
        for idx, members in enumerate(lattice.faces[dim]):
            assert lattice.face_index(dim, members) == idx
    for i, v in enumerate(lattice.vertices):
        assert lattice.vertex_index(v) == i


# ---------------------------------------------------------------------------
# Truncation.


def test_truncated_f_vector(lattice, trunc):
    n_v, n_e, n_t, n_f = lattice.f_vector()
    incidences_vf = sum(1 for f in lattice.faces[3] for _ in f)
    assert trunc.f_vector() == (
        2 * n_e,                  # one corner per edge end
        n_e + 3 * n_t,            # truncated middles plus cube edges
        n_t + incidences_vf,      # hexagons plus squares
        n_v + n_f,                # cubes plus truncated octahedra
    )
    assert trunc.f_vector() == (192, 384, 240, 48)


def test_flags_cover_edge_ends(lattice, trunc):
    assert set(trunc.flags) == {(v, e) for e, pair in enumerate(lattice.faces[1])
                                for v in pair}
    for v, e in trunc.flags:
        assert trunc.flags[trunc.flag_index(v, e)] == (v, e)


def test_truncated_cells(trunc):
    kinds = {}
    for i, (kind, _) in enumerate(trunc.provenance[3]):
        kinds.setdefault(kind, []).append(i)
    assert len(kinds["vertex"]) == 24 and len(kinds["facet"]) == 24
    edges = trunc.faces[1]
    polys = trunc.faces[2]
    for i, members in enumerate(trunc.faces[3]):
        s = set(members)
        n_e = sum(1 for e in edges if set(e) <= s)
        n_p = sum(1 for p in polys if set(p) <= s)
        if trunc.provenance[3][i][0] == "vertex":
            assert (len(members), n_e, n_p) == (8, 12, 6)
        else:
            assert (len(members), n_e, n_p) == (24, 36, 14)
        assert len(members) - n_e + n_p == 2  # each cell boundary is a sphere


def test_truncation_is_simple(trunc):
    # Four edges and four cells at every vertex, the combinatorial shadow
    # of the right-angled structure.
    for flag in range(len(trunc.flags)):
        assert sum(1 for e in trunc.faces[1] if flag in e) == 4
        assert sum(1 for c in trunc.faces[3] if flag in c) == 4


def test_truncated_ridges_and_edges(trunc):
    for p in trunc.faces[2]:
        assert sum(1 for c in trunc.faces[3] if set(p) <= set(c)) == 2
    for e in trunc.faces[1]:
        assert sum(1 for p in trunc.faces[2] if set(e) <= set(p)) == 3


def test_provenance_tags(trunc):
    tally = {}
    for dim in range(5):
        for tag in trunc.provenance[dim]:
            tally[tag[0]] = tally.get(tag[0], 0) + 1
    assert tally == {"flag": 192, "edge": 96, "corner_edge": 288,
                     "triangle": 96, "vertex_facet": 144,
                     "vertex": 24, "facet": 24, "body": 1}


def test_cube_and_troct_lookup(lattice, trunc):
    for v in range(24):
        i = trunc.cube_facet(v)
        assert trunc.provenance[3][i] == ("vertex", v)
        assert set(trunc.faces[3][i]) == {f for f, (w, _) in enumerate(trunc.flags)
                                          if w == v}
    for o in range(24):
        i = trunc.troct_facet(o)
        assert trunc.provenance[3][i] == ("facet", o)
        # The truncated octahedron keeps exactly the flags of its facet.
        facet_vertices = set(lattice.faces[3][o])
        expected = {f for f, (v, e) in enumerate(trunc.flags)
                    if v in facet_vertices and set(lattice.faces[1][e]) <= facet_vertices}
        assert set(trunc.faces[3][i]) == expected


def test_squares_join_cube_to_troct(trunc):
    cubes = [set(f) for f, tag in zip(trunc.faces[3], trunc.provenance[3]) if tag[0] == "vertex"]
    trocts = [set(f) for f, tag in zip(trunc.faces[3], trunc.provenance[3]) if tag[0] == "facet"]
    for p, tag in zip(trunc.faces[2], trunc.provenance[2]):
        s = set(p)
        in_cubes = sum(1 for c in cubes if s <= c)
        in_trocts = sum(1 for c in trocts if s <= c)
        if tag[0] == "vertex_facet":
            assert (in_cubes, in_trocts) == (1, 1)
        else:
            assert (in_cubes, in_trocts) == (0, 2)


def test_dump_matches_golden(lattice, trunc):
    import pathlib

    here = pathlib.Path(__file__).parent
    assert lattice.dump() == (here / "data" / "ideal24_faces.txt").read_text()
    assert trunc.dump() == (here / "data" / "truncated24_faces.txt").read_text()


def test_embedded_cusp_scale_is_the_unit_cube(lattice):
    """Equal cusps first touch across the edges, where the cross section
    is the unit cube that ``develop_lattice`` assumes at scale 1: on each
    horosphere the foot points toward the eight neighbours lie at squared
    distances 2 - 2<w1, w2> of 1, 2 and 3, twelve edges, twelve face
    diagonals and four body diagonals."""
    assert embedded_cusp_scale() == 1
    for v in lattice.vertices:
        near = [w for w in lattice.vertices if _inner(v, w) == HALF]
        assert len(near) == 8
        distances = collections.Counter(2 - 2 * _inner(a, b)
                                        for a, b in itertools.combinations(near, 2))
        assert distances == {1: 12, 2: 12, 3: 4}
