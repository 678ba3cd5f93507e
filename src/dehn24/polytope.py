"""Exact combinatorics of the regular ideal 24-cell and its truncation.

Vertices are the eight unit vectors ±e_i together with the sixteen
half-integer vectors (±1/2, ±1/2, ±1/2, ±1/2).  Doubled, they are the
integer vectors ±2e_i and (±1, ±1, ±1, ±1), and all incidence comes from
integer inner products of that one table: a vertex v lies on the facet
with normal u iff <u, 2v> = 2, and two vertices span an edge iff
<2v, 2w> = 2.  No floating point or rational arithmetic is involved, so
face indices are bit-stable; the public coordinates are the halved
table as exact fractions.

Truncating chops every vertex, turning each octahedral facet into a
truncated octahedron and adding one cubical facet per original vertex
(the vertex figure of the 24-cell is a cube).  The truncation here is
purely combinatorial: its vertices are flags (vertex, incident edge) of
the original polytope.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .record import Record

Coord = tuple[Fraction, Fraction, Fraction, Fraction]
IntVec = tuple[int, int, int, int]

HALF = Fraction(1, 2)

# The vertices times two, in canonical (lexicographic) order: the order of
# the unit coordinates too, since doubling keeps it.
_DOUBLED: tuple[IntVec, ...] = tuple(sorted(
    [tuple(2 * s if k == i else 0 for k in range(4)) for i in range(4) for s in (-1, 1)]
    + list(itertools.product((-1, 1), repeat=4))))

# Facet normals u = ±e_i ± e_j, in canonical order.
_NORMALS: tuple[IntVec, ...] = tuple(sorted(
    tuple(si if k == i else sj if k == j else 0 for k in range(4))
    for i, j in itertools.combinations(range(4), 2)
    for si, sj in itertools.product((-1, 1), repeat=2)))


def _dot(a: IntVec, b: IntVec) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _inner(a: Coord, b: Coord) -> Fraction:
    return sum(x * y for x, y in zip(a, b))


class _Faces:
    """Methods shared by both lattices, which store ``faces`` by dimension."""

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self.faces[k]) for k in range(4))

    def dump(self) -> str:
        """Canonical text dump: one face per line as `dim index v1 v2 ...`."""
        lines = []
        for dim in range(5):
            for idx, vs in enumerate(self.faces[dim]):
                lines.append(f"{dim} {idx} " + " ".join(str(v) for v in vs))
        return "\n".join(lines) + "\n"


class FaceLattice(_Faces, Record):
    """The face lattice of the 24-cell.

    ``faces[k]`` lists the k-faces as sorted tuples of vertex indices, in
    canonical (lexicographic) order; dimension 4 is the single body face.
    ``facet_normal[i]`` is the outward normal of facet i, satisfying
    <normal, v> = 1 exactly on that facet's vertices.
    """

    vertices: tuple[Coord, ...]
    faces: tuple[tuple[tuple[int, ...], ...], ...]
    facet_normal: tuple[Coord, ...]

    def vertex_index(self, coords: Coord) -> int:
        return self.vertices.index(tuple(coords))

    def face_index(self, dim: int, vertex_set: tuple[int, ...]) -> int:
        return self.faces[dim].index(tuple(sorted(vertex_set)))

    def facet_of_normal(self, normal: Coord) -> int:
        """Index of the facet whose outward normal is ``normal``."""
        members = tuple(sorted(i for i, v in enumerate(self.vertices)
                               if _inner(normal, v) == 1))
        return self.faces[3].index(members)


@lru_cache(maxsize=1)
def build_24cell() -> FaceLattice:
    """Construct the 24-cell's face lattice from integer inner products."""
    n = len(_DOUBLED)
    facet_members = []
    for u in _NORMALS:
        members = tuple(i for i, v in enumerate(_DOUBLED) if _dot(u, v) == 2)
        assert len(members) == 6
        facet_members.append(members)

    edges = {(i, j) for i, j in itertools.combinations(range(n), 2)
             if _dot(_DOUBLED[i], _DOUBLED[j]) == 2}

    # Octahedron faces are exactly its vertex triples that are pairwise
    # adjacent (antipodal pairs are the non-edges).
    triangles = {trio for members in facet_members
                 for trio in itertools.combinations(members, 3)
                 if all(pair in edges for pair in itertools.combinations(trio, 2))}

    order = sorted  # canonical: lexicographic on sorted vertex tuples
    facet_order = order(facet_members)
    normal_by_members = {m: u for m, u in zip(facet_members, _NORMALS)}
    faces = (
        tuple((i,) for i in range(n)),
        tuple(order(edges)),
        tuple(order(triangles)),
        tuple(facet_order),
        (tuple(range(n)),),
    )
    return FaceLattice(
        vertices=tuple(tuple(Fraction(x, 2) for x in v) for v in _DOUBLED),
        faces=faces,
        facet_normal=tuple(tuple(Fraction(x) for x in normal_by_members[m])
                           for m in facet_order),
    )


def embedded_cusp_scale() -> Fraction:
    """The largest cusp scale at which the 24 equal cusps are embedded
    and pairwise disjoint, derived from integer Gram entries alone.

    Scaled to norm 2, vertices v and w have the integer inner product
    g(v, w) + 2 with g(v, w) = 2<v, w> - 2 in the unit coordinates here.
    Their light-like lifts lambda * (v, sqrt 2) pair to lambda^2 g(v, w)
    under x.y - x0 y0, so equal horoballs {-<x, u> <= 1} are disjoint
    exactly when -lambda^2 g >= 2 for every pair: they first touch
    across the pairs of largest g = p, at lambda^2 = -2 / p.  On one
    horosphere the foot points toward two touching neighbours w1, w2 then
    lie at squared distance g(w1, w2) / p.  The cusp scale is the edge of
    the cross-section cube, the least of these distances; a larger scale
    takes every cross-section on a larger horoball, so neighbours
    overlap.  For the 24-cell p = -1 and the distances squared are 1, 2
    and 3, a unit cube: the bound is 1, the default scale.
    """
    # Doubled vertices have even inner products 4<v, w>.
    n = len(_DOUBLED)
    gram = [[_dot(v, w) // 2 - 2 for w in _DOUBLED] for v in _DOUBLED]
    p = max(gram[i][j] for i in range(n) for j in range(n) if i != j)
    # p < 0, so the least distance g / p comes from the largest g.
    squared = Fraction(max(gram[a][b]
                           for v in range(n)
                           for a, b in itertools.combinations(
                               [w for w in range(n) if w != v and gram[v][w] == p], 2)), p)
    edge = Fraction(math.isqrt(squared.numerator), math.isqrt(squared.denominator))
    assert edge * edge == squared
    return edge


class TruncatedLattice(_Faces, Record):
    """The truncated 24-cell, with provenance back to the ideal lattice.

    Vertices are flags (original vertex, incident original edge); every
    face is a sorted tuple of flag indices.  ``provenance[k][i]`` is the
    kind and origin of k-face i, such as ``("vertex", v)`` for the cube
    truncating v or ``("facet", o)`` for a truncated octahedron.
    """

    flags: tuple[tuple[int, int], ...]
    faces: tuple[tuple[tuple[int, ...], ...], ...]
    provenance: tuple[tuple[tuple[object, ...], ...], ...]
    _flag_index: dict[tuple[int, int], int]
    _derived = ("_flag_index",)

    def flag_index(self, vertex: int, edge: int) -> int:
        return self._flag_index[(vertex, edge)]

    def cube_facet(self, vertex: int) -> int:
        """Facet index of the cubical facet truncating ``vertex``."""
        return self.provenance[3].index(("vertex", vertex))

    def troct_facet(self, facet: int) -> int:
        """Facet index of the truncated octahedron from original facet."""
        return self.provenance[3].index(("facet", facet))


@lru_cache(maxsize=1)
def truncate(lattice: FaceLattice | None = None) -> TruncatedLattice:
    """Truncate every ideal vertex of the 24-cell, combinatorially.

    The vertex figure of each ideal vertex is a cube: its 8 vertices are
    the edges at the vertex, its 12 edges the triangles there, its 6
    squares the facets there.  Each original octahedral facet becomes a
    truncated octahedron; original triangles become hexagons.
    """
    base = lattice if lattice is not None else build_24cell()
    edges = base.faces[1]
    triangles = base.faces[2]
    facets = base.faces[3]

    edge_of = {pair: e for e, pair in enumerate(edges)}
    flags = tuple(sorted((v, e) for e, pair in enumerate(edges) for v in pair))
    flag_index = {f: i for i, f in enumerate(flags)}
    flags_at: dict[int, list[int]] = {}
    for i, (v, _) in enumerate(flags):
        flags_at.setdefault(v, []).append(i)

    def corner(vertex: int, edge: int) -> int:
        return flag_index[(vertex, edge)]

    def edges_within(members: tuple[int, ...]) -> list[int]:
        return [edge_of[pair] for pair in itertools.combinations(members, 2)
                if pair in edge_of]

    # dim 1: truncated middles of original edges, plus cube edges (one per
    # incident vertex-triangle flag); dim 2: hexagons from original
    # triangles.
    middles = {}
    for e, (a, b) in enumerate(edges):
        middles[tuple(sorted((corner(a, e), corner(b, e))))] = ("edge", e)
    cube_edges = {}
    hexagons = {}
    for t, trio in enumerate(triangles):
        tri_edges = edges_within(trio)
        assert len(tri_edges) == 3
        for v in trio:
            ends = tuple(sorted(corner(v, e) for e in tri_edges if v in edges[e]))
            assert len(ends) == 2
            cube_edges[ends] = ("corner_edge", v, t)
        members = tuple(sorted(corner(v, e) for e in tri_edges for v in edges[e]))
        assert len(members) == 6
        hexagons[members] = ("triangle", t)

    # dim 2: squares where a cube meets a truncated octahedron (one per
    # incident vertex-facet flag); dim 3: truncated octahedra and cubes
    # (vertex figures).
    squares = {}
    trocts = {}
    for o, members6 in enumerate(facets):
        facet_edges = edges_within(members6)
        for v in members6:
            ends = tuple(sorted(corner(v, e) for e in facet_edges if v in edges[e]))
            assert len(ends) == 4
            squares[ends] = ("vertex_facet", v, o)
        members = tuple(sorted(corner(v, e) for e in facet_edges for v in edges[e]))
        assert len(members) == 24
        trocts[members] = ("facet", o)
    cubes = {}
    for v in range(len(base.vertices)):
        members = tuple(flags_at[v])
        assert len(members) == 8
        cubes[members] = ("vertex", v)

    def sorted_faces(table: dict) -> tuple[list[tuple[int, ...]], list[tuple]]:
        keys = sorted(table)
        return keys, [table[k] for k in keys]

    dim1_faces, dim1_prov = sorted_faces(middles | cube_edges)
    dim2_faces, dim2_prov = sorted_faces(hexagons | squares)
    dim3_faces, dim3_prov = sorted_faces(cubes | trocts)

    faces = (
        tuple((i,) for i in range(len(flags))),
        tuple(dim1_faces),
        tuple(dim2_faces),
        tuple(dim3_faces),
        (tuple(range(len(flags))),),
    )
    provenance = (
        tuple(("flag",) + flags[i] for i in range(len(flags))),
        tuple(dim1_prov),
        tuple(dim2_prov),
        tuple(dim3_prov),
        (("body",),),
    )
    return TruncatedLattice(
        flags=flags,
        faces=faces,
        provenance=provenance,
        _flag_index=flag_index,
    )


def cusp_vertex(origin: tuple | list) -> int | None:
    """The ideal vertex whose cusp holds the face of provenance ``origin``
    (a face of the cube truncating it), or ``None`` for any other face."""
    return origin[1] if origin[0] in ("flag", "corner_edge", "vertex_facet", "vertex") else None
