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


class FaceLattice(Record):
    """The face lattice of the 24-cell.

    ``faces[k]`` lists the k-faces as sorted tuples of vertex indices, in
    canonical (lexicographic) order; dimension 4 is the single body face.
    ``facet_normal[i]`` is the outward normal of facet i, satisfying
    <normal, v> = 1 exactly on that facet's vertices.
    """

    vertices: tuple[Coord, ...]
    faces: tuple[tuple[tuple[int, ...], ...], ...]
    facet_normal: tuple[Coord, ...]


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


# Per dimension k >= 1 of a 24-cell face F: the kind of F cut back, a
# k-face of the truncation, and the kind of F's vertex figure at one of its
# vertices, a (k-1)-face of the cube truncating that vertex.
_KINDS = {1: ("edge", "flag"), 2: ("triangle", "corner_edge"),
          3: ("facet", "vertex_facet"), 4: ("body", "vertex")}
_FIGURE_KINDS = frozenset(figure for _, figure in _KINDS.values())


class TruncatedLattice(Record):
    """The truncated 24-cell, with provenance back to the ideal lattice.

    Vertices are flags (original vertex, incident original edge); every
    face is a sorted tuple of flag indices.  ``provenance[k][i]`` says
    which rule made k-face i: ``(kind, f)`` for face f of the 24-cell cut
    back, such as ``("facet", o)`` for a truncated octahedron, or
    ``(figure kind, v, f)`` for the vertex figure of face f at vertex v,
    such as ``("corner_edge", v, t)``.  The body drops its index, giving
    ``("body",)`` and ``("vertex", v)`` for the cube truncating v.
    """

    flags: tuple[tuple[int, int], ...]
    faces: tuple[tuple[tuple[int, ...], ...], ...]
    provenance: tuple[tuple[tuple[object, ...], ...], ...]
    _flag_index: dict[tuple[int, int], int]
    _derived = ("_flag_index",)

    def flag_index(self, vertex: int, edge: int) -> int:
        return self._flag_index[(vertex, edge)]

    def troct_facet(self, facet: int) -> int:
        """Facet index of the truncated octahedron from original facet."""
        return self.provenance[3].index(("facet", facet))


@lru_cache(maxsize=1)
def truncate(lattice: FaceLattice | None = None) -> TruncatedLattice:
    """Truncate every ideal vertex of the 24-cell, combinatorially.

    Every face of the truncation comes from a face F of dimension k >= 1
    by one rule.  F cut back is the k-face of the flags (v, e) over the
    edges e in F: edges become their middles, triangles hexagons,
    octahedra truncated octahedra.  The vertex figure of F at each of its
    vertices v is the (k-1)-face of the flags (v, e) over the edges e of
    F at v; these make up the cube truncating v (the vertex figure of the
    body), whose vertices are the flags at v.  Each dimension's faces are
    in sorted order.
    """
    base = lattice if lattice is not None else build_24cell()
    edge_of = {pair: e for e, pair in enumerate(base.faces[1])}
    flags = tuple(sorted((v, e) for pair, e in edge_of.items() for v in pair))
    flag_index = {f: i for i, f in enumerate(flags)}

    found: list[dict[tuple[int, ...], tuple]] = [{} for _ in range(5)]
    for k, (kind, figure) in _KINDS.items():
        for f, members in enumerate(base.faces[k]):
            origin = () if k == 4 else (f,)
            at: dict[int, list[int]] = {}
            for pair in itertools.combinations(members, 2):
                if (e := edge_of.get(pair)) is not None:
                    for v in pair:
                        at.setdefault(v, []).append(flag_index[(v, e)])
            found[k][tuple(sorted(itertools.chain(*at.values())))] = (kind,) + origin
            for v, ends in at.items():
                found[k - 1][tuple(sorted(ends))] = (figure, v) + origin
    faces, provenance = zip(*(zip(*sorted(table.items())) for table in found))
    return TruncatedLattice(
        flags=flags,
        faces=faces,
        provenance=provenance,
        _flag_index=flag_index,
    )


def cusp_vertex(origin: tuple) -> int | None:
    """The ideal vertex whose cusp holds the face of provenance ``origin``
    (a face of the cube truncating it), or ``None`` for any other face."""
    return origin[1] if origin[0] in _FIGURE_KINDS else None
