#!/usr/bin/env python3
"""Rediscover the bundled 24-cell side-pairing by constrained search.

The ideal vertex cycles of the bundled pairing keep every unit vertex
+-e_j on its own coordinate axis, so a side whose outward normal is
supported on coordinates {j, k} can only glue to a side with the same
support, and the unit vertices' images are forced.  That cuts the
space to six support classes of four sides each, with 3 perfect
matchings per class and 8 equatorial octahedron symmetries per glued
pair.  A depth-first search with ridge-cycle pruning (every ridge has
dihedral angle pi/2, so cycles must close after exactly 4 crossings
with the identity return map) walks that space.

By default the script pins four support classes to the bundled
assignment and searches the other two over all 3 x 8 x 8 = 192
choices, then pushes every pruned leaf through the invariant cascade
that singles the census manifold out: ideal vertex cycle pattern
[2,2,2,2,16], first homology Z_2^6 from the ridge presentation,
nonorientability, full homology (Z_2^6, Z_2^4, 0) with chi = 1, and
finally homology (Z^5, Z^10, Z^4) of the orientation double cover.
The bundled pairing comes out as a survivor of its slice, and the
script reports how quickly each filter thins the field.

Usage:
    python3 demos/search_side_pairings.py [--free K]

Each extra free class multiplies the raw slice by 192.  Measured on a
shared 2-core machine with Python 3.11: K = 2 runs in 0.12-0.17 s,
0.016-0.025 s of it the ridge-pruned search and 0.028-0.045 s the
cascade, and K = 4 in 2.5-3.4 s, 0.9-1.1 s of it the search and
1.4-2.3 s the cascade; K = 6 is the full unconstrained search, where the
quotient builds behind the later filters dominate and the run stretches
to hours.
"""

import argparse
import itertools
import time

from dehn24.chains import euler_characteristic, homology
from dehn24.gluing import (
    GluingError,
    Pairing,
    SidePairingSpec,
    census_pairing,
    orientation_character,
    presentation,
    quotient_complex,
    validate_spec,
    vertex_cycles,
)
from dehn24.intlinalg import AbelianGroup
from dehn24.polytope import build_24cell

BASE = build_24cell()
FACETS = BASE.faces[3]
TRIANGLES = BASE.faces[2]

# Vertex index -> coordinate axis for the eight unit vertices, None for
# the sixteen half-integer ones.
UNIT_AXIS = {}
for i, v in enumerate(BASE.vertices):
    support = [k for k, x in enumerate(v) if x != 0]
    UNIT_AXIS[i] = support[0] if len(support) == 1 else None

ADJACENT = {frozenset(e) for e in BASE.faces[1]}
TRIANGLE_INDEX = {t: i for i, t in enumerate(TRIANGLES)}

# Each triangle lies in exactly two octahedral sides; each side has eight.
# Triangles are named by their index in TRIANGLES.
CONTAINING = {}
SIDE_TRIANGLES = {}
for f, members in enumerate(FACETS):
    s = set(members)
    for i, t in enumerate(TRIANGLES):
        if s.issuperset(t):
            CONTAINING.setdefault(i, []).append(f)
            SIDE_TRIANGLES.setdefault(f, []).append(i)
assert all(len(pair) == 2 for pair in CONTAINING.values())


def companion(triangle, facet):
    a, b = CONTAINING[triangle]
    return b if facet == a else a


def support_classes():
    """The six 4-element classes of sides sharing a normal support."""
    classes = {}
    for f, normal in enumerate(BASE.facet_normal):
        key = tuple(k for k, x in enumerate(normal) if x != 0)
        classes.setdefault(key, []).append(f)
    assert all(len(v) == 4 for v in classes.values())
    return dict(sorted(classes.items()))


def equator(f):
    """The four half vertices of side f in cyclic order around its square."""
    first, *rest = (v for v in FACETS[f] if UNIT_AXIS[v] is None)
    near = [v for v in rest if frozenset((first, v)) in ADJACENT]
    far = [v for v in rest if v not in near]
    assert len(near) == 2 and len(far) == 1, f
    return first, near[0], far[0], near[1]


def admissible_maps(a, b):
    """Octahedron isomorphisms facet a -> facet b fixing each unit axis.

    The two unit vertices' images are forced (same axis, whatever sign
    facet b carries); the four half vertices go to facet b's equatorial
    square by one of its eight symmetries.  The maps come in the order
    of their images of facet a's half vertices, least first.
    """
    unit_b = {UNIT_AXIS[v]: v for v in FACETS[b] if UNIT_AXIS[v] is not None}
    forced = {v: unit_b[UNIT_AXIS[v]] for v in FACETS[a] if UNIT_AXIS[v] is not None}
    square_a, square_b = equator(a), equator(b)
    out = []
    for shift in range(4):
        for turn in (1, -1):
            cand = dict(forced)
            cand.update(sorted((v, square_b[(shift + turn * i) % 4])
                               for i, v in enumerate(square_a)))
            out.append(cand)
    return sorted(out, key=lambda cand: [w for v, w in cand.items() if UNIT_AXIS[v] is None])


def triangle_table(a, b, psi):
    """Where ``psi`` (side a -> side b) sends each triangle of side a.

    Per triangle index: the side across the image triangle from b, the
    image triangle's index, and where each of the triangle's three
    vertices lands among the image's (positions in sorted vertex order).
    """
    table = {}
    for t in SIDE_TRIANGLES[a]:
        image = [psi[v] for v in TRIANGLES[t]]
        u = tuple(sorted(image))
        table[t] = (companion(TRIANGLE_INDEX[u], b), TRIANGLE_INDEX[u],
                    tuple(u.index(w) for w in image))
    return table


def glue(a, b, forward):
    """The assignment entries of sides a and b when a is glued to b by ``forward``."""
    backward = {w: v for v, w in forward.items()}
    return ((b, forward, triangle_table(a, b, forward)),
            (a, backward, triangle_table(b, a, backward)))


def ridge_violation(assignment, sides):
    """True if a determined ridge cycle through ``sides`` cannot close.

    A walk alternates gluing with switching to the other side through
    the image triangle; a full cycle must return to its start in
    exactly 4 steps with the identity vertex map, tracked as the current
    positions of the start triangle's three vertices.  Walks start only
    at the sides just glued: any other cycle was already walked when its
    last side was glued.  Walks that reach an unassigned side stay
    indeterminate and never prune.
    """
    for f0 in sides:
        for t0 in SIDE_TRIANGLES[f0]:
            f, t, at = f0, t0, (0, 1, 2)
            for step in range(1, 5):
                if f not in assignment:
                    break
                f, t, moved = assignment[f][2][t]
                at = (moved[at[0]], moved[at[1]], moved[at[2]])
                if f == f0 and t == t0:
                    if step < 4 or at != (0, 1, 2):
                        return True
                    break
            else:
                return True
    return False


def matchings(four):
    a, b, c, d = four
    return (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))


def shipped_assignment():
    """The bundled pairing as a side -> (target, vertex map) table."""
    table = {}
    for p in census_pairing().pairings:
        table[p.facet_a] = (p.facet_b, p.forward())
        table[p.facet_b] = (p.facet_a, p.backward())
    return table


def to_spec(assignment):
    pairings = []
    for a in sorted(assignment):
        b, forward = assignment[a][:2]
        if a < b:
            pairings.append(Pairing(facet_a=a, facet_b=b,
                                    vertex_map=tuple(sorted(forward.items()))))
    return SidePairingSpec(pairings=tuple(pairings), geometry="ideal24")


def normalized(spec):
    return frozenset(
        (p.facet_a, p.facet_b, tuple(sorted(p.forward().items())))
        for p in spec.pairings)


class Search:
    def __init__(self, free_classes):
        classes = support_classes()
        keys = list(classes)
        # Pinned classes go first so their ridges prune the free ones.
        self.order = ([k for i, k in enumerate(keys) if i not in free_classes]
                      + [k for i, k in enumerate(keys) if i in free_classes])
        self.free = {k for i, k in enumerate(keys) if i in free_classes}
        self.classes = classes
        # Assignment entries, side -> (target, vertex map, triangle table),
        # for the pinned pairings and for every admissible map of a free pair.
        self.pinned = {}
        for a, (b, forward) in shipped_assignment().items():
            if a < b:
                self.pinned[a, b] = glue(a, b, forward)
        self.maps = {}
        for key in self.free:
            for a, b in itertools.combinations(classes[key], 2):
                self.maps[a, b] = [glue(a, b, m) for m in admissible_maps(a, b)]
        self.nodes = 0
        self.leaves = []

    def install(self, assignment, a, b, entries):
        assignment[a], assignment[b] = entries

    def remove(self, assignment, a, b):
        del assignment[a], assignment[b]

    def run(self):
        self.descend(0, {})
        return self.leaves

    def descend(self, depth, assignment):
        if depth == len(self.order):
            self.leaves.append(to_spec(assignment))
            return
        key = self.order[depth]
        four = self.classes[key]
        if key not in self.free:
            pinned = [(a, b) for a, b in self.pinned if a in four]
            for a, b in pinned:
                self.install(assignment, a, b, self.pinned[a, b])
            self.nodes += 1
            if not ridge_violation(assignment, four):
                self.descend(depth + 1, assignment)
            for a, b in pinned:
                self.remove(assignment, a, b)
            return
        for (a1, b1), (a2, b2) in matchings(four):
            for m1 in self.maps[a1, b1]:
                self.install(assignment, a1, b1, m1)
                self.nodes += 1
                if not ridge_violation(assignment, (a1, b1)):
                    for m2 in self.maps[a2, b2]:
                        self.install(assignment, a2, b2, m2)
                        self.nodes += 1
                        if not ridge_violation(assignment, (a2, b2)):
                            self.descend(depth + 1, assignment)
                        self.remove(assignment, a2, b2)
                self.remove(assignment, a1, b1)


def invariant_cascade(leaves, verbose=True):
    counts = {"leaves": len(leaves), "cusp pattern": 0, "H1 = Z_2^6": 0,
              "nonorientable": 0, "manifold build": 0,
              "full homology": 0, "double cover": 0}
    survivors = []
    for spec in leaves:
        validate_spec(spec)
        if sorted(len(c) for c in vertex_cycles(spec)) != [2, 2, 2, 2, 16]:
            continue
        counts["cusp pattern"] += 1
        ab = presentation(spec).abelianization()
        if ab != AbelianGroup(0, (2,) * 6):
            continue
        counts["H1 = Z_2^6"] += 1
        if orientation_character(spec).orientable:
            continue
        counts["nonorientable"] += 1
        try:
            q = quotient_complex(spec)
        except GluingError:
            continue
        counts["manifold build"] += 1
        groups = [homology(q.chain, k) for k in (1, 2, 3)]
        if (groups != [AbelianGroup(0, (2,) * 6), AbelianGroup(0, (2,) * 4),
                       AbelianGroup(0)]
                or euler_characteristic(q.chain) != 1):
            continue
        counts["full homology"] += 1
        cover = quotient_complex(spec, copies=2)
        cover_groups = [homology(cover.chain, k) for k in (1, 2, 3)]
        if cover_groups != [AbelianGroup(5), AbelianGroup(10), AbelianGroup(4)]:
            continue
        counts["double cover"] += 1
        survivors.append(spec)
    if verbose:
        for stage, n in counts.items():
            print(f"  {stage}: {n}")
    return survivors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--free", type=int, default=2, metavar="K",
                        help="number of support classes searched over all "
                             "192 assignments (default 2, full search 6)")
    args = parser.parse_args()
    if not 0 <= args.free <= 6:
        parser.error("--free must be between 0 and 6")

    classes = support_classes()
    print("support classes (normal support -> sides):")
    for key, four in classes.items():
        print(f"  {key}: {four}")
    per_class = 3 * 8 * 8
    print(f"each class: 3 matchings x 8 x 8 equatorial symmetries "
          f"= {per_class} assignments")
    print(f"raw slice searched here: {per_class ** args.free} "
          f"({args.free} free classes, rest pinned to the bundled pairing)")

    free = set(range(6 - args.free, 6))
    search = Search(free)
    start = time.perf_counter()
    leaves = search.run()
    elapsed = time.perf_counter() - start
    print(f"\nridge-pruned search: {search.nodes} nodes, "
          f"{len(leaves)} surviving gluings, {elapsed:.3f}s")

    print("invariant cascade:")
    start = time.perf_counter()
    survivors = invariant_cascade(leaves)
    print(f"cascade elapsed: {time.perf_counter() - start:.3f}s")

    shipped = normalized(census_pairing())
    found = [normalized(s) for s in survivors]
    print(f"\nsurvivors: {len(survivors)}")
    assert shipped in found, "the bundled pairing must survive its own slice"
    others = [s for s in found if s != shipped]
    if others:
        print(f"note: {len(others)} further survivor(s) in this slice; "
              f"symmetries of the 24-cell can carry the same manifold to "
              f"several assignments")
    print("the bundled pairing is rediscovered by the search")


if __name__ == "__main__":
    main()
