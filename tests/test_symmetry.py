"""Metamorphic tests from the symmetry of the 24-cell.

A signed permutation of the four coordinates sends the vertices
(±e_i and (±1/2, ±1/2, ±1/2, ±1/2)) and the facet normals (±e_i ± e_j)
of ``polytope.py`` to themselves, so it is a symmetry of the 24-cell.
So is x -> H x / 2 for the 4 x 4 Hadamard matrix H below, which
exchanges the unit vertices with half-integer ones: H / 2 is orthogonal,
H s / 4 is a vertex for every sign vector s, and two columns of H agree
in exactly two places.  Conjugating the census pairing by a symmetry
glues an isometric manifold whose cells come out in a different order.
Every invariant below must be unchanged; where cusps may reorder, values
are compared as multisets.
"""

import random

import pytest

from dehn24.chains import euler_characteristic, homology
from dehn24.flatgeom import develop_lattice
from dehn24.gluing import (
    Pairing,
    SidePairingSpec,
    double_cover,
    orientation_character,
    quotient_complex,
)
from dehn24.peripheral import cusp_sections, peripheral_system
from dehn24.polytope import build_24cell

from test_acceptance import _failing_pairs


HADAMARD = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))


def _hadamard(point):
    """x -> H x / 2, exactly."""
    return tuple(sum(h * x for h, x in zip(row, point)) / 2 for row in HADAMARD)


def _symmetry(rng: random.Random, mixing: bool):
    """A random signed coordinate permutation, after the Hadamard map when
    ``mixing``, as maps on vertex and facet indices."""
    order = rng.sample(range(4), 4)
    signs = [rng.choice((-1, 1)) for _ in range(4)]
    lattice = build_24cell()

    def act(point):
        if mixing:
            point = _hadamard(point)
        return tuple(signs[i] * point[order[i]] for i in range(4))

    vertex = {i: lattice.vertices.index(act(v)) for i, v in enumerate(lattice.vertices)}
    facet = {i: lattice.facet_normal.index(act(u)) for i, u in enumerate(lattice.facet_normal)}
    for i, members in enumerate(lattice.faces[3]):
        assert sorted(vertex[v] for v in members) == list(lattice.faces[3][facet[i]])
    return vertex, facet


def _gluings(spec: SidePairingSpec) -> frozenset:
    """The spec's gluings, each record read from its lower side."""
    return frozenset(
        min((p.facet_a, p.facet_b, tuple(sorted(p.vertex_map))),
            (p.facet_b, p.facet_a, tuple(sorted(p.backward().items()))))
        for p in spec.pairings)


def _conjugates(spec: SidePairingSpec, count: int, seed: int,
                mixing: bool = False) -> list[SidePairingSpec]:
    """The first ``count`` seeded conjugates of ``spec`` that glue differently
    from it and from each other (many symmetries fix the census gluing)."""
    rng = random.Random(seed)
    found, seen = [], {_gluings(spec)}
    while len(found) < count:
        vertex, facet = _symmetry(rng, mixing)
        conjugate = SidePairingSpec(
            pairings=tuple(
                Pairing(facet[p.facet_a], facet[p.facet_b],
                        tuple(sorted((vertex[v], vertex[w]) for v, w in p.vertex_map)))
                for p in spec.pairings),
            geometry=spec.geometry, metadata=spec.metadata)
        if _gluings(conjugate) not in seen:
            seen.add(_gluings(conjugate))
            found.append(conjugate)
    return found


def _invariants(spec: SidePairingSpec, system=None):
    """Everything a symmetry must keep, with per-cusp values sorted."""
    found = {}
    for copies in (1, 2):
        q = quotient_complex(spec, copies)
        found[copies, "homology"] = tuple(homology(q.chain, k) for k in (1, 2, 3))
        found[copies, "chi"] = euler_characteristic(q.chain)
        found[copies, "cubes"] = sorted(s.cube_count for s in cusp_sections(q))
    found["orientable"] = (orientation_character(spec).orientable,
                           orientation_character(double_cover(spec)).orientable)
    cover = quotient_complex(spec, 2)
    lattices = [develop_lattice(s) for s in cusp_sections(cover)]
    found["covolumes"] = sorted(lattice.covolume() for lattice in lattices)
    system = system or peripheral_system(cover)
    found["failing"] = sorted(len(s) for s in _failing_pairs(system, lattices))
    return found


@pytest.fixture(scope="module")
def census_invariants(census_spec, census_system):
    found = _invariants(census_spec, census_system)
    assert found["failing"] == [9, 29, 29, 29, 29]
    assert found[2, "cubes"] == [4, 4, 4, 4, 32]
    return found


@pytest.fixture(scope="module")
def conjugates(census_spec, census_m):
    found = _conjugates(census_spec, 3, seed=24) + _conjugates(census_spec, 2, seed=24, mixing=True)
    # Each conjugate numbers the cells of its cover differently.
    boundaries = {census_m.chain.boundary}
    boundaries.update(quotient_complex(c, 2).chain.boundary for c in found)
    assert len(boundaries) == 6
    return found


def test_hadamard_map_mixes_unit_and_half_integer_vertices():
    lattice = build_24cell()
    unit = {i for i, v in enumerate(lattice.vertices) if sum(x != 0 for x in v) == 1}
    vertex, _ = _symmetry(random.Random(0), mixing=True)
    assert sorted(vertex.values()) == list(range(24))
    assert {vertex[i] for i in unit}.isdisjoint(unit)


@pytest.mark.parametrize("index", [0, 1, 2, 3, 4])
def test_symmetry_conjugate_keeps_invariants(index, conjugates, census_invariants):
    assert _invariants(conjugates[index]) == census_invariants
