"""Metamorphic tests from the symmetry of the 24-cell.

A signed permutation of the four coordinates sends the vertices
(±e_i and (±1/2, ±1/2, ±1/2, ±1/2)) and the facet normals (±e_i ± e_j)
of ``polytope.py`` to themselves, so it is a symmetry of the 24-cell.
Conjugating the census pairing by it glues an isometric manifold whose
cells come out in a different order.  Every invariant below must be
unchanged; where cusps may reorder, values are compared as multisets.
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


def _signed_permutation(rng: random.Random):
    """A random signed coordinate permutation, as maps on vertex and facet indices."""
    order = rng.sample(range(4), 4)
    signs = [rng.choice((-1, 1)) for _ in range(4)]
    lattice = build_24cell()

    def act(point):
        return tuple(signs[i] * point[order[i]] for i in range(4))

    vertex = {i: lattice.vertex_index(act(v)) for i, v in enumerate(lattice.vertices)}
    facet = {i: lattice.facet_of_normal(act(u)) for i, u in enumerate(lattice.facet_normal)}
    for i, members in enumerate(lattice.faces[3]):
        assert sorted(vertex[v] for v in members) == list(lattice.faces[3][facet[i]])
    return vertex, facet


def _gluings(spec: SidePairingSpec) -> frozenset:
    """The spec's gluings, each record read from its lower side."""
    return frozenset(
        min((p.facet_a, p.facet_b, tuple(sorted(p.vertex_map))),
            (p.facet_b, p.facet_a, tuple(sorted(p.backward().items()))))
        for p in spec.pairings)


def _conjugates(spec: SidePairingSpec, count: int, seed: int) -> list[SidePairingSpec]:
    """The first ``count`` seeded conjugates of ``spec`` that glue differently
    from it and from each other (many symmetries fix the census gluing)."""
    rng = random.Random(seed)
    found, seen = [], {_gluings(spec)}
    while len(found) < count:
        vertex, facet = _signed_permutation(rng)
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
    found = _conjugates(census_spec, 3, seed=24)
    # Each conjugate numbers the cells of its cover differently.
    boundaries = {census_m.chain.boundary}
    boundaries.update(quotient_complex(c, 2).chain.boundary for c in found)
    assert len(boundaries) == 4
    return found


@pytest.mark.parametrize("index", [0, 1, 2])
def test_symmetry_conjugate_keeps_invariants(index, conjugates, census_invariants):
    assert _invariants(conjugates[index]) == census_invariants
