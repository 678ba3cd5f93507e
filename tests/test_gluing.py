"""Tests for the side-pairing engine.

The square and cube geometries give closed surfaces and 3-manifolds
whose homology, orientability and fundamental groups are classical, so
every machine output here is checked against hand-frozen expectations
(torus, Klein bottle, projective plane, sphere, 3-torus).  The bundled
24-cell pairing is then pinned down by the same machinery: ideal vertex
cycles, orientation character, integral homology of the quotient and of
its orientation double cover, and the ridge presentation.
"""

import itertools
import random

import pytest

from dehn24 import gluing
from dehn24.chains import euler_characteristic, homology
from dehn24.gluing import (
    CellModel,
    GluingError,
    Pairing,
    PairingError,
    Presentation,
    SidePairingSpec,
    _facet_gluing_signs,
    build_cell_model,
    double_cover,
    geometry,
    orientation_character,
    parse_pairing,
    presentation,
    quotient_complex,
    validate_spec,
    vertex_cycles,
)
from dehn24.intlinalg import AbelianGroup, IntMatrix, chain_invariants, cokernel, kernel_basis
from dehn24.peripheral import peripheral_system, report
from dehn24.polytope import build_24cell, cusp_vertex, truncate
from conftest import is_chain_complex

# Square facets in canonical order: 0=(0,1), 1=(0,3), 2=(1,2), 3=(2,3).
# Cube squares: 0 is z=0, 1 is y=0, 2 is x=0, 3 is x=1, 4 is y=1, 5 is z=1.


def square_spec(*pairings: Pairing) -> SidePairingSpec:
    return SidePairingSpec(pairings=tuple(pairings), geometry="square")


def torus_spec() -> SidePairingSpec:
    return square_spec(
        Pairing(0, 3, ((0, 3), (1, 2))),
        Pairing(1, 2, ((0, 1), (3, 2))),
    )


def klein_spec() -> SidePairingSpec:
    return square_spec(
        Pairing(0, 3, ((0, 3), (1, 2))),
        Pairing(1, 2, ((0, 2), (3, 1))),
    )


def projective_plane_spec() -> SidePairingSpec:
    # Antipodal identification of the boundary.
    return square_spec(
        Pairing(0, 3, ((0, 2), (1, 3))),
        Pairing(1, 2, ((0, 2), (3, 1))),
    )


def sphere_spec() -> SidePairingSpec:
    # Fold the boundary shut across the 0-2 diagonal.
    return square_spec(
        Pairing(0, 1, ((0, 0), (1, 3))),
        Pairing(2, 3, ((1, 3), (2, 2))),
    )


def three_torus_spec() -> SidePairingSpec:
    return SidePairingSpec(geometry="cube", pairings=(
        Pairing(2, 3, ((0, 1), (2, 3), (4, 5), (6, 7))),
        Pairing(1, 4, ((0, 2), (1, 3), (4, 6), (5, 7))),
        Pairing(0, 5, ((0, 4), (1, 5), (2, 6), (3, 7))),
    ))


def groups(q, top):
    return [homology(q.chain, k) for k in range(top + 1)]


def test_torus():
    q = quotient_complex(torus_spec())
    assert [len(r) for r in q.representatives] == [1, 2, 1]
    assert is_chain_complex(q.chain)
    assert euler_characteristic(q.chain) == 0
    h = groups(q, 2)
    assert (h[0].free_rank, h[0].torsion) == (1, ())
    assert (h[1].free_rank, h[1].torsion) == (2, ())
    assert (h[2].free_rank, h[2].torsion) == (1, ())
    char = orientation_character(torus_spec())
    assert char.orientable and char.signs == (1, 1)
    ab = presentation(torus_spec()).abelianization()
    assert (ab.free_rank, ab.torsion) == (2, ())


def test_klein_bottle():
    spec = klein_spec()
    q = quotient_complex(spec)
    h = groups(q, 2)
    assert (h[1].free_rank, h[1].torsion) == (1, (2,))
    assert (h[2].free_rank, h[2].torsion) == (0, ())
    char = orientation_character(spec)
    assert not char.orientable
    assert sorted(char.signs) == [-1, 1]
    ab = presentation(spec).abelianization()
    assert (ab.free_rank, ab.torsion) == (1, (2,))
    # The orientation double cover is the torus.
    cover = quotient_complex(spec, copies=2)
    hc = groups(cover, 2)
    assert (hc[1].free_rank, hc[1].torsion) == (2, ())
    assert (hc[2].free_rank, hc[2].torsion) == (1, ())


def test_projective_plane():
    spec = projective_plane_spec()
    q = quotient_complex(spec)
    assert [len(r) for r in q.representatives] == [2, 2, 1]
    assert euler_characteristic(q.chain) == 1
    h = groups(q, 2)
    assert (h[1].free_rank, h[1].torsion) == (0, (2,))
    assert (h[2].free_rank, h[2].torsion) == (0, ())
    assert not orientation_character(spec).orientable
    # Double cover: the sphere.
    cover = quotient_complex(spec, copies=2)
    assert euler_characteristic(cover.chain) == 2
    hc = groups(cover, 2)
    assert (hc[1].free_rank, hc[1].torsion) == (0, ())
    assert (hc[2].free_rank, hc[2].torsion) == (1, ())


def test_sphere():
    spec = sphere_spec()
    q = quotient_complex(spec)
    assert euler_characteristic(q.chain) == 2
    h = groups(q, 2)
    assert (h[1].free_rank, h[1].torsion) == (0, ())
    assert (h[2].free_rank, h[2].torsion) == (1, ())
    assert orientation_character(spec).orientable
    with pytest.raises(GluingError):
        double_cover(spec)


def test_three_torus():
    spec = three_torus_spec()
    q = quotient_complex(spec)
    assert [len(r) for r in q.representatives] == [1, 3, 3, 1]
    assert is_chain_complex(q.chain)
    h = groups(q, 3)
    assert [(g.free_rank, g.torsion) for g in h] == [
        (1, ()), (3, ()), (3, ()), (1, ())]
    assert orientation_character(spec).orientable
    ab = presentation(spec).abelianization()
    assert (ab.free_rank, ab.torsion) == (3, ())
    pres = presentation(spec)
    assert len(pres.generators) == 3
    # Every ridge cycle of the cube closes after 4 crossings.
    assert all(len(w) == 4 for w in pres.relators)


def test_vertex_cycles_square():
    assert vertex_cycles(torus_spec()) == ((0, 1, 2, 3),)
    assert vertex_cycles(projective_plane_spec()) == ((0, 2), (1, 3))
    assert vertex_cycles(sphere_spec()) == ((0,), (2,), (1, 3))


def containment_model(faces_by_dim) -> CellModel:
    """The cell model as built by testing every (k-1)-face for containment
    in every k-cell: the oracle for ``build_cell_model``."""
    dim = len(faces_by_dim) - 1
    cells = tuple(tuple(tuple(f) for f in faces_by_dim[k]) for k in range(dim + 1))
    index = tuple({f: i for i, f in enumerate(cells[k])} for k in range(dim + 1))
    boundary: list[tuple[tuple[tuple[int, int], ...], ...]] = [tuple(() for _ in cells[0])]

    for k in range(1, dim + 1):
        previous = boundary[k - 1]
        level = []
        for cell in cells[k]:
            members = set(cell)
            subs = [i for i, f in enumerate(cells[k - 1]) if members.issuperset(f)]
            if k == 1:
                a, b = cell
                level.append(((index[0][(a,)], -1), (index[0][(b,)], 1)))
                continue
            # Local chain complex of the boundary sphere of this cell.
            rows = sorted({i for s in subs for i, _ in previous[s]})
            row_pos = {r: t for t, r in enumerate(rows)}
            local = [[0] * len(subs) for _ in rows]
            for col, s in enumerate(subs):
                for r, coeff in previous[s]:
                    local[row_pos[r]][col] = coeff
            cycle = kernel_basis(IntMatrix(local, cols=len(subs)))
            if cycle.cols != 1:
                raise GluingError(f"boundary of a {k}-cell is not a sphere cycle")
            coeffs = cycle.column(0)
            if any(c not in (1, -1) for c in coeffs):
                raise GluingError(f"degenerate fundamental cycle on a {k}-cell")
            if coeffs[0] < 0:
                coeffs = tuple(-c for c in coeffs)
            level.append(tuple(sorted(zip(subs, coeffs))))
        boundary.append(tuple(level))

    return CellModel(dim=dim, cells=cells, boundary_entries=tuple(boundary), cell_index=index)


@pytest.mark.parametrize("faces", [truncate().faces, gluing._square_faces(), gluing._cube_faces()],
                         ids=["truncated24", "square", "cube"])
def test_cell_model_matches_containment_scan(faces):
    got, expected = build_cell_model(faces), containment_model(faces)
    assert got.dim == expected.dim
    assert got.cells == expected.cells
    assert got.boundary_entries == expected.boundary_entries
    assert got.cell_index == expected.cell_index


def _polygon_faces(edges):
    """A 2-cell on every vertex of ``edges`` whose boundary is those edges."""
    vertices = sorted({v for e in edges for v in e})
    return tuple((v,) for v in vertices), tuple(sorted(edges)), (tuple(vertices),)


_RP2 = ((0, 1, 2), (0, 1, 5), (0, 2, 3), (0, 3, 4), (0, 4, 5),
        (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5))


@pytest.mark.parametrize("faces, k", [
    pytest.param(_polygon_faces([(0, 1), (1, 2)]), 2, id="ridge_in_one_face"),
    pytest.param(_polygon_faces([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), 2,
                 id="ridge_in_three_faces"),
    pytest.param(_polygon_faces([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]), 2,
                 id="face_never_reached"),
    # The six-vertex projective plane: every edge in two triangles, but
    # no consistent orientation, so the walk meets a face with both signs.
    pytest.param((tuple((v,) for v in range(6)), tuple(itertools.combinations(range(6), 2)),
                  _RP2, (tuple(range(6)),)), 3, id="signs_disagree"),
])
def test_cell_model_refuses_a_non_sphere_boundary(faces, k):
    message = f"^boundary of a {k}-cell is not a sphere cycle$"
    with pytest.raises(GluingError, match=message):
        build_cell_model(faces)
    with pytest.raises(GluingError, match=message):
        containment_model(faces)


def test_sphere_cycle_refuses_a_non_unit_coefficient():
    # Two faces sharing their one ridge, once with coefficient 2.
    with pytest.raises(GluingError, match="^degenerate fundamental cycle on a 2-cell$"):
        gluing._sphere_cycle(2, [0, 1], [((0, 2),), ((0, 1),)])


def test_validation_rejects_duplicate_facet():
    with pytest.raises(PairingError, match="more than one pairing"):
        validate_spec(square_spec(
            Pairing(0, 3, ((0, 3), (1, 2))),
            Pairing(0, 2, ((0, 1), (1, 2))),
            Pairing(1, 2, ((0, 1), (3, 2))),
        ))


def test_validation_rejects_unpaired_facets():
    with pytest.raises(PairingError, match="unpaired"):
        validate_spec(square_spec(Pairing(0, 3, ((0, 3), (1, 2)))))


def test_validation_rejects_bad_bijection():
    with pytest.raises(PairingError, match="not facet"):
        validate_spec(square_spec(
            Pairing(0, 3, ((0, 3), (2, 2))),
            Pairing(1, 2, ((0, 1), (3, 2))),
        ))


def test_validation_rejects_non_face_image():
    # x=0 to x=1 by a map that breaks an edge of the square.
    with pytest.raises(PairingError, match="non-face"):
        bad = SidePairingSpec(geometry="cube", pairings=(
            Pairing(2, 3, ((0, 1), (2, 3), (4, 7), (6, 5))),
            Pairing(1, 4, ((0, 2), (1, 3), (4, 6), (5, 7))),
            Pairing(0, 5, ((0, 4), (1, 5), (2, 6), (3, 7))),
        ))
        validate_spec(bad)


def test_non_face_refusal_names_the_image():
    # A one-shot iterable of vertices, as the cell-map recursion passes.
    with pytest.raises(GluingError, match=r"no 1-cell with vertex set \[1, 7\]$"):
        geometry("cube").model.index_of(1, (v for v in (7, 1)))
    with pytest.raises(PairingError, match=r"non-face of facet 3: .* \[1, 7\]$"):
        SidePairingSpec(geometry="cube", pairings=(
            Pairing(2, 3, ((0, 1), (2, 3), (4, 7), (6, 5))),
            Pairing(1, 4, ((0, 2), (1, 3), (4, 6), (5, 7))),
            Pairing(0, 5, ((0, 4), (1, 5), (2, 6), (3, 7))),
        ))


def test_validation_rejects_bad_copies():
    """A spec on three copies, and a pairing on a copy the spec lacks."""
    with pytest.raises(PairingError, match="^copies must be 1 or 2$"):
        SidePairingSpec(pairings=torus_spec().pairings, geometry="square", copies=3)
    with pytest.raises(PairingError, match="^copy index 1 out of range$"):
        square_spec(Pairing(0, 3, ((0, 3), (1, 2)), copy_b=1),
                    Pairing(1, 2, ((0, 1), (3, 2))))


def test_quotient_and_cover_refuse_a_copy_count_mismatch():
    cover = double_cover(klein_spec())
    with pytest.raises(GluingError, match="^copies must be 1 or 2$"):
        quotient_complex(klein_spec(), copies=3)
    with pytest.raises(GluingError, match="^spec has 2 copies, requested 1$"):
        quotient_complex(cover)
    with pytest.raises(GluingError, match="^double cover expects a single-copy spec$"):
        double_cover(cover)


def test_validation_rejects_pointwise_self_gluing():
    with pytest.raises(PairingError, match="itself pointwise"):
        validate_spec(square_spec(
            Pairing(0, 0, ((0, 0), (1, 1))),
            Pairing(1, 2, ((0, 1), (3, 2))),
            Pairing(3, 3, ((2, 2), (3, 3))),
        ))


def test_quotient_rejects_orbifold_fold():
    # Folding an edge onto itself reverses it around its midpoint.
    spec = square_spec(
        Pairing(0, 0, ((0, 1), (1, 0))),
        Pairing(1, 2, ((0, 1), (3, 2))),
        Pairing(3, 3, ((2, 3), (3, 2))),
    )
    validate_spec(spec)
    with pytest.raises(GluingError, match="itself by a nontrivial symmetry"):
        quotient_complex(spec)


@pytest.mark.parametrize("value", [1.5, 0.0])
@pytest.mark.parametrize("field", ["facet_a", "facet_b", "copy_a", "copy_b", "source",
                                   "target"])
def test_pairing_refuses_non_integer_indices(field, value):
    """Every index is read with ``operator.index`` when the record is built.
    A ``copy_a`` of 0.0 or a float vertex used to pass ``validate_spec`` and
    then raise a bare TypeError in ``vertex_cycles``, ``presentation`` or
    ``quotient_complex``."""
    fields = {"facet_a": 0, "facet_b": 3, "copy_a": 0, "copy_b": 0}
    vertex_map = [[0, 3], [1, 2]]
    if field in fields:
        fields[field] = value
    else:
        vertex_map[0][field == "target"] = value
    with pytest.raises(TypeError):
        Pairing(vertex_map=vertex_map, **fields)


def test_pairing_reads_its_vertex_map_as_tuples():
    listed = Pairing(0, 3, [[0, 3], [1, 2]])
    assert listed == Pairing(0, 3, ((0, 3), (1, 2)))
    assert hash(listed) == hash(Pairing(0, 3, ((0, 3), (1, 2))))
    assert listed.vertex_map == ((0, 3), (1, 2))


def test_spec_refuses_non_integer_copies(census_spec):
    with pytest.raises(TypeError):
        SidePairingSpec(pairings=census_spec.pairings, copies=1.0)
    with pytest.raises(TypeError):
        SidePairingSpec(pairings=census_spec.pairings, copies=1.5)
    assert SidePairingSpec(pairings=census_spec.pairings, copies=1).copies == 1


def test_unknown_geometry():
    with pytest.raises(GluingError, match="unknown geometry"):
        geometry("dodecahedron")


# ---------------------------------------------------------------------------
# The bundled 24-cell pairing.


def test_census_spec_shape(census_spec):
    assert census_spec.geometry == "ideal24"
    assert census_spec.copies == 1
    assert len(census_spec.pairings) == 12
    assert census_spec.metadata_dict() == {"census": "1011", "code": "14FF28"}
    assert not any(p.is_self_pairing() for p in census_spec.pairings)
    validate_spec(census_spec)


def test_census_vertex_cycles(census_spec):
    cycles = vertex_cycles(census_spec)
    assert [len(c) for c in cycles] == [2, 2, 2, 2, 16]
    # The four short cycles pair each unit vector with its negative;
    # all sixteen half-integer vertices fall into one orbit.
    assert cycles[:4] == ((0, 23), (9, 14), (10, 13), (11, 12))
    assert cycles[4] == tuple(range(1, 9)) + tuple(range(15, 23))


def test_census_orientation(census_spec):
    char = orientation_character(census_spec)
    assert not char.orientable
    assert char.signs == (1, 1, -1, -1, 1, -1, 1, 1, 1, -1, 1, 1)


def _labels_exist(spec: SidePairingSpec) -> bool:
    """The definition: +-1 copy labels with label_a * label_b = sign throughout."""
    signs = _facet_gluing_signs(spec)
    return any(all(label[p.copy_a] * label[p.copy_b] == sign
                   for p, sign in zip(spec.pairings, signs))
               for label in itertools.product((1, -1), repeat=spec.copies))


def _glued_within_copies(spec: SidePairingSpec) -> SidePairingSpec:
    """Two copies of ``spec``, each glued to itself: no pairing crosses."""
    pairings = tuple(Pairing(p.facet_a, p.facet_b, p.vertex_map, c, c)
                     for c in (0, 1) for p in spec.pairings)
    return SidePairingSpec(pairings=pairings, geometry=spec.geometry, copies=2)


def test_orientation_character_matches_definition(census_spec):
    cases = [(torus_spec(), True), (klein_spec(), False),
             (projective_plane_spec(), False), (three_torus_spec(), True),
             (census_spec, False), (double_cover(census_spec), True),
             (_glued_within_copies(census_spec), False),
             (_glued_within_copies(torus_spec()), True)]
    for spec, orientable in cases:
        assert orientation_character(spec).orientable == _labels_exist(spec) == orientable


def test_census_n_cells(census_n):
    q = census_n
    assert [len(r) for r in q.representatives] == [24, 84, 96, 36, 1]
    assert is_chain_complex(q.chain)
    assert euler_characteristic(q.chain) == 1


def test_census_n_homology(census_n):
    h = groups(census_n, 4)
    assert (h[0].free_rank, h[0].torsion) == (1, ())
    assert (h[1].free_rank, h[1].torsion) == (0, (2,) * 6)
    assert (h[2].free_rank, h[2].torsion) == (0, (2,) * 4)
    assert (h[3].free_rank, h[3].torsion) == (0, ())
    assert (h[4].free_rank, h[4].torsion) == (0, ())


def test_census_cover_cells(census_m):
    q = census_m
    assert q.spec.copies == 2
    assert [len(r) for r in q.representatives] == [48, 168, 192, 72, 2]
    assert is_chain_complex(q.chain)
    assert euler_characteristic(q.chain) == 2


def test_census_cover_homology(census_m):
    h = groups(census_m, 4)
    assert [(g.free_rank, g.torsion) for g in h] == [
        (1, ()), (5, ()), (10, ()), (4, ()), (0, ())]


def test_census_cover_is_orientable(census_spec):
    cover = double_cover(census_spec)
    assert cover.copies == 2
    assert orientation_character(cover).orientable
    assert ("cover", "orientation double cover") in cover.metadata


def built_or_refused(spec: SidePairingSpec, copies: int):
    """The quotient on ``copies`` copies, or the text of its GluingError."""
    try:
        return quotient_complex(spec, copies=copies)
    except GluingError as error:
        return str(error)


def untruncated_quotients(specs, copies: int) -> list:
    """Each spec's pairings glued on the untruncated 24-cell on ``copies``
    copies (or the refusal's text): a complex X whose vertices X^0 are the
    ideal points, one per cusp.  Near each vertex X is the cone on a cusp
    section, so H_k(X, X^0) = H_k(M-bar, boundary M-bar), from a cell
    structure that shares no cell with the truncated model."""
    raw = gluing._closed_geometry("raw24", build_24cell().faces)
    named = gluing.geometry
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gluing, "geometry", lambda name: raw if name == "raw24" else named(name))
        quotients = [built_or_refused(SidePairingSpec(pairings=spec.pairings, geometry="raw24"),
                                      copies) for spec in specs]
    gluing.geometry.cache_clear()
    gluing._pairing_action.cache_clear()
    return quotients


@pytest.fixture(scope="module")
def raw24_quotients(census_spec):
    """The census pairing glued on the untruncated 24-cell, on one and two copies."""
    return {copies: untruncated_quotients([census_spec], copies)[0] for copies in (1, 2)}


def relative_homology(q) -> tuple[AbelianGroup, ...]:
    """H_1..H_4 of (X, X^0): the chain complex of X with C_0 dropped."""
    maps = chain_invariants(q.chain.boundary[2:])
    ranks = [0, *(rank for rank, _ in maps), 0]
    torsion = [*(factors for _, factors in maps), ()]
    return tuple(AbelianGroup(q.chain.cell_count(k) - ranks[k - 1] - ranks[k], torsion[k - 1])
                 for k in range(1, 5))


def f2_dimensions(groups_from_0) -> list[int]:
    """dim H_k(; F_2) from integral H_0, H_1, ..., by the universal
    coefficient theorem: free rank, plus the torsion factors of H_k and
    of H_(k-1)."""
    return [g.free_rank + len(g.torsion) + len(below.torsion)
            for below, g in zip((AbelianGroup(0), *groups_from_0), groups_from_0)]


def dual_cohomology(m) -> tuple[AbelianGroup, ...]:
    """H^3..H^0 of M, where H^j(M) is the free part of H_j(M) with the
    torsion of H_(j-1)(M)."""
    h = groups(m, 3)
    return tuple(AbelianGroup(h[j].free_rank, h[j - 1].torsion if j else ())
                 for j in reversed(range(4)))


def test_untruncated_cover_gives_lefschetz_dual_homology(raw24_quotients, census_m):
    """H_k(X, X^0) = H^(4-k)(M) for the orientable cover."""
    x = raw24_quotients[2]
    assert [x.chain.cell_count(k) for k in range(5)] == [5, 24, 48, 24, 2]
    relative = relative_homology(x)
    assert relative == (AbelianGroup(4), AbelianGroup(10), AbelianGroup(5), AbelianGroup(1))
    assert relative == dual_cohomology(census_m)
    assert euler_characteristic(x.chain) - 5 == euler_characteristic(census_m.chain) == 2


def test_untruncated_base_gives_lefschetz_dual_homology_mod_2(raw24_quotients, census_n):
    """The base is not orientable, so duality holds over F_2:
    dim H_k(X, X^0; F_2) = dim H_(4-k)(M; F_2)."""
    x = raw24_quotients[1]
    assert [x.chain.cell_count(k) for k in range(5)] == [5, 12, 24, 12, 1]
    relative = relative_homology(x)
    assert relative == (AbelianGroup(4), AbelianGroup(10), AbelianGroup(5, (2,)),
                        AbelianGroup(0))
    dims = f2_dimensions((AbelianGroup(0), *relative))[1:]
    assert dims == [4, 10, 6, 1]
    assert dims == f2_dimensions(groups(census_n, 3))[::-1]
    assert euler_characteristic(x.chain) - 5 == euler_characteristic(census_n.chain) == 1


def test_untruncated_slice_quotients_satisfy_duality(search_demo):
    """The 53 leaves of slice (0, 1).  On each copy count the untruncated
    and the truncated quotient build or refuse together, and 14 leaves
    refuse on both.  Every double cover satisfies integral Lefschetz
    duality and chi(X) - |X^0| = chi(M) = 2.  Of the one-copy quotients,
    the 28 with chi 1 satisfy the F_2 duality and the chi relation; the 11
    with chi 4 fail both, so they are not manifolds."""
    leaves = search_demo.Search({0, 1}).run()
    assert len(leaves) == 53
    truncated = {copies: [built_or_refused(leaf, copies) for leaf in leaves] for copies in (1, 2)}
    raw = {copies: untruncated_quotients(leaves, copies) for copies in (1, 2)}
    refused = {copies: [i for i, q in enumerate(truncated[copies]) if isinstance(q, str)]
               for copies in (1, 2)}
    for copies in (1, 2):
        assert refused[copies] == [i for i, x in enumerate(raw[copies]) if isinstance(x, str)]
    assert refused[1] == refused[2] and len(refused[1]) == 14

    chis = {}
    for i in sorted(set(range(len(leaves))) - set(refused[1])):
        x, m = raw[2][i], truncated[2][i]
        assert relative_homology(x) == dual_cohomology(m)
        assert euler_characteristic(x.chain) - x.chain.cell_count(0) == 2
        assert euler_characteristic(m.chain) == 2
        x, m = raw[1][i], truncated[1][i]
        chi = euler_characteristic(m.chain)
        dims = f2_dimensions((AbelianGroup(0), *relative_homology(x)))[1:]
        dual = dims == f2_dimensions(groups(m, 3))[::-1]
        relation = euler_characteristic(x.chain) - x.chain.cell_count(0) == chi
        assert dual == relation == (chi == 1)
        chis[chi] = chis.get(chi, 0) + 1
    assert chis == {1: 28, 4: 11}


def test_census_presentation(census_spec):
    pres = presentation(census_spec)
    assert len(pres.generators) == 12
    # One relator per ridge cycle; every cycle has length 4 because the
    # dihedral angles are right.
    assert all(len(w) == 4 for w in pres.relators)
    ab = pres.abelianization()
    assert (ab.free_rank, ab.torsion) == (0, (2,) * 6)


def test_census_cover_presentation(census_spec):
    pres = presentation(double_cover(census_spec))
    ab = pres.abelianization()
    assert (ab.free_rank, ab.torsion) == (5, ())


CENSUS_RELATORS = (
    (1, 2, -12, -2), (1, 3, 12, -3), (2, -4, 5, -3), (1, 4, 12, -4), (2, -3, 5, -4),
    (1, 5, -12, -5), (1, -10, 12, -6), (2, 6, 5, -6), (1, 11, -1, -7), (3, -11, -4, -7),
    (2, 8, -5, -8), (3, -9, -3, -8), (6, -11, -6, -7), (6, -9, -10, -8), (7, 9, -7, -8),
    (2, 9, -5, -9), (4, -8, -4, -9), (6, -8, -10, -9), (1, -6, 12, -10), (5, 10, 2, -10),
    (7, 10, 11, -10), (3, -7, -4, -11), (8, 11, -9, -11), (7, 12, -11, -12),
)

CENSUS_COVER_RELATORS = (
    (1, 3, -23, -3), (1, 5, 24, -5), (3, -8, 10, -5), (1, 7, 24, -7), (3, -6, 10, -7),
    (1, 9, -23, -9), (5, -4, 8, -9), (7, -4, 6, -9), (1, -20, 24, -11), (3, 11, 10, -11),
    (1, 21, -1, -13), (5, -22, -7, -13), (3, 15, -9, -15), (5, -18, -5, -15),
    (11, -22, -11, -13), (11, -18, -19, -15), (13, 17, -13, -15), (3, 17, -9, -17),
    (7, -16, -7, -17), (11, -16, -19, -17), (1, -12, 24, -19), (9, 19, 4, -19),
    (13, 19, 22, -19), (3, -20, 10, 20), (5, -14, -7, -21), (15, -12, 18, 20),
    (15, 21, -17, -21), (-20, -14, 20, -21), (17, -12, 16, 20), (9, -12, 4, 12),
    (21, -12, 14, 12), (11, -2, 20, -23), (13, 23, -21, -23), (19, -2, 12, -23),
    (13, -6, 22, 8), (15, -8, 18, 8), (21, -6, 14, 8), (17, -6, 16, 6), (23, -8, 2, 8),
    (23, -6, 2, 6), (2, 4, -24, -4), (2, 10, -24, -10), (2, 22, -2, -14), (4, 16, -10, -16),
    (14, 18, -14, -16), (4, 18, -10, -18), (16, 22, -18, -22), (14, 24, -22, -24), (5,),
)


def test_presentation_relators_word_for_word(census_spec):
    """The ridge walk's exact words: start ridge, facet and direction."""
    assert presentation(census_spec).relators == CENSUS_RELATORS
    assert presentation(double_cover(census_spec)).relators == CENSUS_COVER_RELATORS
    assert presentation(torus_spec()).relators == ((1, 2, -1, -2),)
    assert presentation(klein_spec()).relators == ((1, 2, 1, -2),)
    assert presentation(three_torus_spec()).relators == (
        (3, 2, -3, -2), (3, 1, -3, -1), (2, 1, -2, -1))


def test_each_pairing_is_resolved_once(census_spec):
    """One resolution per distinct pairing, shared by the signs, the
    gluing and the ridge walk, and by both copies of the cover."""
    gluing._pairing_action.cache_clear()
    quotient_complex(census_spec, copies=2)
    assert gluing._pairing_action.cache_info().misses == len(census_spec.pairings) == 12
    quotient_complex(census_spec)
    presentation(census_spec)
    assert gluing._pairing_action.cache_info().misses == 12


def test_presentation_squares_a_self_paired_generator():
    """A facet glued to itself by a reflection is an involution, so its
    generator's square is a relator (the quotient itself is refused as an
    orbifold, but the presentation is read from the spec alone)."""
    spec = square_spec(
        Pairing(0, 0, ((0, 1), (1, 0))),
        Pairing(1, 2, ((0, 1), (3, 2))),
        Pairing(3, 3, ((2, 3), (3, 2))),
    )
    pres = presentation(spec)
    assert pres.generators == ("a", "b", "c")
    assert pres.relators[-2:] == ((1, 1), (3, 3))


def test_presentation_refuses_two_copies_without_crossing():
    with pytest.raises(GluingError, match="no pairing crosses"):
        presentation(_glued_within_copies(torus_spec()))


@pytest.mark.parametrize("letter, error", [(0, ValueError), (3, ValueError),
                                           (-3, ValueError), (1.5, TypeError),
                                           (1.0, TypeError)])
def test_presentation_refuses_a_letter_that_names_no_generator(letter, error):
    """Letters are read with ``operator.index`` when the record is built.
    Letter 0 was read as the last generator's inverse, so <a, b | 0>
    abelianized to Z, and letter 3 raised a bare IndexError."""
    with pytest.raises(error):
        Presentation(generators=("a", "b"), relators=((1, -2), (2, letter)))
    with pytest.raises(ValueError, match="^letter 0 names none of the 2 generators$"):
        Presentation(generators=("a", "b"), relators=((0,),))


def test_presentation_reads_its_words_as_tuples():
    listed = Presentation(generators=["a", "b"], relators=[[1, -2, 1, 2], []])
    assert listed == Presentation(generators=("a", "b"), relators=((1, -2, 1, 2), ()))
    assert listed.relators == ((1, -2, 1, 2), ())
    assert listed.abelianization() == AbelianGroup(1, (2,))


@pytest.mark.parametrize("name", ["census_n", "census_m"])
def test_positions_place_each_cell_in_its_representative(name, request):
    q = request.getfixturevalue(name)
    model = geometry(q.spec.geometry).model
    for k in range(q.top_dim + 1):
        for (copy, idx), (orbit, _, positions) in q.orbit_index[k].items():
            rep = q.representatives[k][orbit]
            assert len(positions) == len(model.cells[k][idx])
            assert sorted(positions) == list(range(len(model.cells[k][rep[1]])))
            if (copy, idx) == rep:
                assert positions == tuple(range(len(positions)))


def test_census_boundary_flags(census_n):
    q = census_n
    provenance = geometry(q.spec.geometry).labels
    labels = [[provenance[k][idx] for _, idx in q.representatives[k]] for k in range(5)]
    on_cusp = [[cusp_vertex(label) is not None for label in labels[k]] for k in range(5)]
    # One cubical 3-cell survives per ideal vertex orbit representative:
    # the 24 vertex cubes are never identified with each other.
    assert sum(on_cusp[3]) == 24
    # The body cell and the glued octahedral cells are interior.
    assert not on_cusp[4][0]
    interior = [label for label, cusp in zip(labels[3], on_cusp[3]) if not cusp]
    assert all(lab[0] == "facet" for lab in interior)


def _shuffled_and_flipped(spec: SidePairingSpec) -> SidePairingSpec:
    """The records in a seeded order, every other one written from its far side."""
    pairings = list(spec.pairings)
    random.Random(1011).shuffle(pairings)
    pairings = [Pairing(p.facet_b, p.facet_a, tuple(sorted(p.backward().items()))) if i % 2
                else p for i, p in enumerate(pairings)]
    return SidePairingSpec(pairings=tuple(pairings), geometry=spec.geometry,
                           metadata=spec.metadata)


def test_pairing_order_does_not_matter(census_spec, census_n, census_m, census_system):
    reordered = SidePairingSpec(
        pairings=tuple(reversed(census_spec.pairings)),
        geometry=census_spec.geometry,
        metadata=census_spec.metadata,
    )
    q = quotient_complex(reordered)
    assert [len(r) for r in q.representatives] == [24, 84, 96, 36, 1]
    h1 = homology(q.chain, 1)
    assert (h1.free_rank, h1.torsion) == (0, (2,) * 6)
    assert vertex_cycles(reordered) == vertex_cycles(census_spec)

    flipped = _shuffled_and_flipped(census_spec)
    assert sum(p not in census_spec.pairings for p in flipped.pairings) == 6
    for expected in (census_n, census_m):
        q = quotient_complex(flipped, expected.spec.copies)
        assert q.representatives == expected.representatives
        assert q.chain.boundary == expected.chain.boundary
    assert report(peripheral_system(q)) == report(census_system)


def oracle_map_sign(model: CellModel, dim: int, source: int, mapping: dict[int, int],
                    memo: dict[tuple[int, int], tuple[int, int]]) -> tuple[int, int]:
    """A pairing's cell map as first written, the oracle for
    ``_pairing_action``: target cell and orientation sign of ``source``.

    The sign compares the pushed-forward boundary chain with the target's
    own chain, recursing through the closure; ``memo`` receives every cell
    of that closure.
    """
    key = (dim, source)
    if key in memo:
        return memo[key]
    target = model.index_of(dim, (mapping[v] for v in model.cells[dim][source]))
    if dim == 0:
        memo[key] = (target, 1)
        return memo[key]
    pushed: dict[int, int] = {}
    for sub, coeff in model.boundary_entries[dim][source]:
        sub_target, sub_sign = oracle_map_sign(model, dim - 1, sub, mapping, memo)
        pushed[sub_target] = pushed.get(sub_target, 0) + coeff * sub_sign
    reference = dict(model.boundary_entries[dim][target])
    first = min(reference)
    sign = 1 if pushed[first] == reference[first] else -1
    if pushed != {c: sign * x for c, x in reference.items()}:
        raise GluingError("vertex bijection does not extend to a cell isomorphism")
    memo[key] = (target, sign)
    return memo[key]


def oracle_cell_table(name: str, facet_a: int, facet_b: int, vertex_map) -> dict:
    """``{(dim, cell): (image, sign)}`` over facet_a's closure, by
    ``oracle_map_sign``, refused with ``_pairing_action``'s PairingError."""
    geo = geometry(name)
    mapping = geo.extend_map(facet_a, facet_b, dict(vertex_map))
    table: dict = {}
    try:
        oracle_map_sign(geo.model, geo.model.dim - 1, geo.model_facet[facet_a], mapping, table)
    except GluingError as error:
        raise PairingError(f"bijection sends facet {facet_a} to a non-face of "
                           f"facet {facet_b}: {error}") from None
    return table


def _resolves_like_the_oracle(name: str, facet_a: int, facet_b: int, vertex_map) -> bool:
    """True if both resolve the pairing to the same links; False if both
    refuse it with the same PairingError text."""
    try:
        table = oracle_cell_table(name, facet_a, facet_b, vertex_map)
    except PairingError as error:
        with pytest.raises(PairingError) as refused:
            gluing._pairing_action(name, facet_a, facet_b, vertex_map)
        assert str(refused.value) == str(error)
        return False
    geo = geometry(name)
    model = geo.model
    mapping = geo.extend_map(facet_a, facet_b, dict(vertex_map))
    ridges, links = gluing._pairing_action(name, facet_a, facet_b, vertex_map)
    got = {}
    for dim, level in enumerate(links):
        for cell, image, sign, forward, backward in level:
            got[dim, cell] = (image, sign)
            source, target = model.cells[dim][cell], model.cells[dim][image]
            if dim == 0:
                assert (forward, backward) == (None, None)
                continue
            positions = range(len(source))
            assert backward(positions) == tuple(target.index(mapping[v]) for v in source)
            assert forward(positions) == tuple(source.index(v) for w in target
                                               for v in source if mapping[v] == w)
    assert got == table
    assert dict(ridges[0]) == {cell: image for (dim, cell), (image, _) in table.items()
                               if dim == model.dim - 2}
    assert dict(ridges[1]) == {image: cell for cell, image in ridges[0].items()}
    return True


def test_pairing_action_matches_the_recursive_oracle(census_spec, search_demo):
    """Every support-preserving pairing of the 24-cell (the census, its
    cover, the leaves of the 15 two-free-class slices and every admissible
    map of every same-support facet pair), and every vertex bijection
    between facets of the square and of the cube."""
    leaves = [spec for key in itertools.combinations(range(6), 2)
              for spec in search_demo.Search(set(key)).run()]
    specs = [census_spec, double_cover(census_spec)] + leaves
    corpus = {(p.facet_a, p.facet_b, p.vertex_map) for spec in specs for p in spec.pairings}
    corpus |= {(a, b, tuple(sorted(forward.items())))
               for four in search_demo.support_classes().values()
               for a, b in itertools.permutations(four, 2)
               for forward in search_demo.admissible_maps(a, b)}
    assert len(corpus) == 576
    assert all(_resolves_like_the_oracle("ideal24", *key) for key in sorted(corpus))

    resolved = refused = 0
    for name in ("square", "cube"):
        facets = geometry(name).facet_vertices
        for a, b in itertools.product(range(len(facets)), repeat=2):
            for image in itertools.permutations(facets[b]):
                if _resolves_like_the_oracle(name, a, b, tuple(zip(facets[a], image))):
                    resolved += 1
                else:
                    refused += 1
    assert (resolved, refused) == (32 + 36 * 8, 36 * 16)


def oracle_quotient(spec: SidePairingSpec, copies: int = 1) -> dict:
    """The orbit walk as first written, the oracle for ``quotient_complex``.

    Links for every dimension are built up front on (copy, cell) keys, and
    each key's vertex map onto its representative is a dict, composed with
    the pairing's whole vertex map along every link.
    """
    if spec.copies == 1 and copies == 2:
        spec = double_cover(spec)
    geo = geometry(spec.geometry)
    model = geo.model
    top = model.dim
    links: list[dict] = [{} for _ in range(top + 1)]
    for p in spec.pairings:
        mapping = geo.extend_map(p.facet_a, p.facet_b, p.forward())
        inverse = {w: v for v, w in mapping.items()}
        table: dict = {}
        oracle_map_sign(model, top - 1, geo.model_facet[p.facet_a], mapping, table)
        for (dim, idx), (target, sign) in table.items():
            a, b = (p.copy_a, idx), (p.copy_b, target)
            links[dim].setdefault(a, []).append((b, sign, mapping))
            links[dim].setdefault(b, []).append((a, sign, inverse))

    representatives, orbit_index, maps_to_rep = [], [], []
    for k in range(top + 1):
        reps: list = []
        table: dict = {}
        rep_maps: dict = {}
        for rep in [(c, i) for c in range(spec.copies) for i in range(len(model.cells[k]))]:
            if rep in table:
                continue
            table[rep] = (len(reps), 1)
            rep_maps[rep] = {v: v for v in model.cells[k][rep[1]]}
            reps.append(rep)
            stack = [rep]
            while stack:
                key = stack.pop()
                for other, sign, to_other in links[k].get(key, ()):
                    other_map = {to_other[v]: w for v, w in rep_maps[key].items()}
                    if other not in table:
                        table[other] = (len(reps) - 1, sign * table[key][1])
                        rep_maps[other] = other_map
                        stack.append(other)
                    elif rep_maps[other] != other_map:
                        raise GluingError(
                            "side-pairing identifies a cell with itself by a "
                            "nontrivial symmetry; the quotient is not a CW complex")
        representatives.append(tuple(reps))
        orbit_index.append(table)
        maps_to_rep.append(rep_maps)

    boundary = [IntMatrix.zero(0, len(representatives[0]))]
    for k in range(1, top + 1):
        columns = []
        for copy, idx in representatives[k]:
            column: dict[int, int] = {}
            for sub, coeff in model.boundary_entries[k][idx]:
                q, sign = orbit_index[k - 1][(copy, sub)]
                column[q] = column.get(q, 0) + coeff * sign
            columns.append(column.items())
        boundary.append(IntMatrix.from_nonzeros(columns, rows=len(representatives[k - 1])))
    return {"representatives": tuple(representatives), "orbit_index": tuple(orbit_index),
            "maps_to_rep": tuple(maps_to_rep), "boundary": tuple(boundary)}


def agrees_with_oracle(spec: SidePairingSpec, copies: int = 1) -> bool:
    """True if both walks build the complex and agree field by field;
    False if both refuse it with the same GluingError."""
    try:
        want = oracle_quotient(spec, copies)
    except GluingError as error:
        with pytest.raises(GluingError) as refused:
            quotient_complex(spec, copies)
        assert str(refused.value) == str(error)
        return False
    q = quotient_complex(spec, copies)
    model = geometry(spec.geometry).model
    assert q.representatives == want["representatives"]
    assert [{key: entry[:2] for key, entry in level.items()} for level in q.orbit_index] \
        == list(want["orbit_index"])
    maps_to_rep = [
        {(copy, idx): {v: model.cells[k][q.representatives[k][orbit][1]][j]
                       for v, j in zip(model.cells[k][idx], positions)}
         for (copy, idx), (orbit, _, positions) in q.orbit_index[k].items()}
        for k in range(q.top_dim + 1)]
    assert maps_to_rep == list(want["maps_to_rep"])
    assert q.chain.boundary == want["boundary"]
    return True


@pytest.mark.parametrize("copies", [1, 2])
def test_orbit_walk_matches_oracle_on_census(census_spec, copies):
    assert agrees_with_oracle(census_spec, copies)
    assert agrees_with_oracle(_shuffled_and_flipped(census_spec), copies)


def test_orbit_walk_matches_oracle_on_small_gluings():
    for spec, copies in [(torus_spec(), 1), (klein_spec(), 1), (klein_spec(), 2),
                         (projective_plane_spec(), 2), (sphere_spec(), 1),
                         (three_torus_spec(), 1)]:
        assert agrees_with_oracle(spec, copies)
    fold = square_spec(
        Pairing(0, 0, ((0, 1), (1, 0))),
        Pairing(1, 2, ((0, 1), (3, 2))),
        Pairing(3, 3, ((2, 3), (3, 2))),
    )
    assert not agrees_with_oracle(fold)


# Per slice: the nonorientable leaves and how many of them build, as
# ``perfbench/search_stages.json`` records.
@pytest.mark.parametrize("key, nonorientable, built",
                         [("0,1", 12, 3), ("0,3", 16, 5), ("2,3", 5, 1)])
def test_orbit_walk_matches_oracle_on_search_leaves(search_demo, key, nonorientable, built):
    leaves = search_demo.Search({int(x) for x in key.split(",")}).run()
    specs = [spec for spec in leaves
             if sorted(len(c) for c in vertex_cycles(spec)) == [2, 2, 2, 2, 16]
             and presentation(spec).abelianization() == AbelianGroup(0, (2,) * 6)
             and not orientation_character(spec).orientable]
    agreed = [spec for spec in specs if agrees_with_oracle(spec)]
    assert (len(specs), len(agreed)) == (nonorientable, built)
    assert all(agrees_with_oracle(spec, 2) for spec in agreed)


def oracle_vertex_cycles(spec: SidePairingSpec):
    """``vertex_cycles`` as first written, on (copy, vertex) keys: its oracle."""
    geo = geometry(spec.geometry)
    parent = {(c, v): (c, v) for c in range(spec.copies) for v in range(geo.spec_vertex_count)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in spec.pairings:
        for v, w in p.vertex_map:
            ra, rb = find((p.copy_a, v)), find((p.copy_b, w))
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict = {}
    for e in parent:
        groups.setdefault(find(e), []).append(e)
    cycles = sorted(groups.values(), key=lambda g: (len(g), g[0]))
    if spec.copies == 1:
        return tuple(tuple(v for _, v in g) for g in cycles)
    return tuple(tuple(g) for g in cycles)


def oracle_relators(spec: SidePairingSpec) -> tuple[tuple[int, ...], ...]:
    """``presentation``'s relators as first written: the ridge walk on
    (copy, ridge, facet) states, marking both states of a ridge."""
    geo = geometry(spec.geometry)
    ridge_facets = geo.ridge_facets
    crossing = {}
    for i, p in enumerate(spec.pairings):
        forward, backward = gluing._pairing_action(spec.geometry, p.facet_a, p.facet_b,
                                                   p.vertex_map)[0]
        fa, fb = geo.model_facet[p.facet_a], geo.model_facet[p.facet_b]
        crossing[p.copy_a, fa] = (i + 1, p.copy_b, fb, forward)
        if not p.is_self_pairing():
            crossing[p.copy_b, fb] = (-(i + 1), p.copy_a, fa, backward)

    def step(state):
        letter, copy, arrival, ridge_map = crossing[state[0], state[2]]
        ridge = ridge_map[state[1]]
        a, b = ridge_facets[ridge]
        return (copy, ridge, b if a == arrival else a), letter

    visited: set = set()
    relators = []
    for copy in range(spec.copies):
        for ridge in sorted(ridge_facets):
            start = (copy, ridge, ridge_facets[ridge][0])
            if start in visited:
                continue
            word = []
            state = start
            for _ in range(2 * len(ridge_facets) * spec.copies + 2):
                a, b = ridge_facets[state[1]]
                visited.add(state)
                visited.add((state[0], state[1], b if state[2] == a else a))
                state, letter = step(state)
                word.append(letter)
                if state == start:
                    break
            else:
                raise GluingError("ridge cycle failed to close")
            relators.append(tuple(word))
    relators += [(i + 1, i + 1) for i, p in enumerate(spec.pairings) if p.is_self_pairing()]
    if spec.copies == 2:
        relators.append((next(i for i, p in enumerate(spec.pairings)
                              if p.copy_a != p.copy_b) + 1,))
    return tuple(relators)


def test_vertex_cycles_and_ridge_words_match_oracles(search_demo):
    """Every leaf of two slices, each nonorientable leaf's double cover and
    three small gluings: the same cycles, and relators word for word."""
    leaves = [spec for key in ({0, 1}, {2, 3}) for spec in search_demo.Search(key).run()]
    specs = leaves + [double_cover(spec) for spec in leaves
                      if not orientation_character(spec).orientable]
    specs += [torus_spec(), double_cover(klein_spec()), double_cover(projective_plane_spec())]
    assert (len(leaves), len(specs)) == (117, 117 + 101 + 3)
    for spec in specs:
        assert vertex_cycles(spec) == oracle_vertex_cycles(spec)
        assert presentation(spec).relators == oracle_relators(spec)


def oracle_abelianization(pres: Presentation) -> AbelianGroup:
    """``Presentation.abelianization`` as first written, its oracle: dense
    exponent columns, then ``IntMatrix.from_columns``, then ``cokernel``."""
    rows = len(pres.generators)
    cols = []
    for word in pres.relators:
        exponent = [0] * rows
        for letter in word:
            exponent[abs(letter) - 1] += 1 if letter > 0 else -1
        cols.append(exponent)
    return cokernel(IntMatrix.from_columns(cols, rows=rows))


def test_abelianization_matches_oracle_on_every_slice(search_demo):
    """Every leaf of the 15 two-free-class slices and each nonorientable
    leaf's double cover: the same group from the sparse rows as from the
    dense relation matrix."""
    leaves = [spec for key in itertools.combinations(range(6), 2)
              for spec in search_demo.Search(set(key)).run()]
    covers = [double_cover(spec) for spec in leaves
              if not orientation_character(spec).orientable]
    assert len(leaves) == 854
    for spec in leaves + covers:
        pres = presentation(spec)
        assert pres.abelianization() == oracle_abelianization(pres)


def test_abelianization_matches_oracle_on_random_presentations():
    """Seeded random words, repeated letters among them, and the corner
    relators: a self-paired square, the two-copy one-letter tree relator,
    a word that cancels to nothing and the empty word."""
    rng = random.Random(24)
    corners = [(1, 1), (2,), (1, -1), (2, 2, -2, -2), ()]
    for _ in range(300):
        n = rng.randint(1, 6)
        words = [tuple(rng.choice((1, -1)) * rng.randint(1, n)
                       for _ in range(rng.randint(0, 6)))
                 for _ in range(rng.randint(0, 8))]
        words += [word for word in corners if all(abs(x) <= n for x in word)
                  and rng.random() < 0.5]
        rng.shuffle(words)
        pres = Presentation(generators=tuple("abcdef"[:n]), relators=tuple(words))
        assert pres.abelianization() == oracle_abelianization(pres)


def test_parse_errors():
    with pytest.raises(PairingError, match="cannot parse"):
        parse_pairing("0 5 ; 0->x\n")
    with pytest.raises(PairingError, match="expected 6"):
        parse_pairing("0 5 ; 0->0 1->5\n")
