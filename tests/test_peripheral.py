"""Tests for cusp cross sections and adapted peripheral bases.

Section counts, cube counts and section homology for the bundled
pairing are frozen from the same invariants the gluing tests pin down;
the adapted-basis algebra is additionally exercised on hand-written
matrices where every answer is checkable by eye.
"""

import pathlib
import random

import pytest

from dehn24 import chains, intlinalg, peripheral
from dehn24.chains import homology
from dehn24.gluing import geometry, quotient_complex
from dehn24.intlinalg import IntMatrix, generates, is_primitive
from dehn24.peripheral import (
    PeripheralError,
    PeripheralSystem,
    adapted_basis,
    cusp_sections,
    peripheral_system,
    report,
    slope,
)
from dehn24.polytope import cusp_vertex
from test_gluing import three_torus_spec
from test_intlinalg import smith_kernel_basis


def rank1_matrix(rows, row, col, value=1):
    data = [[0] * 3 for _ in range(rows)]
    data[row][col] = value
    return IntMatrix(data, cols=3)


# ---------------------------------------------------------------------------
# Sections of the bundled pairing.


def test_sections_of_n(census_n):
    sections = cusp_sections(census_n)
    assert [s.cube_count for s in sections] == [2, 2, 2, 2, 16]
    for s in sections:
        h1 = homology(s.chain, 1)
        assert (h1.free_rank, h1.torsion) == (2, (2,))
        assert homology(s.chain, 0).free_rank == 1
        # Nonorientable: no fundamental class.
        h3 = homology(s.chain, 3)
        assert (h3.free_rank, h3.torsion) == (0, ())


def test_sections_of_m(census_m):
    sections = cusp_sections(census_m)
    assert [s.cube_count for s in sections] == [4, 4, 4, 4, 32]
    for s in sections:
        got = [(homology(s.chain, k).free_rank, homology(s.chain, k).torsion)
               for k in range(4)]
        assert got == [(1, ()), (3, ()), (3, ()), (1, ())]


def test_sections_partition_boundary(census_m):
    q = census_m
    sections = cusp_sections(q)
    provenance = geometry(q.spec.geometry).labels
    for k in range(4):
        flagged = {i for i, (_, idx) in enumerate(q.representatives[k])
                   if cusp_vertex(provenance[k][idx]) is not None}
        pieces = [set(s.cells[k]) for s in sections]
        assert set().union(*pieces) == flagged
        assert sum(len(p) for p in pieces) == len(flagged)


@pytest.mark.parametrize("name", ["census_n", "census_m"])
def test_sections_are_subcomplexes(name, request):
    # A section's cell lists are its inclusion map: that is a chain map
    # only if every face of a section cell lies in the section and the
    # section boundary is the ambient one restricted to the section.
    q = request.getfixturevalue(name)
    for s in cusp_sections(q):
        for k in range(1, 4):
            ambient = q.chain.boundary[k]
            inside = set(s.cells[k - 1])
            for a in s.cells[k]:
                assert all(r in inside for r, x in enumerate(ambient.column(a)) if x)
            restricted = IntMatrix([[ambient[r, a] for a in s.cells[k]]
                                    for r in s.cells[k - 1]], cols=len(s.cells[k]))
            assert s.chain.boundary[k] == restricted


def test_section_ordering_follows_vertex_cycles(census_n):
    # Cusp i (i = 1..4) is the one containing the cubes of the ideal
    # vertices -e_i and e_i; the half-integer cusp comes last.
    sections = cusp_sections(census_n)
    provenance = geometry(census_n.spec.geometry).labels
    vertex_pairs = []
    for s in sections[:4]:
        cubes = [provenance[3][census_n.representatives[3][a][1]] for a in s.cells[3]]
        vertex_pairs.append(tuple(sorted(cusp_vertex(cube) for cube in cubes)))
    assert vertex_pairs == [(0, 23), (9, 14), (10, 13), (11, 12)]


def test_no_boundary_means_no_sections():
    q = quotient_complex(three_torus_spec())
    with pytest.raises(PeripheralError, match="do not match"):
        cusp_sections(q)


# ---------------------------------------------------------------------------
# Peripheral matrices.


def test_peripheral_system_rejects_a_torsion_section(search_demo):
    """Leaf 20 of slice (0, 1), on two copies: the ambient H_1 is free, and
    the first cusp section is not a 3-torus."""
    q = quotient_complex(search_demo.Search({0, 1}).run()[20], copies=2)
    assert homology(q.chain, 1).torsion == ()
    with pytest.raises(PeripheralError, match=r"^cusp 1 section has H_1 = Z \+ Z_2\^2; "
                                              r"adapted bases need a torsion-free section"):
        peripheral_system(q)


def test_peripheral_matrices_of_m(census_m):
    matrices = peripheral_system(census_m).matrices
    assert len(matrices) == 5
    for matrix in matrices:
        assert (matrix.rows, matrix.cols) == (5, 3)
        decomp_rank = sum(1 for j in range(3) if any(matrix.column(j)))
        assert decomp_rank == 1  # exactly one surviving direction


# ---------------------------------------------------------------------------
# Adapted bases and slopes.


def test_adapted_basis_coordinate_projection():
    matrix = rank1_matrix(5, 0, 0)
    k1, k2, k3 = adapted_basis(matrix)
    assert k1 == (1, 0, 0)
    assert sorted((k2, k3)) == [(0, 0, 1), (0, 1, 0)]


def test_adapted_basis_sign_fix():
    matrix = rank1_matrix(5, 3, 1, value=-1)
    k1, k2, k3 = adapted_basis(matrix)
    assert matrix.apply(k1) == (0, 0, 0, 1, 0)


def test_adapted_basis_is_unimodular_and_kernel_spans(census_m):
    matrices = peripheral_system(census_m).matrices
    assert len(matrices) == 5
    for matrix in matrices:
        k1, k2, k3 = adapted_basis(matrix)
        det = IntMatrix.from_columns([k1, k2, k3]).det()
        assert det in (1, -1)
        assert matrix.apply(k2) == (0,) * 5
        assert matrix.apply(k3) == (0,) * 5
        assert is_primitive(matrix.apply(k1))


def test_adapted_basis_requires_rank_one():
    full = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(PeripheralError, match="kernel rank"):
        adapted_basis(full)


def test_adapted_basis_requires_summand_image():
    doubled = rank1_matrix(5, 0, 0, value=2)
    with pytest.raises(PeripheralError, match="direct summand"):
        adapted_basis(doubled)


def test_adapted_basis_deterministic():
    matrix = IntMatrix([[2, 4, 1], [0, 0, 0], [4, 8, 2], [0, 0, 0], [6, 12, 3]])
    assert adapted_basis(matrix) == adapted_basis(matrix)
    k1, k2, k3 = adapted_basis(matrix)
    assert is_primitive(matrix.apply(k1))
    assert matrix.apply(k2) == (0,) * 5 and matrix.apply(k3) == (0,) * 5


def test_adapted_basis_runs_no_smith_form(census_system, monkeypatch):
    """The kernel basis and kappa_1 come from one Hermite reduction, with
    no Smith form, and give the bases the golden report pins."""
    def forbidden(*args, **kwargs):
        raise AssertionError("adapted_basis ran a Smith form")

    monkeypatch.setattr(intlinalg, "_smith", forbidden)
    assert not hasattr(peripheral, "_smith")
    bases = tuple(adapted_basis(matrix) for matrix in census_system.matrices)
    epsilons = tuple(matrix.apply(basis[0])
                     for matrix, basis in zip(census_system.matrices, bases))
    golden = pathlib.Path(__file__).parent / "data" / "peripheral_1011.txt"
    system = PeripheralSystem(census_system.ambient_h1, census_system.matrices, bases,
                              epsilons, census_system.cube_counts, census_system.section_h1)
    assert report(system) == golden.read_text()


def smith_adapted_basis(matrix: IntMatrix):
    """The adapted-basis route before ``hermite_graph``, kept as an oracle:
    kappa_1 is the first column of the Smith transform V, its sign set so
    the image leads positive, then reduced against the kernel's Hermite
    rows one pivot at a time."""
    if matrix.cols != 3:
        raise PeripheralError(f"peripheral matrix must have 3 columns, has {matrix.cols}")
    decomp = intlinalg.snf(matrix)
    ker = smith_kernel_basis(matrix)
    if ker.cols != 2:
        raise PeripheralError(
            f"kernel rank {ker.cols} != 2: the surgery procedure needs a rank-1 "
            f"peripheral image")
    if decomp.D.diagonal_entries()[0] != 1:
        raise PeripheralError("peripheral image is not a direct summand of the "
                              "ambient H_1; no adapted basis exists")
    kappa1 = list(decomp.V.column(0))
    image = matrix.apply(kappa1)
    if next(x for x in image if x != 0) < 0:
        kappa1 = [-x for x in kappa1]
    for j in range(ker.cols):
        row = list(ker.column(j))
        p = next(i for i, x in enumerate(row) if x != 0)
        if row[p] < 0:
            row = [-x for x in row]
        shift = kappa1[p] // row[p]
        kappa1 = [x - shift * y for x, y in zip(kappa1, row)]
    return (tuple(kappa1), ker.column(0), ker.column(1))


def _outcome(route, matrix):
    """A route's basis, or the message it refuses the matrix with."""
    try:
        return route(matrix)
    except PeripheralError as error:
        return str(error)


def test_adapted_basis_matches_smith_route_on_census(census_system):
    for matrix in census_system.matrices:
        assert adapted_basis(matrix) == smith_adapted_basis(matrix)


def test_adapted_basis_matches_smith_route_on_random_maps():
    """Seeded maps of rank 0, 1 and 2, rank-1 maps whose image is not a
    summand, and a map of the wrong width: equal bases, or equal
    refusals word for word."""
    rng = random.Random(73)

    def vector(n):
        return [rng.randint(-4, 4) for _ in range(n)]

    def outer(rows, scale=1):
        u, v = vector(rows), vector(3)
        return [[scale * x * y for y in v] for x in u]

    seen = set()
    for t in range(1500):
        rows, rank = rng.randint(1, 6), t % 4
        if rank == 0:
            data = [[0] * 3 for _ in range(rows)]
        elif rank == 3:
            data = outer(rows, scale=rng.choice((2, 3)))
        else:
            parts = [outer(rows) for _ in range(rank)]
            data = [[sum(p[i][j] for p in parts) for j in range(3)] for i in range(rows)]
        matrix = IntMatrix(data, cols=3)
        got = _outcome(adapted_basis, matrix)
        assert got == _outcome(smith_adapted_basis, matrix)
        seen.add(" ".join(got.split()[:3]) if isinstance(got, str) else "basis")
    assert seen == {"kernel rank 3", "kernel rank 1", "peripheral image is", "basis"}
    wide = IntMatrix([[1, 0, 0, 0]])
    assert _outcome(adapted_basis, wide) == _outcome(smith_adapted_basis, wide)


def test_slope_identity_and_primitivity():
    basis = adapted_basis(rank1_matrix(5, 0, 0))
    assert slope(basis, 0, 0) == basis[0]
    for b in range(-10, 10):
        for c in range(-10, 10):
            assert is_primitive(slope(basis, b, c))


def test_slope_image_constant(census_m):
    matrix = peripheral_system(census_m).matrices[2]
    basis = adapted_basis(matrix)
    expected = matrix.apply(basis[0])
    for b, c in ((0, 0), (3, -7), (-50, 50), (11, 13)):
        assert matrix.apply(slope(basis, b, c)) == expected


# ---------------------------------------------------------------------------
# The assembled system.


def test_peripheral_system_of_m(census_m):
    system = peripheral_system(census_m)
    assert system.cusp_count == 5
    assert (system.ambient_h1.free_rank, system.ambient_h1.torsion) == (5, ())
    assert system.cube_counts == (4, 4, 4, 4, 32)
    assert generates(system.epsilons, 5)
    assert IntMatrix.from_columns(system.epsilons).det() in (1, -1)
    for eps in system.epsilons:
        assert is_primitive(eps)


def test_peripheral_system_reads_groups_from_generator_path(census_m, monkeypatch):
    """Ambient and section groups reuse the bases the matrices need."""
    def forbidden(*args, **kwargs):
        raise AssertionError("peripheral_system ran the group-only reduction")

    monkeypatch.setattr(chains, "_boundary_invariants", forbidden)
    seen = []
    real_basis = peripheral.homology_basis

    def recording_basis(c, k):
        seen.append((c, k))
        return real_basis(c, k)

    monkeypatch.setattr(peripheral, "homology_basis", recording_basis)
    system = peripheral_system(census_m)
    assert (census_m.chain, 1) in seen
    for s in cusp_sections(census_m):
        assert (s.chain, 1) in seen
    assert str(system.ambient_h1) == "Z^5"
    assert [str(g) for g in system.section_h1] == ["Z^3"] * 5


def test_peripheral_system_rejects_n(census_n):
    with pytest.raises(PeripheralError, match="orientation double cover"):
        peripheral_system(census_n)


def test_report_golden(census_m):
    golden = pathlib.Path(__file__).parent / "data" / "peripheral_1011.txt"
    assert report(peripheral_system(census_m)) == golden.read_text()
