"""Tests for developed cusp lattices and certified slope geometry.

Short-vector enumeration is checked against a brute-force box scan,
and the pinned 4*pi^2 bracket is re-certified from scratch with a
Machin-formula pi enclosure in exact rationals, so the constants in
the module never vouch for themselves.
"""

import decimal
import itertools
import random
import time
from collections import Counter, deque
from fractions import Fraction
from math import floor, isqrt, lcm
from types import SimpleNamespace

import pytest

from dehn24.filling import adapted_slopes
from dehn24.flatgeom import (
    TWO_PI_SQUARED_HIGH,
    TWO_PI_SQUARED_LOW,
    FlatGeometryError,
    FlatLattice,
    PrecisionError,
    SlopeLength,
    develop_lattice,
    enumerate_short,
    slope_length,
    slope_lengths,
    two_pi_ok,
    weakly_balanced,
)
from dehn24 import flatgeom
from dehn24.flatgeom import _edge_vectors, _exp_enclosure, _holonomy
from dehn24.gluing import GluingError, Pairing, SidePairingSpec, geometry, quotient_complex
from dehn24.intlinalg import IntMatrix
from dehn24.peripheral import CuspSection, cusp_sections

from test_gluing import three_torus_spec
from test_record import _rebuilt


@pytest.fixture(scope="module")
def cubic():
    return FlatLattice.from_columns([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture(scope="module")
def m_sections(census_m):
    return cusp_sections(census_m)


@pytest.fixture(scope="module")
def m_lattices(m_sections):
    return tuple(develop_lattice(s) for s in m_sections)


def brute_force_short(lattice, bound, box=7):
    """Every nonzero class in the cube |v_i| <= box whose developed vector
    B v has squared length scale^2 |B v|^2 below ``bound``, sorted by
    (squared length, class).  The basis is put over one denominator so
    the scan runs on integers."""
    den = lcm(*(x.denominator for row in lattice.basis for x in row))
    columns = [[int(x * den) for x in lattice.column(j)] for j in range(3)]
    limit = Fraction(bound) * den ** 2 / lattice.scale ** 2
    hits = []
    for v in itertools.product(range(-box, box + 1), repeat=3):
        n = sum(sum(c[i] * x for c, x in zip(columns, v)) ** 2 for i in range(3))
        if 0 < n < limit:
            hits.append((n, v))
    hits.sort()
    return [v for _, v in hits]


def covering_box(lattice, bound):
    """A cube |v_i| <= r that holds every class of squared length below
    ``bound``, found without the Gram matrix: with x = B v, |v_i| is at
    most the 1-norm of row i of B^-1 times max |x_j| <= sqrt(bound) / scale.
    Row i of B^-1 is column i of the adjugate over det B."""
    b = lattice.basis
    radius = 0
    for i in range(3):
        norm = sum(abs(b[(j + 1) % 3][(i + 1) % 3] * b[(j + 2) % 3][(i + 2) % 3]
                       - b[(j + 1) % 3][(i + 2) % 3] * b[(j + 2) % 3][(i + 1) % 3])
                   for j in range(3)) / abs(lattice.det())
        radius = max(radius, isqrt(floor(norm ** 2 * bound / lattice.scale ** 2)))
    return radius


def _atan_inv_bounds(inv: int, terms: int) -> tuple[Fraction, Fraction]:
    """Alternating-series bracket for atan(1/inv)."""
    x = Fraction(1, inv)
    partial = Fraction(0)
    power = x
    last_two = []
    for k in range(terms):
        partial += (-1) ** k * power / (2 * k + 1)
        power *= x * x
        last_two = (last_two + [partial])[-2:]
    return min(last_two), max(last_two)


def test_two_pi_squared_bracket_is_certified():
    lo5, hi5 = _atan_inv_bounds(5, 12)
    lo239, hi239 = _atan_inv_bounds(239, 6)
    pi_lo = 16 * lo5 - 4 * hi239
    pi_hi = 16 * hi5 - 4 * lo239
    assert pi_lo < pi_hi
    assert TWO_PI_SQUARED_LOW < 4 * pi_lo ** 2
    assert 4 * pi_hi ** 2 < TWO_PI_SQUARED_HIGH


def test_cubic_slope_lengths(cubic):
    unit = slope_length(cubic, (1, 0, 0))
    assert unit.squared == 1
    assert unit.lower <= 1 <= unit.upper
    pyth = slope_length(cubic, (3, 4, 0))
    assert pyth.squared == 25
    assert pyth.lower <= 5 <= pyth.upper
    assert pyth.upper - pyth.lower < Fraction(1, 10 ** 12)


def test_scaling_multiplies_lengths(cubic):
    scaled = FlatLattice(basis=cubic.basis, scale=Fraction(3, 2))
    for v in [(1, 0, 0), (2, -1, 3)]:
        assert slope_length(scaled, v).squared == \
            Fraction(9, 4) * slope_length(cubic, v).squared


def test_integer_multiples_of_a_slope(cubic):
    base = slope_length(cubic, (2, -1, 3))
    for k in (2, -3, 7):
        assert slope_length(cubic, (2 * k, -k, 3 * k)).squared == k * k * base.squared


def test_zero_slope_rejected(cubic):
    with pytest.raises(FlatGeometryError, match="zero class"):
        slope_length(cubic, (0, 0, 0))
    with pytest.raises(FlatGeometryError, match="3-vector"):
        slope_length(cubic, (1, 0))


@pytest.mark.parametrize("v", [(Fraction(1, 2), 0, 0), (1.0, 0, 0)], ids=["half", "float"])
def test_non_integer_slope_rejected(cubic, v):
    # A half once truncated to the zero class, of squared length 1/4.
    with pytest.raises(TypeError):
        slope_length(cubic, v)


def test_enumerate_unit_lattice_small_bounds(cubic):
    units = sorted(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    assert sorted(enumerate_short(cubic, Fraction(5, 4))) == units
    # Below 9/4 the twelve squared-length-2 classes qualify as well.
    classes = enumerate_short(cubic, Fraction(9, 4))
    assert classes == brute_force_short(cubic, Fraction(9, 4), box=2)
    assert sorted(classes[:6]) == units
    assert len(classes) == 18
    assert all(tuple(-x for x in v) in classes for v in classes)


def test_enumerate_matches_brute_force_at_two_pi(cubic):
    bound = TWO_PI_SQUARED_HIGH
    assert enumerate_short(cubic, bound) == brute_force_short(cubic, bound)


def test_enumerate_skew_lattice_uses_exact_fallback():
    skew = FlatLattice.from_columns([(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    for bound in (Fraction(3), Fraction(5), Fraction(41, 8)):
        assert enumerate_short(skew, bound) == brute_force_short(skew, bound)


def test_enumerate_matches_brute_force_on_the_census_cusps(m_lattices):
    for lat in m_lattices:
        for bound in (TWO_PI_SQUARED_LOW, TWO_PI_SQUARED_HIGH):
            box = covering_box(lat, bound)
            assert box <= 8
            assert enumerate_short(lat, bound) == brute_force_short(lat, bound, box)


def test_enumerate_matches_brute_force_on_seeded_bases():
    """Twenty seeded integer bases with entries in [-2, 2], every other one
    at scale 2/3, so that a box or form that drops the scale fails.  At
    least ten of the sixty enumerations hold a class with v_i^2 q_ii >
    bound, which a box of radius sqrt(bound / q_ii) would miss.  A basis
    whose covering box at 4*pi^2 passes 8 is drawn again, to bound the
    scan."""
    rng = random.Random(2701)
    lattices = []
    while len(lattices) < 20:
        columns = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if any(columns[j][i] for i in range(3) for j in range(3) if i != j):
            try:
                lat = FlatLattice.from_columns(columns, (1, Fraction(2, 3))[len(lattices) % 2])
            except FlatGeometryError:
                continue
            if covering_box(lat, TWO_PI_SQUARED_HIGH) <= 8:
                lattices.append(lat)
    stretched = 0
    for lat in lattices:
        gram = [[lat.scale ** 2 * x for x in row] for row in lat.gram()]
        for bound in (Fraction(3), Fraction(41, 8), TWO_PI_SQUARED_HIGH):
            classes = enumerate_short(lat, bound)
            assert classes == brute_force_short(lat, bound, covering_box(lat, bound))
            stretched += any(v[i] ** 2 * gram[i][i] > bound for v in classes for i in range(3))
    assert stretched >= 10


def test_enumerate_box_radius_is_exact_on_a_diagonal_lattice():
    """q = diag(1, 4, 9) below 9 + 1/100: the radii isqrt(floor(bound /
    q_ii)) are 3, 1 and 1, and each is reached, so a radius one too small
    on any axis loses classes."""
    diagonal = FlatLattice.from_columns([(1, 0, 0), (0, 2, 0), (0, 0, 3)])
    bound = 9 + Fraction(1, 100)
    classes = enumerate_short(diagonal, bound)
    assert classes == brute_force_short(diagonal, bound, box=4)
    assert [max(abs(v[i]) for v in classes) for i in range(3)] == [3, 1, 1]
    assert {(3, 0, 0), (0, 1, 0), (0, 0, 1)} <= set(classes)


def test_enumerate_is_deterministic(m_lattices):
    for lat in m_lattices:
        runs = [enumerate_short(lat, TWO_PI_SQUARED_HIGH) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


def test_enumerate_rejects_bad_bound(cubic):
    with pytest.raises(FlatGeometryError, match="positive"):
        enumerate_short(cubic, 0)


def test_single_cube_torus_develops_to_unit_lattice():
    """The cube glued to itself, taken whole as one section, develops to Z^3."""
    q = quotient_complex(three_torus_spec())
    cells = tuple(tuple(range(q.chain.cell_count(k))) for k in range(4))
    lattice = develop_lattice(CuspSection(index=0, cells=cells, chain=q.chain,
                                          cube_count=1, ambient=q))
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    assert lattice.gram() == identity
    assert lattice.covolume() == 1


def test_cover_cusps_have_published_covolumes(m_lattices, m_sections):
    assert tuple(lat.covolume() for lat in m_lattices) == (4, 4, 4, 4, 32)
    for lat, sec in zip(m_lattices, m_sections):
        assert abs(lat.det()) == sec.cube_count


def test_cover_cusp_lattices_are_reproducible(m_lattices):
    # Regression pins for the marked bases; the canonical H_1 generators
    # make these fully deterministic.
    assert [m_lattices[0].column(j) for j in range(3)] == \
        [(0, 2, 0), (0, 0, 1), (2, 0, 0)]
    assert [m_lattices[4].column(j) for j in range(3)] == \
        [(0, 0, -4), (0, 4, 0), (-2, 0, 0)]


def test_development_builds_no_integer_matrix(m_sections, monkeypatch):
    """Cube vertices are placed on integer 3-tuples: with every
    ``IntMatrix`` constructor refused, the cusp cubes develop afresh to
    the same edge vectors."""
    before = [_edge_vectors(s) for s in m_sections]

    def refuse(*args, **kwargs):
        raise AssertionError("an IntMatrix was built while developing")

    monkeypatch.setattr(IntMatrix, "_adopt", staticmethod(refuse))
    monkeypatch.setattr(IntMatrix, "__init__", refuse)
    assert [_edge_vectors(s) for s in m_sections] == before


# The development that vertex placement replaced, kept as the reference
# for ``_edge_vectors``: a {0,1}^3 chart per cube, a 3 x 3 signed
# permutation per glued square, and rotations composed breadth first.


def oracle_chart(model, idx):
    verts = model.cells[3][idx]
    squares = [frozenset(model.cells[2][sq]) for sq, _ in model.boundary_entries[3][idx]]
    if len(verts) != 8 or len(squares) != 6 or any(len(s) != 4 for s in squares):
        raise FlatGeometryError(f"3-cell {idx} is not a combinatorial cube")
    origin = min(verts)
    containing = [s for s in squares if origin in s]
    shared = {g: sum(1 for s in containing if g in s) for g in verts if g != origin}
    neighbors = sorted(g for g, n in shared.items() if n == 2)
    if len(containing) != 3 or len(neighbors) != 3:
        raise FlatGeometryError(f"3-cell {idx} is not a combinatorial cube")
    planes = []
    for n in neighbors:
        omitting = [s for s in containing if n not in s]
        if len(omitting) != 1:
            raise FlatGeometryError(f"3-cell {idx} is not a combinatorial cube")
        planes.append(omitting[0])
    chart = {g: tuple(0 if g in planes[i] else 1 for i in range(3)) for g in verts}
    if len(set(chart.values())) != 8:
        raise FlatGeometryError(f"3-cell {idx} is not a combinatorial cube")
    return chart


def oracle_normal(chart, face):
    coords = [chart[g] for g in face]
    for axis in range(3):
        values = {p[axis] for p in coords}
        if len(values) == 1:
            normal = [0, 0, 0]
            normal[axis] = 1 if values.pop() == 1 else -1
            return tuple(normal)
    raise FlatGeometryError("face does not lie in a chart coordinate plane")


def oracle_apply(m, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m)


def oracle_times_transpose(a, b):
    return tuple(oracle_apply(b, row) for row in a)


def oracle_transition(chart_a, face_a, chart_b, psi):
    qs = [chart_a[g] for g in face_a]
    ps = [chart_b[psi[g]] for g in face_a]
    q_diffs = [tuple(a - b for a, b in zip(q, qs[0])) for q in qs]
    p_diffs = [tuple(a - b for a, b in zip(p, ps[0])) for p in ps]
    edges = [k for k in range(1, 4) if sum(x * x for x in q_diffs[k]) == 1]
    if len(edges) != 2:
        raise FlatGeometryError("face is not a chart unit square")
    n_a = oracle_normal(chart_a, face_a)
    n_b = oracle_normal(chart_b, [psi[g] for g in face_a])
    q_cols = [q_diffs[k] for k in edges] + [n_a]
    p_cols = [p_diffs[k] for k in edges] + [tuple(-x for x in n_b)]
    linear = oracle_times_transpose(tuple(zip(*p_cols)), tuple(zip(*q_cols)))
    if any(oracle_apply(linear, q) != p for q, p in zip(q_diffs, p_diffs)):
        raise FlatGeometryError("face identification is not an isometry "
                                "of the chart cubes")
    return linear


def oracle_edge_vectors(section):
    q = section.ambient
    model = flatgeom.geometry(q.spec.geometry).model
    owners = Counter(orbit for orbit, _, _ in q.orbit_index[3].values())
    if any(owners[orbit] != 1 for orbit in section.cells[3]):
        raise FlatGeometryError("3-cells of the section must be unidentified cubes")
    cube_keys = [q.representatives[3][orbit] for orbit in section.cells[3]]
    charts = {key: oracle_chart(model, key[1]) for key in cube_keys}
    members = {}
    for key in cube_keys:
        for sq, _ in model.boundary_entries[3][key[1]]:
            members.setdefault(q.orbit_index[2][(key[0], sq)][0], []).append((key, sq))
    adjacency = {key: [] for key in cube_keys}
    for orbit in sorted(members):
        pair = sorted(members[orbit])
        if len(pair) != 2:
            raise FlatGeometryError(
                f"boundary square glued {len(pair)} time(s); the section is "
                f"not a closed 3-manifold")
        (k1, s1), (k2, s2) = pair
        at_2 = dict(zip(q.orbit_index[2][(k2[0], s2)][2], model.cells[2][s2]))
        psi = {v: at_2[j] for v, j in zip(model.cells[2][s1],
                                            q.orbit_index[2][(k1[0], s1)][2])}
        linear = oracle_transition(charts[k1], model.cells[2][s1], charts[k2], psi)
        adjacency[k1].append((k2, linear))
        adjacency[k2].append((k1, tuple(zip(*linear))))
    base = min(cube_keys)
    rotations = {base: ((1, 0, 0), (0, 1, 0), (0, 0, 1))}
    queue = deque([base])
    while queue:
        k1 = queue.popleft()
        for k2, linear in adjacency[k1]:
            r2 = oracle_times_transpose(rotations[k1], linear)
            if k2 not in rotations:
                rotations[k2] = r2
                queue.append(k2)
            elif rotations[k2] != r2:
                raise FlatGeometryError("cross section has rotational holonomy; not a torus")
    if len(rotations) != len(cube_keys):
        raise FlatGeometryError("cross section is not connected")
    cube_of = {(key[0], g): key for key in cube_keys for g in charts[key]}
    vectors = []
    for orbit in section.cells[1]:
        copy, eidx = q.representatives[1][orbit]
        ends = model.boundary_entries[1][eidx]
        keys = {cube_of.get((copy, mv)) for mv, _ in ends}
        if len(keys) != 1 or None in keys:
            raise FlatGeometryError("edge representative leaves the section cubes")
        key = keys.pop()
        step = tuple(sum(coeff * charts[key][mv][i] for mv, coeff in ends) for i in range(3))
        vectors.append(oracle_apply(rotations[key], step))
    return tuple(vectors)


def developed(develop, section):
    """The section's edge vectors by ``develop``, or its refusal message."""
    try:
        return develop(section)
    except FlatGeometryError as error:
        return str(error)


def whole_section(q):
    """Every cell of a cube gluing's quotient, taken as one section."""
    cells = tuple(tuple(range(q.chain.cell_count(k))) for k in range(4))
    return CuspSection(index=0, cells=cells, chain=q.chain, cube_count=1, ambient=q)


def random_cube_gluings(count, seed):
    """Seeded gluings of the cube's facets in pairs, each by one of the
    eight isometries of the squares, that build a quotient."""
    facets = geometry("cube").facet_vertices
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        order = rng.sample(range(6), 6)
        pairings = []
        for a, b in zip(order[::2], order[1::2]):
            # Cube vertices are 3-bit coordinates: an edge flips one bit.
            maps = [image for image in itertools.permutations(facets[b])
                    if all(bin(image[i] ^ image[j]).count("1") == 1
                           for i, j in itertools.combinations(range(4), 2)
                           if bin(facets[a][i] ^ facets[a][j]).count("1") == 1)]
            pairings.append(Pairing(a, b, tuple(zip(facets[a], rng.choice(maps)))))
        try:
            found.append(quotient_complex(SidePairingSpec(geometry="cube",
                                                          pairings=tuple(pairings))))
        except GluingError:
            continue
    return found


def test_edge_vectors_match_the_chart_route(census_n, census_m, search_demo):
    """The same edge vectors, or the same refusal, as the chart-and-rotation
    route on every census cusp, the cube 3-torus, seeded cube gluings, and
    every cusp of each slice (0, 1) leaf and of its double cover."""
    sections = [*cusp_sections(census_n), *cusp_sections(census_m),
                whole_section(quotient_complex(three_torus_spec())),
                *map(whole_section, random_cube_gluings(20, seed=25))]
    for leaf in search_demo.Search({0, 1}).run():
        for copies in (1, 2):
            try:
                sections += cusp_sections(quotient_complex(leaf, copies=copies))
            except GluingError:
                continue
    assert len(sections) == 10 + 1 + 20 + 432
    outcomes = [developed(_edge_vectors, s) for s in sections]
    assert outcomes == [developed(oracle_edge_vectors, s) for s in sections]
    refused = Counter(outcome for outcome in outcomes if isinstance(outcome, str))
    assert set(refused) == {"cross section has rotational holonomy; not a torus"}
    assert len(sections) - sum(refused.values()) > 150


def test_two_cusps_are_not_one_section(m_sections):
    first, second = m_sections[:2]
    joined = tuple(a + b for a, b in zip(first.cells, second.cells))
    with pytest.raises(FlatGeometryError, match="^cross section is not connected$"):
        develop_lattice(_rebuilt(first, cells=joined))


def test_a_dropped_cube_leaves_squares_glued_once(m_sections):
    cells = list(m_sections[4].cells)
    cells[3] = cells[3][1:]
    with pytest.raises(FlatGeometryError, match=r"^boundary square glued 1 time\(s\)"):
        develop_lattice(_rebuilt(m_sections[4], cells=tuple(cells)))


def test_a_section_without_cubes_is_refused(m_sections):
    """Refused before any cube is placed, not by ``min`` of no cubes."""
    cells = m_sections[0].cells[:3] + ((),)
    with pytest.raises(FlatGeometryError, match="^cross section has no 3-cells$"):
        develop_lattice(_rebuilt(m_sections[0], cells=cells))


def test_an_edge_of_another_cusp_leaves_the_section(m_sections):
    cells = list(m_sections[0].cells)
    cells[1] += m_sections[1].cells[1][:1]
    with pytest.raises(FlatGeometryError, match="edge representative leaves the section cubes"):
        develop_lattice(_rebuilt(m_sections[0], cells=tuple(cells)))


def test_a_glued_three_cell_is_not_a_section_cube(census_m, m_sections):
    """A truncated octahedron is glued to its partner facet: its orbit
    has two members."""
    owners = Counter(orbit for orbit, _, _ in census_m.orbit_index[3].values())
    cells = list(m_sections[0].cells)
    cells[3] += (min(orbit for orbit, n in owners.items() if n == 2),)
    with pytest.raises(FlatGeometryError, match="must be unidentified cubes"):
        develop_lattice(_rebuilt(m_sections[0], cells=tuple(cells)))


def test_covolume_must_match_the_cube_count(m_sections):
    with pytest.raises(FlatGeometryError,
                       match="^developed covolume 4 does not match the cube count 5$"):
        develop_lattice(_rebuilt(m_sections[0], cube_count=5))


def test_a_section_without_three_torus_homology_has_no_lattice(census_n, m_sections):
    """Cover cusp cells that develop, paired with the chain of a cusp of
    the nonorientable quotient, whose H_1 is not Z^3."""
    chain = cusp_sections(census_n)[0].chain
    with pytest.raises(FlatGeometryError, match="^section has H_1 = .*needs a 3-torus$"):
        develop_lattice(_rebuilt(m_sections[0], chain=chain))


def test_a_square_glued_by_a_non_isometry_is_refused():
    """Swapping the places of two adjacent vertices of one square makes its
    gluing fold the square's edges onto a diagonal."""
    q = quotient_complex(three_torus_spec())
    squares = dict(q.orbit_index[2])
    orbit, sign, (a, b, *rest) = squares[max(squares)]
    squares[max(squares)] = (orbit, sign, (b, a, *rest))
    section = _rebuilt(whole_section(q), ambient=SimpleNamespace(
        spec=q.spec, representatives=q.representatives,
        orbit_index=(*q.orbit_index[:2], squares, q.orbit_index[3])))
    refusal = "face identification is not an isometry of the chart cubes"
    assert developed(_edge_vectors, section) == refusal
    assert developed(oracle_edge_vectors, section) == refusal


def one_cube_section(monkeypatch, verts, squares):
    """A section of one cube on a hand-made model whose 3-cell has the
    given vertices and squares."""
    faces = tuple((i, 1) for i in range(len(squares)))
    model = SimpleNamespace(cells=((), (), tuple(squares), (tuple(verts),)),
                            boundary_entries=((), (), (), (faces,)))
    monkeypatch.setattr(flatgeom, "geometry", lambda name: SimpleNamespace(model=model))
    ambient = SimpleNamespace(spec=SimpleNamespace(geometry="made"),
                              orbit_index=({}, {}, {}, {(0, 0): (0, 1, ())}),
                              representatives=((), (), (), ((0, 0),)))
    return CuspSection(index=0, cells=((), (), (), (0,)), chain=None, cube_count=1,
                       ambient=ambient)


@pytest.mark.parametrize("verts, squares", [
    # Two K4s, each graph edge shared by two squares; two squares reach
    # outside the cell.
    (range(8), [(0, 1, 2, 3)] * 2 + [(4, 5, 6, 7)] * 2 + [(0, 4, 8, 9), (1, 5, 8, 10)]),
    (range(7), [(0, 1, 2, 3)] * 6),
    (range(8), [(0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 4, 6), (1, 3, 5, 7), (2, 3, 6, 7)]),
    (range(8), [(0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 4, 6), (1, 3, 5, 7), (2, 3, 6, 7),
                (0, 1, 2)]),
    (range(8), [(0, 1, 2, 3), (0, 1, 4, 5), (0, 2, 4, 6), (1, 3, 5, 7), (2, 3, 6, 7),
                (4, 5, 6, 6)]),
    (range(8), [(0, 1, 2, 3)] * 3 + [(4, 5, 6, 7)] * 3),
    ((0, 1, 2, 3, 4, 5, 6, 6), geometry("cube").facet_vertices),
], ids=["two-k4", "seven-vertices", "five-squares", "a-triangle", "a-repeated-vertex",
        "stacked-squares", "a-repeated-cube-vertex"])
def test_a_cell_that_is_not_a_cube_is_refused(monkeypatch, verts, squares):
    """Refused as the chart route refuses it, with no loop left hanging."""
    section = one_cube_section(monkeypatch, verts, squares)
    refusal = "3-cell 0 is not a combinatorial cube"
    assert developed(_edge_vectors, section) == refusal
    assert developed(oracle_edge_vectors, section) == refusal


def test_edge_vectors_are_signed_unit_vectors(m_sections):
    """Each section edge develops to one rotated chart edge of its cube."""
    units = {tuple(sign * (i == axis) for i in range(3))
             for axis in range(3) for sign in (1, -1)}
    for section in m_sections:
        vectors = _edge_vectors(section)
        assert len(vectors) == section.chain.cell_count(1)
        assert set(vectors) <= units


def test_scaled_development(m_sections):
    lattice = develop_lattice(m_sections[0], scale=Fraction(1, 2))
    assert lattice.covolume() == Fraction(1, 2)


def test_nonorientable_sections_are_not_tori(census_n):
    for section in cusp_sections(census_n):
        with pytest.raises(FlatGeometryError, match="not a torus"):
            develop_lattice(section)


def test_boundary_cycles_have_zero_holonomy(m_sections):
    section = m_sections[0]
    vectors = _edge_vectors(section)
    d2 = section.chain.boundary[2]
    for j in range(d2.cols):
        assert _holonomy(vectors, d2.column(j)) == (0, 0, 0)


def test_holonomy_is_additive(m_sections):
    section = m_sections[1]
    from dehn24.chains import homology_basis
    cycles = homology_basis(section.chain, 1).cycles
    vectors = _edge_vectors(section)
    a, b = cycles.column(0), cycles.column(1)
    combined = tuple(x + y for x, y in zip(a, b))
    assert _holonomy(vectors, combined) == tuple(
        x + y for x, y in zip(_holonomy(vectors, a), _holonomy(vectors, b)))


def test_two_pi_verdicts(cubic):
    sevens = slope_lengths([cubic] * 5, [(7, 0, 0)] * 5)
    assert two_pi_ok(sevens) is True
    with_short = sevens[:4] + (slope_length(cubic, (1, 0, 0)),)
    assert two_pi_ok(with_short) is False


def test_two_pi_closed_bracket_is_indeterminate():
    for squared in (TWO_PI_SQUARED_LOW, TWO_PI_SQUARED_HIGH):
        entry = SlopeLength(slope=(1, 0, 0), squared=squared,
                            lower=Fraction(6), upper=Fraction(7))
        with pytest.raises(PrecisionError, match="tighter"):
            two_pi_ok((entry,))


def test_two_pi_requires_lengths():
    with pytest.raises(FlatGeometryError, match="no slope lengths"):
        two_pi_ok(())


def test_weakly_balanced_verdicts():
    near_two_pi = SlopeLength(slope=(1, 0, 0), squared=Fraction("39.478417"),
                              lower=Fraction("6.283185"), upper=Fraction("6.283186"))
    assert weakly_balanced((near_two_pi,) * 5, Fraction(1, 100)) is True
    big = SlopeLength(slope=(1, 0, 0), squared=10000,
                      lower=Fraction(100), upper=Fraction(100))
    small = SlopeLength(slope=(0, 1, 0), squared=4,
                        lower=Fraction(2), upper=Fraction(2))
    assert weakly_balanced((big, small), Fraction(1, 100)) is False


@pytest.mark.parametrize("c", [1, 100])
def test_weakly_balanced_large_exponent_is_fast(census_system, m_lattices, c):
    # exp(c * min_len^3) is astronomically larger than max_len here, and
    # its full Taylor sum takes tens of seconds for c = 1 and does not
    # finish for c = 100: the verdict must come from an early partial sum.
    slopes = adapted_slopes(census_system, ((3, 3),) * 5)
    lengths = tuple(slope_length(m_lattices[i], slopes.classes[i]) for i in range(5))
    start = time.perf_counter()
    assert weakly_balanced(lengths, c) is True
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("c, verdict", [(Fraction(6), False), (Fraction(718, 100), False),
                                        (Fraction(73, 10), True)])
def test_weakly_balanced_cost_is_bounded(census_system, m_lattices, c, verdict):
    """One coefficient of 301 digits makes a slope about 10^300 long while
    the others stay short.  Exact Taylor partial sums took 34.5 s and
    59.4 s for the two "no" verdicts, as the terms' denominators grow with
    every term; the enclosure's cost grows only with the exponent's size."""
    slopes = adapted_slopes(census_system, ((2, 1),) * 4 + ((10 ** 300, 0),))
    lengths = tuple(slope_length(m_lattices[i], slopes.classes[i]) for i in range(5))
    start = time.perf_counter()
    assert weakly_balanced(lengths, c) is verdict
    assert time.perf_counter() - start < 2


def test_weakly_balanced_indeterminate_and_errors():
    wide = SlopeLength(slope=(1, 0, 0), squared=4,
                       lower=Fraction(1), upper=Fraction(3))
    with pytest.raises(PrecisionError, match="tighter"):
        weakly_balanced((wide,), Fraction(1, 100))
    tight = SlopeLength(slope=(1, 0, 0), squared=1,
                        lower=Fraction(1), upper=Fraction(1))
    with pytest.raises(FlatGeometryError, match="positive"):
        weakly_balanced((tight,), 0)
    with pytest.raises(FlatGeometryError, match="no slope lengths"):
        weakly_balanced((), Fraction(1, 100))


def test_exp_enclosure_refuses_a_negative_argument():
    with pytest.raises(ValueError, match="^argument must be nonnegative$"):
        _exp_enclosure(Fraction(-1, 3))


def test_exp_enclosure_brackets_e():
    lo, hi = _exp_enclosure(Fraction(1))
    assert lo < hi
    assert Fraction("2.718281828459045") < hi
    assert lo < Fraction("2.7182818284590453")
    assert hi - lo < Fraction(1, 10 ** 25)
    assert _exp_enclosure(Fraction(0)) == (1, 1)


@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(7, 2), Fraction(1000),
                               Fraction(10 ** 1000 + 1, 10 ** 999), Fraction(2 ** 11 - 1, 3)])
def test_exp_enclosure_brackets_decimal_exp(x):
    """Against ``Decimal.exp`` at 80 digits, which is within a relative
    10^-70 of exp(x); the width is under exp(x) / 2^100 whatever the size
    of x's denominator."""
    lo, hi = _exp_enclosure(x)
    with decimal.localcontext(decimal.Context(prec=80)):
        ref = Fraction((decimal.Decimal(x.numerator) / x.denominator).exp())
    slack = ref / 10 ** 70
    assert lo <= ref + slack and ref - slack <= hi
    assert (hi - lo) * 2 ** 100 < lo


def test_slope_length_enclosure_is_consistent():
    with pytest.raises(FlatGeometryError, match="bracket"):
        SlopeLength(slope=(1, 0, 0), squared=100, lower=Fraction(1), upper=Fraction(2))
    with pytest.raises(FlatGeometryError, match="out of order"):
        SlopeLength(slope=(1, 0, 0), squared=1, lower=Fraction(2), upper=Fraction(1))


def test_lattice_validation():
    with pytest.raises(FlatGeometryError, match="singular"):
        FlatLattice.from_columns([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(FlatGeometryError, match="scale"):
        FlatLattice.from_columns([(1, 0, 0), (0, 1, 0), (0, 0, 1)], scale=0)
    with pytest.raises(FlatGeometryError, match="three generator"):
        FlatLattice.from_columns([(1, 0, 0), (0, 1, 0)])


def test_slope_lengths_checks_arity(cubic):
    with pytest.raises(FlatGeometryError, match="lattices but"):
        slope_lengths([cubic], [(1, 0, 0), (0, 1, 0)])


def test_dump_format(cubic):
    assert cubic.dump() == "scale: 1\ng1: 1 0 0\ng2: 0 1 0\ng3: 0 0 1\n"
    skew = FlatLattice.from_columns([(1, 1, 0), (0, 1, 1), (1, 0, 1)],
                                    scale=Fraction(1, 2))
    assert skew.dump().splitlines()[0] == "scale: 1/2"
