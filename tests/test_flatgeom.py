"""Tests for developed cusp lattices and certified slope geometry.

Short-vector enumeration is checked against a brute-force box scan,
and the pinned 4*pi^2 bracket is re-certified from scratch with a
Machin-formula pi enclosure in exact rationals, so the constants in
the module never vouch for themselves.
"""

import itertools
import time
from fractions import Fraction

import pytest

from dehn24.filling import adapted_slopes
from dehn24.flatgeom import (
    TWO_PI_SQUARED_HIGH,
    TWO_PI_SQUARED_LOW,
    FlatGeometryError,
    FlatLattice,
    PrecisionError,
    SlopeLength,
    closed_section,
    develop_lattice,
    enumerate_short,
    section_holonomy,
    slope_length,
    slope_lengths,
    two_pi_ok,
    weakly_balanced,
)
from dehn24.flatgeom import _edge_vectors, _exp_enclosure
from dehn24.gluing import quotient_complex
from dehn24.intlinalg import IntMatrix
from dehn24.peripheral import cusp_sections

from test_gluing import three_torus_spec


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
    hits = []
    for v in itertools.product(range(-box, box + 1), repeat=3):
        if v != (0, 0, 0):
            sq = slope_length(lattice, v).squared
            if sq < bound:
                hits.append((sq, v))
    hits.sort()
    return [v for _, v in hits]


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


def test_enumerate_is_deterministic(m_lattices):
    for lat in m_lattices:
        runs = [enumerate_short(lat, TWO_PI_SQUARED_HIGH) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


def test_enumerate_rejects_bad_bound(cubic):
    with pytest.raises(FlatGeometryError, match="positive"):
        enumerate_short(cubic, 0)


def test_single_cube_torus_develops_to_unit_lattice():
    q = quotient_complex(three_torus_spec())
    lattice = develop_lattice(closed_section(q))
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    assert lattice.gram() == identity
    assert lattice.covolume() == 1


def test_closed_section_needs_dimension_three(census_m):
    with pytest.raises(FlatGeometryError, match="top dimension 3"):
        closed_section(census_m)


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
    """Cube charts are placed by 3 x 3 signed permutations kept as integer
    rows: with every ``IntMatrix`` constructor refused, the cusp cubes
    develop afresh to the same edge vectors."""
    before = [_edge_vectors(s) for s in m_sections]

    def refuse(*args, **kwargs):
        raise AssertionError("an IntMatrix was built while developing")

    monkeypatch.setattr(IntMatrix, "_adopt", staticmethod(refuse))
    monkeypatch.setattr(IntMatrix, "__init__", refuse)
    assert [_edge_vectors(s) for s in m_sections] == before


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
    d2 = section.chain.boundary[2]
    for j in range(d2.cols):
        assert section_holonomy(section, d2.column(j)) == (0, 0, 0)


def test_holonomy_is_additive(m_sections):
    section = m_sections[1]
    from dehn24.chains import homology_basis
    cycles = homology_basis(section.chain, 1).cycles
    a, b = cycles.column(0), cycles.column(1)
    combined = tuple(x + y for x, y in zip(a, b))
    assert section_holonomy(section, combined) == tuple(
        x + y for x, y in zip(section_holonomy(section, a),
                              section_holonomy(section, b)))


def test_holonomy_rejects_non_cycles(m_sections):
    section = m_sections[0]
    chain = [0] * section.chain.cell_count(1)
    d2 = section.chain.boundary[2]
    # A single edge is almost never closed; find one that is not.
    for j in range(len(chain)):
        probe = [0] * len(chain)
        probe[j] = 1
        if any(section.chain.boundary[1].apply(probe)):
            with pytest.raises(FlatGeometryError, match="not a cycle"):
                section_holonomy(section, probe)
            break
    else:
        pytest.skip("every single edge is a cycle in this section")
    with pytest.raises(FlatGeometryError, match="section edges"):
        section_holonomy(section, chain + [0])


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


def test_exp_enclosure_brackets_e():
    lo, hi = _exp_enclosure(Fraction(1))
    assert lo < hi
    assert Fraction("2.718281828459045") < hi
    assert lo < Fraction("2.7182818284590453")
    assert hi - lo < Fraction(1, 10 ** 25)
    assert _exp_enclosure(Fraction(0)) == (1, 1)


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
