"""Tests for filled homology and the homology-sphere verdict.

Expected cokernels come from an oracle that recovers invariant factors
as gcds of k x k minors, with its own Laplace determinant, so nothing
under test contributes to the reference values.  The ambient homology
of the double cover is cross-checked against the closed formula for
complements of five disjoint tori in the 4-sphere.
"""

import itertools
import math
import random

import pytest

from dehn24.chains import euler_characteristic, homology
from dehn24.filling import (
    FillingError,
    FillingResult,
    FillingSlopes,
    adapted_slopes,
    alexander_complement_homology,
    h1_filled,
    is_homology_sphere,
)
from dehn24.intlinalg import AbelianGroup
from dehn24.peripheral import PeripheralSystem

from test_intlinalg import random_unimodular


def laplace_det(rows: list[list[int]]) -> int:
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, entry in enumerate(rows[0]):
        if entry == 0:
            continue
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1 if j % 2 else 1) * entry * laplace_det(sub)
    return total


def cokernel_oracle(columns: list[tuple[int, ...]], rows: int) -> AbelianGroup:
    """Z^rows modulo the column span, via minor gcds (dims <= 5)."""
    mat = [[col[i] for col in columns] for i in range(rows)]
    factors = []
    previous = 1
    for k in range(1, min(rows, len(columns)) + 1):
        g = 0
        for rr in itertools.combinations(range(rows), k):
            for cc in itertools.combinations(range(len(columns)), k):
                g = math.gcd(g, laplace_det([[mat[i][j] for j in cc] for i in rr]))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return AbelianGroup(rows - len(factors), tuple(d for d in factors if d > 1))


def random_primitive(rng: random.Random) -> tuple[int, ...]:
    while True:
        v = tuple(rng.randint(-9, 9) for _ in range(3))
        g = math.gcd(*v)
        if g:
            return tuple(x // g for x in v)


def test_adapted_slopes_fill_to_spheres(census_system, census_m):
    chi = euler_characteristic(census_m.chain)
    rng = random.Random(11)
    for _ in range(40):
        pairs = [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(5)]
        slopes = adapted_slopes(census_system, pairs)
        result = is_homology_sphere(census_system, slopes, chi, orientable=True)
        assert result.h1.is_trivial()
        assert result.is_homology_sphere
        assert result.chi == 2


def test_filled_h1_matches_minor_gcd_oracle(census_system):
    rng = random.Random(23)
    for _ in range(25):
        slopes = FillingSlopes(tuple(random_primitive(rng) for _ in range(5)))
        columns = [census_system.matrices[i].apply(v)
                   for i, v in enumerate(slopes.classes)]
        assert h1_filled(census_system, slopes) == cokernel_oracle(columns, 5)


def test_filled_h1_ignores_ambient_basis_choice(census_system):
    # Changing the ambient H_1 basis by any unimodular matrix must not
    # change the isomorphism class of the cokernel.
    rng = random.Random(5)
    slopes = adapted_slopes(census_system, [(3, -1), (0, 7), (-2, -2), (1, 0), (4, 9)])
    for _ in range(10):
        u = random_unimodular(rng, 5)
        moved = PeripheralSystem(
            census_system.ambient_h1, tuple(u * m for m in census_system.matrices),
            census_system.bases, census_system.epsilons, census_system.cube_counts,
            census_system.section_h1)
        assert h1_filled(moved, slopes) == h1_filled(census_system, slopes)


def test_kernel_slope_leaves_a_circle_factor(census_system, census_m):
    # Replacing one slope by a kernel class of that cusp removes one
    # generator from the image, so exactly one Z survives.
    chi = euler_characteristic(census_m.chain)
    good = adapted_slopes(census_system, [(0, 0)] * 5)
    for i in range(5):
        classes = list(good.classes)
        classes[i] = census_system.bases[i][1]
        result = is_homology_sphere(census_system, FillingSlopes(tuple(classes)),
                                    chi, orientable=True)
        assert result.h1 == AbelianGroup(1)
        assert not result.is_homology_sphere
        assert any("do not generate" in note for note in result.notes)


def test_negating_slopes_changes_nothing(census_system):
    slopes = adapted_slopes(census_system, [(2, 3), (-1, 4), (0, 0), (5, -5), (1, 1)])
    negated = FillingSlopes(tuple(tuple(-x for x in v) for v in slopes.classes))
    assert h1_filled(census_system, slopes) == h1_filled(census_system, negated)


def test_empty_slopes_return_ambient_h1(census_system):
    assert h1_filled(census_system, FillingSlopes(())) == AbelianGroup(5)


def test_slope_validation():
    with pytest.raises(FillingError, match="slope 1 is zero"):
        FillingSlopes(((0, 0, 0),))
    with pytest.raises(FillingError, match="slope 2 .* not primitive"):
        FillingSlopes(((1, 0, 0), (2, 4, 6)))


def test_wrong_slope_count_raises(census_system):
    with pytest.raises(FillingError, match="need 5 coefficient pairs"):
        adapted_slopes(census_system, [(0, 0)] * 4)
    with pytest.raises(FillingError, match="need 5 slopes, got 2"):
        h1_filled(census_system, FillingSlopes(((1, 0, 0), (0, 1, 0))))


def test_wrong_euler_characteristic_blocks_verdict(census_system):
    slopes = adapted_slopes(census_system, [(0, 0)] * 5)
    result = is_homology_sphere(census_system, slopes, chi=0, orientable=True)
    assert result.h1.is_trivial()
    assert not result.is_homology_sphere
    assert any("!= 2" in note for note in result.notes)


def test_nonorientable_ambient_rejected(census_system):
    slopes = adapted_slopes(census_system, [(0, 0)] * 5)
    with pytest.raises(FillingError, match="double cover"):
        is_homology_sphere(census_system, slopes, chi=1, orientable=False)


def test_sphere_notes_spell_out_duality(census_system, census_m):
    chi = euler_characteristic(census_m.chain)
    slopes = adapted_slopes(census_system, [(0, 0)] * 5)
    result = is_homology_sphere(census_system, slopes, chi, orientable=True)
    text = " ".join(result.notes)
    assert "Poincare duality" in text
    assert "forces H2 = 0" in text


def test_result_flag_must_match_invariants():
    with pytest.raises(ValueError, match="contradicts"):
        FillingResult(h1=AbelianGroup(1), chi=2, is_homology_sphere=True, notes=())


def test_alexander_formula_matches_double_cover(census_m):
    expected = alexander_complement_homology(5)
    assert tuple(homology(census_m.chain, k) for k in (1, 2, 3)) == expected


def test_alexander_formula_small_cases():
    trivial = AbelianGroup(0)
    assert alexander_complement_homology(0) == (trivial, trivial, trivial)
    assert alexander_complement_homology(1) == (AbelianGroup(1), AbelianGroup(2), trivial)
    with pytest.raises(ValueError, match="nonnegative"):
        alexander_complement_homology(-1)
