"""Tests for the exact integer linear algebra core.

The invariant-factor oracle used here is independent of the Smith
implementation: d_1 * ... * d_k equals the gcd of all k x k minors, so the
factors can be recovered from determinant combinatorics alone (feasible up
to 4 x 4).  The transforms have their own oracle: ``dense_snf`` is the
plain dense elimination with the same pivot rule, which the row-sparse
``snf`` must reproduce field by field, and ``DenseMatrix`` is the plain
list-of-rows matrix that the column-sparse ``IntMatrix`` must agree with.
"""

import collections
import itertools
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dehn24.intlinalg import (
    AbelianGroup,
    EchelonBasis,
    IntMatrix,
    SNFDecomposition,
    cokernel,
    forest_kernel,
    generates,
    hermite_graph,
    is_primitive,
    kernel_basis,
    snf,
)
from dehn24.intlinalg import _hermite_rows
from dehn24 import chains, intlinalg
from dehn24.chains import homology_basis
from dehn24.gluing import GluingError, quotient_complex
from dehn24.peripheral import cusp_sections, peripheral_system, report
from test_gluing import klein_spec, projective_plane_spec, three_torus_spec, torus_spec


def minor_gcd_invariant_factors(a: IntMatrix) -> list[int]:
    """Invariant factors via gcds of k x k minors (brute force, dims <= 4)."""
    assert a.rows <= 4 and a.cols <= 4
    factors = []
    previous = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows in itertools.combinations(range(a.rows), k):
            for cols in itertools.combinations(range(a.cols), k):
                sub = IntMatrix([[a[i, j] for j in cols] for i in rows], cols=k)
                g = math.gcd(g, sub.det())
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int = 9) -> IntMatrix:
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
                     cols=cols)


def random_unimodular(rng: random.Random, n: int, steps: int = 12) -> IntMatrix:
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, k = rng.randrange(n), rng.randrange(n)
        if i == k:
            continue
        c = rng.randint(-2, 2)
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[k])]
    return IntMatrix(rows, cols=n)


def row_lists(a: IntMatrix) -> list[list[int]]:
    """A mutable copy of the entries, row-major."""
    return [list(a.row(i)) for i in range(a.rows)]


def transpose(a: IntMatrix) -> IntMatrix:
    return IntMatrix([a.column(j) for j in range(a.cols)], cols=a.rows)


# -- the dense reduction, kept as the oracle for ``snf`` -----------------

class _DenseReduction:
    """Mutable state for the Smith reduction: the working matrix plus the
    accumulators for U and its inverse (``left``) and for V (``right``).
    An accumulator that was not asked for is ``None`` and never updated;
    the pivot sequence depends on the working matrix alone."""

    def __init__(self, a: IntMatrix, left: bool, right: bool):
        self.m = a.rows
        self.n = a.cols
        self.d = row_lists(a)
        self.u = row_lists(IntMatrix.identity(self.m)) if left else None
        self.ui = row_lists(IntMatrix.identity(self.m)) if left else None
        self.v = row_lists(IntMatrix.identity(self.n)) if right else None

    # Row operations act on the left: D <- E D, U <- E U, Uinv <- Uinv E^-1.

    def swap_rows(self, i: int, k: int) -> None:
        if i == k:
            return
        self.d[i], self.d[k] = self.d[k], self.d[i]
        if self.u is not None:
            self.u[i], self.u[k] = self.u[k], self.u[i]
            for row in self.ui:
                row[i], row[k] = row[k], row[i]

    def negate_row(self, i: int) -> None:
        self.d[i] = [-x for x in self.d[i]]
        if self.u is not None:
            self.u[i] = [-x for x in self.u[i]]
            for row in self.ui:
                row[i] = -row[i]

    def add_row(self, i: int, k: int, c: int) -> None:
        """row_i += c * row_k; inverse transform: col_k of Uinv -= c * col_i."""
        if c == 0:
            return
        di, dk = self.d[i], self.d[k]
        for j in range(self.n):
            di[j] += c * dk[j]
        if self.u is not None:
            ui_, uk = self.u[i], self.u[k]
            for j in range(self.m):
                ui_[j] += c * uk[j]
            for row in self.ui:
                row[k] -= c * row[i]

    # Column operations act on the right: D <- D F, V <- V F.

    def swap_cols(self, j: int, k: int) -> None:
        if j == k:
            return
        for row in self.d:
            row[j], row[k] = row[k], row[j]
        if self.v is not None:
            for row in self.v:
                row[j], row[k] = row[k], row[j]

    def add_col(self, j: int, k: int, c: int) -> None:
        """col_j += c * col_k."""
        if c == 0:
            return
        for row in self.d:
            row[j] += c * row[k]
        if self.v is not None:
            for row in self.v:
                row[j] += c * row[k]


def dense_snf(a: IntMatrix, *, left: bool = True, right: bool = True) -> SNFDecomposition:
    """Smith normal form of an integer matrix.

    The pivot at each stage is the nonzero entry of minimal absolute value
    in the active submatrix, ties broken by lowest row then lowest column;
    this keeps coefficient growth modest without modular tricks.  The
    reduction is fully deterministic, so the transforms (and everything
    derived from them, like canonical homology bases) are reproducible.

    ``left=False`` skips U and its inverse, ``right=False`` skips V; the
    skipped fields come back as ``None``.  Neither flag changes D or the
    transforms that are built, so callers that need only the invariant
    factors pay for the working matrix alone.
    """
    r = _DenseReduction(a, left, right)
    m, n = r.m, r.n
    t = 0
    while t < min(m, n):
        # Deterministic pivot selection over the active submatrix.
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = r.d[i][j]
                if x != 0 and (best is None or abs(x) < abs(r.d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        r.swap_rows(t, best[0])
        r.swap_cols(t, best[1])
        while True:
            if r.d[t][t] < 0:
                r.negate_row(t)
            restart = False
            for i in range(t + 1, m):
                if r.d[i][t] != 0:
                    r.add_row(i, t, -(r.d[i][t] // r.d[t][t]))
                    if r.d[i][t] != 0:
                        # Remainder is a strictly smaller pivot candidate.
                        r.swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if r.d[t][j] != 0:
                    r.add_col(j, t, -(r.d[t][j] // r.d[t][t]))
                    if r.d[t][j] != 0:
                        r.swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # Row and column at t are clear; enforce the divisibility chain.
            p = r.d[t][t]
            bad_row = None
            for i in range(t + 1, m):
                if any(x % p != 0 for x in r.d[i][t + 1:]):
                    bad_row = i
                    break
            if bad_row is None:
                break
            r.add_row(t, bad_row, 1)
        t += 1
    return SNFDecomposition(
        U=IntMatrix(r.u, cols=m) if left else None,
        D=IntMatrix(r.d, cols=n),
        V=IntMatrix(r.v, cols=n) if right else None,
        u_inv=IntMatrix(r.ui, cols=m) if left else None,
    )



# -- a dense reference for ``IntMatrix`` ---------------------------------

class DenseMatrix:
    """A matrix as a list of rows with the textbook operations, sharing no
    code with ``IntMatrix``; the determinant is the Leibniz sum."""

    def __init__(self, rows: list[list[int]], cols: int):
        self.entries = [list(r) for r in rows]
        self.m, self.n = len(rows), cols

    def row(self, i):
        return tuple(self.entries[i])

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def __mul__(self, other):
        return DenseMatrix([[sum(r[k] * other.entries[k][j] for k in range(self.n))
                             for j in range(other.n)] for r in self.entries], other.n)

    def apply(self, v):
        return tuple(sum(x * y for x, y in zip(r, v)) for r in self.entries)

    def det(self):
        total = 0
        for perm in itertools.permutations(range(self.n)):
            inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
            total += (-1) ** inversions * math.prod(self.entries[i][perm[i]]
                                                   for i in range(self.n))
        return total

    def is_zero(self):
        return all(x == 0 for r in self.entries for x in r)

    def as_int_matrix(self):
        return IntMatrix(self.entries, cols=self.n)


def random_dense(rng: random.Random, m: int, n: int) -> DenseMatrix:
    density = rng.choice((0.0, 0.2, 0.5, 1.0))
    return DenseMatrix([[rng.randint(-9, 9) if rng.random() < density else 0
                         for _ in range(n)] for _ in range(m)], n)


def assert_agrees(a: IntMatrix, d: DenseMatrix) -> None:
    assert (a.rows, a.cols) == (d.m, d.n)
    assert [a.row(i) for i in range(a.rows)] == [d.row(i) for i in range(d.m)]
    assert [a.column(j) for j in range(a.cols)] == [d.column(j) for j in range(d.n)]
    assert a.columns() == [d.column(j) for j in range(d.n)]
    assert all(a[i, j] == d.entries[i][j] for i in range(d.m) for j in range(d.n))
    assert [dict(col) for col in a.nonzero_columns()] == [
        {i: x for i, x in enumerate(d.column(j)) if x} for j in range(d.n)]
    assert a.is_zero() == d.is_zero()
    assert repr(a) == f"IntMatrix({d.entries!r})"


SHAPES = [(0, 0), (0, 3), (4, 0), (1, 1), (3, 3), (2, 5), (5, 2), (4, 4), (5, 5)]


def test_int_matrix_matches_dense_reference():
    rng = random.Random(67)
    for _ in range(30):
        for m, n in SHAPES:
            d = random_dense(rng, m, n)
            a = d.as_int_matrix()
            assert_agrees(a, d)
            if m == n:
                assert a.det() == d.det()
            v = [rng.randint(-5, 5) for _ in range(n)]
            assert a.apply(v) == d.apply(v)
            for p in (0, 1, 4):
                e = random_dense(rng, n, p)
                assert_agrees(a * e.as_int_matrix(), d * e)
    assert IntMatrix.zero(3, 4).is_zero()
    assert_agrees(IntMatrix.identity(3), DenseMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3))


def test_int_matrix_equality_across_construction_routes():
    """Equal entries make equal matrices with equal hashes, however built:
    from rows, from dense or sparse columns, as a whole submatrix, or as
    a Smith transform against the dense oracle."""
    rng = random.Random(71)
    for _ in range(30):
        for m, n in SHAPES:
            d = random_dense(rng, m, n)
            a = d.as_int_matrix()
            routes = [
                IntMatrix.from_columns([d.column(j) for j in range(n)], rows=m),
                IntMatrix.from_nonzeros(
                    [[(i, x) for i, x in reversed(list(enumerate(d.column(j))))]
                     for j in range(n)], rows=m),
                a.submatrix(range(m), range(n)),
            ]
            for b in routes:
                assert b == a and hash(b) == hash(a)
            got, dense = snf(a), dense_snf(a)
            for x, y in [(got.U, dense.U), (got.D, dense.D), (got.V, dense.V),
                         (got.u_inv, dense.u_inv)]:
                assert x == y and hash(x) == hash(y)
            if m and n:
                i, j = rng.randrange(m), rng.randrange(n)
                changed = [list(r) for r in d.entries]
                changed[i][j] += 1
                assert IntMatrix(changed, cols=n) != a
    assert IntMatrix.zero(0, 3) != IntMatrix.zero(0, 2)
    assert IntMatrix.zero(3, 0) != IntMatrix.zero(2, 0)
    assert IntMatrix.zero(2, 2) != IntMatrix([[0, 0], [0, 0], [0, 0]])


def test_submatrix_and_sparse_columns():
    a = IntMatrix([[1, 0, 2], [0, 3, 0], [4, 0, 5]])
    assert a.submatrix([2, 0], [2, 1]) == IntMatrix([[5, 0], [2, 0]])
    assert IntMatrix.from_nonzeros([[(1, 7), (0, 0)], []], rows=2) == IntMatrix([[0, 0], [7, 0]])
    with pytest.raises(ValueError, match="out of range"):
        IntMatrix.from_nonzeros([[(2, 1)]], rows=2)
    with pytest.raises(IndexError):
        a[3, 0]


def test_snf_identity():
    decomp = snf(IntMatrix.identity(3))
    assert decomp.D == IntMatrix.identity(3)
    assert decomp.U == IntMatrix.identity(3)
    assert decomp.V == IntMatrix.identity(3)


def test_snf_frozen_2x2():
    # Expected factors confirmed by the minor-gcd oracle below.
    a = IntMatrix([[2, 4], [6, 8]])
    decomp = snf(a)
    assert decomp.D.diagonal_entries() == (2, 4)
    assert minor_gcd_invariant_factors(a) == [2, 4]


def test_snf_transform_identity_holds():
    rng = random.Random(7)
    for _ in range(400):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        decomp = snf(a)
        assert decomp.U * a * decomp.V == decomp.D
        assert decomp.U.det() in (1, -1)
        assert decomp.V.det() in (1, -1)
        assert decomp.U * decomp.u_inv == IntMatrix.identity(m)
        diag = [d for d in decomp.D.diagonal_entries() if d != 0]
        assert all(d > 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        # Off-diagonal must be exactly zero.
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert decomp.D[i, j] == 0


def test_snf_transform_selection():
    # Same matrices as test_snf_transform_identity_holds.
    rng = random.Random(7)
    for _ in range(400):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        full = snf(a)
        bare = snf(a, left=False, right=False)
        assert bare.D == full.D
        assert bare.U is None and bare.u_inv is None and bare.V is None
        column_side = snf(a, left=False)
        assert column_side.D == full.D and column_side.V == full.V
        assert column_side.U is None and column_side.u_inv is None
        row_side = snf(a, right=False)
        assert row_side.D == full.D
        assert row_side.U == full.U and row_side.u_inv == full.u_inv
        assert row_side.V is None


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(11)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        assert list(snf(a).invariant_factors()) == minor_gcd_invariant_factors(a)


def test_snf_deterministic():
    a = IntMatrix([[3, 1, -4], [1, 5, 9], [-2, 6, 5]])
    first = snf(a)
    second = snf(a)
    assert first.U == second.U and first.V == second.V and first.D == second.D


FLAGS = [(True, True), (True, False), (False, True), (False, False)]


def branch_matrices() -> list[IntMatrix]:
    """Seeded small matrices, sparse to full, some scaled by 2 or 3 so
    pivots are not units, plus every empty shape."""
    rng = random.Random(61)
    found = [IntMatrix([], cols=n) for n in (0, 1, 3)]
    found += [IntMatrix([[] for _ in range(m)], cols=0) for m in (1, 4)]
    for _ in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.3, 0.6, 1.0))
        scale = rng.choice((1, 1, 2, 3))
        found.append(IntMatrix([[scale * rng.randint(-9, 9) if rng.random() < density else 0
                                 for _ in range(n)] for _ in range(m)], cols=n))
    return found


def test_branch_matrices_take_every_branch(monkeypatch):
    """The seeded inputs reach every branch of the reduction, so the
    oracle comparison below checks each of them."""
    log = []

    class Recording(_DenseReduction):
        def swap_rows(self, i, k):
            log.append(("swap_rows", i, k))
            super().swap_rows(i, k)

        def negate_row(self, i):
            log.append(("negate_row", i))
            super().negate_row(i)

        def add_row(self, i, k, c):
            log.append(("add_row", i, k))
            super().add_row(i, k, c)

        def swap_cols(self, j, k):
            log.append(("swap_cols", j, k))
            super().swap_cols(j, k)

        def add_col(self, j, k, c):
            log.append(("add_col", j, k))
            super().add_col(j, k, c)

    monkeypatch.setitem(globals(), "_DenseReduction", Recording)
    matrices = branch_matrices()
    for a in matrices:
        dense_snf(a)
    steps = list(zip(log, log[1:]))
    assert any(op[0] == "negate_row" for op in log)
    # A remainder restart swaps the row (column) it just reduced into place.
    assert any(op[0] == "add_row" and nxt == ("swap_rows", op[2], op[1]) for op, nxt in steps)
    assert any(op[0] == "add_col" and nxt == ("swap_cols", op[2], op[1]) for op, nxt in steps)
    # The divisibility fix-up is the only row addition into the pivot row.
    assert any(op[0] == "add_row" and op[1] < op[2] for op in log)
    assert any(a.rows and a.cols and any(not any(a.row(i)) for i in range(a.rows))
               and any(not any(a.column(j)) for j in range(a.cols)) for a in matrices)
    assert {(a.rows, a.cols) for a in matrices} >= {(0, 0), (0, 3), (4, 0)}


@pytest.mark.parametrize("left,right", FLAGS)
def test_snf_matches_dense_oracle_on_branch_matrices(left, right):
    for a in branch_matrices():
        assert snf(a, left=left, right=right) == dense_snf(a, left=left, right=right)


@pytest.fixture(scope="module")
def census_oracle(census_n, census_m):
    """Every boundary of both census complexes, plus the cover's degree-1
    image-coordinate matrix (the one ``homology_basis`` reduces), each
    with its dense reduction.  The dense flags only drop fields (see
    ``test_snf_transform_selection``), so one full reduction serves all."""
    found = [d for q in (census_n, census_m) for d in q.chain.boundary]
    cover = census_m.chain
    cycles = kernel_basis(cover.boundary[1])
    kernel = EchelonBasis(cycles)
    found.append(IntMatrix.from_columns([kernel.solve(col) for col in cover.boundary[2].columns()],
                                        rows=cycles.cols))
    return [(a, dense_snf(a)) for a in found]


@pytest.mark.parametrize("left,right", FLAGS)
def test_snf_matches_dense_oracle_on_census(census_oracle, left, right):
    for a, dense in census_oracle:
        got = snf(a, left=left, right=right)
        assert got.D == dense.D
        assert (got.U, got.u_inv) == ((dense.U, dense.u_inv) if left else (None, None))
        assert got.V == (dense.V if right else None)


def test_snf_never_builds_a_dense_matrix(census_m, monkeypatch):
    """The reduction reads its input and builds its outputs, nothing more:
    ``IntMatrix`` keeps no dense row copy, and with the identity refused
    the cover's d2 still reduces under every flag combination."""
    d2 = census_m.chain.boundary[2]
    full = snf(d2)

    def refuse(*args):
        raise AssertionError("snf asked for a dense working copy")

    monkeypatch.setattr(IntMatrix, "identity", staticmethod(refuse))
    for left, right in FLAGS:
        got = snf(d2, left=left, right=right)
        assert got.D == full.D
        assert (got.U, got.u_inv) == ((full.U, full.u_inv) if left else (None, None))
        assert got.V == (full.V if right else None)


def test_pipeline_never_asks_for_dense_rows(census_m):
    """The cover's homology generators and its whole peripheral system run
    on the column storage, as ``IntMatrix`` keeps no dense row copy: from
    cold caches they run, and the report is the golden one."""
    golden = pathlib.Path(__file__).parent / "data" / "peripheral_1011.txt"
    homology_basis.cache_clear()
    cusp_sections.cache_clear()
    for k in (1, 2, 3):
        homology_basis(census_m.chain, k)
    assert report(peripheral_system(census_m)) == golden.read_text()


def test_cokernel_simple_cases():
    assert cokernel(IntMatrix([[2]])) == AbelianGroup(0, (2,))
    assert cokernel(IntMatrix.zero(5, 3)) == AbelianGroup(5)
    assert cokernel(IntMatrix.identity(4)) == AbelianGroup(0)


def test_cokernel_matches_minor_gcd_oracle():
    """The unit-pivot reduction and its residue Smith form against the
    minors, on entries where units, non-units and zeros all occur."""
    rng = random.Random(23)
    residues = 0
    for _ in range(400):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMatrix([[rng.choice((0, 0, 1, -1, 2, -2, 3, 4, -6)) for _ in range(n)]
                       for _ in range(m)], cols=n)
        factors = minor_gcd_invariant_factors(a)
        assert cokernel(a) == AbelianGroup(m - len(factors), tuple(d for d in factors if d >= 2))
        residues += any(d >= 2 for d in factors)
    assert residues > 50


def _times(a: IntMatrix, g: int) -> IntMatrix:
    return IntMatrix.from_nonzeros([[(i, g * x) for i, x in col] for col in a.nonzero_columns()],
                                   rows=a.rows)


def _recording_snf(monkeypatch) -> list[tuple[int, int]]:
    """Patch ``intlinalg.snf`` to record the shape of every matrix it gets."""
    shapes, real_snf = [], intlinalg.snf

    def recording_snf(a, *, left=True, right=True):
        shapes.append((a.rows, a.cols))
        return real_snf(a, left=left, right=right)

    monkeypatch.setattr(intlinalg, "snf", recording_snf)
    return shapes


@pytest.mark.parametrize("g", [2, 3, 4, 6])
def test_cokernel_of_a_multiple_matches_both_oracles(g):
    """cokernel(g A): the residue's content is divided out and swept
    again; the factors agree with the Smith form and the minors."""
    rng = random.Random(40 + g)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = _times(IntMatrix([[rng.choice((0, 0, 1, -1, 2, -2, 3)) for _ in range(n)]
                              for _ in range(m)], cols=n), g)
        factors = minor_gcd_invariant_factors(a)
        assert list(snf(a).invariant_factors()) == factors
        assert cokernel(a) == AbelianGroup(m - len(factors), tuple(d for d in factors if d >= 2))


def test_cokernel_of_a_multiple_of_a_triangular_matrix_runs_no_smith_form(monkeypatch):
    """g T, for T unitriangular up to row order and signs, has content g,
    and T has unit pivots all the way down, so every factor g is found on
    a unit and no Smith form runs."""
    shapes = _recording_snf(monkeypatch)
    rng = random.Random(47)
    for g in (2, 3, 4, 6):
        for _ in range(20):
            n = rng.randint(1, 6)
            rows = [[0] * i + [rng.choice((1, -1))] + [rng.randint(-5, 5) for _ in range(n - i - 1)]
                    for i in range(n)]
            rng.shuffle(rows)
            assert cokernel(_times(IntMatrix(rows), g)) == AbelianGroup(0, (g,) * n)
    assert shapes == []


def test_sweep_looks_again_at_a_column_a_later_pivot_changed(monkeypatch):
    """Column 0 of [[2, 1], [3, 1]] has no unit until the pivot in column 1
    subtracts row 0 from row 1, so the sweep must pass over it again; a
    single pass would leave the unit [[1]] to a Smith form."""
    shapes = _recording_snf(monkeypatch)
    assert cokernel(IntMatrix([[2, 1], [3, 1]])) == AbelianGroup(0)
    assert cokernel(IntMatrix([[4, 2], [6, 2]])) == AbelianGroup(0, (2, 2))
    assert shapes == []


def test_cokernel_reaches_smith_form_on_content_one_without_units(monkeypatch):
    """diag(2A, 3B) with A and B of content 1 has content 1 and no +-1, so
    neither the unit sweep nor content division finishes it: its one
    residue goes to ``snf``.  So does the 1 x 2 matrix (2 3)."""
    real_snf = intlinalg.snf
    shapes = _recording_snf(monkeypatch)
    rng = random.Random(53)
    tried = 0
    while tried < 100:
        a, b = ([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)] for _ in range(2))
        if math.gcd(*a[0], *a[1]) != 1 or math.gcd(*b[0], *b[1]) != 1:
            continue
        tried += 1
        d = IntMatrix([[2 * x for x in a[0]] + [0, 0], [2 * x for x in a[1]] + [0, 0],
                       [0, 0] + [3 * x for x in b[0]], [0, 0] + [3 * x for x in b[1]]])
        factors = minor_gcd_invariant_factors(d)
        assert list(real_snf(d).invariant_factors()) == factors
        shapes.clear()
        assert cokernel(d) == AbelianGroup(4 - len(factors), tuple(x for x in factors if x >= 2))
        assert len(shapes) == 1
    shapes.clear()
    row = IntMatrix([[2, 3]])
    assert minor_gcd_invariant_factors(row) == list(real_snf(row).invariant_factors()) == [1]
    assert cokernel(row) == AbelianGroup(0)
    assert shapes == [(1, 2)]


def test_cokernel_unimodular_invariance():
    rng = random.Random(23)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        left = random_unimodular(rng, m)
        right = random_unimodular(rng, n)
        assert cokernel(a) == cokernel(left * a * right)


def test_kernel_basis_projection_and_injective():
    k = kernel_basis(IntMatrix([[1, 0, 0]]))
    assert k.cols == 2
    assert kernel_basis(IntMatrix([[2, 1], [1, 1]])).cols == 0


def test_kernel_basis_is_actual_kernel():
    rng = random.Random(31)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        k = kernel_basis(a)
        assert (a * k).is_zero() or k.cols == 0
        # Columns are integrally independent: Hermite form has no zero column.
        if k.cols:
            decomp = snf(k)
            assert decomp.rank == k.cols


def test_kernel_basis_canonical_under_row_operations():
    # The kernel lattice only depends on the row space, and the canonical
    # basis must not notice which presentation produced it.
    rng = random.Random(37)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(2, 6)
        a = random_matrix(rng, m, n)
        u = random_unimodular(rng, m)
        assert kernel_basis(a) == kernel_basis(u * a)


def test_kernel_membership_solver():
    rng = random.Random(41)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(2, 6)
        a = random_matrix(rng, m, n)
        k = kernel_basis(a)
        if k.cols == 0:
            continue
        coeffs = [rng.randint(-5, 5) for _ in range(k.cols)]
        target = k.apply(coeffs)
        assert EchelonBasis(k).solve(target) == tuple(coeffs)


def test_echelon_solver_many_targets_per_basis():
    """One record solves many targets: members round-trip, non-members are
    refused.  The kernel is saturated, so v is a member exactly when
    a v = 0; doubling the basis makes odd coefficients non-members too."""
    rng = random.Random(43)
    checked = refused = 0
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(2, 7)
        a = random_matrix(rng, m, n)
        k = kernel_basis(a)
        if k.cols == 0:
            continue
        basis = EchelonBasis(k)
        doubled = EchelonBasis(IntMatrix([[2 * x for x in row] for row in row_lists(k)],
                                         cols=k.cols))
        for _ in range(6):
            coeffs = [rng.randint(-6, 6) for _ in range(k.cols)]
            member = k.apply(coeffs)
            assert basis.solve(member) == tuple(coeffs)
            if all(c % 2 == 0 for c in coeffs):
                assert doubled.solve(member) == tuple(c // 2 for c in coeffs)
            else:
                with pytest.raises(ValueError):
                    doubled.solve(member)
                refused += 1
            other = [rng.randint(-3, 3) for _ in range(n)]
            if any(a.apply(other)):
                with pytest.raises(ValueError):
                    basis.solve(other)
                refused += 1
            else:
                assert k.apply(basis.solve(other)) == tuple(other)
            checked += 1
    assert checked > 100 and refused > 50


def test_echelon_solver_refuses_bad_input():
    with pytest.raises(ValueError, match="column 1 is zero"):
        EchelonBasis(IntMatrix([[1, 0], [0, 0]]))
    basis = EchelonBasis(IntMatrix([[1, 0], [0, 3], [2, 1]]))
    assert basis.solve((2, 3, 5)) == (2, 1)
    with pytest.raises(ValueError, match="length"):
        basis.solve((1, 0))
    with pytest.raises(ValueError, match="integer span"):
        basis.solve((0, 1, 0))
    with pytest.raises(ValueError, match="integer span"):
        basis.solve((1, 0, 0))
    assert EchelonBasis(IntMatrix([[], []], cols=0)).solve((0, 0)) == ()


@pytest.mark.parametrize("read", [
    lambda: IntMatrix([[1.5]]),
    lambda: IntMatrix.from_columns([[Fraction(7, 2)]]),
    lambda: IntMatrix.from_nonzeros([[(0, 2.5)]], rows=1),
    lambda: EchelonBasis(IntMatrix.identity(1)).solve_nonzeros([(0, 1.5)]),
    lambda: is_primitive((1.5, 2)),
], ids=["IntMatrix", "from_columns", "from_nonzeros", "solve_nonzeros", "is_primitive"])
def test_non_integer_entries_are_refused(read):
    """Entries are read exactly, never truncated: 1.5 is not 1."""
    with pytest.raises(TypeError):
        read()


@pytest.mark.parametrize("call, message", [
    (lambda: IntMatrix([[1, 2], [3]]), "ragged rows"),
    (lambda: IntMatrix([]), "empty matrix needs an explicit column count"),
    (lambda: IntMatrix([[1, 2]], cols=3), "cols does not match row width"),
    (lambda: IntMatrix.from_columns([[1, 2], [3]]), "ragged columns"),
    (lambda: IntMatrix.from_columns([]), "empty column list needs an explicit row count"),
    (lambda: IntMatrix.identity(2) * IntMatrix.identity(3), "shape mismatch in product"),
    (lambda: IntMatrix.identity(2).apply((1, 2, 3)), "vector length mismatch"),
    (lambda: IntMatrix([[1, 2]]).det(), "determinant of a non-square matrix"),
], ids=["rows", "no_cols", "cols", "columns", "no_rows", "product", "apply", "det"])
def test_int_matrix_refuses_mismatched_shapes(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_int_matrix_is_immutable():
    """Matrices share their column storage, so none is written after it is built."""
    m = IntMatrix.identity(2)
    with pytest.raises(AttributeError, match="^IntMatrix is immutable$"):
        m.rows = 3
    assert m == IntMatrix.identity(2)


def test_is_primitive():
    assert is_primitive((1, 17, -4))
    assert not is_primitive((0, 0, 0))
    assert not is_primitive((2, 4, 6))
    assert is_primitive((0, 1, 0))


@given(st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=60)
def test_slope_vectors_are_primitive(b, c):
    assert is_primitive((1, b, c))


def test_generates():
    basis = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
             (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]
    assert generates(basis, 5)
    doubled = [(2, 0, 0, 0, 0)] + list(basis[1:])
    assert not generates(doubled, 5)
    assert generates([], 0)
    assert not generates([], 3)
    with pytest.raises(ValueError, match="^vector length does not match ambient rank$"):
        generates([(1, 0), (0, 1, 0)], 2)


def test_generates_matches_cokernel_triviality():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(1, 5)
        count = rng.randint(1, 6)
        vectors = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(count)]
        expected = cokernel(IntMatrix.from_columns(vectors, rows=n)).is_trivial()
        assert generates(vectors, n) == expected


def row_hermite(a: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form of ``a``, from ``_hermite_rows``."""
    rows = _hermite_rows([{j: x for j, x in enumerate(a.row(i)) if x} for i in range(a.rows)])
    return IntMatrix([[row.get(j, 0) for j in range(a.cols)] for row in rows], cols=a.cols)


def test_row_hermite_canonical():
    a = IntMatrix([[2, 7, 17], [3, 11, 19]])
    h = row_hermite(a)
    # Echelon with positive pivots and reduced entries above.
    assert h == row_hermite(h)
    rng = random.Random(59)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        b = random_matrix(rng, m, n)
        u = random_unimodular(rng, m)
        assert row_hermite(b) == row_hermite(u * b)


# -- a dense reference for the row Hermite form ----------------------------

def dense_row_hermite(rows: list[list[int]], n: int) -> list[list[int]]:
    """Row Hermite form of dense rows by the textbook column sweep: every
    column index in turn, gcd-reduced below the current row by the least
    entry, then the rows above reduced into [0, pivot)."""
    h = [list(r) for r in rows]
    r = 0
    for c in range(n):
        while True:
            below = [i for i in range(r, len(h)) if h[i][c]]
            if not below:
                break
            i0 = min(below, key=lambda i: (abs(h[i][c]), i))
            h[r], h[i0] = h[i0], h[r]
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
            for i in range(r + 1, len(h)):
                q = h[i][c] // h[r][c]
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
            if not any(h[i][c] for i in range(r + 1, len(h))):
                break
        if r < len(h) and h[r][c]:
            for i in range(r):
                q = h[i][c] // h[r][c]
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
            r += 1
    return h


def random_sparse(rng: random.Random, m: int, n: int, density: float) -> IntMatrix:
    return IntMatrix([[rng.choice((-2, -1, 1, 1, 2)) if rng.random() < density else 0
                       for _ in range(n)] for _ in range(m)], cols=n)


def assert_row_hermite_matches_dense(a: IntMatrix) -> None:
    want = dense_row_hermite([list(a.row(i)) for i in range(a.rows)], a.cols)
    got = row_hermite(a)
    assert [list(got.row(i)) for i in range(got.rows)] == want


def test_row_hermite_matches_dense_oracle_on_sparse_matrices():
    """Seeded sparse matrices up to the shape of the cover's degree-1
    kernel (121 x 168), each also with dependent rows prepended.  Denser
    inputs stay small: Hermite entries of dense random matrices run to
    hundreds of bits, which times bignum arithmetic, not the sweep."""
    rng = random.Random(61)
    cases = [(1, 1, 1.0), (3, 7, 0.5), (7, 3, 0.5), (12, 20, 0.3), (30, 40, 0.1),
             (60, 30, 0.1), (121, 168, 0.02), (121, 168, 0.03)]
    for m, n, density in cases:
        a = random_sparse(rng, m, n, density)
        assert_row_hermite_matches_dense(a)
        rows = [list(a.row(i)) for i in range(m)]
        extra = [[x - 2 * y for x, y in zip(rows[rng.randrange(m)], rows[rng.randrange(m)])]
                 for _ in range(3)]
        assert_row_hermite_matches_dense(IntMatrix(extra + rows, cols=n))


def test_kernel_bases_match_dense_hermite_on_census(census_n, census_m):
    """Every census kernel basis is the dense Hermite form of the raw
    kernel columns of V, and the cover's degree-1 kernel (121 x 168)
    matches as a row Hermite input too."""
    for q in (census_n, census_m):
        for d in q.chain.boundary:
            decomp = snf(d, left=False)
            raw = [list(decomp.V.column(j)) for j in range(decomp.rank, decomp.V.cols)]
            want = [r for r in dense_row_hermite(raw, decomp.V.rows) if any(r)]
            got = kernel_basis(d)
            assert [list(got.column(j)) for j in range(got.cols)] == want
    kernel = kernel_basis(census_m.chain.boundary[1])
    assert (kernel.rows, kernel.cols) == (168, 121)
    assert_row_hermite_matches_dense(transpose(kernel))
    assert_row_hermite_matches_dense(census_m.chain.boundary[2])


def smith_kernel_basis(a: IntMatrix) -> IntMatrix:
    """The kernel route before ``hermite_graph``, kept as an oracle: the
    last columns of the Smith column transform V, in Hermite form."""
    decomp = snf(a, left=False)
    raw = [decomp.V.column(j) for j in range(decomp.rank, a.cols)]
    if not raw:
        return IntMatrix.zero(a.cols, 0)
    return transpose(row_hermite(IntMatrix(raw, cols=a.cols)))


def test_kernel_basis_matches_smith_route_on_census_sections(census_n, census_m):
    """Every boundary of every cusp section, on 1 and 2 copies (the
    complexes' own boundaries are checked against the dense oracle)."""
    for q in (census_n, census_m):
        for d in (d for s in cusp_sections(q) for d in s.chain.boundary):
            assert kernel_basis(d) == smith_kernel_basis(d)


def test_kernel_basis_matches_smith_route_on_random_matrices():
    rng = random.Random(67)
    for _ in range(400):
        m, n = rng.randint(0, 6), rng.randint(0, 7)
        a = random_matrix(rng, m, n, bound=rng.choice((1, 3, 9)))
        if m and rng.random() < 0.3:
            # Dependent rows: a rank below min(m, n) more often.
            rows = [list(a.row(i)) for i in range(m)]
            a = IntMatrix(rows + [[x + 2 * y for x, y in zip(rows[0], rows[-1])]], cols=n)
        assert kernel_basis(a) == smith_kernel_basis(a)
    for m, n, density in [(12, 20, 0.3), (30, 40, 0.1), (60, 30, 0.1)]:
        a = random_sparse(rng, m, n, density)
        assert kernel_basis(a) == smith_kernel_basis(a)


def test_hermite_graph_splits_image_and_kernel():
    """image is the Hermite basis of the column lattice, a * preimage =
    image, each preimage is reduced at the kernel pivots, and preimage
    and kernel together are a basis of Z^n."""
    rng = random.Random(71)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n, bound=rng.choice((1, 4)))
        image, preimage, kernel = hermite_graph(a)
        want = row_hermite(transpose(a))
        assert image.columns() == [want.row(i) for i in range(image.cols)]
        assert not any(any(want.row(i)) for i in range(image.cols, want.rows))
        assert a * preimage == image
        assert kernel == smith_kernel_basis(a)
        for j in range(kernel.cols):
            pivot = next(i for i, x in enumerate(kernel.column(j)) if x)
            assert all(0 <= preimage[pivot, t] < kernel[pivot, j] for t in range(preimage.cols))
        both = preimage.columns() + kernel.columns()
        assert IntMatrix.from_columns(both, rows=n).det() in (1, -1)


def random_signed_multigraph(rng: random.Random) -> tuple[IntMatrix, list]:
    """A seeded signed incidence matrix and its edges, (head, tail) or
    ``None`` for a loop, whose boundary is zero.  Parallel edges come in
    both orientations; sparsity gives isolated vertices and several
    components, and some draws have no vertex or no edge at all."""
    vertices, edges = rng.randint(0, 9), []
    for _ in range(rng.randint(0, 16)):
        if vertices < 2 or rng.random() < 0.15:
            edges.append(None)
        elif any(edges) and rng.random() < 0.3:
            u, v = rng.choice([e for e in edges if e])
            edges.append(rng.choice(((u, v), (v, u))))
        else:
            edges.append(tuple(rng.sample(range(vertices), 2)))
    a = IntMatrix.from_nonzeros([{e[0]: 1, e[1]: -1}.items() if e else () for e in edges],
                                rows=vertices)
    return a, edges


def component_count(vertices: int, edges: list) -> int:
    label = list(range(vertices))
    for u, v in filter(None, edges):
        label = [label[v] if x == label[u] else x for x in label]
    return len(set(label))


def test_forest_kernel_is_the_hermite_kernel_on_random_multigraphs():
    """Column for column, with unit pivots at the returned rows and zeros
    at the other pivots."""
    rng = random.Random(83)
    seen = collections.Counter()
    for _ in range(1500):
        a, edges = random_signed_multigraph(rng)
        cycles, pivots = forest_kernel(a)
        assert cycles == kernel_basis(a)
        assert pivots == tuple(min(i for i, _ in col) for col in cycles.nonzero_columns())
        assert cycles.submatrix(pivots, range(cycles.cols)) == IntMatrix.identity(len(pivots))
        ends = list(filter(None, edges))
        seen["loop"] += None in edges
        seen["no edge"] += not edges
        seen["no vertex"] += a.rows == 0
        seen["opposite parallels"] += any((v, u) in ends for u, v in ends)
        seen["isolated vertex"] += len({x for e in ends for x in e}) < a.rows
        seen["components"] += component_count(a.rows, edges) > 1
    assert min(seen.values()) >= 20 and len(seen) == 6, seen


@pytest.mark.parametrize("column", [(2, -2, 0), (0, -1, 2), (1, 0, 0), (0, 0, -1),
                                    (1, 1, 0), (0, -1, -1), (1, -1, 1), (-1, 1, -1)])
def test_forest_kernel_refuses_non_incidence_columns(column):
    """A 2, a lone +-1, two entries of one sign, three nonzeros: ``None``,
    wherever the column stands."""
    edges = [(1, -1, 0), (0, 0, 0), (0, 1, -1)]
    for at in range(len(edges) + 1):
        a = IntMatrix.from_columns(edges[:at] + [column] + edges[at:])
        assert forest_kernel(a) is None
    assert forest_kernel(IntMatrix.from_columns(edges)) is not None


def complexes_under_test(census_n, census_m, search_demo):
    """Every complex the tests build: the census base and cover and their
    cusp sections, the test gluings at 1 and 2 copies, and the buildable
    leaves of search slice (0, 1) at 1 and 2 copies."""
    yield census_n.chain
    yield census_m.chain
    for q in (census_n, census_m):
        yield from (section.chain for section in cusp_sections(q))
    for spec in (torus_spec, klein_spec, projective_plane_spec, three_torus_spec):
        for copies in (1, 2):
            try:
                yield quotient_complex(spec(), copies=copies).chain
            except GluingError:
                assert copies == 2 and spec in (torus_spec, three_torus_spec)
    for spec in search_demo.Search({0, 1}).run():
        for copies in (1, 2):
            try:
                yield search_demo.quotient_complex(spec, copies=copies).chain
            except search_demo.GluingError:
                pass


def test_forest_route_equals_hermite_route_on_every_test_complex(
        census_n, census_m, search_demo, monkeypatch):
    """``homology_basis`` in degrees 0 and 1 is the same record, kernel
    included, whether its kernel comes from the forest or from Hermite."""
    complexes = list(complexes_under_test(census_n, census_m, search_demo))
    assert len(complexes) > 50
    assert all(forest_kernel(c.boundary[1]) is not None for c in complexes)
    forest = [homology_basis.__wrapped__(c, k) for c in complexes for k in (0, 1)]
    monkeypatch.setattr(chains, "forest_kernel", lambda a: None)
    hermite = [homology_basis.__wrapped__(c, k) for c in complexes for k in (0, 1)]
    assert forest == hermite
    assert [b._kernel._columns for b in forest] == [b._kernel._columns for b in hermite]


def test_abelian_group_descriptions():
    assert AbelianGroup(5).describe() == "Z^5"
    assert AbelianGroup(0, (2, 2, 2, 2, 2, 2)).describe() == "Z_2^6"
    assert AbelianGroup(0).describe() == "0"
    assert AbelianGroup(1, (2, 4)).describe() == "Z + Z_2 + Z_4"
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 2))
    # An invariant factor 1 would give 0 a second name, Z_1.
    with pytest.raises(ValueError, match="^torsion orders must be >= 2$"):
        AbelianGroup(0, (1,))


@pytest.mark.parametrize("args", [(1.5,), (0, (2.0, 4.0)), (Fraction(2),)],
                         ids=["float-rank", "float-torsion", "fraction-rank"])
def test_abelian_group_refuses_non_integers(args):
    # Unchecked, these printed as Z^1.5 and Z_2.0 + Z_4.0.
    with pytest.raises(TypeError):
        AbelianGroup(*args)


def test_abelian_group_torsion_is_a_tuple():
    group = AbelianGroup(0, [2, 2])
    assert group.torsion == (2, 2) and group == AbelianGroup(0, (2, 2))
    assert hash(group) == hash(AbelianGroup(0, (2, 2)))
