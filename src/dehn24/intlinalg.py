"""Exact integer matrices and their unimodular normal forms.

Everything downstream reduces to normal forms over Z: one unit-pivot
reduction of a chain complex, finished map by map by dividing out each
residue's content and sweeping again, gives ranks and torsion
(``chain_invariants``, and ``cokernel`` as its one-map case); only a
residue of content 1 with no unit needs a Smith form.  Smith forms with
transforms give homology generators; and one Hermite reduction of
[a^T | I] (``hermite_graph``) gives kernels and adapted bases.  The
kernel of a graph's incidence matrix has that same Hermite basis at
graph cost, from a spanning forest (``forest_kernel``).
Matrices are immutable, arbitrary precision, and all operations are pure,
so values can be shared freely between threads.  Boundary matrices are a
few percent nonzero, so a matrix stores only its nonzeros, column by
column, and every product, solve and normal form costs the nonzeros it
touches.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from operator import index

from .record import Record

Entries = Iterable[tuple[int, int]]


def _transposed(vectors: Sequence[dict[int, int]], length: int) -> list[dict[int, int]]:
    """Sparse vectors read the other way: entry b of vector a becomes
    entry a of vector b, for b in 0..length-1."""
    out: list[dict[int, int]] = [{} for _ in range(length)]
    for a, vector in enumerate(vectors):
        for b, x in vector.items():
            out[b][a] = x
    return out


def _spread(vector: dict[int, int], length: int) -> tuple[int, ...]:
    """A sparse vector written out with its zeros."""
    out = [0] * length
    for i, x in vector.items():
        out[i] = x
    return tuple(out)


class IntMatrix:
    """An immutable matrix of arbitrary-precision integers.

    Nonzeros are stored by column, one ``{row: entry}`` dict per column
    holding no zero; rows are derived on demand and kept once read.
    Construction is the only place dimensions are fixed; every operation
    returns a new matrix.  Entries are read with ``operator.index``, so a
    non-integer such as 1.5 raises TypeError instead of being truncated.
    """

    __slots__ = ("rows", "cols", "_cols", "_by_row", "_hash")

    def __init__(self, rows: Iterable[Iterable[int]], *, cols: int | None = None):
        data = [tuple(row) for row in rows]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            width = cols
        if cols is not None and data and cols != width:
            raise ValueError("cols does not match row width")
        columns: list[dict[int, int]] = [{} for _ in range(width)]
        for i, row in enumerate(data):
            for j, x in enumerate(row):
                if x:
                    columns[j][i] = index(x)
        self._init(len(data), columns)

    def _init(self, rows: int, columns: Sequence[dict[int, int]]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", len(columns))
        object.__setattr__(self, "_cols", tuple(columns))
        object.__setattr__(self, "_by_row", None)
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def _adopt(rows: int, columns: Sequence[dict[int, int]]) -> "IntMatrix":
        """The matrix that takes ``columns`` as its storage, uncopied: each
        a ``{row: entry}`` dict with no zero, never changed afterwards."""
        m = object.__new__(IntMatrix)
        m._init(rows, columns)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix._adopt(n, [{j: 1} for j in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix._adopt(rows, [{} for _ in range(cols)])

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], *, rows: int | None = None) -> "IntMatrix":
        """Build a matrix whose j-th column is ``columns[j]``."""
        if not columns:
            if rows is None:
                raise ValueError("empty column list needs an explicit row count")
            return IntMatrix.zero(rows, 0)
        height = len(columns[0])
        if any(len(c) != height for c in columns):
            raise ValueError("ragged columns")
        return IntMatrix._adopt(height, [{i: index(x) for i, x in enumerate(c) if x}
                                         for c in columns])

    @staticmethod
    def from_nonzeros(columns: Iterable[Entries], *, rows: int) -> "IntMatrix":
        """Build a matrix from its columns given as ``(row, entry)`` pairs.

        Each column names distinct rows in 0..rows-1, in any order; zero
        entries are dropped.
        """
        out = []
        for column in columns:
            col = {i: index(x) for i, x in column if x}
            if any(not 0 <= i < rows for i in col):
                raise ValueError("row index out of range")
            out.append(col)
        return IntMatrix._adopt(rows, out)

    # -- access -------------------------------------------------------

    def _row_entries(self) -> list[dict[int, int]]:
        """One ``{column: entry}`` dict per row, built on first use."""
        if self._by_row is None:
            object.__setattr__(self, "_by_row", _transposed(self._cols, self.rows))
        return self._by_row

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        if not -self.rows <= i < self.rows:
            raise IndexError("row index out of range")
        return self._cols[j].get(i % self.rows, 0)

    def row(self, i: int) -> tuple[int, ...]:
        return _spread(self._row_entries()[i], self.cols)

    def column(self, j: int) -> tuple[int, ...]:
        return _spread(self._cols[j], self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return [_spread(col, self.rows) for col in self._cols]

    def nonzero_columns(self) -> tuple[Entries, ...]:
        """Every column as a read-only view of its ``(row, entry)`` pairs,
        zeros omitted, in no fixed order."""
        return tuple(col.items() for col in self._cols)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "IntMatrix":
        """The entries in ``rows`` (distinct) and ``cols``, in the order given."""
        position = {r: t for t, r in enumerate(rows)}
        return IntMatrix._adopt(len(position), [
            {position[i]: x for i, x in self._cols[j].items() if i in position}
            for j in cols])

    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(self._cols[i].get(i, 0) for i in range(min(self.rows, self.cols)))

    # -- algebra ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self._cols == other._cols)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                (self.rows, tuple(frozenset(col.items()) for col in self._cols))))
        return self._hash

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        left = self._cols
        out = []
        for col in other._cols:
            acc: dict[int, int] = {}
            for k, y in col.items():
                for i, x in left[k].items():
                    acc[i] = acc.get(i, 0) + x * y
            out.append({i: x for i, x in acc.items() if x})
        return IntMatrix._adopt(self.rows, out)

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for col, v in zip(self._cols, vector):
            if v:
                for i, x in col.items():
                    out[i] += x * v
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self._cols)

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(self.row(i)) for i in range(n)]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __repr__(self) -> str:
        return f"IntMatrix({[list(self.row(i)) for i in range(self.rows)]!r})"


class SNFDecomposition(Record):
    """Smith normal form ``U * A * V = D`` with unimodular U and V.

    ``u_inv`` is the exact inverse of U, replayed with U from the logged
    row operations, so no separate inversion is ever needed.  A transform
    the caller did not ask for is ``None``: U and ``u_inv`` come with the
    row side, V with the column side.
    """

    U: IntMatrix | None
    D: IntMatrix
    V: IntMatrix | None
    u_inv: IntMatrix | None

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.D.diagonal_entries() if d != 0)


class AbelianGroup(Record):
    """A finitely generated abelian group in invariant-factor form.

    ``torsion`` lists the invariant factors d_1 | d_2 | ... with every
    d_i >= 2, so the representation is unique per isomorphism class.
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        # ``index`` refuses 1.5 or 2.0 (TypeError); a list becomes a hashable tuple.
        free_rank, torsion = index(free_rank), tuple(map(index, torsion))
        if free_rank < 0:
            raise ValueError("free rank must be >= 0")
        if any(d < 2 for d in torsion):
            raise ValueError("torsion orders must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must divide successively")
        self.__dict__.update(free_rank=free_rank, torsion=torsion)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def describe(self) -> str:
        """Canonical human-readable form, e.g. ``Z^5``, ``Z_2^6``, ``0``."""
        parts: list[str] = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        i = 0
        while i < len(self.torsion):
            j = i
            while j < len(self.torsion) and self.torsion[j] == self.torsion[i]:
                j += 1
            count = j - i
            base = f"Z_{self.torsion[i]}"
            parts.append(base if count == 1 else f"{base}^{count}")
            i = j
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.describe()


def _add_scaled(target: dict[int, int], source: dict[int, int], c: int) -> None:
    """target += c * source on sparse vectors, dropping entries that cancel."""
    for k, x in source.items():
        y = target.get(k, 0) + c * x
        if y:
            target[k] = y
        else:
            del target[k]


def _add_indexed(rows: list[dict[int, int]], at: dict[int, set[int]], i: int, p: int,
                 q: int) -> None:
    """rows[i] += q * rows[p] for q != 0 on sparse rows, dropping entries
    that cancel, and ``at[k]``, the set of rows with a nonzero in column
    k, kept up to date."""
    target = rows[i]
    for k, x in rows[p].items():
        y = target.get(k)
        if y is None:
            target[k] = q * x
            at[k].add(i)
            continue
        y += q * x
        if y:
            target[k] = y
        else:
            del target[k]
            at[k].discard(i)


class _Reduction:
    """Mutable state for the Smith reduction, stored row-sparse.

    The working matrix is one ``{column: nonzero}`` dict per row, read
    from the input's column storage, and V, when asked for, is kept as
    column dicts, so every elementary operation costs only the nonzeros
    it touches.  U is not accumulated: each row operation is appended to
    ``log`` as ``(i, k, c)``, where c != 0 adds c * row k to row i,
    ``(i, i, 0)`` negates row i and ``(i, k, 0)`` swaps rows i and k.
    ``transforms`` replays the log onto just the rows of U and columns of
    U^-1 a caller reads.  No zero is ever stored, so the column dicts
    become the storage of the returned matrices as they stand; the pivot
    sequence depends on the working matrix alone.
    """

    def __init__(self, a: IntMatrix, right: bool):
        self.m = a.rows
        self.n = a.cols
        self.d = _transposed(a._cols, self.m)
        self.log: list[tuple[int, int, int]] = []
        self.v = [{j: 1} for j in range(self.n)] if right else None
        # Stage of the reduction: rows t..m-1 are the active ones.
        self.t = 0

    # Row operations act on the left, D <- E D, and are logged: U is the
    # product of the logged E, the last one leftmost.

    def swap_rows(self, i: int, k: int) -> None:
        if i == k:
            return
        self.d[i], self.d[k] = self.d[k], self.d[i]
        self.log.append((i, k, 0))

    def negate_row(self, i: int) -> None:
        self.d[i] = {j: -x for j, x in self.d[i].items()}
        self.log.append((i, i, 0))

    def add_row(self, i: int, k: int, c: int) -> None:
        """row_i += c * row_k."""
        if c == 0:
            return
        _add_scaled(self.d[i], self.d[k], c)
        self.log.append((i, k, c))

    # Column operations act on the right: D <- D F, V <- V F.  They only
    # ever touch columns >= t, and every row above t already holds its
    # diagonal entry alone (a finished stage clears its row and column,
    # and later stages add only rows and columns that are zero there), so
    # the active rows t..m-1 hold every nonzero they change.

    def swap_cols(self, j: int, k: int) -> None:
        if j == k:
            return
        for row in self.d[self.t:]:
            if j in row or k in row:
                x = row.pop(j, 0)
                y = row.pop(k, 0)
                if x:
                    row[k] = x
                if y:
                    row[j] = y
        if self.v is not None:
            self.v[j], self.v[k] = self.v[k], self.v[j]

    def add_col(self, j: int, c: int) -> None:
        """col_j += c * col_t, once the row phase has cleared column t
        below the pivot: of the active rows only row t then changes."""
        if c == 0:
            return
        t = self.t
        row = self.d[t]
        y = row.get(j, 0) + c * row[t]
        if y:
            row[j] = y
        else:
            del row[j]
        if self.v is not None:
            _add_scaled(self.v[j], self.v[t], c)

    def pivot(self) -> tuple[int, int] | None:
        """The active nonzero of least absolute value, lowest row, then
        lowest column; ``None`` once the active rows are all zero.

        Every stored entry of an active row lies in an active column, so
        the scan reads stored nonzeros only.  A +-1 cannot be beaten, so
        the first row holding one ends the scan.
        """
        best, least = None, 0
        for i in range(self.t, self.m):
            row = self.d[i]
            if row:
                low = min(map(abs, row.values()))
                if best is None or low < least:
                    best = (i, min(j for j, x in row.items() if abs(x) == low))
                    least = low
                    if low == 1:
                        break
        return best

    def transforms(self, kept: Sequence[int]) -> tuple[IntMatrix, IntMatrix]:
        """Rows ``kept`` of U and columns ``kept`` of U^-1, in that order.

        With U = E_N ... E_1 for the logged operations, row r of U is
        e_r^T E_N ... E_1 and column j of U^-1 is E_1^-1 ... E_N^-1 e_j,
        so both come from one backward pass over the log, each vector
        starting as a unit vector: for row_i += c * row_k, a row of U
        takes entry k += c * entry i and a column of U^-1 entry
        i -= c * entry k.  ``u[j]`` holds column j of the kept rows of U
        and ``ui[i]`` row i of the kept columns of U^-1.
        """
        u: list[dict[int, int]] = [{} for _ in range(self.m)]
        ui: list[dict[int, int]] = [{} for _ in range(self.m)]
        for position, r in enumerate(kept):
            u[r][position] = ui[r][position] = 1
        for i, k, c in reversed(self.log):
            if c:
                _add_scaled(u[k], u[i], c)
                _add_scaled(ui[i], ui[k], -c)
            elif i == k:
                u[i] = {j: -x for j, x in u[i].items()}
                ui[i] = {j: -x for j, x in ui[i].items()}
            else:
                u[i], u[k] = u[k], u[i]
                ui[i], ui[k] = ui[k], ui[i]
        return (IntMatrix._adopt(len(kept), u),
                IntMatrix._adopt(self.m, _transposed(ui, len(kept))))


def _smith(a: IntMatrix, right: bool) -> _Reduction:
    """The finished Smith reduction of ``a`` (see ``snf``), V kept only
    when ``right``: its working matrix holds D, and its log gives U."""
    r = _Reduction(a, right)
    d = r.d
    while r.t < min(r.m, r.n):
        t = r.t
        best = r.pivot()
        if best is None:
            break
        r.swap_rows(t, best[0])
        r.swap_cols(t, best[1])
        while True:
            if d[t][t] < 0:
                r.negate_row(t)
            # Clearing one row (or column) never changes another's entry at
            # t, so the rows (columns) to clear can be listed up front.
            restart = False
            for i in [i for i in range(t + 1, r.m) if t in d[i]]:
                r.add_row(i, t, -(d[i][t] // d[t][t]))
                if t in d[i]:
                    # Remainder is a strictly smaller pivot candidate.
                    r.swap_rows(t, i)
                    restart = True
                    break
            if restart:
                continue
            for j in sorted(j for j in d[t] if j > t):
                r.add_col(j, -(d[t][j] // d[t][t]))
                if j in d[t]:
                    r.swap_cols(t, j)
                    restart = True
                    break
            if restart:
                continue
            # Row and column at t are clear; enforce the divisibility chain.
            p = d[t][t]
            if p == 1:
                break
            bad_row = next((i for i in range(t + 1, r.m)
                            if any(x % p for x in d[i].values())), None)
            if bad_row is None:
                break
            r.add_row(t, bad_row, 1)
        r.t += 1
    return r


def snf(a: IntMatrix, *, left: bool = True, right: bool = True) -> SNFDecomposition:
    """Smith normal form of an integer matrix.

    The pivot at each stage is the nonzero entry of minimal absolute value
    in the active submatrix, ties broken by lowest row then lowest column;
    this keeps coefficient growth modest without modular tricks.  The
    reduction is fully deterministic, so the transforms (and everything
    derived from them, like canonical homology bases) are reproducible.

    The working matrix and V are stored row- or column-sparse while the
    reduction runs and come back in the matrices' own column storage, so
    a step costs the nonzeros it touches rather than the size of the
    matrix; U and U^-1 are replayed afterwards from the logged row
    operations.  The pivot rule above fixes every step, so the results
    are those of the plain dense elimination.

    ``left=False`` skips U and its inverse, ``right=False`` skips V; the
    skipped fields come back as ``None``.  Neither flag changes D or the
    transforms that are built, so callers that need only the invariant
    factors pay for the working matrix and its log; in the package those
    are the residues of ``chain_invariants`` with content 1 and no unit.  The
    package itself never asks for V: its kernels come from
    ``hermite_graph``, and ``homology_basis`` replays only the rows of U
    it keeps.
    """
    r = _smith(a, right)
    u, ui = r.transforms(range(r.m)) if left else (None, None)
    v = None if r.v is None else IntMatrix._adopt(r.n, r.v)
    d = IntMatrix._adopt(r.m, _transposed(r.d, r.n))
    return SNFDecomposition(U=u, D=d, V=v, u_inv=ui)


class _SparseMap:
    """One map of a complex under reduction: its rows as ``{column:
    nonzero}`` dicts with their column index ``at`` (see
    ``_add_indexed``), and the count of unit pivots eliminated.  A
    dropped row is left empty; the keys of ``at`` are the live columns."""

    __slots__ = ("rows", "at", "units")

    def __init__(self, rows: list[dict[int, int]], at: dict[int, set[int]]):
        self.rows, self.at, self.units = rows, at, 0

    def drop_row(self, i: int) -> None:
        for j in self.rows[i]:
            self.at[j].discard(i)
        self.rows[i] = {}

    def drop_col(self, j: int) -> None:
        for i in self.at.pop(j):
            del self.rows[i][j]

    def unit_pivot(self, j: int) -> int | None:
        """The row of a +-1 in column j, the shortest such row (then the
        lowest), or ``None`` when the column holds no unit."""
        best, size = None, 0
        for i in self.at[j]:
            row = self.rows[i]
            if row[j] in (1, -1) and (best is None or len(row) < size
                                      or (len(row) == size and i < best)):
                best, size = i, len(row)
        return best

    def eliminate(self, i: int, j: int) -> None:
        """Clear column j with row operations on the unit pivot (i, j),
        then drop row i and column j: the Schur complement."""
        rows = self.rows
        p = rows[i][j]
        for r in [r for r in self.at[j] if r != i]:
            _add_indexed(rows, self.at, r, i, -rows[r][j] * p)
        self.drop_row(i)
        del self.at[j]
        self.units += 1

    def sweep(self) -> Iterator[tuple[int, int]]:
        """Eliminate unit pivots, the columns in index order, yielding each
        pivot (row, column) once it is eliminated.

        A pivot changes only the columns of its row, so a column that was
        looked at and has not changed since is not looked at again: each
        further pass visits, in index order, the columns changed after
        their last look, until a pass changes none.
        """
        pending = sorted(self.at)
        while pending:
            changed: set[int] = set()
            for j in pending:
                changed.discard(j)
                i = self.unit_pivot(j)
                if i is not None:
                    changed.update(self.rows[i])
                    self.eliminate(i, j)
                    yield i, j
            pending = sorted(changed & self.at.keys())

    def finish(self) -> tuple[int, tuple[int, ...]]:
        """Rank and torsion factors of the map, once no unit is left.

        While a residue is left, its content g (the gcd of its entries)
        is divided out into a running scale and the quotient swept again:
        SNF(g M) = g SNF(M), so each unit pivot found then is one factor
        equal to the scale.  Only a residue of content 1 with no unit goes
        to ``snf``, its factors times the scale.  Scales only grow by
        multiples, so the factors come out as a divisibility chain.
        """
        factors = [1] * self.units
        scale = 1
        while any(self.rows):
            g = 0
            for row in self.rows:
                g = math.gcd(g, *row.values())
                if g == 1:
                    break
            if g == 1:
                decomp = snf(self.residue(), left=False, right=False)
                factors += [scale * d for d in decomp.invariant_factors()]
                break
            for row in self.rows:
                for j in row:
                    row[j] //= g
            scale *= g
            factors += [scale] * sum(1 for _ in self.sweep())
        return len(factors), tuple(d for d in factors if d >= 2)

    def residue(self) -> IntMatrix:
        """What is left, on the nonzero rows and columns in index order."""
        rows = self.rows
        position = {i: t for t, i in enumerate(i for i, row in enumerate(rows) if row)}
        return IntMatrix._adopt(len(position), [
            {position[i]: rows[i][j] for i in self.at[j]}
            for j in sorted(self.at) if self.at[j]])


def chain_invariants(maps: Sequence[IntMatrix]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Rank and torsion factors (those >= 2) of each map of a complex.

    ``maps`` are d_1..d_n with d_{k-1} d_k = 0 (a single map qualifies).
    Invariant factors do not depend on the route to them, so the whole
    complex is first reduced on unit pivots (Kaczynski, Mrozek and
    Slusarek, Comput. Math. Appl. 35(4), 1998): for k = 1..n the columns
    of d_k are swept in index order, then those changed since they were
    last looked at, until none changed (``_SparseMap.sweep``), and each
    column pivots on a +-1 in its shortest row that holds one.
    The pivot is eliminated by the Schur complement and counts one unit
    factor.  A pivot (s, t) of d_k also drops column s of d_{k-1} and row
    t of d_{k+1} without arithmetic: as consecutive maps compose to zero,
    that column is an integer combination of the remaining columns and
    that row of the remaining rows, so neither lattice changes and the
    reduced maps still compose to zero.  Each map then finishes alone, by
    content division (``_SparseMap.finish``): a residue that is g times a
    matrix with unit pivots needs no Smith form, and only one of content 1
    with no unit goes to ``snf`` without transforms.  No input is changed.
    """
    work = [_SparseMap(_transposed(a._cols, a.rows), {j: set(c) for j, c in enumerate(a._cols)})
            for a in maps]
    for k, m in enumerate(work):
        for i, j in m.sweep():
            if k > 0:
                work[k - 1].drop_col(i)
            if k + 1 < len(work):
                work[k + 1].drop_row(j)
    return tuple(m.finish() for m in work)


def cokernel(a: IntMatrix) -> AbelianGroup:
    """The quotient Z^rows / (column span of ``a``) in invariant-factor form,
    from ``chain_invariants`` of the one map."""
    ((rank, torsion),) = chain_invariants((a,))
    return AbelianGroup(free_rank=a.rows - rank, torsion=torsion)


def cokernel_of_rows(rows: list[dict[int, int]], at: dict[int, set[int]]) -> AbelianGroup:
    """``cokernel`` of a matrix given as ``_SparseMap`` holds it: one
    ``{column: nonzero}`` dict per row, and ``at[j]`` the rows with a
    nonzero in column j, for every column j.  Both are reduced in place."""
    work = _SparseMap(rows, at)
    for _ in work.sweep():
        pass
    rank, torsion = work.finish()
    return AbelianGroup(free_rank=len(rows) - rank, torsion=torsion)


def _hermite_rows(h: list[dict[int, int]]) -> list[dict[int, int]]:
    """Row-style Hermite normal form of sparse rows, in place.

    Unique canonical form: row echelon, positive pivots, entries above each
    pivot reduced into [0, pivot).  Zero rows are pushed to the bottom.

    ``at[c]`` holds every row that has had a nonzero in column c, so a
    column costs the rows that meet it, not all rows.  Only the columns
    where some row starts with a nonzero are visited: a row update adds a
    multiple of another row, so it never brings a new column into play.
    """
    at: dict[int, set[int]] = {}
    for i, row in enumerate(h):
        for c in row:
            at.setdefault(c, set()).add(i)
    placed: list[int] = []
    done: set[int] = set()
    for c in sorted(at):
        if len(placed) == len(h):
            break
        meets = [i for i in at[c] if c in h[i]]
        live = [i for i in meets if i not in done]
        if not live:
            continue
        # Gcd-reduce the column over the live rows to a single entry.  The
        # form is unique, so the pivot choice only steers the fill-in:
        # among the least entries, the row with the fewest nonzeros.
        while True:
            p = min(live, key=lambda i: (abs(h[i][c]), len(h[i]), i))
            if h[p][c] < 0:
                h[p] = {k: -x for k, x in h[p].items()}
            live = [i for i in live if i != p]
            for i in live:
                _add_indexed(h, at, i, p, -(h[i][c] // h[p][c]))
            live = [i for i in live if c in h[i]]
            if not live:
                break
            live.append(p)
        for i in meets:
            if i in done:
                q = h[i][c] // h[p][c]
                if q:
                    _add_indexed(h, at, i, p, -q)
        placed.append(p)
        done.add(p)
    h[:] = [h[i] for i in placed] + [h[i] for i in range(len(h)) if i not in done]
    return h


def hermite_graph(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """One Hermite reduction of [a^T | I]: ``(image, preimage, kernel)``.

    Each Hermite row of [a^T | I] is a pair (a x, x).  Those with a x != 0
    come first: the a x are the Hermite basis of the column lattice of
    ``a`` (columns of ``image``), the x reduced at the kernel's pivots
    (columns of ``preimage``).  The rest are the Hermite form of ker(a),
    unique like every Hermite form (Cohen, GTM 138, section 2.4).
    """
    m = a.rows
    # Image keys -m..-1 sort first, and kernel rows need no re-keying.
    rows = _hermite_rows([{i - m: x for i, x in col.items()} | {j: 1}
                          for j, col in enumerate(a._cols)])
    rank = next((t for t, row in enumerate(rows) if min(row) >= 0), len(rows))
    image = [{k + m: x for k, x in row.items() if k < 0} for row in rows[:rank]]
    preimage = [{k: x for k, x in row.items() if k >= 0} for row in rows[:rank]]
    return (IntMatrix._adopt(m, image), IntMatrix._adopt(a.cols, preimage),
            IntMatrix._adopt(a.cols, rows[rank:]))


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """The canonical basis of ker(a), as the columns of an (a.cols x k)
    matrix: its Hermite form, from ``hermite_graph``."""
    return hermite_graph(a)[2]


def forest_kernel(a: IntMatrix) -> tuple[IntMatrix, tuple[int, ...]] | None:
    """``kernel_basis(a)`` and its pivot rows, when every column of ``a``
    is zero or one +1 and one -1 (a graph's incidence matrix); else ``None``.

    A spanning forest is grown from the last edge down, and each edge it
    refuses is a pivot, whose cycle is +1 there plus the forest path
    between its ends (Hatcher, Algebraic Topology, 1.A).  That path uses
    only edges above the pivot, so every pivot is 1 and every cycle is
    zero at the other pivots: the Hermite conditions, whose form is
    unique.  A cycle's coordinates are its entries at the pivot rows.
    """
    cols = a._cols
    if any(col and sorted(col.values()) != [-1, 1] for col in cols):
        return None
    # Components merge smaller into larger; each vertex keeps the chain of
    # its forest path from its component's root.
    root = list(range(a.rows))
    members = [[u] for u in range(a.rows)]
    path: list[dict[int, int]] = [{} for _ in range(a.rows)]
    cycles, pivots = [], []
    for j in reversed(range(a.cols)):
        cycle = {j: 1}
        if cols[j]:
            (u, x), (v, _) = cols[j].items()
            if root[u] != root[v]:
                if len(members[root[u]]) > len(members[root[v]]):
                    u, v, x = v, u, -x
                # Hang u's tree below v by edge j: path[v] + x e_j - path[u]
                # joins v's root to u's.
                shift = {**path[v], j: x}
                _add_scaled(shift, path[u], -1)
                moved, members[root[u]] = members[root[u]], []
                members[root[v]] += moved
                for w in moved:
                    root[w] = root[v]
                    _add_scaled(path[w], shift, 1)
                continue
            # Refused: e_j less x times the forest path from v to u.
            _add_scaled(cycle, path[u], -x)
            _add_scaled(cycle, path[v], x)
        cycles.append(cycle)
        pivots.append(j)
    return IntMatrix._adopt(a.cols, cycles[::-1]), tuple(pivots[::-1])


class EchelonBasis:
    """A lattice basis in column-echelon form, read once for exact solves.

    Each column is recorded as its pivot row (its first nonzero entry),
    that pivot, and its nonzeros.  Every solve then keeps a sparse
    residual and subtracts over nonzeros only, so a basis that is solved
    against many times (a whole boundary matrix, or repeated homology
    coordinates) is extracted from its matrix just once.
    """

    __slots__ = ("rows", "_columns")

    def __init__(self, basis: IntMatrix):
        """Record the columns of ``basis``.

        Args:
            basis: matrix whose columns are in column-echelon form (as
                produced by ``kernel_basis``) and integrally independent.

        Raises:
            ValueError: if a column is zero.
        """
        columns = []
        for j, col in enumerate(basis.nonzero_columns()):
            if not col:
                raise ValueError(f"basis column {j} is zero")
            pivot_row = min(i for i, _ in col)
            entries = dict(col)
            columns.append((pivot_row, entries[pivot_row], entries))
        self.rows = basis.rows
        self._columns = tuple(columns)

    def solve(self, target: Sequence[int]) -> tuple[int, ...]:
        """Express ``target`` in terms of the basis columns, exactly.

        Raises:
            ValueError: if ``target`` has the wrong length or is not an
                integer combination of the columns.
        """
        if len(target) != self.rows:
            raise ValueError("vector length mismatch")
        coeffs = self.solve_nonzeros(enumerate(target))
        return tuple(coeffs.get(j, 0) for j in range(len(self._columns)))

    def solve_nonzeros(self, target: Entries) -> dict[int, int]:
        """``solve`` for a target given as ``(row, entry)`` pairs; returns
        the nonzero coefficients as ``{column: coefficient}``.

        Raises:
            ValueError: if ``target`` is not an integer combination of the
                columns.
        """
        residual = {i: index(x) for i, x in target if x}
        coeffs = {}
        for j, (pivot_row, pivot, entries) in enumerate(self._columns):
            if pivot_row in residual:
                q, rem = divmod(residual[pivot_row], pivot)
                if rem != 0:
                    raise ValueError("target is not in the integer span")
                coeffs[j] = q
                _add_scaled(residual, entries, -q)
        if residual:
            raise ValueError("target is not in the integer span")
        return coeffs


def is_primitive(v: Sequence[int]) -> bool:
    """True iff the entries have gcd exactly 1 (so never for the zero vector)."""
    return math.gcd(*v) == 1


def generates(vectors: Sequence[Sequence[int]], ambient_rank: int) -> bool:
    """Do the vectors generate all of Z^ambient_rank as a group?"""
    for v in vectors:
        if len(v) != ambient_rank:
            raise ValueError("vector length does not match ambient rank")
    return cokernel(IntMatrix.from_columns(vectors, rows=ambient_rank)).is_trivial()
