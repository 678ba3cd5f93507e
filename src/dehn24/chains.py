"""Finite chain complexes over Z and their homology.

A complex stores one boundary matrix per dimension, and the shapes must
chain: d_k has one row per (k-1)-cell.  Homology groups are read off the
ranks and torsion of the boundaries alone (``homology``), from one
unit-pivot reduction of the whole complex, each map then finished by
content division, with a transform-free Smith form only for a residue of
content 1 with no unit: no Smith transform, kernel basis or lattice
solve is built for them.
Generators come only from ``homology_basis``, whose cycles follow a
fixed convention (Smith form of the next boundary expressed in the
canonical kernel basis), so matrices of induced maps are reproducible
across runs and machines.  That basis is the Hermite form, read off a
spanning forest where d_k is a graph's incidence matrix (every d_1 is).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .intlinalg import (
    AbelianGroup,
    EchelonBasis,
    IntMatrix,
    _smith,
    chain_invariants,
    forest_kernel,
    kernel_basis,
)
from .record import Record


class ChainComplex(Record):
    """A bounded chain complex of finitely generated free abelian groups.

    ``boundary[k]`` maps k-chains to (k-1)-chains, so it has one row per
    column of ``boundary[k-1]``, and a mismatch is refused; ``boundary[0]``
    is the empty matrix with zero rows.  A complex holds its boundaries
    alone; where a cell came from is kept by what built it, such as a
    quotient's representatives.
    """

    boundary: tuple[IntMatrix, ...]

    def __post_init__(self):
        if not self.boundary:
            raise ValueError("a complex needs at least dimension 0")
        if self.boundary[0].rows != 0:
            raise ValueError("boundary[0] must have zero rows")
        for k in range(1, len(self.boundary)):
            if self.boundary[k].rows != self.boundary[k - 1].cols:
                raise ValueError(f"boundary[{k}] row count {self.boundary[k].rows} is not "
                                 f"dimension {k - 1}'s cell count {self.boundary[k - 1].cols}")

    @property
    def top_dim(self) -> int:
        return len(self.boundary) - 1

    def cell_count(self, k: int) -> int:
        return self.boundary[k].cols

    def boundary_or_zero(self, k: int) -> IntMatrix:
        """boundary[k], or the appropriate zero map just past the top."""
        if 0 <= k <= self.top_dim:
            return self.boundary[k]
        if k == self.top_dim + 1:
            return IntMatrix.zero(self.cell_count(self.top_dim), 0)
        raise ValueError(f"dimension {k} out of range")


def euler_characteristic(c: ChainComplex) -> int:
    """Alternating sum of cell counts."""
    return sum((-1) ** k * c.cell_count(k) for k in range(c.top_dim + 1))


class HomologyBasis(Record):
    """Canonical generating cycles for one homology group.

    Generators are ordered free part first, then torsion in increasing
    invariant-factor order.  ``cycles`` holds one generating cycle per
    column, as a chain in the underlying complex.  The canonical kernel
    basis is kept as the ``EchelonBasis`` that built the generators, so
    ``coordinates`` solves against it without reading the matrix again,
    and of the Smith transform U only the rows of the generators are kept.
    """

    group: AbelianGroup
    cycles: IntMatrix
    _kernel: EchelonBasis
    # Rows of U for the generators, and each generator's order (0 if free).
    _to_adapted: IntMatrix
    _orders: tuple[int, ...]
    _boundary: IntMatrix
    # ``_kernel`` is a function of ``_boundary``, so equality need not compare it.
    _derived = ("_kernel",)

    def coordinates(self, chain: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Coordinates of a cycle's homology class in this basis.

        Args:
            chain: a k-chain that must actually be a cycle.

        Returns:
            (free coordinates, torsion coordinates), torsion reduced into
            [0, d_i).

        Raises:
            ValueError: if the chain is not a cycle.
        """
        if any(self._boundary.apply(chain)):
            raise ValueError("chain is not a cycle")
        adapted = self._to_adapted.apply(self._kernel.solve(chain))
        free = tuple(x for x, d in zip(adapted, self._orders) if d == 0)
        torsion = tuple(x % d for x, d in zip(adapted, self._orders) if d)
        return free, torsion


@lru_cache(maxsize=64)
def homology_basis(c: ChainComplex, k: int) -> HomologyBasis:
    """Homology in dimension k together with its canonical generator cycles.

    Cached by value: complexes are immutable and repeat callers
    (peripheral matrices, one call per cusp) would otherwise redo the
    same Smith forms.

    The kernel of d_k is its Hermite basis, from ``forest_kernel`` when
    d_k is an incidence matrix (so the next boundary's coordinates are
    its rows at the pivots) and from ``kernel_basis`` otherwise.

    Raises:
        ValueError: if k is outside 0..top_dim, or a column of d_{k+1}
            is not a cycle (d_k d_{k+1} != 0), checked before either route.
    """
    if not 0 <= k <= c.top_dim:
        raise ValueError(f"dimension {k} out of range for a complex of top dimension {c.top_dim}")
    d_k = c.boundary[k]
    d_next = c.boundary_or_zero(k + 1)
    if not (d_k * d_next).is_zero():
        raise ValueError(f"boundary[{k + 1}] has a column that is not a cycle")
    cycles, pivots = forest_kernel(d_k) or (kernel_basis(d_k), None)
    kernel = EchelonBasis(cycles)
    if pivots is None:
        # Express the image of the next boundary inside the cycle lattice;
        # the kernel is saturated, so the coefficients are integers.
        image_coords = IntMatrix.from_nonzeros(
            [kernel.solve_nonzeros(col).items() for col in d_next.nonzero_columns()],
            rows=cycles.cols)
    else:
        # In the forest basis a cycle's coordinates are its pivot entries.
        image_coords = d_next.submatrix(pivots, range(d_next.cols))
    reduction = _smith(image_coords, False)
    # Per adapted-basis position, the diagonal of D: 0 marks a free
    # generator, 1 a killed one.
    orders = reduction.diagonal()
    # Generators are the free, then torsion, columns of cycles * U^-1;
    # only those columns of U^-1, and their rows of U for
    # ``coordinates``, are replayed from the reduction's log.
    kept = [i for i, d in enumerate(orders) if d == 0]
    kept += [i for i, d in enumerate(orders) if d >= 2]
    to_adapted, from_adapted = reduction.transforms(kept)
    group = AbelianGroup(
        free_rank=sum(1 for d in orders if d == 0),
        torsion=tuple(d for d in orders if d >= 2),
    )
    return HomologyBasis(
        group=group,
        cycles=cycles * from_adapted,
        _kernel=kernel,
        _to_adapted=to_adapted,
        _orders=tuple(orders[i] for i in kept),
        _boundary=d_k,
    )


@lru_cache(maxsize=8)
def _boundary_invariants(boundary: tuple[IntMatrix, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Rank and torsion of d_0..d_{n+1}, from one reduction of d_1..d_n.

    Keyed on the boundary tuple, whose matrices cache their own hash, so
    every degree of one complex shares the reduction.  d_0 and the zero
    map past the top have rank 0.
    """
    return ((0, ()),) + chain_invariants(boundary[1:]) + ((0, ()),)


def homology(c: ChainComplex, k: int) -> AbelianGroup:
    """H_k(c; Z) in invariant-factor form, from ranks and torsion alone.

    H_k is Z^(n_k - rank d_k - rank d_{k+1}) plus the torsion of
    d_{k+1}.  Both come from one unit-pivot reduction of the whole
    complex, finished per map by content division
    (``chain_invariants``), shared by every degree.  For generator
    cycles use ``homology_basis``.

    Raises:
        ValueError: if k is outside 0..top_dim.
    """
    if not 0 <= k <= c.top_dim:
        raise ValueError(f"dimension {k} out of range for a complex of top dimension {c.top_dim}")
    invariants = _boundary_invariants(c.boundary)
    rank_next, torsion = invariants[k + 1]
    return AbelianGroup(
        free_rank=c.cell_count(k) - invariants[k][0] - rank_next,
        torsion=torsion,
    )
