"""Homology of Dehn fillings and the homology-sphere predicate.

Filling a torus cusp kills the image of the chosen slope class in the
ambient first homology, so for a manifold with free H_1 the filled
H_1 is a cokernel of one small integer matrix (one column per filled
cusp).  The higher groups of the filled manifold follow from duality
and the Euler characteristic rather than from a new cell structure: an
orientable filling with trivial H_1 has H_3 = 0, and chi = 2 then
forces H_2 = 0.  The Alexander-duality formula for complements of
disjoint 2-tori in the 4-sphere is included as an independent
cross-check on the ambient homology.
"""

from __future__ import annotations

from collections.abc import Sequence

from .intlinalg import AbelianGroup, IntMatrix, cokernel, is_primitive
from .peripheral import PeripheralSystem, Vector, slope
from .record import Record


class FillingError(ValueError):
    """A filling request violates a hypothesis of the surgery argument."""


class FillingSlopes(Record):
    """One primitive slope class per cusp, in the section H_1 bases."""

    classes: tuple[Vector, ...]

    def __init__(self, classes: tuple[Vector, ...]):
        # One is built per enumerated record, so the field is bound here.
        for i, v in enumerate(classes):
            if not any(v):
                raise FillingError(f"slope {i + 1} is zero")
            if not is_primitive(v):
                raise FillingError(f"slope {i + 1} = {v} is not primitive")
        self.__dict__["classes"] = classes


def adapted_slopes(system: PeripheralSystem,
                   coefficients: Sequence[tuple[int, int]]) -> FillingSlopes:
    """Slopes kappa_1 + b kappa_2 + c kappa_3 from (b, c) pairs per cusp."""
    if len(coefficients) != system.cusp_count:
        raise FillingError(f"need {system.cusp_count} coefficient pairs, "
                           f"got {len(coefficients)}")
    return FillingSlopes(tuple(
        slope(system.bases[i], b, c) for i, (b, c) in enumerate(coefficients)))


def h1_filled(system: PeripheralSystem, slopes: FillingSlopes) -> AbelianGroup:
    """First homology after filling every cusp along the given slopes.

    Computed as the cokernel of the matrix whose columns are the images
    of the slope classes under the peripheral maps.

    Raises:
        FillingError: wrong number of slopes.
    """
    if len(slopes.classes) != system.cusp_count:
        raise FillingError(f"need {system.cusp_count} slopes, got {len(slopes.classes)}")
    columns = [system.matrices[i].apply(v) for i, v in enumerate(slopes.classes)]
    return cokernel(IntMatrix.from_columns(columns,
                                           rows=system.ambient_h1.free_rank))


class FillingResult(Record):
    """Outcome of one filling, with the derivation spelled out.

    ``notes`` records which steps of the argument fired, in order, so a
    report can show why the verdict holds.
    """

    h1: AbelianGroup
    chi: int
    is_homology_sphere: bool
    notes: tuple[str, ...]

    def __post_init__(self):
        if self.is_homology_sphere and not (self.h1.is_trivial() and self.chi == 2):
            raise ValueError("sphere flag contradicts the recorded invariants")


def is_homology_sphere(system: PeripheralSystem, slopes: FillingSlopes,
                       chi: int, orientable: bool) -> FillingResult:
    """Decide whether the filled manifold has the homology of the 4-sphere.

    ``chi`` and ``orientable`` must come from the ambient complex's own
    computed invariants; the duality steps of the argument are only
    valid in the orientable case.

    Raises:
        FillingError: if the ambient manifold is not orientable.
    """
    if not orientable:
        raise FillingError("the homology-sphere argument needs an orientable "
                           "manifold; fill the orientation double cover")
    h1 = h1_filled(system, slopes)
    notes = []
    if h1.is_trivial():
        notes.append("H1 = 0: the slope images generate the ambient H1")
    else:
        notes.append(f"H1 = {h1}: the slope images do not generate the ambient H1")
    notes.append(f"chi = {chi} is unchanged by filling (each attached piece has chi 0)")
    verdict = h1.is_trivial() and chi == 2
    if verdict:
        notes.append("orientable with H1 = 0, so H3 = 0 by Poincare duality")
        notes.append("chi = 2 with H0 = Z, H1 = H3 = 0 and H4 = Z forces H2 = 0")
        notes.append("all reduced homology vanishes except the fundamental class")
    elif chi != 2:
        notes.append(f"chi = {chi} != 2 rules out the homology of the 4-sphere")
    return FillingResult(h1=h1, chi=chi, is_homology_sphere=verdict,
                         notes=tuple(notes))


def alexander_complement_homology(k: int) -> tuple[AbelianGroup, AbelianGroup, AbelianGroup]:
    """(H_1, H_2, H_3) of the complement of k disjoint 2-tori in S^4.

    Alexander duality gives reduced H_i of the complement as reduced
    H^(3-i) of the k tori, so (Z^k, Z^2k, Z^(k-1)) for k >= 1 and the
    trivial triple for k = 0.

    Raises:
        ValueError: if k is negative.
    """
    if k < 0:
        raise ValueError("component count must be nonnegative")
    if k == 0:
        return (AbelianGroup(0), AbelianGroup(0), AbelianGroup(0))
    return (AbelianGroup(k), AbelianGroup(2 * k), AbelianGroup(k - 1))
