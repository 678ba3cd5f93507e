"""Cusp cross sections and their abelianized peripheral maps.

The boundary of a glued-up truncated polytope is a disjoint union of
flat 3-manifolds, one per ideal vertex cycle.  This module carves those
components out of a quotient complex as honest subcomplexes, computes
the map H_1(section) -> H_1(ambient) induced by inclusion, and builds
adapted bases (kappa_1, kappa_2, kappa_3) of each section's H_1 in
which the inclusion has the simplest possible shape: kappa_1 maps to a
primitive class epsilon_i and kappa_2, kappa_3 span the kernel.  Dehn
filling homology then reduces to a small cokernel (see filling).
"""

from __future__ import annotations

from functools import lru_cache

from .chains import ChainComplex, homology_basis
from .gluing import QuotientComplex, geometry, vertex_cycles
from .intlinalg import AbelianGroup, IntMatrix, generates, hermite_graph, is_primitive
from .polytope import cusp_vertex
from .record import Record

Vector = tuple[int, ...]
AdaptedBasis = tuple[Vector, Vector, Vector]


class PeripheralError(ValueError):
    """A quotient complex fails a hypothesis of the peripheral setup."""


class CuspSection(Record, eq=False):
    """One boundary component of a quotient complex.

    ``cells[k]`` lists the ambient quotient cell indices forming the
    section in dimension k and is the inclusion: section k-cell j is
    ambient k-cell ``cells[k][j]``.  ``chain`` is the section's own
    complex, the ambient boundaries restricted to these cells.
    ``cube_count`` is the number of top-dimensional (cubical) cells,
    which equals the section's covolume in units of a cross-section
    cube.  ``ambient`` keeps the quotient complex the section was carved
    from, so geometric consumers can reach the side-pairing maps behind
    each cell identification.
    """

    index: int
    cells: tuple[tuple[int, ...], ...]
    chain: ChainComplex
    cube_count: int
    ambient: QuotientComplex


@lru_cache(maxsize=8)
def cusp_sections(q: QuotientComplex) -> tuple[CuspSection, ...]:
    """The boundary subcomplex split by ideal vertex cycle, in cusp order.

    A cell whose representative (copy, cell) has the geometry label
    ``origin`` lies over the cusp of the ideal vertex
    v = ``cusp_vertex(origin)``, if any, and pairings keep v in its vertex
    cycle, so the cell goes to the cycle holding v (or (copy, v) on two
    copies).  Sections come in the cycles' canonical order (cycles sorted
    by size then smallest member), so the short unit-vector cycles come
    first and the large half-integer cycle last.  A face of a cell
    truncating v truncates v too, so each section is closed under faces
    and its boundaries are plain restrictions of the ambient ones.

    Raises:
        PeripheralError: if some vertex cycle gets no boundary cube,
            which would mean the complex was not built by the gluing
            module's conventions (or has no boundary at all).
    """
    bdim = q.top_dim - 1
    cycles = vertex_cycles(q.spec)
    cusp_of = {v: ci for ci, cycle in enumerate(cycles) for v in cycle}
    labels = geometry(q.spec.geometry).labels
    by_cycle: list[list[list[int]]] = [[[] for _ in range(bdim + 1)] for _ in cycles]
    for k in range(bdim + 1):
        for i, (copy, idx) in enumerate(q.representatives[k]):
            v = cusp_vertex(labels[k][idx])
            if v is not None:
                by_cycle[cusp_of[v if q.spec.copies == 1 else (copy, v)]][k].append(i)
    covered = sum(1 for comp in by_cycle if comp[bdim])
    if covered != len(cycles):
        raise PeripheralError(
            f"boundary components do not match the ideal vertex cycles: "
            f"{covered} components for {len(cycles)} cycles")

    sections = []
    for ci, comp in enumerate(by_cycle):
        cells = tuple(map(tuple, comp))
        boundaries = [IntMatrix.zero(0, len(cells[0]))]
        boundaries += [q.chain.boundary[k].submatrix(cells[k - 1], cells[k])
                       for k in range(1, bdim + 1)]
        sections.append(CuspSection(
            index=ci,
            cells=cells,
            chain=ChainComplex(boundary=tuple(boundaries)),
            cube_count=len(cells[bdim]),
            ambient=q,
        ))
    return tuple(sections)


def peripheral_matrix(q: QuotientComplex, i: int) -> IntMatrix:
    """Matrix of the inclusion-induced map H_1(section i) -> H_1(ambient).

    Columns run over the canonical free generators of the section's H_1,
    rows over the ambient's.  Torsion on either side is unsupported: the
    downstream adapted-basis procedure needs a 3-torus section inside an
    ambient complex with free H_1.

    Raises:
        PeripheralError: cusp index out of range, or torsion present.
    """
    sections = cusp_sections(q)
    if not 0 <= i < len(sections):
        raise PeripheralError(f"cusp index {i} out of range: {len(sections)} cusps")
    source = homology_basis(sections[i].chain, 1)
    target = homology_basis(q.chain, 1)
    if source.group.torsion:
        raise PeripheralError(
            f"cusp {i + 1} section has H_1 = {source.group}; adapted bases need a "
            f"torsion-free section (a 3-torus cross section)")
    if target.group.torsion:
        raise PeripheralError(
            f"ambient H_1 = {target.group} has torsion; peripheral matrices "
            f"are defined against a free ambient H_1")
    columns = []
    for cycle in source.cycles.columns():
        lifted = [0] * q.chain.cell_count(1)
        for a, x in zip(sections[i].cells[1], cycle):
            lifted[a] = x
        columns.append(target.coordinates(lifted)[0])
    return IntMatrix.from_columns(columns, rows=target.group.free_rank)


def adapted_basis(matrix: IntMatrix) -> AdaptedBasis:
    """A basis (kappa_1, kappa_2, kappa_3) of Z^3 adapted to the map.

    All three come from one ``hermite_graph``: kappa_2 and kappa_3 are
    the canonical kernel basis, and kappa_1 is the canonical preimage of
    the image's generator epsilon (leading entry positive), so equal
    matrices give equal bases and kappa_1 completes the kernel.

    Raises:
        PeripheralError: if the kernel rank is not 2 or the image is not
            a direct summand (both required by the surgery step).
    """
    if matrix.cols != 3:
        raise PeripheralError(f"peripheral matrix must have 3 columns, has {matrix.cols}")
    image, preimage, ker = hermite_graph(matrix)
    if ker.cols != 2:
        raise PeripheralError(
            f"kernel rank {ker.cols} != 2: the surgery procedure needs a rank-1 "
            f"peripheral image")
    if not is_primitive(image.column(0)):
        raise PeripheralError("peripheral image is not a direct summand of the "
                              "ambient H_1; no adapted basis exists")
    basis = (preimage.column(0), ker.column(0), ker.column(1))
    assert IntMatrix.from_columns(basis, rows=3).det() in (1, -1)
    return basis


def slope(basis: AdaptedBasis, b: int, c: int) -> Vector:
    """The filling class kappa_1 + b kappa_2 + c kappa_3.

    Always primitive: it extends the kernel pair to a basis of Z^3 with
    the same determinant as the adapted basis itself.
    """
    k1, k2, k3 = basis
    return tuple(x + b * y + c * z for x, y, z in zip(k1, k2, k3))


class PeripheralSystem(Record):
    """The full peripheral package of a quotient with torus cusps.

    ``matrices[i]`` is the inclusion-induced map of cusp i in canonical
    H_1 coordinates, ``bases[i]`` its adapted basis and ``epsilons[i]``
    the image of kappa_1, a primitive ambient class.  The epsilons are
    checked to generate the ambient H_1.
    """

    ambient_h1: AbelianGroup
    matrices: tuple[IntMatrix, ...]
    bases: tuple[AdaptedBasis, ...]
    epsilons: tuple[Vector, ...]
    cube_counts: tuple[int, ...]
    section_h1: tuple[AbelianGroup, ...]

    @property
    def cusp_count(self) -> int:
        return len(self.matrices)


def peripheral_system(q: QuotientComplex) -> PeripheralSystem:
    """Compute matrices, adapted bases and epsilon classes for all cusps.

    Raises:
        PeripheralError: on torsion anywhere, a cusp of the wrong rank,
            or epsilon classes failing to generate the ambient H_1.
    """
    sections = cusp_sections(q)
    # Groups come from the generator path that the peripheral matrices
    # build anyway, so the group-only reduction never runs.
    ambient = homology_basis(q.chain, 1).group
    if ambient.torsion:
        raise PeripheralError(
            f"ambient H_1 = {ambient} has torsion; the peripheral system needs "
            f"free ambient H_1 (pass the orientation double cover)")
    matrices, bases, epsilons, section_groups = [], [], [], []
    for i, section in enumerate(sections):
        matrix = peripheral_matrix(q, i)
        basis = adapted_basis(matrix)
        matrices.append(matrix)
        bases.append(basis)
        epsilons.append(matrix.apply(basis[0]))
        section_groups.append(homology_basis(section.chain, 1).group)
    if not generates(epsilons, ambient.free_rank):
        raise PeripheralError("the adapted classes' images do not generate the "
                              "ambient H_1")
    return PeripheralSystem(
        ambient_h1=ambient,
        matrices=tuple(matrices),
        bases=tuple(bases),
        epsilons=tuple(epsilons),
        cube_counts=tuple(s.cube_count for s in sections),
        section_h1=tuple(section_groups),
    )


def report(system: PeripheralSystem) -> str:
    """Stable text rendering of the system, suitable for golden files."""
    lines = [f"ambient H1 = {system.ambient_h1}"]
    for i in range(system.cusp_count):
        lines.append(f"cusp {i + 1}: cubes {system.cube_counts[i]}, "
                     f"section H1 = {system.section_h1[i]}")
        matrix = system.matrices[i]
        for r in range(matrix.rows):
            lines.append("  L " + " ".join(f"{x:3d}" for x in matrix.row(r)))
        for name, vec in zip(("kappa1", "kappa2", "kappa3"), system.bases[i]):
            lines.append(f"  {name} = ({', '.join(str(x) for x in vec)})")
        lines.append(f"  epsilon = ({', '.join(str(x) for x in system.epsilons[i])})")
    return "\n".join(lines) + "\n"
