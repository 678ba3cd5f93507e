"""Side-pairings of a polytope and their quotient CW complexes.

A side-pairing matches the facets of a polytope in pairs, each pairing
carrying a vertex bijection of the glued facets.  This module ingests
such pairings, builds the quotient CW complex with exact integer boundary
matrices (propagating cell orientations through every identification),
computes ideal-vertex cycles, the orientation character, the orientation
double cover on two polytope copies, and the fundamental-polyhedron group
presentation with one relator per ridge cycle.

The main polytope is the truncated regular ideal 24-cell from
:mod:`dehn24.polytope`; pairings there are given on the six ideal
vertices of each octahedral facet and extended to the truncated cells.
A square and a cube are provided as low-dimensional geometries so the
identical machinery can be exercised on torus and Klein-bottle gluings.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, product
from operator import index, itemgetter
from pathlib import Path
from types import MappingProxyType

from .chains import ChainComplex
from .intlinalg import AbelianGroup, IntMatrix, cokernel_of_rows
from .record import Record

class GluingError(ValueError):
    """A side-pairing cannot be interpreted as requested."""


class PairingError(GluingError):
    """A pairing file or spec fails validation."""


class Pairing(Record):
    """One glued facet pair with its vertex bijection.

    ``vertex_map`` sends vertices of ``facet_a`` to vertices of
    ``facet_b``; the record also implicitly provides the inverse gluing
    from ``facet_b`` back.  Copy indices only matter for two-copy
    (double-cover) specs.  Every index is read with ``operator.index``,
    so 1.5 or 0.0 raises TypeError when the record is built.
    """

    facet_a: int
    facet_b: int
    vertex_map: tuple[tuple[int, int], ...]
    copy_a: int
    copy_b: int

    def __init__(self, facet_a: int, facet_b: int, vertex_map, copy_a: int = 0,
                 copy_b: int = 0):
        # The search builds 12 per leaf, so the fields are bound here.
        self.__dict__.update(facet_a=index(facet_a), facet_b=index(facet_b),
                             vertex_map=tuple([(index(v), index(w)) for v, w in vertex_map]),
                             copy_a=index(copy_a), copy_b=index(copy_b))

    def forward(self) -> dict[int, int]:
        return dict(self.vertex_map)

    def backward(self) -> dict[int, int]:
        return {w: v for v, w in self.vertex_map}

    def is_self_pairing(self) -> bool:
        return (self.copy_a, self.facet_a) == (self.copy_b, self.facet_b)


class SidePairingSpec(Record):
    """A full side-pairing: a perfect matching of all facet slots.

    ``copies`` is 1 for a plain quotient, 2 for a double-cover spec whose
    pairings reference (copy, facet) slots; it is read with
    ``operator.index``.  Building a spec validates it (see
    ``validate_spec``), so an invalid spec cannot be built.
    """

    pairings: tuple[Pairing, ...]
    geometry: str = "ideal24"
    copies: int = 1
    metadata: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "copies", index(self.copies))
        validate_spec(self)

    def metadata_dict(self) -> dict[str, str]:
        return dict(self.metadata)


# ---------------------------------------------------------------------------
# Solid polytopes as regular CW complexes with exact boundary chains.


class CellModel(Record, eq=False):
    """A solid convex polytope with boundary chains for every cell.

    ``cells[k]`` lists k-cells as sorted vertex tuples; the last dimension
    holds the single body cell.  ``boundary_entries[k][i]`` is the sparse
    boundary chain of cell i as ((subcell index, coefficient), ...); the
    orientation convention is the fundamental cycle of each cell's
    boundary sphere, normalized to +1 on its least subcell.
    """

    dim: int
    cells: tuple[tuple[tuple[int, ...], ...], ...]
    boundary_entries: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    cell_index: tuple[dict[tuple[int, ...], int], ...]

    def index_of(self, dim: int, vertices) -> int:
        key = tuple(sorted(vertices))
        try:
            return self.cell_index[dim][key]
        except KeyError:
            raise GluingError(f"no {dim}-cell with vertex set {list(key)}") from None

    def body_facet_coefficients(self) -> dict[int, int]:
        """Coefficient of each facet in the body cell's boundary cycle."""
        return dict(self.boundary_entries[self.dim][0])


def build_cell_model(faces_by_dim) -> CellModel:
    """Compute boundary chains for a polytope given its face lists.

    Args:
        faces_by_dim: per dimension 0..D, the faces as sorted vertex
            tuples; dimension D must hold exactly the body cell.

    Subfaces are recognized by vertex-set containment, which is exact for
    faces of a convex polytope; only the (k-1)-faces whose first vertex
    lies in a k-cell are tested.  Each cell's boundary is the fundamental
    cycle of its boundary sphere, found by one walk over the ridges its
    subfaces share (see ``_sphere_cycle``); this keeps every orientation
    choice deterministic without any coordinate geometry.
    """
    dim = len(faces_by_dim) - 1
    cells = tuple(tuple(tuple(f) for f in faces_by_dim[k]) for k in range(dim + 1))
    index = tuple({f: i for i, f in enumerate(cells[k])} for k in range(dim + 1))
    boundary: list[tuple[tuple[tuple[int, int], ...], ...]] = [tuple(() for _ in cells[0])]

    if dim >= 1:
        boundary.append(tuple(((index[0][(a,)], -1), (index[0][(b,)], 1))
                              for a, b in cells[1]))
    for k in range(2, dim + 1):
        previous = boundary[k - 1]
        # A subface's first vertex lies in the cell, so each subface is
        # listed under exactly one vertex of the cell.
        faces_at: dict[int, list[int]] = {}
        for i, f in enumerate(cells[k - 1]):
            faces_at.setdefault(f[0], []).append(i)
        level = []
        for cell in cells[k]:
            members = set(cell)
            subs = sorted(i for v in cell for i in faces_at.get(v, ())
                          if members.issuperset(cells[k - 1][i]))
            level.append(_sphere_cycle(k, subs, previous))
        boundary.append(tuple(level))

    return CellModel(dim=dim, cells=cells, boundary_entries=tuple(boundary), cell_index=index)


def _sphere_cycle(k: int, subs: list[int], previous) -> tuple[tuple[int, int], ...]:
    """The fundamental cycle of a k-cell's boundary sphere, +1 on ``subs[0]``.

    ``subs`` are the cell's (k-1)-faces in increasing order and
    ``previous[s]`` the boundary chain of face s.  On a sphere every ridge
    lies in exactly two faces s and t, with coefficients a and b, and the
    cycle cancels it: c_t = -a * b * c_s.  One walk from ``subs[0]``
    across the shared ridges fixes every coefficient.

    Raises:
        GluingError: if a ridge lies in a number of faces other than two,
            the walk reaches a face with both signs, or misses a face (not
            a sphere cycle); or if a coefficient is not +-1 (degenerate).
    """
    faces_of: dict[int, list[tuple[int, int]]] = {}
    for s in subs:
        for r, a in previous[s]:
            if a not in (1, -1):
                raise GluingError(f"degenerate fundamental cycle on a {k}-cell")
            faces_of.setdefault(r, []).append((s, a))
    if not subs or any(len(faces) != 2 for faces in faces_of.values()):
        raise GluingError(f"boundary of a {k}-cell is not a sphere cycle")
    coeffs = {subs[0]: 1}
    stack = [subs[0]]
    while stack:
        s = stack.pop()
        for r, a in previous[s]:
            (s1, a1), (s2, a2) = faces_of[r]
            t, b = (s2, a2) if s1 == s else (s1, a1)
            c = -a * b * coeffs[s]
            if t not in coeffs:
                coeffs[t] = c
                stack.append(t)
            elif coeffs[t] != c:
                raise GluingError(f"boundary of a {k}-cell is not a sphere cycle")
    if len(coeffs) != len(subs):
        raise GluingError(f"boundary of a {k}-cell is not a sphere cycle")
    return tuple((s, coeffs[s]) for s in subs)


# ---------------------------------------------------------------------------
# Geometries: which polytope a spec refers to, and how spec-level facet
# bijections act on the model cells.


class Geometry(Record, eq=False):
    """Binding between spec-level facets and a concrete cell model."""

    name: str
    model: CellModel
    spec_vertex_count: int
    facet_vertices: tuple[tuple[int, ...], ...]
    model_facet: tuple[int, ...]
    labels: tuple[tuple[tuple[object, ...], ...], ...]
    extend_map: "callable"

    @property
    def facet_count(self) -> int:
        return len(self.facet_vertices)

    @cached_property
    def ridge_facets(self) -> dict[int, tuple[int, int]]:
        """Each model ridge shared by two spec facets, with those facets in
        order; the ridges in increasing order."""
        incident: dict[int, list[int]] = {}
        for f in sorted(self.model_facet):
            for r, _ in self.model.boundary_entries[self.model.dim - 1][f]:
                incident.setdefault(r, []).append(f)
        return {r: tuple(fs) for r, fs in sorted(incident.items()) if len(fs) == 2}

    @cached_property
    def ridge_partner(self) -> dict[int, dict[int, int]]:
        """Per model facet: each of its ridges in ``ridge_facets`` and that ridge's other facet."""
        partner: dict[int, dict[int, int]] = {f: {} for f in self.model_facet}
        for r, (a, b) in self.ridge_facets.items():
            partner[a][r], partner[b][r] = b, a
        return partner


@lru_cache(maxsize=None)
def geometry(name: str) -> Geometry:
    if name == "ideal24":
        return _ideal24_geometry()
    if name == "square":
        return _closed_geometry(name, _square_faces())
    if name == "cube":
        return _closed_geometry(name, _cube_faces())
    raise GluingError(f"unknown geometry {name!r}")


def _ideal24_geometry() -> Geometry:
    from .polytope import build_24cell, truncate

    base = build_24cell()
    trunc = truncate()
    model = build_cell_model(trunc.faces)

    edges = base.faces[1]
    model_facet = tuple(trunc.troct_facet(o) for o in range(24))

    edge_index = {frozenset(e): i for i, e in enumerate(edges)}

    def extend(facet_a: int, facet_b: int, phi: dict[int, int]) -> dict[int, int]:
        # Flags run in (vertex, edge) order, so the first refused edge is
        # the least one; once edges map to edges, so do the triangles.
        mapping = {}
        for flag in trunc.faces[3][model_facet[facet_a]]:
            v, e = trunc.flags[flag]
            image = frozenset(phi[w] for w in edges[e])
            if image not in edge_index:
                raise PairingError(
                    f"bijection sends face {list(edges[e])} of facet {facet_a} "
                    f"to the non-face {sorted(image)} of facet {facet_b}")
            mapping[flag] = trunc.flag_index(phi[v], edge_index[image])
        return mapping

    return Geometry(
        name="ideal24",
        model=model,
        spec_vertex_count=24,
        facet_vertices=base.faces[3],
        model_facet=model_facet,
        labels=trunc.provenance,
        extend_map=extend,
    )


def _closed_geometry(name: str, faces) -> Geometry:
    """A small untruncated polytope for test gluings.

    Spec facets are the model's own facets, pairings act on the model's
    vertex labels directly, and no cell lies in a manifold boundary.
    """
    top = len(faces) - 1
    facets = faces[top - 1]
    return Geometry(
        name=name,
        model=build_cell_model(faces),
        spec_vertex_count=len(faces[0]),
        facet_vertices=facets,
        model_facet=tuple(range(len(facets))),
        labels=tuple(tuple(("cell", k, i) for i in range(len(faces[k])))
                     for k in range(top + 1)),
        extend_map=lambda facet_a, facet_b, forward: forward,
    )


def _square_faces():
    return (
        ((0,), (1,), (2,), (3,)),
        ((0, 1), (0, 3), (1, 2), (2, 3)),
        ((0, 1, 2, 3),),
    )


def _cube_faces():
    # Vertex i has binary coordinates (i & 1, (i >> 1) & 1, (i >> 2) & 1).
    edges = tuple(sorted((i, i ^ bit) for i in range(8) for bit in (1, 2, 4) if i < i ^ bit))
    squares = tuple(sorted(tuple(i for i in range(8) if (i & axis) == value)
                           for axis in (1, 2, 4) for value in (0, axis)))
    return tuple((i,) for i in range(8)), edges, squares, (tuple(range(8)),)


# ---------------------------------------------------------------------------
# Validation and the pairing file format.


def validate_spec(spec: SidePairingSpec) -> None:
    """Check matching and facet-isomorphism conditions; raise PairingError.

    Every ``SidePairingSpec`` runs this when it is built.
    """
    geo = geometry(spec.geometry)
    if spec.copies not in (1, 2):
        raise PairingError("copies must be 1 or 2")
    seen: set[tuple[int, int]] = set()
    for p in spec.pairings:
        for copy, facet in ((p.copy_a, p.facet_a), (p.copy_b, p.facet_b)):
            if not 0 <= facet < geo.facet_count:
                raise PairingError(f"facet index {_excerpt(facet)} out of range")
            if not 0 <= copy < spec.copies:
                raise PairingError(f"copy index {_excerpt(copy)} out of range")
        slots = {(p.copy_a, p.facet_a), (p.copy_b, p.facet_b)}
        if slots & seen:
            raise PairingError(
                f"facet {tuple(sorted(slots & seen))[0]} appears in more than one pairing")
        seen |= slots
        if p.is_self_pairing() and all(v == w for v, w in p.forward().items()):
            # Nontrivial self-maps are caught at quotient time; the identity
            # would silently glue nothing, so refuse it here.
            raise PairingError(f"facet {p.facet_a} glued to itself pointwise")
        _pairing_action(spec.geometry, p.facet_a, p.facet_b, p.vertex_map)
    expected = spec.copies * geo.facet_count
    if len(seen) != expected:
        missing = [(c, f) for c in range(spec.copies) for f in range(geo.facet_count)
                   if (c, f) not in seen]
        raise PairingError(f"facets left unpaired: {missing[:4]}{'...' if len(missing) > 4 else ''}")


def census_pairing() -> SidePairingSpec:
    """The bundled side-pairing of census manifold 1011 (code 14FF28)."""
    path = Path(__file__).parent / "data" / "pairing_1011.txt"
    return parse_pairing(path.read_text("utf-8"))


def _excerpt(value: object) -> str:
    """``value`` for an error line, cut after its first 40 characters: text
    quoted, anything else (such as an index or a list) written out bare."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else repr(value[:40]) + "..."
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def parse_pairing(text: str) -> SidePairingSpec:
    """Parse a pairing file into a validated spec (24-cell geometry).

    Format: optional `key: value` metadata lines, `#` comments, then one
    record per pairing: ``facet_a facet_b ; v1->w1 ... v6->w6`` with the
    canonical facet and vertex indices of the 24-cell's face lattice.
    """
    metadata: list[tuple[str, str]] = []
    pairings: list[Pairing] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ";" not in line and ":" in line:
            key, value = line.split(":", 1)
            metadata.append((key.strip(), value.strip()))
            continue
        try:
            head, _, tail = line.partition(";")
            facet_a, facet_b = map(int, head.split())
            assignments = []
            for token in tail.split():
                v_str, _, w_str = token.partition("->")
                assignments.append((int(v_str), int(w_str)))
        except ValueError:
            raise PairingError(f"line {lineno}: cannot parse pairing record "
                               f"{_excerpt(line)}") from None
        if len(assignments) != 6:
            raise PairingError(f"line {lineno}: expected 6 vertex assignments, "
                               f"got {len(assignments)}")
        pairings.append(Pairing(facet_a=facet_a, facet_b=facet_b,
                                vertex_map=tuple(sorted(assignments))))
    return SidePairingSpec(pairings=tuple(pairings), geometry="ideal24",
                           metadata=tuple(metadata))


# ---------------------------------------------------------------------------
# Vertex cycles.


def vertex_cycles(spec: SidePairingSpec):
    """Orbits of the polytope vertices under all pairing bijections.

    Returns a canonical partition: every cycle sorted, cycles ordered by
    (size, first member).  For a single-copy spec the members are vertex
    indices; for a two-copy spec they are (copy, vertex) pairs.
    """
    n = geometry(spec.geometry).spec_vertex_count
    # Keys copy * n + v run in (copy, vertex) order, so every class below
    # lists its members sorted.
    roots = _least_members(spec.copies * n, ((p.copy_a * n + v, p.copy_b * n + w)
                                             for p in spec.pairings for v, w in p.vertex_map))
    groups: dict[int, list[int]] = {}
    for key, root in enumerate(roots):
        groups.setdefault(root, []).append(key)
    cycles = sorted(groups.values(), key=lambda g: (len(g), g[0]))
    if spec.copies == 1:
        return tuple(map(tuple, cycles))
    return tuple(tuple(divmod(key, n) for key in g) for g in cycles)


def _least_members(size: int, joins) -> list[int]:
    """Union-find on keys 0..size-1 joined in pairs: each key's least class member."""
    # A key's parent is never larger than the key, so the final pass, run
    # upward, finds each parent's root already in place.
    parent = list(range(size))
    for a, b in joins:
        while a != parent[a]:
            a = parent[a]
        while b != parent[b]:
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for x in range(size):
        parent[x] = parent[parent[x]]
    return parent


# ---------------------------------------------------------------------------
# Orientation bookkeeping.  A model cell is oriented by its boundary chain,
# the fundamental cycle that is +1 on its least subcell.  A pairing sends
# each face of its facet to a face, so it carries a cell's cycle to plus or
# minus its image's, and the subcell sent to the image's least subcell
# tells which.


@lru_cache(maxsize=1024)
def _pairing_action(name: str, facet_a: int, facet_b: int,
                    vertex_map: tuple[tuple[int, int], ...]):
    """One side-pairing's vertex map on the model: ``(ridges, links)``.

    ``links[dim]`` lists ``(cell, image, sign, forward, backward)`` for
    every model cell of ``facet_a`` in that dimension, in increasing
    order: its image cell and orientation sign, and two
    ``operator.itemgetter``s on vertex positions.  ``forward`` carries a
    tuple over the cell's vertex positions to one over the image's,
    reading image position j from the cell position of the vertex sent
    there; ``backward`` carries it back.  A vertex has the one position
    0, so dimension-0 links carry None for both.  ``ridges`` is the ridge
    map and that map's inverse.  Copy indices play no part, so both
    copies of a double cover share one cache entry.  A map whose domain
    or image is not its facet's vertex set, or that sends a face to a
    non-face, raises PairingError.

    The closure of ``facet_a`` is collected downward and resolved upward,
    so each cell's sign reads the signs of its subcells' images.
    """
    geo = geometry(name)
    model, entries = geo.model, geo.model.boundary_entries
    forward = dict(vertex_map)
    if sorted(forward) != sorted(geo.facet_vertices[facet_a]):
        raise PairingError(f"bijection domain {_excerpt(sorted(forward))} is not "
                           f"facet {facet_a}'s vertex set")
    if sorted(forward.values()) != sorted(geo.facet_vertices[facet_b]):
        raise PairingError(f"bijection image is not facet {facet_b}'s vertex set")
    mapping = geo.extend_map(facet_a, facet_b, forward)
    closure = [{geo.model_facet[facet_a]}]
    for k in range(model.dim - 1, 0, -1):
        closure.insert(0, {sub for cell in closure[0] for sub, _ in entries[k][cell]})
    links: tuple[list, ...] = tuple([] for _ in range(model.dim + 1))
    below: dict[int, tuple[int, int]] = {}
    for k, level in enumerate(closure):
        for cell in sorted(level):
            sent = [mapping[v] for v in model.cells[k][cell]]
            try:
                target = model.index_of(k, sent)
            except GluingError as error:
                raise PairingError(f"bijection sends facet {facet_a} to a non-face of "
                                   f"facet {facet_b}: {error}") from None
            if not k:
                links[0].append((cell, target, 1, None, None))
                continue
            least, unit = min(entries[k][target])
            sign = next(coeff * below[sub][1] * unit for sub, coeff in entries[k][cell]
                        if below[sub][0] == least)
            backward = list(map(model.cells[k][target].index, sent))
            # A permutation of two positions is its own inverse.
            forward = backward if len(backward) < 3 else sorted(
                range(len(backward)), key=backward.__getitem__)
            links[k].append((cell, target, sign, itemgetter(*forward), itemgetter(*backward)))
        below = {cell: (image, sign) for cell, image, sign, _, _ in links[k]}
    ridges = {cell: target for cell, target, *_ in links[model.dim - 2]}
    ridges = tuple(map(MappingProxyType, (ridges, {t: r for r, t in ridges.items()})))
    return ridges, tuple(map(tuple, links))


class OrientationCharacter(Record):
    """Orientation behavior of each side-pairing generator.

    ``signs[i]`` is +1 iff pairing i extends to an orientation-preserving
    map of the polytope across the glued facet; the quotient is
    orientable iff consistent polytope orientations exist, in which case
    every sign is +1.
    """

    signs: tuple[int, ...]
    orientable: bool


def _facet_gluing_signs(spec: SidePairingSpec) -> list[int]:
    """Per pairing: sign relating fixed per-copy orientations across the glue.

    Computed as -(omega_a * omega_b * facet map sign), where omega is the
    coefficient of each facet in the body cell's fundamental boundary
    cycle: two cells glued along a facet induce opposite boundary
    orientations on it exactly when the gluing respects orientation.
    """
    geo = geometry(spec.geometry)
    model = geo.model
    omega = model.body_facet_coefficients()
    signs = []
    for p in spec.pairings:
        links = _pairing_action(spec.geometry, p.facet_a, p.facet_b, p.vertex_map)[1]
        fa, fb = geo.model_facet[p.facet_a], geo.model_facet[p.facet_b]
        [(source, target, sign, _, _)] = links[model.dim - 1]
        assert (source, target) == (fa, fb)
        signs.append(-omega[fa] * omega[fb] * sign)
    return signs


def orientation_character(spec: SidePairingSpec) -> OrientationCharacter:
    """Orientation sign per generator and orientability of the quotient."""
    signs = _facet_gluing_signs(spec)
    # The quotient is orientable iff the polytope copies admit +-1 labels
    # with label_a * label_b = sign for every pairing.  Copy 0 is +1 and
    # copy 1 follows the first pairing that crosses between the copies.
    crossing = (sign for p, sign in zip(spec.pairings, signs) if p.copy_a != p.copy_b)
    label = (1, next(crossing, 1))
    orientable = all(label[p.copy_a] * label[p.copy_b] == sign
                     for p, sign in zip(spec.pairings, signs))
    reported = tuple(1 for _ in signs) if orientable else tuple(signs)
    return OrientationCharacter(signs=reported, orientable=orientable)


def double_cover(spec: SidePairingSpec) -> SidePairingSpec:
    """The orientation double cover as a two-copy side-pairing.

    Orientation-preserving generators glue within each copy;
    orientation-reversing ones cross between the copies (the second copy
    plays the mirror-image polytope).

    Raises:
        GluingError: if the quotient is already orientable, where the
            construction would just produce two disjoint pieces.
    """
    if spec.copies != 1:
        raise GluingError("double cover expects a single-copy spec")
    character = orientation_character(spec)
    if character.orientable:
        raise GluingError("quotient is orientable; its orientation double cover "
                          "would be disconnected")
    doubled = []
    for p, sign in zip(spec.pairings, character.signs):
        if sign == 1:
            doubled.append(Pairing(p.facet_a, p.facet_b, p.vertex_map, 0, 0))
            doubled.append(Pairing(p.facet_a, p.facet_b, p.vertex_map, 1, 1))
        else:
            doubled.append(Pairing(p.facet_a, p.facet_b, p.vertex_map, 0, 1))
            doubled.append(Pairing(p.facet_a, p.facet_b, p.vertex_map, 1, 0))
    metadata = spec.metadata + (("cover", "orientation double cover"),)
    return SidePairingSpec(pairings=tuple(doubled), geometry=spec.geometry,
                           copies=2, metadata=metadata)


# ---------------------------------------------------------------------------
# The quotient complex.


class QuotientComplex(Record, eq=False):
    """The quotient CW complex of a side-pairing.

    ``chain`` is the underlying chain complex, one k-cell per orbit of
    model k-cells.  ``representatives[k]`` lists each orbit's least
    (copy, cell) key, and the geometry's ``labels[k][cell]`` is that
    cell's provenance, so the quotient keeps no copy of it.
    ``orbit_index[k][key]`` is (orbit, sign of key relative to the
    representative, positions), where ``positions[j]`` is the place, in
    the representative's cell, of the key cell's j-th vertex.
    """

    spec: SidePairingSpec
    chain: ChainComplex
    representatives: tuple[tuple[tuple[int, int], ...], ...]
    orbit_index: tuple[dict[tuple[int, int], tuple[int, int, tuple[int, ...]]], ...]

    @property
    def top_dim(self) -> int:
        return self.chain.top_dim


def quotient_complex(spec: SidePairingSpec, copies: int = 1) -> QuotientComplex:
    """Glue the polytope (or two copies of it) along the side-pairing.

    With ``copies=2`` a single-copy spec is first lifted to its
    orientation double cover; a spec already on two copies is used as is.

    Returns a complex whose boundary matrices satisfy d d = 0 by
    construction; orientation reversals are not an error (they simply
    show up in homology), but identifying a cell with itself through a
    nontrivial symmetry raises GluingError.
    """
    if copies not in (1, 2):
        raise GluingError("copies must be 1 or 2")
    if spec.copies == 1 and copies == 2:
        spec = double_cover(spec)
    elif spec.copies != copies:
        raise GluingError(f"spec has {spec.copies} copies, requested {copies}")
    geo = geometry(spec.geometry)
    model = geo.model
    top = model.dim
    actions = [(p.copy_a, p.copy_b,
                _pairing_action(spec.geometry, p.facet_a, p.facet_b, p.vertex_map)[1])
               for p in spec.pairings]

    # Per dimension, a list on keys copy * n + cell holds each key's orbit,
    # sign and vertex positions in its orbit's representative, the least
    # key.  Vertices carry sign +1 and position (0,), so their orbits are
    # union-find classes; higher cells are walked along the links.
    n = len(model.cells[0])
    roots = _least_members(spec.copies * n, (
        (copy_a * n + a, copy_b * n + b)
        for copy_a, copy_b, per_dim in actions for a, b, _, _, _ in per_dim[0]))
    reps = [key for key, root in enumerate(roots) if key == root]
    entry = {key: (orbit, 1, (0,)) for orbit, key in enumerate(reps)}
    levels = [[entry[root] for root in roots]]
    representatives = [tuple(divmod(key, n) for key in reps)]
    for k in range(1, top + 1):
        n = len(cells := model.cells[k])
        reps = []
        links: list[list] = [[] for _ in range(spec.copies * n)]
        for copy_a, copy_b, per_dim in actions:
            for a, b, sign, forward, backward in per_dim[k]:
                a, b = copy_a * n + a, copy_b * n + b
                links[a].append((b, sign, forward))
                links[b].append((a, sign, backward))
        level = [None] * len(links)
        for rep in range(len(links)):
            if level[rep] is not None:
                continue
            orbit = len(reps)
            level[rep] = (orbit, 1, tuple(range(len(cells[rep % n]))))
            reps.append(divmod(rep, n))
            stack = [rep]
            while stack:
                _, sign, at = level[key := stack.pop()]
                for other, other_sign, pull in links[key]:
                    moved = pull(at)
                    if (seen := level[other]) is None:
                        level[other] = (orbit, sign * other_sign, moved)
                        stack.append(other)
                    elif seen[2] != moved:
                        raise GluingError(
                            "side-pairing identifies a cell with itself by a "
                            "nontrivial symmetry; the quotient is not a CW complex")
        levels.append(level)
        representatives.append(tuple(reps))

    boundary_matrices = [IntMatrix.zero(0, len(representatives[0]))]
    for k in range(1, top + 1):
        below, n = levels[k - 1], len(model.cells[k - 1])
        columns = []
        for copy, idx in representatives[k]:
            column: dict[int, int] = {}
            for sub, coeff in model.boundary_entries[k][idx]:
                q, sign, _ = below[copy * n + sub]
                column[q] = column.get(q, 0) + coeff * sign
            columns.append(column.items())
        boundary_matrices.append(
            IntMatrix.from_nonzeros(columns, rows=len(representatives[k - 1])))

    return QuotientComplex(
        spec=spec,
        chain=ChainComplex(boundary=tuple(boundary_matrices)),
        representatives=tuple(representatives),
        orbit_index=tuple(dict(zip(product(range(spec.copies), range(len(cells))), level))
                          for cells, level in zip(model.cells, levels)),
    )


# ---------------------------------------------------------------------------
# Poincare polyhedron presentation.


class Presentation(Record):
    """Group presentation with one generator per pairing.

    Relators are words of signed 1-based generator indices (negative for
    inverses): ridge-cycle words, squares of self-paired generators, and
    one length-one word per spanning-tree crossing in the two-copy case.
    Letters are read with ``operator.index`` (1.5 raises TypeError); 0 or
    a letter past the last generator raises ValueError.
    """

    generators: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]

    def __init__(self, generators, relators):
        generators, relators = tuple(generators), tuple(map(tuple, relators))
        letters = set(map(index, chain.from_iterable(relators)))
        n = len(generators)
        if letters and (0 in letters or min(letters) < -n or max(letters) > n):
            bad = min((letter for letter in letters if not 0 < abs(letter) <= n), key=abs)
            raise ValueError(f"letter {bad} names none of the {n} generators")
        self.__dict__.update(generators=generators, relators=relators)

    def abelianization(self) -> AbelianGroup:
        # Each letter of relator j adds its sign at (generator, j), kept
        # in sparse rows with their column index (see cokernel_of_rows).
        rows: list[dict[int, int]] = [{} for _ in self.generators]
        at: dict[int, set[int]] = {}
        for j, word in enumerate(self.relators):
            column = at[j] = set()
            for letter in word:
                row = rows[i := abs(letter) - 1]
                if (x := row.get(j, 0) + (1 if letter > 0 else -1)):
                    row[j] = x
                    column.add(i)
                else:
                    del row[j]
                    column.discard(i)
        return cokernel_of_rows(rows, at)


def presentation(spec: SidePairingSpec) -> Presentation:
    """Fundamental-polyhedron presentation of the quotient's fundamental group.

    Generators are the side-pairing transformations; each ridge cycle of
    the polytope contributes the cyclic word of generators crossed while
    walking around the ridge.  Words are defined up to cyclic rotation,
    inversion and base-point conventions.
    """
    geo = geometry(spec.geometry)
    ridge_facets, partner = geo.ridge_facets, geo.ridge_partner
    # Per key copy * n + model facet: its crossing's letter, n and r times the
    # copy it arrives in, the arrival facet's ridge partners, its ridge map.
    n = len(geo.model.cells[geo.model.dim - 1])
    r = len(geo.model.cells[geo.model.dim - 2])
    crossing: list = [None] * (spec.copies * n)
    for i, p in enumerate(spec.pairings):
        forward, backward = _pairing_action(spec.geometry, p.facet_a, p.facet_b,
                                            p.vertex_map)[0]
        fa, fb = geo.model_facet[p.facet_a], geo.model_facet[p.facet_b]
        crossing[p.copy_a * n + fa] = (i + 1, p.copy_b * n, p.copy_b * r, partner[fb], forward)
        if not p.is_self_pairing():
            crossing[p.copy_b * n + fb] = (-(i + 1), p.copy_a * n, p.copy_a * r,
                                           partner[fa], backward)

    # The walk stands at ridge key copy * r + ridge and a facet key, leaving
    # across that facet after coming in across the ridge's other one.  A
    # cycle thus uses both facets of each ridge key it meets, and marks it.
    # One crossing arrives at each facet key, so a step permutes the finite
    # set of states and every walk comes back to where it started.
    visited: set[int] = set()
    relators: list[tuple[int, ...]] = []
    for copy in range(spec.copies):
        for start_ridge, (low, _) in ridge_facets.items():
            if (start := copy * r + start_ridge) in visited:
                continue
            first = facet = copy * n + low
            key, ridge, word = start, start_ridge, []
            while True:
                visited.add(key)
                letter, facets, ridges, other, ridge_map = crossing[facet]
                ridge = ridge_map[ridge]
                facet = facets + other[ridge]
                key = ridges + ridge
                word.append(letter)
                if key == start and facet == first:
                    break
            relators.append(tuple(word))

    relators += [(i + 1, i + 1) for i, p in enumerate(spec.pairings) if p.is_self_pairing()]
    if spec.copies == 2:
        # Contract one crossing generator so the groupoid presents a group.
        tree_gen = next((i for i, p in enumerate(spec.pairings) if p.copy_a != p.copy_b), None)
        if tree_gen is None:
            raise GluingError("no pairing crosses between the two copies; the quotient "
                              "is disconnected and has no single fundamental group")
        relators.append((tree_gen + 1,))

    # A valid spec has at most 24 pairings, so one letter each suffices.
    return Presentation(generators=tuple(chr(ord("a") + i) for i in range(len(spec.pairings))),
                        relators=tuple(relators))
