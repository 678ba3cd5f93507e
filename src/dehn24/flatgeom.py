"""Flat geometry of cusp cross sections.

A cross section carved out by :mod:`dehn24.peripheral` is an assembly
of unit cubes glued along their square faces.  Developing that gluing
in R^3 (place one cube's vertices, then those of each cube glued to a
placed one across a square) either exposes rotational holonomy or
exhibits the section as R^3 modulo a lattice of translations.  The lattice returned here is
*marked*: its three columns are the translations realized by the
section's canonical H_1 generators, so a slope class written in H_1
coordinates is measured against the basis the peripheral maps use.

All certified numerics are exact rational arithmetic: square roots are
enclosed with ``math.isqrt``, the exponential with a fixed-point Taylor
sum plus a tail bound, after halving the argument below 1.  A comparison
that the enclosures cannot decide raises :class:`PrecisionError` instead
of guessing.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations, product
from math import floor, isqrt, lcm
from operator import index

from .chains import homology_basis
from .gluing import geometry
from .intlinalg import AbelianGroup
from .peripheral import CuspSection
from .record import Record

Vec3 = tuple[int, int, int]


class FlatGeometryError(ValueError):
    """A cross section or lattice request violates a structural hypothesis."""


class PrecisionError(ValueError):
    """The certified enclosures are too coarse to decide a comparison."""


# Certified bracket for 4*pi^2 = 39.4784176043574...; both comparisons in
# two_pi_ok are made against this closed interval, never against a float.
TWO_PI_SQUARED_LOW = Fraction("39.4784176043")
TWO_PI_SQUARED_HIGH = Fraction("39.4784176045")

# The enclosure grid: every length bound is a multiple of 10^-_SQRT_DIGITS.
_SQRT_DIGITS = 13
_SQRT_SCALE = 10 ** _SQRT_DIGITS


def _sqrt_enclosure(squared: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(squared) <= hi with hi - lo <= 2/10^13."""
    scaled = squared * _SQRT_SCALE ** 2
    floor = scaled.numerator // scaled.denominator
    ceil = -((-scaled.numerator) // scaled.denominator)
    return (Fraction(isqrt(floor), _SQRT_SCALE),
            Fraction(isqrt(ceil) + 1, _SQRT_SCALE))


def _exp_enclosure(x: Fraction) -> tuple[Fraction, Fraction]:
    """Rational lo <= exp(x) <= hi for x >= 0, within exp(x) / 2^100.

    With s the bit length of floor(x), y = x / 2^s lies in [0, 1).  A
    Taylor sum on fixed-point integers of 128 + 2s bits, its terms rounded
    down for lo and up for hi (whose tail after the last term is at most
    that term, as y / n <= 1/2), encloses exp(y); s squarings, rounded the
    same ways, give exp(x).  The cost grows with s, not with the size of
    x's denominator.
    """
    if x < 0:
        raise ValueError("argument must be nonnegative")
    s = floor(x).bit_length()
    bits = 128 + 2 * s
    one = 1 << bits
    scaled = x * one / (1 << s)
    lo = _exp_fixed(floor(scaled), bits, down=True)
    hi = _exp_fixed(-floor(-scaled), bits, down=False)
    for _ in range(s):
        lo = lo * lo >> bits
        hi = -(-hi * hi >> bits)
    return Fraction(lo, one), Fraction(hi, one)


def _exp_fixed(y: int, bits: int, down: bool) -> int:
    """exp(y / 2^bits) for 0 <= y <= 2^bits, in units of 2^-bits: a lower
    bound from terms rounded down, or an upper bound from terms rounded up
    plus the last term again for the tail."""
    total = term = 1 << bits
    n = 0
    while term > (0 if down else 1):
        n += 1
        term = term * y // (n << bits) if down else -(-term * y // (n << bits))
        total += term
    return total if down else total + term


def _det3(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


class FlatLattice(Record):
    """A marked translation lattice in R^3.

    Column j of ``basis`` is the developed translation of the j-th
    canonical H_1 generator of the section, so integer vectors in H_1
    coordinates (in particular slope classes) are measured directly.
    ``scale`` is the cross-section normalization: geometric lengths are
    ``scale`` times lattice lengths, so the default makes every
    cross-section cube a unit cube.
    """

    basis: tuple[tuple[Fraction, ...], ...]
    scale: Fraction = Fraction(1)

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.basis)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise FlatGeometryError("basis must be a 3 x 3 matrix")
        object.__setattr__(self, "basis", rows)
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.scale <= 0:
            raise FlatGeometryError("scale must be positive")
        if _det3(rows) == 0:
            raise FlatGeometryError("basis is singular")

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int | Fraction]],
                     scale: int | Fraction = 1) -> "FlatLattice":
        if len(columns) != 3 or any(len(c) != 3 for c in columns):
            raise FlatGeometryError("need three generator columns of length 3")
        rows = tuple(tuple(Fraction(columns[j][i]) for j in range(3)) for i in range(3))
        return cls(basis=rows, scale=Fraction(scale))

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.basis[i][j] for i in range(3))

    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        """Inner products of the generators (before scaling)."""
        cols = [self.column(j) for j in range(3)]
        return tuple(tuple(sum(a * b for a, b in zip(cols[i], cols[j]))
                           for j in range(3)) for i in range(3))

    def det(self) -> Fraction:
        return _det3(self.basis)

    def covolume(self) -> Fraction:
        """Volume of a fundamental domain, |det| * scale^3."""
        return abs(self.det()) * self.scale ** 3

    def dump(self) -> str:
        """Exact, byte-stable rendering: scale, then one generator per line."""
        lines = [f"scale: {self.scale}"]
        for j in range(3):
            lines.append(f"g{j + 1}: " + " ".join(str(x) for x in self.column(j)))
        return "\n".join(lines) + "\n"


class SlopeLength(Record):
    """One measured slope: the class, its exact squared length, and a
    certified rational enclosure of the length itself."""

    slope: tuple[int, ...]
    squared: Fraction
    lower: Fraction
    upper: Fraction

    def __init__(self, slope: Sequence[int], squared: Fraction, lower: Fraction,
                 upper: Fraction):
        # Five are built per enumerated record, so the fields are bound here.
        lower, upper, squared = Fraction(lower), Fraction(upper), Fraction(squared)
        if not 0 <= lower <= upper:
            raise FlatGeometryError("enclosure bounds out of order")
        if not lower ** 2 <= squared <= upper ** 2:
            raise FlatGeometryError("enclosure does not bracket the squared length")
        self.__dict__.update(slope=tuple(map(index, slope)), squared=squared, lower=lower,
                             upper=upper)


SlopeLengths = tuple[SlopeLength, ...]


def slope_length(lattice: FlatLattice, v: Sequence[int]) -> SlopeLength:
    """Certified length of the lattice vector with coordinates v.

    The squared length scale^2 * v^T G v is exact; the length enclosure
    has width under 10^-12.

    Raises:
        FlatGeometryError: if v is zero or not a 3-vector.
        TypeError: if an entry of v is not an integer, such as 1/2.
    """
    v = tuple(map(index, v))
    if len(v) != 3:
        raise FlatGeometryError("slope classes are integer 3-vectors")
    if not any(v):
        raise FlatGeometryError("the zero class has no slope length")
    developed = [sum(lattice.basis[i][j] * v[j] for j in range(3)) for i in range(3)]
    squared = lattice.scale ** 2 * sum(x * x for x in developed)
    lower, upper = _sqrt_enclosure(squared)
    return SlopeLength(slope=v, squared=squared, lower=lower, upper=upper)


def slope_lengths(lattices: Sequence[FlatLattice],
                  classes: Sequence[Sequence[int]]) -> SlopeLengths:
    """Measure one slope class per cusp lattice, in order."""
    if len(lattices) != len(classes):
        raise FlatGeometryError(f"{len(lattices)} lattices but {len(classes)} classes")
    return tuple(slope_length(lat, v) for lat, v in zip(lattices, classes))


def enumerate_short(lattice: FlatLattice,
                    bound: int | Fraction) -> list[tuple[int, ...]]:
    """All nonzero classes with squared length strictly below ``bound``.

    The squared length of v is v^T q v, with q = scale^2 times the Gram
    matrix, positive definite.  The Cauchy-Schwarz inequality in the
    inner product q gives v_i^2 <= (v^T q v) (q^-1)_ii, and (q^-1)_ii =
    C_i / det q with C_i the cofactor q_jj q_kk - q_jk^2 ({i, j, k} =
    {0, 1, 2}).  So every such class lies in the box |v_i| <=
    isqrt(floor(bound C_i / det q)), which is scanned whole on the
    integer form den * q against den * bound; the output is sorted by
    (squared length, class).
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise FlatGeometryError("bound must be positive")
    s2 = lattice.scale ** 2
    q = [[s2 * x for x in row] for row in lattice.gram()]
    den = lcm(*(x.denominator for row in q for x in row))
    g = [[int(x * den) for x in row] for row in q]
    limit, det = bound * den, _det3(g)
    radii = [isqrt(floor(limit * (g[j][j] * g[k][k] - g[j][k] ** 2) / det))
             for j, k in ((1, 2), (0, 2), (0, 1))]
    found = []
    for v in product(*(range(-r, r + 1) for r in radii)):
        n = sum(g[i][j] * v[i] * v[j] for i in range(3) for j in range(3))
        if 0 < n < limit:
            found.append((n, v))
    return [v for _, v in sorted(found)]


def two_pi_ok(lengths: SlopeLengths) -> bool:
    """Whether every measured slope has length at least 2*pi.

    Each exact squared length is compared against the closed certified
    bracket [TWO_PI_SQUARED_LOW, TWO_PI_SQUARED_HIGH]: strictly below is
    a certified failure, strictly above a certified pass.

    Raises:
        PrecisionError: a squared length falls inside the bracket, where
            this enclosure of 4*pi^2 cannot decide the comparison.
        FlatGeometryError: no lengths given.
    """
    if not lengths:
        raise FlatGeometryError("no slope lengths given")
    if any(s.squared < TWO_PI_SQUARED_LOW for s in lengths):
        return False
    straddling = [s for s in lengths if s.squared <= TWO_PI_SQUARED_HIGH]
    if straddling:
        raise PrecisionError(
            f"squared length {straddling[0].squared} lies inside the 4*pi^2 "
            f"bracket [{TWO_PI_SQUARED_LOW}, {TWO_PI_SQUARED_HIGH}]; a tighter "
            f"enclosure is needed to decide")
    return True


def weakly_balanced(lengths: SlopeLengths, c: int | Fraction) -> bool:
    """Whether max length <= exp(c * min length^3), certified.

    Raises:
        PrecisionError: the length and exponential enclosures overlap
            so neither verdict is certified.
        FlatGeometryError: empty input or c <= 0.
    """
    if not lengths:
        raise FlatGeometryError("no slope lengths given")
    c = Fraction(c)
    if c <= 0:
        raise FlatGeometryError("balance constant must be positive")
    max_lo = max(s.lower for s in lengths)
    max_hi = max(s.upper for s in lengths)
    min_lo = min(s.lower for s in lengths)
    min_hi = min(s.upper for s in lengths)
    # exp(x) >= 2^floor(x) exceeds every length whose numerator has fewer
    # bits, so capping x there decides the same comparison at bounded cost.
    rhs_lo = _exp_enclosure(min(c * min_lo ** 3, max_hi.numerator.bit_length()))[0]
    if max_hi <= rhs_lo:
        return True
    rhs_hi = _exp_enclosure(min(c * min_hi ** 3, max_lo.numerator.bit_length()))[1]
    if max_lo > rhs_hi:
        return False
    raise PrecisionError(
        f"cannot separate max length in [{max_lo},{max_hi}] from the balance "
        f"bound exp(c * min length^3); a tighter enclosure is needed")


# ---------------------------------------------------------------------------
# Developing a cube assembly.


def _cube_graph(model, idx: int) -> dict[int, list[int]]:
    """The edge graph of one combinatorial cube: its vertices in
    breadth-first order from the least, each with its neighbours, the
    vertices that share two of its squares, in label order.

    Eight vertices of three neighbours each, with every edge joining the
    two sides of a two-colouring, make the cube's graph; six squares that
    hold each of its twelve edges twice are then its six faces.
    """
    verts = model.cells[3][idx]
    squares = [sorted(set(model.cells[2][sq])) for sq, _ in model.boundary_entries[3][idx]]
    if len(verts) != 8 or len(squares) != 6 or any(len(s) != 4 for s in squares):
        raise FlatGeometryError(f"3-cell {idx} is not a combinatorial cube")
    graph: dict[int, list[int]] = {}
    for (g, h), n in sorted(Counter(p for s in squares for p in combinations(s, 2)).items()):
        if n == 2:
            graph.setdefault(g, []).append(h)
            graph.setdefault(h, []).append(g)
    order = [min(verts)]
    side = {order[0]: 0}
    for g in order:
        for h in graph.get(g, ()):
            if h not in side:
                side[h] = 1 - side[g]
                order.append(h)
    if (sorted(order) != sorted(verts) or any(len(graph[g]) != 3 for g in order)
            or any(side[g] == side[h] for g in order for h in graph[g])):
        raise FlatGeometryError(f"3-cell {idx} is not a combinatorial cube")
    return {g: graph[g] for g in order}


def _edge_vectors(section: CuspSection) -> tuple[Vec3, ...]:
    """Developed displacement of each section 1-cell.

    Places every vertex of the section's cubes in R^3, breadth first
    across glued squares.  The least cube fills {0,1}^3: its least vertex
    at the origin, that vertex's neighbours in label order along the
    axes, and each further vertex at the componentwise max of its placed
    neighbours.  A cube reached across a square keeps the square's
    positions and puts each other vertex one outward normal beyond its
    neighbour on the square.  A gluing between two placed cubes must
    move all eight vertices by one translation.  A quotient edge's
    vector is the difference of its representative's placed ends;
    summing these over a 1-cycle gives the cycle's translational
    holonomy.

    Raises:
        FlatGeometryError: rotational holonomy (the section is not a
            torus), or a structural defect in the cube assembly.
    """
    q = section.ambient
    model = geometry(q.spec.geometry).model

    if not section.cells[3]:
        raise FlatGeometryError("cross section has no 3-cells")
    owners = Counter(orbit for orbit, _, _ in q.orbit_index[3].values())
    if any(owners[orbit] != 1 for orbit in section.cells[3]):
        raise FlatGeometryError("3-cells of the section must be unidentified cubes")

    cube_keys = [q.representatives[3][orbit] for orbit in section.cells[3]]
    graphs = {key: _cube_graph(model, key[1]) for key in cube_keys}

    members: dict[int, list[tuple[tuple[int, int], int]]] = {}
    for key in cube_keys:
        for sq, _ in model.boundary_entries[3][key[1]]:
            members.setdefault(q.orbit_index[2][(key[0], sq)][0], []).append((key, sq))

    adjacency: dict[tuple[int, int], list] = {key: [] for key in cube_keys}
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
        square_2 = at_2.values()
        if ({(psi[v], psi[h]) for v in psi for h in graphs[k1][v] if h in psi}
                != {(w, h) for w in square_2 for h in graphs[k2][w] if h in square_2}):
            raise FlatGeometryError("face identification is not an isometry "
                                    "of the chart cubes")
        adjacency[k1].append((k2, psi))
        adjacency[k2].append((k1, {w: v for v, w in psi.items()}))

    base = min(cube_keys)
    order = list(graphs[base])
    start = dict(zip(order, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))))
    for g in order[4:]:
        start[g] = tuple(map(max, *(start[h] for h in graphs[base][g] if h in start)))
    placed = {base: start}
    queue = deque([base])
    while queue:
        k1 = queue.popleft()
        at = placed[k1]
        for k2, psi in adjacency[k1]:
            # A vertex v of the glued square less its neighbour off the
            # square is the square's outward normal.
            v = next(iter(psi))
            (x, y, z), (a, b, c) = at[v], at[next(h for h in graphs[k1][v] if h not in psi)]
            nx, ny, nz = x - a, y - b, z - c
            moved = {w: at[v] for v, w in psi.items()}
            for v, w in psi.items():
                x, y, z = at[v]
                for h in graphs[k2][w]:
                    if h not in moved:
                        moved[h] = (x + nx, y + ny, z + nz)
            if k2 not in placed:
                placed[k2] = moved
                queue.append(k2)
            elif len({(x - a, y - b, z - c) for (x, y, z), (a, b, c)
                      in zip(moved.values(), map(placed[k2].__getitem__, moved))}) != 1:
                raise FlatGeometryError(
                    "cross section has rotational holonomy; not a torus")
    if len(placed) != len(cube_keys):
        raise FlatGeometryError("cross section is not connected")

    cube_of = {(key[0], g): key for key in cube_keys for g in graphs[key]}
    vectors = []
    for orbit in section.cells[1]:
        copy, eidx = q.representatives[1][orbit]
        ends = model.boundary_entries[1][eidx]
        keys = {cube_of.get((copy, mv)) for mv, _ in ends}
        if len(keys) != 1 or None in keys:
            raise FlatGeometryError("edge representative leaves the section cubes")
        at = placed[keys.pop()]
        vectors.append(tuple(sum(coeff * at[mv][i] for mv, coeff in ends) for i in range(3)))
    return tuple(vectors)


def _holonomy(vectors: Sequence[Vec3], chain: Sequence[int]) -> Vec3:
    total = (0, 0, 0)
    for a, vec in zip(chain, vectors):
        if a:
            total = tuple(t + a * x for t, x in zip(total, vec))
    return total


def develop_lattice(section: CuspSection,
                    scale: int | Fraction = 1) -> FlatLattice:
    """The marked translation lattice of a 3-torus cross section.

    Column j is the holonomy of the j-th canonical H_1 generator, so
    slope classes in H_1 coordinates measure correctly.  The covolume
    equals the section's cube count times scale^3.

    Raises:
        FlatGeometryError: rotational holonomy ("not a torus"), H_1 not
            Z^3, or structural defects in the cube assembly.
    """
    vectors = _edge_vectors(section)
    basis = homology_basis(section.chain, 1)
    if basis.group != AbelianGroup(3):
        raise FlatGeometryError(f"section has H_1 = {basis.group}; developing "
                                f"a lattice needs a 3-torus")
    columns = [_holonomy(vectors, basis.cycles.column(j)) for j in range(3)]
    lattice = FlatLattice.from_columns(columns, scale=scale)
    if abs(lattice.det()) != section.cube_count:
        raise FlatGeometryError(
            f"developed covolume {abs(lattice.det())} does not match the "
            f"cube count {section.cube_count}")
    return lattice
