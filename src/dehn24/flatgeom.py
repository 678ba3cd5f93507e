"""Flat geometry of cusp cross sections.

A cross section carved out by :mod:`dehn24.peripheral` is an assembly
of unit cubes glued along their square faces.  Developing that gluing
in R^3 (place one cube, then propagate charts across shared faces)
either exposes rotational holonomy or exhibits the section as R^3
modulo a lattice of translations.  The lattice returned here is
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
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import floor, isqrt
from operator import index

from .chains import homology_basis
from .gluing import geometry
from .intlinalg import AbelianGroup
from .peripheral import CuspSection
from .record import Record

Vec3 = tuple[int, int, int]
Mat3 = tuple[Vec3, Vec3, Vec3]


class FlatGeometryError(ValueError):
    """A cross section or lattice request violates a structural hypothesis."""


class PrecisionError(ValueError):
    """The certified enclosures are too coarse to decide a comparison."""


# Certified bracket for 4*pi^2 = 39.4784176043574...; both comparisons in
# two_pi_ok are made against this closed interval, never against a float.
TWO_PI_SQUARED_LOW = Fraction("39.4784176043")
TWO_PI_SQUARED_HIGH = Fraction("39.4784176045")

_SQRT_SCALE = 10 ** 13


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

    An exact LDL^T decomposition of the scaled Gram matrix drives a
    Fincke-Pohst enumeration; membership is decided by the exact
    quadratic form, and the output is sorted by (squared length, class).
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise FlatGeometryError("bound must be positive")
    s2 = lattice.scale ** 2
    q = [[s2 * x for x in row] for row in lattice.gram()]

    def value(v: tuple[int, int, int]) -> Fraction:
        return sum(q[i][j] * v[i] * v[j] for i in range(3) for j in range(3))

    return [v for _, v in sorted((value(v), v) for v in _ldl_enumerate(q, bound))]


def _ldl_enumerate(q: list[list[Fraction]],
                   bound: Fraction) -> Iterator[tuple[int, int, int]]:
    """Exact Fincke-Pohst style search: v^T q v < bound, v nonzero."""
    s = [row[:] for row in q]
    d = []
    u = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        d.append(s[i][i])
        if d[i] <= 0:
            raise FlatGeometryError("quadratic form is not positive definite")
        for j in range(i + 1, 3):
            u[i][j] = s[i][j] / d[i]
        for k in range(i + 1, 3):
            for l in range(i + 1, 3):
                s[k][l] -= d[i] * u[i][k] * u[i][l]

    def span(center: Fraction, budget: Fraction, weight: Fraction) -> Iterable[int]:
        # Integers t with weight * (t + center)^2 <= budget, plus slack;
        # callers re-test exactly, so overshooting is harmless.  Every
        # budget is positive: a caller skips a level once its bound is used.
        radius = budget / weight
        top = isqrt(-((-radius.numerator) // radius.denominator)) + 1
        lo = floor(-center) - top
        return range(lo, lo + 2 * top + 1)

    for v2 in span(Fraction(0), bound, d[2]):
        used2 = d[2] * v2 ** 2
        if used2 >= bound:
            continue
        c1 = u[1][2] * v2
        for v1 in span(c1, bound - used2, d[1]):
            used1 = used2 + d[1] * (v1 + c1) ** 2
            if used1 >= bound:
                continue
            c0 = u[0][1] * v1 + u[0][2] * v2
            for v0 in span(c0, bound - used1, d[0]):
                v = (v0, v1, v2)
                if v == (0, 0, 0):
                    continue
                if used1 + d[0] * (v0 + c0) ** 2 < bound:
                    yield v


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


def _cube_chart(model, idx: int) -> dict[int, Vec3]:
    """Coordinates in {0,1}^3 for the vertices of one combinatorial cube.

    The minimal vertex sits at the origin and its neighbors, in label
    order, along the axes; every face then lies in a coordinate plane.
    """
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


def _face_normal(chart: dict[int, Vec3], face: Iterable[int]) -> Vec3:
    """Outward unit normal of a chart face lying in a coordinate plane."""
    coords = [chart[g] for g in face]
    for axis in range(3):
        values = {p[axis] for p in coords}
        if len(values) == 1:
            value = values.pop()
            normal = [0, 0, 0]
            normal[axis] = 1 if value == 1 else -1
            return tuple(normal)
    raise FlatGeometryError("face does not lie in a chart coordinate plane")


def _apply3(m: Mat3, v: Vec3) -> Vec3:
    (a, b, c), (d, e, f), (g, h, i) = m
    x, y, z = v
    return (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)


def _times_transpose(a: Mat3, b: Mat3) -> Mat3:
    """a * b^T; for the signed permutations here b^T is b's inverse."""
    return tuple(_apply3(b, row) for row in a)


def _face_transition(chart_a: dict[int, Vec3], face_a: Sequence[int],
                     chart_b: dict[int, Vec3], psi: dict[int, int]) -> Mat3:
    """The rotation part of the isometry taking chart_a onto chart_b across a face.

    Determined by two face edges plus the requirement that the outward
    normal on one side map to the inward normal on the other.  It is a
    3 x 3 signed permutation, kept as integer rows.
    """
    qs = [chart_a[g] for g in face_a]
    ps = [chart_b[psi[g]] for g in face_a]
    q_diffs = [tuple(a - b for a, b in zip(q, qs[0])) for q in qs]
    p_diffs = [tuple(a - b for a, b in zip(p, ps[0])) for p in ps]
    edges = [k for k in range(1, 4) if sum(x * x for x in q_diffs[k]) == 1]
    if len(edges) != 2:
        raise FlatGeometryError("face is not a chart unit square")
    n_a = _face_normal(chart_a, face_a)
    n_b = _face_normal(chart_b, [psi[g] for g in face_a])
    q_cols = [q_diffs[k] for k in edges] + [n_a]
    p_cols = [p_diffs[k] for k in edges] + [tuple(-x for x in n_b)]
    # P * Q^T, with P and Q the matrices of those columns.
    linear = _times_transpose(tuple(zip(*p_cols)), tuple(zip(*q_cols)))
    if any(_apply3(linear, q) != p for q, p in zip(q_diffs, p_diffs)):
        raise FlatGeometryError("face identification is not an isometry "
                                "of the chart cubes")
    return linear


def _edge_vectors(section: CuspSection) -> tuple[Vec3, ...]:
    """Developed displacement of each section 1-cell.

    Develops the section's cubes by breadth-first propagation of chart
    rotations across glued squares, then turns each quotient edge's
    representative, a chart edge of its own cube, by that cube's
    rotation.  Summing these over a 1-cycle gives the cycle's
    translational holonomy; where a cube is placed plays no part.

    Raises:
        FlatGeometryError: rotational holonomy (the section is not a
            torus), or a structural defect in the cube assembly.
    """
    q = section.ambient
    model = geometry(q.spec.geometry).model

    owners = Counter(orbit for orbit, _, _ in q.orbit_index[3].values())
    for orbit in section.cells[3]:
        if owners[orbit] != 1:
            raise FlatGeometryError("3-cells of the section must be unidentified cubes")

    cube_keys = [q.representatives[3][orbit] for orbit in section.cells[3]]
    charts = {key: _cube_chart(model, key[1]) for key in cube_keys}

    members: dict[int, list[tuple[tuple[int, int], int]]] = {}
    for key in cube_keys:
        copy, idx = key
        for sq, _ in model.boundary_entries[3][idx]:
            members.setdefault(q.orbit_index[2][(copy, sq)][0], []).append((key, sq))

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
        linear = _face_transition(charts[k1], model.cells[2][s1], charts[k2], psi)
        adjacency[k1].append((k2, linear))
        adjacency[k2].append((k1, tuple(zip(*linear))))

    base = min(cube_keys)
    rotations = {base: ((1, 0, 0), (0, 1, 0), (0, 0, 1))}
    queue = deque([base])
    while queue:
        k1 = queue.popleft()
        for k2, linear in adjacency[k1]:
            r2 = _times_transpose(rotations[k1], linear)
            if k2 not in rotations:
                rotations[k2] = r2
                queue.append(k2)
            elif rotations[k2] != r2:
                raise FlatGeometryError(
                    "cross section has rotational holonomy; not a torus")
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
        chart = charts[key]
        step = tuple(sum(coeff * chart[mv][i] for mv, coeff in ends) for i in range(3))
        vectors.append(_apply3(rotations[key], step))
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
