"""Tests for chain complexes and homology.

Expected groups for the hand-built complexes below (circle, torus,
3-torus, Klein bottle, projective plane) are classical and frozen here
directly; the complexes themselves are written out cell by cell rather
than produced by any gluing machinery.
"""

import ast
import collections
import importlib
import inspect
import pathlib
import random
import typing

import pytest

import dehn24
from dehn24 import chains, intlinalg
from dehn24.chains import (
    ChainComplex,
    euler_characteristic,
    homology,
    homology_basis,
)
from dehn24.gluing import quotient_complex
from dehn24.intlinalg import AbelianGroup, IntMatrix
from dehn24.peripheral import cusp_sections
from conftest import is_chain_complex
from test_gluing import klein_spec, three_torus_spec, torus_spec
from test_intlinalg import _times


def empty_boundary(cells: int) -> IntMatrix:
    return IntMatrix([[] for _ in range(0)], cols=cells)


def circle() -> ChainComplex:
    # One vertex, one loop.
    return ChainComplex(boundary=(empty_boundary(1), IntMatrix.zero(1, 1)))


def torus_surface() -> ChainComplex:
    # Standard square identification: one vertex, two loops, one 2-cell
    # with boundary a b a^-1 b^-1 = 0.
    return ChainComplex(boundary=(
        empty_boundary(1),
        IntMatrix.zero(1, 2),
        IntMatrix.zero(2, 1),
    ))


def three_torus() -> ChainComplex:
    # Cube with opposite faces identified: 1 vertex, 3 edges, 3 squares,
    # 1 cube; every boundary cancels to zero.
    return ChainComplex(boundary=(
        empty_boundary(1),
        IntMatrix.zero(1, 3),
        IntMatrix.zero(3, 3),
        IntMatrix.zero(3, 1),
    ))


def klein_bottle() -> ChainComplex:
    # Square with a b a b^-1: the 2-cell boundary is 2a.
    return ChainComplex(boundary=(
        empty_boundary(1),
        IntMatrix.zero(1, 2),
        IntMatrix([[2], [0]]),
    ))


def projective_plane() -> ChainComplex:
    return ChainComplex(boundary=(
        empty_boundary(1),
        IntMatrix.zero(1, 1),
        IntMatrix([[2]]),
    ))


def test_circle_homology():
    c = circle()
    assert homology(c, 0) == AbelianGroup(1)
    assert homology(c, 1) == AbelianGroup(1)


def test_three_torus_homology():
    c = three_torus()
    assert homology(c, 0) == AbelianGroup(1)
    assert homology(c, 1) == AbelianGroup(3)
    assert homology(c, 2) == AbelianGroup(3)
    assert homology(c, 3) == AbelianGroup(1)
    assert euler_characteristic(c) == 0


def test_klein_bottle_homology():
    c = klein_bottle()
    assert homology(c, 1) == AbelianGroup(1, (2,))
    assert homology(c, 2) == AbelianGroup(0)


def test_projective_plane_homology():
    c = projective_plane()
    assert homology(c, 0) == AbelianGroup(1)
    assert homology(c, 1) == AbelianGroup(0, (2,))
    assert homology(c, 2) == AbelianGroup(0)


def test_homology_out_of_range():
    """The circle has top dimension 1.  ``boundary_or_zero`` also answers
    one degree past the top, with the zero map, and refuses the next."""
    for k in (-1, 2):
        refusal = f"^dimension {k} out of range for a complex of top dimension 1$"
        with pytest.raises(ValueError, match=refusal):
            homology(circle(), k)
        with pytest.raises(ValueError, match=refusal):
            homology_basis(circle(), k)
    assert circle().boundary_or_zero(2) == IntMatrix.zero(1, 0)
    for k in (-1, 3):
        with pytest.raises(ValueError, match=f"^dimension {k} out of range$"):
            circle().boundary_or_zero(k)


def test_validate_good_and_corrupted():
    """The d∘d = 0 check that the tests rely on accepts the 3-torus
    and refuses a face whose boundary's boundary does not vanish."""
    assert is_chain_complex(three_torus())
    corrupted = ChainComplex(boundary=(
        empty_boundary(2),
        IntMatrix([[1], [-1]]),
        IntMatrix([[1]]),  # edge boundary does not vanish on this face
    ))
    assert not is_chain_complex(corrupted)


def test_validate_empty_complex():
    assert is_chain_complex(ChainComplex(boundary=(empty_boundary(0),)))


def test_homology_invariant_under_cell_permutation():
    rng = random.Random(3)
    # A wedge-like random-ish complex with interesting boundaries.
    d1 = IntMatrix([[1, -1, 0, 0], [-1, 1, 0, 0]])
    d2 = IntMatrix([[1, 1], [1, 1], [2, 0], [0, 2]])
    c = ChainComplex(boundary=(empty_boundary(2), d1, d2))
    assert is_chain_complex(c)
    base = [homology(c, k) for k in range(3)]
    for _ in range(10):
        p0 = list(range(2))
        p1 = list(range(4))
        p2 = list(range(2))
        rng.shuffle(p0), rng.shuffle(p1), rng.shuffle(p2)
        pd1 = IntMatrix([[d1[i, j] for j in p1] for i in p0])
        pd2 = IntMatrix([[d2[p1[i], j] for j in p2] for i in range(4)])
        shuffled = ChainComplex(boundary=(empty_boundary(2), pd1, pd2))
        assert is_chain_complex(shuffled)
        assert [homology(shuffled, k) for k in range(3)] == base


def test_euler_characteristic_matches_betti_numbers():
    for c in (circle(), torus_surface(), three_torus(), klein_bottle(), projective_plane()):
        chi = sum((-1) ** k * homology(c, k).free_rank for k in range(c.top_dim + 1))
        assert chi == euler_characteristic(c)


def _agrees_with_generator_path(c: ChainComplex) -> None:
    for k in range(c.top_dim + 1):
        assert homology(c, k) == homology_basis(c, k).group, k


@pytest.mark.parametrize("make", [circle, three_torus, klein_bottle, projective_plane])
def test_group_only_homology_matches_basis_small(make):
    _agrees_with_generator_path(make())


@pytest.mark.parametrize("name", ["census_n", "census_m"])
def test_group_only_homology_matches_basis_census(name, request):
    _agrees_with_generator_path(request.getfixturevalue(name).chain)


def test_group_only_homology_matches_basis_sections(census_m):
    for section in cusp_sections(census_m):
        _agrees_with_generator_path(section.chain)


def _agrees_with_per_boundary_route(c: ChainComplex) -> None:
    """The former group-only route, kept as the oracle: H_k from the
    invariant factors of d_k and d_{k+1}, each boundary's from its own
    transform-free Smith reduction."""
    factors = [[d for d in intlinalg._smith(c.boundary_or_zero(k), False).diagonal() if d]
               for k in range(c.top_dim + 2)]
    for k in range(c.top_dim + 1):
        expected = AbelianGroup(free_rank=c.cell_count(k) - len(factors[k]) - len(factors[k + 1]),
                                torsion=tuple(d for d in factors[k + 1] if d >= 2))
        assert homology(c, k) == expected, k


def test_reduction_matches_per_boundary_route_on_slices(search_demo):
    """Every complex the demo builds from slices (0, 1) and (2, 3), at one
    and two copies."""
    built = 0
    for free in ({0, 1}, {2, 3}):
        for spec in search_demo.Search(free).run():
            for copies in (1, 2):
                try:
                    q = search_demo.quotient_complex(spec, copies=copies)
                except search_demo.GluingError:
                    continue
                _agrees_with_per_boundary_route(q.chain)
                built += 1
    assert built == 146


def test_reduction_matches_per_boundary_route_on_sections(census_m):
    for section in cusp_sections(census_m):
        _agrees_with_per_boundary_route(section.chain)


@pytest.mark.parametrize("spec, copies", [(torus_spec, 1), (three_torus_spec, 1),
                                          (klein_spec, 1), (klein_spec, 2)])
def test_reduction_matches_per_boundary_route_on_test_gluings(spec, copies):
    _agrees_with_per_boundary_route(quotient_complex(spec(), copies=copies).chain)


def _random_complex(rng: random.Random) -> ChainComplex:
    """A seeded complex with d*d = 0: each next boundary is the kernel
    basis of the last times a sparse random matrix."""
    def sparse(rows, cols):
        return IntMatrix([[rng.choice((0, 0, 0, 1, -1, 1, -1, 2, -3))
                           for _ in range(cols)] for _ in range(rows)], cols=cols)

    n0 = rng.randint(1, 6)
    boundary = [empty_boundary(n0), sparse(n0, rng.randint(1, 9))]
    for _ in range(rng.randint(0, 3)):
        kernel = intlinalg.kernel_basis(boundary[-1])
        boundary.append(kernel * sparse(kernel.cols, rng.randint(0, 8)))
    return ChainComplex(boundary=tuple(boundary))


def test_reduction_matches_per_boundary_route_on_random_complexes():
    rng = random.Random(17)
    torsion = 0
    for _ in range(200):
        c = _random_complex(rng)
        assert is_chain_complex(c)
        before = [d.columns() for d in c.boundary]
        _agrees_with_per_boundary_route(c)
        assert [d.columns() for d in c.boundary] == before
        torsion += any(homology(c, k).torsion for k in range(c.top_dim + 1))
    assert torsion > 20


def test_content_division_matches_per_boundary_route_on_scaled_complexes():
    """The seeded random complexes with each boundary times its own g, which
    keeps d*d = 0: every residue then has content g or a multiple, which
    ``chain_invariants`` divides out before it sweeps again."""
    rng = random.Random(17)
    scaled_torsion = 0
    for _ in range(200):
        c = _random_complex(rng)
        scaled = ChainComplex(boundary=c.boundary[:1] + tuple(
            _times(d, rng.choice((2, 3, 4, 6))) for d in c.boundary[1:]))
        assert is_chain_complex(scaled)
        _agrees_with_per_boundary_route(scaled)
        scaled_torsion += any(len(homology(scaled, k).torsion) > len(homology(c, k).torsion)
                              for k in range(c.top_dim + 1))
    assert scaled_torsion > 100


def test_group_only_homology_builds_no_transforms(census_n, census_m, monkeypatch):
    """H1..H3 come from one unit-pivot reduction per complex, and neither
    complex runs a Smith form.  The double cover reduces to nothing; the
    base quotient leaves residues of d2 and d3 that are twice a matrix
    with unit pivots, which content division finishes on those units."""
    def forbidden(*args, **kwargs):
        raise AssertionError("group-only homology reached the generator path")

    for module in (chains, intlinalg):
        monkeypatch.setattr(module, "kernel_basis", forbidden)
        monkeypatch.setattr(module, "EchelonBasis", forbidden)
    reductions, smith = [], []
    real_reduction, real_smith = intlinalg.chain_invariants, intlinalg._smith

    def recording_reduction(maps):
        reductions.append(len(maps))
        return real_reduction(maps)

    def recording_smith(a, right):
        smith.append((a.rows, a.cols, right))
        return real_smith(a, right)

    monkeypatch.setattr(chains, "chain_invariants", recording_reduction)
    monkeypatch.setattr(chains, "_smith", recording_smith)
    monkeypatch.setattr(intlinalg, "_smith", recording_smith)
    chains._boundary_invariants.cache_clear()
    groups = [homology(census_m.chain, k) for k in (1, 2, 3)]
    assert groups == [AbelianGroup(5), AbelianGroup(10), AbelianGroup(4)]
    assert (reductions, smith) == ([4], [])
    groups = [homology(census_n.chain, k) for k in (1, 2, 3)]
    assert groups == [AbelianGroup(0, (2,) * 6), AbelianGroup(0, (2,) * 4), AbelianGroup(0)]
    assert reductions == [4, 4]
    assert smith == []


def test_generator_path_builds_only_the_transforms_it_reads(monkeypatch):
    """kernel_basis runs no Smith form; homology_basis runs one reduction
    without V and replays its log onto the kept rows of U and columns of
    U^-1 alone (``snf`` would replay onto every row)."""
    reductions, replays = [], []
    real_smith, real_transforms = intlinalg._smith, intlinalg._Reduction.transforms

    def recording_smith(a, right):
        reductions.append(right)
        return real_smith(a, right)

    def recording_transforms(self, kept):
        replays.append(list(kept))
        return real_transforms(self, kept)

    monkeypatch.setattr(chains, "_smith", recording_smith)
    monkeypatch.setattr(intlinalg, "_smith", recording_smith)
    monkeypatch.setattr(intlinalg._Reduction, "transforms", recording_transforms)
    c = klein_bottle()
    intlinalg.kernel_basis(c.boundary[1])
    assert reductions == replays == []
    assert homology_basis.__wrapped__(c, 1).group == AbelianGroup(1, (2,))
    # The Klein bottle's two cycles: one free generator, one of order 2.
    assert (reductions, replays) == ([False], [[1, 0]])


def _dense_generators(c: ChainComplex, k: int):
    """The generator path written densely, as an oracle: each column of the
    next boundary solved against the kernel basis column by column, then
    the whole product cycles * U^-1, from which the kept columns are read.

    Returns (group, generator matrix, coordinates function)."""
    cycles = intlinalg.kernel_basis(c.boundary[k])
    basis = [cycles.column(j) for j in range(cycles.cols)]

    def solve(target):
        residual = list(target)
        coeffs = []
        for col in basis:
            pivot_row = next(i for i, x in enumerate(col) if x != 0)
            q, rem = divmod(residual[pivot_row], col[pivot_row])
            assert rem == 0
            coeffs.append(q)
            residual = [r - q * x for r, x in zip(residual, col)]
        assert not any(residual)
        return tuple(coeffs)

    d_next = c.boundary_or_zero(k + 1)
    image = IntMatrix.from_columns([solve(d_next.column(j)) for j in range(d_next.cols)],
                                   rows=cycles.cols)
    decomp = intlinalg.snf(image)
    factors = decomp.D.diagonal_entries()
    rank = len(decomp.invariant_factors())
    orders = [factors[i] if i < rank else 0 for i in range(cycles.cols)]
    free = [i for i, d in enumerate(orders) if d == 0]
    torsion = [i for i, d in enumerate(orders) if d >= 2]
    adapted = cycles * intlinalg._smith(image, False).transforms(range(image.rows))[1]
    generators = IntMatrix.from_columns([adapted.column(i) for i in free + torsion],
                                        rows=c.cell_count(k))

    def coordinates(chain):
        x = decomp.U.apply(solve(chain))
        return (tuple(x[i] for i in free), tuple(x[i] % orders[i] for i in torsion))

    group = AbelianGroup(len(free), tuple(orders[i] for i in torsion))
    return group, generators, coordinates


def _agrees_with_dense_generators(c: ChainComplex, k: int, rng: random.Random) -> None:
    basis = homology_basis(c, k)
    group, generators, coordinates = _dense_generators(c, k)
    assert basis.group == group
    assert basis.cycles == generators
    for chain in generators.columns():
        assert basis.coordinates(chain) == coordinates(chain)
    # A random cycle mixes free and torsion classes (and boundaries).
    kernel = intlinalg.kernel_basis(c.boundary[k])
    if kernel.cols:
        chain = kernel.apply([rng.randint(-3, 3) for _ in range(kernel.cols)])
        assert basis.coordinates(chain) == coordinates(chain)


@pytest.mark.parametrize("make", [circle, torus_surface, three_torus, klein_bottle,
                                  projective_plane])
def test_generators_match_dense_reference_small(make):
    c = make()
    rng = random.Random(5)
    for k in range(c.top_dim + 1):
        _agrees_with_dense_generators(c, k, rng)
        # Equal complexes give equal bases, as values.
        assert homology_basis.__wrapped__(c, k) == homology_basis(c, k)


def test_generators_match_dense_reference_census(census_n, census_m):
    """The base quotient's Z_2^6 torsion generators and the cover's free
    ones, and every degree of every cusp section."""
    rng = random.Random(7)
    for q in (census_n, census_m):
        _agrees_with_dense_generators(q.chain, 1, rng)
        for section in cusp_sections(q):
            for k in range(section.chain.top_dim + 1):
                _agrees_with_dense_generators(section.chain, k, rng)


def test_generator_path_reads_the_kernel_once(census_m, monkeypatch):
    """The cover's H_1 generators: d_1 is an incidence matrix, so its
    kernel comes from a spanning forest and the next boundary's
    coordinates from its pivot rows.  No Hermite reduction runs, nothing
    is solved against the kernel, the kernel is read once, and only kept
    columns of cycles * U^-1 are formed, never the whole product."""
    kernel = intlinalg.kernel_basis(census_m.chain.boundary[1])
    z = kernel.cols
    product_widths, single_columns, all_columns, calls = [], [], [], []
    real_mul, real_column = IntMatrix.__mul__, IntMatrix.column
    real_columns, real_nonzero_columns = IntMatrix.columns, IntMatrix.nonzero_columns
    real_hermite, real_solve = intlinalg._hermite_rows, intlinalg.EchelonBasis.solve_nonzeros

    def recording_mul(self, other):
        product_widths.append(other.cols)
        return real_mul(self, other)

    def recording_column(self, j):
        single_columns.append(self)
        return real_column(self, j)

    def recording_columns(self):
        all_columns.append(self)
        return real_columns(self)

    def recording_nonzero_columns(self):
        all_columns.append(self)
        return real_nonzero_columns(self)

    def recording_hermite(rows):
        calls.append("_hermite_rows")
        return real_hermite(rows)

    def recording_solve(self, target):
        calls.append("solve_nonzeros")
        return real_solve(self, target)

    monkeypatch.setattr(IntMatrix, "__mul__", recording_mul)
    monkeypatch.setattr(IntMatrix, "column", recording_column)
    monkeypatch.setattr(IntMatrix, "columns", recording_columns)
    monkeypatch.setattr(IntMatrix, "nonzero_columns", recording_nonzero_columns)
    monkeypatch.setattr(intlinalg, "_hermite_rows", recording_hermite)
    monkeypatch.setattr(intlinalg.EchelonBasis, "solve_nonzeros", recording_solve)
    homology_basis.cache_clear()
    basis = homology_basis(census_m.chain, 1)
    assert basis.group == AbelianGroup(5)
    assert calls == []
    assert z not in product_widths
    assert single_columns == []
    assert sum(m == kernel for m in all_columns) == 1
    chain = basis.cycles.column(0)
    all_columns.clear()
    assert basis.coordinates(chain) == ((1, 0, 0, 0, 0), ())
    assert all_columns == []


def test_homology_basis_coordinates_roundtrip():
    c = three_torus()
    basis = homology_basis(c, 1)
    assert basis.group == AbelianGroup(3)
    for j in range(3):
        free, torsion = basis.coordinates(basis.cycles.column(j))
        assert torsion == ()
        assert free == tuple(1 if i == j else 0 for i in range(3))
    # Torsion coordinates are reduced mod the invariant factor.
    rp2 = homology_basis(projective_plane(), 1)
    assert rp2.group == AbelianGroup(0, (2,))
    assert rp2.coordinates((1,)) == ((), (1,))
    assert rp2.coordinates((2,)) == ((), (0,))
    assert rp2.coordinates((-1,)) == ((), (1,))


def test_homology_basis_rejects_non_cycle():
    d1 = IntMatrix([[1], [-1]])
    c = ChainComplex(boundary=(empty_boundary(2), d1))
    basis = homology_basis(c, 1)
    with pytest.raises(ValueError):
        basis.coordinates((1,))


def test_homology_basis_rejects_non_complex():
    """When d_1 d_2 != 0, degree 1 is refused with one message on both
    routes: through the forest, d_1 an incidence matrix, and through
    Hermite, d_1 not one (d_1 = (2), d_2 = (2) among them)."""
    for d1, d2 in ((IntMatrix([[1], [-1]]), IntMatrix([[1]])),
                   (IntMatrix([[2], [0]]), IntMatrix([[1]])),
                   (IntMatrix([[2]]), IntMatrix([[2]]))):
        c = ChainComplex(boundary=(empty_boundary(d1.rows), d1, d2))
        with pytest.raises(ValueError, match=r"boundary\[2\] has a column that is not a cycle"):
            homology_basis(c, 1)


def test_complex_refuses_boundaries_whose_shapes_do_not_chain():
    """3 vertices but a d_1 with one row: ``homology(c, 0)`` used to answer
    Z^2 for it.  A mismatch higher up is refused the same way, and so is a
    d_0 with a row, as d_0 maps to the zero group."""
    with pytest.raises(ValueError, match=r"^boundary\[0\] must have zero rows$"):
        ChainComplex(boundary=(IntMatrix.zero(1, 1),))
    with pytest.raises(ValueError, match=r"boundary\[1\] row count 1 is not dimension 0's "
                                         r"cell count 3"):
        ChainComplex(boundary=(IntMatrix([], cols=3), IntMatrix([[1, -1]]),
                               IntMatrix([[1], [1]])))
    with pytest.raises(ValueError, match=r"boundary\[2\] row count 2 is not dimension 1's "
                                         r"cell count 1"):
        ChainComplex(boundary=(empty_boundary(2), IntMatrix([[1], [-1]]),
                               IntMatrix([[1], [1]])))


def test_homology_refuses_a_negative_free_rank():
    """d_1 = (2) and d_2 = (2) compose to 4, so no complex: the ranks would
    give H_1 a free rank of 1 - 1 - 1 = -1."""
    c = ChainComplex(boundary=(empty_boundary(1), IntMatrix([[2]]), IntMatrix([[2]])))
    with pytest.raises(ValueError, match="free rank"):
        homology(c, 1)


def test_public_names_resolve():
    assert all(hasattr(dehn24, name) for name in dehn24.__all__)


def _annotated(module):
    """The functions, methods and classes that ``module`` defines."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, type):
            yield value
            for member in vars(value).values():
                # Static and class methods keep the function in __func__,
                # properties in fget, cached properties in func.
                for name in ("__func__", "fget", "func"):
                    member = getattr(member, name, member)
                if inspect.isfunction(inspect.unwrap(member)):
                    yield member
        elif inspect.isfunction(inspect.unwrap(value)):
            yield value


def test_every_annotation_resolves():
    """``typing.get_type_hints`` evaluates the annotations of every function,
    method and class of the package: each names what its module defines
    or imports.  The package itself never imports ``typing``."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "dehn24"
    unresolved = []
    for path in sorted(package.glob("[!_]*.py")):
        for value in _annotated(importlib.import_module(f"dehn24.{path.stem}")):
            try:
                typing.get_type_hints(value)
            except NameError as error:
                unresolved.append(f"{path.name}: {value.__qualname__}: {error}")
    assert unresolved == []


def _named_in_strings(tree: ast.AST) -> collections.Counter:
    """String constants spelled as identifiers (as ``getattr`` or a
    monkeypatch names them), docstrings aside."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)}
    return collections.Counter(
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.isidentifier() and id(node) not in docstrings)


def _identifiers(tree: ast.AST) -> collections.Counter:
    """Names the code uses: ``Name`` ids read, ``Attribute`` attrs, import aliases,
    and identifiers named in strings.  Comments never count."""
    used = _named_in_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rpartition(".")[2]] += 1
    return used


def _defined_names(tree: ast.Module):
    """(line, name) of each function, method or class, and of each
    module-level assignment target."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    yield stmt.lineno, node.id


def _unread_names(package, pipeline) -> list[str]:
    """``file:line name`` for each non-dunder name defined in the ``package``
    files that no ``pipeline`` file reads."""
    used = collections.Counter()
    for path in pipeline:
        used += _identifiers(ast.parse(path.read_text("utf-8")))
    return [f"{path.name}:{lineno} {name}"
            for path in package
            for lineno, name in sorted(_defined_names(ast.parse(path.read_text("utf-8"))))
            if not (name.startswith("__") and name.endswith("__")) and not used[name]]


def _pipeline_files() -> list[pathlib.Path]:
    """The pipeline: the package outside its ``__init__``, the demos, the
    benchmark and the acceptance gate."""
    root = pathlib.Path(__file__).resolve().parents[1]
    return [path for top in ("src", "demos", "perfbench")
            for path in sorted((root / top).rglob("*.py")) if path.name != "__init__.py"
            ] + [root / "tests" / "test_acceptance.py"]


def test_every_function_is_named_outside_its_def():
    """Each non-dunder function, method, class or module-level name of the
    package is read by the pipeline.  A name only unit tests read, or only
    prose mentions, is code the pipeline does not need."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "dehn24"
    assert _unread_names(sorted(package.glob("*.py")), _pipeline_files()) == []


def test_every_public_name_is_read_by_the_pipeline():
    """Each name in ``dehn24.__all__`` is read by the pipeline: the public
    surface is what the pipeline runs, not what only unit tests call."""
    used = collections.Counter()
    for path in _pipeline_files():
        used += _identifiers(ast.parse(path.read_text("utf-8")))
    assert [name for name in dehn24.__all__ if not used[name]] == []


def test_name_guard_on_a_fixture(tmp_path):
    """A method only a unit test reads is flagged, one the gate reads
    passes, and a name only a docstring or comment mentions does not count."""
    files = {
        "module.py": ("RANK = 3\n"
                      "class Lattice:\n"
                      "    def row(self): pass\n"
                      "    def dump(self): pass\n"
                      "    def only_unit(self): pass\n"
                      "    def __repr__(self): pass\n"
                      "def orphan(): pass\n"),
        "pipeline.py": ('"""Calls orphan."""\n'
                        "def f(m):\n"
                        "    # orphan() would go here\n"
                        "    return m.row, RANK, Lattice\n"),
        "test_acceptance.py": "def test_gate(lattice):\n    assert lattice.dump()\n",
        "test_unit.py": "def test_unit(lattice):\n    assert lattice.only_unit(orphan)\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    package = [tmp_path / "module.py"]
    pipeline = [tmp_path / "pipeline.py", tmp_path / "test_acceptance.py"]
    assert _unread_names(package, pipeline) == ["module.py:5 only_unit", "module.py:7 orphan"]
    assert _unread_names(package, pipeline[:1]) == [
        "module.py:4 dump", "module.py:5 only_unit", "module.py:7 orphan"]
    assert _unread_names(package, pipeline + [tmp_path / "test_unit.py"]) == []


def test_identifier_guard_ignores_prose():
    code = ('"""Module doc names orphan."""\n'
            "import os.path as osp\n"
            "# orphan in a comment\n"
            "def f(m):\n"
            '    """f docstring: orphan."""\n'
            '    print("the orphan word")\n'
            '    return getattr(m, "column"), m.row, osp, rank\n')
    used = _identifiers(ast.parse(code))
    assert "orphan" not in used and "word" not in used
    assert used["column"] == used["row"] == used["rank"] == used["path"] == 1


def test_guard_reads_module_assignments():
    tree = ast.parse("A, B = 1, 2\nC: int = A\nD = {}\nD[0] = B\ndef f():\n    E = 3\n"
                     "class K:\n    def g(self):\n        pass\n")
    assert [name for _, name in _defined_names(tree)] == ["f", "K", "g", "A", "B", "C", "D"]
    used = _identifiers(tree)
    assert (used["A"], used["B"], used["C"], used["D"], used["E"]) == (1, 1, 0, 1, 0)


# The kinds ``polytope.truncate`` writes into a face's provenance.
PROVENANCE_KINDS = {"flag", "edge", "corner_edge", "triangle", "vertex_facet", "vertex",
                    "facet", "body"}


def _provenance_kinds_named(tree: ast.AST) -> collections.Counter:
    """Provenance kinds spelled as string constants, docstrings aside."""
    return collections.Counter({word: n for word, n in _named_in_strings(tree).items()
                                if word in PROVENANCE_KINDS})


def test_only_polytope_names_provenance_kinds():
    """Cusp membership and facet lookups read provenance through
    ``polytope`` alone, so no other module of the package spells a kind."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "dehn24"
    named = {path.name: _provenance_kinds_named(ast.parse(path.read_text("utf-8")))
             for path in sorted(package.glob("*.py"))}
    assert set(named.pop("polytope.py")) == PROVENANCE_KINDS
    assert {name: sorted(kinds) for name, kinds in named.items() if kinds} == {}


def test_provenance_guard_ignores_prose():
    code = ('"""The vertex and facet kinds."""\n'
            "def f(label):\n"
            '    """f docstring: vertex."""\n'
            '    # "corner_edge" in a comment\n'
            '    print("a vertex of the facet")\n'
            '    return label[0] == "vertex_facet", {"flag", "cell"}\n')
    assert _provenance_kinds_named(ast.parse(code)) == {"vertex_facet": 1, "flag": 1}


def _class_fields(tree: ast.AST):
    """(line, name) of each annotated field in a class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield stmt.lineno, stmt.target.id


def _attribute_reads(tree: ast.AST) -> collections.Counter:
    """Attributes read (not assigned) and identifiers named in strings."""
    reads = _named_in_strings(tree)
    reads.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    return reads


def test_every_class_field_is_read():
    """Each annotated field of a package class is read as an attribute, or
    named in a string, by code in the package, demos, benchmark or tests;
    a constructor keyword or an assignment does not count."""
    root = pathlib.Path(__file__).resolve().parents[1]
    reads = collections.Counter()
    for top in ("src", "demos", "perfbench", "tests"):
        for path in sorted((root / top).rglob("*.py")):
            reads += _attribute_reads(ast.parse(path.read_text("utf-8")))
    unread = [f"{path.name}:{lineno} {name}"
              for path in sorted((root / "src" / "dehn24").glob("*.py"))
              for lineno, name in _class_fields(ast.parse(path.read_text("utf-8")))
              if not reads[name]]
    assert unread == []


def test_field_guard_counts_reads_not_keywords():
    tree = ast.parse("class P:\n    a: int\n    b: int = 0\n    c: int\n    d: int\n"
                     "    def f(self):\n        return self.a\n"
                     "p = P(b=1, c=2)\np.c = 3\ngetattr(p, 'd')\n")
    assert [name for _, name in _class_fields(tree)] == ["a", "b", "c", "d"]
    reads = _attribute_reads(tree)
    assert (reads["a"], reads["b"], reads["c"], reads["d"]) == (1, 0, 0, 1)


def _write_only_locals(tree: ast.AST) -> list[str]:
    """Locals bound to a fresh dict, list or set and then only item-assigned."""
    fresh = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own, stack = [], list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
                continue
            own.append(node)
            stack.extend(ast.iter_child_nodes(node))
        stores = {id(node.value) for node in ast.walk(func)
                  if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)}
        for node in own:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target = node.target
            else:
                continue
            value = node.value
            if not (isinstance(target, ast.Name)
                    and (isinstance(value, fresh)
                         or (isinstance(value, ast.Call) and not value.args
                             and isinstance(value.func, ast.Name)
                             and value.func.id in ("dict", "list", "set")))):
                continue
            uses = [n for n in ast.walk(func)
                    if isinstance(n, ast.Name) and n.id == target.id and n is not target]
            if all(id(n) in stores for n in uses):
                found.append(f"{func.name} {target.id}")
    return found


def test_no_local_is_written_and_never_read():
    """A fresh container that is only ever item-assigned is a dead store."""
    root = pathlib.Path(__file__).resolve().parents[1]
    found = [entry for path in sorted((root / "src" / "dehn24").glob("*.py"))
             for entry in _write_only_locals(ast.parse(path.read_text("utf-8")))]
    assert found == []


def test_write_only_guard_spots_dead_stores_not_aliases():
    dead = ("def f(keys):\n    seen = {}\n    for k in keys:\n        seen[k] = 1\n"
            "    return keys\n")
    alias = ("def add_row(self, i, j):\n    di = self.d[i]\n"
             "    for c in range(3):\n        di[c] += self.d[j][c]\n")
    read = ("def g(keys):\n    seen = set()\n    out = {}\n    for k in keys:\n"
            "        out[k] = k in seen\n    return out\n")
    assert _write_only_locals(ast.parse(dead)) == ["f seen"]
    assert _write_only_locals(ast.parse(alias)) == []
    assert _write_only_locals(ast.parse(read)) == []
