"""Record semantics of every package class, and the cold-start contract.

Every class in ``src/dehn24`` that derives from ``Record`` is sampled
from the census pipeline and checked for immutability, value or
identity equality, and construction.  The package imports neither
``dataclasses`` nor ``inspect`` and generates no code, so a cold command
pays for none of it.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from dehn24.chains import ChainComplex, HomologyBasis, homology_basis
from dehn24.cli import RunConfig
from dehn24.filling import FillingError, FillingSlopes, adapted_slopes, is_homology_sphere
from dehn24.flatgeom import (
    FlatGeometryError,
    FlatLattice,
    SlopeLength,
    develop_lattice,
    slope_length,
)
from dehn24.gluing import geometry, orientation_character, presentation
from dehn24.intlinalg import AbelianGroup, IntMatrix, snf
from dehn24.peripheral import cusp_sections
from dehn24.polytope import TruncatedLattice, build_24cell, truncate
from dehn24.record import Record

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dehn24"
IDENTITY = {"CellModel", "Geometry", "QuotientComplex", "CuspSection"}


@pytest.fixture(scope="module")
def samples(census_spec, census_m, census_system):
    """One instance of every record class, by class name."""
    section = cusp_sections(census_m)[0]
    lattice = develop_lattice(section)
    slopes = adapted_slopes(census_system, [(0, 0)] * 5)
    return {sample.__class__.__name__: sample for sample in (
        census_m.chain, homology_basis(census_m.chain, 1), RunConfig(copies=2),
        slopes, is_homology_sphere(census_system, slopes, 2, True),
        lattice, slope_length(lattice, (1, 0, 0)),
        census_spec.pairings[0], census_spec, geometry("ideal24").model, geometry("ideal24"),
        orientation_character(census_spec), census_m, presentation(census_spec),
        snf(IntMatrix([[2, 4], [6, 8]])), AbelianGroup(0, (2, 4)),
        section, census_system, build_24cell(), truncate())}


def _record_classes() -> set[str]:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"dehn24.{path.stem}")
        found |= {name for name, value in vars(module).items()
                  if isinstance(value, type) and issubclass(value, Record)
                  and value is not Record and value.__module__ == module.__name__}
    return found


def _rebuilt(record, **changes):
    """A new record of the same class from the same fields, some changed."""
    values = {name: getattr(record, name) for name in record._fields}
    values.update(changes)
    return type(record)(*values.values())


def test_every_record_class_is_sampled(samples):
    assert _record_classes() == set(samples)
    assert IDENTITY <= set(samples)


def test_fields_cannot_be_assigned_or_deleted(samples):
    for record in samples.values():
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.unknown = 1


def test_value_records_compare_by_fields(samples):
    for name, record in samples.items():
        copy = _rebuilt(record)
        if name in IDENTITY:
            assert copy != record and record == record
            assert hash(record) == object.__hash__(record)
        else:
            assert copy is not record and copy == record and hash(copy) == hash(record)
            assert record != object()


def test_changed_field_breaks_equality():
    assert AbelianGroup(0, (2,)) != AbelianGroup(0, (4,))
    assert RunConfig(copies=2) != RunConfig()
    assert FlatLattice(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 2) != FlatLattice(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_derived_fields_skip_equality_and_hidden_fields_skip_repr(samples):
    basis, lattice = samples["HomologyBasis"], samples["TruncatedLattice"]
    assert isinstance(basis, HomologyBasis) and isinstance(lattice, TruncatedLattice)
    other = _rebuilt(basis, _kernel=None)
    assert other == basis and hash(other) == hash(basis)
    other = _rebuilt(lattice, _flag_index={})
    assert other == lattice and hash(other) == hash(lattice)
    assert _rebuilt(basis, _orders=()) != basis
    text = repr(basis)
    assert text.startswith("HomologyBasis(group=AbelianGroup(free_rank=5, torsion=()), dim=1, ")
    assert not any(name in text for name in ("_kernel", "_to_adapted", "_orders", "_boundary"))
    assert "_flag_index" not in repr(lattice) and "provenance=" in repr(lattice)


def test_positional_keyword_and_default_construction():
    assert AbelianGroup(3) == AbelianGroup(free_rank=3) == AbelianGroup(3, torsion=())
    assert repr(AbelianGroup(0, (2, 2))) == "AbelianGroup(free_rank=0, torsion=(2, 2))"
    config = RunConfig()
    assert (config.pairing, config.copies, config.box, config.scale, config.balance_c,
            config.format, config.coefficients) == (None, 1, (), 1, None, "table", ())
    assert RunConfig(None, 2) == RunConfig(copies=2)
    lattice = FlatLattice(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert lattice.scale == 1 and lattice == FlatLattice(lattice.basis, scale=1)
    length = SlopeLength((1, 0, 0), 1, 1, 1)
    assert length == SlopeLength(slope=[True, 0, 0], squared=Fraction(1), lower=1, upper=1)
    assert type(length.slope[0]) is int and type(length.upper) is Fraction


@pytest.mark.parametrize("build", [
    lambda: RunConfig(None, 1, (), 1, None, "table", (), "extra"),
    lambda: RunConfig(colour="red"),
    lambda: RunConfig(None, pairing="x"),
    lambda: ChainComplex(),
    lambda: AbelianGroup(),
    lambda: SlopeLength((1, 0, 0), 1, 1),
])
def test_bad_construction_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_post_init_checks_still_refuse():
    with pytest.raises(FlatGeometryError, match="out of order"):
        SlopeLength((1, 0, 0), 1, 2, 1)
    with pytest.raises(FlatGeometryError, match="bracket"):
        SlopeLength((1, 0, 0), 5, 1, 2)
    with pytest.raises(FlatGeometryError, match="3 x 3"):
        FlatLattice(((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="invariant factors"):
        AbelianGroup(0, (2, 3))
    with pytest.raises(ValueError, match="at least dimension 0"):
        ChainComplex(())
    with pytest.raises(FillingError, match="not primitive"):
        FillingSlopes(((2, 0, 0),))


def _loaded_modules(code: str) -> set[str]:
    """Modules a fresh interpreter without ``site`` holds after ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "demos")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@pytest.mark.parametrize("code", ["import dehn24.cli", "import search_side_pairings"])
def test_cold_start_imports_no_class_generator(code):
    """The CLI and the search demo load neither ``dataclasses`` nor
    ``inspect``, which together cost a cold process about 35 ms."""
    loaded = _loaded_modules(code)
    assert "dehn24.gluing" in loaded
    assert {"dataclasses", "inspect"} & loaded == set()


def test_cold_census_pairing_imports_no_resources_or_typing():
    """The bundled pairing is read next to the package, and annotation
    names come from ``collections.abc``: a cold ``fill`` loads none of
    ``importlib.resources``, ``typing``, ``tempfile`` or ``zipfile``."""
    loaded = _loaded_modules("import dehn24.cli\n"
                             "from dehn24.gluing import census_pairing\n"
                             "census_pairing()")
    assert "dehn24.gluing" in loaded
    assert {"typing", "importlib.resources", "tempfile", "zipfile"} & loaded == set()


def test_no_module_generates_code():
    calls = [f"{path.name}:{node.lineno} {node.func.id}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("exec", "eval", "compile")]
    assert calls == []
