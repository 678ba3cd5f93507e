"""Shared fixtures: the bundled census pairing, its two quotients and the
two demos, loaded as modules; and ``is_chain_complex``, the d∘d = 0 check."""

import importlib.util
import sys
from pathlib import Path

import pytest

from dehn24.gluing import census_pairing, quotient_complex
from dehn24.peripheral import peripheral_system


def is_chain_complex(c) -> bool:
    """Whether each boundary maps onto the cells one dimension down and
    every composite d_(k-1) d_k is zero."""
    d = c.boundary
    return (all(d[k].rows == d[k - 1].cols for k in range(1, len(d)))
            and all((d[k - 1] * d[k]).is_zero() for k in range(2, len(d))))


@pytest.fixture(scope="session")
def census_spec():
    return census_pairing()


@pytest.fixture(scope="session")
def census_n(census_spec):
    """Quotient of a single copy (the nonorientable manifold)."""
    return quotient_complex(census_spec)


@pytest.fixture(scope="session")
def census_m(census_spec):
    """Quotient of the orientation double cover."""
    return quotient_complex(census_spec, copies=2)


@pytest.fixture(scope="session")
def census_system(census_m):
    """Peripheral structure of the double cover, all five cusps."""
    return peripheral_system(census_m)


def _demo(name):
    """``demos/<name>.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "demos" / f"{name}.py"
    loader = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def search_demo():
    return _demo("search_side_pairings")


@pytest.fixture(scope="session")
def walkthrough_demo():
    return _demo("homology_sphere_walkthrough")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance verdict lines after the run, uncaptured."""
    module = sys.modules.get("test_acceptance")
    if module is None or not module.VERDICTS:
        return
    terminalreporter.section("acceptance verdicts")
    for line in module.VERDICTS:
        terminalreporter.write_line(line)
