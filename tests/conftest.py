import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from finq.lattice import boolean, chain, m_lattice, n5

# the same examples on every run and no example database: tier-1 stays
# deterministic; each test keeps its own max_examples
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def m3():
    return m_lattice(3)


@pytest.fixture(scope="session")
def m4():
    return m_lattice(4)


@pytest.fixture(scope="session")
def pentagon():
    return n5()


@pytest.fixture(scope="session")
def small_lattices():
    """Every battery lattice with at most 5 elements."""
    return [chain(1), chain(2), chain(3), chain(4), chain(5),
            boolean(2), m_lattice(2), m_lattice(3), n5()]


@pytest.fixture
def spy(monkeypatch):
    """spy(name) replaces the function name, in every finq module that
    binds it, with a wrapper that logs each call's positional arguments
    and calls the original; it returns the log, a list to read or clear."""
    def install(name):
        modules = [module for key, module in sorted(sys.modules.items())
                   if key.startswith("finq.") and hasattr(module, name)]
        real = getattr(modules[0], name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, wrapper)
        return calls
    return install
