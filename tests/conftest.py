import pytest

from lattice_spectra import duality, suites
from lattice_spectra.catalog import GeneratorConfig, enumerate_lattices, named_lattices


def replaced(record, **changes):
    """A copy of the plain record ``record`` (a ``FiniteLattice`` or a
    ``BitopSpectrum``) with ``changes`` applied: ``_replace`` for the records
    that are not NamedTuples.  The class annotations list the fields in
    constructor order."""
    fields = {f: getattr(record, f) for f in type(record).__annotations__}
    return type(record)(**{**fields, **changes})


@pytest.fixture(autouse=True)
def _fresh_reconstruction_verdicts(request):
    """The reconstruction map and its verdicts are cached per space value,
    so a test that plants a fault starts and ends with those caches empty:
    a planted verdict neither hides behind an earlier one nor outlives it."""
    caches = (duality.big_h_map, suites.comaximal_witness, suites.reconstruction_witness)
    planting = "monkeypatch" in request.fixturenames
    for fn in caches if planting else ():
        fn.cache_clear()
    yield
    for fn in caches if planting else ():
        fn.cache_clear()


@pytest.fixture(scope="session")
def cat():
    return named_lattices()


@pytest.fixture(scope="session")
def m5(cat):
    return cat["m5"]


@pytest.fixture(scope="session")
def n5(cat):
    return cat["n5"]


@pytest.fixture(scope="session")
def diamond(cat):
    return cat["diamond"]


@pytest.fixture(scope="session")
def chain1(cat):
    return cat["chain1"]


@pytest.fixture(scope="session")
def chain2(cat):
    return cat["chain2"]


@pytest.fixture(scope="session")
def chain3(cat):
    return cat["chain3"]


@pytest.fixture(scope="session")
def lattices_upto_4():
    return list(enumerate_lattices(GeneratorConfig("exhaustive", 4)))


@pytest.fixture(scope="session")
def lattices_upto_5():
    return list(enumerate_lattices(GeneratorConfig("exhaustive", 5)))


@pytest.fixture(scope="session")
def lattices_upto_6():
    return list(enumerate_lattices(GeneratorConfig("exhaustive", 6)))
