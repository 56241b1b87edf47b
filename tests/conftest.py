import pytest

from lattice_spectra.catalog import GeneratorConfig, enumerate_lattices, named_lattices


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
