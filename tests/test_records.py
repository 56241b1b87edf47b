"""What the records keep: value equality and hashing, reprs, the one
self-validating constructor, and no attribute assigned after construction."""

import ast
import inspect
from pathlib import Path

import pytest

import lattice_spectra
from lattice_spectra.catalog import GeneratorConfig
from lattice_spectra.errors import SizeBoundExceeded
from lattice_spectra.spectra import build_bitop_spectrum
from lattice_spectra.topology import FiniteTopology, bitop_space

from conftest import replaced
from test_suites import _corrupt


def test_lattice_name_sits_outside_equality(cat):
    lat = cat["m5"]
    twin = replaced(lat, name="twin")
    assert twin is not lat and twin.name == "twin"
    assert twin == lat and hash(twin) == hash(lat)
    assert hash(lat) == hash((lat.names, lat.up, lat.meet_table, lat.join_table, lat.bottom, lat.top))
    # every lru_cache keys on the tables: the twin finds the lattice's entry
    assert build_bitop_spectrum(twin) is build_bitop_spectrum(lat)


@pytest.mark.parametrize(
    "change",
    [
        lambda lat: _corrupt(lat, "meet_table", 1, 2, 1),
        lambda lat: _corrupt(lat, "join_table", 1, 2, 1),
        lambda lat: replaced(lat, up=(lat.up[0] & ~2, *lat.up[1:])),
        lambda lat: replaced(lat, names=("z", *lat.names[1:])),
        lambda lat: replaced(lat, bottom=lat.top),
        lambda lat: replaced(lat, top=lat.bottom),
    ],
)
def test_lattice_differing_in_one_table_entry_is_another_key(cat, change):
    lat = cat["m5"]
    other = change(lat)
    assert other != lat and lat != other
    assert build_bitop_spectrum(other) is not build_bitop_spectrum(lat)


def test_plain_records_compare_by_value_and_only_with_their_class(cat):
    lat = cat["diamond"]
    spec = build_bitop_spectrum(lat)
    tau = spec.space.tau
    assert FiniteTopology(tuple(tau.up)) == tau and hash(FiniteTopology(tuple(tau.up))) == hash(tau)
    assert FiniteTopology((1,)) != FiniteTopology((1, 2))
    assert replaced(spec) == spec and hash(replaced(spec)) == hash(spec)
    assert replaced(spec, epsilon=tuple(e ^ 1 for e in spec.epsilon)) != spec
    for record in (lat, tau, spec):
        assert record.__eq__(object()) is NotImplemented
        assert record != (record,)


def test_record_reprs(cat):
    chain2 = cat["chain2"]
    spec = build_bitop_spectrum(chain2)
    top = FiniteTopology((1, 3))
    assert repr(chain2) == "<FiniteLattice chain2 n=2>"
    assert repr(top) == "FiniteTopology(up=(1, 3))"
    assert repr(bitop_space(top, top)) == "BitopSpace(tau=FiniteTopology(up=(1, 3)), sigma=FiniteTopology(up=(1, 3)))"
    assert repr(spec.points[0]) == "ComaximalPair(lattice=<FiniteLattice chain2 n=2>, a=0, b=1)"
    assert repr(spec) == (
        f"BitopSpectrum(lattice={chain2!r}, points={spec.points!r}, delta={spec.delta!r},"
        f" epsilon={spec.epsilon!r}, space={spec.space!r})"
    )


def test_generator_config_signature_and_fields():
    params = inspect.signature(GeneratorConfig).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        ("mode", inspect.Parameter.empty),
        ("max_size", inspect.Parameter.empty),
        ("seed", None),
        ("count", None),
    ]
    config = GeneratorConfig("random", 7, seed=3, count=6)
    assert (config.mode, config.max_size, config.seed, config.count) == ("random", 7, 3, 6)
    config = GeneratorConfig("exhaustive", 6)
    assert (config.mode, config.max_size, config.seed, config.count) == ("exhaustive", 6, None, None)


@pytest.mark.parametrize(
    "args, kwargs, error, text",
    [
        (("bogus", 3), {}, ValueError, "mode is 'exhaustive' or 'random'"),
        (("exhaustive", 0), {}, ValueError, "max_size must be positive"),
        (("random", 0), {"seed": 1, "count": 1}, ValueError, "max_size must be positive"),
        (("exhaustive", 7), {}, SizeBoundExceeded, "exhaustive enumeration is bounded at 6 elements"),
        (("random", 5), {"count": 3}, ValueError, "random mode requires a seed"),
        (("random", 5), {"seed": 1}, ValueError, "random mode requires a positive count"),
        (("random", 5), {"seed": 1, "count": 0}, ValueError, "random mode requires a positive count"),
    ],
)
def test_generator_config_errors(args, kwargs, error, text):
    with pytest.raises(error) as info:
        GeneratorConfig(*args, **kwargs)
    assert type(info.value) is error and str(info.value) == text


def _attribute_write(node) -> bool:
    """Whether ``node`` stores or deletes an attribute: ``x.a = ...``,
    ``del x.a``, ``setattr``/``delattr`` (or the dunders) and writes into
    ``x.__dict__``."""
    writing = (ast.Store, ast.Del)
    if isinstance(node, ast.Attribute):
        return isinstance(node.ctx, writing)
    if isinstance(node, ast.Subscript):
        target = node.value
        return isinstance(node.ctx, writing) and isinstance(target, ast.Attribute) and target.attr == "__dict__"
    if isinstance(node, ast.Call):
        name = ast.unparse(node.func).rsplit(".", 1)[-1]
        return name in ("setattr", "delattr", "__setattr__", "__delattr__")
    return False


def test_attributes_are_assigned_only_in_constructors():
    # no record is frozen by its class, so this lint stands in: outside an
    # ``__init__`` nothing in the package stores or deletes an attribute
    package = Path(lattice_spectra.__file__).parent
    found, inside = [], 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inits = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
        for node in filter(_attribute_write, ast.walk(tree)):
            if any(f.lineno <= node.lineno <= f.end_lineno for f in inits):
                inside += 1
            else:
                found.append(f"{path.stem}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
    assert inside > 0  # the constructors' own stores, so the scan sees stores
