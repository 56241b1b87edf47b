import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_spectra.catalog import (
    GeneratorConfig,
    canonical_form,
    enumerate_lattices,
    parse_hom,
    parse_lattice,
    parse_lattice_doc,
    render_lattice,
    to_dot,
)
from lattice_spectra.errors import (
    MissingMapping,
    NotAHom,
    NotALattice,
    ParseError,
    SizeBoundExceeded,
    UnknownElement,
)
from lattice_spectra.lattices import build_lattice, is_distributive
from lattice_spectra.spectra import build_bitop_spectrum, build_classical_spectrum

from oracles import count_lattices_brute, is_lattice_up_masks, labeled_posets_brute, validate_dot


M5_DOC = """\
lattice m5
elements 0 a b c 1
cover 0 a
cover 0 b
cover 0 c
cover a 1   # top covers
cover b 1
cover c 1
"""


# --- parsing -----------------------------------------------------------------


def test_parse_m5_document(m5):
    lat = parse_lattice(M5_DOC)
    assert lat == m5


def test_parse_reports_reflexive_cover():
    doc = "lattice bad\nelements a b\ncover a a\n"
    with pytest.raises(ParseError) as exc:
        parse_lattice(doc)
    assert exc.value.line == 3


def test_parse_unknown_element():
    doc = "lattice bad\nelements a b\ncover a z\n"
    with pytest.raises(UnknownElement) as exc:
        parse_lattice(doc)
    assert exc.value.name == "z"


def test_parse_missing_lub_propagates():
    doc = "lattice v\nelements 0 a b\ncover 0 a\ncover 0 b\n"
    with pytest.raises(NotALattice):
        parse_lattice(doc)


def test_parse_duplicate_elements_line():
    doc = "lattice x\nelements a\nelements b\n"
    with pytest.raises(ParseError):
        parse_lattice(doc)


def test_doc_fields():
    doc = parse_lattice_doc(M5_DOC)
    assert doc.name == "m5"
    assert doc.element_names == ("0", "a", "b", "c", "1")
    assert ("a", "1") in doc.covers


def test_roundtrip_catalog(cat):
    for lat in cat.values():
        assert parse_lattice(render_lattice(lat)) == lat


def test_roundtrip_generated(lattices_upto_5):
    for lat in lattices_upto_5:
        assert parse_lattice(render_lattice(lat)) == lat


# --- hom files -----------------------------------------------------------------


def test_parse_hom_valid(chain2, m5):
    text = "hom inc from chain2 to m5\nmap 0 0\nmap 1 a\n"
    hom = parse_hom(text, chain2, m5)
    assert hom.mapping == (0, m5.index("a"))


def test_parse_hom_missing_mapping(chain2, m5):
    with pytest.raises(MissingMapping):
        parse_hom("hom inc from chain2 to m5\nmap 0 0\n", chain2, m5)


def test_parse_hom_not_a_hom(chain2):
    with pytest.raises(NotAHom):
        parse_hom("hom rev from chain2 to chain2\nmap 0 1\nmap 1 0\n", chain2, chain2)


def test_parse_hom_wrong_lattice_name(chain2, m5):
    with pytest.raises(ParseError):
        parse_hom("hom inc from other to m5\nmap 0 0\nmap 1 a\n", chain2, m5)


def test_parse_hom_requires_header(chain2, m5):
    with pytest.raises(ParseError) as exc:
        parse_hom("map 0 0\nmap 1 a\n", chain2, m5)
    assert (exc.value.line, str(exc.value)) == (1, "line 1: missing 'hom' line")


# --- catalog -------------------------------------------------------------------


def test_catalog_contents(cat):
    assert cat["m5"].n == 5
    assert cat["n5"].n == 5
    assert cat["b3"].n == 8
    assert {f"chain{k}" for k in range(1, 6)} <= set(cat)
    assert cat["m5_doubled_arm"].n == 6
    assert cat["hexagon"].n == 6
    # product members really are products of the listed small lattices
    assert cat["chain2xchain3"].n == 6
    assert cat["m5xchain2"].n == 10


def test_catalog_module_is_not_shadowed():
    import types

    import lattice_spectra.catalog as module

    assert isinstance(module, types.ModuleType)
    assert module.named_lattices()["m5"].n == 5


def test_catalog_distributivity_split(cat):
    distributive = {k for k, v in cat.items() if is_distributive(v).distributive}
    assert distributive == {
        "chain1", "chain2", "chain3", "chain4", "chain5",
        "diamond", "b3", "chain2xchain3", "chain3xchain3",
    }


# --- enumeration ----------------------------------------------------------------


def test_exhaustive_counts_match_brute_force(lattices_upto_4, lattices_upto_5):
    from collections import Counter

    by_size = Counter(lat.n for lat in lattices_upto_5)
    for n in range(1, 6):
        assert by_size[n] == count_lattices_brute(n), n
    assert len(lattices_upto_4) == 5
    assert len(lattices_upto_5) == 10


def test_exhaustive_six_count(lattices_upto_6):
    # unlabeled lattice counts per size: 1, 1, 1, 2, 5, 15
    from collections import Counter

    by_size = Counter(lat.n for lat in lattices_upto_6)
    assert by_size[6] == 15
    assert len(lattices_upto_6) == 25


def test_exhaustive_counts_up_to_seven():
    # OEIS A006966, past the public bound: one pass of the search yields them all
    from collections import Counter

    from lattice_spectra.catalog import _exhaustive

    by_size = Counter(lat.n for lat in _exhaustive(7))
    assert [by_size[n] for n in range(1, 8)] == [1, 1, 1, 2, 5, 15, 53]


def test_search_finds_every_naturally_labelled_lattice():
    from lattice_spectra.catalog import _labelled_lattices

    found = _labelled_lattices(5)
    assert found[0] == []
    for n in range(1, 6):
        natural = {
            up
            for up in labeled_posets_brute(n)
            if all(u >> i << i == u for i, u in enumerate(up)) and is_lattice_up_masks(up, n)
        }
        ups = [up for up, _ in found[n]]
        assert len(ups) == len(set(ups))
        assert set(ups) == natural, n
        # each order comes with its down-masks, the transpose of its up-masks
        for up, down in found[n]:
            assert down == tuple(
                sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)
            )


def test_exhaustive_contains_m5_and_n5(lattices_upto_5, m5, n5):
    forms = {canonical_form(lat) for lat in lattices_upto_5}
    assert canonical_form(m5) in forms
    assert canonical_form(n5) in forms


def test_exhaustive_no_duplicates(lattices_upto_6):
    forms = [canonical_form(lat) for lat in lattices_upto_6]
    assert len(forms) == len(set(forms))


def test_exhaustive_order_is_canonical_form_order(lattices_upto_5):
    # classes come in canonical-form order: on five elements M3, N5, B2 with
    # a new top, B2 with a new bottom, then the chain, told apart here by
    # their (atoms, coatoms) counts.  The grouping of canonical_form fixes
    # this order; searching every permutation instead would swap the middle
    # two
    five = [lat for lat in lattices_upto_5 if lat.n == 5]
    counts = [
        (sum(d.bit_count() == 2 for d in lat.down), sum(u.bit_count() == 2 for u in lat.up))
        for lat in five
    ]
    assert counts == [(3, 3), (2, 2), (2, 1), (1, 2), (1, 1)]


def test_canonical_form_invariant_under_relabel(m5):
    from lattice_spectra.lattices import build_lattice

    relabeled = build_lattice(
        ["bot", "y", "z", "x", "top"],
        [("bot", "x"), ("bot", "y"), ("bot", "z"), ("x", "top"), ("y", "top"), ("z", "top")],
        name="m5_relabeled",
    )
    assert canonical_form(relabeled) == canonical_form(m5)


def test_exhaustive_bound():
    with pytest.raises(SizeBoundExceeded):
        GeneratorConfig("exhaustive", 7)


def test_random_requires_seed():
    with pytest.raises(ValueError):
        GeneratorConfig("random", 5, count=3)


def test_random_reproducible():
    a = [canonical_form(l) for l in enumerate_lattices(GeneratorConfig("random", 7, seed=3, count=6))]
    b = [canonical_form(l) for l in enumerate_lattices(GeneratorConfig("random", 7, seed=3, count=6))]
    assert a == b
    c = [canonical_form(l) for l in enumerate_lattices(GeneratorConfig("random", 7, seed=4, count=6))]
    assert a != c


def test_random_yields_valid_lattices():
    for lat in enumerate_lattices(GeneratorConfig("random", 7, seed=11, count=10)):
        assert 1 <= lat.n <= 7  # lattice_from_order validates the order


# --- DOT export -----------------------------------------------------------------


def test_dot_two_chain(chain2):
    text = to_dot(chain2)
    assert text.splitlines()[0].startswith("digraph")
    assert '"0" -> "1";' in text
    validate_dot(text)


def test_dot_m5_counts(m5):
    text = to_dot(m5)
    assert text.count("->") == 6
    node_lines = [
        line for line in text.splitlines() if line.strip().endswith(";") and "->" not in line and "rankdir" not in line
    ]
    assert len(node_lines) == 5


def test_dot_spectra(m5, diamond):
    bit = to_dot(build_bitop_spectrum(m5))
    assert bit.count("[label=") == 6
    validate_dot(bit)
    classical = to_dot(build_classical_spectrum(diamond))
    validate_dot(classical)


def test_dot_outputs_are_valid(cat):
    # to_dot does not check its own output; every catalog rendering is checked here
    for lat in cat.values():
        for obj in (lat, build_bitop_spectrum(lat), build_classical_spectrum(lat)):
            validate_dot(to_dot(obj))


def test_dot_escapes_backslashes_in_names():
    # an element named a\ must not end its DOT string early; the bitop
    # labels keep their \n line break between the point and its d:/e: lists
    lat = build_lattice(["0", "a\\", "1"], [("0", "a\\"), ("a\\", "1")], name="x")
    hasse, classical, bitop = (
        to_dot(obj) for obj in (lat, build_classical_spectrum(lat), build_bitop_spectrum(lat))
    )
    for text in (hasse, classical, bitop):
        validate_dot(text)
    assert '  "a\\\\";' in hasse.splitlines()
    assert '  "{0,a\\\\}" -> "{0}";' in classical.splitlines()
    assert '  "({0};{a\\\\,1})" [label="({0};{a\\\\,1})\\nd:a\\\\,1 e:a\\\\,1"];' in bitop.splitlines()


def test_dot_stable_output(m5):
    assert to_dot(m5) == to_dot(m5)


def test_dot_rejects_other_types():
    with pytest.raises(TypeError):
        to_dot(42)


def test_validate_dot_rejects_garbage():
    with pytest.raises(ValueError):
        validate_dot("graph { a -- b }")
    with pytest.raises(ValueError):
        validate_dot("digraph x { a -> b ")


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_random_stream_deterministic_property(seed):
    cfg = GeneratorConfig("random", 6, seed=seed, count=3)
    first = [canonical_form(l) for l in enumerate_lattices(cfg)]
    second = [canonical_form(l) for l in enumerate_lattices(cfg)]
    assert first == second
