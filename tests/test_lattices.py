import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_spectra.bitsets import full_mask, mask_of
from lattice_spectra.errors import CyclicCovers, MissingMapping, NotAHom, NotALattice
from lattice_spectra.lattices import (
    all_filters,
    all_homs,
    all_ideals,
    build_lattice,
    check_hom,
    _find_forbidden_sublattice,
    _find_violating_triple,
    is_distributive,
    is_prime_ideal,
    lattice_from_order,
    prime_ideals,
    product_lattice,
)


from oracles import (
    EmptyGeneratorSet,
    all_homs_brute,
    build_lattice_fixpoint,
    compose,
    filter_masks_brute,
    generated_filter,
    generated_ideal,
    ideal_masks_brute,
    identity_hom,
    is_ideal,
    labeled_posets_brute,
    lattice_tables_by_bound_scan,
    prime_ideals_by_ideal_scan,
    principal_filter,
    principal_ideal,
)

# --- construction ------------------------------------------------------------


def test_two_chain_is_min_max(chain2):
    assert chain2.bottom == 0 and chain2.top == 1
    assert chain2.meet(0, 1) == 0 and chain2.join(0, 1) == 1


def test_m5_atoms(m5):
    a, b, c = m5.index("a"), m5.index("b"), m5.index("c")
    assert m5.meet(a, b) == m5.bottom
    assert m5.join(a, b) == m5.top
    assert not m5.leq(a, b) and not m5.leq(b, a)
    assert m5.meet(a, c) == m5.bottom and m5.join(b, c) == m5.top


def test_missing_lub_is_rejected():
    with pytest.raises(NotALattice) as exc:
        build_lattice(["0", "a", "b"], [("0", "a"), ("0", "b")])
    assert exc.value.which == "lub"
    assert {exc.value.x, exc.value.y} == {"a", "b"}


def test_tables_match_bound_scan_on_every_small_order():
    # lookup tables against the bound scan, NotALattice on the same pair
    lattices = 0
    for n in range(1, 6):
        names = tuple(f"e{i}" for i in range(n))
        for up in labeled_posets_brute(n):
            try:
                expected = lattice_tables_by_bound_scan(names, up)
            except NotALattice as exc:
                with pytest.raises(NotALattice) as got:
                    lattice_from_order(names, up)
                assert (got.value.x, got.value.y, got.value.which) == (exc.x, exc.y, exc.which)
                continue
            lat = lattice_from_order(names, up)
            assert (lat.meet_table, lat.join_table) == expected
            lattices += 1
    assert lattices == 1 + 2 + 6 + 36 + 380  # labelled lattices on 1-5 points


def test_cyclic_covers_rejected():
    with pytest.raises(CyclicCovers):
        build_lattice(["x", "y"], [("x", "y"), ("y", "x")])


def _build_outcome(build, names, covers):
    """The order and tables ``build`` makes, or its error and message."""
    try:
        lat = build(names, covers)
    except (CyclicCovers, NotALattice) as exc:
        return type(exc).__name__, str(exc)
    return lat.up, lat.meet_table, lat.join_table


def test_warshall_closure_matches_fixpoint_on_seeded_covers():
    # one Warshall pass gives the order (and the CyclicCovers text) that the
    # fixpoint loop gave, on seeded relations with and without cycles, and
    # on chains numbered upwards, where the loop needs a pass per element
    rng = random.Random(2023)
    cases = []
    for _ in range(400):
        n = rng.randint(1, 7)
        names = [f"e{i}" for i in range(n)]
        pairs = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 2 * n))]
        cases.append((names, [(lo, hi) for lo, hi in pairs if lo != hi]))
    for n in (2, 5, 9):
        names = [f"e{i}" for i in range(n)]
        cases.append((names, [(names[i], names[i + 1]) for i in range(n - 1)]))
    kinds = set()
    for names, covers in cases:
        outcome = _build_outcome(build_lattice, names, covers)
        assert outcome == _build_outcome(build_lattice_fixpoint, names, covers), (names, covers)
        kinds.add(outcome[0] if isinstance(outcome[0], str) else "lattice")
    assert kinds == {"lattice", "CyclicCovers", "NotALattice"}


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        build_lattice(["x", "x"], [])


@pytest.mark.parametrize(
    "names, up, message",
    [
        ((), (), "a lattice needs at least one element"),
        (("a", "a"), (0b01, 0b10), "element names must be unique"),
        (("a", "b"), (0b11,), "table sizes disagree with the carrier"),
        (("a",), (0b11,), "order relation mentions elements outside the carrier"),
        (("a", "b"), (0b10, 0b10), "order relation is not reflexive"),
        (("a", "b"), (0b11, 0b11), "order relation is not antisymmetric"),
        (("a", "b", "c"), (0b011, 0b110, 0b100), "order relation is not transitive"),
    ],
)
def test_order_axioms_checked_by_lattice_from_order(names, up, message):
    with pytest.raises(ValueError) as exc:
        lattice_from_order(names, up)
    assert str(exc.value) == message


def test_empty_carrier_rejected():
    with pytest.raises(ValueError, match="at least one element"):
        build_lattice([], [])


def test_unknown_cover_element_rejected():
    with pytest.raises(ValueError) as exc:
        build_lattice(["a", "b"], [("a", "zz")])
    assert str(exc.value) == "cover mentions unknown element 'zz'"


# --- ideals and filters ------------------------------------------------------


def test_principal_ideal_m5(m5):
    a = m5.index("a")
    assert principal_ideal(m5, a) == mask_of([0, a])
    assert principal_ideal(m5, m5.top) == full_mask(m5.n)


def test_principal_filter_n5(n5):
    b = n5.index("b")
    assert principal_filter(n5, b) == mask_of([b, n5.top])


def test_generated_ideal_m5_two_atoms(m5):
    gens = mask_of([m5.index("a"), m5.index("b")])
    assert generated_ideal(m5, gens) == full_mask(m5.n)


def test_generated_singleton_is_principal(lattices_upto_5):
    for lat in lattices_upto_5:
        for x in range(lat.n):
            assert generated_ideal(lat, 1 << x) == principal_ideal(lat, x)
            assert generated_filter(lat, 1 << x) == principal_filter(lat, x)


def test_generated_filter_n5_two_atoms(n5):
    # a and b meet at the bottom, so the generated filter is everything
    gens = mask_of([n5.index("a"), n5.index("b")])
    assert generated_filter(n5, gens) == full_mask(n5.n)


def test_generated_empty_raises(m5):
    with pytest.raises(EmptyGeneratorSet):
        generated_ideal(m5, 0)


def test_generated_ideal_is_least(lattices_upto_5):
    # oracle: intersect every ideal (filter) containing the generators
    for lat in lattices_upto_5:
        for generated, brute in (
            (generated_ideal, ideal_masks_brute),
            (generated_filter, filter_masks_brute),
        ):
            family = brute(lat)
            for gens in range(1, 1 << lat.n):
                containing = [m for m in family if gens & ~m == 0]
                if not containing:
                    continue
                expected = full_mask(lat.n)
                for m in containing:
                    expected &= m
                assert generated(lat, gens) == expected


def test_all_ideals_against_subset_scan(lattices_upto_5, cat):
    for lat in list(lattices_upto_5) + [cat["hexagon"], cat["m5_doubled_arm"]]:
        assert all_ideals(lat) == ideal_masks_brute(lat)
        assert all_filters(lat) == filter_masks_brute(lat)


def test_all_ideals_examples(chain2, m5, n5):
    assert all_ideals(chain2) == [0b01, 0b11]
    assert len(all_ideals(m5)) == 5
    assert len(all_ideals(n5)) == 5


def test_ideal_validation():
    lat = build_lattice(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    assert not is_ideal(lat, mask_of([1]))  # not down-closed
    assert not is_ideal(lat, mask_of([0, 1, 2]))  # not join-closed
    assert not is_ideal(lat, 0)
    assert is_ideal(lat, mask_of([0, 1]))


def test_prime_ideals(m5, n5, chain2):
    assert prime_ideals(m5) == []
    assert prime_ideals(chain2) == [0b01]
    labels = [n5.set_label(p) for p in prime_ideals(n5)]
    assert labels == ["{0,b}", "{0,a,c}"]


# --- distributivity ----------------------------------------------------------


def test_distributive_diamond(diamond):
    rep = is_distributive(diamond)
    assert rep.distributive and rep.triple is None and rep.sublattice is None


def test_m5_witness(m5):
    rep = is_distributive(m5)
    assert not rep.distributive
    assert rep.sublattice.kind == "m5"
    assert rep.sublattice.elements == (0, 1, 2, 3, 4)


def test_n5_witness(n5):
    rep = is_distributive(n5)
    assert not rep.distributive
    assert rep.sublattice.kind == "n5"


def _boolean(chain2, k):
    lat = chain2
    for _ in range(k - 1):
        lat = product_lattice(lat, chain2, name=f"b{k}")
    return lat


def _assert_detectors_agree(lats):
    # the two witness searches and the join-prime verdict, on every lattice
    for lat in lats:
        triple = _find_violating_triple(lat)
        sublattice = _find_forbidden_sublattice(lat)
        assert (triple is None) == (sublattice is None) == lat.distributive, lat
        assert is_distributive(lat) == (lat.distributive, triple, sublattice), lat


def test_detectors_agree_upto_6(lattices_upto_6, cat, chain2):
    products = [
        product_lattice(a, b) for a in cat.values() for b in cat.values() if a.n * b.n <= 30
    ]
    _assert_detectors_agree([*lattices_upto_6, *products, _boolean(chain2, 5), _boolean(chain2, 6)])


def test_detectors_agree_on_random_7():
    from lattice_spectra.catalog import GeneratorConfig, enumerate_lattices

    _assert_detectors_agree(enumerate_lattices(GeneratorConfig("random", 7, seed=99, count=40)))


def _forbidden_sublattice_by_5_subsets(lat):
    """Reference witness: the first 5-subset, in lexicographic order, that is
    closed under meet and join and whose middle layer has at most one
    comparable pair (a copy of the diamond m5 or the pentagon n5)."""
    for combo in itertools.combinations(range(lat.n), 5):
        cm = mask_of(combo)
        if not all(
            cm >> lat.meet(x, y) & 1 and cm >> lat.join(x, y) & 1
            for x, y in itertools.combinations(combo, 2)
        ):
            continue
        bot, top = lat.meet_of(cm), lat.join_of(cm)
        middles = [v for v in combo if v != bot and v != top]
        if len(middles) != 3:
            continue
        comparable = sum(
            1
            for u, v in itertools.combinations(middles, 2)
            if lat.leq(u, v) or lat.leq(v, u)
        )
        if comparable <= 1:
            return ("n5" if comparable else "m5", combo)
    return None


def test_sublattice_witness_matches_5_subset_scan(lattices_upto_6, cat):
    from lattice_spectra.catalog import GeneratorConfig, enumerate_lattices

    lats = list(lattices_upto_6)
    lats += enumerate_lattices(GeneratorConfig("random", 7, seed=99, count=40))
    lats += [
        product_lattice(a, b)
        for a in cat.values()
        for b in cat.values()
        if a.n * b.n <= 30
    ]
    non_distributive = 0
    for lat in lats:
        expected = _forbidden_sublattice_by_5_subsets(lat)
        witness = is_distributive(lat).sublattice
        assert (None if witness is None else (witness.kind, witness.elements)) == expected, lat
        non_distributive += expected is not None
    assert non_distributive >= 80


def test_is_prime_ideal_matches_brute_force(lattices_upto_6):
    # oracle: a brute-force ideal whose complement is a brute-force filter
    for lat in lattices_upto_6:
        filters = set(filter_masks_brute(lat))
        expected = {
            m for m in ideal_masks_brute(lat) if full_mask(lat.n) & ~m in filters
        }
        for m in range(1 << lat.n):
            assert is_prime_ideal(lat, m) == (m in expected), (lat.name, m)
        assert prime_ideals(lat) == sorted(expected), lat.name


def test_mask_past_the_carrier_is_no_prime_ideal(lattices_upto_4, cat):
    # a bit past the carrier is no element, whatever the rest of the mask
    for lat in [*lattices_upto_4, *cat.values()]:
        assert is_prime_ideal(lat, 1 << lat.n) is False, lat.name
        for m in prime_ideals(lat):
            assert is_prime_ideal(lat, m | 1 << lat.n) is False, lat.name


def test_prime_ideals_match_ideal_scan(lattices_upto_6, cat, chain2):
    lats = [*lattices_upto_6, *cat.values(), _boolean(chain2, 5), _boolean(chain2, 6)]
    lats += [product_lattice(a, b) for a in cat.values() for b in cat.values() if a.n * b.n <= 30]
    for lat in lats:
        assert prime_ideals(lat) == prime_ideals_by_ideal_scan(lat), lat


def test_prime_ideals_exist_for_distributive(lattices_upto_6):
    # the prime ideal theorem at finite scale
    for lat in lattices_upto_6:
        if lat.n >= 2 and is_distributive(lat).distributive:
            assert prime_ideals(lat), lat.name


def test_products_of_chains_distributive(cat):
    assert is_distributive(cat["chain2xchain3"]).distributive
    assert is_distributive(cat["chain3xchain3"]).distributive
    assert not is_distributive(cat["m5xchain2"]).distributive


# --- homomorphisms -----------------------------------------------------------


def test_identity_hom_valid(m5):
    identity_hom(m5)


def test_chain_into_m5_is_a_hom(chain2, m5):
    check_hom(chain2, m5, (0, m5.index("a")))


def test_order_reversal_is_not_a_hom(chain2):
    with pytest.raises(NotAHom):
        check_hom(chain2, chain2, (1, 0))


def test_partial_map_rejected(chain2, m5):
    with pytest.raises(MissingMapping):
        check_hom(chain2, m5, (0,))


@pytest.mark.parametrize("value", [-1, 5])
def test_map_outside_the_target_carrier_rejected(chain2, m5, value):
    # 5 is m5.n, the first index past the carrier
    with pytest.raises(ValueError, match="^mapping hits elements outside the target carrier$"):
        check_hom(chain2, m5, (0, value))


def test_hom_count_chain2_to_m5(chain2, m5):
    # homs from the two-chain are exactly the comparable pairs: 12 in m5
    assert len(all_homs(chain2, m5)) == 12


def test_all_homs_matches_brute_force(lattices_upto_5, cat):
    lats = list(lattices_upto_5) + [lat for lat in cat.values() if lat.n <= 6]
    homs = 0
    for a in lats:
        for b in lats:
            got = [h.mapping for h in all_homs(a, b)]
            assert got == all_homs_brute(a, b), (a.name, b.name)
            homs += len(got)
    assert homs == 9944


def test_compose(chain2, diamond, m5):
    f = check_hom(chain2, diamond, (0, diamond.index("p")))
    g = check_hom(diamond, diamond, tuple(range(diamond.n)))
    assert compose(f, g).mapping == f.mapping


def test_product_lattice_structure(chain2, chain3):
    prod = product_lattice(chain2, chain3)
    assert prod.n == 6
    assert is_distributive(prod).distributive


# --- algebraic laws (property based) -----------------------------------------


@st.composite
def lattice_and_elements(draw, k=3):
    from lattice_spectra.catalog import GeneratorConfig, enumerate_lattices

    lats = list(enumerate_lattices(GeneratorConfig("exhaustive", 5)))
    lat = draw(st.sampled_from(lats))
    xs = [draw(st.integers(0, lat.n - 1)) for _ in range(k)]
    return lat, xs


@given(lattice_and_elements())
@settings(max_examples=150, deadline=None)
def test_meet_join_laws(data):
    lat, (x, y, z) = data
    assert lat.meet(x, y) == lat.meet(y, x)
    assert lat.join(x, y) == lat.join(y, x)
    assert lat.meet(lat.meet(x, y), z) == lat.meet(x, lat.meet(y, z))
    assert lat.join(lat.join(x, y), z) == lat.join(x, lat.join(y, z))
    assert lat.meet(x, lat.join(x, y)) == x
    assert lat.join(x, lat.meet(x, y)) == x
    assert lat.leq(x, y) == (lat.meet(x, y) == x)
