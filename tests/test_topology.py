import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_spectra import topology
from lattice_spectra.bitsets import bits, full_mask, is_subset, mask_of
from lattice_spectra.duality import essential_lattice
from lattice_spectra.errors import CarrierTooLarge, NotPairwiseBD
from lattice_spectra.lattices import build_lattice
from lattice_spectra.spectra import build_bitop_spectrum
from lattice_spectra.topology import (
    FiniteTopology,
    bitop_space,
    count_opens,
    doubled_space,
    essential_subsets,
    fundamental_subsets,
    is_bd_space,
    is_continuous,
    is_homeomorphism,
    is_pairwise_bd,
    is_pairwise_t0,
    op_d,
    op_i,
    topology_from_subbasis,
)

import oracles
from oracles import (
    NotACover,
    NotIncreasing,
    _up_closure,
    adjunction_witness,
    bd_space_brute,
    d_family_closure_witness,
    d_family_cover_witness,
    essential_subsets_brute,
    essential_subsets_by_sigma_opens,
    fip_scan_oracle,
    increasing_pairs,
    is_bounded_pbd,
    is_compact_subset,
    is_continuous_brute,
    is_costable,
    is_doubly_bd,
    is_homeomorphism_brute,
    is_increasing,
    is_pairwise_t0_brute,
    is_preorder,
    is_stable,
    op_d_loop,
    op_i_loop,
    opens,
    pairwise_bd_axioms_iv_v_brute,
    pairwise_bd_first_axioms_brute,
    sampled_increasing_pairs,
)
from test_golden import _boolean, _chain, _diamond


def sierpinski():
    # carrier {a=0, b=1}; opens {}, {a}, {a,b}
    return topology_from_subbasis(2, [0b01])


def discrete(n):
    return topology_from_subbasis(n, [1 << i for i in range(n)])


def indiscrete(n):
    return topology_from_subbasis(n, [])


def all_topologies(n):
    """Every topology on n points: each up-mask tuple that is a preorder."""
    return [FiniteTopology(up) for up in itertools.product(range(1 << n), repeat=n) if is_preorder(up)]


def small_bitop_spaces():
    """Every bitopological space on one to three points."""
    return [
        bitop_space(tau, sigma)
        for n in (1, 2, 3)
        for tau, sigma in itertools.product(all_topologies(n), repeat=2)
    ]


# --- oracle: closure by definition -------------------------------------------


def opens_brute(n, subbasis):
    """All unions of finite intersections of the subbasis."""
    basis = {full_mask(n)}
    for k in range(1, len(subbasis) + 1):
        for combo in itertools.combinations(subbasis, k):
            m = full_mask(n)
            for s in combo:
                m &= s
            basis.add(m)
    opens = {0}
    basis = sorted(basis)
    for k in range(1, len(basis) + 1):
        for combo in itertools.combinations(basis, k):
            m = 0
            for s in combo:
                m |= s
            opens.add(m)
    return frozenset(opens)


def test_subbasis_empty_family():
    assert opens(indiscrete(2)) == frozenset({0, 0b11})


def test_subbasis_closure_matches_oracle(m5):
    spec = build_bitop_spectrum(m5)
    t = topology_from_subbasis(len(spec.points), spec.delta)
    assert opens(t) == opens_brute(len(spec.points), spec.delta)
    assert len(opens(t)) == 8
    # nontrivial pairwise intersections have exactly two points
    inter = spec.delta[1] & spec.delta[2]
    assert bin(inter).count("1") == 2
    assert inter in opens(t)


def test_subbasis_idempotent():
    t = sierpinski()
    again = topology_from_subbasis(2, sorted(opens(t)))
    assert opens(again) == opens(t)


@given(st.integers(0, 2**4 - 1), st.integers(0, 2**4 - 1), st.integers(0, 2**4 - 1))
@settings(max_examples=80, deadline=None)
def test_subbasis_oracle_and_monotone(a, b, c):
    t = topology_from_subbasis(4, [a, b])
    assert opens(t) == opens_brute(4, [a, b])
    bigger = topology_from_subbasis(4, [a, b, c])
    assert opens(t) <= opens(bigger)


# --- specialization ----------------------------------------------------------


def test_discrete_specialization_is_equality():
    up = discrete(3).up
    assert list(up) == [1, 2, 4]


def test_sierpinski_specialization():
    up = sierpinski().up
    assert up[1] >> 0 & 1  # b <= a
    assert not up[0] >> 1 & 1  # not a <= b


def test_specialization_matches_subbasis_test(m5, n5):
    # the subbasis-only comparison decides the preorder
    for lat in (m5, n5):
        spec = build_bitop_spectrum(lat)
        t = spec.space.tau
        up = t.up
        n = len(spec.points)
        for x in range(n):
            for y in range(n):
                sub_test = all(
                    not s >> x & 1 or s >> y & 1 for s in spec.delta
                )
                assert bool(up[x] >> y & 1) == sub_test


def test_preorder_validation():
    assert [len(all_topologies(n)) for n in range(5)] == [1, 1, 4, 29, 355]  # OEIS A000798
    for up in ((0b11,), (0b10, 0b10), (0b011, 0b110, 0b100)):
        assert not is_preorder(up)  # outside the carrier, not reflexive, not transitive


def test_subbasis_topologies_are_preorders(lattices_upto_6):
    # topologies are plain records; the subbasis construction is what makes
    # each one a preorder, on spectra and on every small subbasis family
    from lattice_spectra.duality import essential_lattice
    from lattice_spectra.spectra import build_classical_spectrum

    tops = []
    for lat in lattices_upto_6:
        space = build_bitop_spectrum(lat).space
        essential = essential_lattice(space).lattice
        for base in (lat, essential):
            bitop = build_bitop_spectrum(base).space
            tops += [bitop.tau, bitop.sigma, build_classical_spectrum(base).space]
    for n in range(4):
        for pick in range(1 << (1 << n)):
            tops.append(topology_from_subbasis(n, bits(pick)))
    assert len(tops) == 6 * len(lattices_upto_6) + 2 + 4 + 16 + 256
    for top in tops:
        assert is_preorder(top.up), top


def test_continuity_and_homeomorphism_match_open_families():
    tops = {n: all_topologies(n) for n in (1, 2, 3)}
    homeomorphisms = 0
    for n, m in itertools.product(tops, repeat=2):
        for mapping in itertools.product(range(m), repeat=n):
            for src in tops[n]:
                for tgt in tops[m]:
                    assert is_continuous(mapping, src, tgt) == is_continuous_brute(mapping, src, tgt)
                    homeo = is_homeomorphism(mapping, src, tgt)
                    assert homeo == is_homeomorphism_brute(mapping, src, tgt)
                    homeomorphisms += homeo
    # a permutation carries each topology onto exactly one topology
    assert homeomorphisms == 1 + 2 * 4 + 6 * 29


def test_open_sets_are_increasing(lattices_upto_5):
    # the opens are exactly the increasing sets, found by scanning all masks
    for lat in lattices_upto_5:
        space = build_bitop_spectrum(lat).space
        for top in (space.tau, space.sigma):
            increasing = {
                m for m in range(1 << top.n) if all(is_subset(top.up[x], m) for x in bits(m))
            }
            assert opens(top) == increasing


# --- pairwise T0 -------------------------------------------------------------


def test_pairwise_t0_cases(m5):
    assert is_pairwise_t0(doubled_space(discrete(3)))[0]
    ok, pair = is_pairwise_t0(doubled_space(indiscrete(2)))
    assert not ok and pair is not None
    assert is_pairwise_t0(build_bitop_spectrum(m5).space)[0]


def test_pairwise_t0_equals_pairwise_ordered(lattices_upto_5):
    for lat in lattices_upto_5:
        space = build_bitop_spectrum(lat).space
        ok, _ = is_pairwise_t0(space)
        ordered = all(
            x == y or not (space.up_tau[x] >> y & 1 and space.up_sigma[y] >> x & 1)
            for x in range(space.n)
            for y in range(space.n)
        )
        assert ok == ordered


def test_pairwise_t0_matches_pair_scan(lattices_upto_6):
    # the per-point mask form names the same first witness as the literal
    # scan over ordered pairs, x ascending, then the lowest y
    spaces = small_bitop_spaces()
    for lat in lattices_upto_6:
        spectrum = build_bitop_spectrum(lat)
        spaces += [spectrum.space, doubled_space(spectrum.space.tau), doubled_space(spectrum.space.sigma)]
    failing = 0
    for space in spaces:
        expected = is_pairwise_t0_brute(space)
        assert is_pairwise_t0(space) == expected, (space.up_tau, space.up_sigma)
        failing += not expected[0]
    assert len(spaces) == 858 + 3 * 25
    assert 0 < failing < len(spaces)


# --- compact subsets ---------------------------------------------------------


def test_empty_set_needs_no_cover():
    t = sierpinski()
    assert is_compact_subset(t, 0, []) == []


def test_self_cover(m5):
    spec = build_bitop_spectrum(m5)
    t = spec.space.tau
    assert is_compact_subset(t, spec.delta[1], [spec.delta[1]]) == [spec.delta[1]]


def test_full_delta_cover_reduces_to_top(m5):
    spec = build_bitop_spectrum(m5)
    t = spec.space.tau
    sub = is_compact_subset(t, full_mask(len(spec.points)), list(spec.delta))
    assert sub == [spec.delta[m5.top]]


def test_not_a_cover(m5):
    spec = build_bitop_spectrum(m5)
    t = spec.space.tau
    with pytest.raises(NotACover):
        is_compact_subset(t, full_mask(len(spec.points)), [spec.delta[1]])
    with pytest.raises(NotACover):
        is_compact_subset(t, 0, [0b010101])  # not an open set


# --- fundamental subsets -----------------------------------------------------


def test_fundamental_sierpinski():
    fam = fundamental_subsets(sierpinski())
    assert fam == frozenset({0, 0b01, 0b11})


def test_fundamental_discrete_pair():
    # literal reading of the empty-set clause: a finite family with the
    # finite intersection property always has a nonempty total intersection,
    # so the empty set qualifies even in the discrete topology
    fam = fundamental_subsets(discrete(2))
    assert 0 in fam
    assert fam == frozenset({0, 0b01, 0b10, 0b11})


def test_fundamental_zariski_two_chain(chain2):
    from lattice_spectra.spectra import build_classical_spectrum

    spec = build_classical_spectrum(chain2)
    fam = fundamental_subsets(spec.space)
    assert fam == frozenset({0, 1})  # d(1) and the empty set


def test_empty_fundamental_matches_fip_scan(lattices_upto_6):
    from lattice_spectra.spectra import build_classical_spectrum

    tops = [sierpinski(), discrete(2), indiscrete(3)]
    for lat in lattices_upto_6:
        space = build_bitop_spectrum(lat).space
        tops += [space.tau, space.sigma, build_classical_spectrum(lat).space]
    # the literal scan is exponential in the number of opens
    tops = [top for top in tops if len(opens(top)) <= 12]
    assert len(tops) == 76
    for top in tops:
        # the empty set qualifies by the literal clause, and the library's
        # fundamental family holds it
        assert fip_scan_oracle(top)
        assert 0 in fundamental_subsets(top)


# --- transition operators ----------------------------------------------------


def test_operator_extremes(m5):
    space = build_bitop_spectrum(m5).space
    full = full_mask(space.n)
    assert op_d(space, full) == full
    assert op_i(space, 0) == 0


def test_m5_operator_identities(m5):
    spec = build_bitop_spectrum(m5)
    space = spec.space
    a = m5.index("a")
    assert op_d(space, spec.delta[a]) == spec.epsilon[a]
    assert op_i(space, spec.epsilon[a]) == spec.delta[a]


def test_monotone_and_deflation(lattices_upto_4):
    for lat in lattices_upto_4:
        space = build_bitop_spectrum(lat).space
        full = full_mask(space.n)
        for a in range(full + 1):
            assert is_subset(op_d(space, a), a)
            assert is_subset(a, op_i(space, a))
            for b in range(full + 1):
                if is_subset(a, b):
                    assert is_subset(op_i(space, a), op_i(space, b))
                    assert is_subset(op_d(space, a), op_d(space, b))
                    break


def test_is_increasing_is_up_closed():
    # open means closed upwards: the up-closure adds no point
    spaces = small_bitop_spaces()
    assert len(spaces) == 858
    for space in spaces:
        for top in (space.tau, space.sigma):
            for a in range(1 << top.n):
                assert is_increasing(top, a) == (_up_closure(top.up, a) == a), (top.up, a)


def _finite_fact_spaces(lattices):
    """Every bitopological space on one to three points, pairwise-BD or
    not, then the spectrum of each lattice and of its essential lattice."""
    spaces = small_bitop_spaces()
    for lat in lattices:
        space = build_bitop_spectrum(lat).space
        spaces += [space, build_bitop_spectrum(essential_lattice(space).lattice).space]
    assert len(spaces) == 858 + 2 * len(lattices)
    return spaces


def test_adjunction_all_pairs(lattices_upto_6):
    # the adjunction holds on every finite space, so verify does not
    # re-check it; the oracle runs it on every pair of increasing sets
    for space in _finite_fact_spaces(lattices_upto_6):
        assert adjunction_witness(space, increasing_pairs(space)) is None, (space.up_tau, space.up_sigma)


def test_d_family_closed_under_intersection(lattices_upto_6):
    # axiom (iii)'s closure half holds on every finite space, also where
    # another axiom fails, so is_pairwise_bd evaluates only the basis half
    spaces = _finite_fact_spaces(lattices_upto_6)
    assert any(not is_pairwise_bd(space).passed for space in spaces)
    for space in spaces:
        assert d_family_closure_witness(space, essential_subsets(space)) is None, (space.up_tau, space.up_sigma)


def test_d_family_covers_the_carrier(lattices_upto_6):
    # axiom (iii)'s cover half holds on every finite space, also where
    # another axiom fails, so is_pairwise_bd does not test it
    spaces = _finite_fact_spaces(lattices_upto_6)
    assert any(not is_pairwise_bd(space).passed for space in spaces)
    for space in spaces:
        assert d_family_cover_witness(space, essential_subsets(space)) is None, (space.up_tau, space.up_sigma)


@pytest.mark.parametrize("kind, k", [("m", 6), ("m", 18), ("m", 30), ("b", 8)])
def test_finite_facts_on_large_spectra(kind, k):
    # the seeded form verify used past 12 points: 2000 pairs from Random(1729)
    lat = _diamond(k) if kind == "m" else _boolean(k)
    space = build_bitop_spectrum(lat).space
    assert adjunction_witness(space, sampled_increasing_pairs(space)) is None
    assert d_family_closure_witness(space, essential_subsets(space)) is None


def test_adjunction_oracle_reports_planted_fault(monkeypatch):
    # a d that always keeps point 0: A = {0} lies in d(empty), i(A) is not empty
    space = doubled_space(discrete(2))
    real = topology.op_d
    monkeypatch.setattr(topology, "op_d", lambda space, a: real(space, a) | 1)
    assert adjunction_witness(space, increasing_pairs(space)) == "adjunction fails at A=0x1 B=0x0"


def test_d_family_oracle_reports_planted_fault(monkeypatch):
    # a d that sends the empty set to the carrier drops the empty d-image,
    # the intersection of {0} and {1}
    space = doubled_space(discrete(2))
    ess = essential_subsets(space)
    real = topology.op_d
    monkeypatch.setattr(topology, "op_d", lambda space, a: real(space, a) or full_mask(space.n))
    assert d_family_closure_witness(space, ess) == "d-image family not closed under intersection: 0x1 & 0x2"


def test_d_family_cover_oracle_reports_planted_fault(monkeypatch):
    # a d that drops point 0 leaves it outside every d-image
    space = doubled_space(discrete(2))
    ess = essential_subsets(space)
    real = topology.op_d
    monkeypatch.setattr(topology, "op_d", lambda space, a: real(space, a) & ~1)
    assert d_family_cover_witness(space, ess) == "d-images of essential sets miss points [0]"


def test_d_preserves_intersections_i_unions(lattices_upto_4):
    for lat in lattices_upto_4:
        space = build_bitop_spectrum(lat).space
        full = full_mask(space.n)
        for a in range(full + 1):
            for b in range(full + 1):
                assert op_d(space, a & b) == op_d(space, a) & op_d(space, b)
                assert op_i(space, a | b) == op_i(space, a) | op_i(space, b)


def _m(k):
    atoms = [f"a{i}" for i in range(k)]
    return build_lattice(["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms])


def test_operators_equal_loops_on_small_spaces():
    # every bitopological space on one to three points, every subset
    for space in small_bitop_spaces():
        for a in range(1 << space.n):
            assert op_i(space, a) == op_i_loop(space, a)
            assert op_d(space, a) == op_d_loop(space, a)


def test_operators_equal_loops_on_spectra(lattices_upto_6):
    for lat in lattices_upto_6:
        s = build_bitop_spectrum(lat)
        space = s.space
        masks = {0, full_mask(space.n), *s.delta, *s.epsilon, *space.up_tau, *space.up_sigma}
        if space.n <= 8:
            masks.update(range(1 << space.n))
        for a in masks:
            assert op_i(space, a) == op_i_loop(space, a), lat.name
            assert op_d(space, a) == op_d_loop(space, a), lat.name


@pytest.mark.parametrize("k", [6, 30])  # M6 and M30 (k atoms): 30 and 870 points
def test_operators_equal_loops_on_seeded_masks(k):
    space = build_bitop_spectrum(_m(k)).space
    rng = random.Random(k)
    full = full_mask(space.n)
    # dense masks, and sparse ones that leave most 8-point blocks empty
    masks = [rng.randint(0, full) for _ in range(200)]
    masks += [mask_of(rng.sample(range(space.n), 3)) for _ in range(200)]
    for a in masks:
        assert op_i(space, a) == op_i_loop(space, a)
        assert op_d(space, a) == op_d_loop(space, a)


def test_chunk_tables():
    # a 9-point chain: two blocks, the second of one point
    top = topology_from_subbasis(9, [full_mask(9) & ~((1 << k) - 1) for k in range(9)])
    assert [len(t) for t in top.up_chunks] == [256, 2]
    assert top.down == tuple((1 << (y + 1)) - 1 for y in range(9))
    for a in range(1 << 9):
        union = 0
        for x in bits(a):
            union |= top.up[x]
        table, low = top.up_chunks, a & 0xFF
        assert table[0][low] | table[1][a >> 8] == union


# --- stability ---------------------------------------------------------------


def test_carrier_stable(m5):
    space = build_bitop_spectrum(m5).space
    assert is_stable(space, full_mask(space.n))


def test_delta_stable_epsilon_costable(lattices_upto_5):
    for lat in lattices_upto_5:
        spec = build_bitop_spectrum(lat)
        for x in range(lat.n):
            assert is_stable(spec.space, spec.delta[x])
            assert is_costable(spec.space, spec.epsilon[x])


def test_stability_requires_increasing(m5):
    spec = build_bitop_spectrum(m5)
    # a single point of a two-point tau-cluster is not tau-increasing
    with pytest.raises(NotIncreasing):
        is_stable(spec.space, 0b000001)


# --- essential subsets -------------------------------------------------------


def test_essential_m5(m5):
    spec = build_bitop_spectrum(m5)
    fam = essential_subsets(spec.space)
    assert fam == frozenset(spec.delta)
    assert len(fam) == 5


def test_essential_of_doubled_space_is_fundamental(diamond):
    from lattice_spectra.spectra import build_classical_spectrum

    top = build_classical_spectrum(diamond).space
    assert essential_subsets(doubled_space(top)) == fundamental_subsets(top)
    s = sierpinski()
    assert essential_subsets(doubled_space(s)) == fundamental_subsets(s)


def test_essential_subsets_match_brute_force(cat, lattices_upto_5):
    from lattice_spectra.catalog import GeneratorConfig, enumerate_lattices
    from lattice_spectra.spectra import build_classical_spectrum

    lats = list(cat.values())
    lats += enumerate_lattices(GeneratorConfig("random", 7, seed=99, count=40))
    spaces = [build_bitop_spectrum(lat).space for lat in lats]
    spaces += [doubled_space(build_classical_spectrum(lat).space) for lat in lattices_upto_5]
    # the brute-force search scans all 2^n subsets of the carrier
    spaces = [space for space in spaces if space.n <= 12]
    assert len(spaces) == 14 + 40 + len(lattices_upto_5)
    for space in spaces:
        assert essential_subsets(space) == essential_subsets_brute(space)


def test_essential_subsets_match_sigma_open_loop(cat):
    # past the 12-point bound of the brute-force search: the literal loop
    # over every sigma-open, on spaces with at most 2^12 of them
    from lattice_spectra.lattices import product_lattice
    from lattice_spectra.spectra import build_classical_spectrum

    from test_golden import _chain, _diamond

    b5 = _chain(2)
    for k in range(4):
        b5 = product_lattice(b5, _chain(2), name=f"b{k + 2}")
    lats = [
        _diamond(6),
        _diamond(12),
        _chain(22),
        b5,
        product_lattice(_diamond(3), _diamond(3), name="m3xm3"),
        product_lattice(_diamond(4), _chain(2), name="m4xc2"),
    ]
    spaces = [build_bitop_spectrum(lat).space for lat in lats]
    spaces += [doubled_space(build_classical_spectrum(lat).space) for lat in cat.values()]
    assert max(len(opens(space.sigma)) for space in spaces) == 1 << 12
    assert [space.n for space in spaces[:6]] == [30, 132, 21, 5, 12, 13]
    for space in spaces:
        assert essential_subsets(space) == essential_subsets_by_sigma_opens(space)


def test_families_stay_inside_the_carrier(lattices_upto_6):
    # the essential and fundamental families are plain frozensets of point
    # masks; none of them mentions a point outside the carrier
    spaces = small_bitop_spaces() + [build_bitop_spectrum(lat).space for lat in lattices_upto_6]
    for space in spaces:
        full = full_mask(space.n)
        for family in (
            essential_subsets(space),
            fundamental_subsets(space.tau),
            fundamental_subsets(space.sigma),
        ):
            assert isinstance(family, frozenset)
            assert all(m & ~full == 0 for m in family)


def test_essential_one_point_indiscrete():
    space = doubled_space(indiscrete(1))
    assert essential_subsets(space) == frozenset({0, 1})


def test_doubled_space_operators_are_identity(diamond):
    from lattice_spectra.spectra import build_classical_spectrum

    top = build_classical_spectrum(diamond).space
    space = doubled_space(top)
    for a in opens(space.tau):
        assert op_i(space, a) == a
        assert op_d(space, a) == a


# --- counting opens ------------------------------------------------------------


def test_count_opens_matches_enumeration_on_small_spaces():
    for space in small_bitop_spaces():
        for top in (space.tau, space.sigma):
            assert count_opens(top) == len(opens(top)), top.up


def test_count_opens_matches_enumeration_on_spectra(lattices_upto_6, cat):
    from lattice_spectra.spectra import build_classical_spectrum

    for lat in [*lattices_upto_6, *cat.values()]:
        space = build_bitop_spectrum(lat).space
        for top in (space.tau, space.sigma, build_classical_spectrum(lat).space):
            assert count_opens(top) == len(opens(top)), lat.name


def test_count_opens_closed_forms():
    from lattice_spectra.spectra import build_classical_spectrum

    for k in (16, 18, 30, 40):
        space = build_bitop_spectrum(_diamond(k)).space
        assert (count_opens(space.tau), count_opens(space.sigma)) == (1 << k, 1 << k)
    for n in (1, 2, 5, 22, 150):
        space = build_bitop_spectrum(_chain(n)).space
        assert (count_opens(space.tau), count_opens(space.sigma)) == (n, n)
    for k in (1, 3, 5, 8):
        assert count_opens(build_classical_spectrum(_boolean(k)).space) == 1 << k
    assert count_opens(FiniteTopology(())) == 1
    # a chain splits once per point, past the recursion limit
    n = sys.getrecursionlimit() + 500
    chain = FiniteTopology(tuple((1 << n) - (1 << k) for k in range(n)))
    assert count_opens(chain) == n + 1


def two_level_preorder(rng, lows=25, highs=25, p=0.15):
    """``lows`` minimal points below ``highs`` maximal points, each minimal
    point below each maximal one with probability ``p``, drawn in row order."""
    up = [1 << x | mask_of(lows + j for j in range(highs) if rng.random() < p) for x in range(lows)]
    return FiniteTopology(tuple(up + [1 << (lows + j) for j in range(highs)]))


def test_carrier_bound_guard(monkeypatch):
    # a topology of any size is its preorder; only the memo of count_opens
    # is bounded (2^17 entries), not the count
    chain = topology_from_subbasis(21, [(1 << 21) - (1 << k) for k in range(21)])
    assert count_opens(chain) == 22
    assert count_opens(discrete(18)) == 1 << 18
    with pytest.raises(CarrierTooLarge):
        count_opens(two_level_preorder(random.Random(1)))
    # discrete(3) memoises 0b111, 0b110, 0b100 and the empty carrier: the
    # bound itself is allowed, one entry fewer is not
    monkeypatch.setattr(topology, "_COUNT_MEMO_BOUND", 4)
    assert count_opens(discrete(3)) == 8
    monkeypatch.setattr(topology, "_COUNT_MEMO_BOUND", 3)
    with pytest.raises(CarrierTooLarge):
        count_opens(discrete(3))


# --- axiom checkers ----------------------------------------------------------


def test_spectra_are_pairwise_bd(cat):
    for lat in cat.values():
        report = is_pairwise_bd(build_bitop_spectrum(lat).space)
        assert report.passed, (lat.name, report.failing_axiom, report.witness)


def test_one_point_space_is_pairwise_bd():
    assert is_pairwise_bd(doubled_space(indiscrete(1))).passed


def test_broken_sigma_basis_fails_axiom_iii():
    # tau = Sierpinski, sigma = discrete: {b} is sigma-open but no d-image
    # of an essential set produces it
    space = bitop_space(sierpinski(), discrete(2))
    report = is_pairwise_bd(space)
    assert not report.passed
    assert (report.failing_axiom, report.witness) == ("iii", "d-images of essential sets are not a basis for sigma")
    # the d-images cover the carrier, so generating sigma is what fails
    assert d_family_cover_witness(space, essential_subsets(space)) is None


def test_axiom_ii_witness_lists_the_differing_points():
    # tau discrete, sigma with 0 and 2 below 1: the essential sets
    # i(up_sigma[x]) = up_sigma[x] generate a coarser topology whose
    # neighbourhoods of 0 and 2 grow, while point 1 keeps its own
    space = bitop_space(discrete(3), FiniteTopology((0b011, 0b010, 0b110)))
    report = is_pairwise_bd(space)
    assert (report.failing_axiom, report.witness) == (
        "ii",
        "essential sets do not generate tau (neighbourhoods differ at points [0, 2])",
    )


def test_axioms_ii_iii_match_open_family_forms():
    # every bitopological space on at most three points, including the
    # broken-sigma-basis space (Sierpinski, discrete) of the test above
    spaces = small_bitop_spaces()
    assert bitop_space(sierpinski(), discrete(2)) in spaces
    seen = set()
    for space in spaces:
        report = is_pairwise_bd(space)
        literal = pairwise_bd_first_axioms_brute(space, essential_subsets(space))
        if literal is None:
            assert report.failing_axiom not in ("i", "ii", "iii")
        else:
            assert report.failing_axiom == literal
        seen.add(literal)
    assert seen == {None, "i", "ii", "iii"}


def test_axioms_iv_v_hold_on_every_small_space():
    # (iv) and (v) hold on every finite space, not only where (i)-(iii) pass,
    # so the checker evaluates neither; the oracle runs the literal clauses
    # on the library's family, which must equal the brute-force search
    spaces = small_bitop_spaces()
    assert len(spaces) == 858
    for space in spaces:
        ess = essential_subsets(space)
        assert pairwise_bd_axioms_iv_v_brute(space, ess) is None
        assert ess == essential_subsets_brute(space)
        assert is_pairwise_bd(space).failing_axiom not in ("iv", "v")


def test_axioms_iv_v_hold_on_spectra(lattices_upto_6):
    spaces = [build_bitop_spectrum(lat).space for lat in lattices_upto_6]
    assert len(spaces) == 25
    for space in spaces:
        assert pairwise_bd_axioms_iv_v_brute(space, essential_subsets(space)) is None
        assert is_pairwise_bd(space).failing_axiom not in ("iv", "v")


def test_indiscrete_pair_fails_t0():
    space = doubled_space(indiscrete(2))
    report = is_pairwise_bd(space)
    assert not report.passed
    assert report.failing_axiom == "i"


def test_bd_space_cases(cat):
    from lattice_spectra.spectra import build_classical_spectrum

    for name in ("chain2", "chain3", "diamond", "b3", "chain2xchain3"):
        assert is_bd_space(build_classical_spectrum(cat[name]).space).passed
    assert not is_bd_space(indiscrete(2)).passed


def test_bd_space_matches_literal_clauses(cat, lattices_upto_6):
    from lattice_spectra.spectra import build_classical_spectrum

    tops = [build_classical_spectrum(lat).space for lat in lattices_upto_6]
    for lat in cat.values():
        space = build_bitop_spectrum(lat).space
        tops += [build_classical_spectrum(lat).space, space.tau, space.sigma]
    tops += [indiscrete(2), indiscrete(3), FiniteTopology((0b111, 0b110, 0b110))]
    verdicts = [is_bd_space(top) for top in tops]
    for top, verdict in zip(tops, verdicts):
        assert (verdict.passed, verdict.reason) == bd_space_brute(top)
    assert sum(not v.passed for v in verdicts) == 9


def test_tau_of_doubly_bd_is_bd(diamond):
    space = build_bitop_spectrum(diamond).space
    assert is_doubly_bd(space)
    assert is_bd_space(space.tau).passed


def test_doubly_bd_cases(cat, chain2, m5):
    assert is_doubly_bd(build_bitop_spectrum(chain2).space)
    assert not is_doubly_bd(build_bitop_spectrum(m5).space)
    t = build_bitop_spectrum(cat["diamond"]).space.tau
    assert is_doubly_bd(doubled_space(t))
    with pytest.raises(NotPairwiseBD):
        is_doubly_bd(doubled_space(indiscrete(2)))


def test_bounded_pbd(cat, monkeypatch):
    # no open family is enumerated: the principal opens are the cover
    listed = []
    monkeypatch.setattr(oracles, "opens", lambda top: listed.append(top))
    for name in ("chain2", "m5", "n5", "hexagon"):
        assert is_bounded_pbd(build_bitop_spectrum(cat[name]).space)
    assert listed == []
