import itertools
import random

import pytest

from lattice_spectra import suites
from lattice_spectra.bitsets import bits, full_mask, is_subset, mask_of
from lattice_spectra.catalog import GeneratorConfig, enumerate_lattices
from lattice_spectra.errors import EmptyInput, NotDisjoint
from lattice_spectra.lattices import is_distributive
from lattice_spectra.topology import essential_subsets
from lattice_spectra.spectra import (
    ComaximalPair,
    b_map,
    bottom_via_fundamental,
    build_bitop_spectrum,
    build_classical_spectrum,
    comaximal_pairs,
    extend_to_comaximal,
    gbd_witness,
    prime_points,
    top_via_compactness,
)

from oracles import (
    comaximal_pairs_brute,
    cover_subfamily_witness,
    finite_subfamily_witness,
    greedy_shrink_brute,
    image_intersection_closed,
    opens,
    pair_filter,
    pair_ideal,
    principal_filter,
)


def test_comaximal_matches_literal_definition(lattices_upto_6, cat):
    sample = list(lattices_upto_6) + [cat["hexagon"], cat["m5_doubled_arm"], cat["b3"]]
    sample += enumerate_lattices(GeneratorConfig("random", 8, seed=99, count=40))
    for lat in sample:
        got = [(pair_ideal(p), pair_filter(p)) for p in comaximal_pairs(lat)]
        assert got == comaximal_pairs_brute(lat), lat.name


def test_comaximal_counts(cat):
    assert len(comaximal_pairs(cat["chain2"])) == 1
    assert len(comaximal_pairs(cat["m5"])) == 6
    assert comaximal_pairs(cat["chain1"]) == ()
    assert len(comaximal_pairs(cat["n5"])) == 3
    assert len(comaximal_pairs(cat["hexagon"])) == 4


def test_m5_pairs_are_atom_pairs(m5):
    labels = [p.label() for p in comaximal_pairs(m5)]
    assert labels == [
        "({0,a};{b,1})",
        "({0,a};{c,1})",
        "({0,b};{a,1})",
        "({0,b};{c,1})",
        "({0,c};{a,1})",
        "({0,c};{b,1})",
    ]


def test_nonempty_for_two_or_more_elements(lattices_upto_6):
    for lat in lattices_upto_6:
        assert (len(comaximal_pairs(lat)) >= 1) == (lat.n >= 2)


def test_pair_validation_rejects_junk(m5):
    # a pair record is unchecked; the pair enumeration keeps true pairs only
    a = m5.index("a")
    assert ComaximalPair(m5, a, m5.top) not in comaximal_pairs(m5)
    assert (a, m5.top) not in build_bitop_spectrum(m5).index


# --- extension ---------------------------------------------------------------


def test_extend_m5_example(m5):
    pair = extend_to_comaximal(m5, m5.bottom, m5.index("b"))
    assert pair.label() == "({0,a};{b,1})"


def test_extend_fixpoint(m5):
    pair = comaximal_pairs(m5)[0]
    again = extend_to_comaximal(m5, pair.a, pair.b)
    assert again == pair


def test_extend_n5(n5):
    pair = extend_to_comaximal(n5, n5.bottom, n5.index("c"))
    # lowest-index growth adds a first; ({0,a};{c,1}) is the maximal extension
    assert pair.label() == "({0,a};{c,1})"
    assert is_subset(0b1, pair_ideal(pair))
    assert is_subset(principal_filter(n5, n5.index("c")), pair_filter(pair))


def test_extend_requires_disjoint(m5):
    with pytest.raises(NotDisjoint):
        extend_to_comaximal(m5, m5.top, m5.bottom)


def _extend_by_masks(lat, j, k):
    """Reference extension on masks: grow the ideal mask ``j`` by the
    lowest-index element whose generated ideal stays disjoint from the
    filter mask ``k``, restarting after each growth, then grow ``k`` the
    same way against the final ``j``."""
    grown = True
    while grown:
        grown = False
        for x in range(lat.n):
            if not j >> x & 1:
                cand = lat.down[lat.join_of(j | 1 << x)]
                if cand & k == 0:
                    j, grown = cand, True
                    break
    grown = True
    while grown:
        grown = False
        for x in range(lat.n):
            if not k >> x & 1:
                cand = lat.up[lat.meet_of(k | 1 << x)]
                if cand & j == 0:
                    k, grown = cand, True
                    break
    return j, k


def test_extend_matches_mask_restart_rule(lattices_upto_6):
    disjoint = 0
    for lat in lattices_upto_6:
        for a, b in itertools.product(range(lat.n), repeat=2):
            if lat.leq(b, a):
                continue
            disjoint += 1
            pair = extend_to_comaximal(lat, a, b)
            expected = _extend_by_masks(lat, lat.down[a], lat.up[b])
            assert (lat.down[pair.a], lat.up[pair.b]) == expected, (lat.name, a, b)
    assert disjoint == 341


# --- spectra -----------------------------------------------------------------


def test_two_chain_spectrum(chain2):
    spec = build_bitop_spectrum(chain2)
    assert len(spec.points) == 1
    assert opens(spec.space.tau) == frozenset({0, 1})
    assert opens(spec.space.sigma) == frozenset({0, 1})


def test_m5_spectrum_shapes(m5):
    spec = build_bitop_spectrum(m5)
    assert len(spec.points) == 6
    sizes = sorted(bin(d).count("1") for d in spec.delta)
    assert sizes == [0, 4, 4, 4, 6]
    for x in range(m5.n):
        assert is_subset(spec.epsilon[x], spec.delta[x])


def test_diamond_spectrum(diamond):
    spec = build_bitop_spectrum(diamond)
    assert len(spec.points) == 2
    assert opens(spec.space.tau) == opens(spec.space.sigma)
    for atom in ("p", "q"):
        assert bin(spec.delta[diamond.index(atom)]).count("1") == 1


def test_classical_spectra(m5, chain2, n5):
    assert len(build_classical_spectrum(m5).points) == 0
    assert len(build_classical_spectrum(chain2).points) == 1
    n5_spec = build_classical_spectrum(n5)
    assert [n5.set_label(p) for p in n5_spec.points] == ["{0,b}", "{0,a,c}"]
    assert image_intersection_closed(n5_spec)


def test_b_map(diamond, m5, n5):
    assert suites.b_map_witness(diamond, b_map(diamond)) is None
    for lat in (m5, n5):
        # injective, but short of the comaximal pairs
        point_map = b_map(lat)
        assert len(set(point_map)) == len(point_map) < len(build_bitop_spectrum(lat).points)
        assert suites.b_map_witness(lat, point_map) == "prime-ideal embedding not a homeomorphism (bijective=False)"
    assert len(b_map(n5)) == 2


def test_b_map_bijective_iff_distributive(lattices_upto_6):
    for lat in lattices_upto_6:
        points = len(build_bitop_spectrum(lat).points)
        bijective = sorted(b_map(lat)) == list(range(points))
        assert bijective == is_distributive(lat).distributive, lat.name


# --- covering witnesses ------------------------------------------------------


def test_gbd_trivial_reflexive(m5):
    spec = build_bitop_spectrum(m5)
    for x in range(m5.n):
        assert gbd_witness(spec, 1 << x, 1 << x) is None
        assert finite_subfamily_witness(spec, 1 << x, 1 << x) is None


def test_gbd_m5_witness_branch(m5):
    # meet(a, b) = 0 <= c: the containment holds, and V, W are already the
    # least subfamilies around z = 0
    a, b, c = (m5.index(s) for s in "abc")
    spec = build_bitop_spectrum(m5)
    assert gbd_witness(spec, mask_of([a, b]), 1 << c) is None
    assert greedy_shrink_brute(mask_of([a, b]), m5.meet_of, lambda m: m5.leq(m, m5.bottom)) == mask_of([a, b])
    assert finite_subfamily_witness(spec, mask_of([a, b]), 1 << c) is None


@pytest.mark.parametrize(
    "shrunk, message, cover_message",
    [
        (lambda v: v & -v, "witness chain broken for V={a,b} W={c}", "cover witness join does not dominate"),
        (lambda v: v | 1, "witness subsets escape the inputs", "witness subsets escape the inputs"),
    ],
)
def test_finite_subfamily_oracle_reports_a_broken_shrink(monkeypatch, m5, shrunk, message, cover_message):
    # the clauses hold for the greedy shrink; a shrink that drops a member
    # V needs (keeping only a), or adds one (the bottom), is reported in the
    # suite's old texts
    import oracles

    a, b, c = (m5.index(s) for s in "abc")
    spec = build_bitop_spectrum(m5)
    monkeypatch.setattr(oracles, "greedy_shrink_brute", lambda mask, product_of, keeps: shrunk(mask))
    assert finite_subfamily_witness(spec, mask_of([a, b]), 1 << c) == message
    assert cover_subfamily_witness(spec, m5.top, mask_of([a, b])) == cover_message


def test_gbd_m5_separating_branch(m5):
    a, b = m5.index("a"), m5.index("b")
    assert gbd_witness(build_bitop_spectrum(m5), 1 << a, 1 << b).label() == "({0,b};{a,1})"


def test_gbd_empty_input(m5):
    with pytest.raises(EmptyInput):
        gbd_witness(build_bitop_spectrum(m5), 0, 1)


def certify_gbd(spec, v, w, pair):
    """``pair`` is ``gbd_witness(spec, v, w)``: None exactly when the
    epsilon-intersection over V lies inside the delta-union over W, with
    the finite-subfamily clause holding, else a point of the one outside
    the other."""
    inter = full_mask(len(spec.points))
    for x in bits(v):
        inter &= spec.epsilon[x]
    union = 0
    for y in bits(w):
        union |= spec.delta[y]
    if pair is None:
        assert is_subset(inter, union)
        assert finite_subfamily_witness(spec, v, w) is None
    else:
        assert not is_subset(inter, union)
        k = 1 << spec.index[pair.a, pair.b]
        assert inter & k and not union & k


def test_gbd_randomized_certificates(cat):
    rng = random.Random(20240817)
    for lat in cat.values():
        if lat.n < 1:
            continue
        spec = build_bitop_spectrum(lat)
        full = full_mask(lat.n)
        for _ in range(40):
            v = rng.randint(1, full)
            w = rng.randint(1, full)
            certify_gbd(spec, v, w, gbd_witness(spec, v, w))


def certify_delta(spec, x, v, pair):
    """``pair`` is ``gbd_witness(spec, 1 << x, v)``, the delta-compactness
    case: None exactly when delta(x) lies inside the delta-union over V,
    with the finite-subfamily clause holding, else a point of delta(x)
    outside it."""
    union = 0
    for y in bits(v):
        union |= spec.delta[y]
    if pair is None:
        assert is_subset(spec.delta[x], union)
        assert cover_subfamily_witness(spec, x, v) is None
    else:
        assert not is_subset(spec.delta[x], union)
        k = 1 << spec.index[pair.a, pair.b]
        assert spec.delta[x] & k and not union & k


def test_gbd_every_generator_pair(lattices_upto_4):
    kinds = {"witness": 0, "separating": 0}
    for lat in lattices_upto_4:
        spec = build_bitop_spectrum(lat)
        for v in range(1, 1 << lat.n):
            for w in range(1, 1 << lat.n):
                pair = gbd_witness(spec, v, w)
                certify_gbd(spec, v, w, pair)
                kinds["witness" if pair is None else "separating"] += 1
    # all (2^n - 1)^2 nonempty pairs of the 5 lattices: 509
    assert kinds == {"witness": 469, "separating": 40}


def test_delta_compactness_every_cover(lattices_upto_5):
    kinds = {"witness": 0, "separating": 0}
    for lat in lattices_upto_5:
        spec = build_bitop_spectrum(lat)
        for x in range(lat.n):
            for v in range(1, 1 << lat.n):
                pair = gbd_witness(spec, 1 << x, v)
                certify_delta(spec, x, v, pair)
                kinds["witness" if pair is None else "separating"] += 1
    # n * (2^n - 1) pairs (x, V) over the 10 lattices: 923
    assert kinds == {"witness": 772, "separating": 151}


def test_delta_compactness_trivial(m5):
    a = m5.index("a")
    spec = build_bitop_spectrum(m5)
    v = mask_of([a, m5.index("b")])
    assert gbd_witness(spec, 1 << a, v) is None
    # the shrink drops b: a alone dominates a
    assert greedy_shrink_brute(v, m5.join_of, lambda j: m5.leq(a, j)) == 1 << a
    assert cover_subfamily_witness(spec, a, v) is None


def test_delta_compactness_m5(m5):
    a, b = m5.index("a"), m5.index("b")
    spec = build_bitop_spectrum(m5)
    assert gbd_witness(spec, 1 << m5.top, mask_of([a, b])) is None
    assert greedy_shrink_brute(mask_of([a, b]), m5.join_of, lambda j: m5.leq(m5.top, j)) == mask_of([a, b])
    assert gbd_witness(spec, 1 << a, 1 << b).label() == "({0,b};{a,1})"


# --- prime points ------------------------------------------------------------


def test_prime_points_diamond_all(diamond):
    spec = build_bitop_spectrum(diamond)
    assert prime_points(spec) == (0, 1)


def test_prime_points_m5_none(m5):
    assert prime_points(build_bitop_spectrum(m5)) == ()


def test_prime_points_n5(n5):
    # ({0,b};{a,c,1}) has a prime ideal yet distinct closures: the point
    # ({0,a};{c,1}) lies sigma-below it but not tau-below it.  Only the
    # embedded image of {0,a,c} has coinciding closures.
    spec = build_bitop_spectrum(n5)
    pts = prime_points(spec)
    assert [spec.points[k].label() for k in pts] == ["({0,a,c};{b,1})"]
    space = spec.space
    a, b, c = (n5.index(s) for s in "abc")
    witness = spec.index[a, c]  # ({0,a};{c,1})
    prime_but_split = spec.index[b, a]  # ({0,b};{a,c,1})
    assert space.up_sigma[witness] >> prime_but_split & 1
    assert not space.up_tau[witness] >> prime_but_split & 1


def test_all_points_prime_iff_distributive(lattices_upto_6):
    for lat in lattices_upto_6:
        spec = build_bitop_spectrum(lat)
        all_prime = len(prime_points(spec)) == len(spec.points)
        assert all_prime == is_distributive(lat).distributive


# --- bounds from the topology -------------------------------------------------


def test_bounds_all_catalog(cat):
    for lat in cat.values():
        assert top_via_compactness(lat) == lat.top
        assert bottom_via_fundamental(lat) == lat.bottom


def test_two_chain_epsilon_bottom_is_empty(chain2):
    spec = build_bitop_spectrum(chain2)
    assert spec.epsilon[chain2.bottom] == 0


# --- essential family --------------------------------------------------------


def test_essential_equals_delta_examples(chain2, m5):
    for lat, size in ((chain2, 2), (m5, 5)):
        spec = build_bitop_spectrum(lat)
        assert essential_subsets(spec.space) == frozenset(spec.delta)
        assert len(essential_subsets(spec.space)) == size


def test_essential_equals_delta_upto_6(lattices_upto_6):
    for lat in lattices_upto_6:
        spec = build_bitop_spectrum(lat)
        assert essential_subsets(spec.space) == frozenset(spec.delta), lat.name
        assert len(set(spec.delta)) == lat.n, lat.name
        assert suites.check_essential_family(lat) is None, lat.name


# --- specialization orders (the order characterizations) ----------------------


def test_order_characterizations(lattices_upto_5, cat):
    sample = list(lattices_upto_5) + [cat["hexagon"], cat["m5xchain2"]]
    for lat in sample:
        spec = build_bitop_spectrum(lat)
        space = spec.space
        pts = spec.points
        for p, q in itertools.product(range(len(pts)), repeat=2):
            assert bool(space.up_tau[p] >> q & 1) == is_subset(
                pair_ideal(pts[q]), pair_ideal(pts[p])
            )
            assert bool(space.up_sigma[p] >> q & 1) == is_subset(
                pair_filter(pts[p]), pair_filter(pts[q])
            )


def test_m5_same_ideal_points_tau_equivalent(m5):
    spec = build_bitop_spectrum(m5)
    a, b, c = (m5.index(s) for s in "abc")
    p = spec.index[a, b]  # ({0,a};{b,1})
    q = spec.index[a, c]  # ({0,a};{c,1})
    assert spec.space.up_tau[p] >> q & 1
    assert spec.space.up_tau[q] >> p & 1
