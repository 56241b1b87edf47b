import pytest

from lattice_spectra import suites
from lattice_spectra.errors import NotBDSpace, NotDoublyBD
from lattice_spectra.lattices import all_homs, check_hom
from lattice_spectra.spectra import (
    b_map,
    build_bitop_spectrum,
    build_classical_spectrum,
    comaximal_pairs,
)
from lattice_spectra.duality import (
    big_h_map,
    delta_embedding,
    delta_natural_iso_check,
    essential_functor_on_morphism,
    essential_lattice,
    fundamental_lattice,
    h_map_classical,
    pbd_morphism_witness,
    proper_witness,
    quasi_proper_witness,
    spec_b_on_hom,
    to_bitopological,
    to_topological,
)
from lattice_spectra.topology import doubled_space, is_continuous, op_d, op_i, topology_from_subbasis

from oracles import (
    compose,
    compose_morphisms,
    distributivity_faces,
    identity_hom,
    identity_morphism,
    is_homeomorphism_brute,
    opens,
    pair_filter,
    pair_ideal,
    spectrum_map_brute,
    strongly_continuous_brute,
)


# --- essential lattice --------------------------------------------------------


def test_essential_lattice_of_m5_is_m5_shaped(m5):
    ess = essential_lattice(build_bitop_spectrum(m5).space)
    assert ess.lattice.n == 5
    from lattice_spectra.catalog import canonical_form

    assert canonical_form(ess.lattice) == canonical_form(m5)


def test_essential_lattice_operations(lattices_upto_5):
    for lat in lattices_upto_5:
        space = build_bitop_spectrum(lat).space
        ess = essential_lattice(space)
        for i in range(ess.lattice.n):
            for j in range(ess.lattice.n):
                assert ess.subsets[ess.lattice.join_table[i][j]] == ess.subsets[i] | ess.subsets[j]
                assert ess.subsets[ess.lattice.meet_table[i][j]] == op_i(
                    space, op_d(space, ess.subsets[i] & ess.subsets[j])
                )


# --- homomorphism classification ----------------------------------------------


def test_identity_classification(m5):
    hom = identity_hom(m5)
    assert proper_witness(hom) is None and quasi_proper_witness(hom) is None
    assert build_classical_spectrum(m5).points == ()  # so proper vacuously


def test_atom_inclusions_proper_not_quasi_proper(chain2, m5):
    verdicts = []
    for atom in ("a", "b", "c"):
        hom = check_hom(chain2, m5, (0, m5.index(atom)))
        verdicts.append((atom, proper_witness(hom), quasi_proper_witness(hom)))
    # m5 has no prime ideal, so each inclusion is proper vacuously
    assert verdicts == [
        ("a", None, "preimage of ({0,a};{b,1}) is not comaximal"),
        ("b", None, "preimage of ({0,a};{c,1}) is not comaximal"),
        ("c", None, "preimage of ({0,a};{b,1}) is not comaximal"),
    ]


def test_bottom_top_inclusion_is_quasi_proper(chain2, m5):
    hom = check_hom(chain2, m5, (0, m5.top))
    assert proper_witness(hom) is None and quasi_proper_witness(hom) is None


def test_quasi_proper_implies_proper_corpus(lattices_upto_4):
    for src in lattices_upto_4:
        for tgt in lattices_upto_4:
            for hom in all_homs(src, tgt):
                if quasi_proper_witness(hom) is None:
                    assert proper_witness(hom) is None, hom.label()


def test_proper_iff_quasi_proper_on_distributive(lattices_upto_4):
    for src in lattices_upto_4:
        if not src.distributive:
            continue
        for tgt in lattices_upto_4:
            if not tgt.distributive:
                continue
            for hom in all_homs(src, tgt):
                assert (proper_witness(hom) is None) == (quasi_proper_witness(hom) is None), hom.label()


# --- spectrum functor on morphisms ---------------------------------------------


def test_pull_back_matches_literal_preimages(lattices_upto_5, cat):
    lats = list(lattices_upto_5) + [lat for lat in cat.values() if lat.n <= 6]
    homs = quasi_proper = 0
    for a in lats:
        for b in lats:
            for h in all_homs(a, b):
                homs += 1
                expected, failing = spectrum_map_brute(h)
                witness = quasi_proper_witness(h)
                m = spec_b_on_hom(h)
                if expected is None:
                    i, f = failing
                    label = f"({b.set_label(i)};{b.set_label(f)})"
                    assert witness == f"preimage of {label} is not comaximal", h.label()
                    assert m is None, h.label()
                else:
                    quasi_proper += 1
                    assert witness is None, h.label()
                    assert m.mapping == expected, h.label()
    assert (homs, quasi_proper) == (9944, 1818)


def test_spec_b_identity(m5):
    m = spec_b_on_hom(identity_hom(m5))
    assert m.mapping == tuple(range(6))


def test_spec_b_requires_quasi_proper(chain2, m5):
    assert spec_b_on_hom(check_hom(chain2, m5, (0, m5.index("a")))) is None


def test_spec_b_collapse_surjection(diamond, chain2):
    f = check_hom(diamond, chain2, (0, 1, 0, 1))  # p -> 1, q -> 0
    m = spec_b_on_hom(f)
    assert m.source.n == 1 and m.target.n == 2
    src_spec = build_bitop_spectrum(diamond)
    pair = src_spec.points[m.mapping[0]]
    assert diamond.set_label(pair_ideal(pair)) == "{0,q}"
    assert diamond.set_label(pair_filter(pair)) == "{p,1}"


def test_spec_b_contravariant_composition(lattices_upto_4):
    for a in lattices_upto_4:
        for b in lattices_upto_4:
            for f in all_homs(a, b):
                mf = spec_b_on_hom(f)
                if mf is None:
                    continue
                for c in lattices_upto_4:
                    for g in all_homs(b, c):
                        mg = spec_b_on_hom(g)
                        if mg is None:
                            continue
                        left = spec_b_on_hom(compose(f, g))
                        assert left.mapping == compose_morphisms(mg, mf).mapping


def test_pbd_morphism_witness_rejects_maps_off_the_carriers(m5):
    # a wrong length, or a value at or past the target's last point or
    # below 0, is no point map; the identity passes every condition
    space = build_bitop_spectrum(m5).space
    identity = tuple(range(space.n))
    assert pbd_morphism_witness(space, space, identity) is None
    for bad in (identity[:-1], identity[:-1] + (space.n,), identity[:-1] + (-1,)):
        assert pbd_morphism_witness(space, space, bad) == "mapping is not a point map between the carriers"


def test_essential_functor_identity(m5):
    m = identity_morphism(build_bitop_spectrum(m5).space)
    hom = essential_functor_on_morphism(m)
    assert hom.mapping == tuple(range(hom.source.n))


def test_essential_functor_on_collapse(diamond, chain2):
    f = check_hom(diamond, chain2, (0, 1, 0, 1))
    hom = essential_functor_on_morphism(spec_b_on_hom(f))
    assert hom.source.n == 4 and hom.target.n == 2
    assert quasi_proper_witness(hom) is None


# --- comaximal characterization and the reconstruction isomorphism -------------


def test_char_one_point_space():
    from lattice_spectra.topology import topology_from_subbasis

    space = doubled_space(topology_from_subbasis(1, []))
    assert suites.comaximal_witness(space) is None
    assert big_h_map(space) == (0,)


def test_char_m5(m5):
    space = build_bitop_spectrum(m5).space
    assert suites.comaximal_witness(space) is None
    ess = essential_lattice(space)
    assert len(comaximal_pairs(ess.lattice)) == 6
    # a bijection onto the comaximal pairs of the essential lattice
    assert sorted(big_h_map(space)) == list(range(6))


def test_big_h_roundtrip(lattices_upto_5, cat):
    sample = list(lattices_upto_5) + [cat["hexagon"], cat["b3"], cat["m5xchain2"]]
    for lat in sample:
        assert suites.reconstruction_witness(build_bitop_spectrum(lat).space) is None, lat.name


def test_big_h_requires_pairwise_bd():
    from lattice_spectra.errors import NotPairwiseBD
    from lattice_spectra.topology import topology_from_subbasis

    space = doubled_space(topology_from_subbasis(2, []))
    with pytest.raises(NotPairwiseBD):
        big_h_map(space)


def test_delta_embedding_is_iso(lattices_upto_5):
    for lat in lattices_upto_5:
        emb = delta_embedding(lat)  # built through check_hom, which validates ops
        assert len(set(emb.mapping)) == lat.n == emb.target.n


# --- classical representation ---------------------------------------------------


def _h_classical_target(top):
    return build_classical_spectrum(fundamental_lattice(top).lattice)


def test_h_classical_two_chain(chain2):
    top = build_classical_spectrum(chain2).space
    assert is_homeomorphism_brute(h_map_classical(top), top, _h_classical_target(top).space)
    assert fundamental_lattice(top).lattice.n == 2


def test_h_classical_diamond(diamond):
    top = build_classical_spectrum(diamond).space
    assert sorted(h_map_classical(top)) == [0, 1]
    assert is_homeomorphism_brute(h_map_classical(top), top, _h_classical_target(top).space)
    assert len(_h_classical_target(top).points) == 2


def test_h_classical_all_distributive(lattices_upto_5):
    for lat in lattices_upto_5:
        if not lat.distributive:
            continue
        top = build_classical_spectrum(lat).space
        mapping = h_map_classical(top)
        assert -1 not in mapping, lat.name
        assert is_homeomorphism_brute(mapping, top, _h_classical_target(top).space), lat.name
        assert suites.check_classical_stone(lat) is None, lat.name


def test_classical_point_maps_continuity_is_strong_continuity(lattices_upto_5):
    # the corpus bridge checks continuity of each proper hom's prime-ideal map
    distributive = [lat for lat in lattices_upto_5 if lat.distributive]
    maps = 0
    for a in distributive:
        spec_a = build_classical_spectrum(a)
        index = {p: k for k, p in enumerate(spec_a.points)}
        for b in distributive:
            spec_b = build_classical_spectrum(b)
            for f in all_homs(a, b):
                if proper_witness(f) is not None:
                    continue
                point_map = [index[f.preimage(p)] for p in spec_b.points]
                continuous = is_continuous(point_map, spec_b.space, spec_a.space)
                assert continuous == strongly_continuous_brute(point_map, spec_b.space, spec_a.space)
                assert continuous, f.label()
                maps += 1
    assert maps == 381


def test_h_classical_rejects_non_bd():
    with pytest.raises(NotBDSpace):
        h_map_classical(topology_from_subbasis(2, []))


def test_fundamental_lattice_matches_source(lattices_upto_5):
    for lat in lattices_upto_5:
        if not lat.distributive:
            continue
        spec = build_classical_spectrum(lat)
        fund = fundamental_lattice(spec.space)
        assert fund.lattice.n == lat.n
        mapping = tuple(fund.element_of(spec.dmap[x]) for x in range(lat.n))
        check_hom(lat, fund.lattice, mapping)
        assert len(set(mapping)) == lat.n


# --- naturality ------------------------------------------------------------------


def _natural_square(hom):
    return delta_natural_iso_check(hom, essential_functor_on_morphism(spec_b_on_hom(hom)))


def test_naturality_identity(m5):
    assert _natural_square(identity_hom(m5)) is None


def test_naturality_collapse(diamond, chain2):
    f = check_hom(diamond, chain2, (0, 1, 0, 1))
    assert _natural_square(f) is None


def test_naturality_catalog_small(cat):
    small = [cat[k] for k in ("chain1", "chain2", "chain3", "chain4", "chain5", "diamond", "m5", "n5")]
    for src in small:
        for tgt in small:
            for hom in all_homs(src, tgt):
                if spec_b_on_hom(hom) is not None:
                    assert _natural_square(hom) is None, hom.label()


# --- bridge ----------------------------------------------------------------------


def test_bridge_roundtrip(diamond):
    top = build_classical_spectrum(diamond).space
    space = to_bitopological(top)
    assert opens(space.tau) == opens(top)
    back = to_topological(space)
    assert opens(back) == opens(top)


def test_bridge_rejections(m5):
    with pytest.raises(NotDoublyBD):
        to_topological(build_bitop_spectrum(m5).space)
    with pytest.raises(NotBDSpace):
        to_bitopological(topology_from_subbasis(2, []))


def test_doubled_zariski_is_pairwise_bd(diamond):
    from lattice_spectra.topology import pairwise_bd_witness

    top = build_classical_spectrum(diamond).space
    assert pairwise_bd_witness(doubled_space(top)) is None


def test_b_map_into_forgotten_spectrum(lattices_upto_5):
    for lat in lattices_upto_5:
        if not lat.distributive:
            continue
        point_map = b_map(lat)
        spec = build_bitop_spectrum(lat)
        assert sorted(point_map) == list(range(len(spec.points))), lat.name
        assert is_homeomorphism_brute(point_map, build_classical_spectrum(lat).space, spec.space.tau), lat.name
        assert suites.b_map_witness(lat, point_map) is None, lat.name


# --- the four equivalent faces of distributivity ----------------------------------


def test_dischar_reports(diamond, m5, n5):
    assert distributivity_faces(build_bitop_spectrum(diamond).space) == (True, True, True, True)
    for lat in (m5, n5):
        assert distributivity_faces(build_bitop_spectrum(lat).space) == (False, False, False, False)
    for lat in (diamond, m5, n5):
        assert suites.check_distributive_equivalences(lat) is None


def test_dischar_upto_5(lattices_upto_5):
    for lat in lattices_upto_5:
        faces = distributivity_faces(build_bitop_spectrum(lat).space)
        assert faces == (lat.distributive,) * 4, lat.name
        assert suites.check_distributive_equivalences(lat) is None, lat.name
