"""Acceptance suite: one test per criterion, exact expectations, one
printed PASS line each.  Everything runs at desk scale in well under the
five-minute budget."""

import dataclasses
import io
import random
import subprocess
import sys
import zlib

from lattice_spectra.bitsets import full_mask, is_subset
from lattice_spectra.lattices import all_homs, check_hom
from lattice_spectra.spectra import (
    b_map,
    build_bitop_spectrum,
    build_classical_spectrum,
    comaximal_pairs,
    gbd_witness,
    prime_points,
)
from lattice_spectra.duality import (
    big_h_map,
    delta_embedding,
    delta_natural_iso_check,
    essential_functor_on_morphism,
    fundamental_lattice,
    h_map_classical,
    proper_witness,
    quasi_proper_witness,
    spec_b_on_hom,
    to_bitopological,
    to_topological,
)
from lattice_spectra.topology import essential_subsets, op_d, op_i, pairwise_t0_witness
from lattice_spectra import cli, suites

from oracles import (
    adjunction_witness,
    compose,
    compose_morphisms,
    count_lattices_brute,
    distributivity_faces,
    essential_subsets_brute,
    identity_hom,
    increasing_pairs,
    is_homeomorphism_brute,
    opens,
    pair_filter,
    pair_ideal,
    stability_witness,
)
from test_spectra import certify_gbd


def report(number, slug):
    print(f"ACCEPTANCE {number} {slug}: PASS")


def test_criterion_01_counterexample_lattice_facts(cat):
    m5, n5, chain2 = cat["m5"], cat["n5"], cat["chain2"]
    assert build_classical_spectrum(m5).points == ()
    assert len(comaximal_pairs(m5)) == 6
    assert len(comaximal_pairs(chain2)) == 1
    n5_primes = [n5.set_label(p) for p in build_classical_spectrum(n5).points]
    assert n5_primes == ["{0,b}", "{0,a,c}"]
    report(1, "counterexample-lattice-facts")


def test_criterion_02_embedding_laws_exhaustive(lattices_upto_6):
    for lat in lattices_upto_6:
        spec = build_bitop_spectrum(lat)
        assert len(set(spec.delta)) == lat.n, lat.name
        assert len(set(spec.epsilon)) == lat.n, lat.name
        for x in range(lat.n):
            assert is_subset(spec.epsilon[x], spec.delta[x]), lat.name
            for y in range(lat.n):
                assert spec.delta[lat.join(x, y)] == spec.delta[x] | spec.delta[y], lat.name
                assert spec.epsilon[lat.meet(x, y)] == spec.epsilon[x] & spec.epsilon[y], lat.name
    report(2, "delta-epsilon-laws-upto-6")


def test_criterion_03_distributivity_characterizations(lattices_upto_6, cat):
    for lat in lattices_upto_6:
        distributive = lat.distributive
        spec = build_bitop_spectrum(lat)
        assert (spec.delta == spec.epsilon) == distributive, lat.name
        all_prime = len(prime_points(spec)) == len(spec.points)
        assert all_prime == distributive, lat.name
    for name in ("m5", "n5"):
        spec = build_bitop_spectrum(cat[name])
        assert spec.delta != spec.epsilon
        assert len(prime_points(spec)) < len(spec.points)
    for name in ("chain2", "chain3", "chain4", "chain5", "diamond", "b3", "chain2xchain3", "chain3xchain3"):
        spec = build_bitop_spectrum(cat[name])
        assert spec.delta == spec.epsilon
        assert len(prime_points(spec)) == len(spec.points)
    report(3, "distributivity-iff-maps-and-prime-points")


def test_criterion_04_order_characterizations(lattices_upto_6):
    for lat in lattices_upto_6:
        spec = build_bitop_spectrum(lat)
        space = spec.space
        pts = spec.points
        for p in range(len(pts)):
            for q in range(len(pts)):
                assert bool(space.up_tau[p] >> q & 1) == is_subset(
                    pair_ideal(pts[q]), pair_ideal(pts[p])
                ), lat.name
                assert bool(space.up_sigma[p] >> q & 1) == is_subset(
                    pair_filter(pts[p]), pair_filter(pts[q])
                ), lat.name
        witness = pairwise_t0_witness(space)
        assert witness is None, (lat.name, witness)
    report(4, "specialization-orders-and-pairwise-t0")


def test_criterion_05_transition_operators(lattices_upto_6):
    for lat in lattices_upto_6:
        spec = build_bitop_spectrum(lat)
        space = spec.space
        for x in range(lat.n):
            assert op_d(space, spec.delta[x]) == spec.epsilon[x], lat.name
            assert op_i(space, spec.epsilon[x]) == spec.delta[x], lat.name
        # the identities settle stability and co-stability
        assert stability_witness(spec) is None, lat.name
        # every spectrum here has at most 12 points: every pair of
        # increasing sets
        assert adjunction_witness(space, increasing_pairs(space)) is None, lat.name
    report(5, "transition-operator-adjunction")


def test_criterion_06_essential_family_reconstruction(lattices_upto_6):
    for lat in lattices_upto_6:
        spec = build_bitop_spectrum(lat)
        # the essential family is also found by brute force over all
        # tau-increasing subsets; every spectrum here has at most 12 points
        assert len(spec.points) <= 12
        brute = essential_subsets_brute(spec.space)
        assert essential_subsets(spec.space) == brute, lat.name
        assert brute == frozenset(spec.delta), lat.name
        assert len(brute) == lat.n, lat.name
    report(6, "essential-sets-are-the-delta-image")


def test_criterion_07_covering_reduction_certificates(cat):
    for name, lat in cat.items():
        spec = build_bitop_spectrum(lat)
        rng = random.Random(0xC0FFEE ^ zlib.crc32(name.encode()) & 0xFFFF)
        full = full_mask(lat.n)
        for _ in range(200):
            v = rng.randint(1, full)
            w = rng.randint(1, full)
            certify_gbd(spec, v, w, gbd_witness(spec, v, w))
    report(7, "covering-reduction-200-seeded-triples")


def test_criterion_08_duality_round_trips(lattices_upto_6, lattices_upto_4):
    for lat in lattices_upto_6:
        emb = delta_embedding(lat)  # construction validates meet/join
        assert len(set(emb.mapping)) == lat.n == emb.target.n, lat.name
        assert suites.reconstruction_witness(build_bitop_spectrum(lat).space) is None, lat.name
    # functor laws and naturality over the full corpus of homs between
    # lattices with at most four elements
    for a in lattices_upto_4:
        ident = spec_b_on_hom(identity_hom(a))
        assert ident.mapping == tuple(range(ident.source.n))
        for b in lattices_upto_4:
            for f in all_homs(a, b):
                mf = spec_b_on_hom(f)
                if mf is None:
                    continue
                assert delta_natural_iso_check(f, essential_functor_on_morphism(mf)) is None, f.label()
                hx, hy = big_h_map(mf.source), big_h_map(mf.target)
                lifted = spec_b_on_hom(essential_functor_on_morphism(mf))
                for k in range(mf.source.n):
                    assert lifted.mapping[hx[k]] == hy[mf.mapping[k]], f.label()
                for c in lattices_upto_4:
                    for g in all_homs(b, c):
                        mg = spec_b_on_hom(g)
                        if mg is None:
                            continue
                        left = spec_b_on_hom(compose(f, g))
                        assert left.mapping == compose_morphisms(mg, mf).mapping, (f.label(), g.label())
    report(8, "duality-round-trips-and-functor-laws")


def test_criterion_09_distributive_unification(lattices_upto_6, lattices_upto_4):
    for lat in lattices_upto_6:
        if not lat.distributive:
            continue
        space = build_bitop_spectrum(lat).space
        assert distributivity_faces(space) == (True, True, True, True), lat.name
        classical = build_classical_spectrum(lat)
        point_map = b_map(lat)
        assert sorted(point_map) == list(range(space.n)), lat.name
        assert is_homeomorphism_brute(point_map, classical.space, space.tau), lat.name
        fund = fundamental_lattice(classical.space)
        assert fund.lattice.n == lat.n, lat.name
        mapping = tuple(fund.element_of(classical.dmap[x]) for x in range(lat.n))
        check_hom(lat, fund.lattice, mapping)
        assert len(set(mapping)) == lat.n, lat.name
        target = build_classical_spectrum(fund.lattice).space
        assert is_homeomorphism_brute(h_map_classical(classical.space), classical.space, target), lat.name
        bridge = to_topological(space)
        assert opens(to_bitopological(bridge).tau) == opens(bridge), lat.name
    # forget/double are mutually inverse across the small corpus too
    for lat in lattices_upto_4:
        if not lat.distributive:
            continue
        space = build_bitop_spectrum(lat).space
        top = to_topological(space)
        doubled = to_bitopological(top)
        assert opens(doubled.tau) == opens(top) and opens(doubled.sigma) == opens(top)
        assert opens(to_topological(doubled)) == opens(top)
    report(9, "distributive-unification")


def test_criterion_10_hom_classification(lattices_upto_4, cat):
    for src in lattices_upto_4:
        for tgt in lattices_upto_4:
            for hom in all_homs(src, tgt):
                proper = proper_witness(hom) is None
                quasi_proper = quasi_proper_witness(hom) is None
                if quasi_proper:
                    assert proper, hom.label()
                if src.distributive and tgt.distributive:
                    assert proper == quasi_proper, hom.label()
    chain2, m5 = cat["chain2"], cat["m5"]
    split = []
    for x in range(m5.n):
        for y in range(m5.n):
            if x == y or not m5.leq(x, y):
                continue
            hom = check_hom(chain2, m5, (x, y))
            witness = quasi_proper_witness(hom)
            if proper_witness(hom) is None and witness is not None:
                split.append((m5.names[x], m5.names[y], witness))
    assert split, "expected a proper-but-not-quasi-proper two-chain inclusion"
    print(f"  proper-but-not-quasi-proper inclusions: {split}")
    report(10, "homomorphism-classification")


def test_criterion_11_cli_contract(cat, tmp_path, monkeypatch):
    proc = subprocess.run(
        [sys.executable, "-m", "lattice_spectra.cli", "verify", "--exhaustive", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    expected = sum(count_lattices_brute(n) for n in range(1, 6))
    assert expected == 10
    assert f"lattices: {expected} " in proc.stdout
    assert "failures: 0" in proc.stdout

    # mutation smoke test: corrupt single meet-table entries of a catalog
    # lattice record and watch a suite fail
    m5 = cat["m5"]
    from lattice_spectra.suites import check_lattice_axioms, suite_for_lattice

    def corrupt(lat, i, j, value, name=""):
        table = [list(row) for row in lat.meet_table]
        table[i][j] = value
        return dataclasses.replace(lat, meet_table=tuple(map(tuple, table)), name=name or lat.name)

    detected = 0
    for i in range(m5.n):
        for j in range(m5.n):
            for value in range(m5.n):
                if value == m5.meet_table[i][j]:
                    continue
                witness = check_lattice_axioms(corrupt(m5, i, j, value))
                assert witness is not None, (i, j, value)
                detected += 1
    assert detected == m5.n * m5.n * (m5.n - 1)

    mutant = corrupt(m5, m5.index("a"), m5.index("b"), m5.index("c"), "m5_mutant")
    results = suite_for_lattice(mutant)
    failing = [r for r in results if not r.passed]
    assert failing and all(r.witness for r in failing)

    monkeypatch.setattr(cli, "named_lattices", lambda: {"m5_mutant": mutant})
    buf = io.StringIO()
    code = cli.main(["verify", "--catalog"], out=buf)
    out = buf.getvalue()
    assert code == 1
    assert "FAIL m5_mutant" in out
    assert "witness=" in out
    report(11, "cli-contract-and-mutation-smoke")
