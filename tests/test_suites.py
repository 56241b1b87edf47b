import ast
import dataclasses
import itertools
import random
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from lattice_spectra import duality, spectra, suites
from lattice_spectra.bitsets import bits
from lattice_spectra.errors import NotBDSpace, NotPairwiseBD
from lattice_spectra.catalog import named_lattices
from lattice_spectra.lattices import LatticeHom, check_hom
from lattice_spectra.spectra import (
    ComaximalPair,
    build_bitop_spectrum,
    build_classical_spectrum,
    gbd_witness,
)
from lattice_spectra.topology import FiniteTopology, bitop_space, fundamental_subsets

from oracles import (
    NotIncreasing,
    associativity_failure_brute,
    comaximal_pair_witness,
    covering_witnesses_literal,
    image_intersection_closed,
    stability_witness,
)
from test_golden import _boolean, _diamond
from test_topology import discrete, indiscrete, sierpinski

CORPUS_CHECKS = ["hom_classification", "functor_laws", "naturality_squares", "classical_bridge"]


def test_corpus_classifies_each_hom_once(monkeypatch):
    pulled, classified = [], []
    pull_back, proper_witness = duality._pull_back, suites.proper_witness

    def counting_pull_back(hom):
        pulled.append(hom)
        return pull_back(hom)

    def counting_proper_witness(hom):
        classified.append(hom)
        return proper_witness(hom)

    monkeypatch.setattr(duality, "_pull_back", counting_pull_back)
    monkeypatch.setattr(suites, "proper_witness", counting_proper_witness)
    corpus = suites.corpus_lattices()
    results = suites.corpus_checks(corpus)
    assert [(r.check, r.passed) for r in results] == [(c, True) for c in CORPUS_CHECKS]
    # the default corpus (the 5 lattices with at most 4 elements) has 221
    # homs, each pulled back and tested for properness once, as the table
    # is built; the functor laws then pull back the essential functor's
    # image of each of the 60 quasi-proper ones, and the naturality squares
    # lift each image once more
    table = pulled[:221]
    assert len(set(table)) == 221 and all(h.source in corpus for h in table)
    assert classified == table
    images, lifts = pulled[221:281], pulled[281:]
    assert len(set(images)) == sum(pull_back(h)[0] is not None for h in table) == 60
    assert lifts == images
    assert all(h.source.name == "essential" for h in images)


@pytest.mark.parametrize("broken", ["proper_witness", "spec_b_on_hom"])
def test_corpus_table_failure_fails_every_check(monkeypatch, broken):
    def boom(hom):
        raise RuntimeError("boom")

    monkeypatch.setattr(suites, broken, boom)
    results = suites.corpus_checks()
    assert [(r.lattice, r.check, r.passed, r.witness) for r in results] == [
        ("corpus", c, False, "RuntimeError: boom") for c in CORPUS_CHECKS
    ]


@pytest.mark.parametrize(
    "check, planted, hom, witness",
    [
        ("hom_classification", "proper_witness", (1, 1, (0, 1)), "quasi-proper but not proper: x0->x0 x1->x1"),
        (
            "hom_classification",
            "spec_b_on_hom",
            (1, 2, (0, 2)),
            "proper/quasi-proper split on distributive pair: x0->x0 x1->x2",
        ),
        (
            "functor_laws",
            "spec_b_on_hom",
            (2, 1, (0, 0, 1)),
            "composition of quasi-proper homs is not quasi-proper: x0->x0 x1->x0 x2->x2 ; x0->x0 x1->x1 x2->x1",
        ),
        ("classical_bridge", "spec_b_on_hom", (1, 1, (0, 1)), "proper hom is not quasi-proper: x0->x0 x1->x1"),
    ],
    ids=["quasi-proper-not-proper", "distributive-split", "composition", "proper-not-quasi-proper"],
)
def test_planted_hom_verdict_reaches_its_corpus_clause(monkeypatch, check, planted, hom, witness):
    # one hom of the default corpus, (source position, target position,
    # mapping), is made not proper or not quasi-proper.  Every corpus lattice
    # is distributive, so a quasi-proper hom planted as not proper also
    # splits a distributive pair: only the text tells the clauses apart
    corpus = suites.corpus_lattices()
    i, j, mapping = hom
    chosen = LatticeHom(corpus[i], corpus[j], mapping)
    real = getattr(suites, planted)
    value = "planted" if planted == "proper_witness" else None
    monkeypatch.setattr(suites, planted, lambda h: value if h == chosen else real(h))
    result = next(r for r in suites.corpus_checks(corpus) if r.check == check)
    assert (result.passed, result.witness) == (False, witness)


def _covering_draws(lat):
    """The 60 (V, W, x) draws of the covering suite, repeats included."""
    rng = random.Random(7)
    full = (1 << lat.n) - 1
    draws = []
    for _ in range(60):
        v = rng.randint(1, full)
        w = rng.randint(1, full)
        draws.append((v, w, rng.randrange(lat.n)))
    return draws


def test_covering_witnesses_sample_stream(monkeypatch, cat):
    # the suite draws V, W, then x per sample, 60 samples from Random(7), and
    # hands gbd_witness the lattice's one cached spectrum twice per distinct
    # triple, on (V, W) and on ({x}, V), in order of first occurrence
    calls = []
    gbd = suites.gbd_witness

    def recording_gbd(spectrum, v, w):
        calls.append((spectrum, v, w))
        return gbd(spectrum, v, w)

    monkeypatch.setattr(suites, "gbd_witness", recording_gbd)
    for name in ("chain1", "m5", "n5", "hexagon", "b3"):
        lat = cat[name]
        spec = build_bitop_spectrum(lat)
        calls.clear()
        assert suites.check_covering_witnesses(lat) is None
        expected = []
        for v, w, x in dict.fromkeys(_covering_draws(lat)):
            expected += [(spec, v, w), (spec, 1 << x, v)]
        assert all(c[0] is spec for c in calls), name
        assert calls == expected, name
        if name == "chain1":
            assert calls == [(spec, 1, 1), (spec, 1, 1)]


def test_covering_witnesses_equal_literal_loop(lattices_upto_6, cat):
    # certifying each distinct sample once gives the verdict of all 60
    for lat in [*lattices_upto_6, *cat.values()]:
        assert covering_witnesses_literal(lat) is None
        assert suites.check_covering_witnesses(lat) is None


def test_covering_samples_drawn_once_per_size(lattices_upto_5, cat):
    # one run draws each lattice size's stream once and gives every lattice
    # of that size the triples it would draw alone
    lats = [*lattices_upto_5, *cat.values()]
    alone = [r for lat in lats for r in suites.suite_for_lattice(lat)]
    suites.covering_samples.cache_clear()
    assert suites.run_lattice_suites(lats) == alone
    sizes = {lat.n for lat in lats}
    info = suites.covering_samples.cache_info()
    assert (info.misses, info.hits) == (len(sizes), len(lats) - len(sizes))
    for lat in lats:
        assert suites.covering_samples(lat.n) == tuple(dict.fromkeys(_covering_draws(lat)))


def _reconstruction_caches():
    return {
        "big_h_map": duality.big_h_map,
        "comaximal_witness": suites.comaximal_witness,
        "reconstruction_witness": suites.reconstruction_witness,
    }


def _evaluations():
    """How often the reconstruction map and its two verdicts were evaluated
    since their caches were cleared, and how many spaces each keeps."""
    return {name: (fn.cache_info().misses, fn.cache_info().currsize) for name, fn in _reconstruction_caches().items()}


def _clear_reconstruction_caches():
    for fn in _reconstruction_caches().values():
        fn.cache_clear()


def test_one_reconstruction_report_per_space(cat):
    # the reconstruction map and both its verdicts are evaluated once per
    # spectrum in verify, though three suites read them, and the map once
    # per corpus lattice in the corpus checks, not per quasi-proper hom
    _clear_reconstruction_caches()
    lats = list(cat.values())
    assert all(r.passed for r in suites.run_lattice_suites(lats))
    spaces = {build_bitop_spectrum(lat).space for lat in lats}
    assert _evaluations() == {name: (len(spaces), len(spaces)) for name in _reconstruction_caches()}

    _clear_reconstruction_caches()
    corpus = suites.corpus_lattices()
    assert all(r.passed for r in suites.corpus_checks(corpus))
    assert _evaluations() == {"big_h_map": (5, 5), "comaximal_witness": (0, 0), "reconstruction_witness": (0, 0)}
    assert len(corpus) == 5


def _plant(monkeypatch, name, make):
    """Replace ``name`` by ``make(real)`` in each of duality, spectra and
    suites that binds it, so a fault reaches every caller."""
    for module in (duality, spectra, suites):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, make(getattr(module, name)))


def test_failing_reconstruction_keeps_each_witness(monkeypatch, cat):
    # one planted fault in d, which leaves no point a comaximal pair of the
    # essential lattice, surfaces in the three suites that read the
    # reconstruction map, each with its own witness text
    _plant(monkeypatch, "op_d", lambda real: lambda space, a: 0)
    results = {r.check: r for r in suites.suite_for_lattice(cat["chain2"])}
    assert results["essential_comaximal_points"].witness == (
        "comaximal characterization fails (injective=True, unmatched=[0], "
        "empty-d=True, empty-A=True)"
    )
    assert results["space_roundtrip"].witness == (
        "reconstruction map not an isomorphism (bijective=False, delta=False, "
        "epsilon=False, bihomeo=False)"
    )
    assert results["distributive_equivalences"].witness == (
        "equivalence faces disagree: doubly=True, E-distributive=True, "
        "spectrum-of-distributive=False, all-prime=True"
    )


def _essential_sets_holding_point_0(real):
    return lambda space: real(space)._replace(subsets=tuple(a | 1 for a in real(space).subsets))


@pytest.mark.parametrize(
    "name, planted, make, witness",
    [
        # two points share the pair that d collapses to: not injective
        ("diamond", "op_d", lambda real: lambda space, a: 0, "injective=False, unmatched=[0, 1], empty-d=True, empty-A=True"),
        # a d that keeps point 0 leaves it in every d-image
        ("chain2", "op_d", lambda real: lambda space, a: real(space, a) | 1, "injective=True, unmatched=[0], empty-d=False, empty-A=True"),
        # the suite's essential sets all hold point 0, the map is untouched
        ("chain2", "essential_lattice", _essential_sets_holding_point_0, "injective=True, unmatched=[], empty-d=False, empty-A=False"),
    ],
)
def test_comaximal_faults_reach_essential_comaximal_points(monkeypatch, cat, name, planted, make, witness):
    if planted == "op_d":
        _plant(monkeypatch, planted, make)
    else:
        monkeypatch.setattr(suites, planted, make(getattr(suites, planted)))
    result = _suite_result(cat[name], "essential_comaximal_points")
    assert (result.passed, result.witness) == (False, f"comaximal characterization fails ({witness})")


def _essential_spectrum_with_zero(field):
    """A ``build_bitop_spectrum`` whose spectra of essential lattices carry
    the empty set in every entry of ``field`` ("delta" or "epsilon")."""

    def make(real):
        def planted(lat):
            s = real(lat)
            if lat.name != "essential":
                return s
            return dataclasses.replace(s, **{field: (0,) * len(getattr(s, field))})

        return planted

    return make


_RECONSTRUCTION_FAULTS = {
    "delta": ("build_bitop_spectrum", _essential_spectrum_with_zero("delta")),
    "epsilon": ("build_bitop_spectrum", _essential_spectrum_with_zero("epsilon")),
    "bihomeo": ("is_homeomorphism", lambda real: lambda *args: False),
}


@pytest.mark.parametrize("fault", sorted(_RECONSTRUCTION_FAULTS))
def test_reconstruction_faults_reach_space_roundtrip(monkeypatch, m5, fault):
    _plant(monkeypatch, *_RECONSTRUCTION_FAULTS[fault])
    flags = ", ".join(f"{flag}={flag != fault}" for flag in ("delta", "epsilon", "bihomeo"))
    result = _suite_result(m5, "space_roundtrip")
    assert (result.passed, result.witness) == (
        False,
        f"reconstruction map not an isomorphism (bijective=True, {flags})",
    )


@pytest.mark.parametrize(
    "fault, faces",
    [
        ("delta", "spectrum-of-distributive=False, all-prime=True"),
        ("closures", "spectrum-of-distributive=True, all-prime=False"),
    ],
)
def test_face_faults_reach_distributive_equivalences(monkeypatch, chain2, fault, faces):
    if fault == "closures":
        _plant(monkeypatch, "equal_closure_points", lambda real: lambda space: 0)
    else:
        _plant(monkeypatch, *_RECONSTRUCTION_FAULTS[fault])
    result = _suite_result(chain2, "distributive_equivalences")
    assert (result.passed, result.witness) == (
        False,
        f"equivalence faces disagree: doubly=True, E-distributive=True, {faces}",
    )


def test_classical_point_map_fault_reaches_classical_stone(monkeypatch, chain3):
    # numbering the primes of the fundamental lattice backwards maps the two
    # comparable points of chain3's Zariski space the wrong way round
    def make(real):
        def planted(lat):
            s = real(lat)
            return s._replace(points=s.points[::-1]) if lat.name == "fundamental" else s

        return planted

    _plant(monkeypatch, "build_classical_spectrum", make)
    result = _suite_result(chain3, "classical_stone")
    assert (result.passed, result.witness) == (False, "point map into spec(F(X)) is not a homeomorphism")


@pytest.mark.parametrize(
    "fault, lattice, bijective, corpus_lattice",
    [
        # every prime ideal sent to point 0
        ("collapse", "diamond", False, "gen3_0"),
        # a bijection that is no homeomorphism
        ("homeomorphism", "chain2", True, "gen1_0"),
    ],
)
def test_b_map_faults_reach_both_printers(monkeypatch, cat, fault, lattice, bijective, corpus_lattice):
    if fault == "collapse":
        _plant(monkeypatch, "b_map", lambda real: lambda lat: (0,) * len(real(lat)))
    else:
        _plant(monkeypatch, "is_homeomorphism", lambda real: lambda *args: False)
    result = _suite_result(cat[lattice], "classical_stone")
    assert (result.passed, result.witness) == (
        False,
        f"prime-ideal embedding not a homeomorphism (bijective={bijective})",
    )
    bridge = {r.check: r for r in suites.corpus_checks()}["classical_bridge"]
    assert (bridge.passed, bridge.witness) == (False, f"prime-ideal embedding fails on {corpus_lattice}")


def test_essential_family_fault_reaches_essential_family(monkeypatch, chain2):
    # dropping the carrier, delta(1), from the essential family
    _plant(
        monkeypatch,
        "essential_subsets",
        lambda real: lambda space: frozenset(a for a in real(space) if a != (1 << space.n) - 1),
    )
    result = _suite_result(chain2, "essential_family")
    assert (result.passed, result.witness) == (
        False,
        "essential family differs from the delta image (extra [], missing [1])",
    )


def _reversed_functor(real):
    return lambda m: dataclasses.replace(real(m), mapping=real(m).mapping[::-1])


def _embedding_into_b3(real):
    """Element embeddings whose target is the eight-element Boolean lattice:
    the mappings, and so every square, are unchanged, but no embedding is an
    isomorphism."""
    return lambda lat: dataclasses.replace(real(lat), target=named_lattices()["b3"])


@pytest.mark.parametrize(
    "name, make, witness",
    [
        ("essential_functor_on_morphism", _reversed_functor, "x0->x0 x1->x1 at x0"),
        ("delta_embedding", _embedding_into_b3, "x0->x0 at None"),
    ],
)
def test_naturality_faults_reach_naturality_squares(monkeypatch, name, make, witness):
    _plant(monkeypatch, name, make)
    result = {r.check: r for r in suites.corpus_checks()}["naturality_squares"]
    assert (result.passed, result.witness) == (False, f"element-embedding square fails on {witness}")


def _planted_faults(lat, side, fault):
    """Wrong answers of one of the suite's two ``gbd_witness`` calls, on
    (V, W) ("gbd") or on ({x}, V) ("delta"), for triples that repeat in the
    stream, as (argument tuple, bad result): the other branch ("branch"), or
    a separating pair that is no counterexample point ("pair")."""
    s = build_bitop_spectrum(lat)
    draws = _covering_draws(lat)
    out = []
    for v, w, x in dict.fromkeys(draws):
        if draws.count((v, w, x)) < 2:
            continue
        inter, union_v, union_w = (1 << len(s.points)) - 1, 0, 0
        for y in bits(v):
            inter &= s.epsilon[y]
            union_v |= s.delta[y]
        for y in bits(w):
            union_w |= s.delta[y]
        if side == "gbd":
            args, counter = (v, w), inter & ~union_w
        else:
            args, counter = (1 << x, v), s.delta[x] & ~union_v
        pair = gbd_witness(s, *args)
        if fault == "branch" and pair is not None:
            out.append((args, None))
        elif fault == "branch" and s.points:
            out.append((args, s.points[0]))
        elif fault == "pair" and pair is not None:
            harmless = [p for k, p in enumerate(s.points) if not counter >> k & 1]
            if harmless:
                out.append((args, harmless[0]))
    return out


@pytest.mark.parametrize("side", ["gbd", "delta"])
@pytest.mark.parametrize("fault", ["branch", "pair"])
def test_covering_witnesses_first_failure_equals_literal_loop(monkeypatch, lattices_upto_4, cat, side, fault):
    # a fault planted on a triple that repeats in the stream is reported
    # with the same witness text as the literal 60-sample loop reports it
    real = suites.gbd_witness
    planted = 0
    texts = set()
    for lat in [*lattices_upto_4, *cat.values()]:
        for target, bad in _planted_faults(lat, side, fault):
            def faulty(spectrum, *args, target=target, bad=bad):
                return bad if args == target else real(spectrum, *args)

            monkeypatch.setattr(suites, "gbd_witness", faulty)
            got = suites.check_covering_witnesses(lat)
            monkeypatch.undo()
            assert got is not None, (lat.name, target)
            assert got == covering_witnesses_literal(lat, gbd=faulty), (lat.name, target)
            texts.add(got.split(" for ")[0].split(" at ")[0])
            planted += 1
    # triples repeat on 2-4 elements: the generated lattices, chain2-4, diamond
    assert planted == {"branch": 54, "pair": 4}[fault]
    # both calls go to gbd_witness, so a fault planted on one call also hits
    # the other wherever their masks are equal: on chain3 the masks (2, 1)
    # are both (V, W) of one triple and ({x}, V) of another
    assert texts == {
        "branch": {"branch mismatch", "cover branch mismatch"},
        "pair": {"cover separating pair is not a counterexample point"},
    }[fault]


@pytest.mark.parametrize(
    "name, message",
    [
        ("chain2", "separating pair is not a counterexample point"),
        ("m5", "cover separating pair is not a counterexample point"),
    ],
)
def test_non_point_pair_reaches_covering_witnesses(monkeypatch, cat, name, message):
    # a separating pair is an unchecked record; one that is no spectrum point
    # ((top, bottom) overlaps) fails the suite with the counterexample text
    # of the side whose separating sample comes first
    monkeypatch.setattr(
        spectra, "extend_to_comaximal", lambda lat, a, b: ComaximalPair(lat, lat.top, lat.bottom)
    )
    result = _suite_result(cat[name], "covering_witnesses")
    assert (result.passed, result.witness) == (False, message)


def _corrupt(lat, table_name, i, j, value):
    """A copy of the lattice record ``lat`` with one table entry changed."""
    table = [list(row) for row in getattr(lat, table_name)]
    table[i][j] = value
    return dataclasses.replace(lat, **{table_name: tuple(map(tuple, table))})


@pytest.mark.parametrize(
    "table, pair, value, message",
    [
        ("meet_table", ("xy", "xz"), "0", "meet table is not the glb at (xy,xz)"),
        ("join_table", ("x", "y"), "1", "join table is not the lub at (x,y)"),
    ],
)
def test_table_faults_reach_lattice_axioms(cat, table, pair, value, message):
    # a symmetric wrong entry that keeps commutativity, the order/meet
    # agreement and absorption: only the glb/lub check catches it
    b3 = cat["b3"]
    i, j = map(b3.index, pair)
    mutant = _corrupt(_corrupt(b3, table, i, j, b3.index(value)), table, j, i, b3.index(value))
    assert suites.check_lattice_axioms(mutant) == message


@pytest.mark.parametrize(
    "bound, message",
    [("bottom", "declared bottom is not below every element"), ("top", "declared top is not above every element")],
)
def test_declared_bound_faults_reach_lattice_axioms(cat, bound, message):
    for lat in (cat["chain3"], cat["m5"], cat["b3"]):
        for x in range(lat.n):
            if x != getattr(lat, bound):
                mutant = dataclasses.replace(lat, **{bound: x})
                assert suites.check_lattice_axioms(mutant) == message, (lat.name, x)


@pytest.mark.parametrize(
    "name, table, pair, value, message",
    [
        # meet(b, c) = a lies below b but not c, above every common lower
        # bound, and keeps absorption at (b, c): join(b, a) = b
        ("hexagon", "meet_table", ("b", "c"), "a", "meet table is not the glb at (b,c)"),
        # join(0, 1) = 0 keeps absorption at (0, 1) and lies below every
        # common upper bound, but is not above 1
        ("chain2", "join_table", ("0", "1"), "0", "join table is not the lub at (0,1)"),
    ],
)
def test_membership_faults_reach_lattice_axioms(cat, name, table, pair, value, message):
    # at the first failing pair only the membership half of the glb (lub)
    # clause fails; without it the check runs on to a later pair, where
    # absorption fails.  No table fails that half alone over all pairs:
    # absorption with a correct join table puts meet(x, y) below x, and at
    # (y, x) below y (dually for joins)
    lat = cat[name]
    i, j = map(lat.index, pair)
    entry = lat.index(value)
    mutant = _corrupt(_corrupt(lat, table, i, j, entry), table, j, i, entry)
    order = lat.down if table == "meet_table" else lat.up
    common = order[i] & order[j]
    assert not common >> entry & 1 and common & ~order[entry] == 0
    assert suites.check_lattice_axioms(mutant) == message


def test_lattice_axioms_catch_every_associativity_failure(lattices_upto_5, cat):
    # associativity is not in the suite: it follows from the glb/lub tables,
    # and every corrupted entry that breaks it fails the table check
    broken = 0
    for lat in [*lattices_upto_5, cat["n5"], cat["b3"], cat["hexagon"]]:
        assert suites.check_lattice_axioms(lat) is None and associativity_failure_brute(lat) is None
        for table, i, j in itertools.product(("meet_table", "join_table"), range(lat.n), range(lat.n)):
            for value in range(lat.n):
                mutant = _corrupt(lat, table, i, j, value)
                if associativity_failure_brute(mutant) is not None:
                    broken += 1
                    assert suites.check_lattice_axioms(mutant) is not None, (lat, table, i, j, value)
    assert broken > 1000


def _specialization_mismatch_by_pairs(lat, spectrum):
    """The old O(points^2) scan: the first (p, q) whose tau or sigma bit
    disagrees with the order of the a's or the b's, tau before sigma."""
    pts, space = spectrum.points, spectrum.space
    for p, q in itertools.product(range(len(pts)), repeat=2):
        if bool(space.up_tau[p] >> q & 1) != lat.leq(pts[q].a, pts[p].a):
            return f"tau order mismatch at ({pts[p].label()},{pts[q].label()})"
        if bool(space.up_sigma[p] >> q & 1) != lat.leq(pts[q].b, pts[p].b):
            return f"sigma order mismatch at ({pts[p].label()},{pts[q].label()})"
    return None


def test_specialization_order_witness_matches_pair_scan(monkeypatch, cat):
    # flip one tau bit and one sigma bit of a spectrum's preorders; the suite
    # must name the same first mismatch as the pair-by-pair scan
    for name in ("chain3", "m5", "n5", "hexagon", "b3"):
        lat = cat[name]
        s = build_bitop_spectrum(lat)
        assert suites.check_specialization_orders(lat) is None
        n = len(s.points)
        for p, q_tau, q_sig in itertools.product(range(n), range(n + 1), range(n + 1)):
            tau, sigma = list(s.space.up_tau), list(s.space.up_sigma)
            tau[p] ^= (1 << q_tau) & ((1 << n) - 1)
            sigma[p] ^= (1 << q_sig) & ((1 << n) - 1)
            fake = SimpleNamespace(points=s.points, space=SimpleNamespace(up_tau=tau, up_sigma=sigma))
            expected = _specialization_mismatch_by_pairs(lat, fake)
            if expected is None:
                continue
            monkeypatch.setattr(suites, "build_bitop_spectrum", lambda _: fake)
            assert suites.check_specialization_orders(lat) == expected, (name, p, q_tau, q_sig)
            monkeypatch.undo()


# --- theorem checks owned by the suites: planted faults ------------------------


def _corpus_with_row(monkeypatch, lat, m=None, e=None):
    """The corpus checks on ``[lat]`` alone, by check name, with the hom
    table's identity row carrying the spectrum morphism ``m`` or the
    essential-functor image ``e`` in place of the computed one."""
    real = suites._corpus_homs

    def planted(lats):
        homs = real(lats)
        rows = homs[0, 0]
        k = next(k for k, row in enumerate(rows) if row[0].mapping == tuple(range(lat.n)))
        h, proper, m0, e0 = rows[k]
        rows[k] = (h, proper, m0 if m is None else m, e0 if e is None else e)
        return homs

    monkeypatch.setattr(suites, "_corpus_homs", planted)
    return {r.check: r for r in suites.corpus_checks([lat])}


def _spec_b_of_identity(lat):
    return duality.spec_b_on_hom(check_hom(lat, lat, range(lat.n)))


def test_preimage_identity_faults_reach_hom_classification(monkeypatch, m5):
    ident = _spec_b_of_identity(m5)
    pts = build_bitop_spectrum(m5).points
    # every point to point 0: delta(a) is neither empty nor everything
    collapsed = ident._replace(mapping=(0,) * len(pts))
    # two points with the same ideal are tau-equivalent: swapping them keeps
    # every delta preimage and breaks an epsilon one
    p, q = next((p, q) for p, q in itertools.combinations(range(len(pts)), 2) if pts[p].a == pts[q].a)
    swapped = list(range(len(pts)))
    swapped[p], swapped[q] = q, p
    swapped = ident._replace(mapping=tuple(swapped))
    for bad, message in (
        (collapsed, "delta preimage identity fails"),
        (swapped, "epsilon preimage identity fails"),
    ):
        result = _corpus_with_row(monkeypatch, m5, m=bad)["hom_classification"]
        assert (result.passed, result.witness) == (False, message)
        monkeypatch.undo()


# 3-point spaces, as (tau up-masks, sigma up-masks) of the record's source and
# target, on which the identity point map fails one morphism condition
_BAD_SPACES = {
    "map is not tau-continuous": (((1, 2, 5), (1, 2, 4)), ((1, 2, 4), (1, 2, 4))),
    "map is not sigma-continuous": (((1, 2, 4), (1, 2, 5)), ((1, 2, 4), (1, 2, 4))),
    "essential set does not pull back to an essential set": (
        ((1, 2, 4), (1, 2, 5)),
        ((1, 6, 4), (1, 2, 5)),
    ),
    "preimage does not commute with d on essential sets": (
        ((1, 2, 4), (1, 2, 4)),
        ((1, 2, 5), (3, 2, 4)),
    ),
}


def _space(tau, sigma):
    return bitop_space(FiniteTopology(tau), FiniteTopology(sigma))


@pytest.mark.parametrize("message", sorted(_BAD_SPACES))
def test_morphism_condition_faults_reach_hom_classification(monkeypatch, cat, message):
    chain4 = cat["chain4"]  # three points: the identity map is the identity on them
    source, target = (_space(*pair) for pair in _BAD_SPACES[message])
    bad = _spec_b_of_identity(chain4)._replace(source=source, target=target)
    result = _corpus_with_row(monkeypatch, chain4, m=bad)["hom_classification"]
    assert (result.passed, result.witness) == (False, message)


def test_i_commuting_fault_reaches_hom_classification(monkeypatch, cat):
    # an essential set is tau-increasing, so once essential sets pull back, i
    # commutes by itself: only a faulty i can break it
    real = duality.op_i
    monkeypatch.setattr(duality, "op_i", lambda space, a: real(space, a) ^ 1)
    result = suites.corpus_checks([cat["chain4"]])[0]
    assert (result.check, result.passed) == ("hom_classification", False)
    assert result.witness == "preimage does not commute with i on essential sets"


def test_essential_functor_faults_reach_functor_laws(monkeypatch, cat, m5):
    # a homomorphism that is not quasi-proper, and a map that is no homomorphism
    not_quasi = check_hom(cat["chain2"], m5, (0, m5.index("a")))
    reversal = LatticeHom(cat["chain2"], cat["chain2"], (1, 0))
    result = _corpus_with_row(monkeypatch, m5, e=not_quasi)["functor_laws"]
    assert (result.passed, result.witness) == (False, "essential functor produced a non-quasi-proper hom")
    monkeypatch.undo()
    result = _corpus_with_row(monkeypatch, m5, e=reversal)["functor_laws"]
    assert (result.passed, result.witness) == (False, "NotAHom: map does not preserve meet of '0' and '1'")


def test_naturality_reads_the_table(monkeypatch, cat):
    # the square compares against the table's essential-functor image, so a
    # wrong image there fails the naturality line
    chain3 = cat["chain3"]
    ident = duality.essential_functor_on_morphism(_spec_b_of_identity(chain3))
    wrong = LatticeHom(ident.source, ident.target, (0,) * ident.source.n)
    result = _corpus_with_row(monkeypatch, chain3, e=wrong)["naturality_squares"]
    assert not result.passed
    assert result.witness.startswith("element-embedding square fails on ")


def _corrupt_bound(lat, table):
    """``lat`` with the join of elements 1 and 2 (neither the bottom nor the
    top) set to the bottom, or their meet set to the top."""
    return _corrupt(lat, table, 1, 2, lat.bottom if table == "join_table" else lat.top)


def _suite_result(lat, check):
    return next(r for r in suites.suite_for_lattice(lat) if r.check == check)


@pytest.mark.parametrize(
    "table, message",
    [("join_table", "essential join is not union"), ("meet_table", "essential meet is not i(d(intersection))")],
)
def test_essential_table_faults_reach_essential_family(monkeypatch, m5, table, message):
    ess = duality.essential_lattice(build_bitop_spectrum(m5).space)
    bad = ess._replace(lattice=_corrupt_bound(ess.lattice, table))
    monkeypatch.setattr(suites, "essential_lattice", lambda space: bad)
    result = _suite_result(m5, "essential_family")
    assert (result.passed, result.witness) == (False, message)


@pytest.mark.parametrize(
    "table, message",
    [("join_table", "fundamental join is not union"), ("meet_table", "fundamental meet is not intersection")],
)
def test_fundamental_table_faults_reach_classical_stone(monkeypatch, diamond, table, message):
    fund = duality.fundamental_lattice(build_classical_spectrum(diamond).space)
    bad = fund._replace(lattice=_corrupt_bound(fund.lattice, table))
    monkeypatch.setattr(suites, "fundamental_lattice", lambda top: bad)
    result = _suite_result(diamond, "classical_stone")
    assert (result.passed, result.witness) == (False, message)


def test_non_prime_closure_point_reaches_prime_point_closures(monkeypatch, m5):
    # m5 has no closure-prime point; claiming all of them plants the fault
    monkeypatch.setattr(suites, "prime_points", lambda s: tuple(range(len(s.points))))
    result = _suite_result(m5, "prime_point_closures")
    assert (result.passed, result.witness) == (
        False,
        "closure-prime point that is not a prime ideal with its complement",
    )


def test_verify_enumerates_open_families_only_on_zariski_spaces(monkeypatch, cat):
    # fundamental_subsets on a classical spectrum, where the count |L| is
    # the theorem, is the one open family the suites list; every call is
    # recorded, cached lattice or not
    lats = [*cat.values(), _diamond(6), _boolean(5)]
    listed = []

    def recording(top):
        listed.append(top)
        return fundamental_subsets(top)

    monkeypatch.setattr(duality, "fundamental_subsets", recording)
    duality.fundamental_lattice.cache_clear()  # so the Zariski calls happen here
    assert all(r.passed for r in suites.run_lattice_suites(lats))
    zariski = [build_classical_spectrum(lat).space for lat in lats]
    assert listed
    for top in listed:
        assert any(top is space for space in zariski), top.up


def test_library_raises_no_runtime_error():
    # theorem checks report through the suites; the one RuntimeError left in
    # the package is the random sampler's convergence guard, which keeps
    # ``verify --random`` from looping forever
    package = Path(duality.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Raise) and node.exc is not None):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                # the innermost function around the raise, if any
                around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                owner = min(around, key=lambda f: f.end_lineno - f.lineno).name if around else "<module>"
                found.append(f"{path.stem}.{owner}")
    assert found == ["catalog._random"]


def test_only_cli_input_records_validate_themselves():
    # records the library computes are plain; each value is validated where
    # it enters, by its builder or parser.  The one ``__post_init__`` left
    # checks the generator sizes given on the command line
    package = Path(duality.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                found += [
                    f"{path.stem}.{cls.name}"
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
                ]
    assert found == ["catalog.GeneratorConfig"]


def test_verdict_records_stay_out_of_the_library():
    # the library returns what it computes; each theorem verdict and its
    # witness text live in the suite or corpus check that prints it, and a
    # verdict the library answers is a function returning its witness or
    # None.  Only the suites' result line has a ``bool`` field
    # (``CheckResult.passed``), and no library module names a removed
    # record, flag tuple or wrapper
    import lattice_spectra

    package = Path(duality.__file__).parent
    gone = {
        "CharComaximalReport",
        "HIsoReport",
        "ClassicalRepReport",
        "NaturalityReport",
        "DisCharReport",
        "BMapReport",
        "EssentialDeltaReport",
        "PairwiseBDReport",
        "BDSpaceReport",
        "pairwise_bd_report",
        "_pairwise_bd_report",
        "is_pairwise_bd",
        "is_bd_space",
        "is_pairwise_t0",
        "has_top_via_compactness",
        "has_bottom_via_fundamental",
        "pbd_morphism",
        "_pbd_conditions",
        "point_index",
        "point_label",
        "GBDResult",
        "DeltaCompactnessResult",
        "delta_compactness_check",
        "_greedy_shrink",
        "HomClassification",
        "classify_hom",
        "DistributivityReport",
        "is_distributive",
        "NotQuasiProper",
    }
    flags = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not gone & set(re.findall(r"\w+", text)), path.name
        for cls in ast.walk(ast.parse(text)):
            if not isinstance(cls, ast.ClassDef):
                continue
            # the last dotted part, so ``typing.NamedTuple`` and
            # ``dataclasses.dataclass(...)`` count too
            bases = {ast.unparse(b).rsplit(".", 1)[-1] for b in cls.bases}
            decorators = {ast.unparse(d).split("(")[0].rsplit(".", 1)[-1] for d in cls.decorator_list}
            if "NamedTuple" in bases or "dataclass" in decorators:
                flags += [
                    f"{cls.name}.{ast.unparse(n.target)}"
                    for n in cls.body
                    if isinstance(n, ast.AnnAssign) and ast.unparse(n.annotation) == "bool"
                ]
    assert not gone & set(lattice_spectra.__all__)
    assert "space" not in duality.EssentialLattice._fields
    assert flags == ["CheckResult.passed"]


# --- clauses settled before they run: definitions kept as oracles ------------


def test_settled_clauses_hold_on_catalog_and_small_lattices(cat, lattices_upto_6):
    # the suites pass, so the moved clauses hold as their proofs say
    for lat in [*cat.values(), *lattices_upto_6]:
        spec = build_bitop_spectrum(lat)
        assert suites.check_transition_operators(lat) is None, lat.name
        assert suites.check_spectrum_map_laws(lat) is None, lat.name
        assert stability_witness(spec) is None, lat.name
        assert comaximal_pair_witness(spec) is None, lat.name
        assert image_intersection_closed(build_classical_spectrum(lat)), lat.name


def _with_space(tau, sigma):
    """A planted M5 spectrum on the topologies ``tau(n)`` and ``sigma(n)``,
    or on M5's own where one is None."""

    def plant(spec):
        n = spec.space.n
        space = bitop_space(tau(n) if tau else spec.space.tau, sigma(n) if sigma else spec.space.sigma)
        return dataclasses.replace(spec, space=space)

    return plant


def _epsilon_a_not_sigma_increasing(spec):
    """M5's spectrum with epsilon(a) one point of a two-point sigma class."""
    k = next(k for k, u in enumerate(spec.space.up_sigma) if u != 1 << k)
    epsilon = list(spec.epsilon)
    epsilon[spec.lattice.index("a")] = 1 << k
    return dataclasses.replace(spec, epsilon=tuple(epsilon))


@pytest.mark.parametrize(
    "plant, witness",
    [
        # sigma indiscrete: d(delta(a)) is empty
        (_with_space(discrete, indiscrete), "delta(a) is not stable"),
        # sigma discrete: d fixes everything, and epsilon(a) is not
        # tau-increasing, so i(epsilon(a)) grows
        (_with_space(None, discrete), "epsilon(a) is not co-stable"),
        # tau indiscrete: delta(a) is not tau-increasing
        (_with_space(indiscrete, None), "NotIncreasing: stability is only defined for tau-increasing sets"),
        (_epsilon_a_not_sigma_increasing, "NotIncreasing: co-stability is only defined for sigma-increasing sets"),
    ],
)
def test_stability_oracle_reports_planted_faults(m5, plant, witness):
    # the witness texts of the stable and co-stable clauses that
    # check_transition_operators ran, a raise printed as the suite's runner
    # printed it; on each planted spectrum the identities fail first
    spec = plant(build_bitop_spectrum(m5))
    try:
        found = stability_witness(spec)
    except NotIncreasing as exc:
        found = f"{type(exc).__name__}: {exc}"
    assert found == witness


@pytest.mark.parametrize(
    "fault, lattice, witness",
    [
        # every epsilon(x) empty: delta is untouched and still injective
        ("zero", "chain2", "epsilon is not injective"),
        # point 0 added to every epsilon(x): still injective and a meet
        # homomorphism, but epsilon(0) is empty
        ("point0", "m5", "epsilon(0) not inside delta(0)"),
    ],
)
def test_epsilon_faults_reach_spectrum_map_laws(monkeypatch, cat, fault, lattice, witness):
    # each planted epsilon fails one clause alone: without it the check
    # would pass
    lat = cat[lattice]
    spec = build_bitop_spectrum(lat)
    epsilon = tuple(0 if fault == "zero" else e | 1 for e in spec.epsilon)
    monkeypatch.setattr(suites, "build_bitop_spectrum", lambda lat: dataclasses.replace(spec, epsilon=epsilon))
    assert suites.check_spectrum_map_laws(lat) == witness


def test_prime_ideal_clause_reaches_classical_stone(monkeypatch, chain2):
    # a classical spectrum without points on a two-element lattice, the
    # smallest size the clause covers
    _plant(monkeypatch, "build_classical_spectrum", lambda real: lambda lat: real(lat)._replace(points=()))
    result = _suite_result(chain2, "classical_stone")
    assert (result.passed, result.witness) == (False, "a distributive lattice with two elements has a prime ideal")


_NOT_PAIRWISE_BD = {
    "i": (lambda: bitop_space(indiscrete(2), indiscrete(2)), "points 0 and 1 are not separated"),
    "ii": (
        lambda: bitop_space(discrete(3), FiniteTopology((0b011, 0b010, 0b110))),
        "essential sets do not generate tau (neighbourhoods differ at points [0, 2])",
    ),
    "iii": (lambda: bitop_space(sierpinski(), discrete(2)), "d-images of essential sets are not a basis for sigma"),
}


@pytest.mark.parametrize("axiom", sorted(_NOT_PAIRWISE_BD))
def test_pairwise_bd_witness_is_suite_and_error_text(monkeypatch, chain2, axiom):
    # one witness text for each failing axiom: the pairwise_axioms suite
    # prints it, and the bridges that need a pairwise Balbes-Dwinger space
    # raise it
    make, text = _NOT_PAIRWISE_BD[axiom]
    space = make()
    witness = f"axiom ({axiom}) fails: {text}"
    spec = dataclasses.replace(build_bitop_spectrum(chain2), space=space)
    monkeypatch.setattr(suites, "build_bitop_spectrum", lambda lat: spec)
    result = _suite_result(chain2, "pairwise_axioms")
    assert (result.passed, result.witness) == (False, witness)
    for bridge in (duality.big_h_map, duality.to_topological):
        with pytest.raises(NotPairwiseBD) as info:
            bridge(space)
        assert str(info.value) == witness


@pytest.mark.parametrize(
    "top, witness",
    [
        (indiscrete(2), "not T0: points 0 and 1"),
        (FiniteTopology((0b111, 0b110, 0b110)), "not T0: points 1 and 2"),
    ],
)
def test_bd_space_witness_is_suite_and_error_text(monkeypatch, chain2, top, witness):
    # both bridges off a single topology raise the T0 witness, and the
    # classical_stone suite prints it when the forgotten topology fails T0
    for bridge in (duality.h_map_classical, duality.to_bitopological):
        with pytest.raises(NotBDSpace) as info:
            bridge(top)
        assert str(info.value) == witness
    monkeypatch.setattr(suites, "to_topological", lambda space: top)
    result = _suite_result(chain2, "classical_stone")
    assert (result.passed, result.witness) == (False, f"NotBDSpace: {witness}")


def test_comaximal_pair_oracle_reports_planted_fault(monkeypatch, chain2):
    # a planted spectrum without points: the oracle gives the text of the
    # clause check_spectrum_map_laws ran last, and the suite stops at its
    # first clause, delta injectivity, which is why the clause moved
    empty = dataclasses.replace(build_bitop_spectrum(chain2), points=(), delta=(0, 0), epsilon=(0, 0))
    assert comaximal_pair_witness(empty) == "a lattice with two elements has a comaximal pair"
    monkeypatch.setattr(suites, "build_bitop_spectrum", lambda lat: empty)
    assert suites.check_spectrum_map_laws(chain2) == "delta is not injective"


def test_image_closure_oracle_reports_planted_fault(cat):
    # the line spec --classical printed from the flag: "no" on a planted
    # d-map image whose two sets meet outside it
    planted = build_classical_spectrum(cat["b3"])._replace(dmap=(0b011, 0b110))
    line = f"image intersection-closed: {'yes' if image_intersection_closed(planted) else 'no'}"
    assert line == "image intersection-closed: no"


def test_settled_checks_stay_out_of_the_library():
    # the settled clauses and constants live in tests/oracles.py; no library
    # module defines, imports, reads or exports their names
    import lattice_spectra

    gone = {
        "is_stable",
        "is_costable",
        "is_increasing",
        "NotIncreasing",
        "empty_set_is_fundamental",
        "image_intersection_closed",
    }
    package = Path(duality.__file__).parent
    for path in sorted(package.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        assert not names & gone, (path.name, names & gone)
    assert not gone & set(lattice_spectra.__all__)
    assert spectra.ClassicalSpectrum._fields == ("lattice", "points", "dmap", "space")


def _unused_imports(tree):
    """The names a module imports but never reads and does not list in a
    literal ``__all__``; ``from __future__`` imports are skipped, and a name
    read only in an annotation counts as read."""
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            exported.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


def test_library_imports_only_what_it_uses():
    package = Path(duality.__file__).parent
    unused = {
        path.stem: names
        for path in sorted(package.glob("*.py"))
        if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unused == {}
    # the check sees a leftover import
    assert _unused_imports(ast.parse("import itertools\nfrom x import y as z\nz()\n")) == ["itertools"]
