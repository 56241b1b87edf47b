import itertools
import random
from types import SimpleNamespace

import pytest

from lattice_spectra import suites
from lattice_spectra.lattices import FiniteLattice
from lattice_spectra.spectra import build_bitop_spectrum

from oracles import associativity_failure_brute

CORPUS_CHECKS = ["hom_classification", "functor_laws", "naturality_squares", "classical_bridge"]


def test_corpus_classifies_each_hom_once(monkeypatch):
    seen = []
    classify = suites.classify_hom

    def counting(hom):
        seen.append(hom)
        return classify(hom)

    monkeypatch.setattr(suites, "classify_hom", counting)
    results = suites.corpus_checks()
    assert [(r.check, r.passed) for r in results] == [(c, True) for c in CORPUS_CHECKS]
    # the default corpus (the 5 lattices with at most 4 elements) has 221 homs
    assert len(seen) == len(set(seen)) == 221


@pytest.mark.parametrize("broken", ["classify_hom", "spec_b_on_hom"])
def test_corpus_table_failure_fails_every_check(monkeypatch, broken):
    def boom(hom):
        raise RuntimeError("boom")

    monkeypatch.setattr(suites, broken, boom)
    results = suites.corpus_checks()
    assert [(r.lattice, r.check, r.passed, r.witness) for r in results] == [
        ("corpus", c, False, "RuntimeError: boom") for c in CORPUS_CHECKS
    ]


def test_covering_witnesses_sample_stream(monkeypatch, cat):
    # the suite draws V, W, then x per sample, 60 samples from Random(7), and
    # hands both covering functions the lattice's one cached spectrum
    calls = []
    gbd, delta = suites.gbd_witness, suites.delta_compactness_check

    def recording_gbd(spectrum, v, w):
        calls.append((spectrum, "gbd", v, w))
        return gbd(spectrum, v, w)

    def recording_delta(spectrum, x, v):
        calls.append((spectrum, "delta", x, v))
        return delta(spectrum, x, v)

    monkeypatch.setattr(suites, "gbd_witness", recording_gbd)
    monkeypatch.setattr(suites, "delta_compactness_check", recording_delta)
    for name in ("chain1", "m5", "n5", "hexagon", "b3"):
        lat = cat[name]
        spec = build_bitop_spectrum(lat)
        calls.clear()
        assert suites.check_covering_witnesses(lat) is None
        rng = random.Random(7)
        full = (1 << lat.n) - 1
        expected = []
        for _ in range(60):
            v = rng.randint(1, full)
            w = rng.randint(1, full)
            x = rng.randrange(lat.n)
            expected += [(spec, "gbd", v, w), (spec, "delta", x, v)]
        assert all(c[0] is spec for c in calls), name
        assert calls == expected, name


def _corrupt(lat, table_name, i, j, value):
    """A copy of ``lat`` with one table entry changed, made without the
    constructor's checks."""
    clone = object.__new__(FiniteLattice)
    for name in ("names", "up", "meet_table", "join_table", "bottom", "top", "name"):
        object.__setattr__(clone, name, getattr(lat, name))
    table = [list(row) for row in getattr(lat, table_name)]
    table[i][j] = value
    object.__setattr__(clone, table_name, tuple(map(tuple, table)))
    return clone


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
