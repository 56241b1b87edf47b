import random

import pytest

from lattice_spectra import suites
from lattice_spectra.spectra import build_bitop_spectrum

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
