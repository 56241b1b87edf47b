import pytest

from lattice_spectra import suites

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
