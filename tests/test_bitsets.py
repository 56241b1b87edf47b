"""``bitsets.transpose`` against the per-bit loop, and every mask relation
the library flips with it against its literal definition."""

import random

import pytest

from lattice_spectra import suites
from lattice_spectra.bitsets import bits, full_mask, mask_of, transpose
from lattice_spectra.catalog import to_dot
from lattice_spectra.duality import big_h_map, essential_lattice, h_map_classical
from lattice_spectra.spectra import build_bitop_spectrum, build_classical_spectrum
from lattice_spectra.topology import doubled_space, op_d

from oracles import transpose_loop
from test_golden import _boolean, _diamond


def _random_rows(rng, count, width):
    # some rows carry bits past the width, which transpose ignores
    return [rng.getrandbits(width + rng.choice((0, 0, 3))) for _ in range(count)]


@pytest.mark.parametrize(
    "count, width",
    [(0, 0), (0, 1), (0, 9), (1, 0), (5, 0), (1, 1), (3, 1), (1, 8), (8, 8), (9, 7),
     (17, 64), (64, 63), (65, 65), (257, 8), (300, 70), (513, 129)],
)
def test_transpose_matches_bit_loop(count, width):
    rng = random.Random(count * 1000 + width)
    for _ in range(5):
        rows = _random_rows(rng, count, width)
        out = transpose(rows, width)
        assert out == transpose_loop(rows, width)
        assert len(out) == width


def test_transpose_on_seeded_random_shapes():
    rng = random.Random(2024)
    for _ in range(300):
        rows = _random_rows(rng, rng.randrange(0, 300), rng.randrange(0, 80))
        width = rng.randrange(0, 80)
        assert transpose(rows, width) == transpose_loop(rows, width)


def test_transpose_round_trip():
    rng = random.Random(7)
    for count, width in [(0, 0), (1, 1), (3, 5), (8, 64), (257, 9), (40, 300)]:
        rows = [rng.getrandbits(width) for _ in range(count)]
        assert transpose(transpose(rows, width), count) == rows


@pytest.fixture(scope="module")
def corpus(lattices_upto_6, cat):
    """The lattices up to 6 elements, the catalog, M30 and B8."""
    return [*lattices_upto_6, *cat.values(), _diamond(30), _boolean(8)]


def _meet_around(n, family):
    """The least neighbourhoods by definition: per point, the intersection
    of the family's sets that contain it."""
    up = []
    for x in range(n):
        m = full_mask(n)
        for s in family:
            if s >> x & 1:
                m &= s
        up.append(m)
    return tuple(up)


def test_sites_match_literal_definitions(corpus):
    for lat in corpus:
        n = lat.n
        assert lat.down == tuple(mask_of(j for j in range(n) if lat.up[j] >> i & 1) for i in range(n))
        s = build_bitop_spectrum(lat)
        pts = s.points
        assert s.delta == tuple(
            mask_of(k for k, (a, _) in enumerate(pts) if not lat.leq(x, a)) for x in range(n)
        )
        assert s.epsilon == tuple(
            mask_of(k for k, (_, b) in enumerate(pts) if lat.leq(b, x)) for x in range(n)
        )
        assert s.space.up_tau == _meet_around(len(pts), s.delta)
        assert s.space.up_sigma == _meet_around(len(pts), s.epsilon)
        c = build_classical_spectrum(lat)
        assert c.dmap == tuple(
            mask_of(k for k, p in enumerate(c.points) if not p >> x & 1) for x in range(n)
        )
        assert c.space.up == _meet_around(len(c.points), c.dmap)


def test_specialization_suite_on_corpus(corpus):
    # the stored tau / sigma, read off the points, against the order of the
    # a's and the b's; the suite compares them with the generated topologies
    for lat in corpus:
        s = build_bitop_spectrum(lat)
        pts = s.points
        for p, (a, b) in enumerate(pts):
            assert s.space.up_tau[p] == mask_of(q for q, o in enumerate(pts) if lat.leq(o[0], a))
            assert s.space.up_sigma[p] == mask_of(q for q, o in enumerate(pts) if lat.leq(o[1], b))
        assert suites.check_specialization_orders(lat) is None, lat


def test_reconstruction_pairs_match_literal_definition(corpus):
    # I(x) = the essential sets missing x, F(x) = those whose d-image holds x
    for lat in corpus:
        space = build_bitop_spectrum(lat).space
        ess = essential_lattice(space)
        target = build_bitop_spectrum(ess.lattice)
        down, up = ess.lattice.down, ess.lattice.up
        pairs = {(down[a], up[b]): k for k, (a, b) in enumerate(target.points)}
        d_images = [op_d(space, a) for a in ess.subsets]
        expected = tuple(
            pairs.get(
                (
                    mask_of(k for k, a in enumerate(ess.subsets) if not a >> x & 1),
                    mask_of(k for k, da in enumerate(d_images) if da >> x & 1),
                ),
                -1,
            )
            for x in range(space.n)
        )
        assert big_h_map(space) == expected, lat


def test_essential_names_match_literal_definition(corpus):
    # each essential set is named by its points, lowest first
    for lat in [*corpus, _diamond(12)]:
        for space in (build_bitop_spectrum(lat).space, doubled_space(build_classical_spectrum(lat).space)):
            ess = essential_lattice(space)
            expected = tuple("{" + ",".join(f"p{i}" for i in bits(m)) + "}" for m in ess.subsets)
            assert ess.lattice.names == expected, lat


def test_classical_map_matches_literal_definition(corpus):
    # I_x = the fundamental sets missing x, looked up among the prime ideals
    for lat in corpus:
        top = build_classical_spectrum(lat).space
        fund = essential_lattice(doubled_space(top))
        primes = {p: k for k, p in enumerate(build_classical_spectrum(fund.lattice).points)}
        expected = tuple(
            primes.get(mask_of(k for k, a in enumerate(fund.subsets) if not a >> x & 1), -1)
            for x in range(top.n)
        )
        assert h_map_classical(top) == expected, lat


def test_dot_labels_match_literal_definition(corpus):
    for lat in corpus:
        s = build_bitop_spectrum(lat)
        text = to_dot(s)
        for k, (a, b) in enumerate(s.points):
            label = f"({lat.set_label(lat.down[a])};{lat.set_label(lat.up[b])})"
            in_delta = ",".join(lat.names[x] for x in range(lat.n) if s.delta[x] >> k & 1)
            in_eps = ",".join(lat.names[x] for x in range(lat.n) if s.epsilon[x] >> k & 1)
            assert f"[label=\"{label}\\nd:{in_delta} e:{in_eps}\"];" in text


def test_kept_down_loop_matches_transpose(corpus):
    # FiniteTopology.down is read off the T0 classes; cross-check it
    for lat in corpus:
        s = build_bitop_spectrum(lat)
        for top in (s.space.tau, s.space.sigma, build_classical_spectrum(lat).space):
            assert top.down == tuple(transpose(top.up, top.n))
