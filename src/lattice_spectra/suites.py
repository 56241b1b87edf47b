"""Theorem verification suites.

Each suite takes a lattice and checks one family of properties, returning
one result per lattice.  A raising check is reported as a failure with the
exception text as witness, so a corrupted structure surfaces as FAIL rather
than a crash.  The runner evaluates the lattices one after another, in input
order.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

from .bitsets import bits, full_mask, image_mask, is_subset, preimage_mask, transpose
from .lattices import FiniteLattice, all_homs, check_hom
from .spectra import (
    b_map,
    bottom_via_fundamental,
    build_bitop_spectrum,
    build_classical_spectrum,
    gbd_witness,
    prime_points,
    top_via_compactness,
)
from .duality import (
    big_h_map,
    classify_hom,
    delta_embedding,
    delta_natural_iso_check,
    essential_functor_on_morphism,
    essential_lattice,
    fundamental_lattice,
    h_map_classical,
    spec_b_on_hom,
    spec_b_witness,
    to_bitopological,
    to_topological,
)
from .topology import (
    BitopSpace,
    equal_closure_points,
    essential_subsets,
    is_continuous,
    is_homeomorphism,
    op_d,
    op_i,
    pairwise_bd_witness,
)


_COVERING_SAMPLES = 60
_COVERING_SEED = 7


class CheckResult(NamedTuple):
    lattice: str
    check: str
    passed: bool
    witness: str = ""


def _check(lattice_name, check_name, fn) -> CheckResult:
    try:
        witness = fn()
    except Exception as exc:  # surfaced as a failing line, never a crash
        return CheckResult(lattice_name, check_name, False, f"{type(exc).__name__}: {exc}")
    if witness is None:
        return CheckResult(lattice_name, check_name, True)
    return CheckResult(lattice_name, check_name, False, str(witness))


# ---------------------------------------------------------------------------
# individual suites; each returns None on pass or a witness string


def check_lattice_axioms(lat: FiniteLattice):
    """The declared bounds and the O(n^2) table laws.  Associativity is not
    re-checked: it follows once the tables hold the glb and lub
    (``tests/oracles.py`` keeps it)."""
    n = lat.n
    full = full_mask(n)
    if lat.up[lat.bottom] != full:
        return "declared bottom is not below every element"
    if lat.down[lat.top] != full:
        return "declared top is not above every element"
    names, up, down, meet, join = lat.names, lat.up, lat.down, lat.meet_table, lat.join_table
    for x in range(n):
        meet_x, join_x, up_x, down_x = meet[x], join[x], up[x], down[x]
        for y in range(n):
            m, w = meet_x[y], join_x[y]
            if m != meet[y][x] or w != join[y][x]:
                return f"commutativity fails at ({names[x]},{names[y]})"
            if (up_x >> y & 1) != (m == x):
                return f"order/meet mismatch at ({names[x]},{names[y]})"
            if meet_x[w] != x or join_x[m] != x:
                return f"absorption fails at ({names[x]},{names[y]})"
            lb = down_x & down[y]
            if not (lb >> m & 1 and is_subset(lb, down[m])):
                return f"meet table is not the glb at ({names[x]},{names[y]})"
            ub = up_x & up[y]
            if not (ub >> w & 1 and is_subset(ub, up[w])):
                return f"join table is not the lub at ({names[x]},{names[y]})"
    return None


def check_spectrum_map_laws(lat: FiniteLattice):
    """delta and epsilon are injective, epsilon(x) lies inside delta(x),
    delta preserves joins and epsilon meets.  With two elements or more a
    lattice has a comaximal pair: with no point every delta(x) is empty, and
    the injectivity clause has already failed
    (``tests/oracles.py::comaximal_pair_witness``)."""
    s = build_bitop_spectrum(lat)
    n = lat.n
    if len(set(s.delta)) != n:
        return "delta is not injective"
    if len(set(s.epsilon)) != n:
        return "epsilon is not injective"
    for x in range(n):
        if s.epsilon[x] & ~s.delta[x]:
            return f"epsilon({lat.names[x]}) not inside delta({lat.names[x]})"
        for y in range(n):
            if s.delta[lat.join(x, y)] != s.delta[x] | s.delta[y]:
                return f"delta not a join homomorphism at ({lat.names[x]},{lat.names[y]})"
            if s.epsilon[lat.meet(x, y)] != s.epsilon[x] & s.epsilon[y]:
                return f"epsilon not a meet homomorphism at ({lat.names[x]},{lat.names[y]})"
    return None


def check_distributive_iff_maps_equal(lat: FiniteLattice):
    s = build_bitop_spectrum(lat)
    maps_equal = s.delta == s.epsilon
    if maps_equal != lat.distributive:
        return f"delta==epsilon is {maps_equal} but distributivity disagrees"
    return None


def check_specialization_orders(lat: FiniteLattice):
    """Each point's tau (sigma) up-set is the points whose a (b) lies below.

    Pairwise T0 then holds without a scan: a_y <= a_x and b_x <= b_y force
    x == y by the maximality of both pairs.  ``check_pairwise_axioms`` runs
    ``pairwise_t0_witness`` as axiom (i)."""
    s = build_bitop_spectrum(lat)
    pts = s.points
    space = s.space
    # below_a[e] / below_b[e]: the points q with a_q / b_q below element e
    below_a = transpose([lat.up[pt.a] for pt in pts], lat.n)
    below_b = transpose([lat.up[pt.b] for pt in pts], lat.n)
    for p, pt in enumerate(pts):
        tau = space.up_tau[p] ^ below_a[pt.a]
        sig = space.up_sigma[p] ^ below_b[pt.b]
        if tau | sig:  # report the lowest differing q, tau before sigma
            q = next(bits(tau | sig))
            kind = "tau" if tau >> q & 1 else "sigma"
            return f"{kind} order mismatch at ({pt.label()},{pts[q].label()})"
    return None


def check_transition_operators(lat: FiniteLattice):
    """d(delta(x)) = epsilon(x) and i(epsilon(x)) = delta(x).

    They settle the rest: delta(x) = i(epsilon(x)) is tau-increasing and
    epsilon(x) = d(delta(x)) sigma-increasing; delta(x) is stable,
    i(d(delta(x))) = i(epsilon(x)) = delta(x), and epsilon(x) co-stable,
    d(i(epsilon(x))) = d(delta(x)) = epsilon(x)
    (``tests/oracles.py::stability_witness``).  The adjunction i(A) <= B iff
    A <= d(B) holds on every finite space: for sigma-increasing A and
    tau-increasing B both sides say A <= B
    (``tests/oracles.py::adjunction_witness``)."""
    s = build_bitop_spectrum(lat)
    space = s.space
    for x in range(lat.n):
        if op_d(space, s.delta[x]) != s.epsilon[x]:
            return f"d(delta({lat.names[x]})) is not epsilon({lat.names[x]})"
        if op_i(space, s.epsilon[x]) != s.delta[x]:
            return f"i(epsilon({lat.names[x]})) is not delta({lat.names[x]})"
    return None


@lru_cache(maxsize=None)
def covering_samples(n: int) -> tuple[tuple[int, int, int], ...]:
    """The distinct seeded samples (V, W, x) for a lattice of ``n`` elements,
    in order of first occurrence: 60 draws of V, then W, then x from one
    ``Random(7)``.  The stream depends on ``n`` alone, so it is drawn once
    per lattice size and kept; ``check_covering_witnesses`` reads it."""
    rng = random.Random(_COVERING_SEED)
    full = full_mask(n)
    samples = {}  # an ordered set of the drawn triples
    for _ in range(_COVERING_SAMPLES):
        v = rng.randint(1, full)
        w = rng.randint(1, full)
        samples[v, w, rng.randrange(n)] = None
    return tuple(samples)


def check_covering_witnesses(lat: FiniteLattice):
    """Certify the covering reduction on seeded samples (V, W, x).

    ``gbd_witness`` reads its branch off the lattice order; here it is held
    against the literal containment of spectrum masks twice per sample: the
    epsilon-intersection over V inside the delta-union over W, and
    delta(x) inside the delta-union over V (delta-compactness, the call with
    V = {x}).  Each separating pair must be a spectrum point of the one side
    outside the other; one that is no point at all fails the same way.

    Each distinct triple is certified once, in order of first occurrence:
    ``gbd_witness`` and every comparison below depend only on the spectrum
    and the triple, so a repeat cannot change the verdict, and the first
    failing triple (hence the witness text) is the same as in draw order.
    Small lattices repeat heavily: a one-element lattice draws the one
    triple (1, 1, 0) sixty times."""
    s = build_bitop_spectrum(lat)

    def separates(pair, inside, outside):
        k = s.index.get((pair.a, pair.b))
        return k is not None and inside >> k & 1 and not outside >> k & 1

    for v, w, x in covering_samples(lat.n):
        inter = full_mask(len(s.points))
        union_v = union_w = 0
        for y in bits(v):
            inter &= s.epsilon[y]
            union_v |= s.delta[y]
        for y in bits(w):
            union_w |= s.delta[y]
        pair = gbd_witness(s, v, w)
        if is_subset(inter, union_w) != (pair is None):
            return f"branch mismatch for V={lat.set_label(v)} W={lat.set_label(w)}"
        if pair is not None and not separates(pair, inter, union_w):
            return "separating pair is not a counterexample point"
        pair = gbd_witness(s, 1 << x, v)
        if is_subset(s.delta[x], union_v) != (pair is None):
            return f"cover branch mismatch at x={lat.names[x]} V={lat.set_label(v)}"
        if pair is not None and not separates(pair, s.delta[x], union_v):
            return "cover separating pair is not a counterexample point"
    return None


def check_prime_point_closures(lat: FiniteLattice):
    """Each closure-prime point is a prime ideal with its complement (its
    ideal and filter cover the carrier), and all points are closure-prime
    exactly when the lattice is distributive."""
    s = build_bitop_spectrum(lat)
    pts = prime_points(s)
    full = full_mask(lat.n)
    for k in pts:
        p = s.points[k]
        if lat.down[p.a] | lat.up[p.b] != full:
            return "closure-prime point that is not a prime ideal with its complement"
    all_prime = len(pts) == len(s.points)
    if all_prime != lat.distributive:
        return f"all-points-prime is {all_prime} but distributivity disagrees"
    return None


def _inclusion_table_witness(lat: FiniteLattice, subsets, meet, meet_label: str):
    """The first table entry of a lattice of point sets ordered by inclusion
    (element k is ``subsets[k]``) that is not the union, or the meet, of its
    two sets, as witness text; None when every entry is.  ``meet(i, j)`` is
    the expected meet of elements i and j."""
    for i in range(lat.n):
        for j in range(lat.n):
            if subsets[lat.join_table[i][j]] != subsets[i] | subsets[j]:
                return f"{lat.name} join is not union"
            if subsets[lat.meet_table[i][j]] != meet(i, j):
                return f"{lat.name} meet is not {meet_label}"
    return None


def check_essential_family(lat: FiniteLattice):
    """The essential sets of the spectrum are the delta image, one per
    element, and they form a lattice with union as join and
    i(d(intersection)) as meet."""
    s = build_bitop_spectrum(lat)
    space = s.space
    found, image = essential_subsets(space), frozenset(s.delta)
    if found != image or len(image) != lat.n:
        return (
            f"essential family differs from the delta image "
            f"(extra {sorted(found - image)}, missing {sorted(image - found)})"
        )
    ess = essential_lattice(space)
    # d preserves intersections, so d(u & v) is d(u) & d(v)
    d = [op_d(space, u) for u in ess.subsets]
    return _inclusion_table_witness(
        ess.lattice, ess.subsets, lambda i, j: op_i(space, d[i] & d[j]), "i(d(intersection))"
    )


def check_bounds_from_topology(lat: FiniteLattice):
    top = top_via_compactness(lat)
    if top != lat.top:
        return f"subcover join {lat.names[top]} is not the top"
    bottom = bottom_via_fundamental(lat)
    if bottom != lat.bottom:
        return f"empty-intersection meet {lat.names[bottom]} is not the bottom"
    return None


def check_pairwise_axioms(lat: FiniteLattice):
    return pairwise_bd_witness(build_bitop_spectrum(lat).space)


@lru_cache(maxsize=None)
def comaximal_witness(space: BitopSpace) -> str | None:
    """The comaximal characterization of the essential lattice E(X), as
    witness text or None: :func:`big_h_map` is a bijection onto the
    comaximal pairs of E(X), and both the essential sets and their d-images
    have empty intersection.  Evaluated once per space."""
    mapping = big_h_map(space)
    ess = essential_lattice(space)
    inter_d = inter_a = full_mask(space.n)
    for a in ess.subsets:
        inter_d &= op_d(space, a)
        inter_a &= a
    matched = set(mapping)
    injective = len(matched) == len(mapping)
    unmatched = [k for k in range(len(build_bitop_spectrum(ess.lattice).points)) if k not in matched]
    if -1 in matched or not injective or unmatched or inter_d or inter_a:
        return (
            f"comaximal characterization fails (injective={injective}, "
            f"unmatched={unmatched}, empty-d={inter_d == 0}, empty-A={inter_a == 0})"
        )
    return None


@lru_cache(maxsize=None)
def reconstruction_witness(space: BitopSpace) -> str | None:
    """The reconstruction verdict for X, as witness text or None:
    :func:`big_h_map` is a bijection onto spec_B(E(X)) (the comaximal
    characterization), the preimage of delta(A) is A and that of epsilon(A)
    is d(A) for each essential A, and it is a bihomeomorphism.  Evaluated
    once per space; the ``space_roundtrip`` suite prints it, and the
    ``distributive_equivalences`` suite reads it as a face."""
    bijective = delta_ok = epsilon_ok = bihomeo = comaximal_witness(space) is None
    if bijective:
        mapping = big_h_map(space)
        ess = essential_lattice(space)
        spectrum = build_bitop_spectrum(ess.lattice)
        delta_ok = all(
            preimage_mask(mapping, spectrum.delta[k]) == a for k, a in enumerate(ess.subsets)
        )
        epsilon_ok = all(
            preimage_mask(mapping, spectrum.epsilon[k]) == op_d(space, a)
            for k, a in enumerate(ess.subsets)
        )
        bihomeo = is_homeomorphism(mapping, space.tau, spectrum.space.tau) and is_homeomorphism(
            mapping, space.sigma, spectrum.space.sigma
        )
        if delta_ok and epsilon_ok and bihomeo:
            return None
    return (
        f"reconstruction map not an isomorphism (bijective={bijective}, "
        f"delta={delta_ok}, epsilon={epsilon_ok}, bihomeo={bihomeo})"
    )


def check_essential_comaximal_points(lat: FiniteLattice):
    return comaximal_witness(build_bitop_spectrum(lat).space)


def check_space_roundtrip(lat: FiniteLattice):
    return reconstruction_witness(build_bitop_spectrum(lat).space)


def check_lattice_roundtrip(lat: FiniteLattice):
    emb = delta_embedding(lat)
    ess = emb.target
    if len(set(emb.mapping)) != lat.n or ess.n != lat.n:
        return "element embedding into the essential lattice is not a bijection"
    for x in range(lat.n):
        for y in range(lat.n):
            if lat.leq(x, y) != ess.leq(emb.mapping[x], emb.mapping[y]):
                return f"embedding does not preserve order at ({lat.names[x]},{lat.names[y]})"
    return None


def check_distributive_equivalences(lat: FiniteLattice):
    """The four faces of distributivity of the spectrum X agree: coinciding
    topologies, a distributive essential lattice, being the spectrum of a
    distributive lattice (decided with E(X) itself, by the reconstruction
    verdict), and all points prime."""
    space = build_bitop_spectrum(lat).space
    # raises NotPairwiseBD off pairwise Balbes-Dwinger spaces, as every face
    # presumes one
    reconstructs = reconstruction_witness(space) is None
    doubly = space.tau == space.sigma
    distributive = essential_lattice(space).lattice.distributive
    spectrum_of_distributive = distributive and reconstructs
    all_prime = equal_closure_points(space) == full_mask(space.n)
    if not doubly == distributive == spectrum_of_distributive == all_prime:
        return (
            f"equivalence faces disagree: doubly={doubly}, "
            f"E-distributive={distributive}, "
            f"spectrum-of-distributive={spectrum_of_distributive}, "
            f"all-prime={all_prime}"
        )
    if doubly != lat.distributive:
        return "equivalence faces disagree with the lattice's distributivity"
    return None


def b_map_witness(lat: FiniteLattice, point_map) -> str | None:
    """The prime-ideal embedding ``point_map = b_map(lat)`` is a bijection
    onto the comaximal pairs and a homeomorphism onto (points, tau) carrying
    each d-image onto delta, as witness text or None.  The
    ``classical_stone`` suite prints it, and the ``classical_bridge`` corpus
    check reads it."""
    classical = build_classical_spectrum(lat)
    bitop = build_bitop_spectrum(lat)
    bijective = len(set(point_map)) == len(point_map) == len(bitop.points)
    if bijective and is_homeomorphism(point_map, classical.space, bitop.space.tau) and all(
        image_mask(point_map, classical.dmap[x]) == bitop.delta[x] for x in range(lat.n)
    ):
        return None
    return f"prime-ideal embedding not a homeomorphism (bijective={bijective})"


def check_classical_stone(lat: FiniteLattice):
    """Distributive lattices only: the classical round trip."""
    if not lat.distributive:
        return None
    classical = build_classical_spectrum(lat)
    if lat.n >= 2 and len(classical.points) == 0:
        return "a distributive lattice with two elements has a prime ideal"
    witness = b_map_witness(lat, b_map(lat))
    if witness is not None:
        return witness
    fund = fundamental_lattice(classical.space)
    subsets = fund.subsets
    witness = _inclusion_table_witness(
        fund.lattice, subsets, lambda i, j: subsets[i] & subsets[j], "intersection"
    )
    if witness is not None:
        return witness
    if fund.lattice.n != lat.n:
        return f"fundamental lattice has {fund.lattice.n} members, expected {lat.n}"
    mapping = tuple(fund.element_of(classical.dmap[x]) for x in range(lat.n))
    try:
        check_hom(lat, fund.lattice, mapping)
    except Exception as exc:
        return f"d-map is not a homomorphism onto the fundamentals: {exc}"
    if len(set(mapping)) != lat.n:
        return "d-map is not injective"
    h_x = h_map_classical(classical.space)
    target = build_classical_spectrum(fund.lattice).space
    if -1 in h_x or not is_homeomorphism(h_x, classical.space, target):
        return "point map into spec(F(X)) is not a homeomorphism"
    bridge = to_topological(build_bitop_spectrum(lat).space)
    if to_bitopological(bridge).tau != bridge:
        return "double/forget round trip changed the topology"
    return None


LATTICE_SUITES = (
    ("lattice_axioms", check_lattice_axioms),
    ("spectrum_map_laws", check_spectrum_map_laws),
    ("distributive_iff_maps_equal", check_distributive_iff_maps_equal),
    ("specialization_orders", check_specialization_orders),
    ("transition_operators", check_transition_operators),
    ("covering_witnesses", check_covering_witnesses),
    ("prime_point_closures", check_prime_point_closures),
    ("essential_family", check_essential_family),
    ("bounds_from_topology", check_bounds_from_topology),
    ("pairwise_axioms", check_pairwise_axioms),
    ("essential_comaximal_points", check_essential_comaximal_points),
    ("space_roundtrip", check_space_roundtrip),
    ("lattice_roundtrip", check_lattice_roundtrip),
    ("distributive_equivalences", check_distributive_equivalences),
    ("classical_stone", check_classical_stone),
)


def suite_for_lattice(lat: FiniteLattice) -> list[CheckResult]:
    """One result per suite, in ``LATTICE_SUITES`` order."""
    name = lat.name or ",".join(lat.names)
    return [_check(name, check_name, lambda fn=fn: fn(lat)) for check_name, fn in LATTICE_SUITES]


# ---------------------------------------------------------------------------
# corpus checks (cross-lattice: functor laws, naturality, classification)


def corpus_lattices(max_size: int = 4) -> list[FiniteLattice]:
    from .catalog import GeneratorConfig, enumerate_lattices

    return list(enumerate_lattices(GeneratorConfig("exhaustive", max_size)))


def corpus_checks(lattices=None) -> list[CheckResult]:
    lats = lattices if lattices is not None else corpus_lattices()
    try:
        homs, error = _corpus_homs(lats), None
    except Exception as exc:
        homs, error = None, exc

    def run(check_name, fn):
        def body():
            if error is not None:  # every corpus check reads the hom table
                raise error
            return fn(lats, homs)

        return _check("corpus", check_name, body)

    return [
        run("hom_classification", _check_hom_classification),
        run("functor_laws", _check_functor_laws),
        run("naturality_squares", _check_naturality),
        run("classical_bridge", _check_classical_bridge),
    ]


def _corpus_homs(lats):
    """For each ordered pair (i, j) of corpus positions, in that order, every
    hom lats[i] -> lats[j] in ``all_homs`` order as (hom, classification,
    spectrum morphism, essential-functor image of that morphism); the last
    two are None unless the hom is quasi-proper."""
    table = {}
    for i, a in enumerate(lats):
        for j, b in enumerate(lats):
            rows = table[i, j] = []
            for h in all_homs(a, b):
                cls = classify_hom(h)
                m = e = None
                if cls.quasi_proper:
                    m = spec_b_on_hom(h)
                    e = essential_functor_on_morphism(m)
                rows.append((h, cls, m, e))
    return table


def _check_hom_classification(lats, homs):
    """Quasi-proper implies proper, the two agree between distributive
    lattices, and spec_B of each quasi-proper hom is a morphism carrying
    delta and epsilon along it (:func:`spec_b_witness`)."""
    for (i, j), rows in homs.items():
        both_distributive = lats[i].distributive and lats[j].distributive
        for hom, cls, m, _ in rows:
            if cls.quasi_proper and not cls.proper:
                return f"quasi-proper but not proper: {hom.label()}"
            if both_distributive and cls.proper != cls.quasi_proper:
                return f"proper/quasi-proper split on distributive pair: {hom.label()}"
            if m is not None and (witness := spec_b_witness(hom, m)) is not None:
                return witness
    return None


def _check_functor_laws(lats, homs):
    """E sends each spectrum morphism to a quasi-proper homomorphism, and
    spec_B and E preserve identities and composition."""
    # the quasi-proper rows of each pair, in hom-table order
    quasi = {pair: [row for row in rows if row[2] is not None] for pair, rows in homs.items()}
    for rows in quasi.values():
        for _, _, _, e in rows:
            check_hom(e.source, e.target, e.mapping)
            if not classify_hom(e).quasi_proper:
                return "essential functor produced a non-quasi-proper hom"
    by_mapping = {pair: {row[0].mapping: row for row in rows} for pair, rows in homs.items()}
    for i, lat in enumerate(lats):
        _, _, m, eh = by_mapping[i, i][tuple(range(lat.n))]
        if m.mapping != tuple(range(m.source.n)):
            return f"spectrum of the identity is not the identity on {lat.name}"
        if eh.mapping != tuple(range(eh.source.n)):
            return f"essential functor of the identity is not the identity on {lat.name}"
    for (i, j), rows in quasi.items():
        for f, _, m_f, e_f in rows:
            for k in range(len(lats)):
                composites = by_mapping[i, k]
                for g, _, m_g, e_g in quasi[j, k]:
                    _, cls, left, e_left = composites[tuple(map(g.mapping.__getitem__, f.mapping))]
                    if not cls.quasi_proper:
                        return f"composition of quasi-proper homs is not quasi-proper: {f.label()} ; {g.label()}"
                    if left.mapping != tuple(map(m_f.mapping.__getitem__, m_g.mapping)):
                        return f"spec_B breaks composition on {f.label()} ; {g.label()}"
                    if e_left.mapping != tuple(map(e_g.mapping.__getitem__, e_f.mapping)):
                        return f"essential functor breaks composition on {f.label()} ; {g.label()}"
    return None


def _check_naturality(lats, homs):
    for rows in homs.values():
        for f, _, m, em in rows:
            if m is None:
                continue
            failing = delta_natural_iso_check(f, em)
            if failing is not None:
                return f"element-embedding square fails on {f.label()} at {failing}"
            hx = big_h_map(m.source)
            hy = big_h_map(m.target)
            lifted = spec_b_on_hom(em)
            for k in range(m.source.n):
                if lifted.mapping[hx[k]] != hy[m.mapping[k]]:
                    return f"reconstruction square fails on {f.label()}"
    return None


def _check_classical_bridge(lats, homs):
    distributive = [i for i, lat in enumerate(lats) if lat.distributive]
    classical = {}
    for i in distributive:
        lat = lats[i]
        bridge = to_topological(build_bitop_spectrum(lat).space)
        back = to_bitopological(bridge)
        if back.tau != bridge or back.sigma != bridge:
            return f"double/forget round trip fails on {lat.name}"
        point_map = b_map(lat)
        if b_map_witness(lat, point_map) is not None:
            return f"prime-ideal embedding fails on {lat.name}"
        spec = build_classical_spectrum(lat)
        prime_masks = {p: k for k, p in enumerate(spec.points)}
        classical[i] = (spec, prime_masks, point_map)
    for i in distributive:
        spec_a, prime_masks, ba = classical[i]
        for j in distributive:
            spec_b_, _, bb = classical[j]
            for f, cls, bit, _ in homs[i, j]:
                if not cls.proper:
                    continue
                point_map = []
                for p in spec_b_.points:
                    pre = f.preimage(p)
                    if pre not in prime_masks:
                        return f"proper hom does not act on spectra: {f.label()}"
                    point_map.append(prime_masks[pre])
                # the fundamental subsets of a finite space are all its opens,
                # so continuity is strong continuity
                if not is_continuous(point_map, spec_b_.space, spec_a.space):
                    return f"spectrum map is not strongly continuous for {f.label()}"
                if bit is None:
                    return f"proper hom is not quasi-proper: {f.label()}"
                for k in range(len(spec_b_.points)):
                    if bit.mapping[bb[k]] != ba[point_map[k]]:
                        return f"prime-ideal embedding is not natural on {f.label()}"
    return None


# ---------------------------------------------------------------------------
# runner


def run_lattice_suites(lattices) -> list[CheckResult]:
    """Evaluate the per-lattice suites, serially and in input order."""
    return [r for lat in lattices for r in suite_for_lattice(lat)]
