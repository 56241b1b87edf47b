"""Brute-force oracles used by the tests, independent of the library paths
they check."""

import functools
import itertools
import random

from lattice_spectra import topology
from lattice_spectra.bitsets import bits, full_mask, is_subset, preimage_mask
from lattice_spectra.duality import big_h_map, essential_lattice, pbd_morphism
from lattice_spectra.errors import CyclicCovers, LatticeToolError, NotALattice, NotPairwiseBD
from lattice_spectra.lattices import all_ideals, check_hom, lattice_from_order
from lattice_spectra.spectra import build_bitop_spectrum, delta_compactness_check, gbd_witness
from lattice_spectra.topology import fundamental_subsets, is_pairwise_bd


class EmptyGeneratorSet(LatticeToolError):
    """Ideal/filter generation needs at least one generator."""


class NotACover(LatticeToolError):
    """The supplied family does not cover the target set or is not open."""


class NotIncreasing(LatticeToolError):
    """A stability test was handed a set that is not increasing."""


def _is_closed(m, order, table):
    """Whether the mask ``m`` is nonempty, closed under ``order`` (each
    member's up- or down-set lies inside it) and under the ``table``
    operation on pairs of members."""
    return bool(m) and not any(order[x] & ~m for x in bits(m)) and all(
        m >> table[x][y] & 1 for x, y in itertools.combinations(list(bits(m)), 2)
    )


def is_ideal(lat, m):
    """Nonempty, down-closed and join-closed."""
    return _is_closed(m, lat.down, lat.join_table)


def is_filter(lat, m):
    """Nonempty, up-closed and meet-closed."""
    return _is_closed(m, lat.up, lat.meet_table)


def ideal_masks_brute(lat):
    """Every ideal found by scanning all carrier subsets."""
    return [m for m in range(1 << lat.n) if is_ideal(lat, m)]


def filter_masks_brute(lat):
    """Every filter found by scanning all carrier subsets."""
    return [m for m in range(1 << lat.n) if is_filter(lat, m)]


def build_lattice_fixpoint(names, cover_pairs, name=""):
    """``lattices.build_lattice`` with the transitive closure it once ran: a
    fixpoint loop that ORs the up-sets of each up-set's members into it until
    no up-set grows.  The same cycle check and :class:`CyclicCovers` text
    follow, then ``lattice_from_order``."""
    names = tuple(names)
    n = len(names)
    if len(set(names)) != n:
        raise ValueError("element names must be unique")
    index = {s: i for i, s in enumerate(names)}
    up = [1 << i for i in range(n)]
    for lo, hi in cover_pairs:
        for s in (lo, hi):
            if s not in index:
                raise ValueError(f"cover mentions unknown element {s!r}")
        up[index[lo]] |= 1 << index[hi]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = up[i]
            for j in bits(up[i]):
                grown |= up[j]
            if grown != up[i]:
                up[i] = grown
                changed = True
    for i in range(n):
        for j in bits(up[i]):
            if i != j and up[j] >> i & 1:
                raise CyclicCovers(f"cycle through {names[i]!r} and {names[j]!r}")
    return lattice_from_order(names, up, name=name)


def is_preorder(up):
    """Whether ``up`` holds the up-sets of a preorder on ``len(up)`` points:
    each mask inside the carrier, each point in its own up-set, and each
    up-set containing the up-sets of its members."""
    full = full_mask(len(up))
    return all(
        not u & ~full and u >> x & 1 and not any(up[y] & ~u for y in bits(u))
        for x, u in enumerate(up)
    )


def comaximal_pairs_brute(lat):
    """The comaximality conditions spelled out over all super-ideals and
    super-filters."""
    ideals = ideal_masks_brute(lat)
    filters = filter_masks_brute(lat)
    out = []
    for i in ideals:
        for f in filters:
            if i & f:
                continue
            if any(i & ~j == 0 and i != j and j & f == 0 for j in ideals):
                continue
            if any(f & ~k == 0 and f != k and k & i == 0 for k in filters):
                continue
            out.append((i, f))
    return sorted(out)


# the homs between two lattices share both pair lists
_cached_pairs_brute = functools.lru_cache(maxsize=64)(comaximal_pairs_brute)


def spectrum_map_brute(hom):
    """The preimage map of a homomorphism on comaximal pairs, literally: the
    preimage masks of each target pair of ``comaximal_pairs_brute`` looked
    up among the source's.  Returns (point map, None), or (None, the first
    target pair whose preimage pair is not a source pair)."""
    src, tgt = hom.source, hom.target

    def preimage(mask):
        return sum(1 << x for x in range(src.n) if mask >> hom.mapping[x] & 1)

    index = {pair: k for k, pair in enumerate(_cached_pairs_brute(src))}
    mapping = []
    for i, f in _cached_pairs_brute(tgt):
        k = index.get((preimage(i), preimage(f)))
        if k is None:
            return None, (i, f)
        mapping.append(k)
    return tuple(mapping), None


def all_homs_brute(source, target):
    """Every meet- and join-preserving map, as mapping tuples in
    lexicographic order, found by trying all ``target.n ** source.n`` maps."""
    out = []
    for f in itertools.product(range(target.n), repeat=source.n):
        if all(
            f[source.meet_table[x][y]] == target.meet_table[f[x]][f[y]]
            and f[source.join_table[x][y]] == target.join_table[f[x]][f[y]]
            for x in range(source.n)
            for y in range(x, source.n)
        ):
            out.append(f)
    return out


def labeled_posets_brute(n):
    """All partial orders on n labelled points, as up-mask tuples.

    Each unordered pair is unrelated or oriented one of two ways; transitivity
    is checked on the closure candidate.
    """
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        up = [1 << i for i in range(n)]
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                up[i] |= 1 << j
            elif c == 2:
                up[j] |= 1 << i
        ok = True
        for i in range(n):
            for j in bits(up[i]):
                if up[j] & ~up[i]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield tuple(up)


def is_lattice_up_masks(up, n):
    down = [0] * n
    for i in range(n):
        for j in bits(up[i]):
            down[j] |= 1 << i
    for i in range(n):
        for j in range(i + 1, n):
            cd = down[i] & down[j]
            if not any(cd & ~down[m] == 0 for m in bits(cd)):
                return False
            cu = up[i] & up[j]
            if not any(cu & ~up[m] == 0 for m in bits(cu)):
                return False
    return True


def lattice_tables_by_bound_scan(names, up):
    """(meet table, join table) of an order: each entry is the first common
    bound that lies below (above) every common bound.  Raises NotALattice
    for the first pair without one, all meets before any join."""
    n = len(names)
    down = [0] * n
    for i in range(n):
        for j in bits(up[i]):
            down[j] |= 1 << i

    def bound(i, j, masks, which):
        common = masks[i] & masks[j]
        for m in bits(common):
            if common & ~masks[m] == 0:
                return m
        raise NotALattice(names[i], names[j], which)

    meet = tuple(tuple(bound(i, j, down, "glb") for j in range(n)) for i in range(n))
    join = tuple(tuple(bound(i, j, up, "lub") for j in range(n)) for i in range(n))
    return meet, join


def associativity_failure_brute(lat):
    """The first (x, y, z) at which meet or join is not associative, or None."""
    meet, join = lat.meet_table, lat.join_table
    for x, y, z in itertools.product(range(lat.n), repeat=3):
        if meet[meet[x][y]][z] != meet[x][meet[y][z]]:
            return (x, y, z)
        if join[join[x][y]][z] != join[x][join[y][z]]:
            return (x, y, z)
    return None


def prime_ideals_by_ideal_scan(lat):
    """Every mask from ``all_ideals`` that is an ideal, proper, and whose
    complement is a filter, by the closure definitions."""
    full = full_mask(lat.n)
    return [
        m for m in all_ideals(lat) if is_ideal(lat, m) and m != full and is_filter(lat, full & ~m)
    ]


def perm_canonical(up, n):
    """Minimum encoding over all permutations; an exact isomorphism key."""
    best = None
    for perm in itertools.permutations(range(n)):
        rows = []
        for old in perm:
            row = 0
            for j in bits(up[old]):
                row |= 1 << perm.index(j)
        # note: perm.index is the inverse permutation lookup
            rows.append(row)
        enc = tuple(rows)
        if best is None or enc < best:
            best = enc
    return best


def count_lattices_brute(n):
    """Number of lattices on exactly n labelled points, up to isomorphism."""
    seen = set()
    for up in labeled_posets_brute(n):
        if is_lattice_up_masks(up, n):
            seen.add(perm_canonical(up, n))
    return len(seen)


def transpose_loop(rows, width):
    """``bitsets.transpose`` bit by bit: ``out[j]`` collects each i with bit
    j of ``rows[i]`` set, for ``j < width``."""
    out = [0] * width
    for i, row in enumerate(rows):
        for j in bits(row):
            if j < width:
                out[j] |= 1 << i
    return out


def _up_closure(up, a):
    """i written out: the points above some member of ``a``."""
    out = 0
    for x in bits(a):
        out |= up[x]
    return out


def _interior(up, a):
    """d written out: the points whose least neighbourhood lies inside ``a``."""
    return sum(1 << x for x, u in enumerate(up) if u & ~a == 0)


def op_i_loop(space, a):
    """i as one OR per member of ``a``: the tau up-closure."""
    up = space.up_tau
    out = 0
    for x in bits(a):
        out |= up[x]
    return out


def op_d_loop(space, a):
    """d as one containment test per point: the points whose sigma
    neighbourhood lies inside ``a``."""
    outside = ~a
    out = 0
    for x, u in enumerate(space.up_sigma):
        if not u & outside:
            out |= 1 << x
    return out


def is_increasing(top, a):
    """Whether ``a`` is open in ``top``: no member's least neighbourhood
    leaves it."""
    return not any(top.up[x] & ~a for x in bits(a))


def is_stable(space, a):
    """Whether a tau-increasing set is fixed by i after d."""
    if not is_increasing(space.tau, a):
        raise NotIncreasing("stability is only defined for tau-increasing sets")
    return topology.op_i(space, topology.op_d(space, a)) == a


def is_costable(space, b):
    """Whether a sigma-increasing set is fixed by d after i."""
    if not is_increasing(space.sigma, b):
        raise NotIncreasing("co-stability is only defined for sigma-increasing sets")
    return topology.op_d(space, topology.op_i(space, b)) == b


def stability_witness(spec):
    """The stable and co-stable clauses ``suites.check_transition_operators``
    once ran after its two identities: per element x in order, delta(x)
    stable, then epsilon(x) co-stable; the first failure in the suite's
    witness text, or None.  A set that is not increasing raises
    :class:`NotIncreasing`, which the suite printed as
    ``NotIncreasing: <message>``.

    They hold wherever the identities d(delta(x)) = epsilon(x) and
    i(epsilon(x)) = delta(x) hold, so on every spectrum that passes the
    suite: delta(x) = i(epsilon(x)) is a tau up-closure, hence
    tau-increasing, and epsilon(x) = d(delta(x)) is sigma-increasing by the
    definition of d; then i(d(delta(x))) = i(epsilon(x)) = delta(x) and
    d(i(epsilon(x))) = d(delta(x)) = epsilon(x)."""
    lat, space = spec.lattice, spec.space
    for x in range(lat.n):
        if not is_stable(space, spec.delta[x]):
            return f"delta({lat.names[x]}) is not stable"
        if not is_costable(space, spec.epsilon[x]):
            return f"epsilon({lat.names[x]}) is not co-stable"
    return None


def comaximal_pair_witness(spec):
    """The last clause ``suites.check_spectrum_map_laws`` once ran, in its
    witness text, or None: a lattice of two or more elements has a
    comaximal pair.

    It holds on every finite lattice: with bottom != top, ``down[bottom]``
    and ``up[top]`` are a disjoint ideal and filter, and
    ``spectra.extend_to_comaximal`` grows them into a comaximal pair.  In
    the suite it could never fire: with no point every delta(x) is the
    empty mask, so delta is not injective on two elements and the suite's
    first clause has already returned."""
    if spec.lattice.n >= 2 and len(spec.points) < 1:
        return "a lattice with two elements has a comaximal pair"
    return None


def image_intersection_closed(spec):
    """Whether the d-map image of a classical spectrum is closed under
    intersection, by the pair scan ``build_classical_spectrum`` once ran
    for the ``image intersection-closed:`` line of ``spec --classical``.

    Always true: a prime ideal P misses meet(x, y) exactly when it misses
    both x and y (P is down-closed, and prime: meet(x, y) in P puts x or y
    in P), so ``dmap[x] & dmap[y]`` is ``dmap[meet(x, y)]``."""
    image = set(spec.dmap)
    return all(a & b in image for a, b in itertools.combinations(image, 2))


def fip_scan_oracle(top):
    """Whether the empty set is fundamental, literally: every subfamily of
    compact-opens with the finite intersection property has a nonempty
    total intersection.

    Always true on a finite carrier, where a family with the finite
    intersection property is one of its own finite subfamilies, so its
    total intersection is nonempty; ``topology.fundamental_subsets`` always
    holds the empty set.  The scan is exponential in the number of opens."""
    members = sorted(opens(top))
    for pick in range(1, 1 << len(members)):
        family = [members[i] for i in bits(pick)]
        total = full_mask(top.n)
        for u in family:
            total &= u
        fip = True
        for sub in range(1, 1 << len(family)):
            m = full_mask(top.n)
            for i in bits(sub):
                m &= family[i]
            if m == 0:
                fip = False
                break
        if fip and total == 0:
            return False
    return True


def increasing_pairs(space):
    """Every pair (A, B) of a sigma-increasing A and a tau-increasing B,
    ascending: the increasing sets of a preorder are the opens of its
    topology."""
    return itertools.product(sorted(opens(space.sigma)), sorted(opens(space.tau)))


def sampled_increasing_pairs(space):
    """2000 seeded pairs (d(X), i(Y)) of a sigma-increasing and a
    tau-increasing set, X and Y drawn from the carrier's subsets by one
    ``Random(1729)``."""
    rng = random.Random(1729)
    full = full_mask(space.n)
    return [
        (topology.op_d(space, rng.randint(0, full)), topology.op_i(space, rng.randint(0, full)))
        for _ in range(2000)
    ]


def adjunction_witness(space, pairs):
    """The adjunction i(A) <= B iff A <= d(B), evaluated with the library's
    ``op_i``/``op_d`` on ``pairs`` of a sigma-increasing A and a
    tau-increasing B: the first failing pair as witness text, or None.  It
    holds on every finite space (``suites.check_transition_operators``
    gives the proof)."""
    for a, b in pairs:
        if is_subset(topology.op_i(space, a), b) != is_subset(a, topology.op_d(space, b)):
            return f"adjunction fails at A={a:#x} B={b:#x}"
    return None


def d_family_closure_witness(space, essentials):
    """The intersection-closure half of pairwise-BD axiom (iii): the first
    two d-images of ``essentials``, ascending, whose intersection is not a
    d-image, as witness text, or None.  It holds on every finite space
    (``topology.is_pairwise_bd`` gives the proof)."""
    d_family = {topology.op_d(space, a) for a in essentials}
    for a, b in itertools.combinations(sorted(d_family), 2):
        if a & b not in d_family:
            return f"d-image family not closed under intersection: {a:#x} & {b:#x}"
    return None


def d_family_cover_witness(space, essentials):
    """The cover half of pairwise-BD axiom (iii): the points outside every
    d-image of ``essentials``, as witness text, or None.  It holds on every
    finite space: the carrier is i of the sigma-open carrier, hence
    essential, and d fixes it (``topology.is_pairwise_bd``)."""
    covered = 0
    for a in essentials:
        covered |= topology.op_d(space, a)
    missed = full_mask(space.n) & ~covered
    return f"d-images of essential sets miss points {list(bits(missed))}" if missed else None


def essential_subsets_brute(space):
    """Essential subsets by scanning every carrier subset: each tau-increasing
    m whose sigma-interior d(m) is sigma-open and whose tau up-closure
    i(d(m)) is m again, plus the empty set."""
    out = {0}
    for m in range(1, 1 << space.n):
        if any(space.up_tau[x] & ~m for x in bits(m)):
            continue
        dm = _interior(space.up_sigma, m)
        if dm in opens(space.sigma) and _up_closure(space.up_tau, dm) == m:
            out.add(m)
    return frozenset(out)


def essential_subsets_by_sigma_opens(space):
    """Essential subsets by the loop over every sigma-open U: each candidate
    i(U) kept when its d-image is sigma-open and i of that d-image is the
    candidate again, plus the empty set."""
    out = {0}
    for u in opens(space.sigma):
        a = _up_closure(space.up_tau, u)
        da = _interior(space.up_sigma, a)
        if da in opens(space.sigma) and _up_closure(space.up_tau, da) == a:
            out.add(a)
    return frozenset(out)


def pairwise_bd_axioms_iv_v_brute(space, essentials):
    """The first failing axiom among (iv) and (v) of the pairwise
    Balbes-Dwinger definition, evaluated literally, or None: (iv) the union
    a | b and the meet i(d(a & b)) of any two essential sets are essential,
    (v) in its witness form over subfamilies of one or two nonempty essential
    sets: whenever the intersection of the d-images of V lies inside the
    union of W, so does i(d(intersection of V))."""
    ess = frozenset(essentials)
    up_tau, up_sigma = space.up_tau, space.up_sigma
    for a in ess:
        for b in ess:
            if a | b not in ess:
                return "iv"
            if _up_closure(up_tau, _interior(up_sigma, a & b)) not in ess:
                return "iv"
    full = (1 << space.n) - 1
    nonempty = sorted(m for m in ess if m)
    subfamilies = [
        fam for k in (1, 2) for fam in itertools.combinations(nonempty, k)
    ]
    for v_fam in subfamilies:
        inter_d = inter_a = full
        for a in v_fam:
            inter_d &= _interior(up_sigma, a)
            inter_a &= a
        meet_v = _up_closure(up_tau, _interior(up_sigma, inter_a))
        for w_fam in subfamilies:
            union_w = 0
            for a in w_fam:
                union_w |= a
            if inter_d & ~union_w == 0 and meet_v & ~union_w:
                return "v"
    return None


def is_continuous_brute(mapping, source, target):
    """Continuity by definition: every target open pulls back to an open."""
    for u in opens(target):
        pre = 0
        for x, v in enumerate(mapping):
            if u >> v & 1:
                pre |= 1 << x
        if pre not in opens(source):
            return False
    return True


def strongly_continuous_brute(mapping, source, target):
    """Continuity plus every fundamental subset pulling back to a
    fundamental subset, both clauses over the open families."""
    if not is_continuous_brute(mapping, source, target):
        return False
    src_fund = fundamental_subsets(source)
    for a in fundamental_subsets(target):
        if preimage_mask(mapping, a) not in src_fund:
            return False
    return True


def distributivity_faces(space):
    """The four faces of distributivity of a pairwise Balbes-Dwinger space,
    each by its definition: the two open families coincide; the essential
    lattice satisfies the distributive law on every triple; that lattice is
    distributive and the reconstruction map is a homeomorphism for both
    topologies onto its spectrum; every point has equal tau and sigma
    closures."""
    lat = essential_lattice(space).lattice
    meet, join = lat.meet, lat.join
    distributive = all(
        meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
        for x, y, z in itertools.product(range(lat.n), repeat=3)
    )
    target = build_bitop_spectrum(lat).space
    mapping = big_h_map(space)
    iso = -1 not in mapping and all(
        is_homeomorphism_brute(mapping, src, tgt)
        for src, tgt in ((space.tau, target.tau), (space.sigma, target.sigma))
    )
    closures_equal = all(
        all(space.up_tau[q] >> x & 1 == space.up_sigma[q] >> x & 1 for q in range(space.n))
        for x in range(space.n)
    )
    return opens(space.tau) == opens(space.sigma), distributive, distributive and iso, closures_equal


def is_homeomorphism_brute(mapping, source, target):
    """A bijection that carries the open family onto the open family."""
    if len(set(mapping)) != source.n or source.n != target.n:
        return False
    image = set()
    for u in opens(source):
        m = 0
        for x in bits(u):
            m |= 1 << mapping[x]
        image.add(m)
    return image == opens(target)


@functools.lru_cache(maxsize=None)
def opens(top):
    """Every open set of a finite topology: the unions of its least
    neighbourhoods, the empty union included, grown one neighbourhood at a
    time."""
    found = {0}
    for u in set(top.up):
        found |= {u | o for o in found}
    return frozenset(found)


def union_closure_brute(members):
    """All unions of subfamilies, the empty union included."""
    members = sorted(members)
    out = set()
    for pick in range(1 << len(members)):
        m = 0
        for i in bits(pick):
            m |= members[i]
        out.add(m)
    return frozenset(out)


def pairwise_bd_first_axioms_brute(space, essentials):
    """The first failing axiom among (i)-(iii) of the pairwise Balbes-Dwinger
    definition, in their open-family forms, or None: (i) distinct points are
    separated by a tau-open around the first or a sigma-open around the
    second, (ii) the essential sets generate tau (every tau-open is a union of
    finite intersections of them), (iii) the d-images of the essential sets
    are closed under intersection and their unions are the sigma-opens."""
    n = space.n
    for x in range(n):
        for y in range(n):
            if x != y and not any(
                u >> x & 1 and not u >> y & 1 for u in opens(space.tau)
            ) and not any(v >> y & 1 and not v >> x & 1 for v in opens(space.sigma)):
                return "i"
    inters = set()
    members = sorted(essentials)
    for pick in range(1 << len(members)):
        m = (1 << n) - 1
        for i in bits(pick):
            m &= members[i]
        inters.add(m)
    if union_closure_brute(inters) != opens(space.tau):
        return "ii"
    d_family = set()
    for a in essentials:
        d = 0  # the sigma-interior: the union of the sigma-opens inside a
        for v in opens(space.sigma):
            if v & ~a == 0:
                d |= v
        d_family.add(d)
    if any(a & b not in d_family for a in d_family for b in d_family):
        return "iii"
    if union_closure_brute(d_family) != opens(space.sigma):
        return "iii"
    return None


def bd_space_brute(top):
    """The Balbes-Dwinger clauses for a single topology evaluated literally,
    as (passed, reason): T0, then the fundamental family (every open, each
    compact on a finite carrier, plus the empty set) closed under
    intersection, a basis whose unions are the opens, and the
    birreducibility witness for subfamilies of two."""
    family = opens(top)
    for x in range(top.n):
        for y in range(x + 1, top.n):
            if not any((u >> x & 1) != (u >> y & 1) for u in family):
                return False, f"not T0: points {x} and {y}"
    fund = family | {0}
    for a, b in itertools.combinations(sorted(fund), 2):
        if a & b not in fund:
            return False, "fundamental family not closed under intersection"
    if union_closure_brute(fund) != family:
        return False, "fundamental subsets are not a basis"
    nonempty = sorted(m for m in fund if m)
    for v_fam in itertools.combinations(nonempty, 2):
        inter = v_fam[0] & v_fam[1]
        for w_fam in itertools.combinations(nonempty, 2):
            if inter & ~(w_fam[0] | w_fam[1]) == 0 and inter not in fund:
                return False, "birreducibility witness missing"
    return True, None


def is_pairwise_t0_brute(space):
    """Pairwise T0 over every ordered pair of distinct points: the first
    (x, y), x ascending then y, with y tau-above x and x sigma-above y."""
    for x in range(space.n):
        for y in range(space.n):
            if x != y and space.up_tau[x] >> y & 1 and space.up_sigma[y] >> x & 1:
                return False, (x, y)
    return True, None


def greedy_shrink_brute(mask, product_of, keeps):
    """Drop members of ``mask`` lowest index first while the rest stays
    nonempty and ``keeps(product_of(rest))``, recomputing the product of
    every candidate from scratch."""
    kept = mask
    for x in bits(mask):
        cand = kept & ~(1 << x)
        if cand and keeps(product_of(cand)):
            kept = cand
    return kept


def covering_witnesses_literal(lat, gbd=gbd_witness, delta=delta_compactness_check):
    """The covering-witness certification over all 60 samples in draw order,
    repeats included: per sample V, W, then x from one ``Random(7)``, with
    ``gbd`` and ``delta`` standing for the two covering functions.  Returns
    None or the first failure's witness text."""
    s = build_bitop_spectrum(lat)
    rng = random.Random(7)
    full = full_mask(lat.n)
    for _ in range(60):
        v = rng.randint(1, full)
        w = rng.randint(1, full)
        inter = full_mask(len(s.points))
        union_v = union_w = 0
        for x in bits(v):
            inter &= s.epsilon[x]
            union_v |= s.delta[x]
        for y in bits(w):
            union_w |= s.delta[y]
        res = gbd(s, v, w)
        if is_subset(inter, union_w) != (res.kind == "witness"):
            return f"branch mismatch for V={lat.set_label(v)} W={lat.set_label(w)}"
        if res.kind == "witness":
            if not (lat.leq(lat.meet_of(res.v1), res.z) and lat.leq(res.z, lat.join_of(res.w1))):
                return f"witness chain broken for V={lat.set_label(v)} W={lat.set_label(w)}"
            if res.v1 & ~v or res.w1 & ~w:
                return "witness subsets escape the inputs"
        else:
            k = s.index.get((res.pair.a, res.pair.b))
            if k is None or not (inter >> k & 1 and not union_w >> k & 1):
                return "separating pair is not a counterexample point"
        x = rng.randrange(lat.n)
        res2 = delta(s, x, v)
        if is_subset(s.delta[x], union_v) != (res2.kind == "witness"):
            return f"cover branch mismatch at x={lat.names[x]} V={lat.set_label(v)}"
        if res2.kind == "witness" and not lat.leq(x, lat.join_of(res2.v1)):
            return "cover witness join does not dominate"
        if res2.kind == "separating":
            k = s.index.get((res2.pair.a, res2.pair.b))
            if k is None or not (s.delta[x] >> k & 1 and not union_v >> k & 1):
                return "cover separating pair is not a counterexample point"
    return None


# ---------------------------------------------------------------------------
# constructions the library does not use itself, kept as test references


def identity_hom(lat):
    """The identity homomorphism of a lattice, validated by ``check_hom``."""
    return check_hom(lat, lat, range(lat.n))


def compose(f, g):
    """g after f (requires f.target == g.source), validated by ``check_hom``."""
    if f.target != g.source:
        raise ValueError("homomorphisms are not composable")
    return check_hom(f.source, g.target, (g.mapping[v] for v in f.mapping))


def identity_morphism(space):
    """The identity point map of a pairwise Balbes-Dwinger space, validated
    by ``pbd_morphism``: the identity of the category the spectrum functor
    lands in."""
    return pbd_morphism(space, space, range(space.n))


def compose_morphisms(f, g):
    """g after f for morphisms of pairwise Balbes-Dwinger spaces (requires
    f.target == g.source), validated by ``pbd_morphism``."""
    if f.target != g.source:
        raise ValueError("morphisms are not composable")
    return pbd_morphism(f.source, g.target, (g.mapping[v] for v in f.mapping))


def principal_ideal(lat, x):
    """The principal ideal of x, as a mask: every element below x."""
    return lat.down[x]


def principal_filter(lat, x):
    """The principal filter of x, as a mask: every element above x."""
    return lat.up[x]


def generated_ideal(lat, generators):
    """The least ideal containing a nonempty generator set, as a mask: the
    down-set of their join, since every ideal of a finite lattice is
    principal."""
    if generators == 0:
        raise EmptyGeneratorSet("ideal generation needs a nonempty set")
    return lat.down[lat.join_of(generators)]


def generated_filter(lat, generators):
    """The least filter containing a nonempty generator set, as a mask: the
    up-set of their meet."""
    if generators == 0:
        raise EmptyGeneratorSet("filter generation needs a nonempty set")
    return lat.up[lat.meet_of(generators)]


def pair_ideal(pair):
    """The ideal ``down[a]`` of a comaximal pair, as a mask."""
    return pair.lattice.down[pair.a]


def pair_filter(pair):
    """The filter ``up[b]`` of a comaximal pair, as a mask."""
    return pair.lattice.up[pair.b]


def is_compact_subset(top, a, cover):
    """A subset is compact when every open cover of it has a finite
    subcover.  Returns a greedy-minimal subcover of ``a`` from ``cover``,
    which on a finite carrier always exists; raises ``NotACover`` when a
    member is not open or the family does not cover ``a``."""
    cover = list(cover)
    union = 0
    for u in cover:
        if not is_increasing(top, u):
            raise NotACover(f"cover member {u:#x} is not open")
        union |= u
    if a & ~union:
        raise NotACover("the family does not cover the target set")
    chosen = []
    remaining = a
    while remaining:
        best = max(range(len(cover)), key=lambda k: ((cover[k] & remaining).bit_count(), -k))
        chosen.append(cover[best])
        remaining &= ~cover[best]
    return chosen


def _pairwise_bd_or_raise(space):
    report = is_pairwise_bd(space)
    if not report.passed:
        raise NotPairwiseBD(f"axiom ({report.failing_axiom}) fails: {report.witness}")


def is_doubly_bd(space):
    """A doubly Balbes-Dwinger space is a pairwise Balbes-Dwinger space whose
    two topologies coincide."""
    _pairwise_bd_or_raise(space)
    return space.tau == space.sigma


def is_bounded_pbd(space):
    """A bounded pairwise Balbes-Dwinger space has a tau-compact carrier and
    a sigma-fundamental empty set.  The compactness clause is evaluated by
    extracting a finite subcover of the principal opens ``up_tau`` (any open
    cover would do).  The empty-set clause holds on every finite carrier
    (:func:`fip_scan_oracle`)."""
    _pairwise_bd_or_raise(space)
    subcover = is_compact_subset(space.tau, full_mask(space.n), space.up_tau)
    return isinstance(subcover, list)


# ---------------------------------------------------------------------------
# DOT syntax


def _split_statements(body):
    """Split a DOT body on ';' outside quoted strings."""
    out = []
    current = []
    in_string = False
    i = 0
    while i < len(body):
        ch = body[i]
        if in_string:
            if ch == "\\" and i + 1 < len(body):
                current.append(body[i : i + 2])
                i += 2
                continue
            if ch == '"':
                in_string = False
            current.append(ch)
        elif ch == '"':
            in_string = True
            current.append(ch)
        elif ch == ";":
            out.append("".join(current))
            current = []
        else:
            current.append(ch)
        i += 1
    if in_string:
        raise ValueError("unterminated string")
    out.append("".join(current))
    return out


def _strip_strings(stmt):
    out = []
    in_string = False
    i = 0
    while i < len(stmt):
        ch = stmt[i]
        if in_string:
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        else:
            out.append(ch)
        i += 1
    if in_string:
        raise ValueError(f"unbalanced quotes in statement {stmt!r}")
    return "".join(out)


def validate_dot(text):
    """Minimal syntactic check of a DOT digraph document."""
    stripped = text.strip()
    if not stripped.startswith("digraph"):
        raise ValueError("missing digraph header")
    if not stripped.endswith("}"):
        raise ValueError("missing closing brace")
    body = stripped[stripped.index("{") + 1 : stripped.rindex("}")]
    for stmt in _split_statements(body):
        stmt = stmt.strip()
        if not stmt:
            continue
        bare = _strip_strings(stmt)
        if "{" in bare or "}" in bare:
            raise ValueError(f"unexpected brace in statement {stmt!r}")
        if "[" in bare or "]" in bare:
            if bare.count("[") != 1 or bare.count("]") != 1 or bare.index("[") > bare.index("]"):
                raise ValueError(f"malformed attribute list in {stmt!r}")
