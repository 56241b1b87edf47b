"""Finite topological and bitopological spaces.

On a finite carrier a topology is the same thing as its specialization
preorder (Alexandrov): the opens are exactly the up-closed sets, and every
point x has a least open neighbourhood up[x].  A topology is stored as those
up-masks alone; continuity is monotonicity, comparing topologies compares
preorders, and the opens are counted (:func:`count_opens`), not listed.
The fundamental family and T0 test of a topology are those of the doubled
space carrying it twice.  The specialization orientation used throughout is

    x <= y  iff  every open containing x contains y  iff  x in cl({y}),

so open sets are increasing for their own specialization preorder.  The
transition operators ``i`` and ``d`` are defined pointwise:

    i(A) = {x : some a in A has a <=_tau x}      (tau up-closure)
    d(A) = {x : every y with x <=_sigma y is in A}

which makes (i, d) an adjoint pair between sigma-increasing and
tau-increasing subsets.  Both are unions of neighbourhoods: i(A) is the
union of up_tau over A, and d(A) is the complement of the union of the
sigma down-sets over the complement of A.  Each topology keeps chunk tables
for those unions (``FiniteTopology.up_chunks``/``down_chunks``), so either
operator costs one lookup per 8-point block; ``tests/oracles.py`` keeps the
per-point loops they replace.  A subbasis generates its topology with such a
table too, once ``bitsets.transpose`` lists the sets around each point.
The operators read only ``tau.up_chunks`` and ``sigma.down_chunks``.  The
stability, co-stability and openness tests are definitions in
``tests/oracles.py``: on a spectrum the transition identities that the
``transition_operators`` suite checks settle them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

from .bitsets import BitMask, bits, full_mask, image_mask, is_subset, transpose
from .errors import CarrierTooLarge

# most memo entries count_opens keeps before refusing
_COUNT_MEMO_BOUND = 1 << 17


class FiniteTopology:
    """A topology on {0..n-1}, stored as its specialization preorder.

    ``up[x]`` is the least open neighbourhood of x, which is the
    specialization up-set {y : x <= y}; the carrier has ``len(up)`` points.
    A plain record: :func:`topology_from_subbasis` builds the least
    neighbourhoods as intersections of subbasis sets, which always form a
    preorder (each point lies in its own neighbourhood, and a point's
    neighbourhood contains the neighbourhoods of its members);
    ``tests/oracles.py::is_preorder`` is that check.
    """

    up: tuple[BitMask, ...]

    def __init__(self, up: tuple[BitMask, ...]) -> None:
        self.up = up

    def __eq__(self, other):
        return self.up == other.up if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.up,))

    def __repr__(self) -> str:
        return f"FiniteTopology(up={self.up!r})"

    @property
    def n(self) -> int:
        return len(self.up)

    @cached_property
    def down(self) -> tuple[BitMask, ...]:
        """``down[y]`` is the specialization down-set {x : x <= y}, the
        closure of y."""
        # not bitsets.transpose: these rows are sparse; on M100's tau (980,100
        # bits in 9900 x 9900, Python 3.11) this loop takes 0.6 s, it 3.1 s
        down = [0] * self.n
        for x, ux in enumerate(self.up):
            for y in bits(ux):
                down[y] |= 1 << x
        return tuple(down)

    @cached_property
    def up_chunks(self) -> tuple[list[BitMask], ...]:
        """Up-closure tables: per block of 8 points, the union of ``up`` over
        each subset of the block (see :func:`_chunk_unions`)."""
        return _chunk_unions(self.up)

    @cached_property
    def down_chunks(self) -> tuple[list[BitMask], ...]:
        """Down-closure tables, as ``up_chunks`` for ``down``."""
        return _chunk_unions(self.down)


def _chunk_unions(masks) -> tuple[list[BitMask], ...]:
    """For each block of 8 consecutive indices, the union of ``masks`` over
    each subset of the block, indexed by the subset's 8-bit pattern.  The
    union over any index set is then one lookup per block."""
    tables = []
    for base in range(0, len(masks), 8):
        table = [0]
        for m in masks[base : base + 8]:
            table += [t | m for t in table]
        tables.append(table)
    return tuple(tables)


def count_opens(top: FiniteTopology) -> int:
    """The number of opens: the up-sets of the specialization preorder.

    An up-set of a carrier S with lowest point x holds x, and so ``up[x]``,
    or misses ``down[x]``, and is an up-set of the rest; so #U(S) =
    #U(S - up[x]) + #U(S - down[x]) and #U(empty) = 1, memoised over masks on
    an explicit stack (a chain splits once per point).  Counting is
    #P-complete in general, so past ``_COUNT_MEMO_BOUND`` memo entries it
    raises :class:`CarrierTooLarge`.
    """
    memo = {0: 1}
    stack = [full_mask(top.n)]
    while stack:
        s = stack.pop()
        if s not in memo:
            x = (s & -s).bit_length() - 1
            a, b = s & ~top.up[x], s & ~top.down[x]
            if a in memo and b in memo:
                memo[s] = memo[a] + memo[b]
                if len(memo) > _COUNT_MEMO_BOUND:
                    raise CarrierTooLarge(f"counting opens stops at {_COUNT_MEMO_BOUND} memo entries")
            else:
                stack += [s, a, b]
    return memo[full_mask(top.n)]


def topology_from_subbasis(n: int, family) -> FiniteTopology:
    """Smallest topology containing the family.

    Every open containing x contains a finite intersection of subbasis sets
    around x, so the least neighbourhood of x is the intersection of all
    subbasis sets containing x (the carrier when there are none): the
    complement of the union of their complements, which the row of x in the
    transposed family indexes.  An empty family yields the indiscrete
    topology.
    """
    full = full_mask(n)
    family = list(family)
    if any(s & ~full for s in family):
        raise ValueError("subbasis set outside the carrier")
    tables = _chunk_unions([full & ~s for s in family])
    return FiniteTopology(tuple(full & ~_union_of(tables, m) for m in transpose(family, n)))


def is_continuous(mapping, source: FiniteTopology, target: FiniteTopology) -> bool:
    """Whether the point map ``mapping`` is continuous.

    On finite carriers that is monotonicity for the specialization
    preorders: each least neighbourhood lands inside the least neighbourhood
    of the image point.
    """
    return all(
        is_subset(image_mask(mapping, u), target.up[mapping[x]]) for x, u in enumerate(source.up)
    )


def is_homeomorphism(mapping, source: FiniteTopology, target: FiniteTopology) -> bool:
    """Whether ``mapping`` is a bijection carrying each least neighbourhood
    onto the least neighbourhood of the image point, which on finite carriers
    is exactly a homeomorphism."""
    return (
        len(set(mapping)) == source.n == target.n
        and all(image_mask(mapping, u) == target.up[mapping[x]] for x, u in enumerate(source.up))
    )


class BitopSpace(NamedTuple):
    """A carrier with two topologies; :func:`bitop_space` builds it from two
    topologies on the same points."""

    tau: FiniteTopology
    sigma: FiniteTopology

    @property
    def n(self) -> int:
        return self.tau.n

    @property
    def up_tau(self) -> tuple[BitMask, ...]:
        return self.tau.up

    @property
    def up_sigma(self) -> tuple[BitMask, ...]:
        return self.sigma.up


def bitop_space(tau: FiniteTopology, sigma: FiniteTopology) -> BitopSpace:
    if tau.n != sigma.n:
        raise ValueError("both topologies must share the carrier")
    return BitopSpace(tau, sigma)


def doubled_space(top: FiniteTopology) -> BitopSpace:
    """The bitopological space carrying the same topology twice."""
    return bitop_space(top, top)


# ---------------------------------------------------------------------------
# transition operators


def _union_of(tables, a: BitMask) -> BitMask:
    """The union of the masks indexed by ``a``, one lookup per 8-point block
    of ``a`` in chunk tables built by :func:`_chunk_unions`."""
    out = 0
    for table, byte in zip(tables, a.to_bytes(len(tables), "little")):
        if byte:
            out |= table[byte]
    return out


def op_i(space: BitopSpace, a: BitMask) -> BitMask:
    """tau up-closure: points above some member of ``a``."""
    return _union_of(space.tau.up_chunks, a)


def op_d(space: BitopSpace, a: BitMask) -> BitMask:
    """Largest sigma-increasing subset of ``a``: the points none of whose
    sigma successors lies outside ``a``, that is the complement of the sigma
    down-closure of the complement."""
    full = full_mask(space.n)
    return full & ~_union_of(space.sigma.down_chunks, full & ~a)


# ---------------------------------------------------------------------------
# separation, compactness, fundamental and essential subsets


def pairwise_t0_witness(space: BitopSpace) -> tuple[int, int] | None:
    """Kelly pairwise T0: distinct points are separated by a tau-open around
    the first or a sigma-open around the second.

    Equivalently the two specialization preorders form a pairwise ordered
    set: x <=_tau y and y <=_sigma x force x == y.  Per point x the points y
    breaking that are ``up_tau[x]`` intersected with the sigma closure of x
    (the y with x in ``up_sigma[y]``, that is ``sigma.down[x]``), minus x
    itself.  The witness is the lowest such y of the lowest such x, as the
    pair (x, y), or None when there is none.
    """
    closure_sigma = space.sigma.down
    for x, u in enumerate(space.up_tau):
        bad = u & closure_sigma[x] & ~(1 << x)
        if bad:
            return x, next(bits(bad))
    return None


def equal_closure_points(space: BitopSpace) -> BitMask:
    """Points whose tau and sigma closures coincide.

    The closure of x is {q : x in up[q]}, so x qualifies exactly when bit x
    agrees between up_tau[q] and up_sigma[q] for every q.
    """
    differ = 0
    for u, v in zip(space.up_tau, space.up_sigma):
        differ |= u ^ v
    return full_mask(space.n) & ~differ


def fundamental_subsets(top: FiniteTopology) -> frozenset[BitMask]:
    """Nonempty compact-open subsets, plus the empty set when it qualifies:
    when every family of compact-opens with the finite intersection property
    has a nonempty total intersection.

    On a finite carrier the nonempty compact-opens are all nonempty opens,
    and the empty set always qualifies: a family with the finite intersection
    property is one of its own finite subfamilies, so its total intersection
    is nonempty (``tests/oracles.py::fip_scan_oracle`` evaluates the clause
    literally).  So the fundamental family is the whole open family: the
    essential family of the doubled space, where i fixes every open.
    :func:`count_opens` sizes it.
    """
    return essential_subsets(doubled_space(top))


@lru_cache(maxsize=None)
def essential_subsets(space: BitopSpace) -> frozenset[BitMask]:
    """Essential subsets: tau-compact stable sets with sigma-open d-image,
    plus the empty set when it is sigma-fundamental, which on a finite
    carrier it always is.

    For a sigma-increasing U and a tau-increasing A, i(U) <= A iff U <= A
    iff U <= d(A).  Hence i(d(i(U))) = i(U): every i(U) is stable, and its
    d-image is sigma-open because d(A) is sigma-increasing by definition.
    Conversely a stable A is i(d(A)).  Tau-compactness is automatic on a
    finite carrier, so the essential family is exactly {i(U) : U sigma-open}.
    Since i preserves unions and every sigma-open is a union of the least
    neighbourhoods ``up_sigma[x]``, that family is the empty set plus the
    union closure of the generators i(up_sigma[x]), with i applied once per
    distinct neighbourhood (M100's 9900 points have 100), enumerated here in
    O(|E| * points) mask operations without enumerating a single open
    family.  ``tests/oracles.py`` holds the brute-force search over all
    subsets and the literal loop over every sigma-open (with its d-image and
    stability filters) that the tests compare against.
    """
    found = {0}
    for g in {op_i(space, u) for u in set(space.up_sigma)}:
        found |= {g | a for a in found}
    return frozenset(found)


# ---------------------------------------------------------------------------
# Balbes-Dwinger style axiom checkers

_AXIOM_FAILS = "axiom ({}) fails: {}"


@lru_cache(maxsize=None)
def pairwise_bd_witness(space: BitopSpace) -> str | None:
    """The first failing pairwise Balbes-Dwinger axiom as witness text,
    ``axiom (...) fails: ...``, or None.

    Only axioms (i)-(iii) are evaluated, because (iv) and (v) hold on every
    finite bitopological space.  The essential family is the image of i on
    the sigma-opens (:func:`essential_subsets`), so it is closed under union,
    and the meet i(d(a & b)) is itself an image of i: axiom (iv) holds.
    Axiom (v), d-birreducibility, is trivially reducible on a finite carrier
    (any subfamily is its own finite reduction); its stronger witness form
    asks that whenever the d-images of a subfamily V sit inside the union
    U_W of a subfamily W, the essential-lattice meet i(d(inter V)) sits
    inside U_W as well.  d preserves intersections, so that meet is
    i(inter_d) with inter_d the intersection of the d-images, and U_W is a
    union of essential sets, hence tau-increasing: inter_d <= U_W gives
    i(inter_d) <= U_W.  ``tests/oracles.py::pairwise_bd_axioms_iv_v_brute``
    evaluates the literal (iv) clauses and the (v) witness form over
    subfamilies of up to two members, and the tests check that it never
    fails.

    Of axiom (iii) only the basis half is evaluated.  For essential A, B and
    C = A & B, d(A) & d(B) = d(C) = d(i(d(C))), since i(d(C)) <= C and d(C)
    is a sigma-increasing subset of i(d(C)); i(d(C)) is essential, so the
    d-images are closed under intersection on every finite space
    (``tests/oracles.py::d_family_closure_witness``).  They also cover the
    carrier: the carrier is i of the sigma-open carrier, hence essential,
    and d fixes it (``tests/oracles.py::d_family_cover_witness``).

    The witness is computed once per space, so the suite and the bridge
    functions that each need it share one evaluation.
    """
    pair = pairwise_t0_witness(space)
    if pair is not None:
        return _AXIOM_FAILS.format("i", f"points {pair[0]} and {pair[1]} are not separated")

    ess = essential_subsets(space)
    generated = topology_from_subbasis(space.n, ess)
    if generated != space.tau:
        diff = [x for x in range(space.n) if generated.up[x] != space.up_tau[x]]
        return _AXIOM_FAILS.format("ii", f"essential sets do not generate tau (neighbourhoods differ at points {diff})")

    d_family = {op_d(space, a) for a in ess}
    # the family is intersection-closed and covers the carrier (see the
    # docstring), so it is a basis of sigma exactly when it generates sigma
    if topology_from_subbasis(space.n, d_family) != space.sigma:
        return _AXIOM_FAILS.format("iii", "d-images of essential sets are not a basis for sigma")
    return None


def bd_space_witness(top: FiniteTopology) -> str | None:
    """The reason a single topology is not Balbes-Dwinger, or None.

    The definition asks for T0, coherence (the fundamental subsets are an
    intersection-closed basis) and birreducibility of the fundamental family
    in its finite witness form.  On a finite carrier the fundamental family is
    the whole open family (:func:`fundamental_subsets`), which is closed under
    intersection and union, so coherence and every birreducibility witness
    hold and only T0 can fail: pairwise T0 of the doubled space, with the
    lowest point sharing its neighbourhood, then the lowest point it shares
    it with.  ``tests/oracles.py::bd_space_brute`` evaluates every clause.
    """
    pair = pairwise_t0_witness(doubled_space(top))
    return None if pair is None else f"not T0: points {pair[0]} and {pair[1]}"
