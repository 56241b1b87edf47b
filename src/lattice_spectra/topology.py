"""Finite topological and bitopological spaces.

Topologies are stored extensionally as the full family of open sets (bit
masks over the carrier), which keeps family-equality checks exact.  The
specialization orientation used throughout is

    x <= y  iff  every open containing x contains y  iff  x in cl({y}),

so open sets are increasing for their own specialization preorder.  The
transition operators ``i`` and ``d`` are defined pointwise:

    i(A) = {x : some a in A has a <=_tau x}      (tau up-closure)
    d(A) = {x : every y with x <=_sigma y is in A}

which makes (i, d) an adjoint pair between sigma-increasing and
tau-increasing subsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .bitsets import BitMask, bits, full_mask, is_subset
from .errors import CarrierTooLarge, NotACover, NotIncreasing, NotPairwiseBD

_EXTENSIONAL_CARRIER_BOUND = 20
_OPEN_FAMILY_BOUND = 1 << 17
# largest subfamily size checked by the witness form of pairwise-BD axiom (v)
_SUBFAMILY_BOUND = 2


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free family of subsets of a fixed carrier."""

    n: int
    members: frozenset[BitMask]

    def __post_init__(self) -> None:
        full = full_mask(self.n)
        if any(m & ~full for m in self.members):
            raise ValueError("family member outside the carrier")


@dataclass(frozen=True)
class FiniteTopology:
    """A family of opens closed under union and intersection, with 0 and X.

    ``min_nbhd[x]`` caches the least open neighbourhood of each point; on a
    finite carrier it equals the specialization up-set of x.
    """

    n: int
    opens: frozenset[BitMask]
    min_nbhd: tuple[BitMask, ...]

    def __post_init__(self) -> None:
        full = full_mask(self.n)
        if 0 not in self.opens or full not in self.opens:
            raise ValueError("a topology contains the empty set and the carrier")
        for a in self.opens:
            if a & ~full:
                raise ValueError("open set outside the carrier")
        for a, b in itertools.combinations(self.opens, 2):
            if a | b not in self.opens or a & b not in self.opens:
                raise ValueError("family is not closed under union/intersection")
        for x in range(self.n):
            if self.min_nbhd[x] not in self.opens:
                raise ValueError("minimal neighbourhood is not open")

    def family(self) -> SetFamily:
        return SetFamily(self.n, self.opens)


def _min_neighbourhoods(n: int, opens) -> tuple[BitMask, ...]:
    out = []
    for x in range(n):
        acc = full_mask(n)
        for u in opens:
            if u >> x & 1:
                acc &= u
        out.append(acc)
    return tuple(out)


def topology_from_family(n: int, family) -> FiniteTopology:
    """Wrap an already-closed family as a topology (validates closure)."""
    opens = frozenset(family) | {0, full_mask(n)}
    return FiniteTopology(n, opens, _min_neighbourhoods(n, opens))


def topology_from_subbasis(n: int, family) -> FiniteTopology:
    """Smallest topology containing the family.

    Finite intersections of the subbasis (including the empty intersection,
    the carrier) form a basis; arbitrary unions of the basis give the opens.
    An empty family yields the indiscrete topology.
    """
    if n > _EXTENSIONAL_CARRIER_BOUND:
        raise CarrierTooLarge(f"extensional topologies stop at {_EXTENSIONAL_CARRIER_BOUND} points")
    full = full_mask(n)
    basis = {full}
    for s in family:
        if s & ~full:
            raise ValueError("subbasis set outside the carrier")
        basis |= {s & b for b in basis}
    opens = {0}
    for b in sorted(basis):
        opens |= {b | o for o in opens}
        if len(opens) > _OPEN_FAMILY_BOUND:
            raise CarrierTooLarge("generated topology grew past the supported size")
    opens = frozenset(opens)
    return FiniteTopology(n, opens, _min_neighbourhoods(n, opens))


def specialization(top: FiniteTopology) -> tuple[BitMask, ...]:
    """Specialization preorder as up-masks: up[x] = {y : x <= y}.

    With the orientation fixed here that is exactly the least open
    neighbourhood of x.
    """
    return top.min_nbhd


@dataclass(frozen=True)
class BitopSpace:
    """A carrier with two topologies and their cached specialization preorders."""

    n: int
    tau: FiniteTopology
    sigma: FiniteTopology
    up_tau: tuple[BitMask, ...]
    up_sigma: tuple[BitMask, ...]

    def __post_init__(self) -> None:
        if self.tau.n != self.n or self.sigma.n != self.n:
            raise ValueError("topologies live on a different carrier")
        if self.up_tau != specialization(self.tau) or self.up_sigma != specialization(self.sigma):
            raise ValueError("cached preorders disagree with the topologies")

    @cached_property
    def pairwise_bd_report(self) -> PairwiseBDReport:
        """The pairwise Balbes-Dwinger report, computed once per space."""
        return _pairwise_bd_report(self)


def bitop_space(tau: FiniteTopology, sigma: FiniteTopology) -> BitopSpace:
    if tau.n != sigma.n:
        raise ValueError("both topologies must share the carrier")
    return BitopSpace(tau.n, tau, sigma, specialization(tau), specialization(sigma))


def doubled_space(top: FiniteTopology) -> BitopSpace:
    """The bitopological space carrying the same topology twice."""
    return bitop_space(top, top)


# ---------------------------------------------------------------------------
# transition operators


def op_i(space: BitopSpace, a: BitMask) -> BitMask:
    """tau up-closure: points above some member of ``a``."""
    out = 0
    for x in bits(a):
        out |= space.up_tau[x]
    return out


def op_d(space: BitopSpace, a: BitMask) -> BitMask:
    """Largest sigma-increasing subset of ``a``."""
    out = 0
    for x in range(space.n):
        if is_subset(space.up_sigma[x], a):
            out |= 1 << x
    return out


def is_increasing(up_masks, a: BitMask) -> bool:
    return all(is_subset(up_masks[x], a) for x in bits(a))


def increasing_sets(up_masks, n: int) -> list[BitMask]:
    """All increasing subsets for a preorder given as up-masks (n <= 20)."""
    if n > _EXTENSIONAL_CARRIER_BOUND:
        raise CarrierTooLarge("increasing-set enumeration stops at 20 points")
    return [m for m in range(1 << n) if is_increasing(up_masks, m)]


def is_stable(space: BitopSpace, a: BitMask) -> bool:
    """Whether a tau-increasing set is fixed by i after d."""
    if not is_increasing(space.up_tau, a):
        raise NotIncreasing("stability is only defined for tau-increasing sets")
    return op_i(space, op_d(space, a)) == a


def is_costable(space: BitopSpace, b: BitMask) -> bool:
    """Whether a sigma-increasing set is fixed by d after i."""
    if not is_increasing(space.up_sigma, b):
        raise NotIncreasing("co-stability is only defined for sigma-increasing sets")
    return op_d(space, op_i(space, b)) == b


# ---------------------------------------------------------------------------
# separation, compactness, fundamental and essential subsets


def is_pairwise_t0(space: BitopSpace) -> tuple[bool, tuple[int, int] | None]:
    """Kelly pairwise T0: distinct points are separated by a tau-open around
    the first or a sigma-open around the second.

    Equivalently the two specialization preorders form a pairwise ordered
    set: x <=_tau y and y <=_sigma x force x == y.
    """
    for x in range(space.n):
        for y in range(space.n):
            if x == y:
                continue
            if space.up_tau[x] >> y & 1 and space.up_sigma[y] >> x & 1:
                return False, (x, y)
    return True, None


def equal_closure_points(space: BitopSpace) -> BitMask:
    """Points whose tau and sigma closures coincide.

    The closure of x is {q : x in up[q]}, so x qualifies exactly when bit x
    agrees between up_tau[q] and up_sigma[q] for every q.
    """
    differ = 0
    for q in range(space.n):
        differ |= space.up_tau[q] ^ space.up_sigma[q]
    return full_mask(space.n) & ~differ


def is_compact_subset(top: FiniteTopology, a: BitMask, cover) -> list[BitMask]:
    """Greedy-minimal finite subcover of ``a``; always succeeds on a finite
    carrier.  Raises :class:`NotACover` when the precondition fails."""
    cover = list(cover)
    union = 0
    for u in cover:
        if u not in top.opens:
            raise NotACover(f"cover member {u:#x} is not open")
        union |= u
    if a & ~union:
        raise NotACover("the family does not cover the target set")
    chosen: list[BitMask] = []
    remaining = a
    while remaining:
        best = max(range(len(cover)), key=lambda k: ((cover[k] & remaining).bit_count(), -k))
        chosen.append(cover[best])
        remaining &= ~cover[best]
    return chosen


def empty_set_is_fundamental(top: FiniteTopology) -> bool:
    """Whether the empty set counts as fundamental: every collection of
    compact-open subsets with the finite intersection property must have a
    nonempty total intersection.

    Always true on a finite carrier: a family with the finite intersection
    property is one of its own finite subfamilies, so its total intersection
    is nonempty.  ``tests/test_topology.py`` evaluates the definition
    literally against this constant.
    """
    return True


def fundamental_subsets(top: FiniteTopology) -> SetFamily:
    """Nonempty compact-open subsets, plus the empty set when it qualifies.

    On a finite carrier the nonempty compact-opens are all nonempty opens and
    the empty set always qualifies (:func:`empty_set_is_fundamental`), so the
    fundamental family is the whole open family.
    """
    return top.family()


@lru_cache(maxsize=None)
def essential_subsets(space: BitopSpace) -> SetFamily:
    """Essential subsets: tau-compact stable sets with sigma-open d-image,
    plus the empty set when it is sigma-fundamental, which on a finite
    carrier it always is.

    Every stable set with sigma-open d-image is i of a sigma-open, so the
    candidates are exactly {i(U) : U sigma-open}; tau-compactness is
    automatic on a finite carrier.  ``tests/oracles.py`` holds the brute-force
    search over all tau-increasing subsets that the tests compare against.
    """
    found = {0}
    for u in space.sigma.opens:
        a = op_i(space, u)
        da = op_d(space, a)
        if da in space.sigma.opens and op_i(space, da) == a:
            found.add(a)
    return SetFamily(space.n, frozenset(found))


# ---------------------------------------------------------------------------
# Balbes-Dwinger style axiom checkers


@dataclass(frozen=True)
class PairwiseBDReport:
    passed: bool
    failing_axiom: str | None = None
    witness: str | None = None
    essentials: SetFamily | None = None


def _union_closure(members) -> frozenset[BitMask]:
    out = {0}
    for m in sorted(members):
        out |= {m | o for o in out}
    return frozenset(out)


def is_pairwise_bd(space: BitopSpace) -> PairwiseBDReport:
    """Check the five pairwise Balbes-Dwinger axioms in order and report the
    first failure with a witness.

    Axiom (v), d-birreducibility, is trivially reducible on a finite carrier
    (any subfamily is its own finite reduction), so the check verifies the
    stronger witness form: whenever the d-images of a subfamily V sit inside
    the union of a subfamily W, the essential-lattice meet i(d(inter V)) must
    also sit inside that union.  Subfamily sizes run up to two
    (``_SUBFAMILY_BOUND``).

    The report is computed once per space and kept on it
    (``BitopSpace.pairwise_bd_report``), so the suites and bridge functions
    that each need it share one evaluation.
    """
    return space.pairwise_bd_report


def _pairwise_bd_report(space: BitopSpace) -> PairwiseBDReport:
    ess = essential_subsets(space)

    ok, pair = is_pairwise_t0(space)
    if not ok:
        return PairwiseBDReport(False, "i", f"points {pair[0]} and {pair[1]} are not separated", ess)

    generated = topology_from_subbasis(space.n, ess.members)
    if generated.opens != space.tau.opens:
        diff = generated.opens ^ space.tau.opens
        return PairwiseBDReport(False, "ii", f"essential sets do not generate tau (difference {sorted(diff)})", ess)

    d_family = {op_d(space, a) for a in ess.members}
    for a, b in itertools.combinations(sorted(d_family), 2):
        if a & b not in d_family:
            return PairwiseBDReport(False, "iii", f"d-image family not closed under intersection: {a:#x} & {b:#x}", ess)
    if _union_closure(d_family) != space.sigma.opens:
        return PairwiseBDReport(False, "iii", "d-images of essential sets are not a basis for sigma", ess)

    members = sorted(ess.members)
    for a, b in itertools.combinations_with_replacement(members, 2):
        if a | b not in ess.members:
            return PairwiseBDReport(False, "iv", f"union {a:#x} | {b:#x} is not essential", ess)
        if op_i(space, op_d(space, a & b)) not in ess.members:
            return PairwiseBDReport(False, "iv", f"meet i(d({a:#x} & {b:#x})) is not essential", ess)

    full = full_mask(space.n)
    nonempty = [m for m in members if m != 0]
    subfamilies = [
        fam
        for k in range(1, _SUBFAMILY_BOUND + 1)
        for fam in itertools.combinations(nonempty, k)
    ]
    unions = [(w_fam, _union(w_fam)) for w_fam in subfamilies]
    for v_fam in subfamilies:
        inter_d = full
        inter_a = full
        for a in v_fam:
            inter_d &= op_d(space, a)
            inter_a &= a
        meet_v = op_i(space, op_d(space, inter_a))
        for w_fam, union_w in unions:
            if is_subset(inter_d, union_w) and not is_subset(meet_v, union_w):
                return PairwiseBDReport(
                    False,
                    "v",
                    f"no reduction witness for V={list(v_fam)} W={list(w_fam)}",
                    ess,
                )
    return PairwiseBDReport(True, essentials=ess)


def _union(family) -> BitMask:
    out = 0
    for m in family:
        out |= m
    return out


@dataclass(frozen=True)
class BDSpaceReport:
    passed: bool
    reason: str | None = None


def is_t0(top: FiniteTopology) -> tuple[bool, tuple[int, int] | None]:
    for x in range(top.n):
        for y in range(x + 1, top.n):
            if top.min_nbhd[x] >> y & 1 and top.min_nbhd[y] >> x & 1:
                return False, (x, y)
    return True, None


def is_bd_space(top: FiniteTopology) -> BDSpaceReport:
    """Balbes-Dwinger verdict for a single topology: T0, coherence (the
    fundamental subsets are an intersection-closed basis) and birreducibility
    of the fundamental family in its finite witness form."""
    ok, pair = is_t0(top)
    if not ok:
        return BDSpaceReport(False, f"not T0: points {pair[0]} and {pair[1]}")
    fund = fundamental_subsets(top).members
    for a, b in itertools.combinations(sorted(fund), 2):
        if a & b not in fund:
            return BDSpaceReport(False, "fundamental family not closed under intersection")
    if _union_closure(fund) != top.opens:
        return BDSpaceReport(False, "fundamental subsets are not a basis")
    nonempty = sorted(m for m in fund if m)
    for v_fam in itertools.combinations(nonempty, 2):
        inter = v_fam[0] & v_fam[1]
        for w_fam in itertools.combinations(nonempty, 2):
            if is_subset(inter, w_fam[0] | w_fam[1]) and inter not in fund:
                return BDSpaceReport(False, "birreducibility witness missing")
    return BDSpaceReport(True)


def is_doubly_bd(space: BitopSpace) -> bool:
    """Pairwise Balbes-Dwinger with coinciding topologies."""
    report = is_pairwise_bd(space)
    if not report.passed:
        raise NotPairwiseBD(f"axiom ({report.failing_axiom}) fails: {report.witness}")
    return space.tau.opens == space.sigma.opens


def is_bounded_pbd(space: BitopSpace) -> bool:
    """Bounded pairwise Balbes-Dwinger: tau-compact carrier and a
    sigma-fundamental empty set.  Both clauses always hold at finite scale:
    the compactness clause is evaluated by extracting a finite subcover, the
    empty-set clause is the constant :func:`empty_set_is_fundamental`."""
    report = is_pairwise_bd(space)
    if not report.passed:
        raise NotPairwiseBD(f"axiom ({report.failing_axiom}) fails: {report.witness}")
    subcover = is_compact_subset(space.tau, full_mask(space.n), sorted(space.tau.opens))
    return isinstance(subcover, list) and empty_set_is_fundamental(space.sigma)
