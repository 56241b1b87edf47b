"""Classical and bitopological spectra of finite lattices.

The points of the bitopological spectrum are the comaximal pairs: disjoint
(ideal, filter) pairs each maximal with respect to disjointness from the
other.  The maps ``delta`` and ``epsilon`` send a lattice element to the
points whose ideal misses it, respectively whose filter contains it; their
images generate the two topologies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .bitsets import BitMask, bits, full_mask, image_mask, is_subset
from .errors import EmptyInput, NotDisjoint
from .lattices import (
    Filter,
    FiniteLattice,
    Ideal,
    PrimeIdeal,
    _filter_closure,
    _ideal_closure,
    is_prime_ideal,
    prime_ideals,
)
from .topology import (
    BitopSpace,
    FiniteTopology,
    bitop_space,
    equal_closure_points,
    essential_subsets,
    is_homeomorphism,
    topology_from_subbasis,
)


@dataclass(frozen=True)
class ComaximalPair:
    """A disjoint (ideal, filter) pair, each maximal against the other.

    Maximality says every ideal strictly containing the ideal meets the
    filter, and dually.  In a finite lattice every ideal is principal, so it
    suffices that each one-element extension of the ideal, whose generated
    ideal is ``down[join(a, x)]`` with ``a`` the join of the ideal, meets the
    filter, and dually; that is what the constructor verifies.
    """

    ideal: Ideal
    filter: Filter

    def __post_init__(self) -> None:
        if self.ideal.lattice != self.filter.lattice:
            raise ValueError("ideal and filter live in different lattices")
        lat = self.ideal.lattice
        if not _is_comaximal(lat, self.ideal.members, self.filter.members):
            raise ValueError(
                f"({self.ideal.label()},{self.filter.label()}) is not a comaximal pair"
            )

    def label(self) -> str:
        return f"({self.ideal.label()};{self.filter.label()})"


def _is_comaximal(lat: FiniteLattice, i_mask: BitMask, f_mask: BitMask) -> bool:
    """Whether a nonempty disjoint pair of masks is comaximal.

    With ``a`` the join of the ideal side and ``b`` the meet of the filter
    side, the ideal generated by adding ``x`` is ``down[join(a, x)]`` and the
    filter generated by adding ``x`` is ``up[meet(b, x)]``, so each of the
    O(n) one-element extensions is tested in O(1).
    """
    if i_mask == 0 or f_mask == 0 or i_mask & f_mask:
        return False
    a = lat.join_of(i_mask)
    b = lat.meet_of(f_mask)
    down, up, join, meet = lat.down, lat.up, lat.join_table[a], lat.meet_table[b]
    for x in range(lat.n):
        if not i_mask >> x & 1 and down[join[x]] & f_mask == 0:
            return False
        if not f_mask >> x & 1 and up[meet[x]] & i_mask == 0:
            return False
    return True


@lru_cache(maxsize=None)
def comaximal_pairs(lat: FiniteLattice) -> tuple[ComaximalPair, ...]:
    """All comaximal pairs, in lexicographic (ideal mask, filter mask) order."""
    found = []
    for i_mask in sorted(set(lat.down)):
        for f_mask in sorted(set(lat.up)):
            if _is_comaximal(lat, i_mask, f_mask):
                found.append(ComaximalPair(Ideal(lat, i_mask), Filter(lat, f_mask)))
    return tuple(found)


def extend_to_comaximal(lat: FiniteLattice, ideal: Ideal, filt: Filter) -> ComaximalPair:
    """Grow a disjoint ideal/filter pair to a comaximal pair.

    The ideal grows first, adding the lowest-index element whose generated
    ideal stays disjoint from the filter and restarting, then the filter
    grows the same way against the enlarged ideal.  Any maximal extension
    would do; the lowest-index rule makes the result reproducible.  The
    generated ideal of the ideal plus ``x`` is ``down[join(a, x)]`` for the
    running join ``a`` (dually for the filter), so each candidate is O(1).
    """
    if ideal.members & filt.members:
        raise NotDisjoint("ideal and filter overlap")
    n = lat.n
    j, a = ideal.members, lat.join_of(ideal.members)
    grown = True
    while grown:
        grown = False
        for x in range(n):
            if not j >> x & 1:
                cand = lat.down[lat.join_table[a][x]]
                if cand & filt.members == 0:
                    j, a = cand, lat.join_table[a][x]
                    grown = True
                    break
    k, b = filt.members, lat.meet_of(filt.members)
    grown = True
    while grown:
        grown = False
        for x in range(n):
            if not k >> x & 1:
                cand = lat.up[lat.meet_table[b][x]]
                if cand & j == 0:
                    k, b = cand, lat.meet_table[b][x]
                    grown = True
                    break
    return ComaximalPair(Ideal(lat, j), Filter(lat, k))


# ---------------------------------------------------------------------------
# the two spectra


@dataclass(frozen=True)
class BitopSpectrum:
    """The comaximal pairs of a lattice with the two generated topologies.

    ``delta[x]`` / ``epsilon[x]`` are point masks; tau is generated by the
    image of delta as a subbasis and sigma by the image of epsilon as a
    basis (the epsilon image is closed under intersections already).
    """

    lattice: FiniteLattice
    points: tuple[ComaximalPair, ...]
    delta: tuple[BitMask, ...]
    epsilon: tuple[BitMask, ...]
    space: BitopSpace

    def point_index(self, i_mask: BitMask, f_mask: BitMask) -> int:
        for k, p in enumerate(self.points):
            if p.ideal.members == i_mask and p.filter.members == f_mask:
                return k
        raise KeyError("no such point")

    def point_label(self, k: int) -> str:
        return self.points[k].label()


@lru_cache(maxsize=None)
def build_bitop_spectrum(lat: FiniteLattice) -> BitopSpectrum:
    points = comaximal_pairs(lat)
    delta = []
    epsilon = []
    for x in range(lat.n):
        d = 0
        e = 0
        for k, p in enumerate(points):
            if not p.ideal.members >> x & 1:
                d |= 1 << k
            if p.filter.members >> x & 1:
                e |= 1 << k
        delta.append(d)
        epsilon.append(e)
    for x in range(lat.n):
        if epsilon[x] & ~delta[x]:
            raise RuntimeError("epsilon is not contained in delta")
    m = len(points)
    tau = topology_from_subbasis(m, delta)
    sigma = topology_from_subbasis(m, epsilon)
    return BitopSpectrum(lat, points, tuple(delta), tuple(epsilon), bitop_space(tau, sigma))


@dataclass(frozen=True)
class ClassicalSpectrum:
    """Prime ideals with the Zariski topology generated by the d-map image.

    For points that are prime ideals the image is automatically closed under
    intersections; the flag records the literal check so a failure would be
    reported rather than silently repaired.
    """

    lattice: FiniteLattice
    points: tuple[PrimeIdeal, ...]
    dmap: tuple[BitMask, ...]
    space: FiniteTopology
    image_intersection_closed: bool


@lru_cache(maxsize=None)
def build_classical_spectrum(lat: FiniteLattice) -> ClassicalSpectrum:
    points = tuple(prime_ideals(lat))
    dmap = []
    for x in range(lat.n):
        m = 0
        for k, p in enumerate(points):
            if not p.members >> x & 1:
                m |= 1 << k
        dmap.append(m)
    image = set(dmap)
    closed = all(a & b in image for a, b in itertools.combinations(image, 2))
    space = topology_from_subbasis(len(points), dmap)
    return ClassicalSpectrum(lat, points, tuple(dmap), space, closed)


@dataclass(frozen=True)
class BMapReport:
    """The prime-ideal embedding P -> (P, complement) into the comaximal pairs."""

    point_map: tuple[int, ...]
    injective: bool
    bijective: bool
    homeomorphism: bool | None  # onto (points, tau); only evaluated when bijective


def b_map(lat: FiniteLattice) -> BMapReport:
    classical = build_classical_spectrum(lat)
    bitop = build_bitop_spectrum(lat)
    full = full_mask(lat.n)
    point_map = tuple(
        bitop.point_index(p.members, full & ~p.members) for p in classical.points
    )
    injective = len(set(point_map)) == len(point_map)
    bijective = injective and len(point_map) == len(bitop.points)
    homeo = None
    if bijective:
        homeo = is_homeomorphism(point_map, classical.space, bitop.space.tau) and all(
            image_mask(point_map, classical.dmap[x]) == bitop.delta[x]
            for x in range(lat.n)
        )
    return BMapReport(point_map, injective, bijective, homeo)


# ---------------------------------------------------------------------------
# covering witnesses


@dataclass(frozen=True)
class GBDResult:
    """Outcome of the generalized covering reduction.

    Either a witness element z with meet(V1) <= z <= join(W1) certifying the
    containment of the epsilon-intersection in the delta-union, or a
    comaximal pair whose filter contains V and whose ideal contains W,
    certifying non-containment.
    """

    kind: str  # "witness" | "separating"
    z: int | None = None
    v1: BitMask | None = None
    w1: BitMask | None = None
    pair: ComaximalPair | None = None


def _greedy_shrink(mask: BitMask, keeps) -> BitMask:
    """Drop elements (lowest index first) while the predicate stays true."""
    for x in bits(mask):
        cand = mask & ~(1 << x)
        if cand and keeps(cand):
            mask = cand
    return mask


def gbd_witness(lat: FiniteLattice, v_mask: BitMask, w_mask: BitMask) -> GBDResult:
    """Decide the containment of inter(epsilon over V) in union(delta over W)
    and return a certificate for whichever branch holds."""
    if v_mask == 0 or w_mask == 0:
        raise EmptyInput("both generator sets must be nonempty")
    spectrum = build_bitop_spectrum(lat)
    inter = full_mask(len(spectrum.points))
    for x in bits(v_mask):
        inter &= spectrum.epsilon[x]
    union = 0
    for y in bits(w_mask):
        union |= spectrum.delta[y]
    contained = is_subset(inter, union)

    meet_v = lat.meet_of(v_mask)
    join_w = lat.join_of(w_mask)
    if lat.leq(meet_v, join_w):
        interval = lat.up[meet_v] & lat.down[join_w]
        z = next(bits(interval))
        v1 = _greedy_shrink(v_mask, lambda m: lat.leq(lat.meet_of(m), z))
        w1 = _greedy_shrink(w_mask, lambda m: lat.leq(z, lat.join_of(m)))
        if not contained:
            raise RuntimeError("witness chain found but containment fails")
        return GBDResult("witness", z=z, v1=v1, w1=w1)
    pair = extend_to_comaximal(
        lat, Ideal(lat, _ideal_closure(lat, w_mask)), Filter(lat, _filter_closure(lat, v_mask))
    )
    if contained:
        raise RuntimeError("separating pair found but containment holds")
    if not (is_subset(w_mask, pair.ideal.members) and is_subset(v_mask, pair.filter.members)):
        raise RuntimeError("separating pair does not absorb the generators")
    return GBDResult("separating", pair=pair)


@dataclass(frozen=True)
class DeltaCompactnessResult:
    kind: str  # "witness" | "separating"
    v1: BitMask | None = None
    pair: ComaximalPair | None = None


def delta_compactness_check(lat: FiniteLattice, x: int, v_mask: BitMask) -> DeltaCompactnessResult:
    """Reduce a delta-cover of delta(x) to a finite witness V1 with x below
    join(V1), or produce a comaximal pair inside delta(x) missing the cover."""
    if v_mask == 0:
        raise EmptyInput("the covering set must be nonempty")
    spectrum = build_bitop_spectrum(lat)
    union = 0
    for y in bits(v_mask):
        union |= spectrum.delta[y]
    contained = is_subset(spectrum.delta[x], union)
    if lat.leq(x, lat.join_of(v_mask)):
        v1 = _greedy_shrink(v_mask, lambda m: lat.leq(x, lat.join_of(m)))
        if not contained:
            raise RuntimeError("join witness found but the cover fails")
        return DeltaCompactnessResult("witness", v1=v1)
    pair = extend_to_comaximal(
        lat, Ideal(lat, _ideal_closure(lat, v_mask)), Filter(lat, lat.up[x])
    )
    if contained:
        raise RuntimeError("separating pair found but the cover holds")
    k = 1 << spectrum.point_index(pair.ideal.members, pair.filter.members)
    if not (spectrum.delta[x] & k and not union & k):
        raise RuntimeError("separating pair is not a counterexample point")
    return DeltaCompactnessResult("separating", pair=pair)


# ---------------------------------------------------------------------------
# prime points and bound extraction


def prime_points(spectrum: BitopSpectrum) -> tuple[int, ...]:
    """Points whose closures in the two topologies coincide.

    Equal closures force the point's ideal to be prime with the filter as its
    complement; that direction is re-verified here.  The converse is false in
    general (the pentagon has a point of the form (P, complement) with a
    prime P whose closures differ), so only the sound direction is asserted.
    All points are prime exactly for distributive lattices; that biconditional
    lives in the verification suites.
    """
    lat = spectrum.lattice
    full = full_mask(lat.n)
    out = tuple(bits(equal_closure_points(spectrum.space)))
    for k in out:
        p = spectrum.points[k]
        if not is_prime_ideal(lat, p.ideal.members):
            raise RuntimeError("closure-prime point with a non-prime ideal")
        if p.filter.members != full & ~p.ideal.members:
            raise RuntimeError("closure-prime point whose filter is not the complement")
    return out


def has_top_via_compactness(lat: FiniteLattice) -> tuple[bool, int]:
    """Reduce the full delta-cover of the spectrum greedily and read the top
    off the join of the chosen elements.  Returns (agreement, witness)."""
    spectrum = build_bitop_spectrum(lat)
    remaining = full_mask(len(spectrum.points))
    chosen: list[int] = []
    while remaining:
        best = max(
            range(lat.n),
            key=lambda x: ((spectrum.delta[x] & remaining).bit_count(), -x),
        )
        chosen.append(best)
        remaining &= ~spectrum.delta[best]
    witness = lat.join_of(sum(1 << x for x in chosen))
    return witness == lat.top, witness


def has_bottom_via_fundamental(lat: FiniteLattice) -> tuple[bool, int]:
    """Exhibit finitely many elements whose epsilon-sets have empty
    intersection; their meet is the bottom.  The empty set being
    sigma-fundamental, which it always is on a finite carrier, guarantees
    such a finite family exists."""
    spectrum = build_bitop_spectrum(lat)
    remaining = full_mask(len(spectrum.points))
    chosen: list[int] = []
    while remaining:
        best = min(
            range(lat.n),
            key=lambda x: ((spectrum.epsilon[x] & remaining).bit_count(), x),
        )
        chosen.append(best)
        remaining &= spectrum.epsilon[best]
    witness = lat.meet_of(sum(1 << x for x in chosen))
    return witness == lat.bottom, witness


@dataclass(frozen=True)
class EssentialDeltaReport:
    passed: bool
    size: int
    essential_only: frozenset[BitMask]
    delta_only: frozenset[BitMask]


def essential_equals_delta(lat: FiniteLattice) -> EssentialDeltaReport:
    """Compare the essential subsets of the spectrum with the delta image."""
    spectrum = build_bitop_spectrum(lat)
    ess = essential_subsets(spectrum.space).members
    image = frozenset(spectrum.delta)
    return EssentialDeltaReport(
        ess == image and len(image) == lat.n,
        len(ess),
        ess - image,
        image - ess,
    )


__all__ = [
    "BMapReport",
    "BitopSpectrum",
    "ClassicalSpectrum",
    "ComaximalPair",
    "DeltaCompactnessResult",
    "EssentialDeltaReport",
    "GBDResult",
    "b_map",
    "build_bitop_spectrum",
    "build_classical_spectrum",
    "comaximal_pairs",
    "delta_compactness_check",
    "essential_equals_delta",
    "extend_to_comaximal",
    "gbd_witness",
    "has_bottom_via_fundamental",
    "has_top_via_compactness",
    "prime_points",
]
