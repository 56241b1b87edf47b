"""Classical and bitopological spectra of finite lattices.

The points of the bitopological spectrum are the comaximal pairs: disjoint
(ideal, filter) pairs each maximal with respect to disjointness from the
other.  In a finite lattice every ideal is ``down[a]`` and every filter is
``up[b]``, so a point is the element pair ``(a, b)`` of the formal context
(J, M, <=) of Ganter and Wille.  The maps ``delta`` and ``epsilon`` send a
lattice element ``x`` to the points with ``x`` not below ``a``,
respectively with ``b`` below ``x``.  The topologies are Urquhart's two
orders on the pairs (see :class:`BitopSpectrum`).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

from .bitsets import BitMask, bits, full_mask, is_subset, transpose
from .errors import EmptyInput, NotDisjoint
from .lattices import FiniteLattice, prime_ideals
from .topology import (
    BitopSpace,
    FiniteTopology,
    bitop_space,
    equal_closure_points,
    topology_from_subbasis,
)


def _is_comaximal(lat: FiniteLattice, a: int, b: int) -> bool:
    """Whether ``(down[a], up[b])`` is a comaximal pair: ``b`` is not below
    ``a``, ``a`` is maximal outside ``up[b]`` and ``b`` minimal outside
    ``down[a]``."""
    up, down = lat.up, lat.down
    return (
        not up[b] >> a & 1
        and is_subset(up[a] & ~(1 << a), up[b])
        and is_subset(down[b] & ~(1 << b), down[a])
    )


def comaximal_pairs(lat: FiniteLattice) -> tuple[tuple[int, int], ...]:
    """All comaximal pairs ``(a, b)``, in lexicographic (ideal mask, filter mask) order."""
    down, up = lat.down, lat.up
    found = sorted(
        (down[a], up[b], a, b)
        for a in range(lat.n)
        for b in range(lat.n)
        if _is_comaximal(lat, a, b)
    )
    return tuple((a, b) for _, _, a, b in found)


def extend_to_comaximal(lat: FiniteLattice, a: int, b: int) -> tuple[int, int]:
    """Grow the disjoint pair ``(down[a], up[b])`` to a comaximal pair:
    :func:`gbd_witness` grows (join W, meet V) into the point separating
    inter(epsilon over V) from union(delta over W).

    The ideal grows first: the lowest-index element whose join with ``a``
    stays outside ``up[b]`` is joined in, and the search restarts; then the
    filter shrinks ``b`` the same way against the grown ``a``.  Any maximal
    extension would do; the lowest-index rule makes the result reproducible.
    An element rejected once stays rejected as ``a`` grows (its join with
    the larger ``a`` is still above ``b``), and dually as ``b`` shrinks, so
    a restart would only re-reject the lower indices: one ascending pass per
    side gives the same pair.
    """
    if lat.leq(b, a):
        raise NotDisjoint("ideal and filter overlap")
    join, meet = lat.join_table, lat.meet_table
    for x in range(lat.n):
        if not lat.leq(b, join[a][x]):
            a = join[a][x]
    for x in range(lat.n):
        if not lat.leq(meet[b][x], a):
            b = meet[b][x]
    return a, b


# ---------------------------------------------------------------------------
# the two spectra


class BitopSpectrum:
    """The comaximal pairs of a lattice with their two topologies.

    ``points[k]`` is the element pair ``(a, b)`` of a point; :meth:`label`
    prints it and :meth:`number` finds it from its masks.  ``delta[x]`` /
    ``epsilon[x]`` are point masks.  A point's tau (sigma) up-set is the
    points whose ``a`` (``b``) lies below its own, which is the topology the
    image of delta (epsilon) generates: ``suites.check_specialization_orders``
    generates both.  ``suites.check_spectrum_map_laws`` checks that each
    epsilon[x] lies inside delta[x].
    """

    lattice: FiniteLattice
    points: tuple[tuple[int, int], ...]
    delta: tuple[BitMask, ...]
    epsilon: tuple[BitMask, ...]
    space: BitopSpace

    def __init__(self, lattice, points, delta, epsilon, space) -> None:
        self._key = (lattice, points, delta, epsilon, space)
        self.lattice, self.points, self.delta, self.epsilon, self.space = self._key

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return "BitopSpectrum(lattice={!r}, points={!r}, delta={!r}, epsilon={!r}, space={!r})".format(*self._key)

    @cached_property
    def index(self) -> dict[tuple[int, int], int]:
        """The number of the point ``(a, b)``, keyed by the element pair."""
        return {p: k for k, p in enumerate(self.points)}

    def number(self, ideal: BitMask, filt: BitMask) -> int | None:
        """The number of the point with ideal mask ``ideal`` and filter mask
        ``filt``, or None when that pair is no point: a point ``(a, b)`` has
        the masks ``down[a]`` and ``up[b]``, so only (join, meet) can match."""
        lat = self.lattice
        a, b = lat.join_of(ideal), lat.meet_of(filt)
        if lat.down[a] != ideal or lat.up[b] != filt:
            return None
        return self.index.get((a, b))

    def label(self, k: int) -> str:
        """Point k as ``({ideal};{filter})``, both member sets."""
        lat = self.lattice
        a, b = self.points[k]
        return f"({lat.set_label(lat.down[a])};{lat.set_label(lat.up[b])})"


@lru_cache(maxsize=None)
def build_bitop_spectrum(lat: FiniteLattice) -> BitopSpectrum:
    points = comaximal_pairs(lat)
    full, up, down = full_mask(lat.n), lat.up, lat.down
    # delta[x] / epsilon[x] / below_a[x]: the points (a, b) with x not below a / b below x / a below x
    delta = tuple(transpose([full & ~down[a] for a, _ in points], lat.n))
    epsilon = tuple(transpose([up[b] for _, b in points], lat.n))
    below_a = transpose([up[a] for a, _ in points], lat.n)
    tau = FiniteTopology(tuple(below_a[a] for a, _ in points))
    sigma = FiniteTopology(tuple(epsilon[b] for _, b in points))
    return BitopSpectrum(lat, points, delta, epsilon, bitop_space(tau, sigma))


class ClassicalSpectrum(NamedTuple):
    """Prime ideals with the Zariski topology generated by the d-map image.

    ``points`` holds the prime ideals' member masks in ascending order (as
    :func:`lattices.prime_ideals` lists them); ``lattice.set_label`` names a
    point.  The image of ``dmap`` is closed under intersections: a prime
    ideal misses meet(x, y) exactly when it misses both x and y, so
    ``dmap[x] & dmap[y]`` is ``dmap[meet(x, y)]``
    (``tests/oracles.py::image_intersection_closed``).
    """

    lattice: FiniteLattice
    points: tuple[BitMask, ...]
    dmap: tuple[BitMask, ...]
    space: FiniteTopology


@lru_cache(maxsize=None)
def build_classical_spectrum(lat: FiniteLattice) -> ClassicalSpectrum:
    points = tuple(prime_ideals(lat))
    # dmap[x]: the prime ideals not containing x
    dmap = transpose([full_mask(lat.n) & ~p for p in points], lat.n)
    space = topology_from_subbasis(len(points), dmap)
    return ClassicalSpectrum(lat, points, tuple(dmap), space)


def b_map(lat: FiniteLattice) -> tuple[int, ...]:
    """The prime-ideal embedding P -> (P, complement) into the comaximal
    pairs: entry k numbers the image of ``build_classical_spectrum(lat)``'s
    point k among the bitopological points.  The ``classical_stone`` suite
    and the ``classical_bridge`` corpus check hold it to be a homeomorphism
    onto (points, tau) on distributive lattices."""
    bitop = build_bitop_spectrum(lat)
    full = full_mask(lat.n)
    return tuple(bitop.number(p, full & ~p) for p in build_classical_spectrum(lat).points)


# ---------------------------------------------------------------------------
# covering witnesses


def gbd_witness(spectrum: BitopSpectrum, v_mask: BitMask, w_mask: BitMask) -> tuple[int, int] | None:
    """None when inter(epsilon over V) lies inside union(delta over W), else
    a point in the one and outside the other.

    By the covering reduction the containment holds iff meet(V) <= join(W);
    on a finite lattice V and W are their own finite subfamilies, so nothing
    is left to certify on that branch
    (``tests/oracles.py::finite_subfamily_witness``).  Otherwise the point
    is the comaximal pair grown from (join W, meet V): its filter contains V
    and its ideal W.
    delta-compactness is the case V = {x}: delta(x) lies inside
    union(delta over W) iff x <= join(W).  ``suites.check_covering_witnesses``
    holds the branch and the point against the spectrum masks.
    """
    if v_mask == 0 or w_mask == 0:
        raise EmptyInput("both generator sets must be nonempty")
    lat = spectrum.lattice
    meet_v = lat.meet_of(v_mask)
    join_w = lat.join_of(w_mask)
    if lat.leq(meet_v, join_w):
        return None
    return extend_to_comaximal(lat, join_w, meet_v)


# ---------------------------------------------------------------------------
# prime points and bound extraction


def prime_points(spectrum: BitopSpectrum) -> tuple[int, ...]:
    """Points whose closures in the two topologies coincide.

    Equal closures force the point's ideal to be prime with the filter as its
    complement (``down[a]`` and ``up[b]`` cover the carrier);
    ``suites.check_prime_point_closures`` checks that direction on every
    point returned here.  The converse is false in general (the pentagon has
    a point of the form (P, complement) with a prime P whose closures
    differ), so only the sound direction is asserted.  All points are prime
    exactly for distributive lattices; that biconditional lives in the same
    suite.
    """
    return tuple(bits(equal_closure_points(spectrum.space)))


def top_via_compactness(lat: FiniteLattice) -> int:
    """Reduce the full delta-cover of the spectrum greedily and return the
    join of the chosen elements: the top."""
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
    return lat.join_of(sum(1 << x for x in chosen))


def bottom_via_fundamental(lat: FiniteLattice) -> int:
    """Exhibit finitely many elements whose epsilon-sets have empty
    intersection and return their meet, which is the bottom.  The empty set
    being sigma-fundamental, which it always is on a finite carrier,
    guarantees such a finite family exists."""
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
    return lat.meet_of(sum(1 << x for x in chosen))

