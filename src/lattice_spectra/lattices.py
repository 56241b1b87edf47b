"""Finite lattices and their homomorphisms.

Carriers are index based (0..n-1) with a name table; carrier subsets are bit
masks (see :mod:`lattice_spectra.bitsets`), and so are ideals, filters and
prime ideals.  A lattice is a plain record: :func:`lattice_from_order`
validates the order it is handed and computes the tables from it, and the
``lattice_axioms`` suite checks the tables and the declared bounds.  A
homomorphism is a plain record validated by :func:`check_hom`.  The
operations here are pure functions.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import NamedTuple

from .bitsets import BitMask, bits, full_mask, mask_of, preimage_mask, transpose
from .errors import (
    CyclicCovers,
    MissingMapping,
    NotAHom,
    NotALattice,
)


class FiniteLattice:
    """A finite (hence bounded) lattice given by its order and operation tables.

    ``up[i]`` is the bit mask of elements above ``i`` (inclusive).  A plain
    record: :func:`lattice_from_order` is its one builder, and the meet and
    join tables it computes hold the greatest lower / least upper bounds by
    construction; ``suites.check_lattice_axioms`` checks the tables and the
    declared ``bottom`` and ``top`` of any instance.
    """

    names: tuple[str, ...]
    up: tuple[BitMask, ...]
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    bottom: int
    top: int
    name: str  # a label only: equality and hashing read the tables

    def __init__(self, names, up, meet_table, join_table, bottom, top, name="") -> None:
        self._key = (names, up, meet_table, join_table, bottom, top)
        self.names, self.up, self.meet_table, self.join_table, self.bottom, self.top = self._key
        self.name = name
        self._hash = hash(self._key)  # every lru_cache keys on lattices: hash the tables once

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def down(self) -> tuple[BitMask, ...]:
        """``down[i]`` is the mask of elements below ``i`` (inclusive)."""
        return tuple(transpose(self.up, self.n))

    def leq(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    def meet(self, x: int, y: int) -> int:
        return self.meet_table[x][y]

    def join(self, x: int, y: int) -> int:
        return self.join_table[x][y]

    def meet_of(self, mask: BitMask) -> int:
        """Meet of a subset; the empty meet is the top element."""
        out = self.top
        for x in bits(mask):
            out = self.meet_table[out][x]
        return out

    def join_of(self, mask: BitMask) -> int:
        """Join of a subset; the empty join is the bottom element."""
        out = self.bottom
        for x in bits(mask):
            out = self.join_table[out][x]
        return out

    def index(self, name: str) -> int:
        return self.names.index(name)

    @cached_property
    def distributive(self) -> bool:
        """Distributivity from the order alone: every join-irreducible j (its
        strict down-set joins to less than j; the empty join is the bottom) is
        join-prime, i.e. the elements not above j form an ideal.  Conversely
        x |-> {j <= x} then embeds the lattice into the down-sets of its
        join-irreducibles (Birkhoff's representation)."""
        down, full = self.down, full_mask(self.n)
        return all(
            self.join_of(down[j] & ~(1 << j)) == j
            or (rest := full & ~self.up[j]) == down[self.join_of(rest)]
            for j in range(self.n)
        )

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse diagram edges as (lower, upper) pairs."""
        out = []
        for x in range(self.n):
            strict_up = self.up[x] & ~(1 << x)
            for y in bits(strict_up):
                between = strict_up & self.down[y] & ~(1 << y)
                if between == 0:
                    out.append((x, y))
        return tuple(out)

    def set_label(self, mask: BitMask) -> str:
        return "{" + ",".join(self.names[i] for i in bits(mask)) + "}"

    def __repr__(self) -> str:  # keep reprs short; tables are noise
        tag = self.name or ",".join(self.names)
        return f"<FiniteLattice {tag} n={self.n}>"


def lattice_from_order(names, up, name: str = "") -> FiniteLattice:
    """Build a lattice from an explicit order relation, computing the tables.

    The order is validated first, in one pass over each up-set: the carrier
    is nonempty with unique names, ``up`` has one mask per element, inside
    the carrier, and the relation is reflexive, antisymmetric and
    transitive (``ValueError`` names the first failure).  The lower bounds
    ``down[i] & down[j]`` have a greatest member m exactly when they equal
    ``down[m]``, so each meet (dually each join) is one lookup.  Raises
    :class:`NotALattice` for the first pair, meets before joins, that has
    no greatest lower or least upper bound.
    """
    names = tuple(names)
    up = tuple(up)
    n = len(names)
    if n < 1:
        raise ValueError("a lattice needs at least one element")
    if len(set(names)) != n:
        raise ValueError("element names must be unique")
    if len(up) != n:
        raise ValueError("table sizes disagree with the carrier")
    full = full_mask(n)
    for i, u in enumerate(up):
        if u & ~full:
            raise ValueError("order relation mentions elements outside the carrier")
        if not u >> i & 1:
            raise ValueError("order relation is not reflexive")
    for i, u in enumerate(up):
        for j in bits(u):
            if i != j and up[j] >> i & 1:
                raise ValueError("order relation is not antisymmetric")
            if up[j] & ~u:
                raise ValueError("order relation is not transitive")
    down = transpose(up, n)
    tables = []
    for masks, which in ((down, "glb"), (up, "lub")):
        principal = {m: i for i, m in enumerate(masks)}
        rows = tuple(tuple(principal.get(mi & mj) for mj in masks) for mi in masks)
        for i, row in enumerate(rows):
            if None in row:
                raise NotALattice(names[i], names[row.index(None)], which)
        tables.append(rows)
    meet, join = tables
    return FiniteLattice(names, up, meet, join, up.index(full), down.index(full), name=name)


def build_lattice(names, cover_pairs, name: str = "") -> FiniteLattice:
    """Build a lattice from element names and a cover relation.

    ``cover_pairs`` is an iterable of (lower, upper) element names.  The order
    is the reflexive-transitive closure of the covers; a cycle raises
    :class:`CyclicCovers` and a missing bound raises :class:`NotALattice`.
    """
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
    # Warshall: after step k, up[i] holds every j reached through 0..k
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    for i in range(n):
        for j in bits(up[i]):
            if i != j and up[j] >> i & 1:
                raise CyclicCovers(f"cycle through {names[i]!r} and {names[j]!r}")
    return lattice_from_order(names, up, name=name)


def product_lattice(a: FiniteLattice, b: FiniteLattice, name: str = "") -> FiniteLattice:
    """Direct product with componentwise order; names are joined with '|'."""
    names = tuple(f"{x}|{y}" for x in a.names for y in b.names)
    nb = b.n
    up = []
    for i in range(a.n):
        for j in range(b.n):
            m = 0
            for k in bits(a.up[i]):
                for l in bits(b.up[j]):
                    m |= 1 << (k * nb + l)
            up.append(m)
    return lattice_from_order(names, up, name=name or f"{a.name}x{b.name}")


# ---------------------------------------------------------------------------
# ideals and filters


def all_ideals(lat: FiniteLattice) -> list[BitMask]:
    """Every ideal of the lattice as a member mask, sorted.

    In a finite lattice each ideal contains the join of its members, so every
    ideal is principal and this list has exactly one entry per element.
    """
    return sorted(lat.down)


def all_filters(lat: FiniteLattice) -> list[BitMask]:
    """Every filter as a member mask, sorted: the principal up-sets."""
    return sorted(lat.up)


def is_prime_ideal(lat: FiniteLattice, members: BitMask) -> bool:
    """Whether ``members`` is a nonempty proper ideal whose complement is a
    filter.  Every ideal and filter of a finite lattice is principal, so the
    mask is an ideal exactly when it is the down-set of its join, and the
    complement is a filter exactly when it is the up-set of its meet."""
    full = full_mask(lat.n)
    rest = full & ~members
    if members == 0 or rest == 0 or members & ~full:
        return False
    return members == lat.down[lat.join_of(members)] and rest == lat.up[lat.meet_of(rest)]


def prime_ideals(lat: FiniteLattice) -> list[BitMask]:
    """The member masks of all ideals whose complement is a filter, sorted;
    the classical spectrum as a set.  Every ideal is some ``down[x]``, so
    only those masks are tested."""
    return [m for m in sorted(lat.down) if is_prime_ideal(lat, m)]


# ---------------------------------------------------------------------------
# distributivity


class SublatticeWitness(NamedTuple):
    kind: str  # "m5" (diamond with three atoms) or "n5" (pentagon)
    elements: tuple[int, ...]


def violating_triple(lat: FiniteLattice) -> tuple[int, int, int] | None:
    """The first triple (x, y, z), in index order, with
    ``x meet (y join z) != (x meet y) join (x meet z)``, or None: the
    lattice is distributive (``lat.distributive``)."""
    n = lat.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = lat.meet_table[x][lat.join_table[y][z]]
                rhs = lat.join_table[lat.meet_table[x][y]][lat.meet_table[x][z]]
                if lhs != rhs:
                    return (x, y, z)
    return None


def forbidden_sublattice(lat: FiniteLattice) -> SublatticeWitness | None:
    """The lexicographically least copy of the diamond m5 or the pentagon n5,
    or None: the lattice is distributive.

    A copy is fixed by its three middle elements x, y, z: its bottom is their
    meet and its top their join.  So the scan runs over 3-subsets (O(n^3))
    and keeps the five-element sets that are closed under meet and join and
    whose middles have at most one comparable pair (none for m5, one for n5).
    Pairs involving the bottom or top are closed automatically, so only the
    pairs of middles are checked.
    """
    meet, join = lat.meet_table, lat.join_table
    best = None
    for x, y, z in itertools.combinations(range(lat.n), 3):
        combo = (meet[meet[x][y]][z], x, y, z, join[join[x][y]][z])
        cm = mask_of(combo)
        if cm.bit_count() != 5:
            continue
        comparable = 0
        for u, v in ((x, y), (x, z), (y, z)):
            m = meet[u][v]
            if not (cm >> m & 1 and cm >> join[u][v] & 1):
                break
            comparable += m == u or m == v
        else:
            if comparable <= 1:
                combo = tuple(sorted(combo))
                if best is None or combo < best.elements:
                    best = SublatticeWitness("n5" if comparable else "m5", combo)
    return best


# ---------------------------------------------------------------------------
# homomorphisms


class LatticeHom(NamedTuple):
    """A total map between lattice carriers preserving meet and join.

    A plain record: :func:`check_hom` is the one validator, and it is what
    parses and tests call on a raw map.  ``all_homs`` builds records for the
    maps its search has already checked, and the corpus checks validate the
    essential functor's output with :func:`check_hom`.
    """

    source: FiniteLattice
    target: FiniteLattice
    mapping: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def preimage(self, target_mask: BitMask) -> BitMask:
        return preimage_mask(self.mapping, target_mask)

    def label(self) -> str:
        return " ".join(
            f"{self.source.names[i]}->{self.target.names[v]}"
            for i, v in enumerate(self.mapping)
        )


def check_hom(source: FiniteLattice, target: FiniteLattice, mapping) -> LatticeHom:
    """Validate a raw element map as a lattice homomorphism: it covers the
    source carrier, lands in the target carrier and preserves every meet and
    join (:class:`NotAHom` names the first failing pair)."""
    f = tuple(mapping)
    if len(f) != source.n:
        raise MissingMapping("mapping must cover every source element")
    if any(not 0 <= v < target.n for v in f):
        raise ValueError("mapping hits elements outside the target carrier")
    for x in range(source.n):
        for y in range(source.n):
            if f[source.meet_table[x][y]] != target.meet_table[f[x]][f[y]]:
                raise NotAHom(source.names[x], source.names[y], "meet")
            if f[source.join_table[x][y]] != target.join_table[f[x]][f[y]]:
                raise NotAHom(source.names[x], source.names[y], "join")
    return LatticeHom(source, target, f)


def all_homs(source: FiniteLattice, target: FiniteLattice) -> list[LatticeHom]:
    """Every homomorphism source -> target, in lexicographic map order.

    Partial maps grow in element order, trying the target elements in
    ascending order, and each meet and join is checked as soon as both
    arguments and their meet or join are mapped, so a failing partial map is
    never extended.  Guarded so it is only used on small corpora;
    ``tests/oracles.py::all_homs_brute`` is the unpruned search.
    """
    if source.n > 6:
        raise ValueError("hom enumeration is limited to sources with <= 6 elements")
    # ready[k]: the checks (x, y, x op y, target op table) decided once k is mapped
    ready = [[] for _ in range(source.n)]
    for op, t_op in ((source.meet_table, target.meet_table), (source.join_table, target.join_table)):
        for x, y in itertools.combinations_with_replacement(range(source.n), 2):
            ready[max(y, op[x][y])].append((x, y, op[x][y], t_op))
    maps = [()]
    for checks in ready:
        maps = [
            g
            for f in maps
            for g in (f + (v,) for v in range(target.n))
            if all(t[g[x]][g[y]] == g[z] for x, y, z, t in checks)
        ]
    return [LatticeHom(source, target, f) for f in maps]
