"""The functorial layer: homomorphism classification, the classical and
bitopological spectrum functors and the essential-set functor on morphisms,
the reconstruction isomorphisms, and the bridge between the bitopological
and the classical pictures.

The functions here compute and return what they compute: point maps,
lattices, spectra.  A theorem about it is checked once, by the suite or
corpus check in :mod:`lattice_spectra.suites` that reports it (and by the
``hom`` command for one homomorphism); a check with two printers is one
function returning its witness text or None (:func:`spec_b_witness`,
:func:`delta_natural_iso_check`).  The categories at desk scale are
concrete and finite, so functor laws and naturality squares are checked by
direct evaluation rather than symbolically.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress
from operator import and_
from typing import NamedTuple

from .bitsets import BitMask, full_mask, preimage_mask, transpose
from .errors import NotBDSpace, NotDoublyBD, NotPairwiseBD
from .lattices import (
    FiniteLattice,
    LatticeHom,
    check_hom,
    lattice_from_order,
)
from .spectra import build_bitop_spectrum, build_classical_spectrum
from .topology import (
    BitopSpace,
    FiniteTopology,
    bd_space_witness,
    doubled_space,
    essential_subsets,
    is_continuous,
    op_d,
    op_i,
    pairwise_bd_witness,
)


# ---------------------------------------------------------------------------
# homomorphism classification


def _pull_back(hom: LatticeHom) -> tuple[tuple[int, ...] | None, int | None]:
    """The preimage map on comaximal pairs, as (point map, None), or
    (None, the number of the first target point whose preimage pair is not
    comaximal).  The preimage of an ideal (filter) is empty or an ideal
    (filter), so the source spectrum's ``number`` decides each pair."""
    tgt = hom.target
    number = build_bitop_spectrum(hom.source).number
    mapping = []
    for k, (a, b) in enumerate(build_bitop_spectrum(tgt).points):
        j = number(hom.preimage(tgt.down[a]), hom.preimage(tgt.up[b]))
        if j is None:
            return None, k
        mapping.append(j)
    return tuple(mapping), None


def _classical_pull_back(hom: LatticeHom) -> tuple[tuple[int, ...] | None, BitMask | None]:
    """The preimage map on prime ideals, as (point map, None), or (None, the
    first target prime ideal whose preimage is not a source point).

    ``prime_ideals`` lists every mask that ``is_prime_ideal`` accepts, so a
    preimage is a source point exactly when it is a prime ideal
    (``tests/oracles.py::classical_point_map_brute`` tests each one).
    """
    index = {p: k for k, p in enumerate(build_classical_spectrum(hom.source).points)}
    mapping = []
    for p in build_classical_spectrum(hom.target).points:
        k = index.get(hom.preimage(p))
        if k is None:
            return None, p
        mapping.append(k)
    return tuple(mapping), None


def proper_witness(hom: LatticeHom) -> str | None:
    """The first prime ideal of the target whose preimage is not a prime
    ideal, as witness text, or None: f is proper (vacuously so when the
    target has no prime ideal).  It reads the pull-back that
    :func:`spec_on_hom` returns."""
    _, failing = _classical_pull_back(hom)
    return None if failing is None else f"preimage of {hom.target.set_label(failing)} is not a prime ideal"


def spec_on_hom(hom: LatticeHom) -> tuple[int, ...] | None:
    """The classical spectrum functor on a proper homomorphism f: L -> N,
    sending a prime ideal of N to its preimage; contravariant.  Entry k
    numbers the preimage of ``build_classical_spectrum(N).points[k]`` among
    ``build_classical_spectrum(L).points``.  None when f is not proper
    (:func:`proper_witness` names the prime ideal)."""
    return _classical_pull_back(hom)[0]


def quasi_proper_witness(hom: LatticeHom) -> str | None:
    """The first comaximal pair of the target whose preimage pair is not
    comaximal, as witness text, or None: f is quasi-proper."""
    _, failing = _pull_back(hom)
    return None if failing is None else f"preimage of {build_bitop_spectrum(hom.target).label(failing)} is not comaximal"


# ---------------------------------------------------------------------------
# morphisms of pairwise Balbes-Dwinger spaces


class PBDMorphism(NamedTuple):
    """A morphism of pairwise Balbes-Dwinger spaces, as a plain record.

    ``mapping[k]`` is the target point of source point k.  The morphism
    conditions are bicontinuity, that essential sets pull back to essential
    sets, and that preimage commutes with the transition operators on
    essential sets: :func:`pbd_morphism_witness` checks them on a point map,
    and :func:`spec_b_witness` on the image of a homomorphism under spec_B.
    """

    source: BitopSpace
    target: BitopSpace
    mapping: tuple[int, ...]

    def preimage(self, target_mask: BitMask) -> BitMask:
        return preimage_mask(self.mapping, target_mask)


def pbd_morphism_witness(source: BitopSpace, target: BitopSpace, mapping) -> str | None:
    """The first morphism condition that the point map ``mapping`` fails, as
    witness text, or None; a map between the carriers comes first."""
    if len(mapping) != source.n or any(not 0 <= v < target.n for v in mapping):
        return "mapping is not a point map between the carriers"
    if not is_continuous(mapping, source.tau, target.tau):
        return "map is not tau-continuous"
    if not is_continuous(mapping, source.sigma, target.sigma):
        return "map is not sigma-continuous"
    src_ess = essential_subsets(source)
    for a in essential_subsets(target):
        pre = preimage_mask(mapping, a)
        if pre not in src_ess:
            return "essential set does not pull back to an essential set"
        if preimage_mask(mapping, op_d(target, a)) != op_d(source, pre):
            return "preimage does not commute with d on essential sets"
        if preimage_mask(mapping, op_i(target, a)) != op_i(source, pre):
            return "preimage does not commute with i on essential sets"
    return None


def spec_b_on_hom(hom: LatticeHom) -> PBDMorphism | None:
    """The spectrum functor on a quasi-proper homomorphism f: L -> N, sending
    a comaximal pair of N to its preimage pair; contravariant.  None when f
    is not quasi-proper (:func:`quasi_proper_witness` names the pair).

    It computes the point map only; :func:`spec_b_witness` checks that the
    result is a morphism carrying delta and epsilon along f.
    """
    mapping, failing = _pull_back(hom)
    if failing is not None:
        return None
    return PBDMorphism(
        build_bitop_spectrum(hom.target).space, build_bitop_spectrum(hom.source).space, mapping
    )


def spec_b_witness(hom: LatticeHom, morphism: PBDMorphism) -> str | None:
    """Check ``morphism = spec_b_on_hom(hom)`` against the theorem that makes
    spec_B a functor: delta and epsilon pull back along it (the preimage of
    delta(x) is delta(f(x)), dually for epsilon), and it satisfies every
    condition of :func:`pbd_morphism_witness`.  Returns the first failure's
    text, or None.  The corpus check ``hom_classification`` runs it once per
    quasi-proper homomorphism, and the ``hom`` command on its input."""
    src_spec = build_bitop_spectrum(hom.source)
    tgt_spec = build_bitop_spectrum(hom.target)
    mapping = morphism.mapping
    for x in range(hom.source.n):
        if preimage_mask(mapping, src_spec.delta[x]) != tgt_spec.delta[hom(x)]:
            return "delta preimage identity fails"
        if preimage_mask(mapping, src_spec.epsilon[x]) != tgt_spec.epsilon[hom(x)]:
            return "epsilon preimage identity fails"
    return pbd_morphism_witness(morphism.source, morphism.target, mapping)


# ---------------------------------------------------------------------------
# the essential-set lattice and functor


class EssentialLattice(NamedTuple):
    """The essential subsets of a space as a lattice under inclusion.

    Join is union and meet is i(d(intersection));
    ``suites.check_essential_family`` checks both against the tables
    computed from the order.  ``subsets[k]`` is the point mask realising
    lattice element k.  On the doubled space of a topology X, i fixes every
    open, so this is the fundamental lattice F(X) of the classical duality,
    with intersection as meet (``suites.check_classical_stone``).
    """

    lattice: FiniteLattice
    subsets: tuple[BitMask, ...]

    def element_of(self, subset: BitMask) -> int:
        return self.subsets.index(subset)


@lru_cache(maxsize=None)
def essential_lattice(space: BitopSpace) -> EssentialLattice:
    """The essential sets in sorted order, element k being ``subsets[k]``
    and named ``{p0,p3,...}`` by the labels at its 1 digits, lowest first.
    The sets containing ``members[i]`` are the intersection of the
    transposed family's distinct rows over its points."""
    members = tuple(sorted(essential_subsets(space)))
    labels, digits = [f"p{i}" for i in range(space.n)], bytes.maketrans(b"01", b"\0\1")
    names = tuple(
        "{%s}" % ",".join(compress(labels, bin(m)[:1:-1].encode().translate(digits))) for m in members
    )
    rows: dict[BitMask, BitMask] = {}
    for p, row in enumerate(transpose(members, members[-1].bit_length())):
        rows[row] = rows.get(row, 0) | 1 << p
    full = full_mask(len(members))
    up = tuple(reduce(and_, (r for r, pts in rows.items() if pts & m), full) for m in members)
    return EssentialLattice(lattice_from_order(names, up, name="essential"), members)


def essential_functor_on_morphism(m: PBDMorphism) -> LatticeHom:
    """The essential-set functor on a morphism f: X -> Y, giving the
    homomorphism A |-> preimage(A) from E(Y) to E(X).  The corpus check
    ``functor_laws`` validates each result as a quasi-proper homomorphism."""
    ess_y = essential_lattice(m.target)
    ess_x = essential_lattice(m.source)
    mapping = tuple(
        ess_x.element_of(m.preimage(a)) for a in ess_y.subsets
    )
    return LatticeHom(ess_y.lattice, ess_x.lattice, mapping)


# ---------------------------------------------------------------------------
# the reconstruction map into the spectrum of the essential lattice


def _require_pairwise_bd(space: BitopSpace) -> None:
    witness = pairwise_bd_witness(space)
    if witness is not None:
        raise NotPairwiseBD(witness)


@lru_cache(maxsize=None)
def big_h_map(space: BitopSpace) -> tuple[int, ...]:
    """The reconstruction map x |-> (I(x), F(x)) into spec_B(E(X)).

    I(x) collects the essential sets missing x, F(x) those whose d-image
    contains x.  Entry x numbers the pair as a point of
    ``build_bitop_spectrum(essential_lattice(space).lattice)``, or is -1
    when (I(x), F(x)) is not a comaximal pair.  Computed once per space;
    the ``essential_comaximal_points`` and ``space_roundtrip`` suites check
    that it is a bijection onto the comaximal pairs and a bihomeomorphism
    carrying delta and epsilon back to the essential sets and their
    d-images.  Raises :class:`NotPairwiseBD` off pairwise Balbes-Dwinger
    spaces."""
    _require_pairwise_bd(space)
    ess = essential_lattice(space)
    number = build_bitop_spectrum(ess.lattice).number
    i_masks = transpose([full_mask(space.n) & ~a for a in ess.subsets], space.n)
    f_masks = transpose([op_d(space, a) for a in ess.subsets], space.n)
    found = (number(i_mask, f_mask) for i_mask, f_mask in zip(i_masks, f_masks))
    return tuple(-1 if k is None else k for k in found)


# ---------------------------------------------------------------------------
# classical side: h_X


def _require_bd_space(top: FiniteTopology) -> None:
    witness = bd_space_witness(top)
    if witness is not None:
        raise NotBDSpace(witness)


def h_map_classical(top: FiniteTopology) -> tuple[int, ...]:
    """The map x |-> {fundamental A : x not in A} into spec(F(X)), F(X) the
    fundamental lattice ``essential_lattice(doubled_space(top))``: the
    fundamental sets are the essential sets of the doubled space.  Entry x
    numbers I_x among ``build_classical_spectrum(F(X).lattice).points``, or
    is -1 when I_x is not a prime ideal.  The ``classical_stone`` suite
    checks that it is a homeomorphism.  Raises :class:`NotBDSpace` off
    Balbes-Dwinger spaces."""
    _require_bd_space(top)
    fund = essential_lattice(doubled_space(top))
    prime_masks = {p: k for k, p in enumerate(build_classical_spectrum(fund.lattice).points)}
    i_masks = transpose([full_mask(top.n) & ~a for a in fund.subsets], top.n)
    return tuple(prime_masks.get(ix, -1) for ix in i_masks)


# ---------------------------------------------------------------------------
# naturality of the element embedding


def delta_embedding(lat: FiniteLattice) -> LatticeHom:
    """The element embedding x |-> delta(x) of a lattice into the essential
    lattice of its spectrum; an isomorphism by the reconstruction theorem.
    Built through :func:`check_hom`, so the isomorphism that the
    ``lattice_roundtrip`` suite and ``hom`` report rests on a checked
    homomorphism."""
    spectrum = build_bitop_spectrum(lat)
    ess = essential_lattice(spectrum.space)
    mapping = tuple(ess.element_of(spectrum.delta[x]) for x in range(lat.n))
    return check_hom(lat, ess.lattice, mapping)


def delta_natural_iso_check(hom: LatticeHom, transported: LatticeHom) -> str | None:
    """For a quasi-proper f: L -> N with ``transported`` = E(spec_B(f)),
    check that ``transported`` after the element embedding of L equals the
    embedding of N after f, and that both embeddings are lattice
    isomorphisms.  Returns None, or the name of the first element of L where
    the square fails; a failing isomorphism alone gives ``"None"``.  The
    ``naturality_squares`` corpus check and the ``hom`` command print it."""
    src, tgt = hom.source, hom.target
    emb_src = delta_embedding(src)
    emb_tgt = delta_embedding(tgt)
    for x in range(src.n):
        if transported.mapping[emb_src.mapping[x]] != emb_tgt.mapping[hom(x)]:
            return src.names[x]
    if all(len(set(e.mapping)) == e.target.n == e.source.n for e in (emb_src, emb_tgt)):
        return None
    return "None"


# ---------------------------------------------------------------------------
# bridge between single topologies and bitopological spaces


def to_topological(space: BitopSpace) -> FiniteTopology:
    """Forget the second topology of a doubly Balbes-Dwinger space."""
    _require_pairwise_bd(space)
    if space.tau != space.sigma:
        raise NotDoublyBD("the two topologies differ")
    return space.tau


def to_bitopological(top: FiniteTopology) -> BitopSpace:
    """Double a Balbes-Dwinger topology into a bitopological space."""
    _require_bd_space(top)
    return doubled_space(top)

