"""The functorial layer: homomorphism classification, the spectrum and
essential-set functors on morphisms, the reconstruction isomorphisms, and the
bridge between the bitopological and the classical pictures.

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

from functools import lru_cache
from typing import NamedTuple

from .bitsets import BitMask, bits, full_mask, is_subset, mask_of, preimage_mask, transpose
from .errors import NotBDSpace, NotDoublyBD, NotPairwiseBD, NotQuasiProper
from .lattices import (
    FiniteLattice,
    LatticeHom,
    check_hom,
    is_prime_ideal,
    lattice_from_order,
)
from .spectra import ComaximalPair, build_bitop_spectrum, build_classical_spectrum
from .topology import (
    BitopSpace,
    FiniteTopology,
    bd_space_witness,
    doubled_space,
    essential_subsets,
    fundamental_subsets,
    is_continuous,
    op_d,
    op_i,
    pairwise_bd_witness,
)


# ---------------------------------------------------------------------------
# homomorphism classification


class HomClassification(NamedTuple):
    """Properness data for a lattice homomorphism.

    proper: prime-ideal preimages are prime (vacuously true when the target
    spectrum is empty, recorded separately).  quasi_proper: comaximal-pair
    preimages are comaximal.  Witnesses name the first failing target object.
    """

    proper: bool
    vacuously_proper: bool
    proper_witness: str | None
    quasi_proper: bool
    quasi_witness: str | None


def _pull_back(hom: LatticeHom) -> tuple[tuple[int, ...] | None, ComaximalPair | None]:
    """The preimage map on comaximal pairs, as (point map, None), or
    (None, the first target point whose preimage pair is not comaximal).

    The preimage of ``down[a]`` under a lattice homomorphism is an ideal,
    the down-set of ``join{x : f(x) <= a}``, when it is nonempty, and
    dually for ``up[b]``; so the preimage pair of the target point ``(a, b)``
    is comaximal exactly when both preimages are nonempty and that element
    pair is a source point.
    """
    src, tgt = hom.source, hom.target
    index = build_bitop_spectrum(src).index
    mapping = []
    for p in build_bitop_spectrum(tgt).points:
        lower = hom.preimage(tgt.down[p.a])
        upper = hom.preimage(tgt.up[p.b])
        k = index.get((src.join_of(lower), src.meet_of(upper))) if lower and upper else None
        if k is None:
            return None, p
        mapping.append(k)
    return tuple(mapping), None


def _not_comaximal(p: ComaximalPair) -> str:
    return f"preimage of {p.label()} is not comaximal"


def classify_hom(hom: LatticeHom) -> HomClassification:
    src, tgt = hom.source, hom.target
    primes = build_classical_spectrum(tgt).points
    proper = True
    proper_witness = None
    for p in primes:
        if not is_prime_ideal(src, hom.preimage(p)):
            proper = False
            proper_witness = f"preimage of {tgt.set_label(p)} is not a prime ideal"
            break
    _, failing = _pull_back(hom)
    return HomClassification(
        proper,
        len(primes) == 0,
        proper_witness,
        failing is None,
        None if failing is None else _not_comaximal(failing),
    )


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


def spec_b_on_hom(hom: LatticeHom) -> PBDMorphism:
    """The spectrum functor on a quasi-proper homomorphism f: L -> N, sending
    a comaximal pair of N to its preimage pair; contravariant.  Raises
    :class:`NotQuasiProper` when f is not quasi-proper.

    It computes the point map only; :func:`spec_b_witness` checks that the
    result is a morphism carrying delta and epsilon along f.
    """
    mapping, failing = _pull_back(hom)
    if failing is not None:
        raise NotQuasiProper(_not_comaximal(failing))
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
    lattice element k.
    """

    lattice: FiniteLattice
    subsets: tuple[BitMask, ...]

    def element_of(self, subset: BitMask) -> int:
        return self.subsets.index(subset)


def _inclusion_lattice(family, name: str) -> EssentialLattice:
    """A family of point sets ordered by inclusion, as a lattice whose
    element k is ``subsets[k]`` (the family in sorted order)."""
    members = tuple(sorted(family))
    k = len(members)
    names = tuple("{" + ",".join(f"p{i}" for i in bits(m)) + "}" for m in members)
    up = tuple(
        mask_of(j for j in range(k) if is_subset(members[i], members[j]))
        for i in range(k)
    )
    return EssentialLattice(lattice_from_order(names, up, name=name), members)


@lru_cache(maxsize=None)
def essential_lattice(space: BitopSpace) -> EssentialLattice:
    return _inclusion_lattice(essential_subsets(space), "essential")


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
    lat = ess.lattice
    index = build_bitop_spectrum(lat).index
    i_masks = transpose([full_mask(space.n) & ~a for a in ess.subsets], space.n)
    f_masks = transpose([op_d(space, a) for a in ess.subsets], space.n)
    mapping = []
    for i_mask, f_mask in zip(i_masks, f_masks):
        # a point (a, b) has the masks down[a] and up[b], so only the join of
        # I(x) with the meet of F(x) can match
        a, b = lat.join_of(i_mask), lat.meet_of(f_mask)
        found = -1
        if lat.down[a] == i_mask and lat.up[b] == f_mask:
            found = index.get((a, b), -1)
        mapping.append(found)
    return tuple(mapping)


# ---------------------------------------------------------------------------
# classical side: h_X and the fundamental-set lattice


def _require_bd_space(top: FiniteTopology) -> None:
    witness = bd_space_witness(top)
    if witness is not None:
        raise NotBDSpace(witness)


@lru_cache(maxsize=None)
def fundamental_lattice(top: FiniteTopology) -> EssentialLattice:
    """The fundamental subsets ordered by inclusion, named ``fundamental``:
    meet is intersection and join is union, which
    ``suites.check_classical_stone`` checks against the tables."""
    return _inclusion_lattice(fundamental_subsets(top), "fundamental")


def h_map_classical(top: FiniteTopology) -> tuple[int, ...]:
    """The map x |-> {fundamental A : x not in A} into spec(F(X)), F(X) the
    fundamental lattice: entry x numbers I_x among
    ``build_classical_spectrum(fundamental_lattice(top).lattice).points``, or
    is -1 when I_x is not a prime ideal.  The ``classical_stone`` suite
    checks that it is a homeomorphism.  Raises :class:`NotBDSpace` off
    Balbes-Dwinger spaces."""
    _require_bd_space(top)
    fund = fundamental_lattice(top)
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


__all__ = [
    "EssentialLattice",
    "HomClassification",
    "PBDMorphism",
    "big_h_map",
    "classify_hom",
    "delta_embedding",
    "delta_natural_iso_check",
    "essential_functor_on_morphism",
    "essential_lattice",
    "fundamental_lattice",
    "h_map_classical",
    "pbd_morphism_witness",
    "spec_b_on_hom",
    "spec_b_witness",
    "to_bitopological",
    "to_topological",
]
