"""Finite lattice duality toolkit.

Builds the bitopological spectrum of a finite lattice (points: comaximal
ideal/filter pairs), reconstructs the lattice from the essential subsets of
that space, and machine-checks the whole theorem suite at desk scale.  See
the ``catalog`` module for file formats and named examples and ``cli`` for
the batch front end.

The public names below are loaded on first access (PEP 562): importing the
package runs none of its modules, and ``lattice_spectra.build_bitop_spectrum``
imports ``spectra`` (and what it needs) the first time it is read.
"""

from importlib import import_module

# submodule -> the public names it defines
_PUBLIC = {
    "bitsets": ("BitMask", "bits", "full_mask", "mask_of"),
    "errors": (
        "CarrierTooLarge",
        "CyclicCovers",
        "EmptyInput",
        "LatticeToolError",
        "MissingMapping",
        "NotAHom",
        "NotALattice",
        "NotBDSpace",
        "NotDisjoint",
        "NotDoublyBD",
        "NotPairwiseBD",
        "NotQuasiProper",
        "ParseError",
        "SizeBoundExceeded",
        "UnknownElement",
    ),
    "lattices": (
        "FiniteLattice",
        "LatticeHom",
        "all_filters",
        "all_homs",
        "all_ideals",
        "build_lattice",
        "check_hom",
        "is_distributive",
        "lattice_from_order",
        "prime_ideals",
        "product_lattice",
    ),
    "topology": (
        "BitopSpace",
        "FiniteTopology",
        "bitop_space",
        "count_opens",
        "doubled_space",
        "bd_space_witness",
        "essential_subsets",
        "fundamental_subsets",
        "op_d",
        "op_i",
        "pairwise_bd_witness",
        "pairwise_t0_witness",
        "topology_from_subbasis",
    ),
    "spectra": (
        "BitopSpectrum",
        "ClassicalSpectrum",
        "ComaximalPair",
        "b_map",
        "bottom_via_fundamental",
        "build_bitop_spectrum",
        "build_classical_spectrum",
        "comaximal_pairs",
        "extend_to_comaximal",
        "gbd_witness",
        "prime_points",
        "top_via_compactness",
    ),
    "duality": (
        "EssentialLattice",
        "HomClassification",
        "PBDMorphism",
        "big_h_map",
        "classify_hom",
        "delta_embedding",
        "delta_natural_iso_check",
        "essential_functor_on_morphism",
        "essential_lattice",
        "h_map_classical",
        "pbd_morphism_witness",
        "spec_b_on_hom",
        "spec_b_witness",
        "to_bitopological",
        "to_topological",
    ),
    "catalog": (
        "GeneratorConfig",
        "LatticeDoc",
        "canonical_form",
        "enumerate_lattices",
        "named_lattices",
        "parse_hom",
        "parse_lattice",
        "render_lattice",
        "to_dot",
    ),
}
_SUBMODULES = frozenset((*_PUBLIC, "cli", "suites"))
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
