"""Exact workbench for centers of modular enveloping algebras.

Verifies, on concrete finite-dimensional Lie algebras reduced mod p,
the relation between the index, the p-center, the center of the
enveloping algebra, and the largest irreducible-module dimension, with
an independent module-splitting oracle for cross-checking.
"""

__version__ = "0.1.0"

from .fields import GF, QQ, FFElem, galois_field, prime_field
from .liealg import (
    LieAlgebraPresentation,
    ModularLieAlgebra,
    RestrictedStructure,
    base_change_mod_p,
    compute_p_map,
    index_generic,
    validate_presentation,
    with_p_map,
)
from .pbw import (
    SymPoly,
    UEElement,
    pbw_bracket,
    pbw_multiply,
    principal_symbol,
    semi_invariant_weight,
    symmetrize,
    ue_gen,
    ue_monomial,
    ue_one,
    ue_zero,
)
from .center import (
    CenterBasis,
    KW1Report,
    center_basis_bounded,
    fraction_field_degree,
    kw1_verdict,
    p_center_generators,
    rank_over_frobenius_subring,
    zp_coordinates,
)
from .redenv import (
    Character,
    max_irreducible_dim,
    regular_representation,
    split_simples,
)
from .registry import builtin_examples, get_example, parse_input

__all__ = [
    "GF",
    "QQ",
    "FFElem",
    "galois_field",
    "prime_field",
    "LieAlgebraPresentation",
    "ModularLieAlgebra",
    "RestrictedStructure",
    "base_change_mod_p",
    "compute_p_map",
    "index_generic",
    "validate_presentation",
    "with_p_map",
    "SymPoly",
    "UEElement",
    "pbw_bracket",
    "pbw_multiply",
    "principal_symbol",
    "semi_invariant_weight",
    "symmetrize",
    "ue_gen",
    "ue_monomial",
    "ue_one",
    "ue_zero",
    "CenterBasis",
    "KW1Report",
    "center_basis_bounded",
    "fraction_field_degree",
    "kw1_verdict",
    "p_center_generators",
    "rank_over_frobenius_subring",
    "zp_coordinates",
    "Character",
    "max_irreducible_dim",
    "regular_representation",
    "split_simples",
    "builtin_examples",
    "get_example",
    "parse_input",
    "__version__",
]
