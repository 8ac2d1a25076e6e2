"""Exact qq-character computations for decorated finite and affine quivers."""

from .coefficient import Coefficient, s_function, s_product, s_r
from .engine import Character, Term, WeightConfig, YMonomial, closed_form_A1, expand, highest_weight, s_factor_coefficient
from .higgsing import ClassicalCharacter, classical_limit, factorize_check, higgs, kr_closed_form_A1, kr_params, kr_sigma
from .monomial import MU, Monomial, Q, Q1, Q2, Q3, Q4, parse_monomial, qfrak, xparam
from .partitions import Partition, affine_character, burge_filter, pit_filter, z_Ar, z_Ar_tuple
from .quiver import Quiver, QuiverClass, a_inverse_monomial, builtin_quiver, classify

__all__ = [
    "Coefficient", "s_function", "s_product", "s_r",
    "Character", "Term", "WeightConfig", "YMonomial", "closed_form_A1",
    "expand", "highest_weight", "s_factor_coefficient",
    "ClassicalCharacter", "classical_limit", "factorize_check", "higgs",
    "kr_closed_form_A1", "kr_params", "kr_sigma",
    "MU", "Monomial", "Q", "Q1", "Q2", "Q3", "Q4", "parse_monomial", "qfrak", "xparam",
    "Partition", "affine_character", "burge_filter", "pit_filter",
    "z_Ar", "z_Ar_tuple",
    "Quiver", "QuiverClass", "a_inverse_monomial", "builtin_quiver", "classify",
]

__version__ = "0.1.0"
