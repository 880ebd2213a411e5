"""Exact eliminant and modular-basis computation for zero-dimensional ideals."""

from .assembly import (
    Decomposition,
    assemble,
    gcd_reduce,
    is_member,
    lift_component_basis,
    make_irredundant,
    make_minimal,
    make_reduced,
    normal_form,
)
from .buchberger import (
    bezout_swell_scenario,
    oracle_eliminant,
    oracle_member,
    reduced_groebner,
)
from .compat import compatible_split, lc_compatibility_check
from .engine import spoly
from .fields import GF, QQ
from .multipoly import ElimOrder, MultiPoly, VarContext, base_context
from .parser import IdealFile, ParseError, parse_ideal_file, parse_poly
from .pqr import PqrCtx, proper_divide, proper_eliminant, residue_context
from .pseudo import (
    NotZeroDimensionalError,
    PseudoOutcome,
    StrategyConfig,
    pseudo_divide,
    pseudo_eliminant,
)
from .unipoly import UniPoly, squarefree_decomposition

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "ElimOrder",
    "GF",
    "IdealFile",
    "MultiPoly",
    "NotZeroDimensionalError",
    "ParseError",
    "PqrCtx",
    "PseudoOutcome",
    "QQ",
    "StrategyConfig",
    "UniPoly",
    "VarContext",
    "assemble",
    "base_context",
    "bezout_swell_scenario",
    "compatible_split",
    "gcd_reduce",
    "is_member",
    "lc_compatibility_check",
    "lift_component_basis",
    "make_irredundant",
    "make_minimal",
    "make_reduced",
    "normal_form",
    "oracle_eliminant",
    "oracle_member",
    "parse_ideal_file",
    "parse_poly",
    "proper_divide",
    "proper_eliminant",
    "pseudo_divide",
    "pseudo_eliminant",
    "reduced_groebner",
    "residue_context",
    "spoly",
    "squarefree_decomposition",
]
