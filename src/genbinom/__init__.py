"""Exact computation of generalized binomial coefficients and the
linearization tables of factorial-polynomial products, with brute-force
combinatorial oracles and an identity-verification harness.

The names below are the paper's objects; the building blocks (polynomials,
partitions, bases, exact primitives) import from their own modules."""

from .coefficients import (
    C_METHODS,
    CoeffTable,
    Composition,
    c_coeff,
    c_table,
    linearization_d,
    seating_counts,
    t_coeff,
)
from .identities import IDENTITY_IDS, IdentityReport, extract_c_from_las, sweep, verify
from .oracles import (
    oracle_covering_choices,
    oracle_injection_cycle_poly,
    oracle_seatings,
    oracle_transversal_partitions,
)

__all__ = [
    "C_METHODS",
    "CoeffTable",
    "Composition",
    "IDENTITY_IDS",
    "IdentityReport",
    "c_coeff",
    "c_table",
    "extract_c_from_las",
    "linearization_d",
    "oracle_covering_choices",
    "oracle_injection_cycle_poly",
    "oracle_seatings",
    "oracle_transversal_partitions",
    "seating_counts",
    "sweep",
    "t_coeff",
    "verify",
]
