"""Exact computation of generalized binomial coefficients and the
linearization tables of factorial-polynomial products, with brute-force
combinatorial oracles and an identity-verification harness.

The names below are the paper's objects; the building blocks (polynomials,
partitions, bases, exact primitives) import from their own modules.

Only `coefficients` (with `exactnum`) loads with the package.  The names of
`identities` and `oracles`, and the submodules that only they use, load on
first access through the module ``__getattr__`` (PEP 562), so a caller of
`c_table` or `linearization_d` never pays for their import."""

from importlib import import_module

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

# public name -> the submodule that defines it, imported on first access
_LAZY = {
    "IDENTITY_IDS": "identities",
    "IdentityReport": "identities",
    "extract_c_from_las": "identities",
    "sweep": "identities",
    "verify": "identities",
    "oracle_covering_choices": "oracles",
    "oracle_injection_cycle_poly": "oracles",
    "oracle_seatings": "oracles",
    "oracle_transversal_partitions": "oracles",
}
# submodules that the package no longer imports itself; `genbinom.series` and
# the like still resolve without an import of their own
_SUBMODULES = ("identities", "oracles", "partitions", "polybasis", "series")

__all__ = sorted([
    "C_METHODS",
    "CoeffTable",
    "Composition",
    "c_coeff",
    "c_table",
    "linearization_d",
    "seating_counts",
    "t_coeff",
    *_LAZY,
])


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
