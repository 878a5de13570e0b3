"""Exact machinery for additive questions about multiplicative subgroups of
prime fields: field/polynomial substrate, moment-normalized coefficient
systems and pair criticality, residue calculus on the projective line, the
fourth-order annihilating operator with its exact-rational identity chains,
and exhaustive desk-scale searches.

Importing the package loads none of its modules: each name below is
imported from its module on first use (PEP 562), so a command loads only
the layers it runs."""

import importlib

# module -> the public names the package takes from it
_EXPORTS = {
    "fp": ("FpSet", "binom_mod", "is_prime", "roots_of_unity"),
    "poly": (
        "AT_INFINITY", "FpPoly", "TruncatedSeries", "from_roots", "log_derivative_series",
        "taylor_at",
    ),
    "symm": ("complete_homogeneous", "minimal_indices"),
    "hp": (
        "criticality", "factorization_check", "fractional_transform", "hp_coeffs",
        "hp_polynomial", "lemma9_check", "power_sum_vanishing", "reciprocal_set",
        "relation_x", "relation_y",
    ),
    "residues": (
        "RationalForm", "lemma_form_identity", "named_form", "residue_at",
        "residue_at_infinity", "sum_residues_check",
    ),
    "qalg": ("QPoly", "falling"),
    "stepanov": (
        "alpha11_obstruction", "d_operator", "identity_catalog_check", "lemma5_lemma6_numeric",
        "lemma13_symbolic", "rat2_check", "rat3_check", "verify_G_zero",
    ),
    "search": (
        "diffset_search", "levson_scan", "problem1_scan", "problem2_scan", "sumset_search",
        "threefold_check",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        # an AttributeError lets ``from mucrit import cli`` import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
