"""Exact machinery for additive questions about multiplicative subgroups of
prime fields: field/polynomial substrate, moment-normalized coefficient
systems and pair criticality, residue calculus on the projective line, the
fourth-order annihilating operator with its exact-rational identity chains,
and exhaustive desk-scale searches."""

from .fp import (
    FieldElem,
    FpSet,
    binom_mod,
    is_prime,
    roots_of_unity,
)
from .poly import AT_INFINITY, FpPoly, TruncatedSeries, from_roots, log_derivative_series, taylor_at
from .symm import complete_homogeneous, minimal_indices, power_sums
from .hp import (
    criticality,
    factorization_check,
    fractional_transform,
    hp_coeffs,
    hp_polynomial,
    lemma9_check,
    power_sum_vanishing,
    reciprocal_set,
    relation_x,
    relation_y,
)
from .residues import (
    RationalForm,
    lemma_form_identity,
    named_form,
    residue_at,
    residue_at_infinity,
    sum_residues_check,
)
from .qalg import QPoly, falling
from .stepanov import (
    alpha11_obstruction,
    d_operator,
    identity_catalog_check,
    lemma5_lemma6_numeric,
    lemma13_symbolic,
    rat2_check,
    rat3_check,
    verify_G_zero,
)
from .search import (
    diffset_search,
    levson_scan,
    problem1_scan,
    problem2_scan,
    sumset_search,
    threefold_check,
)

__version__ = "0.1.0"
