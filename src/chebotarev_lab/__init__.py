"""chebotarev-lab: exact desk-scale verification of Artin coefficient
identities, large-sieve mean values, explicit weight functions, zero-free
region optimizations, and Chebotarev prime counting.

The public names below are resolved on first access (PEP 562), so importing
the package, or one of its modules, loads only the modules actually used.
"""

import importlib

_EXPORTS = {
    "artin": (
        "LocalRootMultiset",
        "coeff_a_K",
        "coeff_a_KxK_prime",
        "euler_factor_series",
        "local_roots",
        "mertens_partial_sum",
        "prime_coefficients",
        "series_a_K",
        "series_a_KxK",
    ),
    "chebotarev": (
        "AdmissibilityCertificate",
        "BaseChangeCheck",
        "ChebotarevCount",
        "FlexiErrorReport",
        "base_change_compare",
        "flexi_error_report",
        "is_admissible",
        "partial_summation_pi",
        "pi_C_count",
        "pi_count",
        "psi_weighted_class",
        "psi_weighted_items",
        "splitting_tally",
    ),
    "families": (
        "Family",
        "avg_cheb_error",
        "compositum_disc_check",
        "resolvent_square_class",
    ),
    "fields": (
        "BUILTIN_CATALOG",
        "FieldDescriptor",
        "FrobeniusData",
        "FrobeniusTable",
        "builtin_field",
        "frobenius_data",
        "frobenius_table",
        "load_catalog",
        "parse_catalog",
        "quadratic_field",
    ),
    "groups": ("ConjugacyClass", "FiniteGroup", "build_group"),
    "oracles": ("factor_poly_mod_p",),
    "large_sieve": (
        "DirichletPolynomial",
        "MeanValueWindow",
        "msq_integral",
        "mvt_primes_lhs",
        "mvt_report",
        "prime_polynomial",
        "zero_density_report",
    ),
    "sieve": ("PrimeSieve", "sieve_primes"),
    "weights": (
        "WeightParams",
        "check_decay_right_halfplane",
        "check_decay_shifted_line",
        "f_eval",
        "laplace_F",
    ),
    "zfr": (
        "EtaProfile",
        "ZfrData",
        "classical_eta_profile",
        "classical_zfr",
        "constant_zfr",
        "error_factor",
        "eta_classical_closed",
        "eta_from_delta",
        "eta_large_zfr_closed",
        "rational_eta_profile",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)
