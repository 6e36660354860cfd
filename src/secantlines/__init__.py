"""Secant line varieties of reducible plane curves: closed-form classification
plus an exact finite-field rank oracle that verifies every prediction."""

import importlib
import os

# One OpenBLAS thread unless the caller set a count: the oracle's products are
# small, and OpenBLAS worker threads stall badly when another process holds a
# core. This must run before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .field import DEFAULT_PRIME, DEFAULT_SEED, DEFAULT_TRIALS, PrimeField, is_prime
from .formulas import (
    CaseLabel,
    ClassificationReport,
    DerivationMismatchError,
    NegativeDegreeError,
    classify,
    classify_case,
    defect,
    dim_IZ_theory,
    dim_sigma2_theory,
    dim_variety,
    expected_dim_IZ,
    expected_dim_sigma2,
    fills_ambient,
    hilbert_function_theory,
    is_defective,
)
from .partitions import (
    DerivedQuantities,
    EmptyPartitionError,
    NonPositivePartError,
    Partition,
    PartitionError,
    TooFewPartsError,
    derived,
    enumerate_partitions,
)

# The names that need numpy, by module. They resolve on first use, so the
# closed forms import and run without loading numpy.
_LAZY = {
    **dict.fromkeys(
        (
            "SeedStream",
            "cofactor_products",
            "derive_seed",
            "form_degree",
            "monomial_multiples",
            "multiply",
            "num_monomials",
            "product_index",
            "random_form",
        ),
        "gfpoly",
    ),
    **dict.fromkeys(
        (
            "BoundCheck",
            "NotApplicableError",
            "OracleReport",
            "SecantTrial",
            "SemicontinuityError",
            "SpecializationReport",
            "nullspace",
            "oracle_dim_IF",
            "oracle_dim_IZ",
            "rank",
            "secant_trials",
            "specialization_check",
            "tangent_slice",
            "verify",
        ),
        "oracle",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "CaseLabel",
    "ClassificationReport",
    "DEFAULT_PRIME",
    "DEFAULT_SEED",
    "DEFAULT_TRIALS",
    "DerivationMismatchError",
    "DerivedQuantities",
    "EmptyPartitionError",
    "NegativeDegreeError",
    "NonPositivePartError",
    "NotApplicableError",
    "OracleReport",
    "Partition",
    "PartitionError",
    "PrimeField",
    "SecantTrial",
    "SeedStream",
    "SemicontinuityError",
    "SpecializationReport",
    "TooFewPartsError",
    "classify",
    "classify_case",
    "cofactor_products",
    "defect",
    "derive_seed",
    "derived",
    "dim_IZ_theory",
    "dim_sigma2_theory",
    "dim_variety",
    "enumerate_partitions",
    "expected_dim_IZ",
    "expected_dim_sigma2",
    "fills_ambient",
    "form_degree",
    "hilbert_function_theory",
    "is_defective",
    "is_prime",
    "monomial_multiples",
    "multiply",
    "nullspace",
    "num_monomials",
    "oracle_dim_IF",
    "oracle_dim_IZ",
    "product_index",
    "random_form",
    "rank",
    "secant_trials",
    "specialization_check",
    "tangent_slice",
    "verify",
]
