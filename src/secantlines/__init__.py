"""Secant line varieties of reducible plane curves: closed-form classification
plus an exact finite-field rank oracle that verifies every prediction."""

import importlib
import os

# One OpenBLAS thread unless the caller set a count: the oracle's products are
# small, and OpenBLAS worker threads stall badly when another process holds a
# core. This must run before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .formulas import ClassificationReport, DerivationMismatchError, NegativeDegreeError, classify
from .partitions import (
    EmptyPartitionError,
    NonPositivePartError,
    Partition,
    PartitionError,
    TooFewPartsError,
)

# The names that need numpy. They resolve on first use, so the closed forms
# import and run without loading numpy.
_LAZY = ("NotApplicableError", "OracleReport", "SemicontinuityError", "verify")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(".oracle", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "DerivationMismatchError",
    "EmptyPartitionError",
    "NegativeDegreeError",
    "NonPositivePartError",
    "NotApplicableError",
    "OracleReport",
    "Partition",
    "PartitionError",
    "SemicontinuityError",
    "TooFewPartsError",
    "classify",
    "verify",
]
