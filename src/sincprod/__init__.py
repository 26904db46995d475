"""Exact computation of sinc-product integrals with rational frequencies.

integral(prod_j sinc(a_j x), x over R) is always a rational multiple of pi
when the a_j are positive rationals. This package computes that rational
exactly via a residue-sum enumeration engine, provides the known closed
forms for dominant-frequency configurations, and cross-checks everything
with an independent floating-point quadrature oracle.

The oracle is imported on first use of one of its names (``crosscheck``,
``quadrature_estimate``, ...), so the exact path does not load it. It needs
numpy (and nothing else outside the standard library) only for periodic
sample sets over ``quadrature.SCALAR_FACTORS`` sample factors; smaller ones,
and every direct-mode set, run in plain Python and load no numpy either.
"""

import importlib

from .closed_forms import (
    CorrectionTerm,
    DominanceClass,
    DominanceTag,
    Evaluation,
    InequalityCheck,
    classical_frequencies,
    classify_dominance,
    closed_form_values,
    correction_term,
    evaluate,
)
from .core import (
    FrequencyList,
    PiMultiple,
    format_rational,
    frequency_list,
    load_frequency_file,
    parse_rational,
)
from .engine import (
    EnumerationStrategy,
    integral_coefficient,
    signed_moment_sum,
)
from .errors import (
    ApplicabilityError,
    CapacityError,
    RationalParseError,
    SincprodError,
    ToleranceError,
    ValidationError,
    VerificationError,
)
_QUADRATURE_NAMES = frozenset(
    {
        "CrosscheckReport",
        "QuadratureResult",
        "crosscheck",
        "quadrature_estimate",
        "tail_bound",
    }
)

__version__ = "0.1.0"

__all__ = [
    "CorrectionTerm",
    "DominanceClass",
    "DominanceTag",
    "Evaluation",
    "InequalityCheck",
    "classical_frequencies",
    "classify_dominance",
    "closed_form_values",
    "correction_term",
    "evaluate",
    "FrequencyList",
    "PiMultiple",
    "format_rational",
    "frequency_list",
    "load_frequency_file",
    "parse_rational",
    "EnumerationStrategy",
    "integral_coefficient",
    "signed_moment_sum",
    "ApplicabilityError",
    "CapacityError",
    "RationalParseError",
    "SincprodError",
    "ToleranceError",
    "ValidationError",
    "VerificationError",
    "CrosscheckReport",
    "QuadratureResult",
    "crosscheck",
    "quadrature_estimate",
    "tail_bound",
    "__version__",
]


def __getattr__(name):
    # importlib, not "from . import quadrature": that statement looks the
    # name up on this package first and would re-enter this hook.
    if name == "quadrature" or name in _QUADRATURE_NAMES:
        quadrature = importlib.import_module(__name__ + ".quadrature")
        return quadrature if name == "quadrature" else getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
