"""Relaxed Wyner common information for Gaussian sources.

Closed forms for scalar pairs, canonical-correlation reduction and reverse
water-filling for vector pairs, the Gray-Wyner minimal common rate, and a
suite of independent brute-force verifiers. All rates are in nats; the CLI
can convert to bits at the output boundary.
"""

__version__ = "0.1.0"

from .errors import CovarianceError, GausswynerError, ParameterError
from .graywyner import GrayWynerPoint, Regime, common_rate
from .scalar import (
    AchievabilityParams,
    achievability_params,
    budget_from_level,
    common_information,
    level_from_budget,
    mutual_information,
    wyner_ci_scalar,
)

# The closed-form commands use neither module below: the vector names need
# numpy, and the allocation names cost import time that scalar, graywyner
# and curve never earn back. Both are resolved on first access (PEP 562),
# so importing the package, or running a scalar command, loads neither.
_ALLOCATION_NAMES = frozenset({
    "Allocation",
    "CanonicalSpectrum",
    "evaluate_allocation",
    "saturation_breakpoints",
    "waterfill",
})
_VECTOR_NAMES = frozenset({
    "JointGaussianCov",
    "VectorCI",
    "canonical_correlations",
    "pinv_sqrt",
    "validate_cov",
    "wyner_ci_vector",
})

__all__ = [
    "__version__",
    "AchievabilityParams",
    "Allocation",
    "CanonicalSpectrum",
    "CovarianceError",
    "GausswynerError",
    "GrayWynerPoint",
    "JointGaussianCov",
    "ParameterError",
    "Regime",
    "VectorCI",
    "achievability_params",
    "budget_from_level",
    "canonical_correlations",
    "common_information",
    "common_rate",
    "evaluate_allocation",
    "level_from_budget",
    "mutual_information",
    "pinv_sqrt",
    "saturation_breakpoints",
    "validate_cov",
    "waterfill",
    "wyner_ci_scalar",
    "wyner_ci_vector",
]


def __getattr__(name):
    if name in _ALLOCATION_NAMES:
        from . import allocation
        return getattr(allocation, name)
    if name in _VECTOR_NAMES:
        from . import vector
        return getattr(vector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _ALLOCATION_NAMES | _VECTOR_NAMES)
