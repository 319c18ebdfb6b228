"""Relaxed Wyner common information for Gaussian sources.

Closed forms for scalar pairs, canonical-correlation reduction and reverse
water-filling for vector pairs, the Gray-Wyner minimal common rate, and a
suite of independent brute-force verifiers. All rates are in nats; the CLI
can convert to bits at the output boundary.
"""

__version__ = "0.1.0"

from .errors import CovarianceError, GausswynerError, ParameterError

# Each library name and the module that defines it. Names resolve on first
# access (PEP 562), so importing the package loads only ``errors``, and a
# command loads only the modules it runs: numpy comes in with ``vector``.
_MODULE_OF = {
    "AchievabilityParams": "scalar",
    "achievability_params": "scalar",
    "budget_from_level": "scalar",
    "common_information": "scalar",
    "level_from_budget": "scalar",
    "mutual_information": "scalar",
    "wyner_ci_scalar": "scalar",
    "GrayWynerPoint": "graywyner",
    "Regime": "graywyner",
    "common_rate": "graywyner",
    "Allocation": "allocation",
    "CanonicalSpectrum": "allocation",
    "evaluate_allocation": "allocation",
    "saturation_breakpoints": "allocation",
    "waterfill": "allocation",
    "JointGaussianCov": "vector",
    "VectorCI": "vector",
    "canonical_correlations": "vector",
    "pinv_sqrt": "vector",
    "validate_cov": "vector",
    "wyner_ci_vector": "vector",
}

__all__ = ["__version__", "CovarianceError", "GausswynerError",
           "ParameterError", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted(globals().keys() | _MODULE_OF.keys())
