"""Command-line front end.

Subcommands: ``scalar`` and ``vector`` evaluate the relaxed common
information, ``curve`` writes a CSV of the scalar value against the budget,
``graywyner`` evaluates the Gray-Wyner common rate, and ``verify`` runs the
brute-force oracle suites. Results are printed as JSON records on stdout
(field order fixed, floats in shortest round-trip form, so identical
invocations are byte-identical); diagnostics go to stderr.

Exit codes: 0 success, 1 verification failure, 2 input error,
3 numerical/validation error, 4 I/O error.
"""

import argparse
import gc
import math
import re
import sys

# Each command imports the library modules it runs, and json only where JSON
# is read or written, so a command loads nothing it does not use: numpy comes
# in only with vector
from . import __version__
from ._suites import SUITES
from .errors import CovarianceError, ParameterError

__all__ = ["entry_point", "main"]

SCHEMA_VERSION = 1
_LN2 = math.log(2.0)


def _emit(record: dict) -> None:
    import json

    print(json.dumps(record, indent=2))


def _units(args) -> tuple[str, float]:
    """Suffix and divisor for rate fields; conversion happens only here."""
    if args.bits:
        return "bits", _LN2
    return "nats", 1.0


def _base_record(command: str, inputs: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
    }


def _cmd_scalar(args) -> int:
    from . import scalar

    rho = scalar.validate_correlation(args.rho)
    gamma = scalar.validate_budget(args.gamma)
    value = scalar.wyner_ci_scalar(rho, gamma)
    suffix, div = _units(args)
    record = _base_record("scalar", {"rho": args.rho, "gamma": args.gamma})
    record[f"value_{suffix}"] = value / div
    achievability = None
    r = abs(rho)
    if r < 1.0 and gamma <= scalar.mutual_information(r):
        params = scalar.achievability_params(r, gamma)
        achievability = {
            "alpha_noise": params.alpha_noise,
            "sigma2_w": params.sigma2_w,
            f"rate_{suffix}": params.rate_nats / div,
            f"leakage_{suffix}": params.leakage_nats / div,
        }
    record["achievability"] = achievability
    _emit(record)
    return 0


def _cov_from_payload(payload):
    from . import vector

    if not isinstance(payload, dict):
        raise ParameterError("covariance file must contain a JSON object")
    if {"kx", "ky", "kxy"} <= payload.keys():
        return vector.JointGaussianCov(
            payload["kx"], payload["kxy"], payload["ky"])
    if {"joint", "dim_x"} <= payload.keys():
        return vector.JointGaussianCov.from_joint(payload["joint"],
                                                  payload["dim_x"])
    raise ParameterError(
        'covariance file needs keys "kx"/"ky"/"kxy" or "joint"/"dim_x"')


def _cmd_vector(args) -> int:
    import json

    from . import vector

    with open(args.input, "r", encoding="utf-8") as handle:
        # ValueError covers bad syntax, bytes that are not UTF-8 and
        # over-long integers; nesting deeper than the parser's stack limit
        # raises RecursionError
        try:
            payload = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise ParameterError(f"invalid JSON: {exc}") from None
    result = vector.wyner_ci_vector(_cov_from_payload(payload), args.gamma)
    suffix, div = _units(args)
    alloc = result.allocation
    record = _base_record("vector", {"input": args.input, "gamma": args.gamma})
    record[f"value_{suffix}"] = result.value_nats / div
    record["spectrum"] = list(result.spectrum.rhos)
    record["allocation"] = {
        "gammas": [g / div for g in alloc.gammas],
        f"water_level_{suffix}": alloc.water_level_beta / div,
        "saturated": list(alloc.saturated),
        "slack": alloc.slack / div,
    }
    _emit(record)
    return 0


def _cmd_curve(args) -> int:
    from . import scalar

    rho = scalar.validate_correlation(args.rho)
    gamma_max = scalar.validate_budget(args.gamma_max)
    if math.isinf(gamma_max):
        raise ParameterError("gamma-max must be finite")
    if args.steps < 2:
        raise ParameterError(f"steps must be >= 2, got {args.steps}")
    bound_at_zero = scalar.mutual_information(abs(rho))
    # each row is written as it is formed, so memory does not grow with
    # --steps, and an unwritable path fails before any row is computed
    with open(args.output, "w", encoding="utf-8", newline="") as handle:
        handle.write("gamma,c_gamma_nats,lower_bound_nats\n")
        for j in range(args.steps + 1):
            gamma = gamma_max * j / args.steps
            if math.isinf(gamma):  # gamma_max * j overflowed
                gamma = gamma_max * (j / args.steps)
            if j == args.steps:  # the product can round one ulp above the top
                gamma = gamma_max
            value = scalar.wyner_ci_scalar(rho, gamma)
            lower = max(bound_at_zero - gamma, 0.0)
            handle.write(f"{gamma!r},{value!r},{lower!r}\n")
    return 0


def _cmd_graywyner(args) -> int:
    from . import graywyner

    point = graywyner.common_rate(args.sigma2, args.rho, args.delta,
                                  args.alpha)
    suffix, div = _units(args)
    record = _base_record("graywyner", {
        "rho": args.rho,
        "sigma2": args.sigma2,
        "delta": args.delta,
        "alpha": args.alpha,
    })
    record[f"r0_{suffix}"] = point.r0 / div
    record["regime"] = point.regime.value
    record["nu_star"] = point.nu_star
    _emit(record)
    return 0


def _cmd_verify(args) -> int:
    from . import oracle

    reports = oracle.run_suite(args.suite)
    record = _base_record("verify", {"suite": args.suite})
    record["checks"] = [report.as_dict() for report in reports]
    record["all_passed"] = all(report.passed for report in reports)
    _emit(record)
    return 0 if record["all_passed"] else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subparsers, that reads a
    separate negative number in exponent notation (``--rho -1e-05``) as a
    value. argparse's own pattern for a negative number has no exponent on
    Python 3.10-3.13, so it took ``-1e-05`` for an unknown option."""

    _NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gausswyner",
        description="Relaxed Wyner common information for Gaussian sources.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scalar",
                       help="relaxed common information of a scalar pair")
    p.add_argument("--rho", type=float, required=True,
                   help="correlation coefficient in [-1, 1]")
    p.add_argument("--gamma", type=float, required=True,
                   help="conditional-information budget in nats")
    p.add_argument("--bits", action="store_true",
                   help="emit rates in bits instead of nats")
    p.set_defaults(func=_cmd_scalar)

    p = sub.add_parser("vector",
                       help="relaxed common information of a vector pair")
    p.add_argument("--input", required=True,
                   help='JSON covariance file ("kx"/"ky"/"kxy" or '
                        '"joint"/"dim_x")')
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--bits", action="store_true")
    p.set_defaults(func=_cmd_vector)

    p = sub.add_parser("curve",
                       help="CSV of the scalar value over a budget range")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--gamma-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True,
                   help="number of intervals (steps + 1 rows)")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("graywyner", help="Gray-Wyner minimal common rate")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--sigma2", type=float, default=1.0,
                   help="source variance (both sources)")
    p.add_argument("--delta", type=float, required=True,
                   help="mean-squared-error target")
    p.add_argument("--alpha", type=float, required=True,
                   help="cap on the sum of private rates, nats")
    p.add_argument("--bits", action="store_true")
    p.set_defaults(func=_cmd_graywyner)

    p = sub.add_parser("verify", help="run the brute-force oracle suites")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CovarianceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry_point() -> int:
    """:func:`main` on ``sys.argv`` for a whole process: ``python -m
    gausswyner`` and the ``gausswyner`` console script.

    On the way out it freezes the collector (``gc.freeze()``), so the full
    collections that run while the interpreter clears its modules no longer
    trace every live object, numpy's included; refcounting still frees them,
    and ``SystemExit``, atexit handlers and stream flushing are unchanged.
    :func:`main` itself leaves the collector alone, because tests and library
    users call it in-process.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry_point())
