"""Every documented rejection, in the library and the CLI, with its exact
message. A library row is an id, ``module.function: case``, a zero-argument
call, the exception type and the message. A CLI row is an id, ``command:
case``, an argv, the text of ``{dir}/cov.json`` or None, the exit code and
the stderr, ``{dir}`` being the row's own folder. Each ``…`` in a message
stands for text that Python, numpy, ``json`` or ``argparse`` writes and that
differs between their versions; each row with one says why.
"""

import argparse
import inspect
import math
import re
from functools import partial

import numpy as np
import pytest

from gausswyner import allocation, cli, graywyner, oracle, scalar, vector
from gausswyner.errors import CovarianceError, ParameterError
from gausswyner.vector import JointGaussianCov

import corpus


def _rows(function, cases, error=ParameterError):
    """Library rows of one function, from (case, args, message) triples."""
    name = f"{function.__module__.rsplit('.', 1)[1]}.{function.__qualname__}"
    return [pytest.param(partial(function, *args), error, message,
                         id=f"{name}: {case}")
            for case, args, message in cases]


BLOCKS = {"k_x": [[1, 0], [0, 1]], "k_xy": [[0.5], [0]], "k_y": [[1]]}


def _last_entry(name, value):
    """A covariance of ``BLOCKS`` with the last entry of one set to value."""
    *rows, last = BLOCKS[name]
    return JointGaussianCov(**{**BLOCKS, name: [*rows, [*last[:-1], value]]})


class _Broken:
    def __iter__(self):  # fails on its own, after one entry
        yield 0.5
        raise TypeError("broken iterator")


CAP = scalar.mutual_information(0.5)
EYE3 = np.eye(3)
PMF = np.array([[0.5, 0.0], [0.0, 0.5]])  # the pmf rows below pass lists
HUGE = ("1e400", 10**400), ("-1e400", -10**400), ("1e5000", 10**5000)
NOT_NUMBERS = (("str", "abc"), ("None", None), ("list", [0.5]),
               ("object", object()))
TOO_LARGE = "is too large in magnitude for a float"
ITERABLE = "expected an iterable of canonical correlations, got "
NOT_COV = "expected a JointGaussianCov, got list"
WHOLE = "dim_x must be a whole number, got "
BETWEEN = "dim_x must lie strictly between 0 and 3, got "
FLOAT = "int too large to convert to float"  # Python's own, on 3.10-3.13
NOT_PSD = ("stacked covariance is not positive semi-definite: min eigenvalue "
           "-1.000000e+00 after whitening each block")
ENVELOPE = "envelope grid requires 0 < lam <= rho < 1, got "
NO_GRID = "grid oracle requires components with rho < 1"
AXES = "axis groups must be sequences of ints, got "

LIBRARY = [
    *[row for function, what in ((scalar.validate_correlation, "correlation"),
                                 (scalar.validate_budget, "budget"),
                                 (scalar.level_from_budget, "budget"),
                                 (scalar.budget_from_level, "water level"))
      for row in _rows(function, [
          *[(case, (x,), f"{what} {TOO_LARGE}") for case, x in HUGE],
          *[(case, (x,), f"{what} is not a number")
            for case, x in NOT_NUMBERS]])],
    *_rows(scalar.budget_from_level, [
        ("-1", (-1.0,), "water level -1.0 must be >= 0 nats"),
        ("nan", (math.nan,), "water level nan must be >= 0 nats")]),
    *_rows(scalar.common_information, [
        ("nan", (math.nan,), "correlation must not be NaN")]),
    *_rows(scalar.mutual_information, [
        ("1.1", (1.1,), "correlation 1.1 lies outside [-1, 1]")]),
    *_rows(scalar.wyner_ci_scalar, [
        ("rho 1.2", (1.2, 0.1), "correlation 1.2 lies outside [-1, 1]"),
        ("gamma -0.1", (0.5, -0.1), "budget -0.1 must be >= 0 nats"),
        ("rho 1e400", (10**400, 0.1), f"correlation {TOO_LARGE}"),
        ("gamma 1e400", (0.5, 10**400), f"budget {TOO_LARGE}"),
        ("rho str", ("abc", 0.1), "correlation is not a number"),
        ("gamma None", (0.5, None), "budget is not a number")]),
    *_rows(scalar.achievability_params, [
        ("past saturation", (0.5, CAP + 1e-6), f"budget {CAP + 1e-6!r} "
         f"exceeds the pair's mutual information {CAP!r}"),
        # the tolerance is 1e-12: CAP + 5e-13 is accepted
        ("just past saturation", (0.5, CAP + 1e-11), f"budget {CAP + 1e-11!r} "
         f"exceeds the pair's mutual information {CAP!r}"),
        ("rho -0.5", (-0.5, 0.0),
         "construction requires 0 <= rho < 1, got -0.5")]),
    *_rows(scalar.dual_objective, [
        *[(f"rho {r}", (r, 0.1, 2.0),
           f"dual bound requires 0 < |rho| < 1, got {r}") for r in (0.0, 1.0)],
        ("mu 1", (0.5, 0.1, 1.0), "dual variable 1.0 must be > 1"),
        ("mu 0.5", (0.5, 0.1, 0.5), "dual variable 0.5 must be > 1"),
        ("mu 1e400", (0.5, 0.1, 10**400), f"dual variable {TOO_LARGE}")]),
    *_rows(scalar.dual_maximizer, [
        ("-1", (-1.0,), "budget -1.0 must be >= 0 nats")]),
    *_rows(graywyner.common_rate, [
        *[(f"{name} 0", args, f"{name} must be a positive finite number, "
           "got 0.0") for name, args in (("delta", (1.0, 0.5, 0.0, 0.1)),
                                        ("sigma2", (0.0, 0.5, 0.1, 0.1)))],
        ("alpha -0.2", (1.0, 0.5, 0.1, -0.2),
         "alpha_private must be >= 0, got -0.2"),
        *[(f"{name} 1e400", args, f"{what} {TOO_LARGE}")
          for name, what, args in (
              ("sigma2", "sigma2", (10**400, 0.5, 0.1, 0.1)),
              ("rho", "correlation", (1.0, 10**400, 0.1, 0.1)),
              ("delta", "delta", (1.0, 0.5, 10**400, 0.1)),
              ("alpha", "alpha_private", (1.0, 0.5, 0.1, 10**400)))]]),
    *_rows(graywyner.dual_objective, [
        ("rho 1", (1.0, 0.5, 0.0, 0.75), "dual bound requires |rho| < 1"),
        *[(f"nu {nu}", (0.5, 0.3, 0.0, nu),
           f"nu must lie in (1/2, 1], got {nu}") for nu in (0.5, 1.1)],
        ("nu 1e400", (0.5, 0.3, 0.0, 10**400), f"nu {TOO_LARGE}")]),
    *_rows(allocation.waterfill, [
        ("unsorted", ([0.2, 0.9], 0.1),
         "spectrum must be sorted in descending order"),
        ("rho 1e400", ([10**400], 0.1), f"canonical correlation {TOO_LARGE}"),
        *[(f"rho {case}", (rhos, 0.1), "canonical correlation is not a number")
          for case, rhos in (("str", ["abc"]), ("None", [None]),
                             ("second str", [0.9, "abc"]))],
        # the first offending entry decides the error, in order
        ("rho 2 then None", ([2.0, None], 0.1),
         "canonical correlation 2.0 lies outside [0, 1]"),
        ("None", (None, 0.1), f"{ITERABLE}NoneType"),
        ("int", (5, 0.1), f"{ITERABLE}int"),
        ("gamma inf", ([0.5], math.inf), "waterfill requires a finite budget"),
        ("gamma 1e400", ([0.5], 10**400), f"budget {TOO_LARGE}")]),
    # an iterator that fails on its own keeps its error
    *_rows(allocation.waterfill, [
        ("broken iterator", (_Broken(), 0.1), "broken iterator")], TypeError),
    *_rows(allocation.evaluate_allocation, [
        ("broken iterator", ([0.9, 0.5], _Broken()), "broken iterator")],
        TypeError),
    *_rows(allocation.saturation_breakpoints, [
        ("rho 1e400", ([10**400],), f"canonical correlation {TOO_LARGE}"),
        ("None", (None,), f"{ITERABLE}NoneType")]),
    *_rows(allocation.CanonicalSpectrum, [
        ("None", (None,), f"{ITERABLE}NoneType")]),
    *_rows(allocation.as_rhos, [("float", (0.5,), f"{ITERABLE}float")]),
    *_rows(allocation.evaluate_allocation, [
        ("too few", ([0.9, 0.2], [0.1]), "got 1 budgets for 2 components"),
        # the count is checked before any budget
        ("too many", ([0.9, 0.2], [0.1, "x", 0.1]),
         "got 3 budgets for 2 components"),
        ("gamma -0.1", ([0.9], [-0.1]), "budget -0.1 must be >= 0 nats"),
        ("gamma 1e400", ([0.9], [10**400]), f"budget {TOO_LARGE}"),
        ("gamma None", ([0.5], [None]), "budget is not a number"),
        *[(kind, ([0.5], gammas),
           f"expected an iterable of budgets, got {kind}")
          for gammas, kind in ((0.1, "float"), (None, "NoneType"))]]),
    *_rows(JointGaussianCov, [
        ("k_x 1x2", ([[1.0, 0.0]], [[0.0]], [[1.0]]),
         "k_x must be square, got shape (1, 2)"),
        ("k_xy 2x1", ([[1.0]], [[0.0], [0.0]], [[1.0]]),
         "k_xy must have shape (1, 1), got (2, 1)"),
        # numpy writes why the string does not convert, in its own words
        ("k_x str", ([["a"]], [[0.0]], [[1.0]]),
         "k_x is not a numeric matrix: …"),
        ("k_x 1e400", ([[10**400]], [[0.0]], [[1.0]]),
         f"k_x is not a numeric matrix: {FLOAT}"),
        *[(f"{dx}x{dy}", (np.eye(dx), np.zeros((dx, dy)), np.eye(dy)),
           f"{'k_y' if dx else 'k_x'} must not be empty")
          for dx, dy in ((0, 0), (2, 0), (0, 1))]]),
    *_rows(JointGaussianCov.from_joint, [
        *[(f"dim_x {d}", (EYE3, d), f"{BETWEEN}{d}") for d in (0, 3, 5)],
        # more digits than str() of an int may print
        ("1e5000", (EYE3, 10**5000), f"{BETWEEN}an int too long to print"),
        *[(f"dim_x {d!r}", (EYE3, d), f"{WHOLE}{d!r}")
          for d in (1.9, True, False, "1", None, math.nan)],
        # numpy 2 writes np.True_, numpy 1 True
        ("dim_x np.True_", (EYE3, np.True_), f"{WHOLE}…True…"),
        ("joint 1e400", ([[1.0, 0.0], [0.0, -10**400]], 1),
         f"joint covariance is not numeric: {FLOAT}")]),
    *_rows(vector.validate_cov, [("list", ([[1.0]],), NOT_COV)]),
    *_rows(vector.canonical_correlations, [("list", ([[1.0]],), NOT_COV)]),
    *_rows(vector.wyner_ci_vector, [
        ("list", ([[1.0]], 0.1), NOT_COV),
        ("gamma -0.1", (_last_entry("k_y", 1.0), -0.1),
         "budget -0.1 must be >= 0 nats")]),
    *_rows(vector.validate_cov, [
        ("k_xy 2", (JointGaussianCov([[1.0]], [[2.0]], [[1.0]]),), NOT_PSD),
        ("asymmetric", (JointGaussianCov([[1.0, 0.1], [0.2, 1.0]],
                                         np.zeros((2, 2)), np.eye(2)),),
         "k_x is not symmetric: ||K - K^T||_F / ||K||_F = 9.877e-02 "
         "exceeds 1e-09"),
        *[(f"{name} {bad}", (_last_entry(name, bad),),
           f"{name} contains non-finite entries")
          for name in BLOCKS for bad in (math.nan, math.inf, -math.inf)]],
     CovarianceError),
    *_rows(vector.pinv_sqrt, [
        ("indefinite", (np.diag([1.0, -1.0]),), "matrix is not positive "
         "semi-definite: min eigenvalue -1.000000e+00 (max eigenvalue "
         "1.000000e+00)"),
        ("asymmetric", (np.array([[1.0, 0.5], [0.0, 1.0]]),),
         "matrix is not symmetric: ||K - K^T||_F / ||K||_F = 4.714e-01 "
         "exceeds 1e-09"),
        *[(str(bad), (np.array([[1.0, 0.0], [0.0, bad]]),),
           "matrix contains non-finite entries")
          for bad in (math.nan, math.inf, -math.inf)]], CovarianceError),
    *_rows(vector.pinv_sqrt, [
        *[(f"{rows}x{cols}", (np.ones((rows, cols)),), "matrix must be "
           f"square and non-empty, got shape ({rows}, {cols})")
          for rows, cols in ((2, 3), (0, 0))],
        ("1e400", ([[10**400]],), f"matrix is not numeric: {FLOAT}")]),
    *_rows(oracle.verify_scalar_achievability, [
        ("rho str", ("x", 0.1), "correlation is not a number"),
        ("rho nan", (math.nan, 0.1),
         "achievability check requires 0 < rho < 1, got nan"),
        ("gamma 1", (0.5, 1.0),
         f"budget 1.0 exceeds the pair's mutual information {CAP!r}")]),
    *_rows(oracle.verify_waterfill_grid, [
        ("rho 1", ((1.0, 0.5), 0.5), NO_GRID), ("empty", ((), 0.5), NO_GRID),
        # a near-tie up to 1e-12 out of order: a unit rho need not be first
        ("rho 1 second", ((1 - 1e-12, 1.0), 0.1), NO_GRID)]),
    *_rows(oracle.verify_envelope_grid, [
        ("rho str", ("a", 0.3), "correlation is not a number"),
        ("lam str", (0.5, "a"), "envelope multiplier is not a number"),
        # above rho, and at 0
        *[(f"rho {rho} lam {lam}", (rho, lam),
           f"{ENVELOPE}lam={lam!r}, rho={rho!r}")
          for rho, lam in ((0.3, 0.5), (0.5, 0.0))]]),
    *_rows(oracle.verify_graywyner_dual, [
        ("delta -0.1", (0.5, -0.1, 0.0),
         "delta must be a positive finite number, got -0.1"),
        *[(f"rho {rho}", (rho, 0.5, 0.0), "dual bound requires |rho| < 1")
          for rho in (1.0, -1.0)]]),
    *_rows(oracle.dsbs_construction_check, [
        ("str", ("a",), "disagreement probability is not a number"),
        ("0.6", (0.6,), "disagreement probability 0.6 must lie in (0, 1/2]")]),
    *_rows(oracle.erasure_construction_check, [
        ("0.8", (0.8,), "budget 0.8 exceeds the source entropy ln 2")]),
    *_rows(oracle.discrete_mutual_information, [
        ("axis float", (PMF, (0.5,), (1,)), f"{AXES}(0.5,)"),
        ("axis str", (PMF, (0,), ("1",)), f"{AXES}('1',)"),
        ("axis bare int", (PMF, 0, 1), f"{AXES}0"),
        *[(f"axis {ax}", (PMF, (0,), (ax,)),
           "axes must be in range for a 2-d table") for ax in (2, -1)],
        ("overlapping", (PMF, (0,), (0,)), "axis groups must be disjoint"),
        ("pmf str", ("a", (0,), (1,)), "pmf entry is not a number"),
        ("pmf ragged", ([[0.5, 0.0], [0.5]], (0,), (1,)),
         "pmf must be a rectangular table"),
        ("pmf nan", ([[0.5, math.nan], [0.0, 0.5]], (0,), (1,)),
         "pmf entries must be nonnegative"),
        ("mass 1.2", ([[0.3, 0.3], [0.3, 0.3]], (0,), (1,)),
         "pmf mass 1.2 is not 1")]),
    *_rows(oracle.run_suite, [
        ("bogus", ("bogus",), "unknown suite 'bogus'; choose from ('scalar', "
         "'waterfill', 'envelope', 'graywyner', 'discrete', 'all')")]),
]


VECTOR = "vector --input={dir}/cov.json --gamma=0.1"
JSON = "error: invalid JSON: …\n"  # then json's or Python's words
SPLIT = '{"joint": [[1.0, 0.5], [0.5, 1.0]], "dim_x": %s}'
E400 = "1" + "0" * 400

CLI_ROWS = [
    ("rho 1.5", "scalar --rho 1.5 --gamma 0", None, 2,
     "error: correlation 1.5 lies outside [-1, 1]\n"),
    ("gamma -1", "scalar --rho 0.5 --gamma -1", None, 2,
     "error: budget -1.0 must be >= 0 nats\n"),
    ("malformed", VECTOR, "{not json", 2, JSON),
    ("not utf-8", VECTOR, b"\xff\xfe{}", 2, JSON),
    ("nested past the stack", VECTOR, "[" * 100_000, 2, JSON),
    ("int too long", VECTOR, '{"dim_x": %s}' % ("9" * 5000), 2, JSON),
    ("kx 1e400", VECTOR, '{"kx": [[%s]], "ky": [[1]], "kxy": [[0]]}'
     % E400, 2, f"error: k_x is not a numeric matrix: {FLOAT}\n"),
    ("joint 1e400", VECTOR, '{"joint": [[1, 0], [0, -%s]], "dim_x": 1}'
     % E400, 2, f"error: joint covariance is not numeric: {FLOAT}\n"),
    *[(f"dim_x {dim_x}", VECTOR, SPLIT % dim_x, 2, f"error: {WHOLE}{shown}\n")
      for dim_x, shown in (("1.9", "1.9"), ("true", "True"), ('"1"', "'1'"),
                           ("null", "None"))],
    ("array", VECTOR, "[[1.0, 0.5], [0.5, 1.0]]", 2,
     "error: covariance file must contain a JSON object\n"),
    ("wrong keys", VECTOR, '{"sigma": [[1.0]]}', 2, "error: covariance "
     'file needs keys "kx"/"ky"/"kxy" or "joint"/"dim_x"\n'),
    ("not psd", VECTOR, '{"kx": [[1]], "ky": [[1]], "kxy": [[2]]}', 3,
     f"error: {NOT_PSD}\n"),
    ("infinite", VECTOR, '{"kx": [[1,0],[0,Infinity]], "ky": [[1]], '
     '"kxy": [[0.5],[0]]}', 3, "error: k_x contains non-finite entries\n"),
    ("missing file", "vector --input={dir}/nope.json --gamma=0", None, 4,
     "error: [Errno 2] No such file or directory: '{dir}/nope.json'\n"),
    ("steps 1", "curve --rho 0.5 --gamma-max 0.1 --steps 1 "
     "--output={dir}/x.csv", None, 2, "error: steps must be >= 2, got 1\n"),
    ("gamma-max inf", "curve --rho=0.5 --gamma-max=inf --steps=4 "
     "--output={dir}/x.csv", None, 2, "error: gamma-max must be finite\n"),
    ("delta -0.1", "graywyner --rho 0.5 --delta -0.1 --alpha 0", None, 2,
     "error: delta must be a positive finite number, got -0.1\n"),
    # argparse wraps the usage to the terminal, and quotes the choices or
    # not by its version
    ("suite bogus", "verify --suite bogus", None, 2,
     "usage: gausswyner verify …gausswyner verify: error: argument "
     "--suite: invalid choice: …bogus…\n"),
]
CLI = [pytest.param(*row, id=f"{row[0].split()[0]}: {case}")
       for case, *row in CLI_ROWS]


def _matches(message, pinned):
    """Whether ``message`` is ``pinned``, where each ``…`` matches any text."""
    pattern = ".*".join(map(re.escape, pinned.split("…")))
    return re.fullmatch(pattern, message, re.DOTALL) is not None


@pytest.mark.parametrize("call, error, message", LIBRARY)
def test_library(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert _matches(str(caught.value), message), str(caught.value)


@pytest.mark.parametrize("argv, cov, code, stderr", CLI)
def test_cli(tmp_path, argv, cov, code, stderr):
    if cov is not None:
        (tmp_path / "cov.json").write_bytes(
            cov if isinstance(cov, bytes) else cov.encode())
    folder = str(tmp_path)
    # in-process, so a traceback fails the row instead of reaching stderr
    got = corpus.run([arg.replace("{dir}", folder) for arg in argv.split()],
                     tmp_path)
    assert got[:2] == (code, "") and got[3] == {}  # no CSV written
    assert _matches(got[2], stderr.replace("{dir}", folder)), got[2]


def test_every_entry_point_has_a_row():
    """Each public function or class that takes an argument, records apart,
    and each subcommand and error exit code has a row."""
    covered = [param.values[0].func for param in LIBRARY]
    assert not [function for function in [
        vector.JointGaussianCov.from_joint,
        *(getattr(module, name)
          for module in (scalar, allocation, vector, graywyner, oracle)
          for name in module.__all__)]
        if callable(function) and function is not graywyner.Regime
        and not (isinstance(function, type) and issubclass(function, tuple))
        and inspect.signature(function).parameters and function not in covered]
    commands, = [action.choices for action in cli._build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)]
    assert {param.values[0].split()[0] for param in CLI} == set(commands)
    assert {param.values[2] for param in CLI} == {2, 3, 4}
    ids = [param.id for param in LIBRARY + CLI]
    assert len(set(ids)) == len(ids)
