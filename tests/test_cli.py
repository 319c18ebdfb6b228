"""Command-line contract beyond the byte corpus.

``tests/cli_digest.py`` pins every byte of the numpy-free commands
(``TestByteCorpus``). The tests here check what that corpus cannot: the
``vector`` command, curve memory, the file opened before any row is
computed, rows past the float range, a failing ``verify``, separate negative
values, fuzzed argv, and each fresh interpreter's exit and imports."""

import argparse
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gausswyner
from gausswyner import cli, scalar
from gausswyner.errors import ParameterError

import cli_digest
import corpus

def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVectorCommand:
    def test_block_form(self, tmp_path, capsys):
        payload = {"kx": [[1.0, 0.0], [0.0, 1.0]],
                   "ky": [[1.0, 0.0], [0.0, 1.0]],
                   "kxy": [[0.5, 0.0], [0.0, 0.5]]}
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "vector", "--input", str(path),
                               "--gamma", "0")
        assert code == 0
        record = json.loads(out)
        assert record["value_nats"] == pytest.approx(
            2.0 * scalar.common_information(0.5), abs=1e-12)
        assert record["spectrum"] == pytest.approx([0.5, 0.5])
        assert record["allocation"]["gammas"] == [0.0, 0.0]

    def test_joint_form(self, tmp_path, capsys):
        payload = {"joint": [[1.0, 0.5], [0.5, 1.0]], "dim_x": 1}
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "vector", "--input", str(path),
                               "--gamma", "0.1")
        assert code == 0
        assert json.loads(out)["value_nats"] == pytest.approx(
            0.0946030591935194, abs=1e-9)

    @pytest.mark.parametrize("gamma", ["0.1", "5"])
    def test_zero_correlation_prints_no_negative_zero(self, tmp_path, capsys,
                                                      gamma):
        payload = {"kx": [[1.0, 0.0], [0.0, 1.0]],
                   "ky": [[1.0, 0.0], [0.0, 1.0]],
                   "kxy": [[0.5, 0.0], [0.0, 0.0]]}
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "vector", "--input", str(path),
                               "--gamma", gamma)
        assert code == 0
        assert json.loads(out)["spectrum"][1] == 0.0
        assert "-0.0" not in out

    def test_negative_zero_budget_prints_positive_zeros(self, tmp_path,
                                                        capsys):
        path = tmp_path / "cov.json"
        path.write_text(json.dumps({"joint": [[1.0, 0.5], [0.5, 1.0]],
                                    "dim_x": 1}))
        code, out, _ = run_cli(capsys, "vector", "--input", str(path),
                               "--gamma=-0.0")
        assert code == 0
        assert out.count("-0.0") == 1  # the echoed budget
        record = json.loads(out)
        assert record["allocation"]["water_level_nats"] == 0.0
        assert record["allocation"]["gammas"] == [0.0]

    def test_tiny_budget_matches_scalar_command(self, tmp_path, capsys):
        rho, gamma = "4.292445127976509e-07", "8.74463917124356e-14"
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(
            {"kx": [[1.0]], "ky": [[1.0]], "kxy": [[float(rho)]]}))
        _, out, _ = run_cli(capsys, "vector", "--input", str(path),
                            "--gamma", gamma)
        vector_value = json.loads(out)["value_nats"]
        _, out, _ = run_cli(capsys, "scalar", "--rho", rho, "--gamma", gamma)
        assert vector_value == json.loads(out)["value_nats"]

    def test_rank_deficient_marginal_reduces(self, tmp_path, capsys):
        # duplicated first component: same value as the reduced scalar pair
        payload = {"kx": [[1.0, 1.0], [1.0, 1.0]],
                   "ky": [[1.0]],
                   "kxy": [[0.5], [0.5]]}
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run_cli(capsys, "vector", "--input", str(path),
                               "--gamma", "0.05")
        assert code == 0
        record = json.loads(out)
        assert math.isfinite(record["value_nats"])
        assert record["value_nats"] == pytest.approx(
            scalar.wyner_ci_scalar(0.5, 0.05), abs=1e-9)


class TestCurveCommand:
    """The corpus cannot see memory or when a row is computed, and its
    budgets stay far from overflow."""

    def test_unwritable_path_exits_4(self, tmp_path, capsys, monkeypatch):
        rows = []
        value = scalar.wyner_ci_scalar
        monkeypatch.setattr(scalar, "wyner_ci_scalar",
                            lambda *args: rows.append(args) or value(*args))
        path = tmp_path / "no_dir" / "x.csv"
        code, out, err = run_cli(capsys, "curve", "--rho", "0.5",
                                 "--gamma-max", "0.1", "--steps", "10",
                                 "--output", str(path))
        assert (code, out, rows) == (4, "", [])
        assert err == f"error: [Errno 2] No such file or directory: " \
                      f"{str(path)!r}\n"

    def test_memory_does_not_grow_with_steps(self, tmp_path):
        # each row is written as it is formed; a list of the rows held
        # about 0.4 MB more at 2,000 steps than at 200
        def peak(steps):
            tracemalloc.start()
            try:
                assert cli.main(["curve", "--rho=0.5", "--gamma-max=0.1",
                                 f"--steps={steps}",
                                 f"--output={tmp_path / 'curve.csv'}"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # imports and compiles outside the comparison
        assert peak(2000) - peak(200) < 64 * 1024

    @pytest.mark.parametrize("gamma_max, steps", [("1e306", 200)])
    def test_huge_budget_gives_finite_rows(self, tmp_path, capsys, gamma_max,
                                           steps):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "curve", "--rho=0.5",
                             f"--gamma-max={gamma_max}", f"--steps={steps}",
                             f"--output={out_path}")
        assert code == 0
        gammas = [float(line.split(",")[0])
                  for line in out_path.read_text().splitlines()[1:]]
        top = float(gamma_max)
        assert len(gammas) == steps + 1
        assert all(map(math.isfinite, gammas))
        assert gammas == sorted(gammas)
        assert gammas[-1] <= top
        # a row whose product top * j is finite keeps the plain formula
        for j, gamma in enumerate(gammas):
            if math.isfinite(top * j):
                assert gamma == top * j / steps


class TestVerifyCommand:
    """Every suite of the corpus passes, so it never sees exit code 1."""

    def test_library_error_fails_its_check_and_exits_1(self, capsys,
                                                       monkeypatch):
        from gausswyner import allocation

        def waterfill(spectrum, gamma):
            raise ParameterError("synthetic")
        monkeypatch.setattr(allocation, "waterfill", waterfill)
        code, out, _ = run_cli(capsys, "verify", "--suite=all")
        checks = json.loads(out)["checks"]
        assert code == 1 and len(checks) == 23 and '"oracle_value": NaN' in out
        assert [check["details"] for check in checks if not check["passed"]] \
            == [{"error": "ParameterError: synthetic"}] * 3


class TestByteCorpus:
    """Every byte of a seeded corpus of the numpy-free commands, pinned by
    ``tests/cli_digest.py``; its ``--lines`` output lists what moved."""

    def test_corpus_matches_the_checked_in_digest(self):
        assert corpus.digest(cli_digest.corpus_lines()) == cli_digest.DIGEST


def _joined(argv):
    """``argv`` with each flag's value joined to it by "=" """
    out, rest = [], list(argv)
    while rest:
        token = rest.pop(0)
        if token.startswith("--") and rest and not rest[0].startswith("--"):
            token = f"{token}={rest.pop(0)}"
        out.append(token)
    return out


class TestSeparateNegativeValues:
    """A negative number in exponent notation, given as its own argument,
    is the flag's value, as it is when joined with "="."""

    @pytest.mark.parametrize("argv", [
        ("scalar", "--rho", "-1e-05", "--gamma", "1e-05"),
        ("scalar", "--rho", "-1.5E+3", "--gamma", "0.1"),
        ("scalar", "--rho", "-.5e-1", "--gamma", "-2.5e-3", "--bits"),
        ("scalar", "--rho", "-5.E-1", "--gamma", "0.1"),
        ("graywyner", "--rho", "-5E-1", "--delta", "0.1", "--alpha", "0.5"),
        ("graywyner", "--rho", "0.5", "--sigma2", "-1e+2", "--delta", "0.1",
         "--alpha", "0.5"),
        ("curve", "--rho", "-2e-1", "--gamma-max", "1e-1", "--steps", "4"),
        ("curve", "--rho", "0.5", "--gamma-max", "-1e-3", "--steps", "4"),
        ("vector", "--gamma", "-1e-2"),
        ("vector", "--gamma", "2e-1"),
    ])
    def test_reads_as_the_joined_form(self, tmp_path, capsys, argv):
        if argv[0] == "curve":
            argv += ("--output", str(tmp_path / "curve.csv"))
        if argv[0] == "vector":
            path = tmp_path / "cov.json"
            path.write_text('{"kx": [[1,0],[0,1]], "ky": [[1,0],[0,1]], '
                            '"kxy": [[0.5,0],[0,0.5]]}')
            argv += ("--input", str(path))
        separate = run_cli(capsys, *argv)
        joined = run_cli(capsys, *_joined(argv))
        assert separate == joined
        assert "expected one argument" not in separate[2]

    @pytest.mark.parametrize("argv", [
        ("--help",), ("scalar", "--help"), ("vector", "--help"),
        ("curve", "--help"), ("graywyner", "--help"), ("verify", "--help"),
        ("scalar", "--rho", "--gamma", "0.1"),
        ("scalar", "--rho", "-x", "--gamma", "0.1"),
        ("scalar", "--rho", "-1e", "--gamma", "0.1"),
    ])
    def test_help_and_usage_are_argparse_s_own(self, monkeypatch, capsys,
                                               argv):
        def run():
            with pytest.raises(SystemExit) as stop:
                cli.main(list(argv))
            return (stop.value.code, *capsys.readouterr())

        ours = run()
        monkeypatch.setattr(cli, "_Parser", argparse.ArgumentParser)
        assert ours == run()


# every float class the parsers can meet: signed zeros, non-finite values,
# the ends of the normal range, subnormals, and ordinary magnitudes
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308,
                     -1e308, 1e-308, -1e-308, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.0, -1.0]),
    st.floats(-2.0, 2.0),
    st.floats(),
)


def _flag(name, value):
    # joined with "=" so that argparse never reads a negative exponent as
    # an option
    return f"--{name}={value!r}"


# ints that JSON carries but a float cannot hold: 310 to 4300 digits, the
# most json.load reads
HUGE_INTS = st.builds(lambda sign, k: sign * 10**k, st.sampled_from([1, -1]),
                      st.integers(309, 4299))


@st.composite
def _matrices(draw, rows, cols, entries=EDGE_FLOATS):
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@st.composite
def _joint_covariances(draw):
    # B B^T for a random factor B: positive semi-definite whenever the
    # products stay finite, so the numerical path runs, not only the checks
    n = draw(st.integers(2, 4))
    factor = draw(_matrices(n, draw(st.integers(1, 4))))
    return [[sum(a * b for a, b in zip(row_i, row_j))
             for row_j in factor] for row_i in factor]


@st.composite
def _vector_payloads(draw):
    dims = st.integers(0, 3)
    # the product form multiplies its entries in Python, so it draws no
    # huge ints
    entries = EDGE_FLOATS | HUGE_INTS
    form = draw(st.sampled_from(["blocks", "joint", "product"]))
    if form == "blocks":
        dx, dy, rows, cols = (draw(dims) for _ in range(4))
        return {"kx": draw(_matrices(dx, dx, entries)),
                "ky": draw(_matrices(dy, dy, entries)),
                "kxy": draw(_matrices(rows, cols, entries))}
    if form == "joint":
        n = draw(dims)
        joint = draw(_matrices(n, n, entries))
    else:
        joint = draw(_joint_covariances())
        n = len(joint)
    # a valid split often enough to reach the spectrum, plus the invalid ones:
    # out of range, not whole, or not a number
    dim_x = draw(st.integers(1, max(n - 1, 1)) | st.integers(-1, n + 1)
                 | EDGE_FLOATS | st.sampled_from([True, False, "1", None]))
    return {"joint": joint, "dim_x": dim_x}


@st.composite
def _commands(draw):
    """argv for one closed-form or vector command, with "{out}" and "{cov}"
    standing for the output and covariance paths, and the covariance
    payload (None for the commands that read no file)."""
    command = draw(st.sampled_from(["scalar", "curve", "graywyner",
                                    "vector"]))
    payload = None
    if command == "scalar":
        argv = ["scalar", _flag("rho", draw(EDGE_FLOATS)),
                _flag("gamma", draw(EDGE_FLOATS))]
    elif command == "curve":
        argv = ["curve", _flag("rho", draw(EDGE_FLOATS)),
                _flag("gamma-max", draw(EDGE_FLOATS)),
                f"--steps={draw(st.integers(-2, 40))}", "--output={out}"]
    elif command == "graywyner":
        argv = ["graywyner", _flag("rho", draw(EDGE_FLOATS)),
                _flag("sigma2", draw(EDGE_FLOATS)),
                _flag("delta", draw(EDGE_FLOATS)),
                _flag("alpha", draw(EDGE_FLOATS))]
    else:
        payload = draw(_vector_payloads())
        argv = ["vector", "--input={cov}", _flag("gamma", draw(EDGE_FLOATS))]
    if command != "curve" and draw(st.booleans()):
        argv.append("--bits")
    return argv, payload


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(case=_commands())
    def test_exit_code_is_documented(self, case):
        argv, payload = case
        with tempfile.TemporaryDirectory() as tmp:
            cov = Path(tmp, "cov.json")
            if payload is not None:
                cov.write_text(json.dumps(payload), encoding="utf-8")
            argv = [arg.format(out=Path(tmp, "curve.csv"), cov=cov)
                    for arg in argv]
            code, stdout, stderr, _ = corpus.run(argv, tmp)
        assert code in {0, 2, 3, 4}, (argv, stderr)
        if code == 0 and argv[0] != "curve":
            json.loads(stdout)


# The exit-report hook, installed as ``sitecustomize`` in each interpreter
# that _process starts. Once the interpreter has begun to exit, it writes the
# collector's frozen-object count and the names of the loaded modules to the
# file that the environment variable names, so the command's stdout and
# stderr stay its own.
_REPORT_TO = "GAUSSWYNER_TEST_EXIT_REPORT"
_EXIT_REPORT_HOOK = f"""\
import atexit, gc, os, sys


def report(path):
    with open(path, "w", encoding="utf-8") as file:
        print(gc.get_freeze_count(), *sorted(sys.modules), file=file)


atexit.register(report, os.environ["{_REPORT_TO}"])
"""


class _Run(NamedTuple):
    code: int
    stdout: str
    stderr: str
    frozen: int  # the collector's frozen-object count at exit
    loaded: set  # the modules loaded at exit


def _process(*args):
    """``python *args`` in a fresh interpreter, under the exit-report hook."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(_EXIT_REPORT_HOOK,
                                                 encoding="utf-8")
        report = Path(tmp, "report")
        env = {**os.environ, _REPORT_TO: str(report),
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [tmp, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env)
        frozen, *loaded = report.read_text(encoding="utf-8").split()
    return _Run(proc.returncode, proc.stdout, proc.stderr, int(frozen),
                set(loaded))


# Modules a numpy-free run must not load: numpy, and dataclasses and the
# inspect it pulls in.
_HEAVY = {"numpy", "dataclasses", "inspect"}
# Modules a numpy-free command must not load either, because it does not run
# them: by subcommand, and for verify by suite (the waterfill suite, and so
# all, runs waterfill).
_UNUSED = {"scalar": {"gausswyner.allocation", "gausswyner.graywyner"},
           "curve": {"gausswyner.allocation", "gausswyner.graywyner", "json"},
           "graywyner": {"gausswyner.allocation"},
           **{f"--suite={suite}": {"gausswyner.allocation"}
              for suite in ("scalar", "envelope", "graywyner", "discrete")},
           "--suite=waterfill": set(),
           "--suite=all": set()}

# Each ``python -m gausswyner`` command that a process test runs, by name:
# its argv, its exit code and whether it loads numpy. ``{tmp}`` names the
# folder of the ``folder`` fixture, which holds the two covariance files.
_COMMANDS = {
    "scalar": (["scalar", "--rho=0.5", "--gamma=0.1"], 0, False),
    "graywyner": (["graywyner", "--rho=0.5", "--delta=0.75", "--alpha=0"],
                  0, False),
    "curve": (["curve", "--rho=0.5", "--gamma-max=0.1", "--steps=4",
               "--output={tmp}/curve.csv"], 0, False),
    "verify-graywyner": (["verify", "--suite=graywyner"], 0, False),
    "verify-discrete": (["verify", "--suite=discrete"], 0, False),
    "vector": (["vector", "--input={tmp}/cov.json", "--gamma=0.1"], 0, True),
    "verify-scalar": (["verify", "--suite=scalar"], 0, False),
    "verify-waterfill": (["verify", "--suite=waterfill"], 0, False),
    "verify-envelope": (["verify", "--suite=envelope"], 0, False),
    "verify-all": (["verify", "--suite=all"], 0, False),
    "argparse-error": (["scalar", "--rho=0.5"], 2, False),
    "parameter-error": (["scalar", "--rho=2", "--gamma=0.1"], 2, False),
    "indefinite-vector": (["vector", "--input={tmp}/indefinite.json",
                           "--gamma=0.2"], 3, True),
    "unwritable-curve": (["curve", "--rho=0.5", "--gamma-max=0.1",
                          "--steps=4", "--output={tmp}/missing/curve.csv"],
                         4, False),
}


_ONE_NAME_OF = {module: name
                for name, module in gausswyner._MODULE_OF.items()}


def _first_access(module):
    """A snippet that reaches one name of ``module`` through the package's
    PEP 562 hook, which must not have loaded the module before."""
    return ("import sys, gausswyner\n"
            f"assert 'gausswyner.{module}' not in sys.modules\n"
            f"gausswyner.{_ONE_NAME_OF[module]}\n")


# Each ``python -c`` snippet that a process test runs, by name: its code,
# the library modules it loads (no others) and whether it loads numpy.
_SNIPPETS = {
    "import-package": ("import gausswyner", {"errors"}, False),
    "import-cli": ("import gausswyner.cli", {"_suites", "cli", "errors"},
                   False),
    "import-oracle": ("import gausswyner.oracle",
                      {"_suites", "errors", "graywyner", "oracle", "scalar"},
                      False),
    # numpy's vectorized log1p, expm1 and log differ from the math module's
    # in the last bit on some inputs, so a numpy path could not keep the
    # scalar kernels' bits. This passes a CanonicalSpectrum to
    # gausswyner.waterfill and runs the rest of the allocation module.
    "allocation-run": (
        "import gausswyner\n"
        "from gausswyner import allocation\n"
        "spectrum = gausswyner.CanonicalSpectrum((0.9, 0.5, 0.0))\n"
        "alloc = gausswyner.waterfill(spectrum, 0.1)\n"
        "allocation.saturation_breakpoints((0.9, 0.5, 0.0))\n"
        "allocation.evaluate_allocation((0.9, 0.5, 0.0), alloc.gammas)\n",
        {"allocation", "errors", "scalar"}, False),
    "access-allocation": (_first_access("allocation"),
                          {"allocation", "errors", "scalar"}, False),
    "access-graywyner": (_first_access("graywyner"),
                         {"errors", "graywyner", "scalar"}, False),
    "access-scalar": (_first_access("scalar"), {"errors", "scalar"}, False),
    "access-vector": (_first_access("vector"),
                      {"allocation", "errors", "scalar", "vector"}, True),
}


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    """The folder the commands write to, with the two covariance files that
    ``_COMMANDS`` reads: a valid pair and an indefinite one."""
    folder = tmp_path_factory.mktemp("commands")
    (folder / "cov.json").write_text(json.dumps(
        {"joint": [[1.0, 0.5], [0.5, 1.0]], "dim_x": 1}))
    (folder / "indefinite.json").write_text(json.dumps(
        {"kx": [[1, 0], [0, 1]], "ky": [[1, 0], [0, 1]],
         "kxy": [[1.3, 0], [0, 0.5]]}))
    return folder


@pytest.fixture(scope="module")
def baseline():
    """The modules that ``python -c pass`` loads under the same hook."""
    return _process("-c", "pass").loaded


def _check_numpy(run, baseline, numpy):
    """A numpy run loads numpy but neither ``numpy.ma`` nor
    ``numpy.random``. A numpy-free run loads none of ``_HEAVY`` beyond
    ``baseline``, and no numpy at all."""
    loaded = run.loaded - baseline
    if numpy:
        assert "numpy" in loaded
        assert not {"numpy.ma", "numpy.random"} & loaded
    else:
        assert "numpy" not in run.loaded
        assert not _HEAVY & loaded


class TestColdStart:
    """Each interpreter that tier-1 starts answers to one test here.

    ``test_command`` runs each ``python -m gausswyner`` command once, in a
    fresh interpreter, and checks that one run for:

    - its bytes: the exit code, stdout, stderr and written CSV files are
      those of an in-process ``cli.main`` call;
    - its exit: ``cli.entry_point`` has frozen the collector, so that
      teardown's collections skip the objects it is about to free;
    - its imports: a numpy-free command loads nothing it does not run, and a
      numpy command loads numpy but neither ``numpy.ma`` nor
      ``numpy.random``.

    ``test_snippet`` runs each ``python -c`` snippet once and checks the
    library modules it loads, and numpy, likewise. Loaded modules are
    compared with those of ``python -c pass`` under the same hook, so what
    ``site`` preloads does not count; numpy counts even there."""

    @pytest.mark.parametrize("argv, code, numpy", list(_COMMANDS.values()),
                             ids=list(_COMMANDS))
    def test_command(self, folder, baseline, argv, code, numpy):
        argv = [arg.format(tmp=folder) for arg in argv]
        run = _process("-m", "gausswyner", *argv)
        written = corpus.take_csvs(folder)
        assert (*run[:3], written) == corpus.run(argv, folder)
        assert run.code == code
        assert run.frozen > 0
        assert "gausswyner.cli" in run.loaded
        _check_numpy(run, baseline, numpy)
        if not numpy:
            unused = _UNUSED[argv[1] if argv[0] == "verify" else argv[0]]
            assert not unused & (run.loaded - baseline)

    @pytest.mark.parametrize("code, modules, numpy", list(_SNIPPETS.values()),
                             ids=list(_SNIPPETS))
    def test_snippet(self, baseline, code, modules, numpy):
        run = _process("-c", code)
        assert run.code == 0, run.stderr
        assert {name for name in run.loaded
                if name.startswith("gausswyner.")} == {
            f"gausswyner.{module}" for module in modules}
        _check_numpy(run, baseline, numpy)


class TestExitPath:
    """A ``gausswyner`` process runs ``cli.entry_point``, which freezes the
    collector on the way out (``TestColdStart``). ``cli.main`` called in
    process does not, and the console script runs the same entry point."""

    def test_in_process_main_leaves_the_collector_alone(self, tmp_path):
        frozen = gc.get_freeze_count()
        assert [corpus.run(_COMMANDS[name][0], tmp_path)[0] for name in (
            "scalar", "argparse-error", "verify-discrete")] == [0, 2, 0]
        assert gc.get_freeze_count() == frozen

    def test_console_script_is_the_entry_point(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert ('gausswyner = "gausswyner.cli:entry_point"'
                in pyproject.read_text(encoding="utf-8").splitlines())
