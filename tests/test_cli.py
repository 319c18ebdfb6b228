"""Command-line contract: JSON records, CSV output, exit codes, determinism."""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gausswyner
from gausswyner import cli, scalar

import cli_digest

LN2 = math.log(2.0)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommand:
    def test_published_value(self, capsys):
        code, out, _ = run_cli(capsys, "scalar", "--rho", "0.5", "--gamma", "0")
        assert code == 0
        record = json.loads(out)
        assert record["schema_version"] == 1
        assert record["value_nats"] == pytest.approx(0.549306144334055,
                                                     abs=1e-9)
        assert record["achievability"]["sigma2_w"] == pytest.approx(0.5)

    def test_independent_pair(self, capsys):
        code, out, _ = run_cli(capsys, "scalar", "--rho", "0", "--gamma", "0")
        assert code == 0
        assert json.loads(out)["value_nats"] == 0.0

    def test_beyond_saturation(self, capsys):
        code, out, _ = run_cli(capsys, "scalar", "--rho", "0.5",
                               "--gamma", "10")
        assert code == 0
        record = json.loads(out)
        assert record["value_nats"] == 0.0
        assert record["achievability"] is None

    def test_bits_conversion(self, capsys):
        _, out_nats, _ = run_cli(capsys, "scalar", "--rho", "0.5",
                                 "--gamma", "0.05")
        _, out_bits, _ = run_cli(capsys, "scalar", "--rho", "0.5",
                                 "--gamma", "0.05", "--bits")
        nats = json.loads(out_nats)
        bits = json.loads(out_bits)
        assert bits["value_bits"] == pytest.approx(nats["value_nats"] / LN2,
                                                   abs=1e-15)
        assert bits["achievability"]["alpha_noise"] == \
            nats["achievability"]["alpha_noise"]

    def test_degenerate_rho_serializes_infinity(self, capsys):
        code, out, _ = run_cli(capsys, "scalar", "--rho", "1", "--gamma", "0.1")
        assert code == 0
        record = json.loads(out)  # json reads the Infinity literal back
        assert record["value_nats"] == math.inf
        assert record["achievability"] is None

    def test_rho_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "scalar", "--rho", "1.5",
                               "--gamma", "0")
        assert code == 2
        assert "error" in err

    def test_negative_gamma_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "scalar", "--rho", "0.5",
                               "--gamma", "-1")
        assert code == 2
        assert "error" in err

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "scalar", "--rho", "0.37",
                              "--gamma", "0.081")
        _, second, _ = run_cli(capsys, "scalar", "--rho", "0.37",
                               "--gamma", "0.081")
        assert first == second

    def test_json_round_trip_is_lossless(self, capsys):
        _, out, _ = run_cli(capsys, "scalar", "--rho", "0.37",
                            "--gamma", "0.081")
        record = json.loads(out)
        assert record["value_nats"] == scalar.wyner_ci_scalar(0.37, 0.081)
        assert json.loads(json.dumps(record)) == record

    @pytest.mark.parametrize("rho", ["0.5", "-0.0"])
    def test_negative_zero_budget_prints_positive_zeros(self, capsys, rho):
        code, out, _ = run_cli(capsys, "scalar", f"--rho={rho}",
                               "--gamma=-0.0")
        assert code == 0
        record = json.loads(out)
        assert out.count("-0.0") == 1 + (rho == "-0.0")  # the echo only
        assert record["inputs"]["gamma"] == 0.0
        assert math.copysign(1.0, record["inputs"]["gamma"]) == -1.0
        assert '"alpha_noise": 0.0,' in out
        assert '"leakage_nats": 0.0\n' in out


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

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "vector", "--input", str(path),
                               "--gamma", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        b"[" * 100_000,
        b'{"dim_x": ' + b"9" * 5000 + b"}",
    ], ids=["not-utf8", "nested-past-the-stack", "int-too-long"])
    def test_unparseable_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, _, err = run_cli(capsys, "vector", "--input", str(path),
                               "--gamma", "0")
        assert code == 2
        assert err.startswith("error: invalid JSON: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("payload", [
        {"kx": [[10**400]], "ky": [[1.0]], "kxy": [[0.0]]},
        {"joint": [[1.0, 0.0], [0.0, -10**400]], "dim_x": 1},
    ], ids=["blocks", "joint"])
    def test_int_too_large_for_a_float_exits_2(self, tmp_path, capsys,
                                                payload):
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "vector", "--input", str(path),
                                 "--gamma", "0.1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.endswith("int too large to convert to float\n")

    @pytest.mark.parametrize("dim_x", [1.9, True, "1", None])
    def test_split_that_is_not_whole_exits_2(self, tmp_path, capsys, dim_x):
        path = tmp_path / "cov.json"
        path.write_text(json.dumps({"joint": [[1.0, 0.5], [0.5, 1.0]],
                                    "dim_x": dim_x}))
        code, out, err = run_cli(capsys, "vector", "--input", str(path),
                                 "--gamma", "0.1")
        assert code == 2
        assert out == ""
        assert "dim_x must be a whole number" in err

    def test_json_array_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cov.json"
        path.write_text("[[1.0, 0.5], [0.5, 1.0]]")
        code, out, err = run_cli(capsys, "vector", "--input", str(path),
                                 "--gamma", "0.1")
        assert (code, out) == (2, "")
        assert err == "error: covariance file must contain a JSON object\n"

    def test_wrong_keys_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sigma": [[1.0]]}))
        code, _, _ = run_cli(capsys, "vector", "--input", str(path),
                             "--gamma", "0")
        assert code == 2

    def test_psd_violation_exits_3(self, tmp_path, capsys):
        payload = {"kx": [[1.0]], "ky": [[1.0]], "kxy": [[2.0]]}
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "vector", "--input", str(path),
                               "--gamma", "0")
        assert code == 3
        assert "eigenvalue" in err

    def test_missing_file_exits_4(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "vector", "--input",
                             str(tmp_path / "nope.json"), "--gamma", "0")
        assert code == 4


class TestCurveCommand:
    def test_reference_curve(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "curve", "--rho", "0.5",
                             "--gamma-max", "0.143", "--steps", "143",
                             "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "gamma,c_gamma_nats,lower_bound_nats"
        assert len(lines) == 145  # header + steps + 1 rows
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert rows[0][1] == pytest.approx(0.549306144, abs=1e-9)
        by_gamma = {round(g, 6): c for g, c, _ in rows}
        assert by_gamma[0.1] == pytest.approx(0.094603, abs=1e-5)
        for gamma, value, lower in rows:
            assert value >= lower - 1e-12

    def test_too_few_steps_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "curve", "--rho", "0.5",
                             "--gamma-max", "0.1", "--steps", "1",
                             "--output", str(tmp_path / "x.csv"))
        assert code == 2

    def test_infinite_gamma_max_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, out, err = run_cli(capsys, "curve", "--rho=0.5",
                                 "--gamma-max=inf", "--steps=4",
                                 f"--output={out_path}")
        assert (code, out) == (2, "")
        assert err == "error: gamma-max must be finite\n"
        assert not out_path.exists()

    def test_unwritable_path_exits_4(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "curve", "--rho", "0.5",
                             "--gamma-max", "0.1", "--steps", "10",
                             "--output", str(tmp_path / "no_dir" / "x.csv"))
        assert code == 4

    def test_negative_zero_budget_prints_positive_zeros(self, tmp_path,
                                                        capsys):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "curve", "--rho=0.5", "--gamma-max=-0.0",
                             "--steps=2", f"--output={out_path}")
        assert code == 0
        text = out_path.read_text()
        assert "-0.0" not in text
        assert [line.split(",")[0] for line in text.splitlines()[1:]] == \
            ["0.0"] * 3

    @pytest.mark.parametrize("gamma_max, steps", [("1e306", 200),
                                                  ("1.7e308", 2)])
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

    @pytest.mark.parametrize("gamma_max",
                             ["0.1", "0.7", "1e300", "1.7976931348623157e308"])
    def test_last_row_is_gamma_max(self, tmp_path, capsys, gamma_max):
        # gamma_max * steps / steps can round off the top: 0.1 at 3 steps
        # gave 0.10000000000000002, 0.7 at 3 steps 0.6999999999999998
        top = float(gamma_max)
        out_path = tmp_path / "curve.csv"
        for steps in range(2, 60):
            code, _, _ = run_cli(capsys, "curve", "--rho=0.5",
                                 f"--gamma-max={gamma_max}",
                                 f"--steps={steps}", f"--output={out_path}")
            assert code == 0
            gammas = [float(line.split(",")[0])
                      for line in out_path.read_text().splitlines()[1:]]
            assert max(gammas) <= top, steps
            assert gammas[-1] == top, steps

    def test_deterministic_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_cli(capsys, "curve", "--rho", "0.3", "--gamma-max", "0.05",
                    "--steps", "20", "--output", str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestGrayWynerCommand:
    def test_upper_boundary_zero(self, capsys):
        code, out, _ = run_cli(capsys, "graywyner", "--rho", "0.5",
                               "--sigma2", "1", "--delta", "1", "--alpha", "0")
        assert code == 0
        record = json.loads(out)
        assert record["r0_nats"] == 0.0
        assert record["regime"] == "BLEND"
        assert record["nu_star"] == pytest.approx(1.0 / 1.5, abs=1e-12)

    def test_boundary_between_branches(self, capsys):
        code, out, _ = run_cli(capsys, "graywyner", "--rho", "0.5",
                               "--sigma2", "1", "--delta", "0.5",
                               "--alpha", "0")
        assert code == 0
        record = json.loads(out)
        assert record["r0_nats"] == pytest.approx(
            0.5 * math.log(3.0), abs=1e-12)

    def test_saturated_regime_has_no_nu(self, capsys):
        code, out, _ = run_cli(capsys, "graywyner", "--rho", "0.5",
                               "--sigma2", "1", "--delta", "0.1",
                               "--alpha", "0.5")
        assert code == 0
        record = json.loads(out)
        assert record["regime"] == "SATURATED_NU"
        assert record["nu_star"] is None

    @pytest.mark.parametrize("argv, regime", [
        (["--delta=1e-300", "--alpha=0"], "SATURATED_NU"),
        (["--delta=0.1", "--alpha=800"], "INFEASIBLE_ZERO"),
        (["--sigma2=1e300", "--delta=1e-300", "--alpha=0"], "SATURATED_NU"),
        (["--sigma2=1e9", "--delta=1e-300", "--alpha=711.29"], "BLEND"),
    ])
    def test_extreme_scales_give_a_record(self, capsys, argv, regime):
        code, out, err = run_cli(capsys, "graywyner", "--rho=0.5", *argv)
        assert code == 0
        assert "Traceback" not in err
        record = json.loads(out)
        assert math.isfinite(record["r0_nats"])
        assert record["regime"] == regime
        assert (record["nu_star"] is None) == (regime != "BLEND")

    @pytest.mark.parametrize("argv", [
        ["--rho=1", "--sigma2=1e300", "--delta=1e-300", "--alpha=0"],
        ["--rho=0.9999999999", "--sigma2=1e200", "--delta=1e-200",
         "--alpha=900"],
    ])
    def test_blend_at_extreme_scales_gives_nu_star(self, capsys, argv):
        code, out, err = run_cli(capsys, "graywyner", *argv)
        assert code == 0, err
        record = json.loads(out)
        assert record["regime"] == "BLEND"
        assert math.isfinite(record["r0_nats"])
        assert math.isfinite(record["nu_star"])

    def test_nonpositive_delta_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "graywyner", "--rho", "0.5",
                             "--sigma2", "1", "--delta", "-0.1",
                             "--alpha", "0")
        assert code == 2


class TestVerifyCommand:
    def test_discrete_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "discrete")
        assert code == 0
        record = json.loads(out)
        assert record["all_passed"] is True
        for check in record["checks"]:
            assert {"name", "oracle_value", "closed_form_value", "tolerance",
                    "passed"} <= check.keys()

    def test_scalar_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "scalar")
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        from gausswyner import oracle
        failing = oracle.CheckReport(
            name="synthetic", oracle_value=1.0, closed_form_value=0.0,
            tolerance=1e-9, passed=False, details={})
        monkeypatch.setattr(oracle, "run_suite", lambda name: [failing])
        code, out, _ = run_cli(capsys, "verify", "--suite", "scalar")
        assert code == 1
        assert json.loads(out)["all_passed"] is False


class TestByteCorpus:
    """Every byte of a seeded corpus of the numpy-free commands, pinned by
    ``tests/cli_digest.py``; its ``--lines`` output lists what moved."""

    def test_corpus_matches_the_checked_in_digest(self):
        assert cli_digest.corpus_digest() == cli_digest.DIGEST


def _in_process(argv):
    """Exit code, stdout and stderr of ``cli.main(argv)`` in this process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def _take_csvs(folder):
    """The CSV files in ``folder``, by name, removed once read."""
    taken = {}
    for path in folder.glob("*.csv"):
        taken[path.name] = path.read_bytes()
        path.unlink()
    return taken


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
            code, stdout, stderr = _in_process(argv)
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


# Modules a numpy-free command must not load: numpy, dataclasses and the
# inspect it pulls in, and the allocation module none of them calls.
_HEAVY = {"numpy", "dataclasses", "inspect", "gausswyner.allocation"}
# Modules a command must not load either, because it does not run them.
_UNUSED = {"scalar": {"gausswyner.graywyner"},
           "curve": {"gausswyner.graywyner", "json"},
           "graywyner": set(),
           "verify": set()}
_ONE_NAME_OF = {module: name
                for name, module in gausswyner._MODULE_OF.items()}

# Each ``python -m gausswyner`` command that a process test runs, by name:
# its argv, its exit code and whether it loads numpy. ``{tmp}``, ``{cov}``
# and ``{indefinite}`` name the folder of the ``command`` fixture and the
# two covariance files in it.
_COMMANDS = {
    "scalar": (["scalar", "--rho=0.5", "--gamma=0.1"], 0, False),
    "graywyner": (["graywyner", "--rho=0.5", "--delta=0.75", "--alpha=0"],
                  0, False),
    "curve": (["curve", "--rho=0.5", "--gamma-max=0.1", "--steps=4",
               "--output={tmp}/curve.csv"], 0, False),
    "verify-graywyner": (["verify", "--suite=graywyner"], 0, False),
    "verify-discrete": (["verify", "--suite=discrete"], 0, False),
    "vector": (["vector", "--input={cov}", "--gamma=0.1"], 0, True),
    "verify-scalar": (["verify", "--suite=scalar"], 0, True),
    "verify-waterfill": (["verify", "--suite=waterfill"], 0, True),
    "verify-envelope": (["verify", "--suite=envelope"], 0, True),
    "argparse-error": (["scalar", "--rho=0.5"], 2, False),
    "parameter-error": (["scalar", "--rho=2", "--gamma=0.1"], 2, False),
    "indefinite-vector": (["vector", "--input={indefinite}", "--gamma=0.2"],
                          3, True),
    "unwritable-curve": (["curve", "--rho=0.5", "--gamma-max=0.1",
                          "--steps=4", "--output={tmp}/missing/curve.csv"],
                         4, False),
}
# Passes a CanonicalSpectrum to gausswyner.waterfill and runs the rest of
# the allocation module.
_ALLOCATION_RUN = (
    "import gausswyner\n"
    "from gausswyner import allocation\n"
    "spectrum = gausswyner.CanonicalSpectrum((0.9, 0.5, 0.0))\n"
    "alloc = gausswyner.waterfill(spectrum, 0.1)\n"
    "allocation.saturation_breakpoints((0.9, 0.5, 0.0))\n"
    "allocation.evaluate_allocation((0.9, 0.5, 0.0), alloc.gammas)\n")


def _argv(*names):
    return [_COMMANDS[name][0] for name in names]


class _Command(NamedTuple):
    argv: list          # the command line as run
    run: _Run           # its ``python -m gausswyner`` process
    written: dict       # the CSV files that process wrote
    main: tuple         # exit code, stdout and stderr of ``cli.main(argv)``
    main_written: dict  # the CSV files that call wrote


@pytest.fixture(scope="module")
def command(tmp_path_factory):
    """The ``_Command`` of an argv from ``_COMMANDS``. Its process starts
    once in this module, so every test that checks a command reads the
    same run."""
    folder = tmp_path_factory.mktemp("commands")
    cov = folder / "cov.json"
    cov.write_text(json.dumps({"joint": [[1.0, 0.5], [0.5, 1.0]],
                               "dim_x": 1}))
    indefinite = folder / "indefinite.json"
    indefinite.write_text(json.dumps({"kx": [[1, 0], [0, 1]],
                                      "ky": [[1, 0], [0, 1]],
                                      "kxy": [[1.3, 0], [0, 0.5]]}))
    commands = {}

    def command(argv):
        argv = [arg.format(tmp=folder, cov=cov, indefinite=indefinite)
                for arg in argv]
        if tuple(argv) not in commands:
            run = _process("-m", "gausswyner", *argv)
            written = _take_csvs(folder)
            commands[tuple(argv)] = _Command(argv, run, written,
                                             _in_process(argv),
                                             _take_csvs(folder))
        return commands[tuple(argv)]

    return command


@pytest.fixture(scope="module")
def spawned():
    """``_process(*args)``, started once per ``args`` in this module."""
    runs = {}

    def spawned(*args):
        if args not in runs:
            runs[args] = _process(*args)
        return runs[args]

    return spawned


@pytest.fixture(scope="module")
def baseline(spawned):
    """The modules that ``python -c pass`` loads under the same hook."""
    return spawned("-c", "pass").loaded


def _matches_main(cmd):
    """Whether a process gave the bytes of its in-process ``cli.main``."""
    return cmd.run[:3] == cmd.main and cmd.written == cmd.main_written


class TestColdStart:
    """Each ``python -m gausswyner`` command runs once, in a fresh
    interpreter, and that one run is checked for:

    - its bytes: the exit code, stdout, stderr and written CSV files are
      those of an in-process ``cli.main`` call;
    - its exit: ``cli.entry_point`` has frozen the collector, so that
      teardown's collections skip the objects it is about to free;
    - its imports: a numpy-free command loads nothing it does not run, and a
      numpy command loads numpy but not ``numpy.ma``.

    Loaded modules are compared with those of ``python -c pass`` under the
    same hook, so what ``site`` preloads does not count. The tests of
    ``TestExitPath``, ``TestEntryPoint`` and ``TestLazyNumpy`` read the same
    runs."""

    @pytest.mark.parametrize("argv, code, numpy", list(_COMMANDS.values()),
                             ids=list(_COMMANDS))
    def test_command(self, command, baseline, argv, code, numpy):
        cmd = command(argv)
        assert _matches_main(cmd)
        assert cmd.run.code == code
        assert cmd.run.frozen > 0
        loaded = cmd.run.loaded - baseline
        assert "gausswyner.cli" in loaded
        if numpy:
            assert "numpy" in loaded
            assert "numpy.ma" not in loaded
        else:
            assert not (_HEAVY | _UNUSED[argv[0]]) & loaded

    @pytest.mark.parametrize("argv", _argv(
        "scalar", "graywyner", "curve", "verify-graywyner",
        "verify-discrete"))
    def test_closed_form_commands(self, command, baseline, argv):
        run = command(argv).run
        assert run.code == 0, run.stderr
        loaded = run.loaded - baseline
        assert "gausswyner.cli" in loaded
        assert not (_HEAVY | _UNUSED[argv[0]]) & loaded

    def test_cli_import(self, spawned, baseline):
        run = spawned("-c", "import gausswyner.cli")
        assert run.code == 0, run.stderr
        assert "gausswyner.cli" in run.loaded
        assert not (_HEAVY | {"gausswyner.graywyner"}) & (run.loaded
                                                          - baseline)

    def test_oracle_import_loads_no_dataclasses(self, spawned, baseline):
        run = spawned("-c", "import gausswyner.oracle")
        assert run.code == 0, run.stderr
        assert "gausswyner.oracle" in run.loaded
        assert not _HEAVY & (run.loaded - baseline)

    def test_allocation_runs_without_numpy(self, spawned, baseline):
        # numpy's vectorized log1p, expm1 and log differ from the math
        # module's in the last bit on some inputs, so a numpy path could
        # not keep the scalar kernels' bits
        run = spawned("-c", _ALLOCATION_RUN)
        assert run.code == 0, run.stderr
        assert "gausswyner.allocation" in run.loaded
        assert not {"numpy", "dataclasses", "inspect"} & (run.loaded
                                                          - baseline)

    def test_package_import_loads_only_errors(self, spawned):
        run = spawned("-c", "import gausswyner")
        assert run.code == 0, run.stderr
        assert {name for name in run.loaded
                if name.startswith("gausswyner.")} == {"gausswyner.errors"}

    @pytest.mark.parametrize("module", sorted(_ONE_NAME_OF))
    def test_module_loads_on_first_access(self, spawned, baseline, module):
        run = spawned(
            "-c", "import sys, gausswyner\n"
            f"assert 'gausswyner.{module}' not in sys.modules\n"
            f"gausswyner.{_ONE_NAME_OF[module]}\n")
        assert run.code == 0, run.stderr
        assert f"gausswyner.{module}" in run.loaded
        assert ("numpy" in run.loaded - baseline) == (module == "vector")


class TestExitPath:
    """A ``gausswyner`` process runs ``cli.entry_point``, which freezes the
    collector on the way out, so that teardown's collections skip the
    objects it is about to free. Nothing a caller sees changes: each exit
    code, stdout and stderr is that of an in-process ``cli.main`` call."""

    @pytest.mark.parametrize("argv", _argv("scalar", "vector",
                                           "verify-discrete"))
    def test_collector_is_frozen_at_exit(self, command, argv):
        run = command(argv).run
        assert run.code == 0, run.stderr
        assert run.frozen > 0

    @pytest.mark.parametrize("argv, code", [
        _COMMANDS[name][:2]
        for name in ("scalar", "curve", "argparse-error", "parameter-error",
                     "indefinite-vector", "unwritable-curve", "vector")])
    def test_process_matches_in_process_main(self, command, argv, code):
        cmd = command(argv)
        assert _matches_main(cmd)
        assert cmd.run.code == code

    def test_in_process_main_leaves_the_collector_alone(self):
        frozen = gc.get_freeze_count()
        assert _in_process(["scalar", "--rho=0.5", "--gamma=0.1"])[0] == 0
        assert _in_process(["scalar", "--rho=0.5"])[0] == 2
        assert _in_process(["verify", "--suite=discrete"])[0] == 0
        assert gc.get_freeze_count() == frozen

    def test_console_script_is_the_entry_point(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert ('gausswyner = "gausswyner.cli:entry_point"'
                in pyproject.read_text(encoding="utf-8").splitlines())


class TestEntryPoint:
    def test_module_invocation(self, command):
        run = command(_COMMANDS["scalar"][0]).run
        assert run.code == 0
        record = json.loads(run.stdout)
        assert record["value_nats"] == pytest.approx(0.0946030591935194,
                                                     abs=1e-9)


class TestLazyNumpy:
    @pytest.mark.parametrize("argv", _argv("scalar", "graywyner", "curve"))
    def test_closed_form_commands_do_not_load_numpy(self, command, argv):
        run = command(argv).run
        assert run.code == 0, run.stderr
        assert "numpy" not in run.loaded

    def test_package_and_cli_import_do_not_load_numpy(self, spawned):
        run = spawned("-c", "import gausswyner.cli")
        assert run.code == 0, run.stderr
        assert {"gausswyner", "gausswyner.cli"} <= run.loaded
        assert "numpy" not in run.loaded

    def test_canonical_spectrum_does_not_load_numpy(self, spawned):
        run = spawned("-c", _ALLOCATION_RUN)
        assert run.code == 0, run.stderr
        assert "numpy" not in run.loaded
