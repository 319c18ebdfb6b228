"""Command-line contract: JSON records, CSV output, exit codes, determinism."""

import json
import math
import subprocess
import sys

import pytest

from gausswyner import cli, scalar

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

    def test_unwritable_path_exits_4(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "curve", "--rho", "0.5",
                             "--gamma-max", "0.1", "--steps", "10",
                             "--output", str(tmp_path / "no_dir" / "x.csv"))
        assert code == 4

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
            tolerance=1e-9, passed=False)
        monkeypatch.setattr(oracle, "run_suite", lambda name: [failing])
        code, out, _ = run_cli(capsys, "verify", "--suite", "scalar")
        assert code == 1
        assert json.loads(out)["all_passed"] is False


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gausswyner", "scalar", "--rho", "0.5",
             "--gamma", "0.1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["value_nats"] == pytest.approx(0.0946030591935194,
                                                     abs=1e-9)
