"""Tests of the benchmark itself: its generator, its checks and its names.

    python -m pytest bench -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _whitened_spectrum(kx, kxy, ky):
    """Canonical correlations by eigendecomposition, independent of both the
    generator and the library."""
    def inv_sqrt(m):
        values, vectors = np.linalg.eigh(m)
        keep = values > 1e-10 * values[-1]
        return (vectors[:, keep] / np.sqrt(values[keep])) @ vectors[:, keep].T
    s = np.linalg.svd(inv_sqrt(kx) @ kxy @ inv_sqrt(ky), compute_uv=False)
    s = np.concatenate([s, np.zeros(max(kx.shape[0], ky.shape[0]) - len(s))])
    return np.sort(np.where(s > 1e-9, s, 0.0))[::-1]


@pytest.mark.parametrize("dx, dy, rank_x, rank_y", [
    (5, 5, 5, 5), (7, 3, 7, 3), (3, 7, 3, 7), (9, 6, 5, 4), (40, 40, 25, 40)])
def test_generator_plants_the_requested_spectrum(dx, dy, rank_x, rank_y):
    rng = np.random.default_rng([dx, dy, rank_x, rank_y])
    rhos = gen.correlations(rng, min(rank_x, rank_y))
    kx, kxy, ky = gen.planted_cov(rng, dx, dy, rhos, rank_x, rank_y)
    assert np.allclose(kx, kx.T) and np.allclose(ky, ky.T)
    assert np.linalg.matrix_rank(kx) == rank_x
    want = sorted(rhos, reverse=True) + [0.0] * (max(dx, dy) - len(rhos))
    np.testing.assert_allclose(_whitened_spectrum(kx, kxy, ky), want,
                               atol=1e-10)


def test_reference_waterfill_spends_the_budget():
    rhos = [0.95, 0.9, 0.6, 0.6, 0.3, 0.0]
    caps = [ref.mutual_info(r) for r in rhos]
    for gamma in (0.0, 0.05, 0.4, 1.0, 0.99 * sum(caps)):
        out = ref.waterfill(rhos, gamma)
        spent = sum(min(out["spend"], cap) for cap in caps)
        assert spent == pytest.approx(gamma, abs=1e-12)
        assert ref.log_cosh(out["beta"]) == pytest.approx(out["spend"],
                                                          abs=1e-12)
    assert ref.waterfill(rhos, 2 * sum(caps))["slack"] == pytest.approx(
        sum(caps))


def _ops(workload, kind_of, wanted, seed=3):
    """First op of each wanted kind, keyed by kind."""
    found = {}
    for i in range(200):
        op = workload.make(seed, i)
        found.setdefault(kind_of(op), op)
        if wanted <= found.keys():
            return found
    raise AssertionError(f"no op of kinds {wanted - found.keys()}")


def test_perturbed_vector_result_fails():
    workload = workloads.VectorBlocks(ROOT, {})
    ops = _ops(workload, lambda op: op["invalid"] or "valid",
               {"valid", "asymmetric", "indefinite", "nonfinite"})
    result = workload.run(ops["valid"])
    assert workload.check(ops["valid"], result, None)
    value, spectrum, alloc = result
    assert not workload.check(ops["valid"], (value * (1 + 1e-6), spectrum, alloc),
                              None)
    shifted = type(spectrum)((spectrum.rhos[0] * (1 - 1e-6),) + spectrum.rhos[1:])
    assert not workload.check(ops["valid"], (value, shifted, alloc), None)
    for invalid in ("asymmetric", "indefinite", "nonfinite"):
        op = ops[invalid]
        assert not workload.check(op, result, None)   # accepted: a failure
        with pytest.raises(workload.covariance_error) as caught:
            workload.run(op)
        assert workload.check(op, None, caught.value)
        assert not workload.check(op, None, ValueError("other"))


def test_perturbed_allocation_fails():
    workload = workloads.SpectrumWaterfill(ROOT, {})
    op = workload.make(3, 1)
    alloc, breaks, evaluated = workload.run(op)
    assert workload.check(op, (alloc, breaks, evaluated), None)
    gammas = list(alloc.gammas)
    gammas[0] *= 1 + 1e-6
    bad = [
        (alloc.__class__(tuple(gammas), alloc.water_level_beta,
                         alloc.total_value, alloc.saturated), breaks, evaluated),
        (alloc, breaks, evaluated * (1 + 1e-6)),
        (alloc, breaks[:-1], evaluated),
    ]
    for result in bad:
        assert not workload.check(op, result, None)
    assert not workload.check(op, None, RuntimeError("boom"))


def test_perturbed_cli_output_fails(tmp_path):
    (tmp_path / ".bench_out").mkdir()
    workload = workloads.CliMix(tmp_path, {})
    try:
        ops = _ops(workload, lambda op: op["tags"]["kind"],
                   {"scalar", "verify", "curve"})
        op = ops["scalar"]
        value = ref.relaxed_ci(op["rho"], op["gamma"])
        unit = "bits" if op["bits"] else "nats"
        record = {f"value_{unit}": value / (np.log(2) if op["bits"] else 1),
                  "achievability": None}

        def proc(rec, rc=0, err=""):
            return subprocess.CompletedProcess([], rc, json.dumps(rec), err)

        if op["gamma"] <= ref.mutual_info(op["rho"]):
            op = dict(op, gamma=2 * ref.mutual_info(op["rho"]))
            record[f"value_{unit}"] = 0.0
        assert workload.check(op, proc(record), None)
        assert not workload.check(op, proc(record, rc=1), None)
        assert not workload.check(op, proc(record, err="Traceback (most"), None)
        record[f"value_{unit}"] += 1e-6
        assert not workload.check(op, proc(record), None)
        verify = {"all_passed": False, "checks": [{"passed": False}]}
        assert not workload.check(ops["verify"], proc(verify), None)
        # exit code 0 but no CSV written
        assert not worker._checked(workload, ops["curve"], proc({}), None, 0)
    finally:
        workload.close()


def test_cli_argv_passes_negative_exponent_values(tmp_path, capsys):
    """A value such as -9.4e-05 given as its own argument reads to argparse
    as an option; the workload's argv must still parse."""
    from gausswyner import cli
    (tmp_path / ".bench_out").mkdir()
    workload = workloads.CliMix(tmp_path, {})
    try:
        op = workload.make(909362861, 106)
        assert "--rho=-9.39500604103527e-05" in op["argv"]
        assert cli.main(op["argv"]) == 0
        out = capsys.readouterr().out
        assert workload.check(op, subprocess.CompletedProcess([], 0, out, ""),
                              None)
    finally:
        workload.close()


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {"setup_s": "s", **worker.E2E_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    for name in list(e2e) + list(workloads.PER_LAYER) + list(run.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert set(worker.IN_PROCESS) == {
        name for name, w in workloads.WORKLOADS.items() if w.in_process}
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
