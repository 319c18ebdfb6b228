"""The benchmark's three workloads.

Each workload makes op i from (seed, i) outside the timed interval, runs it
(the timed call into the library or the CLI), and checks the outcome against
:mod:`reference`. In a traced run it also says which spans to record and how
to turn them into per-layer metrics.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import gen
import reference as ref
from tracing import mean_ms

HERE = Path(__file__).resolve().parent
SUITES = ("scalar", "waterfill", "envelope", "graywyner", "discrete")
_VECTOR_BUCKETS = (("small", 32), ("mid", 128), ("large", math.inf))

# Every per-layer metric and its unit. A traced run reports all of them; a
# layer its workload does not reach reads 0.
PER_LAYER = {
    "cli.interpreter_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.main.{cmd}.busy_ms": "ms"
       for cmd in ("scalar", "graywyner", "curve", "vector")},
    **{f"oracle.{suite}.busy_ms": "ms" for suite in SUITES},
    **{f"vector.{layer}.{bucket}.busy_ms": "ms"
       for layer in ("validate_cov", "pinv_sqrt", "canonical_correlations",
                     "svd_derived", "wyner_ci_vector")
       for bucket, _ in _VECTOR_BUCKETS},
    "vector.reject.busy_ms": "ms",
    "vector.accepted_frac": "frac",
    "vector.matrix_entries": "count",
    "allocation.waterfill.small.busy_ms": "ms",
    "allocation.waterfill.large.busy_ms": "ms",
    "allocation.waterfill.us_per_component": "us",
    "allocation.waterfill.components": "count",
    "allocation.saturation_breakpoints.busy_ms": "ms",
    "allocation.evaluate_allocation.busy_ms": "ms",
    "allocation.waterfill.in_vector.busy_ms": "ms",
    "scalar.calls": "count",
    "scalar.us_per_call_derived": "us",
    "trace.overhead_frac": "frac",
}


class Workload:
    """Defaults for a workload that runs in-process and records no child
    spans. ``ops`` passed to :meth:`layer_metrics` is a list of
    (op index, tags, raised) for the traced ops."""

    in_process = True

    def start_trace(self, tracer) -> None:
        pass

    def child_spans(self):
        return []

    def probes(self) -> dict:
        return {}

    def close(self) -> None:
        pass


def _bucket(d: int) -> str:
    return next(name for name, hi in _VECTOR_BUCKETS if d <= hi)


def _pad(rhos, size: int) -> list[float]:
    return sorted(rhos, reverse=True) + [0.0] * (size - len(rhos))


def _opt(name: str, value) -> str:
    """``--name=value``. argparse reads a separate argument such as
    ``-9.4e-05`` as an option, not a negative number, so values are always
    joined to their flag."""
    text = repr(value) if isinstance(value, float) else str(value)
    return f"--{name}={text}"


# ---------------------------------------------------------------------------
# vector-blocks
# ---------------------------------------------------------------------------

class VectorBlocks(Workload):
    """``wyner_ci_vector`` on planted-spectrum covariances, d from 8 to 384."""

    name = "vector-blocks"
    tag = 2

    def __init__(self, root, env):
        from gausswyner import errors, vector
        self.vector = vector
        self.covariance_error = errors.CovarianceError

    def make(self, seed, i):
        rng = gen.op_rng(seed, self.tag, i)
        if i == gen.WARMUP_INDEX:
            d, invalid = 32, None
        else:
            d = gen.log_uniform_int(gen.stratified(seed, self.tag, i), 8, 384)
            invalid = (None if i % 10 != 9 else
                       ("asymmetric", "indefinite", "nonfinite")[i // 10 % 3])
        # Shape variants by op index, so every run has the same share:
        # 30% dx != dy, 20% rank-deficient blocks.
        other = d
        if i % 10 in (1, 4, 7):
            other = max(2, int(round(d * rng.uniform(0.4, 1.0))))
        dx, dy = (d, other) if rng.random() < 0.5 else (other, d)
        rank_x, rank_y = dx, dy
        if i % 10 in (2, 6):
            rank_x = max(1, int(dx * rng.uniform(0.5, 0.9)))
            rank_y = max(1, int(dy * rng.uniform(0.5, 0.9)))
        rhos = gen.correlations(rng, min(rank_x, rank_y))
        gamma = float(rng.uniform(0.0, 1.2)) * sum(map(ref.mutual_info, rhos))
        if invalid == "indefinite":
            rhos[0] = 1.3
        kx, kxy, ky = gen.planted_cov(rng, dx, dy, rhos, rank_x, rank_y)
        if invalid == "asymmetric":
            kx[0, -1] += 1e-3 * abs(kx).max()
        elif invalid == "nonfinite":
            kxy[0, 0] = math.nan
        return {
            "cov": self.vector.JointGaussianCov(kx, kxy, ky),
            "gamma": gamma,
            "rhos": _pad(rhos, max(dx, dy)),
            "invalid": invalid,
            "tags": {"d": d, "entries": (dx + dy) ** 2},
        }

    def run(self, op):
        return self.vector.wyner_ci_vector(op["cov"], op["gamma"])

    def check(self, op, result, exc):
        if op["invalid"]:
            return isinstance(exc, self.covariance_error)
        if exc is not None:
            return False
        value, spectrum, _ = result
        want = ref.waterfill(op["rhos"], op["gamma"])["value"]
        return (len(spectrum.rhos) == len(op["rhos"])
                and all(ref.close(got, rho, 0.0, 1e-9)
                        for got, rho in zip(spectrum.rhos, op["rhos"]))
                and ref.close(value, want, 1e-9, 1e-9))

    def start_trace(self, tracer):
        v = self.vector
        tracer.patch(v, "wyner_ci_vector", "vector.wyner_ci_vector")
        tracer.patch(v, "canonical_correlations", "vector.canonical_correlations")
        tracer.patch(v, "validate_cov", "vector.validate_cov")
        tracer.patch(v, "pinv_sqrt", "vector.pinv_sqrt")
        tracer.patch(v, "waterfill", "allocation.waterfill")

    def layer_metrics(self, times, ops):
        accepted = [i for i, _, raised in ops if not raised]
        out = {}
        for bucket, _ in _VECTOR_BUCKETS:
            ids = [i for i, tags, raised in ops
                   if not raised and _bucket(tags["d"]) == bucket]
            for layer in ("validate_cov", "pinv_sqrt", "canonical_correlations",
                          "wyner_ci_vector"):
                out[f"vector.{layer}.{bucket}.busy_ms"] = mean_ms(
                    times, f"vector.{layer}", ids)
            # canonical_correlations minus its validate and pinv children
            out[f"vector.svd_derived.{bucket}.busy_ms"] = mean_ms(
                times, "vector.canonical_correlations", ids, self_time=True)
        out["vector.reject.busy_ms"] = mean_ms(
            times, "vector.wyner_ci_vector",
            [i for i, _, raised in ops if raised])
        out["vector.accepted_frac"] = len(accepted) / len(ops)
        out["vector.matrix_entries"] = sum(t["entries"] for _, t, _ in ops)
        out["allocation.waterfill.in_vector.busy_ms"] = mean_ms(
            times, "allocation.waterfill", accepted)
        return out


# ---------------------------------------------------------------------------
# spectrum-waterfill
# ---------------------------------------------------------------------------

class SpectrumWaterfill(Workload):
    """waterfill, saturation_breakpoints and evaluate_allocation on spectra
    of 64 to 4096 components."""

    name = "spectrum-waterfill"
    tag = 3

    def __init__(self, root, env):
        from gausswyner import allocation
        self.allocation = allocation

    def make(self, seed, i):
        rng = gen.op_rng(seed, self.tag, i)
        if i == gen.WARMUP_INDEX:
            n = 256
        else:
            n = gen.log_uniform_int(gen.stratified(seed, self.tag, i), 64, 4096)
        rhos = gen.correlations(rng, n, high=0.999)
        if i % 20 == 7:
            rhos[0] = 1.0
        finite_cap = sum(ref.mutual_info(r) for r in rhos if r < 1.0)
        regime = i % 10
        if regime == 0:
            gamma = 0.0
        elif regime == 9:   # beyond the total cap: the slack path
            gamma = finite_cap * float(rng.uniform(1.05, 1.5))
        else:
            # How long the bisection runs depends on n and on gamma's share
            # of the cap together; drawing both from one 2-D sequence keeps
            # that mix the same in every run.
            share = gen.stratified(seed, self.tag, i, dim=1)
            gamma = finite_cap * (0.02 + 0.96 * share)
        return {"rhos": tuple(rhos), "gamma": gamma, "tags": {"n": n}}

    def run(self, op):
        a = self.allocation
        alloc = a.waterfill(op["rhos"], op["gamma"])
        breaks = a.saturation_breakpoints(op["rhos"])
        return alloc, breaks, a.evaluate_allocation(op["rhos"], alloc.gammas)

    def check(self, op, result, exc):
        if exc is not None:
            return False
        alloc, breaks, evaluated = result
        rhos, gamma = op["rhos"], op["gamma"]
        want = ref.waterfill(rhos, gamma)
        caps = want["caps"]
        if len(alloc.gammas) != len(rhos):
            return False
        if want["spend"] is None:   # every component saturates
            ok = (all(alloc.saturated)
                  and all(ref.close(g, c) for g, c in zip(alloc.gammas, caps))
                  and ref.close(alloc.slack, want["slack"])
                  and alloc.total_value == 0.0)
        else:
            # The water level is bisected to 1e-12 in budget space; past
            # that, a sum of n floats is only exact to about n * eps.
            tol = 1e-12 + 4 * len(rhos) * ref.EPS * max(gamma, 1.0)
            budget = ref.log_cosh(alloc.water_level_beta)
            ok = (abs(sum(alloc.gammas) - gamma) <= tol
                  and all(g <= c * (1 + 1e-12) for g, c in zip(alloc.gammas, caps))
                  and all(ref.close(g, budget)
                          for g, sat in zip(alloc.gammas, alloc.saturated)
                          if not sat)
                  and ref.close(alloc.total_value, want["value"]))
        return (ok and ref.close(evaluated, alloc.total_value)
                and len(breaks) == len(rhos)
                and all(ref.close(b, w)
                        for b, w in zip(breaks, ref.breakpoints(rhos))))

    def start_trace(self, tracer):
        a = self.allocation
        for attr in ("waterfill", "saturation_breakpoints", "evaluate_allocation"):
            tracer.patch(a, attr, f"allocation.{attr}")

    def layer_metrics(self, times, ops):
        ids = [i for i, _, _ in ops]
        total_n = sum(t["n"] for _, t, _ in ops)

        def total_s(name):
            return sum(times[(i, name)][0] for i in ids if (i, name) in times)

        out = {
            f"allocation.waterfill.{bucket}.busy_ms": mean_ms(
                times, "allocation.waterfill",
                [i for i, t, _ in ops if (t["n"] <= 256) == (bucket == "small")])
            for bucket in ("small", "large")
        }
        out["allocation.waterfill.us_per_component"] = (
            1e6 * total_s("allocation.waterfill") / total_n)
        out["allocation.waterfill.components"] = total_n
        for name in ("saturation_breakpoints", "evaluate_allocation"):
            out[f"allocation.{name}.busy_ms"] = mean_ms(
                times, f"allocation.{name}", ids)
        # evaluate_allocation makes one wyner_ci_scalar call per component
        out["scalar.calls"] = total_n / len(ops)
        out["scalar.us_per_call_derived"] = (
            1e6 * total_s("allocation.evaluate_allocation") / total_n)
        return out


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

class CliMix(Workload):
    """Fresh ``python -m gausswyner`` processes over a fixed command mix."""

    name = "cli-mix"
    tag = 1
    in_process = False
    # scalar 30%, graywyner 20%, vector 15%, verify 20%, curve 15%
    _CYCLE = (("scalar",) * 6 + ("graywyner",) * 4 + ("vector",) * 3
              + ("verify",) * 4 + ("curve",) * 3)

    def __init__(self, root, env):
        self.root, self.env = root, env
        self.traced = False
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-mix-",
                                         dir=root / ".bench_out"))
        self._span_file = self.tmp / "spans.json"

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def make(self, seed, i):
        rng = gen.op_rng(seed, self.tag, i)
        if i == gen.WARMUP_INDEX:
            return self._scalar(rng, i)
        cycle, pos = divmod(i, len(self._CYCLE))
        order = gen.op_rng(seed, self.tag, 2 ** 32 + cycle).permutation(
            len(self._CYCLE))
        kinds = [self._CYCLE[k] for k in order]
        if kinds[pos] == "verify":
            n = cycle * self._CYCLE.count("verify") + kinds[:pos].count("verify")
            return self._verify(SUITES[n % len(SUITES)])
        return getattr(self, "_" + kinds[pos])(rng, i)

    def _scalar(self, rng, i):
        rho = float(rng.uniform(-0.99, 0.99))
        gamma = float(rng.uniform(0.0, 1.2)) * ref.mutual_info(rho)
        bits = bool(rng.random() < 1 / 3)
        argv = ["scalar", _opt("rho", rho), _opt("gamma", gamma)]
        return {"argv": argv + ["--bits"] * bits, "rc": 0, "rho": rho,
                "gamma": gamma, "bits": bits, "tags": {"kind": "scalar"}}

    def _graywyner(self, rng, i):
        rho = float(rng.uniform(-0.95, 0.95))
        r = abs(rho)
        sigma2 = float(math.exp(rng.uniform(math.log(0.5), math.log(4.0))))
        alpha = float(rng.uniform(0.0, 1.0))
        u, w = rng.random(), float(rng.uniform(0.05, 0.95))
        # distortion product in each regime: saturated, blended, zero rate
        d = (w * (1 - r) if u < 1 / 3 else
             (1 - r) + w * r if u < 2 / 3 else 1.05 + w)
        delta = d * sigma2 * math.exp(-alpha)
        argv = ["graywyner", _opt("rho", rho), _opt("sigma2", sigma2),
                _opt("delta", delta), _opt("alpha", alpha)]
        return {"argv": argv, "rc": 0,
                "want": ref.graywyner(sigma2, rho, delta, alpha),
                "tags": {"kind": "graywyner"}}

    def _vector(self, rng, i):
        dx, dy = (int(v) for v in rng.integers(2, 9, size=2))
        rhos = gen.correlations(rng, min(dx, dy))
        gamma = float(rng.uniform(0.0, 1.2)) * sum(map(ref.mutual_info, rhos))
        invalid = rng.random() < 0.3
        if invalid:
            rhos[0] = 1.3
        kx, kxy, ky = gen.planted_cov(rng, dx, dy, rhos, dx, dy)
        if invalid and rng.random() < 0.5:
            kx[0, 1] += 0.1 * abs(kx).max()
        if rng.random() < 0.5:
            payload = {"kx": kx.tolist(), "ky": ky.tolist(), "kxy": kxy.tolist()}
        else:
            joint = np.block([[kx, kxy], [kxy.T, ky]])
            payload = {"joint": joint.tolist(), "dim_x": dx}
        path = self.tmp / f"cov-{i % 4}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return {"argv": ["vector", _opt("input", path), _opt("gamma", gamma)],
                "rc": 3 if invalid else 0, "rhos": _pad(rhos, max(dx, dy)),
                "gamma": gamma, "tags": {"kind": "vector"}}

    def _verify(self, suite):
        return {"argv": ["verify", _opt("suite", suite)], "rc": 0,
                "tags": {"kind": "verify", "suite": suite}}

    def _curve(self, rng, i):
        rho = float(rng.uniform(-0.99, 0.99))
        gamma_max = float(rng.uniform(0.1, 1.5)) * ref.mutual_info(rho)
        steps = int(rng.integers(20, 201))
        path = self.tmp / f"curve-{i % 4}.csv"
        path.unlink(missing_ok=True)
        argv = ["curve", _opt("rho", rho), _opt("gamma-max", gamma_max),
                _opt("steps", steps), _opt("output", path)]
        return {"argv": argv, "rc": 0, "rho": rho, "gamma_max": gamma_max,
                "steps": steps, "path": path, "tags": {"kind": "curve"}}

    def run(self, op):
        if self.traced:
            cmd = [sys.executable, str(HERE / "cli_traced.py"),
                   str(self._span_file)]
        else:
            cmd = [sys.executable, "-m", "gausswyner"]
        return subprocess.run(cmd + op["argv"], capture_output=True, text=True,
                              env=self.env, cwd=self.root, timeout=60)

    def check(self, op, proc, exc):
        if exc is not None or proc.returncode != op["rc"]:
            return False
        if "Traceback" in proc.stderr:
            return False
        kind = op["tags"]["kind"]
        if op["rc"] != 0:
            return proc.stderr.startswith("error:") and not proc.stdout
        if kind == "curve":
            return self._check_curve(op)
        record = json.loads(proc.stdout)
        if kind == "scalar":
            return self._check_scalar(op, record)
        if kind == "graywyner":
            r0, regime, nu = op["want"]
            return (ref.close(record["r0_nats"], r0) and record["regime"] == regime
                    and (record["nu_star"] is None if nu is None
                         else ref.close(record["nu_star"], nu)))
        if kind == "vector":
            want = ref.waterfill(op["rhos"], op["gamma"])["value"]
            return (ref.close(record["value_nats"], want, 1e-9, 1e-9)
                    and len(record["spectrum"]) == len(op["rhos"])
                    and all(ref.close(got, rho, 0.0, 1e-9)
                            for got, rho in zip(record["spectrum"], op["rhos"])))
        return (record["all_passed"] is True and len(record["checks"]) > 0
                and all(check["passed"] is True for check in record["checks"]))

    @staticmethod
    def _check_scalar(op, record):
        rho, gamma = op["rho"], op["gamma"]
        unit, div = ("bits", math.log(2.0)) if op["bits"] else ("nats", 1.0)
        value = ref.relaxed_ci(rho, gamma)
        if not ref.close(record[f"value_{unit}"], value / div):
            return False
        r = abs(rho)
        ach = record["achievability"]
        if gamma > ref.mutual_info(r):
            return ach is None
        alpha = min(math.sqrt(-math.expm1(-2.0 * gamma)), r)
        return (ach is not None
                and ref.close(ach["alpha_noise"], alpha)
                and ref.close(ach["sigma2_w"], (r - alpha) / (1.0 - alpha))
                and ref.close(ach[f"rate_{unit}"], value / div)
                and ref.close(ach[f"leakage_{unit}"], gamma / div))

    @staticmethod
    def _check_curve(op):
        lines = op["path"].read_text(encoding="utf-8").split("\n")
        if lines[0] != "gamma,c_gamma_nats,lower_bound_nats" or lines[-1] != "":
            return False
        rows = [row.split(",") for row in lines[1:-1]]
        if len(rows) != op["steps"] + 1:
            return False
        rho, cap = op["rho"], ref.mutual_info(op["rho"])
        for j, row in enumerate(rows):
            gamma = op["gamma_max"] * j / op["steps"]
            got = [float(field) for field in row]
            if not (ref.close(got[0], gamma)
                    and ref.close(got[1], ref.relaxed_ci(rho, gamma))
                    and ref.close(got[2], max(cap - gamma, 0.0))):
                return False
        return True

    def start_trace(self, tracer):
        self.traced = True

    def child_spans(self):
        """Spans that cli_traced.py wrote for the op that just ended."""
        if not self.traced or not self._span_file.exists():
            return []
        spans = json.loads(self._span_file.read_text(encoding="utf-8"))
        self._span_file.unlink()
        return spans

    def probes(self, reps: int = 7) -> dict:
        """Fresh-interpreter floor and import costs, medians of ``reps``."""
        commands = {"pass": "pass", "numpy": "import numpy",
                    "cli": "import gausswyner.cli"}
        samples = {key: [] for key in commands}
        for _ in range(reps):
            for key, code in commands.items():
                start = perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env,
                               cwd=self.root, check=True, capture_output=True,
                               timeout=60)
                samples[key].append(1e3 * (perf_counter() - start))
        floor = median(samples["pass"])
        return {"cli.interpreter_ms": floor,
                "cli.import_numpy_ms": median(samples["numpy"]) - floor,
                "cli.import_ms": median(samples["cli"]) - floor}

    def layer_metrics(self, times, ops):
        out = {}
        for kind in ("scalar", "graywyner", "curve", "vector"):
            out[f"cli.main.{kind}.busy_ms"] = mean_ms(
                times, "cli.main", [i for i, t, _ in ops if t["kind"] == kind])
        for suite in SUITES:
            out[f"oracle.{suite}.busy_ms"] = mean_ms(
                times, "cli.main",
                [i for i, t, _ in ops if t.get("suite") == suite])
        return out


WORKLOADS = {w.name: w for w in (CliMix, VectorBlocks, SpectrumWaterfill)}
