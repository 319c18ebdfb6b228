"""gausswyner benchmark: one command, three checked workloads.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn. Each workload runs in a
fresh worker process (``worker.py``) with one closed-loop client. With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. Run from the root of a source checkout: the library is imported
from ``src/``, and scratch files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-mix", "vector-blocks", "spectrum-waterfill")
# Set-up is timed this many times per run and reported as the median; the
# last worker started goes on to run the measurement.
SETUP_REPS = 7
RUN_TIMEOUT_S = 160.0


def bench_env() -> dict:
    """Environment of the worker and every CLI child: the checkout's
    ``src`` first on the path, and single-threaded BLAS (two OpenBLAS threads
    on two cores made small decompositions up to 20x slower and noisy)."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Time set-up SETUP_REPS times, then run the measurement in the last
    worker. Set-up is spawn to end of the warm-up op, minus input
    generation, scaled like every end-to-end time by the measurement's
    host slowdown (see worker.SpeedProbe)."""
    env = bench_env()
    setups = []
    procs = []
    try:
        for rep in range(SETUP_REPS):
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), name, str(seed)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env=env, cwd=ROOT)
            procs.append(proc)
            line = proc.stdout.readline()
            ready = perf_counter()
            if not line:
                raise RuntimeError(f"{name} worker exited during set-up")
            setups.append(ready - start - json.loads(line)["gen_s"])
            if rep < SETUP_REPS - 1:
                proc.communicate("exit\n", timeout=30)
        request = json.dumps({"seconds": seconds, "trace": trace})
        out, _ = procs[-1].communicate(request + "\n", timeout=RUN_TIMEOUT_S)
        if procs[-1].returncode != 0 or not out.strip():
            raise RuntimeError(f"{name} worker failed "
                               f"(exit code {procs[-1].returncode})")
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        for proc in procs:
            _stop(proc)
    if not trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups) / result["slowdown"],
                        "unit": "s"},
            **result["metrics"]}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "gausswyner" / "__init__.py").is_file():
        print(f"error: no gausswyner sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    (ROOT / ".bench_out").mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        env = result["env"]
        print(f"# {name}: seed {args.seed}, {args.seconds:g} s, trace "
              f"{args.trace}; {result['attempted']} ops, {result['failed']} "
              f"failed (ops_failed_frac "
              f"{result['failed'] / result['attempted']:.4g}); set-up median "
              f"of {SETUP_REPS}; host slowdown {result['slowdown']:.3f}")
        print(f"# env: nproc {env['nproc']}, python {env['python']}, numpy "
              f"{env['numpy']}, blas {env['blas']}, threads {env['threads']}")
        for key, metric in result["metrics"].items():
            print(f"{key:45s} {metric['value']:14.6g} {metric['unit']}")
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else name + "."
        total["metrics"].update(
            {prefix + key: metric for key, metric in result["metrics"].items()})
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
