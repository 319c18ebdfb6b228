"""Benchmark worker: runs one workload in its own process.

Started by ``run.py`` as ``python worker.py WORKLOAD SEED``. It imports what
the workload needs, runs one untimed warm-up op, and prints one JSON line
``{"gen_s": ...}`` (the time spent generating inputs, which set-up time
excludes). It then reads one line from stdin: ``exit``, or a JSON request
``{"seconds": s, "trace": 0|1}``, and answers with one JSON result line.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

from tracing import Tracer, per_op_times

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
# Workloads that call the library in this process; its import is set-up.
IN_PROCESS = ("vector-blocks", "spectrum-waterfill")
MAX_LOOP_S = 120.0   # keeps a slow machine inside the per-run time limit
MIN_OPS = 100        # p90 needs at least ten samples beyond it
E2E_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _call(workload, op):
    try:
        return workload.run(op), None
    except Exception as exc:   # the check decides whether it was expected
        return None, exc


def _checked(workload, op, result, exc, i) -> bool:
    try:
        ok = workload.check(op, result, exc)
    except Exception as error:   # a malformed result is a failed op
        ok, exc = False, exc or error
    if not ok:
        print(f"op {i} failed: {op['tags']} {exc!r}", file=sys.stderr)
    return ok


def _cpu_s(in_process: bool) -> float:
    """CPU seconds so far of the processes doing the work: this one, or its
    waited-for children."""
    if in_process:
        return process_time()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class SpeedProbe:
    """A fixed computation the benchmark owns, timed between ops to measure
    how fast the host runs right now.

    Other processes on a shared host slow every op alike, by up to 1.7x for
    seconds to minutes at a time. The probe slows with them, so each op's
    times are divided by the current :meth:`slowdown`: they read as if the
    host ran at the speed at which the probe takes ``REFERENCE_S``. The probe
    does pure-Python float work and a small symmetric eigendecomposition,
    the two kinds of work the library does.
    """

    # Its median within benchmark runs on the 2-core 2.1 GHz VM on which the
    # benchmark was defined (Python 3.11, numpy 2.4, OpenBLAS, one thread).
    REFERENCE_S = 0.6e-3
    EVERY_S = 0.1
    WINDOW = 5   # samples in the running median

    def __init__(self):
        import numpy as np
        self._np = np
        self._xs = [k / 4096 for k in range(4096)]
        a = np.random.default_rng(0).standard_normal((48, 48))
        self._m = a @ a.T
        self._samples = []
        self._last = -math.inf

    def slowdown(self) -> float:
        """Probe time over ``REFERENCE_S``, as a running median of the last
        ``WINDOW`` samples; takes a sample first if ``EVERY_S`` has passed."""
        now = perf_counter()
        if now - self._last >= self.EVERY_S:
            total = 0.0
            for x in self._xs:
                total += math.log1p(x) * x
            self._np.linalg.eigvalsh(self._m)
            self._last = perf_counter()
            self._samples.append(self._last - now)
        window = self._samples[-self.WINDOW:]
        return statistics.median(window) / self.REFERENCE_S


def measure(workload, seed: int, seconds: float, min_ops: int, tracer=None):
    """Closed loop, one client: make op i, time the call, check it, repeat
    until ``seconds`` have passed and ``min_ops`` ops (at least two) are
    done. Each op's wall and CPU time are divided by the host slowdown
    measured just before it (see :class:`SpeedProbe`)."""
    latencies, cpu, slowdowns, ops = [], [], [], []
    failed = 0
    min_ops = max(min_ops, 2)
    probe = SpeedProbe()
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and i >= min_ops):
            break
        slow = probe.slowdown()
        op = workload.make(seed, i)
        if tracer is not None:
            tracer.op = i
            span = tracer.begin("op")
        c0, t0 = _cpu_s(workload.in_process), perf_counter()
        result, exc = _call(workload, op)
        t1, c1 = perf_counter(), _cpu_s(workload.in_process)
        if tracer is not None:
            tracer.end(span)
            for name, begin, end in workload.child_spans():
                tracer.add(name, begin, end, span)
        latencies.append((t1 - t0) / slow)
        cpu.append((c1 - c0) / slow)
        slowdowns.append(slow)
        failed += not _checked(workload, op, result, exc, i)
        ops.append((i, op["tags"], exc is not None))
        i += 1
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:   # the largest child so far
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "attempted": len(ops),
        "failed": failed,
        "ops": ops,
        "slowdown": statistics.fmean(slowdowns),
        "metrics": {
            "throughput_ops_s": (len(ops) - failed) / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
            "cpu_ms_per_op": 1e3 * statistics.fmean(cpu),
            "peak_rss_mb": peak_kb / 1024.0,
        },
    }


def traced_run(workload, name: str, seed: int, seconds: float) -> dict:
    """Half the time untraced, then half traced on the same op sequence;
    per-layer metrics come from the traced half's spans."""
    from workloads import PER_LAYER

    plain = measure(workload, seed, seconds / 2, 0)
    tracer = Tracer()
    workload.start_trace(tracer)
    try:
        traced = measure(workload, seed, seconds / 2, 0, tracer)
    finally:
        tracer.restore()
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(workload.layer_metrics(per_op_times(tracer.spans),
                                         traced["ops"]))
    layers.update(workload.probes())
    layers["trace.overhead_frac"] = 1.0 - (
        traced["metrics"]["throughput_ops_s"]
        / plain["metrics"]["throughput_ops_s"])
    tracer.write(OUT_DIR / f"spans-{name}-{seed}.json")
    return {"attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "slowdown": plain["slowdown"],
            "metrics": layers}


def environment() -> dict:
    import numpy
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):   # numpy < 1.26 has no dict form
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {key: os.environ.get(key)
                    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    if name in IN_PROCESS:
        import gausswyner
        if Path(gausswyner.__file__).resolve().parents[1] != ROOT / "src":
            print(f"gausswyner imported from {gausswyner.__file__}, "
                  f"not from {ROOT / 'src'}", file=sys.stderr)
            return 2
    start = perf_counter()
    import gen
    from workloads import WORKLOADS
    workload = WORKLOADS[name](ROOT, dict(os.environ))
    try:
        op = workload.make(seed, gen.WARMUP_INDEX)
        gen_s = perf_counter() - start
        result, exc = _call(workload, op)
        warmup_ok = _checked(workload, op, result, exc, gen.WARMUP_INDEX)
        _emit({"gen_s": gen_s})
        request = sys.stdin.readline().strip()
        if request in ("", "exit"):
            return 0
        request = json.loads(request)
        if request["trace"]:
            from workloads import PER_LAYER as units
            out = traced_run(workload, name, seed, request["seconds"])
        else:
            units = E2E_UNITS
            out = measure(workload, seed, request["seconds"], MIN_OPS)
            del out["ops"]
        out["metrics"] = {key: {"value": value, "unit": units[key]}
                          for key, value in out["metrics"].items()}
        out["attempted"] += 1
        out["failed"] += not warmup_ok
        out["env"] = environment()
        _emit(out)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
