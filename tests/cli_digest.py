"""A seeded corpus of the command-line invocations that load no numpy, and
the digest of their bytes.

Each invocation runs ``cli.main`` in this process: ``--version``,
``scalar`` (with and without ``--bits``), ``graywyner`` in all three
regimes (|rho| near 1 and sigma2 at 10^+-300 included), ``curve``,
``verify`` with each ``--suite``,
the usage errors these report with exit code 2, and a ``curve`` whose
output folder is missing (exit code 4). One SHA-256 over the ``repr`` of every
invocation's argv, exit code, stdout, stderr and written CSV pins every
byte. ``--help`` and argparse's own errors are left out, because their
text differs across Python 3.10-3.13. The argv are drawn without calling
the library, so two checkouts run the same corpus. As a script,
``PYTHONPATH=src python tests/cli_digest.py [--lines]`` checks the digest
without pytest, or prints one line per invocation (see ``corpus.py``).
"""

import math
import os
import random
import tempfile

import corpus

SEED = 2107
INVOCATIONS = 400
DIGEST = "aa5c6e447a0c8376b64c4eec9d8738cb5e18e47dc75aab833be7c926f16d1bdc"

# "{out}" stands for the CSV path, in a fresh folder on each run, in stderr too
_OUT = "{out}"


def _correlation(rng):
    """Uniform on (-1, 1), log-uniform down to 1e-300, within 1e-1 to 1e-16
    of +-1, or an edge: a signed zero, +-1, the clamp band, or a value that
    is rejected."""
    kind = rng.randrange(8)
    sign = rng.choice((1.0, -1.0))
    if kind < 3:
        return rng.uniform(-1.0, 1.0)
    if kind == 3:
        return sign * 10.0 ** (-300.0 * rng.random())
    if kind < 6:
        return sign * (1.0 - 10.0 ** (-1.0 - 15.0 * rng.random()))
    if kind == 6:
        return rng.choice((0.0, -0.0, 1.0, -1.0, 1.0 + 1e-10, -1.0 - 1e-10))
    return rng.choice((1.5, -1.0 - 1e-8, math.nan, math.inf))


def _budget(rng):
    """Uniform on [0, 2], log-uniform from 1e-300 to 100, or an edge."""
    kind = rng.randrange(6)
    if kind < 3:
        return 2.0 * rng.random()
    if kind < 5:
        return 10.0 ** (rng.uniform(-300.0, 2.0))
    return rng.choice((0.0, -0.0, 1e300, math.inf, -0.1, math.nan))


def _scalar(rng):
    argv = ["scalar", f"--rho={_correlation(rng)!r}",
            f"--gamma={_budget(rng)!r}"]
    return argv + ["--bits"] * rng.randrange(2)


def _graywyner(rng):
    """A distortion product d = delta / sigma2 * e^alpha aimed at one
    regime: below 1 - |rho| (SATURATED_NU), in [1 - |rho|, 1] (BLEND, ends
    included), or above 1 (INFEASIBLE_ZERO); or one bad argument."""
    rho = _correlation(rng)
    sigma2 = rng.choice((1.0, 10.0 ** rng.uniform(-300.0, 300.0)))
    alpha = rng.choice((0.0, 3.0 * rng.random()))
    r = abs(rho)
    kind = rng.randrange(9)
    if not r < 1.0:
        d = rng.random() + 0.5
    elif kind < 4:
        d = (1.0 - r) * 10.0 ** (-3.0 * rng.random())
    elif kind < 7:
        d = (1.0 - r) + rng.random() * r
    elif kind == 7:
        d = rng.choice((1.0 - r, 1.0, 1.0 + 10.0 ** rng.uniform(-12.0, 1.0)))
    else:
        d = 0.5
    delta = math.exp(math.log(d) + math.log(sigma2) - alpha)
    if kind == 8:
        sigma2, delta, alpha = rng.choice((
            (sigma2, 0.0, alpha), (sigma2, -delta, alpha),
            (0.0, delta, alpha), (math.inf, delta, alpha),
            (sigma2, delta, -0.5), (sigma2, math.nan, alpha),
            (sigma2, delta, math.nan)))
    argv = ["graywyner", f"--rho={rho!r}", f"--delta={delta!r}",
            f"--alpha={alpha!r}"]
    if sigma2 != 1.0 or rng.randrange(2):
        argv.append(f"--sigma2={sigma2!r}")
    return argv + ["--bits"] * rng.randrange(2)


def _curve(rng):
    steps = (rng.choice((1, -2)) if rng.randrange(6) == 0
             else rng.randrange(2, 12))
    return ["curve", f"--rho={_correlation(rng)!r}",
            f"--gamma-max={_budget(rng)!r}", f"--steps={steps}",
            f"--output={_OUT}"]


def corpus_argvs(seed=SEED, invocations=INVOCATIONS):
    """``--version``, ``verify`` with each suite and a ``curve``
    into a missing folder, then ``invocations`` seeded commands: about a
    third ``scalar``, nearly half ``graywyner`` and the rest ``curve``."""
    yield ["--version"]
    for suite in ("scalar", "waterfill", "envelope", "graywyner", "discrete",
                  "all"):
        yield ["verify", f"--suite={suite}"]
    yield ["curve", "--rho=0.5", "--gamma-max=0.1", "--steps=4",
           f"--output={_OUT}/missing/curve.csv"]
    rng = random.Random(seed)
    commands = (_scalar,) * 7 + (_graywyner,) * 9 + (_curve,) * 4
    for _ in range(invocations):
        yield rng.choice(commands)(rng)


def corpus_lines(seed=SEED, invocations=INVOCATIONS):
    """One line per invocation: the ``repr`` of its argv, exit code, stdout,
    stderr and CSV bytes (None where it wrote no file)."""
    with tempfile.TemporaryDirectory() as folder:
        out = os.path.join(folder, "curve.csv")
        for argv in corpus_argvs(seed, invocations):
            code, stdout, stderr, csvs = corpus.run(
                [arg.replace(_OUT, out) for arg in argv], folder)
            yield repr((argv, code, stdout, stderr.replace(out, _OUT),
                        csvs.get("curve.csv")))


if __name__ == "__main__":
    corpus.main(corpus_lines(), DIGEST)
