"""A seeded sweep of ``gausswyner.allocation`` and the digest of its results.

One SHA-256 over the ``repr`` of every result pins every bit of the sweep.
``allocation`` loads no numpy and adds floats with ``math.fsum``, which is
exactly rounded, so the digest is the same on every supported Python (the
builtin ``sum`` of floats is compensated from 3.12 on, and gave other last
bits there). As a script, ``PYTHONPATH=src python
tests/allocation_digest.py [--lines]`` checks the digest without pytest, or
prints one line per result (see ``corpus.py``).
"""

import random

from gausswyner import allocation

import corpus

SEED = 1912
SPECTRA = 1000
DIGEST = "98e89179fdace16526e62d2a112937b65a2a39cf1862bbbc63bfa19d22cfa3cc"


def _spectrum(rng):
    """A descending spectrum of 1 to 12 correlations: uniform, log-uniform
    down to 1e-12, within 1e-12 of 1, or tied, with zeros mixed in."""
    rhos = []
    for _ in range(rng.randrange(1, 13)):
        kind = rng.randrange(6)
        if kind < 2:
            rhos.append(rng.random())
        elif kind == 2:
            rhos.append(10.0 ** (-12.0 * rng.random()))
        elif kind == 3:
            rhos.append(1.0 - 10.0 ** (-12.0 * rng.random()))
        elif kind == 4 and rhos:
            rhos.append(rhos[-1])
        else:
            rhos.append(0.0)
    return sorted(rhos, reverse=True)


def sweep_lines(seed=SEED, spectra=SPECTRA, kind=list):
    """One line per result: ``waterfill`` at budgets up to 1.2 times the
    summed caps and at each saturation breakpoint, the breakpoints, and
    ``evaluate_allocation`` of a random split and of the optimal one. Each
    spectrum is passed as a ``kind`` (a list, which ``allocation`` checks on
    every call, or a tuple, which it checks once and reuses) and printed as
    a list, so the lines do not depend on ``kind``."""
    rng = random.Random(seed)
    for _ in range(spectra):
        rhos = kind(_spectrum(rng))
        breakpoints = allocation.saturation_breakpoints(rhos)
        yield repr((list(rhos), breakpoints))
        budgets = [1.2 * rng.random() * breakpoints[-1] for _ in range(3)]
        for gamma in budgets + [rng.choice(breakpoints)]:
            alloc = allocation.waterfill(rhos, gamma)
            yield repr((gamma, alloc))
            yield repr(allocation.evaluate_allocation(rhos, alloc.gammas))
        split = [rng.random() for _ in rhos]
        yield repr((split, allocation.evaluate_allocation(rhos, split)))


if __name__ == "__main__":
    corpus.main(sweep_lines(), DIGEST)
