"""Names of the oracle suites.

Kept apart from :mod:`gausswyner.oracle`, which imports numpy, so that the
command-line parser can offer them as choices without loading numpy.
"""

SUITES = ("scalar", "waterfill", "envelope", "graywyner", "discrete", "all")
