"""Names of the oracle suites.

Kept apart from :mod:`gausswyner.oracle` so that the command-line parser
can offer them as choices without loading the verifiers.
"""

SUITES = ("scalar", "waterfill", "envelope", "graywyner", "discrete", "all")
