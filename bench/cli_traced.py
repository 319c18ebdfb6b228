"""Traced stand-in for ``python -m gausswyner``.

    python bench/cli_traced.py SPAN_FILE ARGV...

Runs ``gausswyner.cli.main(ARGV)`` exactly as the module entry point does,
and writes two spans, the import of ``gausswyner.cli`` and the ``cli.main``
call, to SPAN_FILE as JSON ``[[name, start, end], ...]`` in
``time.perf_counter`` seconds.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    from gausswyner import cli
    imported = perf_counter()
    try:
        return cli.main(argv)
    finally:
        done = perf_counter()
        sys.stdout.flush()
        with open(span_file, "w", encoding="utf-8") as handle:
            json.dump([["cli.import", start, imported],
                       ["cli.main", imported, done]], handle)


if __name__ == "__main__":
    sys.exit(main())
