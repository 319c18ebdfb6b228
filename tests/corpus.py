"""The harness of the seeded digests: an in-process ``cli.main`` runner, one
SHA-256 over lines, and the script entry. It imports neither numpy nor
pytest, so a digest script (``allocation_digest.py``, ``cli_digest.py``),
which ends with ``corpus.main(lines, DIGEST)``, runs on every supported
Python: it prints the digest and whether it matches, exiting 1 if not, or
with ``--lines`` the lines, whose diff between two checkouts lists every
moved byte.
"""

import contextlib
import hashlib
import io
import pathlib
import sys

from gausswyner import cli


def run(argv, folder):
    """Exit code, stdout and stderr of ``cli.main(argv)`` in this process
    (a ``SystemExit`` gives the code), and ``take_csvs(folder)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue(), take_csvs(folder)


def take_csvs(folder):
    """The CSV files in ``folder``, by name, removed once read."""
    taken = {}
    for path in pathlib.Path(folder).glob("*.csv"):
        taken[path.name] = path.read_bytes()
        path.unlink()
    return taken


def digest(lines):
    """SHA-256 of ASCII ``lines``, each ended by a newline."""
    text = "".join(f"{line}\n" for line in lines)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def main(lines, expected):
    """With ``--lines``, print ``lines``; else print their digest and
    whether it matches ``expected``, and exit 1 if it does not."""
    if sys.argv[1:] == ["--lines"]:
        print(*lines, sep="\n")
        return
    got = digest(lines)
    print(f"Python {sys.version.split()[0]}: {got}",
          "matches" if got == expected else f"differs from {expected}")
    sys.exit(got != expected)
