"""Record the CLI corpus: each argv list below is run in process through
qsu2.cli.main, and its exit code and the sha256 of its stdout are written
to cli_corpus.json beside this script, which test_cli replays.

Every entry runs in high precision, whose bytes depend only on CPython's
decimal (libmpdec) and the .15g float format, not on the platform's libm.

    PYTHONPATH=src python tests/make_cli_corpus.py

A change that moves an entry on purpose re-records the table and lists
each changed entry, with its reason, in its change notes.
"""

import contextlib
import decimal
import hashlib
import io
import json
import sys
from pathlib import Path

from qsu2.cli import main

TABLE = Path(__file__).with_name("cli_corpus.json")

HIGH = ["--precision", "high"]
ARGVS = [
    *(["verify", "--q", q, "--lmax", lmax, *HIGH] for q in ("0.5", "0.7", "1.3", "1e16") for lmax in ("3", "4", "6")),
    ["spectrum", "--potential", "coulomb", "--q", "0.6", "--q", "1.3", "--nmax", "2", "--lmax", "4", *HIGH],
    ["spectrum", "--potential", "oscillator", "--q", "1.3", *HIGH],
    ["harmonics", "--q", "1.3", "--lmax", "6", *HIGH],
    ["harmonics", "--q", "0.7", "--lmax", "4", "--oracle", "--format", "csv", *HIGH],
    ["integrate", "--degree", "4", "--series-depth", "40", "--q", "0.7", *HIGH],
]


def run(argv: list) -> dict:
    """The exit code of main(argv) and the sha256 of what it writes to
    stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


if __name__ == "__main__":
    recorded_with = {"python": sys.version.split()[0], "libmpdec": decimal.__libmpdec_version__}
    entries = ",\n".join(" " + json.dumps(run(argv)) for argv in ARGVS)
    TABLE.write_text(f'{{"recorded_with": {json.dumps(recorded_with)},\n"entries": [\n{entries}\n]}}\n')
