"""Record the CLI corpus: each argv list below is run in process through
qsu2.cli.main, and its exit code, the sha256 of its stdout and the text of
its stderr are written to cli_corpus.json beside this script, which
test_cli replays.

An entry's bytes depend only on CPython's decimal (libmpdec), its float
parse and repr and the .15g float format, and in double precision on
IEEE +, -, *, / and sqrt, not on the platform's libm: every double scalar
formed from q is its 62-digit value rounded once.  The table records the
Python and libmpdec versions it was recorded with.

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
# double-precision walks of the geometric grid: the convergence probe and
# the series measure near q = 1, at the default depth and at depth 7, the
# depth-400 series measure and a verify whose series row walks to depth 400;
# then verify reports whose Gram rows sum closed-form moments, near q = 1
# and far from it, where the sums span the most decimal digits
DOUBLE_ARGVS = [
    *(["integrate", "--q", q, *depth] for q in ("0.999", "0.9999", "0.999999") for depth in ([], ["--series-depth", "7"])),
    ["integrate", "--degree", "4", "--q", "0.9", "--series-depth", "400"],
    ["verify", "--q", "0.9", "--lmax", "3"],
    *(["verify", "--q", q, "--lmax", lmax] for q, lmax in (("0.5", "10"), ("1.01", "12"), ("0.1", "8"), ("1e-4", "4"), ("1e16", "3"))),
    # verify near q = 1, where lambda = q - 1/q cancels: at q = 1.000001
    # transverse-from-invariant, which divides by lambda**2, fails (exit 1)
    *(["verify", "--q", q, "--lmax", lmax] for q, lmax in (("1.000001", "6"), ("0.999", "12"))),
    # the harmonic coefficients and the closed-form spectrum, each at one q
    # near 1 and one far from it
    ["harmonics", "--q", "0.999", "--q", "1.3", "--lmax", "8"],
    ["spectrum", "--potential", "coulomb", "--q", "0.999", "--q", "0.6", "--nmax", "2", "--lmax", "8"],
]
ARGVS = [
    *(["verify", "--q", q, "--lmax", lmax, *HIGH] for q in ("0.5", "0.7", "1.3", "1e16") for lmax in ("3", "4", "6")),
    ["spectrum", "--potential", "coulomb", "--q", "0.6", "--q", "1.3", "--nmax", "2", "--lmax", "4", *HIGH],
    ["spectrum", "--potential", "oscillator", "--q", "1.3", *HIGH],
    ["harmonics", "--q", "1.3", "--lmax", "6", *HIGH],
    ["harmonics", "--q", "0.7", "--lmax", "4", "--oracle", "--format", "csv", *HIGH],
    ["integrate", "--degree", "4", "--series-depth", "40", "--q", "0.7", *HIGH],
    # walks of the geometric grid: the convergence probe (to its
    # 100,000-step cap at q = 0.999999), the series measure and the
    # verifier's depth-400 series row
    ["integrate", "--degree", "0", "--q", "0.999999", *HIGH],
    ["integrate", "--degree", "6", "--q", "0.99999", *HIGH],
    ["integrate", "--degree", "4", "--q", "0.9", "--series-depth", "400", *HIGH],
    ["verify", "--q", "0.9", "--lmax", "4", *HIGH],
    ["verify", "--q", "0.995", "--lmax", "3", *HIGH],
    # high-precision verify far from q = 1 at the larger sizes, where 62
    # digits leave gated rows failing (exit 1)
    *(["verify", "--q", q, "--lmax", lmax, *HIGH] for q, lmax in (("0.1", "16"), ("0.2", "24"))),
    # a q of more than 62 significant digits (the double nearest 1e-4): the
    # sums, the ladders and the series row read one exact q
    ["verify", "--q", "1e-4", "--lmax", "4", *HIGH],
    *DOUBLE_ARGVS,
    # usage and numerical-domain errors: exit 2 with a message on stderr
    ["verify", "--lmax", "65"],
    ["verify", "--q", "0.05", "--lmax", "64"],
    ["integrate", "--degree", "2000", "--q", "1e-3"],
    ["harmonics", "--q", "1e-3", "--lmax", "64"],
    # 2/[n+1] underflows in decimal too, far below the double range
    ["integrate", "--degree", str(10 ** 400), "--q", "0.9", *HIGH],
]


def run(argv: list) -> dict:
    """The exit code of main(argv), the sha256 of what it writes to stdout
    and the text it writes to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


if __name__ == "__main__":
    recorded_with = {"python": sys.version.split()[0], "libmpdec": decimal.__libmpdec_version__}
    entries = ",\n".join(" " + json.dumps(run(argv)) for argv in ARGVS)
    TABLE.write_text(f'{{"recorded_with": {json.dumps(recorded_with)},\n"entries": [\n{entries}\n]}}\n')
