"""Record the verdict map: verify_algebra is run at each (precision, q,
lmax) point below, and whether the report passed, the sorted names of its
failing gated rows and whether its finding resolves are written to
verdict_map.json beside this script, which test_irrep replays.  No
residual is recorded: bytes are the CLI corpus's job, and a list of row
names does not move when a residual moves in its last digits.

    PYTHONPATH=src python tests/make_verdict_map.py

prints, per precision, how many points fail and at how many points each
row fails.  A change that flips a verdict re-records the table and lists
each flipped point in its change notes; a point that flips from pass to
fail is a regression unless the change says why.
"""

import collections
import decimal
import json
import sys
from pathlib import Path

from qsu2 import QParam, verify_algebra

TABLE = Path(__file__).with_name("verdict_map.json")

# a grid from q = 0.1 to 10, and a band within 1e-4 of q = 1
QS = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 2.0, 3.0, 5.0, 10.0,
      1 - 1e-4, 1 + 1e-4, 1 - 1e-6, 1 + 1e-6, 1 - 1e-8, 1 + 1e-8)
LMAX = {"double": (6, 8, 12, 16, 24, 32), "high": (6, 8, 12, 16)}
POINTS = [(precision, q, lmax) for precision, sizes in LMAX.items() for q in QS for lmax in sizes]


def run(precision: str, q: float, lmax: int) -> dict:
    """The verdict of verify_algebra at one point."""
    rep = verify_algebra(QParam(q, precision), lmax)
    return {
        "precision": precision,
        "q": q,
        "lmax": lmax,
        "passed": rep.passed,
        "failing": sorted(c.name for c in rep.checks if c.passed is False),
        "resolved": rep.finding["transverse_square_diagonal"]["resolution"] is not None,
    }


if __name__ == "__main__":
    recorded_with = {"python": sys.version.split()[0], "libmpdec": decimal.__libmpdec_version__}
    points = [run(*point) for point in POINTS]
    entries = ",\n".join(" " + json.dumps(e) for e in points)
    TABLE.write_text(f'{{"recorded_with": {json.dumps(recorded_with)},\n"points": [\n{entries}\n]}}\n')
    for precision in LMAX:
        mine = [e for e in points if e["precision"] == precision]
        rows = collections.Counter(name for e in mine for name in e["failing"])
        print(f"{precision}: {sum(not e['passed'] for e in mine)} of {len(mine)} points fail")
        for name, count in rows.most_common():
            print(f"  {count:4d}  {name}")
