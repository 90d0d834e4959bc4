"""Work budgets: counts of the work one item of each benchmark workload
does, read through wrappers around the library's own functions.

Counts repeat exactly from run to run, where wall time on a shared host
does not.  Each figure below is the count on the code as it stands and is
asserted as an upper bound: a change that lowers a count tightens its
bound, and one that raises a count says why.
"""

import decimal

from qsu2 import QMeasure, QParam, RadialGrid, build_y, inner_product, radial_verify, verify_algebra
from qsu2 import angular, irrep, jackson, spectra
from qsu2.qcore import _CTX

# (potential, n, l, q, method, n_steps): one round of the radial-shooting
# workload at seed 1
RADIAL_ROUND = (
    ("coulomb", 0, 1, 1.05, "numerov", 4000),
    ("coulomb", 1, 1, 0.95, "numerov", 4000),
    ("oscillator", 0, 1, 0.9268728488224802, "numerov", 0),
    ("oscillator", 1, 2, 1.0694867473874465, "numerov", 0),
    ("oscillator", 2, 3, 1.0527549237953229, "numerov", 0),
    ("oscillator", 1, 1, 0.9268728488224802, "rk4", 0),
    ("coulomb", 2, 4, 0.6, "numerov", 0),
)

BUDGETS = {
    # six Numerov levels and one RK4 level, one of them with an
    # extrapolated pair: a Numerov pair walks the grid in one pass, an RK4
    # shoot in one of its own
    ("radial round", "shoots"): 16,
    ("radial round", "bisections"): 0,
    ("radial round", "full-grid passes"): 9,
    # the points of every level's tables: one table per level, 4001 or
    # 8001 points for Numerov and 16,001 for RK4
    ("radial round", "table points"): 56007,
    # the whole identity catalogue; product entries are the entries of
    # every product matrix, kernel entries those of every q-commutator the
    # one-pass kernel forms (the generator commutators, the 27 vector
    # conditions and the transverse derivative from c, which took 82
    # products and 5411 - 2627 of their entries), table entries those of the
    # QParam's table.  Square roots are the calls of QParam.sqrt: the
    # position blocks form one per distinct product (458 and 1,868 with one
    # per entry); validated functions are the calls of
    # AngularFunction.__post_init__, which the module's own results skip
    # (621 when they did not): the six left are the adjointness row's inputs
    ("verify_algebra q=1.3 lmax=6", "matmuls"): 42,
    ("verify_algebra q=1.3 lmax=6", "product entries"): 2627,
    ("verify_algebra q=1.3 lmax=6", "kernels"): 32,
    ("verify_algebra q=1.3 lmax=6", "kernel entries"): 1104,
    ("verify_algebra q=1.3 lmax=6", "operands"): 37,
    ("verify_algebra q=1.3 lmax=6", "decimal sums"): 41,
    ("verify_algebra q=1.3 lmax=6", "square roots"): 388,
    ("verify_algebra q=1.3 lmax=6", "validated functions"): 6,
    ("verify_algebra q=1.3 lmax=6", "table entries"): 79,
    ("verify_algebra q=1.3 lmax=16", "matmuls"): 42,
    ("verify_algebra q=1.3 lmax=16", "product entries"): 21747,
    ("verify_algebra q=1.3 lmax=16", "kernels"): 32,
    ("verify_algebra q=1.3 lmax=16", "kernel entries"): 11284,
    ("verify_algebra q=1.3 lmax=16", "operands"): 37,
    ("verify_algebra q=1.3 lmax=16", "decimal sums"): 41,
    ("verify_algebra q=1.3 lmax=16", "square roots"): 1208,
    ("verify_algebra q=1.3 lmax=16", "validated functions"): 6,
    ("verify_algebra q=1.3 lmax=16", "table entries"): 153,
    # high precision: the same catalogue, whose functions keep their sum
    # operand as in double precision, one per function summed
    ("verify_algebra q=0.7 high lmax=6", "matmuls"): 42,
    ("verify_algebra q=0.7 high lmax=6", "product entries"): 2627,
    ("verify_algebra q=0.7 high lmax=6", "kernels"): 32,
    ("verify_algebra q=0.7 high lmax=6", "kernel entries"): 1104,
    ("verify_algebra q=0.7 high lmax=6", "operands"): 37,
    ("verify_algebra q=0.7 high lmax=6", "decimal sums"): 61,
    ("verify_algebra q=0.7 high lmax=6", "square roots"): 388,
    ("verify_algebra q=0.7 high lmax=6", "validated functions"): 6,
    ("verify_algebra q=0.7 high lmax=6", "table entries"): 84,
    # every pair i <= j of the 81 harmonics with l <= 8: one operand per
    # function (operands are inner-product sum operands, decimal sums the
    # moment lists a sum reads), one decimal sum per same-winding pair of
    # equal parity, and one stored moment list per winding, which a sum of
    # a higher degree grows into a longer one (at most 83 and 115 lists
    # while each sum precision kept its own); moment entries are those
    # formed, each once: the stored lists' lengths, where forming every
    # longer list from n = 0 formed 489 and 413
    ("Gram l<=8 q=1.3", "products"): 3321,
    ("Gram l<=8 q=1.3", "operands"): 81,
    ("Gram l<=8 q=1.3", "decimal sums"): 165,
    ("Gram l<=8 q=1.3", "table entries"): 133,
    ("Gram l<=8 q=1.3", "moment lists"): 17,
    ("Gram l<=8 q=1.3", "moment entries"): 145,
    ("Gram l<=8 q=0.5", "products"): 3321,
    ("Gram l<=8 q=0.5", "operands"): 81,
    ("Gram l<=8 q=0.5", "decimal sums"): 165,
    ("Gram l<=8 q=0.5", "table entries"): 133,
    ("Gram l<=8 q=0.5", "moment lists"): 17,
    ("Gram l<=8 q=0.5", "moment entries"): 145,
    # every pair i <= j of the 49 harmonics with l <= 6 in high precision,
    # which takes no parity exit: one decimal sum per same-winding pair
    ("Gram l<=6 q=0.7 high", "products"): 1225,
    ("Gram l<=6 q=0.7 high", "operands"): 49,
    ("Gram l<=6 q=0.7 high", "decimal sums"): 140,
    ("Gram l<=6 q=0.7 high", "table entries"): 88,
    ("Gram l<=6 q=0.7 high", "moment lists"): 13,
    ("Gram l<=6 q=0.7 high", "moment entries"): 85,
    # one high-precision walk of the verifier's series row, depth 400 over
    # the degrees 0, 2, ..., 8: powers of q are taken only to seed it, one
    # per degree and q**4 for a winding, within len(ns) + |m| + 2, where a
    # power at every grid point took 801 (m = 0) and 1,989 (m = 3)
    ("high walk depth=400 m=0", "powers of q"): 5,
    ("high walk depth=400 m=3", "powers of q"): 6,
}


def _counted(monkeypatch, owner, name, count):
    """Replace owner.name by a wrapper that calls count(args, result) after
    each call."""
    f = getattr(owner, name)

    def run(*args):
        result = f(*args)
        count(args, result)
        return result

    monkeypatch.setattr(owner, name, run)


def _radial_round(monkeypatch):
    counts = dict.fromkeys(("shoots", "bisections", "full-grid passes", "table points"), 0)

    def full_grid(args, result):
        # _shoot's n_steps; the origin fit walks 4 and 8 steps
        counts["full-grid passes"] += args[6] > 8

    def pair(args, result):
        counts["full-grid passes"] += 1

    def table(args, result):
        counts["table points"] += len(result[0])

    _counted(monkeypatch, spectra, "_shoot", full_grid)
    _counted(monkeypatch, spectra, "_shoot_pair", pair)
    _counted(monkeypatch, spectra, "_potential_table", table)
    for potential, n, l, q, method, n_steps in RADIAL_ROUND:
        rep = radial_verify(potential, n, l, QParam(q), RadialGrid(n_steps=n_steps, method=method))
        assert rep.converged and rep.nodes_found == n
        counts["shoots"] += rep.shoots
        counts["bisections"] += rep.bisections
    return counts


def _tally(counts, name):
    """A count callback for _counted that adds one to counts[name]."""
    def add(args, result):
        counts[name] += 1
    return add


def _verify(monkeypatch, p, lmax):
    counts = dict.fromkeys(("matmuls", "product entries", "kernels", "kernel entries", "operands", "decimal sums",
                            "square roots", "validated functions"), 0)

    def counter(calls, entries):
        def count(args, out):
            counts[calls] += 1
            counts[entries] += sum(map(len, out.blocks.values()))
        return count

    _counted(monkeypatch, irrep.OperatorMatrix, "__matmul__", counter("matmuls", "product entries"))
    _counted(monkeypatch, irrep.OperatorMatrix, "_commutator", counter("kernels", "kernel entries"))
    _counted(monkeypatch, jackson, "_form_operand", _tally(counts, "operands"))
    _counted(monkeypatch, jackson, "_sum_moments", _tally(counts, "decimal sums"))
    _counted(monkeypatch, QParam, "sqrt", _tally(counts, "square roots"))
    _counted(monkeypatch, angular.AngularFunction, "__post_init__", _tally(counts, "validated functions"))
    verify_algebra(p, lmax)
    counts["table entries"] = len(p._table)
    return counts


def _gram(monkeypatch, p, lmax=8):
    counts = {"products": 0, "operands": 0, "decimal sums": 0, "moment entries": 0}
    _counted(monkeypatch, jackson, "_form_operand", _tally(counts, "operands"))
    _counted(monkeypatch, jackson, "_sum_moments", _tally(counts, "decimal sums"))
    form = jackson._moments

    def moments(m, nmax, b, table=None, key=None):
        # the entries of the list returned past those of the list continued
        kept = table.get(key) if table is not None else None
        out = form(m, nmax, b, table, key)
        counts["moment entries"] += len(out) - (len(kept[0]) if kept else 0)
        return out

    monkeypatch.setattr(jackson, "_moments", moments)
    mu = QMeasure(p)
    ys = [build_y(l, m, p) for l in range(lmax + 1) for m in range(-l, l + 1)]
    for i in range(len(ys)):
        for j in range(i, len(ys)):
            inner_product(ys[i], ys[j], mu)
            counts["products"] += 1
    counts["table entries"] = len(p._table)
    counts["moment lists"] = sum(key[0] == "moments" for key in p._table)
    return counts


class _CountingDecimal(decimal.Decimal):
    """A Decimal q that counts the powers taken of it; arithmetic on it
    gives plain Decimals, whose powers are not counted."""

    powers = 0

    def __pow__(self, e, modulo=None):
        _CountingDecimal.powers += 1
        return decimal.Decimal.__pow__(self, e, modulo)


def _high_walk(m: int):
    _CountingDecimal.powers = 0
    with decimal.localcontext(_CTX):
        jackson._halfline_series(range(0, 9, 2), _CountingDecimal(QParam(0.7, "high").q), 400, m)
    return {"powers of q": _CountingDecimal.powers}


def test_work_budgets(monkeypatch):
    counted = {}
    for item, run in (
        ("radial round", lambda: _radial_round(monkeypatch)),
        ("verify_algebra q=1.3 lmax=6", lambda: _verify(monkeypatch, QParam(1.3), 6)),
        ("verify_algebra q=1.3 lmax=16", lambda: _verify(monkeypatch, QParam(1.3), 16)),
        ("verify_algebra q=0.7 high lmax=6", lambda: _verify(monkeypatch, QParam(0.7, "high"), 6)),
        ("Gram l<=8 q=1.3", lambda: _gram(monkeypatch, QParam(1.3))),
        ("Gram l<=8 q=0.5", lambda: _gram(monkeypatch, QParam(0.5))),
        ("Gram l<=6 q=0.7 high", lambda: _gram(monkeypatch, QParam(0.7, "high"), 6)),
        ("high walk depth=400 m=0", lambda: _high_walk(0)),
        ("high walk depth=400 m=3", lambda: _high_walk(3)),
    ):
        counted.update(((item, name), n) for name, n in run().items())
        monkeypatch.undo()
    assert counted.keys() == BUDGETS.keys()
    over = {key: (n, BUDGETS[key]) for key, n in counted.items() if n > BUDGETS[key]}
    assert not over, over
