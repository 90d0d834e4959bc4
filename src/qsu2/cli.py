"""Batch front door: spectrum tables, harmonic coefficient dumps,
integration queries and the verification suite, as deterministic JSON/CSV.

Output determinism contract: identical configuration produces identical
bytes.  Floats are rounded to 15 significant digits before emission, JSON
keys are sorted, rows follow a fixed sort order per command.  Exit codes:
0 success, 1 verification failure, 2 usage error.

The front end only parses flags and emits rows: every identity check lives
in the library (``qsu2.irrep.verify_algebra``), and nothing is read from
the environment.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from contextlib import contextmanager

from . import __version__
from .angular import build_phi, hypergeom_phi, normalization_constant
from .irrep import verify_algebra
from .jackson import QMeasure, integrate_monomial, series_convergence_probe
from .qcore import DOUBLE, HIGH, QParam
from .spectra import POTENTIALS, spectrum_table

LMAX_GUARD = 64


def _validate(ns: argparse.Namespace):
    """Range checks the parser does not make, in a fixed order."""
    if any(not qv > 0 for qv in ns.q):
        raise ValueError("every q must be positive")
    if "lmax" in ns and not 0 <= ns.lmax <= LMAX_GUARD:
        raise ValueError(f"lmax must lie in [0, {LMAX_GUARD}]")
    if ns.command == "spectrum" and ns.nmax < 0:
        raise ValueError("nmax must be nonnegative")
    if not 0 < ns.tolerance < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if ns.command == "integrate" and ns.degree < 0:
        raise ValueError("monomial degree must be nonnegative")


def _r15(x):
    """Round every float, also inside dicts and lists, to 15 significant
    digits for byte-stable emission."""
    if isinstance(x, float):
        return float(format(x, ".15g"))
    if isinstance(x, dict):
        return {k: _r15(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_r15(v) for v in x]
    return x


def _fmt_cell(x) -> str:
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot emit the non-finite value {x}")
        return format(x, ".15g")
    if x is None:
        return ""
    return str(x)


def _emit(fmt: str, columns: list, rows: list, payload_meta: dict, extra: dict | None = None) -> str:
    """Render rows as CSV, or as JSON with the meta block and any extra
    top-level keys (CSV carries the rows only)."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(c)) for c in columns])
        return buf.getvalue()
    body = {"meta": payload_meta, "rows": rows, **(extra or {})}
    return json.dumps(_r15(body), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write(ns: argparse.Namespace, columns: list, rows: list, extra: dict | None = None):
    """Emit the rows in the requested format to --out or stdout."""
    meta = {
        "version": __version__,
        "command": ns.command,
        "q": [_r15(float(v)) for v in sorted(ns.q)],
        "tolerance": _r15(ns.tolerance),
    }
    text = _emit(ns.fmt, columns, rows, meta, extra)
    if ns.out:
        try:
            with open(ns.out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {ns.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


@contextmanager
def _in_double_range(ns: argparse.Namespace, qv: float):
    """Report a float overflow in the work at q=qv as a range error that
    names q and the size asked for: lmax, or the degree for integrate."""
    try:
        yield
    except OverflowError:
        size = f"degree {ns.degree}" if ns.command == "integrate" else f"lmax {ns.lmax}"
        raise ArithmeticError(
            f"{size} is out of double range at q={qv}: a q-power or q-number overflows"
        ) from None


# ----------------------------- commands -----------------------------

def cmd_spectrum(ns: argparse.Namespace) -> int:
    rows = []
    for qv in sorted(ns.q):
        with _in_double_range(ns, qv):
            table = spectrum_table(ns.potential, QParam(qv, ns.precision), ns.nmax, ns.lmax)
        for e in table:
            rows.append(
                {"potential": e.potential, "q": e.q, "n": e.n, "l": e.l, "L": e.L, "E": e.E}
            )
    # a q given twice emits its rows twice; the sort interleaves the copies
    rows.sort(key=lambda r: (r["q"], r["l"], r["n"]))
    _write(ns, ["potential", "q", "n", "l", "L", "E"], rows)
    return 0


def cmd_harmonics(ns: argparse.Namespace) -> int:
    builder = hypergeom_phi if ns.oracle else build_phi
    rows = []
    for qv in sorted(ns.q):
        with _in_double_range(ns, qv):
            p = QParam(qv, ns.precision)
        for l in range(ns.lmax + 1):
            for m in range(l + 1):
                with _in_double_range(ns, qv):
                    phi = builder(l, m, p)
                    norm = float(normalization_constant(l, m, p))
                coeffs = {k: float(phi.coeffs[k]) for k in sorted(phi.coeffs)}
                if not all(map(math.isfinite, (norm, *coeffs.values()))):
                    raise ArithmeticError(f"harmonic l={l}, m={m} is not finite in double precision at q={qv}")
                for k, a in coeffs.items():
                    rows.append({"q": float(qv), "l": l, "m": m, "k": k, "a": a, "norm": norm})
    _write(ns, ["q", "l", "m", "k", "a", "norm"], rows)
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    rows = []
    findings = {}
    verdicts = []
    for qv in sorted(ns.q):
        with _in_double_range(ns, qv):
            rep = verify_algebra(QParam(qv, ns.precision), ns.lmax, ns.tolerance, inject_fault=ns.inject_fault)
        findings[format(float(qv), ".15g")] = rep.finding
        verdicts.append(rep.passed)
        for c in sorted(rep.checks, key=lambda c: (c.group, c.name)):
            rows.append({"q": float(qv), **c.to_payload()})
    all_pass = all(verdicts)
    columns = ["q", "group", "name", "residual", "passed", "note"]
    _write(ns, columns, rows, {"findings": findings, "passed": all_pass})
    return 0 if all_pass else 1


def cmd_integrate(ns: argparse.Namespace) -> int:
    if ns.series_depth is not None and any(qv >= 1 for qv in ns.q):
        raise ValueError("series integration requires every q < 1")
    rows = []
    for qv in sorted(ns.q):
        with _in_double_range(ns, qv):
            p = QParam(qv, ns.precision)
            value = integrate_monomial(ns.degree, QMeasure(p))
            closed = float(value)
            if closed == 0 and ns.degree % 2 == 0:
                # in high precision a value that decimal holds underflows only
                # as the double a row emits
                scope = "high-precision" if p.is_high and value == 0 else "double"
                raise ArithmeticError(
                    f"degree {ns.degree} is out of {scope} range at q={qv}: 2/[{ns.degree + 1}] underflows"
                )
            row = {"q": float(qv), "n": ns.degree, "closed_form": closed,
                   "series": None, "depth": None, "depth_for_1e12": None}
            if qv < 1:
                probe = series_convergence_probe(ns.degree, p)
                depth = 200 if ns.series_depth is None else ns.series_depth
                row["series"] = float(integrate_monomial(ns.degree, QMeasure(p, series_depth=depth)))
                row["depth"] = depth
                row["depth_for_1e12"] = probe.depth_for_1e12
        rows.append(row)
    _write(ns, ["q", "n", "closed_form", "series", "depth", "depth_for_1e12"], rows)
    return 0


# ----------------------------- parser -----------------------------

class _Sweep(argparse.Action):
    """A repeatable option whose values replace its default list instead of
    extending it."""

    def __call__(self, parser, namespace, value, option_string=None):
        given = getattr(namespace, self.dest)
        setattr(namespace, self.dest, [value] if given is self.default else [*given, value])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsu2",
        description="Deformed angular momentum toolkit: spectra, harmonics, integration, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, lmax=True):
        sp.add_argument("--q", action=_Sweep, type=float, default=[1.0],
                        help="deformation parameter, repeatable for sweeps (default 1.0)")
        if lmax:
            sp.add_argument("--lmax", type=int, default=6)
        sp.add_argument("--tol", type=float, default=1e-10, dest="tolerance")
        sp.add_argument("--precision", choices=(DOUBLE, HIGH), default=DOUBLE)
        sp.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("spectrum", help="closed-form spectrum table")
    common(sp)
    sp.add_argument("--potential", choices=POTENTIALS, required=True)
    sp.add_argument("--nmax", type=int, default=2)

    sp = sub.add_parser("harmonics", help="harmonic coefficient dump")
    common(sp)
    sp.add_argument("--oracle", action="store_true",
                    help="emit from the closed-form series instead of the recursion")

    sp = sub.add_parser("verify", help="run the identity catalogue")
    common(sp)
    sp.add_argument("--inject-fault", action="store_true",
                    help="self-test: corrupt one expansion coefficient and confirm detection")

    sp = sub.add_parser("integrate", help="deformed monomial integral")
    common(sp, lmax=False)
    sp.add_argument("--degree", type=int, default=0, help="monomial degree n")
    sp.add_argument("--series-depth", type=int, default=None,
                    help="request the discrete-grid value at this depth (q < 1 only)")

    return parser


COMMANDS = {
    "spectrum": cmd_spectrum,
    "harmonics": cmd_harmonics,
    "verify": cmd_verify,
    "integrate": cmd_integrate,
}


def main(argv: list | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _validate(ns)
        return COMMANDS[ns.command](ns)
    except (ValueError, ArithmeticError) as exc:
        print(f"qsu2: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
