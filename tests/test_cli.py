import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsu2
from qsu2.cli import _emit, build_parser, main
from qsu2.spectra import POTENTIALS

import make_cli_corpus as corpus


def run_json(tmp_path, args, name="out.json"):
    path = tmp_path / name
    code = main(args + ["--out", str(path)])
    return code, json.loads(path.read_text())


def test_spectrum_classical_values(tmp_path):
    code, data = run_json(
        tmp_path, ["spectrum", "--potential", "oscillator", "--q", "1", "--nmax", "1", "--lmax", "1"]
    )
    assert code == 0
    assert sorted(r["E"] for r in data["rows"]) == [1.5, 2.5, 3.5, 4.5]
    assert data["meta"]["command"] == "spectrum"
    assert data["meta"]["q"] == [1.0]
    assert set(data["meta"]) == {"version", "command", "q", "tolerance"}


def test_spectrum_l0_rows_q_independent(tmp_path):
    rows = {}
    for q in ("1.2", "2.0"):
        code, data = run_json(
            tmp_path,
            ["spectrum", "--potential", "coulomb", "--q", q, "--nmax", "2", "--lmax", "0"],
            name=f"c{q}.json",
        )
        assert code == 0
        rows[q] = [(r["n"], r["l"], r["L"], r["E"]) for r in data["rows"]]
    assert rows["1.2"] == rows["2.0"]


def test_spectrum_shell_splitting_visible(tmp_path):
    code, data = run_json(
        tmp_path, ["spectrum", "--potential", "oscillator", "--q", "1.2", "--nmax", "1", "--lmax", "2"]
    )
    energies = {(r["n"], r["l"]): r["E"] for r in data["rows"]}
    assert energies[(1, 0)] == 3.5
    assert energies[(0, 2)] != energies[(1, 0)]


def test_spectrum_deterministic_bytes(tmp_path):
    args = ["spectrum", "--potential", "coulomb", "--q", "1.3", "--q", "0.7", "--nmax", "1", "--lmax", "2"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_rows_sorted_with_a_repeated_q(tmp_path):
    # a q given twice emits its rows twice, and the sort interleaves the copies
    args = ["spectrum", "--potential", "coulomb", "--q", "1.3", "--q", "0.6", "--q", "1.3", "--lmax", "2"]
    code, data = run_json(tmp_path, args)
    assert code == 0
    assert data["meta"]["q"] == [0.6, 1.3, 1.3]
    keys = [(r["q"], r["l"], r["n"]) for r in data["rows"]]
    assert len(keys) == 27 and keys == sorted(keys)


def test_q_sweep_replaces_its_default():
    parser = build_parser()
    assert parser.parse_args(["verify"]).q == [1.0]
    assert parser.parse_args(["verify", "--q", "2", "--q", "0.5"]).q == [2.0, 0.5]
    assert parser.parse_args(["integrate"]).q == [1.0]


def test_spectrum_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    code = main(
        ["spectrum", "--potential", "oscillator", "--q", "1", "--nmax", "0", "--lmax", "1",
         "--format", "csv", "--out", str(path)]
    )
    assert code == 0
    assert b"\r\n" in path.read_bytes()
    text = path.read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["potential", "q", "n", "l", "L", "E"]
    assert rows[1][5] == "1.5"


def test_usage_errors(capsys):
    assert main(["spectrum", "--potential", "plummer", "--q", "1"]) == 2
    assert main(["spectrum", "--potential", "coulomb", "--q", "-1"]) == 2
    assert main(["spectrum", "--potential", "coulomb", "--q", "1", "--lmax", "100"]) == 2
    assert main(["bogus"]) == 2
    # a tolerance no residual can fail, or none can pass, is refused before any work
    for tol in ("inf", "nan", "0", "-1e-10"):
        for fmt in ("json", "csv"):
            argv = ["verify", "--inject-fault", "--q", "1.3", "--lmax", "4", "--tol", tol, "--format", fmt]
            assert main(argv) == 2, argv
    capsys.readouterr()
    # the range checks made after parsing, one stderr line each
    for argv, message in (
        (["spectrum", "--potential", "coulomb", "--nmax", "-1"], "nmax must be nonnegative"),
        (["integrate", "--degree", "-1"], "monomial degree must be nonnegative"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"qsu2: {message}\n"), argv
    # --lmax belongs to spectrum, harmonics and verify: integrate reads no lmax
    assert main(["integrate", "--help"]) == 0
    assert "--lmax" not in capsys.readouterr().out
    assert main(["integrate", "--degree", "2", "--q", "0.5", "--lmax", "5"]) == 2
    assert "unrecognized arguments: --lmax 5" in capsys.readouterr().err


def test_harmonics_dump(tmp_path):
    code, data = run_json(tmp_path, ["harmonics", "--q", "1.3", "--lmax", "2"])
    assert code == 0
    rows = {(r["l"], r["m"], r["k"]): r for r in data["rows"]}
    three = (1.3 ** 3 - 1.3 ** -3) / (1.3 - 1 / 1.3)
    assert rows[(2, 0, 0)]["a"] == 1.0
    assert rows[(2, 0, 2)]["a"] == pytest.approx(-three, rel=1e-13)
    assert rows[(0, 0, 0)]["norm"] == pytest.approx(1 / math.sqrt(4 * math.pi), rel=1e-13)


def test_harmonics_oracle_route_matches(tmp_path):
    _, direct = run_json(tmp_path, ["harmonics", "--q", "0.9", "--lmax", "4"], name="d.json")
    _, oracle = run_json(tmp_path, ["harmonics", "--q", "0.9", "--lmax", "4", "--oracle"], name="o.json")
    da = {(r["l"], r["m"], r["k"]): r["a"] for r in direct["rows"]}
    oa = {(r["l"], r["m"], r["k"]): r["a"] for r in oracle["rows"]}
    assert set(da) == set(oa)
    for key in da:
        assert da[key] == pytest.approx(oa[key], rel=1e-11, abs=1e-11)


def test_verify_clean_run(tmp_path):
    code, data = run_json(tmp_path, ["verify", "--q", "0.9", "--q", "1.3", "--lmax", "4"])
    assert code == 0
    assert data["passed"] is True
    gated = [r for r in data["rows"] if r["passed"] is not None]
    assert gated and all(r["passed"] for r in gated)
    names = {r["name"] for r in data["rows"]}
    assert "harmonic-orthonormality" in names
    assert "transverse-dual-construction" in names
    finding = data["findings"]["1.3"]["transverse_square_diagonal"]
    assert finding["resolution"] == "-([2l][2l+2]/[2]^2 + c_l^2)"


def test_verify_acceptance_grid(tmp_path):
    code, data = run_json(
        tmp_path,
        ["verify", "--q", "0.5", "--q", "0.9", "--q", "1.0", "--q", "1.5", "--lmax", "6"],
    )
    assert code == 0
    assert data["passed"] is True
    gated = [r["residual"] for r in data["rows"] if r["passed"] is not None and r["residual"] is not None]
    assert max(gated) < 1e-10


def test_verify_fault_injection(tmp_path):
    path = tmp_path / "fault.json"
    code = main(["verify", "--q", "1.2", "--lmax", "4", "--inject-fault", "--out", str(path)])
    assert code == 1
    data = json.loads(path.read_text())
    failed = [r["name"] for r in data["rows"] if r["passed"] is False]
    assert failed == ["position-product-expansion"]


def test_verify_high_precision_shrinks_residuals(tmp_path):
    _, lo = run_json(tmp_path, ["verify", "--q", "1.5", "--lmax", "4"], name="lo.json")
    code, hi = run_json(
        tmp_path,
        ["verify", "--q", "1.5", "--lmax", "4", "--precision", "high", "--tol", "1e-25"],
        name="hi.json",
    )
    assert code == 0

    def worst(data):
        vals = [r["residual"] for r in data["rows"] if r["passed"] is not None and r["residual"]]
        return max(vals)

    assert worst(hi) < worst(lo) * 1e-10


def test_verify_double_precision_failures_are_rounding(tmp_path):
    # at q = 0.5 entries reach ~1e5, so six absolute 1e-10 gates fail in
    # double precision; the same catalogue passes in high precision
    code, lo = run_json(tmp_path, ["verify", "--q", "0.5", "--lmax", "10"], name="lo.json")
    assert code == 1
    assert len([r for r in lo["rows"] if r["passed"] is False]) == 6
    code, hi = run_json(tmp_path, ["verify", "--q", "0.5", "--lmax", "10", "--precision", "high"], name="hi.json")
    assert code == 0 and hi["passed"] is True


def test_verify_series_agreement_near_one(tmp_path):
    # the depth-400 grid tail q**800 is far from negligible at q = 0.985
    code, data = run_json(tmp_path, ["verify", "--q", "0.985", "--lmax", "4"])
    assert code == 0
    row = next(r for r in data["rows"] if r["name"] == "measure-series-agreement")
    assert row["passed"] is True and row["residual"] < 1e-12


def test_precision_ignores_environment(monkeypatch):
    monkeypatch.setenv("QSU2_PRECISION", "high")
    assert build_parser().parse_args(["verify"]).precision == "double"


def test_help_and_usage_ignore_columns(monkeypatch, capsys):
    # argparse wrapped help and usage at the width COLUMNS gave; both are
    # now laid out at 78 columns whatever it says
    cases = {("--help",): 0, ("verify", "--help"): 0, ("integrate", "--help"): 0, (): 2, ("verify", "--lmax", "x"): 2}
    outputs = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        runs = {argv: (main(list(argv)), *capsys.readouterr()) for argv in cases}
        for argv, (code, out, err) in runs.items():
            assert code == cases[argv] and (out if code == 0 else err), argv
            assert max(map(len, (out + err).splitlines())) <= 78, argv
        outputs.append(runs)
    assert outputs[0] == outputs[1]


def test_spectrum_out_of_double_range():
    # L overflows a double for large l far from q = 1
    args = ["spectrum", "--potential", "coulomb", "--q", "50", "--lmax", "64"]
    assert main(args) == 2
    src = os.path.dirname(os.path.dirname(qsu2.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-m", "qsu2.cli", *args], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    # high precision reports the same level with every number as a double
    args = ["spectrum", "--potential", "coulomb", "--q", "50.3", "--lmax", "64", "--precision", "high"]
    proc = subprocess.run([sys.executable, "-m", "qsu2.cli", *args], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "q=50.3:" in proc.stderr and not re.search(r"\d{20}", proc.stderr), proc.stderr


FRESH_INTERPRETER_RUNS = """
import json, sys
loaded = set(sys.modules)
from qsu2.cli import main

at_import = sorted(m for m in ("numpy", "mpmath") if m in sys.modules)
out = sys.argv[1]
runs = [
    ["verify", "--q", "1.3", "--lmax", "4"],
    ["spectrum", "--potential", "oscillator", "--q", "1.2"],
    ["harmonics", "--q", "0.8", "--lmax", "2"],
    ["integrate", "--degree", "2", "--q", "0.5"],
    ["verify", "--q", "1.3", "--lmax", "3", "--precision", "high"],
    ["spectrum", "--potential", "coulomb", "--q", "0.7", "--precision", "high"],
]
report = []
for argv in runs:
    code = main(argv + ["--out", out])
    # top-level modules loaded since start-up that are neither stdlib nor qsu2
    new = {m.split(".")[0] for m in set(sys.modules) - loaded}
    report.append([code, sorted(new - set(sys.stdlib_module_names) - {"qsu2"})])
import decimal
ctx = decimal.getcontext()
state = {"prec": ctx.prec, "Emax": ctx.Emax, "Emin": ctx.Emin, "rounding": ctx.rounding,
         "traps": sorted(s.__name__ for s, on in ctx.traps.items() if on),
         "flags": sorted(s.__name__ for s, on in ctx.flags.items() if on)}
print(json.dumps({"at_import": at_import, "runs": report, "decimal": state}))
"""


def test_double_precision_imports_neither_numpy_nor_mpmath(tmp_path):
    src = os.path.dirname(os.path.dirname(qsu2.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", FRESH_INTERPRETER_RUNS, str(tmp_path / "out.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    # start-up loads neither numpy nor mpmath (decimal, stdlib, is loaded
    # with qcore, which builds its private context at import)
    assert data["at_import"] == []
    # no command, high precision included, loads a third-party module
    assert data["runs"] == [[0, []]] * 6
    # high precision computes in a private context: the thread's own one
    # keeps its defaults and raises no flag
    assert data["decimal"] == {
        "prec": 28, "Emax": 999999, "Emin": -999999, "rounding": "ROUND_HALF_EVEN",
        "traps": ["DivisionByZero", "InvalidOperation", "Overflow"], "flags": [],
    }


@pytest.mark.parametrize("q", ["0.7", "1", "1.3"])
def test_every_command_runs_in_high_precision(tmp_path, q):
    # high precision agrees with double precision wherever the latter is
    # accurate: emitted values to 1e-12, and the verify verdicts
    def both(argv):
        code_lo, lo = run_json(tmp_path, argv, name="lo.json")
        code_hi, hi = run_json(tmp_path, [*argv, "--precision", "high"], name="hi.json")
        assert code_lo == code_hi == 0, argv
        assert len(lo["rows"]) == len(hi["rows"]) > 0
        return lo["rows"], hi["rows"]

    def close(a, b):
        return a == b if not isinstance(a, float) else abs(a - b) <= 1e-12 * max(1.0, abs(a))

    commands = [
        ["spectrum", "--potential", "coulomb", "--q", q, "--lmax", "4"],
        ["spectrum", "--potential", "oscillator", "--q", q, "--lmax", "4"],
        ["harmonics", "--q", q, "--lmax", "4", "--oracle"],
        ["integrate", "--degree", "6", "--q", q] + (["--series-depth", "400"] if float(q) < 1 else []),
    ]
    for argv in commands:
        lo, hi = both(argv)
        for a, b in zip(lo, hi):
            assert a.keys() == b.keys() and all(close(a[k], b[k]) for k in a), (argv, a, b)
    lo, hi = both(["verify", "--q", q, "--lmax", "4"])
    assert [(r["name"], r["passed"]) for r in lo] == [(r["name"], r["passed"]) for r in hi]
    assert max(r["residual"] for r in hi if r["passed"] is not None) < 1e-50


def test_integrate_values(tmp_path):
    code, data = run_json(tmp_path, ["integrate", "--degree", "0", "--q", "1.4"])
    assert code == 0
    assert data["rows"][0]["closed_form"] == 2.0
    code, data = run_json(tmp_path, ["integrate", "--degree", "1", "--q", "1.4"], name="odd.json")
    assert data["rows"][0]["closed_form"] == 0.0
    code, data = run_json(tmp_path, ["integrate", "--degree", "2", "--q", "0.5"], name="half.json")
    row = data["rows"][0]
    assert row["closed_form"] == pytest.approx(2 / 5.25, rel=1e-13)
    assert row["series"] == pytest.approx(row["closed_form"], abs=1e-13)
    assert row["depth_for_1e12"] is not None


def test_integrate_series_requires_small_q():
    assert main(["integrate", "--degree", "2", "--q", "1.5", "--series-depth", "50"]) == 2


def test_integrate_rejects_nonpositive_series_depth(capsys):
    for depth in ("0", "-4"):
        assert main(["integrate", "--degree", "2", "--q", "0.5", "--series-depth", depth]) == 2
        assert capsys.readouterr().err == f"qsu2: series_depth must be at least 1, got {depth}\n"


def test_harmonics_overflow_is_a_usage_error(tmp_path, capsys):
    # from l = 33 on, q = 0.5 pushes a normalization constant past double range
    for fmt in ("json", "csv"):
        path = tmp_path / f"h.{fmt}"
        assert main(["harmonics", "--q", "0.5", "--lmax", "33", "--format", fmt, "--out", str(path)]) == 2
        assert not path.exists()
        err = capsys.readouterr().err
        assert "l=33, m=32" in err and "q=0.5" in err
    for fmt in ("json", "csv"):
        with pytest.raises(ValueError):
            _emit(fmt, ["a"], [{"a": math.inf}], {})


def test_verify_nan_residual_is_a_verification_failure(tmp_path, monkeypatch):
    # a NaN residual is emitted as null (csv: empty) with passed false, and exit 1
    import qsu2.irrep as irrep

    upper, build = irrep.position_coeff_upper, irrep.build_position

    # the upper (l, m, k) = (1, 1, 0) entry, in x0 at block (2, 1), index m + l = 2
    def nan_in_x0(p, lmax):
        x = build(p, lmax)
        x[0].blocks[(2, 1)][2] = math.nan
        return x

    monkeypatch.setattr(irrep, "position_coeff_upper",
                        lambda p, l, m, k: math.nan if (l, m, k) == (1, 1, 0) else upper(p, l, m, k))
    monkeypatch.setattr(irrep, "build_position", nan_in_x0)
    args = ["verify", "--q", "1.3", "--lmax", "6"]
    code, data = run_json(tmp_path, args)
    assert code == 1 and data["passed"] is False
    failed = {r["name"] for r in data["rows"] if r["passed"] is False}
    assert {"unit-sphere-norm", "position-product-expansion", "transverse-square-diagonal"} <= failed
    assert all(r["residual"] is None for r in data["rows"] if r["name"] in failed)
    assert set(data["findings"]["1.3"]["transverse_square_diagonal"]["candidates"].values()) == {None}
    path = tmp_path / "v.csv"
    assert main(args + ["--format", "csv", "--out", str(path)]) == 1
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    assert {r["name"] for r in rows if r["passed"] == "False"} == failed
    assert all(r["residual"] == "" for r in rows if r["name"] in failed)


def test_integrate_overflow_names_degree_and_q(capsys):
    # the closed form 2/[n+1] needs q**(n+1) and q**-(n+1) in double range
    for degree, q in (("5000", "0.5"), ("2000", "3")):
        assert main(["integrate", "--degree", degree, "--q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"degree {degree} " in captured.err and f"q={float(q)}" in captured.err


def test_integrate_underflow_names_the_range_it_leaves(capsys):
    # 2/[n+1] underflows decimal's exponent range in high precision, the
    # double range in double precision; a value decimal holds underflows
    # only as the double the row emits
    huge = str(10 ** 400)
    for degree, q, extra, scope in (
        (huge, "0.9", ["--precision", "high"], "high-precision"),
        (huge, "0.9", [], "double"),
        ("5000", "0.5", ["--precision", "high"], "double"),
    ):
        assert main(["integrate", "--degree", degree, "--q", q, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qsu2: degree {degree} is out of {scope} range at q={q}: 2/[{int(degree) + 1}] underflows\n"


def test_integrate_below_overflow_of_the_q_number(tmp_path):
    # [1025] overflows at q = 0.5, but the half-line limit 1/[1024] of the
    # convergence probe and 2/[1025] = 3 * 2**-1025 are in double range
    code, data = run_json(tmp_path, ["integrate", "--degree", "1023", "--q", "0.5"])
    assert code == 0
    assert data["rows"][0]["closed_form"] == 0.0
    assert data["rows"][0]["depth_for_1e12"] is not None
    for q in ("0.5", "2"):
        code, data = run_json(tmp_path, ["integrate", "--degree", "1024", "--q", q], name=f"{q}.json")
        assert code == 0
        assert data["rows"][0]["closed_form"] == pytest.approx(3 * 2.0 ** -1025, rel=1e-14)


def test_verify_overflow_names_lmax_and_q(capsys):
    # the catalogue needs q**n in double range for |n| up to about 2 lmax + 3
    for q, lmax in (("1e-3", "64"), ("1e100", "3")):
        assert main(["verify", "--q", q, "--lmax", lmax]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"lmax {lmax} " in captured.err and f"q={float(q)}" in captured.err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--potential", "coulomb", "--q", "1e-200", "--lmax", "2"],
    ["spectrum", "--potential", "oscillator", "--q", "1e-300", "--lmax", "3"],
    ["harmonics", "--q", "1e-200", "--lmax", "2"],
])
def test_spectrum_and_harmonics_overflow_name_lmax_and_q(argv, capsys):
    # a float overflow is reported with the q and lmax asked for, as in verify
    q, lmax = argv[argv.index("--q") + 1], argv[argv.index("--lmax") + 1]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"lmax {lmax} " in captured.err and f"q={float(q)}:" in captured.err
    assert "(34," not in captured.err


def test_integrate_at_a_q_whose_reciprocal_overflows(capsys):
    # 1/q overflows below about 5.6e-309: a range error that names q, not a
    # NaN met at emission, and not the degree, which was blamed for it
    assert main(["integrate", "--degree", "2", "--q", "1e-320"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qsu2: 1/q overflows in double precision at q=1e-320\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--lmax", "4"],
    ["spectrum", "--potential", "coulomb"],
    ["harmonics", "--lmax", "3"],
])
def test_every_command_at_a_q_whose_reciprocal_overflows(argv, capsys):
    # each command read "lmax ... is out of double range" for it
    assert main([*argv, "--q", "1e-320"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qsu2: 1/q overflows in double precision at q=1e-320\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "1e-4", "--lmax", "4"],
    ["verify", "--q", "1e4", "--lmax", "4"],
    ["verify", "--q", "1e20", "--lmax", "3", "--precision", "high"],
    ["verify", "--q", "1e-100", "--lmax", "3", "--precision", "high"],
    ["verify", "--q", "1e16", "--lmax", "4", "--precision", "high"],
])
def test_far_from_one_verify_gives_the_full_report(argv, capsys):
    # far from q = 1 the harmonic rows' ladders divide nothing, so no
    # rounding remainder can cost the report: every row is emitted, and a
    # failure is a verdict (exit 1), not a domain error
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1) and captured.err == ""
    names = [row["name"] for row in json.loads(captured.out)["rows"]]
    assert sorted(names) == sorted(row[0] for row in qsu2.irrep._ROWS)


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    # exit 1 means a failed verification, so a path that cannot be written
    # is reported as a usage error
    cases = [
        (["spectrum", "--potential", "coulomb", "--q", "1.3"], tmp_path / "missing" / "x.json",
         "No such file or directory"),
        (["verify", "--q", "1.3", "--lmax", "4"], tmp_path, "Is a directory"),
    ]
    for argv, path, reason in cases:
        assert main([*argv, "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qsu2: cannot write {path}: {reason}\n"


@given(q=st.floats(-3, 3).map(lambda e: 10.0 ** e), lmax=st.integers(3, 64))
@settings(max_examples=10, derandomize=True, deadline=None)
def test_no_traceback_over_the_accepted_domain(q, lmax):
    # q from 1e-3 to 1e3 and lmax up to 64 in double precision: every
    # command ends in an exit code, a verification failure or a
    # numerical-domain error, never in an exception
    common = ["--q", repr(q), "--out", os.devnull]
    for args in (
        ["verify", "--lmax", str(lmax)],
        ["spectrum", "--potential", "coulomb", "--lmax", str(lmax)],
        ["harmonics", "--lmax", str(lmax)],
        ["integrate", "--degree", str(lmax)],
    ):
        assert main(args + common) in (0, 1, 2), args


# the size flag of each command and its range in the extreme-q sweep
EXTREME_Q_SIZES = {
    "verify": ("--lmax", 3, 6),
    "spectrum": ("--lmax", 0, 64),
    "harmonics": ("--lmax", 0, 12),
    "integrate": ("--degree", 0, 3000),
}


@st.composite
def extreme_q_argv(draw):
    """A command line at a q log-uniform over the positive doubles, from
    5e-324 to 1e308, in either precision and at a small size."""
    command = draw(st.sampled_from(sorted(EXTREME_Q_SIZES)))
    flag, lo, hi = EXTREME_Q_SIZES[command]
    q = max(10.0 ** draw(st.floats(-323.3, 308)), 5e-324)
    argv = [command, "--q", repr(q), flag, str(draw(st.integers(lo, hi))),
            "--precision", draw(st.sampled_from(("double", "high")))]
    if command == "spectrum":
        argv += ["--potential", draw(st.sampled_from(POTENTIALS)), "--nmax", "1"]
    return argv


@given(argv=extreme_q_argv())
@example(argv=["integrate", "--degree", "2", "--q", "1e-320", "--precision", "double"])
@example(argv=["integrate", "--degree", "2", "--q", "1e308", "--precision", "double"])
@example(argv=["verify", "--q", "1e-4", "--lmax", "4", "--precision", "double"])
@example(argv=["verify", "--q", "1e16", "--lmax", "4", "--precision", "high"])
@settings(max_examples=200, derandomize=True, deadline=None)
def test_extreme_q_keeps_the_exit_contract(argv):
    # at any positive double q every command ends in exit 0, 1 or 2, and an
    # exit 2 is one stderr line that names q
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", os.devnull])
    err = err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.startswith("qsu2: ") and err.count("\n") == 1 and "q=" in err, (argv, err)
    else:
        assert err == "", (argv, err)


def test_error_paths_write_nothing(tmp_path):
    # a usage error must not leave a partial table behind
    path = tmp_path / "never.json"
    code = main(["integrate", "--degree", "2", "--q", "1.5", "--series-depth", "50", "--out", str(path)])
    assert code == 2
    assert not path.exists()


def test_verify_csv_route(tmp_path):
    path = tmp_path / "v.csv"
    code = main(["verify", "--q", "1.1", "--lmax", "4", "--format", "csv", "--out", str(path)])
    assert code == 0
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert rows[0] == ["q", "group", "name", "residual", "passed", "note"]
    names = {r[2] for r in rows[1:]}
    assert "unit-sphere-norm" in names and "harmonic-orthonormality" in names


# the bytes of one high-precision run, pinned row by row: decimal arithmetic
# is exactly specified, so they are the same on every platform, and a change
# that moves a residual on purpose must update and review this table
HIGH_CSV = """\
q,group,name,residual,passed,note
0.7,harmonic,harmonic-casimir,1.53480577163611e-61,True,
0.7,harmonic,harmonic-ladder-step,9.31396679945179e-62,True,
0.7,harmonic,harmonic-orthonormality,6.05e-60,True,
0.7,harmonic,harmonic-recursion-vs-closed-form,5.98664873803852e-62,True,
0.7,harmonic,ladder-adjointness,5.7e-61,True,
0.7,harmonic,measure-symmetry,6e-62,True,q against 1/q
0.7,harmonic,position-product-expansion,1.91338632157138e-61,True,
0.7,harmonic,position-right-commutation,4.84747573554822e-61,True,
0.7,harmonic,uniform-state-moment,0,True,
0.7,measure,measure-series-agreement,3e-62,True,
0.7,operator,angular-square-diagonal,2e-60,True,
0.7,operator,casimir-diagonal,3e-61,True,
0.7,operator,cross-contraction-dx,5e-61,True,
0.7,operator,cross-contraction-xd,5e-61,True,
0.7,operator,generator-commutator-ladder,2e-61,True,
0.7,operator,generator-commutator-lower,0,True,
0.7,operator,generator-commutator-raise,0,True,
0.7,operator,position-exchange-dilation,4e-62,True,
0.7,operator,position-exchange-mixed,3.3e-62,True,
0.7,operator,position-hermiticity,3e-62,True,
0.7,operator,third-invariant-diagonal,2e-61,True,
0.7,operator,transverse-dual-construction,1e-61,True,
0.7,operator,transverse-exchange-dilation,1e-60,True,with the c*Lambda counterterm
0.7,operator,transverse-exchange-dilation-bare,13.3307762171849,,position-shaped form without the counterterm; exact only on l-changing blocks
0.7,operator,transverse-exchange-mixed,2e-60,True,with the c*Lambda counterterm
0.7,operator,transverse-exchange-mixed-bare,10.3915858953449,,position-shaped form without the counterterm; exact only on l-changing blocks
0.7,operator,transverse-from-invariant,3e-61,True,
0.7,operator,transverse-hermiticity,2e-61,True,
0.7,operator,transverse-square-diagonal,3e-60,True,matched: -([2l][2l+2]/[2]^2 + c_l^2)
0.7,operator,unit-sphere-norm,1.2e-61,True,
0.7,operator,vector-condition-angular,7e-61,True,
0.7,operator,vector-condition-position,1.1e-61,True,
0.7,operator,vector-condition-transverse,6.6e-61,True,
"""


def test_verify_high_precision_csv_bytes(capsys):
    code = main(["verify", "--q", "0.7", "--lmax", "4", "--precision", "high", "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out.split("\r\n") == HIGH_CSV.split("\n")


def test_verify_double_precision_stdout_bytes(capsys):
    # the double-precision counterpart of the CSV pin above: the JSON report
    # of a two-q sweep, hashed, since its 14,474 bytes are too long to inline
    code = main(["verify", "--q", "0.9", "--q", "1.3", "--lmax", "8"])
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert len(out) == 14474
    assert hashlib.sha256(out).hexdigest() == "b6d0a132a482b12c45f54e99325fe2c98e9ab44fb3b733f56a2095b0277f06a9"


def test_cli_corpus_replays():
    # every argv list of the committed corpus, run in process: its exit
    # code, the sha256 of its stdout and its stderr text are those recorded
    # (make_cli_corpus.py), on any platform
    entries = json.loads(corpus.TABLE.read_text())["entries"]
    assert [e["argv"] for e in entries] == corpus.ARGVS
    changed = [e["argv"] for e in entries if corpus.run(e["argv"]) != e]
    assert not changed, changed


def test_stdout_emission(capsys):
    code = main(["integrate", "--degree", "0", "--q", "1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["rows"][0]["closed_form"] == 2.0
