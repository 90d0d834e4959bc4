import dataclasses
import decimal
import inspect
import math
import os
import pickle
import re
import subprocess
import sys
import threading
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qsu2
from qsu2 import (
    AngularFunction,
    OperatorMatrix,
    QParam,
    invariants,
    qdouble_factorial,
    qfactorial,
    qnum,
)
from qsu2.angular import ladder_factor
from qsu2.qcore import _CTX, _in_private_context, _sqrt2

# q = 1 goes through the exact branch; float q keeps a margin from 1 since
# the defining ratio loses ~1/|q-1| digits of the 1e-12 budget to rounding
qvals = st.one_of(
    st.just(1.0),
    st.floats(min_value=0.3, max_value=3.0).filter(lambda q: abs(q - 1) > 1e-3),
)


def test_qnum_classical_limit():
    p = QParam(1.0)
    for n in (0, 1, 2, 7, -3, 2.5):
        assert qnum(n, p) == n


def test_qnum_continuous_at_one():
    # the ratio loses ~|q - 1| relative digits to cancellation, so the
    # tolerance is roundoff-limited, not continuity-limited
    for eps in (1e-9, -1e-9):
        assert abs(qnum(3, QParam(1.0 + eps)) - 3.0) < 1e-6
    for eps in (1e-5, -1e-5):
        assert abs(qnum(3, QParam(1.0 + eps)) - 3.0) < 1e-8


def test_qnum_direct_value():
    # independent evaluation of the defining ratio at q = 2
    expected = (2.0 ** 2 - 2.0 ** -2) / (2.0 - 0.5)
    assert qnum(2, QParam(2.0)) == pytest.approx(expected, abs=1e-15)
    assert expected == 2.5


@given(n=st.integers(-8, 8), q=qvals)
def test_qnum_odd_and_symmetric(n, q):
    p = QParam(q)
    assert qnum(0, p) == 0
    assert abs(qnum(-n, p) + qnum(n, p)) < 1e-12
    scale = max(1.0, abs(qnum(n, p)))
    assert abs(qnum(n, p) - qnum(n, p.reciprocal())) < 1e-12 * scale


@given(q=st.floats(min_value=0.3, max_value=3.0), n=st.integers(0, 10))
def test_qnum_strictly_increasing(q, n):
    p = QParam(q)
    assert qnum(n + 1, p) > qnum(n, p)


def test_qfactorial():
    p = QParam(1.7)
    assert qfactorial(0, p) == 1
    assert qfactorial(3, QParam(1.0)) == 6
    assert qfactorial(3, p) == pytest.approx(qnum(1, p) * qnum(2, p) * qnum(3, p), rel=1e-15)
    with pytest.raises(ValueError):
        qfactorial(-1, p)


def test_qdouble_factorial():
    p2 = QParam(2.0)
    assert qdouble_factorial(-1, p2) == 1
    assert qdouble_factorial(0, p2) == 1
    # [4][2] at q = 2, evaluated independently
    four = (2.0 ** 4 - 2.0 ** -4) / 1.5
    two = (2.0 ** 2 - 2.0 ** -2) / 1.5
    assert qdouble_factorial(4, p2) == pytest.approx(four * two, rel=1e-15)
    assert four * two == 26.5625
    with pytest.raises(ValueError):
        qdouble_factorial(-2, p2)


def test_invariants_l0_exact():
    for q in (0.5, 0.77, 1.0, 1.3, 2.0):
        inv = invariants(0, QParam(q))
        assert inv.C == 0.0 and inv.Cprime == 0.0 and inv.c == 1.0


def test_invariants_classical():
    # [n] is exactly n at q = 1, so the closed forms give l(l+1), l(l+1)
    # and 1 bit for bit, sign and Decimal exponent included
    def bits(x):
        return x.as_tuple() if isinstance(x, Decimal) else x.hex()

    for precision in ("double", "high"):
        for q in (1.0, 1):
            p = QParam(q, precision)
            for l in range(65):
                inv = invariants(l, p)
                assert inv.C == inv.Cprime == l * (l + 1)
                assert bits(inv.C) == bits(inv.Cprime) == bits(l * (l + 1) * p.one)
                assert bits(inv.c) == bits(p.one)


def test_invariants_direct_values():
    # l = 1, q = 2 evaluated straight from the closed forms
    inv = invariants(1, QParam(2.0))
    assert inv.c == pytest.approx((2.0 ** 3 + 2.0 ** -3) / 2.5, abs=1e-15)
    assert inv.c == 3.25
    assert inv.Cprime == pytest.approx(4.25, abs=1e-14)
    assert inv.C == pytest.approx(2.5 * 1.0, abs=1e-14)


@given(l=st.integers(0, 8), q=qvals)
def test_invariants_q_inverse_symmetry(l, q):
    a = invariants(l, QParam(q))
    b = invariants(l, QParam(q).reciprocal())
    for u, v in ((a.C, b.C), (a.Cprime, b.Cprime), (a.c, b.c)):
        assert abs(u - v) < 1e-12 * max(1.0, abs(u))


def test_double_q_whose_reciprocal_overflows():
    # below 1/DBL_MAX a subnormal q has 1/q = inf, so lam would be -inf:
    # double precision refuses it, high precision has no such limit
    for q in (1e-320, 5e-324):
        with pytest.raises(OverflowError, match="q="):
            QParam(q)
    p = QParam(1e-320, "high")
    assert p.lam.is_finite() and p.lam < Decimal("-1e320")


def test_double_q_outside_the_double_range():
    # a positive real that rounds to inf or 0 as a double, or is too large
    # to round at all, read "q must be a positive real number"; it names q
    # and the double range now; high precision takes the int and the Decimals
    for q in (10 ** 400, Decimal("1E-400"), Decimal("1E+400")):
        with pytest.raises(OverflowError, match=re.escape(f"q={q!r} lies outside the double range")):
            QParam(q)
        assert QParam(q, "high").q == q
    # the ends of the range stay, and a value that is not positive and
    # finite, or no real (a Fraction), is refused by the real rule in
    # either precision
    for q in (1e308, 1e-307):
        assert QParam(q).q == q
    for precision in ("double", "high"):
        for bad in (-10 ** 400, Decimal("-1E-400"), Decimal("Infinity"), math.inf):
            with pytest.raises(ValueError, match=re.escape(f"q must be positive and finite, got {bad!r}")):
                QParam(bad, precision)
        bad = Fraction(1, 10 ** 400)
        with pytest.raises(ValueError, match=re.escape(f"q {_NOT_REAL}, got {bad!r}")):
            QParam(bad, precision)


def test_invariants_rejects_bad_l():
    with pytest.raises(ValueError):
        invariants(-1, QParam(1.2))


def _function(p):
    return AngularFunction(p, 1, {0: 1.0, 2: -0.5})


# Every argument that takes an integer, a harmonic label, a spherical
# component (k) or a real, by qcore's four rules: a call passing v as that
# argument, and the lowest value it accepts (None: an integer of any sign),
# or for a real "real" (any) or "positive" (in (0, inf)).  The key names
# the function and the argument; a one-word key names a function of one
# integer, l for invariants and n for the others.  The label takers' l
# goes with m = 0, their m with l = 2.  A QParam's q is built in the
# precision of the p a call is given.
_ARGUMENTS = {
    "invariants": (invariants, 0),
    "qfactorial": (qfactorial, 0),
    "qdouble_factorial": (qdouble_factorial, -1),
    "integrate_monomial": (lambda v, p: qsu2.integrate_monomial(v, qsu2.QMeasure(p)), 0),
    "series_convergence_probe n": (qsu2.series_convergence_probe, 0),
    "coulomb_energy n": (lambda v, p: qsu2.coulomb_energy(v, 1, p), 0),
    "oscillator_energy l": (lambda v, p: qsu2.oscillator_energy(0, v, p), 0),
    "QMeasure series_depth": (lambda v, p: qsu2.QMeasure(p, series_depth=v), 1),
    "AngularFunction m": (lambda v, p: AngularFunction(p, v, {0: 1.0}), None),
    "build_y l": (lambda v, p: qsu2.build_y(v, 0, p), 0),
    "build_y m": (lambda v, p: qsu2.build_y(2, v, p), -2),
    "ladder_factor l": (lambda v, p: ladder_factor(v, 0, p), 0),
    "ladder_factor m": (lambda v, p: ladder_factor(2, v, p), -2),
    "build_phi l": (lambda v, p: qsu2.build_phi(v, 0, p), 0),
    "build_phi m": (lambda v, p: qsu2.build_phi(2, v, p), 0),
    "hypergeom_phi l": (lambda v, p: qsu2.hypergeom_phi(v, 0, p), 0),
    "hypergeom_phi m": (lambda v, p: qsu2.hypergeom_phi(2, v, p), 0),
    "normalization_constant l": (lambda v, p: qsu2.normalization_constant(v, 0, p), 0),
    "normalization_constant m": (lambda v, p: qsu2.normalization_constant(2, v, p), 0),
    "mul_position k": (lambda v, p: qsu2.mul_position(v, _function(p)), -1),
    "mul_position_right k": (lambda v, p: qsu2.mul_position_right(v, _function(p)), -1),
    "apply_lambda k": (lambda v, p: qsu2.apply_lambda(v, _function(p)), -1),
    "position_coeff_upper k": (lambda v, p: qsu2.position_coeff_upper(p, 2, 0, v), -1),
    "position_coeff_lower k": (lambda v, p: qsu2.position_coeff_lower(p, 2, 0, v), -1),
    "position_coeff_upper l": (lambda v, p: qsu2.position_coeff_upper(p, v, 0, 0), 0),
    "position_coeff_upper m": (lambda v, p: qsu2.position_coeff_upper(p, 2, v, 0), -2),
    "position_coeff_lower l": (lambda v, p: qsu2.position_coeff_lower(p, v, 0, 0), 0),
    "position_coeff_lower m": (lambda v, p: qsu2.position_coeff_lower(p, 2, v, 0), -2),
    "AngularFunction key": (lambda v, p: AngularFunction(p, 0, {v: 1.0}), 0),
    # the sizes
    "build_generators lmax": (lambda v, p: qsu2.build_generators(p, v), 0),
    "build_position lmax": (lambda v, p: qsu2.build_position(p, v), 1),
    "diag_operator lmax": (lambda v, p: qsu2.diag_operator(p, v, lambda l, m: p.one), None),
    "verify_algebra lmax": (lambda v, p: qsu2.verify_algebra(p, v), 3),
    "spectrum_table nmax": (lambda v, p: qsu2.spectrum_table("coulomb", p, v, 1), 0),
    "spectrum_table lmax": (lambda v, p: qsu2.spectrum_table("coulomb", p, 1, v), 0),
    "degeneracy_report nmax": (lambda v, p: qsu2.degeneracy_report("coulomb", p, v, 2), 1),
    "degeneracy_report lmax": (lambda v, p: qsu2.degeneracy_report("coulomb", p, 2, v), 1),
    "RadialGrid n_steps": (lambda v, p: qsu2.RadialGrid(n_steps=v), 0),
    # the reals
    "QParam q": (lambda v, p: QParam(v, p.precision), "positive"),
    "AngularFunction coeffs": (lambda v, p: AngularFunction(p, 0, {0: v}), "real"),
    "scaled s": (lambda v, p: _function(p).scaled(v), "real"),
    "verify_algebra tol": (lambda v, p: qsu2.verify_algebra(p, 3, v), "positive"),
}
_SIZES = [name for name in _ARGUMENTS if name.split()[-1] in ("nmax", "lmax", "n_steps")]
_REALS = [name for name, (_, lowest) in _ARGUMENTS.items() if lowest in ("real", "positive")]
# the value grids; the three strings name values relative to the lowest
_VALUES = [True, False, 2.0, 2.5, math.inf, math.nan, None, "2", "np.int64 of the lowest", "one below the range", "the lowest"]
_REAL_VALUES = [True, Fraction(1, 2), np.int64(2), np.float32(0.5), np.float64(0.5), Decimal("0.5"), "2", None, 1j,
                math.nan, math.inf, 0, -1, Decimal("sNaN")]
# qcore's real rule, as a refusal reads it after the argument's name
_NOT_REAL = "must be a real number (an int, a float or a Decimal)"


def _refusal(name: str, v) -> str | None:
    """The text with which entry name refuses v, None where it takes it."""
    words = name.split()
    arg = words[1] if len(words) > 1 else "l" if name == "invariants" else "n"
    if name in _REALS:
        # an int (not a bool), a float or a Decimal but not a signaling
        # NaN, and a positive one finite too
        if isinstance(v, bool) or not isinstance(v, (int, float, Decimal)) or isinstance(v, Decimal) and v.is_snan():
            return f"{arg} {_NOT_REAL}, got {v!r}"
        positive = _ARGUMENTS[name][1] == "positive"
        return f"{arg} must be positive and finite, got {v!r}" if positive and not 0 < v < math.inf else None
    if arg == "series_depth" and v is None:
        return None  # the closed-form measure
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        return f"{arg} must be an integer, got {v!r}"
    if arg == "k":
        # an integer first, then one of the three components
        return None if v in (1, 0, -1) else f"k must be one of +1, 0, -1, got {v}"
    lowest = _ARGUMENTS[name][1]
    if lowest is None or v >= lowest:
        return None
    if f"{words[0]} m" in _ARGUMENTS and words[0] != "AngularFunction":
        # a label taker: m >= -l where its m entry takes -2 at l = 2
        l, m = (v, 0) if arg == "l" else (2, v)
        bound = "-l" if _ARGUMENTS[f"{words[0]} m"][1] < 0 else "0"
        return f"label needs {bound} <= m <= l, got (l={l}, m={m})"
    return f"{arg} must be at least {lowest}, got {v!r}"


def _assert_domain(name, value):
    """Entry name takes value, or refuses it in its rule's one form before
    any work, in both precisions."""
    call, lowest = _ARGUMENTS[name]
    v = value
    if name not in _REALS:
        low = 0 if lowest is None else lowest
        v = {"np.int64 of the lowest": np.int64(low), "one below the range": low - 1, "the lowest": low}.get(value, value)
    want = _refusal(name, v)
    for precision in ("double", "high"):
        p = QParam(0.5, precision)
        if want is None:
            call(v, p)
        else:
            with pytest.raises(ValueError) as info:
                call(v, p)
            assert str(info.value) == want
            assert not p._table


@pytest.mark.parametrize("value", _VALUES)
@pytest.mark.parametrize("name", [name for name in _ARGUMENTS if name not in _SIZES + _REALS])
def test_integer_arguments_take_integers_only(name, value):
    # a bool acted as 1, 2.0 was taken, inf raised OverflowError from int();
    # every refusal reads one form per rule, in both precisions, before any
    # work
    _assert_domain(name, value)


@pytest.mark.parametrize("value", _VALUES)
@pytest.mark.parametrize("name", _SIZES)
def test_size_arguments_take_integers_only(name, value):
    # 2.0 and 2.5 raised TypeError from range(), True counted as 1, and a
    # float step count failed inside the shooting walk
    _assert_domain(name, value)


@pytest.mark.parametrize("value", _REAL_VALUES)
@pytest.mark.parametrize("name", _REALS)
def test_real_arguments_take_reals_only(name, value):
    # q took any numbers.Real in double precision and only what Decimal()
    # converts in high precision, tol any numbers.Real in both: each now
    # takes an int, a float or a Decimal, the same in both precisions.  A
    # signaling-NaN coefficient failed with "cannot convert signaling NaN to
    # float" in double precision and a bare InvalidOperation in high, where
    # scaled took one silently: each site now refuses it by the real rule
    _assert_domain(name, value)


def test_a_component_is_an_integer_and_comes_back_an_int():
    # k was checked by equality: 1.0, -1.0 and Decimal(1) passed the rule and
    # gave a float or Decimal winding or a bare TypeError from p.power, and
    # True acted as 1.  Now each is refused before any work, and a numpy
    # integer gives an int winding and the coefficient of the int
    takers = [name for name in _ARGUMENTS if name.endswith(" k")]
    for precision in ("double", "high"):
        for k in (1.0, -1.0, True, Decimal(1)):
            for name in takers:
                p = QParam(0.5, precision)
                with pytest.raises(ValueError) as info:
                    _ARGUMENTS[name][0](k, p)
                assert str(info.value) == f"k must be an integer, got {k!r}" and not p._table, (name, k)
        p = QParam(0.5, precision)
        f = _function(p)
        for op in (qsu2.mul_position, qsu2.mul_position_right, qsu2.apply_lambda):
            g = op(np.int64(1), f)
            assert type(g.m) is int and g.m == 2 and g.coeffs == op(1, f).coeffs
        for coeff in (qsu2.position_coeff_upper, qsu2.position_coeff_lower):
            assert repr(coeff(p, 2, 0, np.int64(-1))) == repr(coeff(p, 2, 0, -1))


def test_qparam_validation():
    for precision in ("double", "high"):
        # "1.5", b"2" and True read as 1.5, 2.0 and 1.0 through float();
        # q is refused by qcore's real rule, in its two forms
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=re.escape(f"q must be positive and finite, got {bad!r}")):
                QParam(bad, precision)
        for bad in (1 + 1j, "junk", None, "1.5", b"2", bytearray(b"2"), True, False,
                    Fraction(3, 2), np.int64(2), np.float32(1.5)):
            with pytest.raises(ValueError, match=re.escape(f"q {_NOT_REAL}, got {bad!r}")):
                QParam(bad, precision)
    with pytest.raises(ValueError):
        QParam(1.2, "quad")
    # the reals are the same in both precisions: an int, a float (np.float64
    # is one) or a Decimal, which high precision and reciprocal() pass
    for good in (2, 1.5, np.float64(1.5), Decimal("1.5")):
        assert QParam(good).q == float(good) and type(QParam(good).q) is float
        assert QParam(good, "high").q == Decimal(good)


def test_sqrt_of_a_negative_raises_in_both_precisions():
    # decimal would return a quiet NaN in the private context, where an
    # invalid operation is not trapped; sqrt refuses it as math.sqrt does
    for precision in ("double", "high"):
        p = QParam(1.3, precision)
        with pytest.raises(ValueError):
            p.sqrt(-p.one)
        assert p.sqrt(4 * p.one) == 2 and p.sqrt(p.zero) == 0
        # a NaN passes through, as math.sqrt lets it, whatever the caller traps
        with decimal.localcontext() as ctx:
            ctx.traps[decimal.InvalidOperation] = True
            assert math.isnan(p.sqrt(p.number(math.nan)))


def test_high_precision_mode():
    p = QParam(1.3, "high")
    q = p.q
    # the reference sum rounds at the calling thread's context, so it is
    # formed in the private 62-digit one
    with decimal.localcontext(_CTX):
        assert abs(q ** 4 + q ** 2 + 1 + q ** -2 + q ** -4 - qnum(5, p)) < 1e-40
    pd = QParam(1.3)
    for l in range(5):
        hi, lo = invariants(l, p), invariants(l, pd)
        assert abs(float(hi.c) - lo.c) < 1e-12


def test_high_precision_pi():
    # the fixed digit string against an independent evaluation
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(80):
        want = Decimal(mpmath.nstr(mpmath.pi, 70))
    assert QParam(0.7, "high").pi == decimal.Context(prec=62).plus(want)


def test_cprime_matches_angular_square_diagonal():
    # cross-module oracle: the closed form against the contracted vector
    # built on the truncated basis
    from qsu2 import build_generators, build_lambda, scalar_product

    for q in (0.6, 1.0, 1.4):
        p = QParam(q)
        lam = build_lambda(build_generators(p, 10))
        sq = scalar_product(lam, lam)
        for l in range(9):
            expected = invariants(l, p).Cprime
            for v in sq.diagonal(l):
                assert abs(v - expected) < 1e-10 * max(1.0, abs(expected))


def _bits(x):
    """The exact representation of a float or Decimal, sign of zero and exponent included."""
    return x.hex() if isinstance(x, float) else x.as_tuple()


# the reference the double-precision entries are checked against: 80
# digits, 18 more than the private context carries
_REF = decimal.Context(prec=80, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def test_table_entries_equal_the_direct_formulas():
    # double precision: lambda and every entry ("pow", e) and ("qnum", n) is
    # its value at 80 digits from the exact q, rounded once to a double,
    # near q = 1, where lambda cancels, and far from it
    for q in (1 + 1e-8, 1 - 1e-8, 1 + 1e-6, 1 - 1e-6, 0.999, 1.0001, 0.1, 1.3, 10.0):
        p = QParam(q)
        with decimal.localcontext(_REF):
            x = Decimal(q)
            lam = x - 1 / x
            assert _bits(p.lam) == _bits(float(lam)), q
            for n in range(-129, 130):
                assert _bits(p.power(n)) == _bits(float(x ** n)), (q, n)
                assert _bits(qnum(n, p)) == _bits(float((x ** n - x ** -n) / lam)), (q, n)
                assert p._table[("pow", n)] is p.power(n) and p._table[("qnum", n)] is qnum(n, p)
            # the square root of [2], one rounding of the double [2]
            root = _sqrt2(p)
            assert _bits(root) == _bits(math.sqrt(qnum(2, p))) and p._table[("sqrt2",)] is root is _sqrt2(p), q
            # a real index is rounded the same way and not stored
            size, h = len(p._table), Decimal(2.5)
            assert _bits(qnum(2.5, p)) == _bits(float((x ** h - x ** -h) / lam)) and len(p._table) == size
        assert (_bits(p.one), _bits(p.zero)) == (_bits(1.0), _bits(0.0))
    p = QParam(1.0)
    assert (p.lam, p.power(-7), qnum(-7, p), qnum(2.5, p)) == (0.0, 1.0, -7.0, 2.5)
    # high precision: the 62-digit formulas themselves, bit for bit
    for q in (0.5, 1.0, 1.3):
        p = QParam(q, "high")
        qq = p.q
        with decimal.localcontext(_CTX):
            assert _bits(p.one) == _bits(qq ** 0) and _bits(p.zero) == _bits(0 * qq ** 0)
            for n in range(-12, 13):
                direct = n * qq ** 0 if q == 1.0 else (qq ** n - qq ** (-n)) / (qq - 1 / qq)
                first = qnum(n, p)
                assert _bits(first) == _bits(direct), (q, n)
                # a second call reads the stored entry
                assert qnum(n, p) is first
                power = p.power(n)
                assert _bits(power) == _bits(qq ** n) and p.power(n) is power
            root = _sqrt2(p)
            assert _bits(root) == _bits(_CTX.sqrt(qnum(2, p))) and p._table[("sqrt2",)] is root is _sqrt2(p), q
            # a real index is computed directly and not stored
            size = len(p._table)
            h = p.number(2.5)
            assert _bits(qnum(2.5, p)) == _bits(h * qq ** 0 if q == 1.0 else (qq ** h - qq ** -h) / (qq - 1 / qq))
            assert len(p._table) == size


def test_table_overflow_is_raised_and_not_stored():
    p = QParam(1.3)
    size = len(p._table)
    # past the double range, and at 10**20 past decimal's own range too,
    # which raises OverflowError as well, as float ** did
    for e in (5000, 5000, 10 ** 20):
        with pytest.raises(OverflowError):
            qnum(e, p)
        with pytest.raises(OverflowError):
            p.power(e)
    assert len(p._table) == size
    # the high-precision backend has no such range limit
    ph = QParam(1.3, "high")
    assert qnum(5000, ph) > 0 and ph.power(-5000) > 0


def test_table_is_invisible_to_equality_hash_and_repr():
    for precision in ("double", "high"):
        filled, fresh = QParam(1.3, precision), QParam(1.3, precision)
        invariants(6, filled)
        qnum(9, filled)
        filled.power(-4)
        assert filled._table and not fresh._table
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh) and "_table" not in repr(filled)
        assert filled != QParam(1.3, "high" if precision == "double" else "double")


# ----------------------------- the decimal context contract -----------------------------

def _canon(x):
    """A bitwise-comparable image of a result: floats by hex, Decimals by
    their tuple, and containers, operators, functions and report
    dataclasses by their parts."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, Decimal):
        return x.as_tuple()
    if isinstance(x, Mapping):
        return sorted((repr(k), _canon(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, OperatorMatrix):
        return x.delta_m, _canon(x.blocks)
    if isinstance(x, AngularFunction):
        return x.m, _canon(x.coeffs)
    if isinstance(x, QParam):
        return _canon((x.q, x.lam, x.one, x.zero))
    if dataclasses.is_dataclass(x):
        return [(f.name, _canon(getattr(x, f.name))) for f in dataclasses.fields(x)]
    assert x is None or isinstance(x, (int, str, bool)), type(x)
    return x


def _precision_calls(precision):
    """Every exported function that computes, and the arithmetic of
    operators and angular functions, as thunks in the given precision.
    Each thunk builds its inputs from a fresh QParam, whose table is empty,
    so its whole computation runs in the context it is called under."""
    def op(fn):
        return lambda: fn(QParam(0.7, precision))

    def ops(p):
        gen = qsu2.build_generators(p, 4)
        return gen, qsu2.build_position(p, 4)

    def partials(p):
        gen, x = ops(p)
        lam = qsu2.build_lambda(gen)
        return qsu2.build_partial(x, lam, qsu2.build_invariant_c(lam)), qsu2.build_partial_elements(x)

    def fns(p):
        return qsu2.build_y(3, -1, p), qsu2.build_y(2, -1, p)

    return {
        "QParam": op(lambda p: (p, p.reciprocal(), p.pi, p.sqrt(p.q), p.power(-5))),
        "qnum": op(lambda p: (qnum(7, p), qnum(-3, p), qnum(2.5, p))),
        "qnum at q = 1": lambda: qnum(2.5, QParam(1.0, precision)),
        "qfactorial": op(lambda p: (qfactorial(6, p), qdouble_factorial(7, p))),
        "invariants": op(lambda p: [invariants(l, p) for l in range(5)]),
        "angular_function": op(lambda p: qsu2.angular_function(p, 1, {0: 0.4, 2: -0.9})),
        "build_phi": op(lambda p: (qsu2.build_phi(5, 1, p), qsu2.hypergeom_phi(5, 1, p))),
        "build_y": op(lambda p: [qsu2.build_y(4, m, p) for m in range(-4, 5)]),
        "normalization_constant": op(lambda p: [qsu2.normalization_constant(l, m, p) for l, m in ((3, 2), (4, 1))]),
        "ladders": op(lambda p: [f(g) for g in fns(p) for f in (
            qsu2.apply_l0, qsu2.apply_lplus, qsu2.apply_lminus, qsu2.apply_casimir, qsu2.apply_c_invariant,
        )]),
        "apply_lambda": op(lambda p: [qsu2.apply_lambda(k, fns(p)[0]) for k in (1, 0, -1)]),
        "mul_position": op(lambda p: [f(k, fns(p)[0]) for k in (1, 0, -1)
                                      for f in (qsu2.mul_position, qsu2.mul_position_right)]),
        "function arithmetic": op(lambda p: (
            fns(p)[0] + fns(p)[1], fns(p)[0] - fns(p)[1], fns(p)[0].scaled(p.lam),
            fns(p)[0].distance(fns(p)[1]), fns(p)[0].max_abs(),
        )),
        "inner_product": op(lambda p: [
            qsu2.inner_product(f, g, qsu2.QMeasure(p)) for f in fns(p) for g in fns(p)
        ]),
        "inner_product y00 y20": op(lambda p: qsu2.inner_product(
            qsu2.build_y(0, 0, p), qsu2.build_y(2, 0, p), qsu2.QMeasure(p)
        )),
        "integrate_monomial": op(lambda p: [
            qsu2.integrate_monomial(n, mu) for n in range(5) for mu in (qsu2.QMeasure(p), qsu2.QMeasure(p, 40))
        ]),
        "series_convergence_probe": op(lambda p: qsu2.series_convergence_probe(2, p)),
        "build_generators": op(lambda p: qsu2.build_generators(p, 4)),
        "build_lambda": op(lambda p: qsu2.build_invariant_c(qsu2.build_lambda(ops(p)[0]))),
        "build_position": op(lambda p: (
            qsu2.build_position(p, 4), qsu2.position_coeff_upper(p, 3, 1, -1), qsu2.position_coeff_lower(p, 3, 1, 1)
        )),
        "build_partial": op(partials),
        "diag_operator": op(lambda p: (
            qsu2.identity_operator(p, 3), qsu2.diag_operator(p, 3, lambda l, m: qnum(m, p) / 7)
        )),
        "scalar_product": op(lambda p: qsu2.scalar_product(ops(p)[1], ops(p)[1])),
        "operator arithmetic": op(lambda p: (
            ops(p)[1][1] @ ops(p)[1][-1], ops(p)[1][0] + ops(p)[1][0].scaled(p.lam),
            ops(p)[1][0] - ops(p)[1][0].scaled(p.q), ops(p)[1][1].dagger(), ops(p)[1][1].max_abs(),
            ops(p)[1][0].distance(ops(p)[1][0].scaled(p.q)), ops(p)[0]["L0"].diagonal(2),
        )),
        "transverse_square_candidates": op(lambda p: qsu2.transverse_square_candidates(3, p)),
        "verify_algebra": op(lambda p: qsu2.verify_algebra(p, 3)),
        "spectra": op(lambda p: (
            qsu2.centrifugal_rhs(3, p), qsu2.solve_l(3, p), qsu2.coulomb_energy(1, 2, p),
            qsu2.oscillator_energy(1, 2, p), qsu2.spectrum_table("oscillator", p, 1, 2),
            qsu2.degeneracy_report("coulomb", p, 1, 2), qsu2.multipole_report(p),
        )),
        "radial_verify": op(lambda p: qsu2.radial_verify("oscillator", 0, 1, p)),
    }


@pytest.mark.parametrize("precision", ["double", "high"])
def test_precision_calls_run_every_exported_function(precision):
    # _precision_calls claims every exported function that computes: the
    # code of each function in the package namespace runs under its thunks
    want = {name: inspect.unwrap(obj).__code__ for name, obj in vars(qsu2).items() if inspect.isfunction(obj)}
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    calls = _precision_calls(precision)
    sys.setprofile(profile)
    try:
        for call in calls.values():
            call()
    finally:
        sys.setprofile(None)
    assert [name for name, code in want.items() if code not in ran] == []


def _assert_ignores_the_callers_decimal_context(call):
    # decimal rounds at the calling thread's context: every entry point
    # must run in the private one, and hand the caller's back unchanged
    results = []
    for prec, rounding in ((10, decimal.ROUND_DOWN), (decimal.getcontext().prec, decimal.getcontext().rounding)):
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.rounding = prec, rounding
            before = ctx.prec, ctx.rounding, dict(ctx.traps), ctx.Emax
            results.append(_canon(call()))
            after = decimal.getcontext()
            assert after is ctx and (after.prec, after.rounding, dict(after.traps), after.Emax) == before
    assert results[0] == results[1]


@pytest.mark.parametrize("name", list(_precision_calls("high")))
def test_high_precision_ignores_the_callers_decimal_context(name):
    _assert_ignores_the_callers_decimal_context(_precision_calls("high")[name])


@pytest.mark.parametrize("name", list(_precision_calls("double")))
def test_double_precision_ignores_the_callers_decimal_context(name):
    # the double-precision inner product sums in decimal, in a copy of the
    # private context rather than of the caller's
    _assert_ignores_the_callers_decimal_context(_precision_calls("double")[name])


def test_high_precision_restores_the_callers_context_when_it_raises():
    # apply_lambda refuses a component outside +1, 0, -1 from inside the
    # private context
    p = QParam(1.3, "high")
    f = qsu2.angular_function(p, -2, {0: 1, 2: 1})
    with decimal.localcontext() as ctx:
        ctx.prec = 10
        with pytest.raises(ValueError, match=re.escape("k must be one of +1, 0, -1, got 2")):
            qsu2.apply_lambda(2, f)
        assert decimal.getcontext() is ctx and ctx.prec == 10


def test_private_context_decorator_fits_any_signature():
    # the decorator reads nothing of the arguments: a kernel of two
    # operators and a scalar runs in the private context
    @_in_private_context
    def commutator(a, b, s):
        assert decimal.getcontext() is _CTX
        return a @ b - (b @ a).scaled(s)

    p = QParam(0.7, "high")
    x = qsu2.build_position(p, 4)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = 10, decimal.ROUND_DOWN
        got = commutator(x[1], x[-1], p.q)
        assert decimal.getcontext() is ctx
    assert _canon(got) == _canon(x[1] @ x[-1] - (x[-1] @ x[1]).scaled(p.q))


def test_high_precision_in_two_threads():
    # decimal contexts are per thread: two threads with their own precisions
    # both compute in the private context and each keeps its own afterwards
    rep = qsu2.verify_algebra(QParam(0.7, "high"), 4)
    want = rep.checks, rep.finding
    start = threading.Barrier(2, timeout=60)
    got = {}

    def run(prec):
        decimal.getcontext().prec = prec
        start.wait()
        rep = qsu2.verify_algebra(QParam(0.7, "high"), 4)
        got[prec] = (rep.checks, rep.finding), decimal.getcontext().prec

    threads = [threading.Thread(target=run, args=(prec,)) for prec in (10, 40)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert got == {10: (want, 10), 40: (want, 40)}


def test_private_context_ignores_the_default_context_template():
    # decimal.Context() copies unset fields from decimal.DefaultContext, so
    # the private context sets its rounding itself
    code = ("import decimal; decimal.DefaultContext.rounding = decimal.ROUND_DOWN; "
            "from qsu2 import QParam, qnum; print(qnum(7, QParam(0.7, 'high')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qsu2.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert Decimal(proc.stdout) == qnum(7, QParam(0.7, "high"))


def test_unpickled_high_precision_parameter_in_a_fresh_interpreter(tmp_path):
    # unpickling skips construction, so the parameter must find the private
    # context ready in an interpreter that has built no QParam
    path = tmp_path / "p.pkl"
    path.write_bytes(pickle.dumps(QParam(1.3, "high")))
    code = f"import pickle; from qsu2 import qnum; print(qnum(3, pickle.loads(open({str(path)!r}, 'rb').read())))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qsu2.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert Decimal(proc.stdout) == qnum(3, QParam(1.3, "high"))
