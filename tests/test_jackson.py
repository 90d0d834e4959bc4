import copy
import decimal
import hashlib
import gc
import math
import pickle
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsu2 import (
    QMeasure,
    QParam,
    angular_function,
    build_y,
    inner_product,
    integrate_monomial,
    jackson,
    qnum,
    series_convergence_probe,
)
from qsu2.irrep import _series_pairs
from qsu2.jackson import PROBE_DEPTHS, _halfline_series, _moments
from qsu2.qcore import _CTX

qvals = st.one_of(
    st.just(1.0),
    st.floats(min_value=0.3, max_value=3.0).filter(lambda q: abs(q - 1) > 1e-3),
)


def test_monomial_values():
    p = QParam(0.5)
    mu = QMeasure(p)
    assert integrate_monomial(0, mu) == 2.0
    assert integrate_monomial(1, mu) == 0.0
    three = (0.5 ** 3 - 2.0 ** 3) / (0.5 - 2.0)
    assert three == 5.25
    assert integrate_monomial(2, mu) == pytest.approx(2 / three, rel=1e-15)


def test_monomial_rejects_negative_degree():
    with pytest.raises(ValueError):
        integrate_monomial(-2, QMeasure(QParam(1.2)))


@pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan, 2.5, -1])
def test_monomial_degree_must_be_a_nonnegative_integer(n):
    # inf raised OverflowError from int(), nan took its message from int()
    with pytest.raises(ValueError, match=f"monomial degree must be a nonnegative integer, got {n!r}"):
        integrate_monomial(n, QMeasure(QParam(0.5)))


@given(n=st.integers(0, 10), q=qvals)
def test_monomial_q_inverse_symmetry(n, q):
    p = QParam(q)
    a = integrate_monomial(n, QMeasure(p))
    b = integrate_monomial(n, QMeasure(p.reciprocal()))
    assert abs(a - b) < 1e-13 * max(1.0, abs(a))


@given(n=st.integers(0, 8), q=qvals)
def test_even_monomials_positive(n, q):
    assert integrate_monomial(2 * n, QMeasure(QParam(q))) > 0


def integral(coeffs: dict, mu: QMeasure):
    """The m = 0 integral of a polynomial: its inner product with the
    constant function, over 2 pi."""
    p = mu.p
    one = angular_function(p, 0, {0: 1.0})
    return inner_product(one, angular_function(p, 0, coeffs), mu) / (2 * math.pi)


def test_polynomial_orthogonality_row():
    # the quadrupole polynomial integrates to zero against the constant
    for q in (0.5, 1.0, 1.7):
        p = QParam(q)
        three = qnum(3, p)
        measures = [QMeasure(p)] + ([QMeasure(p, series_depth=200)] if q < 1 else [])
        for mu in measures:
            val = integral({0: 1.0, 2: -three}, mu)
            assert abs(val) < 1e-13, (q, mu.series_depth)


def test_polynomial_classical():
    assert integral({2: 1.0}, QMeasure(QParam(1.0))) == pytest.approx(2 / 3, rel=1e-15)


@given(coeffs=st.dictionaries(st.integers(0, 6), st.floats(-3, 3), max_size=5))
@settings(max_examples=40)
def test_series_matches_closed_form(coeffs):
    p = QParam(0.5)
    closed = integral(coeffs, QMeasure(p))
    series = integral(coeffs, QMeasure(p, series_depth=200))
    assert abs(closed - series) < 1e-12 * max(1.0, abs(closed))


def test_moments_match_grid_sum():
    # closed-form weighted moments against the grid sum with the factored
    # weight, both at 60 digits; the grid is cut where q**(2D) < 1e-60
    # decimal rounds at the caller's context, so the private helpers and
    # the comparison run in the private one
    for q in (0.3, 0.5, 0.9):
        p = QParam(q, "high")
        depth = math.ceil(60 * math.log(10) / (-2 * math.log(q))) + 7
        for m in range(-6, 7):
            with decimal.localcontext(_CTX):
                closed = _moments(m, 16, p.q)
                grid = _halfline_series(range(0, 17, 2), p.q, depth, m)
                for n in range(0, 17, 2):
                    assert abs(closed[n] - 2 * grid[n // 2]) < 1e-50 * float(closed[n]), (q, m, n)
            assert all(closed[n] == 0 for n in range(1, 17, 2))
    # q -> 1/q maps M_m to M_-m
    for q in (2.0, 3.3):
        p = QParam(q, "high")
        mu, mu_r = QMeasure(p), QMeasure(p.reciprocal())
        for m in range(-6, 7):
            one, one_r = angular_function(p, m, {0: 1}), angular_function(p.reciprocal(), -m, {0: 1})
            for n in range(0, 17, 2):
                a = inner_product(one, angular_function(p, m, {n: 1}), mu)
                b = inner_product(one_r, angular_function(p.reciprocal(), -m, {n: 1}), mu_r)
                with decimal.localcontext(_CTX):
                    assert abs(a - b) < 1e-50 * float(abs(a)), (q, m, n)


def test_double_precision_moments_match_high_precision():
    for q in (0.05, 0.5, 0.999, 1.0, 1.3, 20.0):
        p, ph = QParam(q), QParam(q, "high")
        for m in (-5, 0, 3):
            for n in (0, 2, 8):
                lo = inner_product(angular_function(p, m, {0: 1.0}), angular_function(p, m, {n: 1.0}), QMeasure(p))
                hi = inner_product(angular_function(ph, m, {0: 1}), angular_function(ph, m, {n: 1}), QMeasure(ph))
                # the double nearest pi is 1.2e-16 off, the final rounding up to 1.1e-16
                assert abs(lo - float(hi)) <= 2.5e-16 * abs(float(hi)), (q, m, n)


def test_monomial_beyond_q_number_range():
    # [n+1] overflows from n = 1024 at q = 0.5 ([1024] = 2**1024/1.5 is a
    # double); the bounded form takes over
    for q in (0.5, 2.0):
        mu = QMeasure(QParam(q))
        assert integrate_monomial(1022, mu) == 2 / qnum(1023, mu.p)
        assert integrate_monomial(1024, mu) == 3 * 2.0 ** -1025
        assert integrate_monomial(5000, mu) == 0


def test_series_mode_requires_small_q():
    with pytest.raises(ValueError):
        QMeasure(QParam(1.5), series_depth=100)
    with pytest.raises(ValueError):
        QMeasure(QParam(1.0), series_depth=100)
    with pytest.raises(ValueError):
        QMeasure(QParam(0.5), series_depth=0)


@pytest.mark.parametrize("depth", [2.5, 3.0, True, False, "4"])
def test_series_depth_must_be_an_integer(depth):
    # 2.5 would fail later inside islice, True would act as depth 1
    with pytest.raises(ValueError, match=f"series depth must be an integer, got {depth!r}"):
        QMeasure(QParam(0.5), series_depth=depth)


def test_convergence_probe():
    probe = series_convergence_probe(0, QParam(0.5))
    assert probe.depth_for_1e12 is not None and probe.depth_for_1e12 <= 50
    errs = [row[2] for row in probe.rows]
    assert errs == sorted(errs, reverse=True)

    p9 = QParam(0.9)
    probe9 = series_convergence_probe(2, p9)
    assert probe9.limit == pytest.approx(float(1 / qnum(3, p9)), rel=1e-14)
    # closer to one needs more grid points
    assert probe9.depth_for_1e12 > probe.depth_for_1e12


def test_series_matches_term_by_term_sum():
    # the one-pass probe and the series measure against the definition,
    # sum_{k<D} q**((2k+1)n) (q**(2k) - q**(2k+2)), written as the walk's
    # recurrence: the term q**n (1 - q)(1 + q) times (q*q)**(n+1) per grid
    # point, at the exact Decimal q in the private context; double
    # precision rounds each sum to a double once
    for precision in ("double", "high"):
        for q in (0.5, 0.9, 0.995):
            p = QParam(q, precision)
            for n in (0, 2, 5):
                with decimal.localcontext(_CTX):
                    x = decimal.Decimal(q)
                    limit = decimal.Decimal(1 / qnum(n + 1, p))  # a double limit converts exactly
                    partials = [0 * x]  # partials[D]: the sum over k < D
                    term, ratio = x ** n * ((1 - x) * (1 + x)), (x * x) ** (n + 1)
                    while len(partials) <= 400 or abs(partials[-1] - limit) >= 1e-12:
                        partials.append(partials[-1] + term)
                        term = term * ratio
                    hit = next(d for d in range(1, len(partials)) if abs(partials[d] - limit) < 1e-12)
                    rows = tuple((d, float(partials[d]), float(abs(partials[d] - limit))) for d in PROBE_DEPTHS)
                    wants = {d: 2 * partials[d] if n % 2 == 0 else 0 for d in PROBE_DEPTHS}
                probe = series_convergence_probe(n, p)
                assert probe.depth_for_1e12 == hit, (precision, q, n)
                assert probe.rows == rows, (precision, q, n)
                for d in PROBE_DEPTHS:
                    want = wants[d] if p.is_high else float(wants[d])
                    assert integrate_monomial(n, QMeasure(p, series_depth=d)) == want, (precision, q, n, d)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999, 0.9999, 0.99999])
def test_double_series_is_the_high_precision_series_rounded(q):
    # both precisions walk the grid at the same exact Decimal q, and double
    # precision rounds each sum once: the series measure, the probe's row
    # sums and the verifier's series-row lhs are float() of the
    # high-precision ones, with no cancellation near q = 1
    double, high = QParam(q), QParam(q, "high")
    for n in (0, 2, 6):
        for depth in (1, 7, 40, 200, 400):
            got = integrate_monomial(n, QMeasure(double, series_depth=depth))
            assert got == float(integrate_monomial(n, QMeasure(high, series_depth=depth))), (n, depth)
        rows = [series_convergence_probe(n, p).rows for p in (double, high)]
        assert [r[1] for r in rows[0]] == [r[1] for r in rows[1]], n
    with decimal.localcontext(_CTX):
        lhs = [[a for a, _ in _series_pairs(p, QMeasure(p))] for p in (double, high)]
    assert lhs[0] == list(map(float, lhs[1]))


def test_an_underflowing_limit_in_high_precision_is_zero():
    # [n+1] at q = 0.9 overflows decimal's exponent range, which raises
    # decimal.Overflow, not OverflowError: the fallback form gives 0, as the
    # double-precision one does at an int n past the double range, to which
    # a float q cannot be raised
    high = QParam(0.9, "high")
    assert integrate_monomial(10 ** 400, QMeasure(high)) == 0
    assert integrate_monomial(10 ** 400, QMeasure(QParam(0.9))) == 0
    probe = series_convergence_probe(10 ** 400, high)
    assert (probe.limit, probe.depth_for_1e12, {row[1:] for row in probe.rows}) == (0.0, 1, {(0.0, 0.0)})
    assert series_convergence_probe(10 ** 400, QParam(0.9)) == probe


def test_convergence_probe_requires_small_q():
    with pytest.raises(ValueError):
        series_convergence_probe(0, QParam(1.2))


def _refusal(run, n) -> str:
    """The text of the ValueError that run(n) raises."""
    with pytest.raises(ValueError) as info:
        run(n)
    return str(info.value)


@pytest.mark.parametrize("n", [-1, -1.0, -2, -1.5, math.nan, math.inf, -math.inf, True])
def test_convergence_probe_degree_must_lie_above_minus_one(n):
    # -1 divided by [0], -2 and -1.5 overflowed after walking the grid,
    # nan gave nan rows, True was n = 1; each is refused in both precisions
    for precision in ("double", "high"):
        p = QParam(0.5, precision)
        assert _refusal(lambda v: series_convergence_probe(v, p), n) == f"probe degree must be a nonnegative integer, got {n!r}"


def test_convergence_probe_takes_a_real_degree():
    # a real degree is taken only when it is an integer, by
    # integrate_monomial's rule: 2.5 is refused there and here
    for precision in ("double", "high"):
        mu = QMeasure(QParam(0.5, precision))
        assert _refusal(lambda v: series_convergence_probe(v, mu.p), 2.5) == "probe degree must be a nonnegative integer, got 2.5"
        assert _refusal(lambda v: integrate_monomial(v, mu), 2.5) == "monomial degree must be a nonnegative integer, got 2.5"


@pytest.mark.parametrize("precision", ["double", "high"])
@pytest.mark.parametrize(
    "n, same",
    [(2.0, 2), (0.5, 0.5), (Fraction(1, 2), 0.5), (decimal.Decimal("0.5"), 0.5), (decimal.Decimal("2"), 2)],
)
def test_convergence_probe_takes_a_degree_of_any_real_type(precision, n, same):
    # a degree of any real type is taken only when it is an integer, by
    # integrate_monomial's rule: n is refused whether or not it equals an
    # int (same), and that int is taken
    mu = QMeasure(QParam(0.9, precision))
    assert _refusal(lambda v: series_convergence_probe(v, mu.p), n) == f"probe degree must be a nonnegative integer, got {n!r}"
    assert _refusal(lambda v: integrate_monomial(v, mu), n) == f"monomial degree must be a nonnegative integer, got {n!r}"
    if type(same) is int:
        assert series_convergence_probe(same, mu.p).n == same


@pytest.mark.parametrize(
    "precision, n",
    [
        ("double", Fraction(1, 3)),
        ("high", Fraction(1, 3)),
        ("double", decimal.Decimal("0.1")),
        ("double", Fraction(10 ** 400)),
        ("double", "2"),
        ("high", "2"),
        ("high", 1j),
        ("double", None),
        ("high", decimal.Decimal("0.1")),
    ],
)
def test_convergence_probe_refuses_a_degree_its_number_type_cannot_hold(precision, n):
    # never a TypeError: a real that is not an integer, and anything that
    # is no real number at all, raise ValueError naming it, in either
    # precision
    with pytest.raises(ValueError, match=f"probe degree must be .*, got {re.escape(repr(n))}"):
        series_convergence_probe(n, QParam(0.9, precision))


def _reference_sums(ns, q, m: int, depths) -> dict:
    """{D: the grid sums over k < D of x**n w_m(x) for n in ns} for each D
    of depths, at 200 digits by powers of the exact Decimal q, with the
    weight written as in the module docstring."""
    out = {}
    with decimal.localcontext(_CTX) as ctx:
        ctx.prec = 200
        two = q + 1 / q
        pref = (q * two) ** -m if m > 0 else (q / two) ** -m
        totals = [0 * q] * len(ns)
        for k in range(max(depths)):
            if k >= m:
                w = (q ** (2 * k) - q ** (2 * k + 2)) * pref
                for i in range(abs(m)):
                    w *= 1 - q ** (4 * (k - i) if m > 0 else 4 * (k + i + 1))
                totals = [t + q ** ((2 * k + 1) * n) * w for t, n in zip(totals, ns)]
            if k + 1 in depths:
                out[k + 1] = totals
    return out


@pytest.mark.parametrize(
    "q, m, depths",
    [(q, m, (1, 40, 400)) for q in (0.5, 0.7, 0.9, 0.995) for m in (-3, 0, 2, 4)] + [(0.9999, 0, (3000,))],
)
def test_high_precision_walk_accuracy(q, m, depths):
    # the running products round once per product and cancel nothing: every
    # grid sum lies within (D + 10) 1e-62 of the 200-digit value, relative,
    # and those of the first m points of a positive winding are exactly zero
    p = QParam(q, "high")
    ns = range(9)
    want = _reference_sums(ns, p.q, m, depths)
    for depth in depths:
        with decimal.localcontext(_CTX):
            got = _halfline_series(ns, p.q, depth, m)
        bound = (depth + 10) * decimal.Decimal("1e-62")
        for n, g, w in zip(ns, got, want[depth]):
            with decimal.localcontext(_CTX) as ctx:
                ctx.prec = 200
                assert abs(g - w) <= bound * w, (q, m, depth, n, float(abs(g - w) / w) if w else g)


def test_inner_product_winding_orthogonality():
    p = QParam(1.5)
    mu = QMeasure(p)
    assert inner_product(build_y(1, 0, p), build_y(0, 0, p), mu) == 0
    f = angular_function(p, 2, {0: 1.0})
    g = angular_function(p, -1, {0: 1.0, 1: 2.0})
    assert inner_product(f, g, mu) == 0


def test_inner_product_parameter_mismatch():
    p, other = QParam(1.5), QParam(1.4)
    f = angular_function(p, 0, {0: 1.0})
    with pytest.raises(ValueError):
        inner_product(f, f, QMeasure(other))
    # either function may carry the foreign parameter
    g = angular_function(QParam(0.7), 0, {0: 1.0})
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ValueError):
            inner_product(a, b, QMeasure(p))


def _fresh_moments(mu, m, nmax, num):
    """M_m(n), n = 0..nmax, formed afresh in the context entered and the
    number type num converts q to, never read from or kept in the table:
    the closed form by _moments at b = min(q, 1/q), or a series measure's
    depth-D grid sums."""
    q = num(mu.p.q)
    if mu.series_depth is not None:
        even = _halfline_series(range(0, nmax + 1, 2), q, mu.series_depth, m)
        return [0 * q if n % 2 else 2 * even[n // 2] for n in range(nmax + 1)]
    return _moments(-m, nmax, 1 / q) if q > 1 else _moments(m, nmax, q)


def _reference_sum(f, g, mu, num, pi):
    """2 pi sum a_i b_j M_m(i+j) in the context entered, converting every
    coefficient by num on each call and forming fresh moments.  Odd moments
    are skipped, and the terms added in the order inner_product adds them,
    so that the bits are comparable."""
    moments = _fresh_moments(mu, f.m, f.degree + g.degree, num)
    x, y = ({k: num(v) for k, v in h.coeffs.items()} for h in (f, g))
    total = 0
    for i, xi in x.items():
        row = 0
        for j, yj in y.items():
            if not (i + j) % 2:
                row += yj * moments[i + j]
        total += xi * row
    return 2 * pi * total


def _full_sum(f, g, mu):
    """The double-precision moment sum formed in full, as inner_product
    forms it for pairs that share a parity, in the private 62-digit
    context, converting every coefficient on each call."""
    with decimal.localcontext(_CTX):
        return float(_reference_sum(f, g, mu, decimal.Decimal, decimal.Decimal(math.pi)))


def _hex(v):
    return type(v).__name__, v.hex()


def test_opposite_parity_pairs_match_the_full_sum(monkeypatch):
    # an opposite-parity pair returns its zero without the sum; a non-finite
    # coefficient of f still gives the sum's NaN (nan*0, inf*0), one of g
    # never enters it
    rng = random.Random(24)
    specials = (math.nan, math.inf, -math.inf)

    def coeff():
        if rng.random() < 0.1:
            return rng.choice(specials)
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-150, 150)

    seen = {"nan": 0, "zero": 0}
    for _ in range(2000):
        q = rng.choice((1e-3, 0.5, 1.0, 1.3, 1e3))
        p = QParam(q)
        mu = QMeasure(p, rng.choice((None, 40))) if q < 1 else QMeasure(p)
        m, parity = rng.randint(-4, 4), rng.randint(0, 1)
        f, g = (
            angular_function(p, m, {2 * rng.randint(0, 5) + par: coeff() for _ in range(rng.randint(1, 4))})
            for par in (parity, 1 - parity)
        )
        got = inner_product(f, g, mu)
        assert _hex(got) == _hex(_full_sum(f, g, mu)), (q, mu.series_depth, f.coeffs, g.coeffs)
        seen["nan" if got != got else "zero"] += 1
    assert min(seen.values()) > 100, seen

    # and such a pair never reaches the moments, which a same-parity one does
    def no_moments(*args):
        raise AssertionError("moments formed")

    p = QParam(1.3)
    monkeypatch.setattr(jackson, "_moments", no_moments)
    assert _hex(inner_product(build_y(3, 1, p), build_y(4, 1, p), QMeasure(p))) == ("float", "0x0.0p+0")
    with pytest.raises(AssertionError, match="moments formed"):
        inner_product(build_y(2, 1, p), build_y(4, 1, p), QMeasure(p))


def test_modulus_past_the_double_range():
    # a sum or a coefficient difference whose modulus exceeds the largest
    # double rounds to inf; the inner product of a coefficient near it with
    # a small one is its decimal sum, rounded once
    p = QParam(1.3)
    mu = QMeasure(p)
    f = angular_function(p, 0, {1: 1.5e308})
    opposite, same, small = (angular_function(p, 0, c) for c in ({0: 1.0}, {1: 1.0}, {1: 1e-10}))
    assert _hex(inner_product(f, opposite, mu)) == ("float", "0x0.0p+0")
    assert inner_product(f, same, mu) == math.inf
    # 2 pi M_0(2) a b with M_0(2) = 2/[3], rounded once from 80 digits
    with decimal.localcontext(_CTX) as ctx:
        ctx.prec = 80
        q2 = decimal.Decimal(p.q) ** 2
        scale = 4 * decimal.Decimal(math.pi) * decimal.Decimal(1e-10) / (1 + q2 + 1 / q2)
        want = float(scale * decimal.Decimal(1.5e308))
    for got in (inner_product(f, small, mu), inner_product(small, f, mu)):
        assert _hex(got) == _hex(want)
    assert f.max_abs() == 1.5e308
    opposite_sign = angular_function(p, 0, {1: -1.5e308})
    assert f.distance(opposite_sign) == math.inf and opposite_sign.distance(f) == math.inf
    assert math.isnan(angular_function(p, 0, {1: 1.5e308, 3: math.nan}).max_abs())


def test_gram_matrix_identity():
    for q in (0.5, 0.9, 1.5):
        p = QParam(q)
        mu = QMeasure(p)
        ys = [(l, m, build_y(l, m, p)) for l in range(5) for m in range(-l, l + 1)]
        for i, (l1, m1, y1) in enumerate(ys):
            for l2, m2, y2 in ys[i:]:
                got = inner_product(y1, y2, mu)
                want = 1.0 if (l1, m1) == (l2, m2) else 0.0
                assert abs(got - want) < 1e-9, (q, (l1, m1), (l2, m2))


def test_gram_matrix_wide_deformation():
    # far from q = 1 the harmonic coefficients grow like q**(-2l) or
    # q**(2l): the moment sum must not lose them to cancellation
    for q, lmax in ((0.45, 5), (2.2, 5), (0.5, 8), (2.0, 8)):
        p = QParam(q)
        mu = QMeasure(p)
        ys = [(l, m, build_y(l, m, p)) for l in range(lmax + 1) for m in range(-l, l + 1)]
        for i, (l1, m1, y1) in enumerate(ys):
            for l2, m2, y2 in ys[i:]:
                want = 1.0 if (l1, m1) == (l2, m2) else 0.0
                assert abs(inner_product(y1, y2, mu) - want) < 1e-8, (q, (l1, m1), (l2, m2))


def test_uniform_state_second_moment():
    for q in (0.5, 1.0, 1.5):
        p = QParam(q)
        mu = QMeasure(p)
        val = integrate_monomial(2, mu) / integrate_monomial(0, mu)
        assert abs(val - 1 / qnum(3, p)) < 1e-14


def test_inner_product_series_measure_route():
    # an explicit series measure gives the same inner products as the
    # closed form
    p = QParam(0.5)
    f = angular_function(p, 2, {0: 0.7, 1: -0.2, 3: 1.1})
    g = angular_function(p, 2, {0: 1.3, 2: 0.5})
    closed = inner_product(f, g, QMeasure(p))
    series = inner_product(f, g, QMeasure(p, series_depth=300))
    assert abs(closed - series) < 1e-12 * max(1.0, abs(closed))


def test_inner_product_conjugate_linearity():
    # on real coefficients the hermitian product is linear in f and
    # symmetric
    p = QParam(1.3)
    mu = QMeasure(p)
    f = angular_function(p, 1, {0: 1.0, 2: -0.5})
    g = angular_function(p, 1, {1: 0.7, 2: 1.5})
    lhs = inner_product(f.scaled(-2.5), g, mu)
    rhs = -2.5 * inner_product(f, g, mu)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))
    assert inner_product(g, f, mu) == pytest.approx(inner_product(f, g, mu), rel=1e-15)


def test_high_precision_integration():
    p = QParam(0.5, "high")
    mu = QMeasure(p)
    val = integrate_monomial(2, mu)
    with decimal.localcontext(_CTX):
        assert abs(val - 2 / qnum(3, p)) < 1e-50


# ----------------------------- moments kept in the QParam table -----------------------------

def _bits(v):
    return v.hex() if isinstance(v, float) else v.as_tuple()


GRAM_LABELS = [(l, m) for l in range(9) for m in range(-l, l + 1)]


@pytest.mark.parametrize("q, precision", [(0.5, "double"), (1.0, "double"), (2.0, "double"), (0.7, "high")])
def test_gram_matrix_independent_of_call_order(q, precision):
    # forward and in reverse on one QParam each, and pair by pair on a
    # fresh QParam per pair: the stored moments give the fresh ones' bits
    p = QParam(q, precision)
    ys = [build_y(l, m, p) for l, m in GRAM_LABELS]
    pairs = [(i, j) for i in range(len(ys)) for j in range(i, len(ys))]
    mu = QMeasure(p)
    forward = {ij: _bits(inner_product(ys[ij[0]], ys[ij[1]], mu)) for ij in pairs}
    mu = QMeasure(QParam(q, precision))
    backward = {ij: _bits(inner_product(ys[ij[0]], ys[ij[1]], mu)) for ij in pairs[::-1]}
    assert backward == forward
    for i, j in pairs:
        if GRAM_LABELS[i][1] == GRAM_LABELS[j][1]:
            fresh = inner_product(ys[i], ys[j], QMeasure(QParam(q, precision)))
            assert _bits(fresh) == forward[(i, j)], (q, precision, GRAM_LABELS[i], GRAM_LABELS[j])
    assert any(k[0] == "moments" for k in mu.p._table)


def test_moments_are_formed_once_per_winding_and_precision(monkeypatch):
    # one list per winding, whatever the size of the coefficients: a pair
    # near 1e30 reads the list that a pair in [0.5, 1) formed, and a sum of
    # a higher degree forms only the entries past it
    form = jackson._moments
    for precision, q in (("double", 0.7), ("double", 1.3), ("high", 0.7), ("high", 1.3)):
        p = QParam(q, precision)
        mu = QMeasure(p)
        formed = {}

        def counted(m, nmax, b, table=None, key=None):
            kept = table.get(key) if table is not None else None
            moments = form(m, nmax, b, table, key)
            if table is p._table:
                formed[key] = formed.get(key, 0) + len(moments) - (len(kept[0]) if kept else 0)
            return moments

        monkeypatch.setattr(jackson, "_moments", counted)
        f, g, h = (angular_function(p, 2, c) for c in ({0: 0.75, 2: -0.5}, {0: 0.5, 4: 0.625}, {0: 0.75, 8: 0.5}))
        big = angular_function(p, 2, {0: 1.5e30, 2: -0.75e30})
        key = ("moments", 2)
        pairs = ((f, g), (f, f), (g, f), (big, f), (big, big))
        fresh = [_bits(inner_product(a, b, QMeasure(QParam(q, precision)))) for a, b in pairs]
        first = inner_product(f, g, mu)
        assert len(p._table[key][0]) == 7
        with monkeypatch.context() as patch:
            patch.setattr(jackson, "_moments", lambda *args: pytest.fail("moments formed again"))
            # the same winding up to the stored degree
            assert [_bits(inner_product(a, b, mu)) for a, b in pairs] == fresh
        # a higher degree grows a new, longer list; the one held before is
        # unchanged
        held = p._table[key][0]
        held_bits = [_bits(v) for v in held]
        inner_product(h, h, mu)
        assert len(p._table[key][0]) == 17
        assert len(held) == 7 and [_bits(v) for v in held] == held_bits
        assert _bits(inner_product(f, g, mu)) == _bits(first)
        # a list of nmax entries is one short of degree nmax
        k, f1 = angular_function(p, 1, {0: 0.5, 1: 0.75}), angular_function(p, 1, {0: 0.75, 2: -0.5})
        inner_product(k, f1, mu)
        assert len(p._table[("moments", 1)][0]) == 4
        want = _bits(inner_product(f1, f1, QMeasure(QParam(q, precision))))
        assert _bits(inner_product(f1, f1, mu)) == want
        assert len(p._table[("moments", 1)][0]) == 5
        assert [name for name in p._table if name[0] == "moments"] == [key, ("moments", 1)]
        # each entry formed once: as many per winding as its list holds
        assert formed == {key: 17, ("moments", 1): 5}, (precision, q)


def test_series_measure_never_reads_the_stored_moments():
    for precision, q in (("double", 0.5), ("high", 0.7)):
        p = QParam(q, precision)
        ys = [build_y(l, m, p) for l, m in GRAM_LABELS if l <= 5]
        for f in ys:
            for g in ys:
                inner_product(f, g, QMeasure(p))
        filled = {k: v for k, v in p._table.items() if k[0] == "moments"}
        assert filled
        for f in ys:
            for g in ys:
                got = inner_product(f, g, QMeasure(p, 40))
                want = inner_product(f, g, QMeasure(QParam(q, precision), 40))
                assert _bits(got) == _bits(want), (precision, f.m, f.coeffs, g.coeffs)
        assert {k: v for k, v in p._table.items() if k[0] == "moments"} == filled


def test_moments_of_a_lower_degree_are_a_prefix():
    # a list continued degree by degree, 0 -> 2 -> ... -> 16, has at every
    # step the bits of the list formed at once, up to its degree
    for b in (0.5, 1.0, decimal.Decimal("0.7"), decimal.Decimal(1) / 3):
        with decimal.localcontext(_CTX):
            for m in range(-6, 7):
                at_once = [_bits(v) for v in _moments(m, 16, b)]
                assert len(at_once) == 17
                table, key = {}, ("moments", m)
                for nmax in range(0, 17, 2):
                    grown = _moments(m, nmax, b, table, key)
                    assert table[key][0] is grown and len(grown) == nmax + 1
                    assert [_bits(v) for v in grown] == at_once[: nmax + 1], (b, m, nmax)


def test_used_qparam_pickles():
    # the table holds numbers and lists of them: a QParam after a full
    # Gram pickles, and its copy gives the same Gram and still extends
    # its moment lists
    for q, precision in ((1.3, "double"), (0.7, "high")):
        p = QParam(q, precision)
        ys = [build_y(l, m, p) for l, m in GRAM_LABELS]
        mu = QMeasure(p)
        gram = [_bits(inner_product(ys[i], ys[j], mu)) for i in range(len(ys)) for j in range(i, len(ys))]
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p and copy._table.keys() == p._table.keys()
        ys = [build_y(l, m, copy) for l, m in GRAM_LABELS]
        mu = QMeasure(copy)
        assert [_bits(inner_product(ys[i], ys[j], mu)) for i in range(len(ys)) for j in range(i, len(ys))] == gram
        for m in (-3, 0, 2):
            f = angular_function(copy, m, {0: 0.5, 12: 0.75})
            want = _bits(inner_product(f, f, QMeasure(QParam(q, precision))))
            assert _bits(inner_product(f, f, mu)) == want, (precision, m)
        assert copy._table.keys() == p._table.keys()


def test_qparam_freed_on_its_last_reference():
    # the table holds coefficient dicts and lists of numbers, never a
    # function or anything else that refers back to its QParam, so
    # reference counting alone frees it: no cycle waits for the collector
    enabled = gc.isenabled()
    gc.disable()
    try:
        for precision in ("double", "high"):
            p = QParam(0.5 if precision == "double" else 0.7, precision)
            mu = QMeasure(p)
            ys = [build_y(l, m, p) for l, m in GRAM_LABELS]
            gram = [[inner_product(ys[i], ys[j], mu) for j in range(i, len(ys))] for i in range(len(ys))]
            assert {k[0] for k in p._table} >= {"y", "moments", "qnum", "pow"}
            ref = weakref.ref(p)
            del p, mu, ys, gram
            assert ref() is None, precision
    finally:
        if enabled:
            gc.enable()


# ----------------------------- the sum operand kept on each function -----------------------------

# the q-points of the harmonic-gram benchmark at seed 1
GRAM_QS = (1.0, 0.985, 0.5, 2.0, 0.8728089666203019, 1.0927654030536282)


def _per_call_inner_product(f, g, mu):
    """The inner product as formed before each function kept its sum
    operand: in double precision the parity exit and conversion on every
    call, and fresh moments; in high precision fresh moments and the full
    sum."""
    p = mu.p
    if f.m != g.m or f.is_zero or g.is_zero:
        return p.zero
    if p.is_high:
        with decimal.localcontext(_CTX):
            return _reference_sum(f, g, mu, lambda v: v * p.one, p.pi)
    opposite = len({k % 2 for k in f.coeffs} | {(k + 1) % 2 for k in g.coeffs}) == 1
    if opposite and all(map(math.isfinite, f.coeffs.values())):
        return 0.0
    return _full_sum(f, g, mu)


def _seeded_pairs(seed: int, n: int):
    """n (f, g, mu) draws from random.Random(seed).random alone: real
    coefficients, +-0.0 (which construction prunes), NaN and +-inf on
    either side, values near the largest double, whose products and sums
    leave the double range, every winding from -4 to 4, and closed-form
    and depth-5 and depth-40 series measures."""
    r = random.Random(seed).random

    def pick(seq):
        return seq[int(r() * len(seq))]

    def coeff():
        u = r()
        if u < 0.05:
            return pick((math.nan, math.inf, -math.inf))
        if u < 0.12:
            return pick((0.0, -0.0))
        if u < 0.14:
            return pick((1.5e308, -1.2e308, -1.7e308))
        return (2 * r() - 1) * 10.0 ** int(r() * 301 - 150)

    def function(p, m):
        parity = pick((0, 1, None))
        coeffs = {}
        for _ in range(1 + int(r() * 5)):
            k = int(r() * 12)
            coeffs[k if parity is None else 2 * (k // 2) + parity] = coeff()
        return angular_function(p, m, coeffs)

    for _ in range(n):
        q = pick((1e-3, 0.3, 0.5, 0.9, 1.0, 1.3, 2.0, 1e3))
        p = QParam(q)
        mu = QMeasure(p, pick((None, 5, 40))) if q < 1 else QMeasure(p)
        m = int(r() * 9) - 4
        yield function(p, m), function(p, m), mu


def _pinned_products():
    """repr of every inner product of the l <= 8 Gram at GRAM_QS, then of
    2,000 seeded pairs."""
    for q in GRAM_QS:
        p = QParam(q)
        mu = QMeasure(p)
        ys = [build_y(l, m, p) for l, m in GRAM_LABELS]
        for i in range(len(ys)):
            for j in range(i, len(ys)):
                yield repr(inner_product(ys[i], ys[j], mu))
    for f, g, mu in _seeded_pairs(30, 2000):
        yield repr(inner_product(f, g, mu))


def test_inner_products_pinned_bitwise():
    # recorded when double-precision sums came to run in the private
    # 62-digit context; re-pinned on that code when the seeded pairs
    # stopped writing zeros into a function after construction, and again
    # when they came to draw real coefficients only, and again when every
    # double q-number and power of q came to be its 62-digit value rounded
    # once, which moves the harmonics' coefficients
    digest = hashlib.sha256("\n".join(_pinned_products()).encode()).hexdigest()
    assert digest == "d87d29ea852b45ba24ffe609541bb29dfd06e6a610b11a62711752da4cb687ad"


def _pinned_high_products(cases):
    """The Decimal tuple of every inner product of the high-precision
    l <= 6 Gram at each (q, series depth) of cases."""
    for q, depth in cases:
        p = QParam(q, "high")
        mu = QMeasure(p, depth)
        ys = [build_y(l, m, p) for l, m in GRAM_LABELS if l <= 6]
        for i in range(len(ys)):
            for j in range(i, len(ys)):
                yield repr(inner_product(ys[i], ys[j], mu).as_tuple())


def test_high_inner_products_pinned_bitwise():
    # digits and exponents, that of every opposite-parity zero included.
    # The closed form at five q was recorded before high-precision functions
    # kept their sum operand; the depth-40 series at q = 0.7 when high
    # precision came to walk the grid by running products
    closed = _pinned_high_products([(0.5, None), (0.7, None), (1.3, None), (2.0, None), (1e16, None)])
    assert hashlib.sha256("\n".join(closed).encode()).hexdigest() == (
        "3cad3b066191b9e4b11b68ffa8690ed55c262bcc72d4be7cc962b2598892e5bc"
    )
    series = _pinned_high_products([(0.7, 40)])
    assert hashlib.sha256("\n".join(series).encode()).hexdigest() == (
        "56fc1ebf60fae0adca3235689e4679cb63cd1c0647fc44b9b57acc2d2b103576"
    )


def test_inner_product_matches_the_per_call_path():
    seen = {"opposite": 0, "nonfinite f": 0, "nonfinite g": 0, "past DBL_MAX": 0, "series": 0}
    for f, g, mu in _seeded_pairs(31, 2000):
        got = inner_product(f, g, mu)
        assert _hex(got) == _hex(_per_call_inner_product(f, g, mu)), (mu.p.q, mu.series_depth, f.coeffs, g.coeffs)
        if f.m == g.m and f.coeffs and g.coeffs:
            fin = [all(map(math.isfinite, h.coeffs.values())) for h in (f, g)]
            seen["opposite"] += len({k % 2 for k in f.coeffs} | {(k + 1) % 2 for k in g.coeffs}) == 1
            seen["nonfinite f"] += not fin[0]
            seen["nonfinite g"] += not fin[1]
            seen["past DBL_MAX"] += any(abs(v) > 1e308 for h in (f, g) for v in h.coeffs.values())
            seen["series"] += mu.series_depth is not None
    assert min(seen.values()) > 50, seen


def test_high_inner_product_matches_the_per_call_path():
    # the digits and exponent of every Decimal must be the full sum's
    for q, depth in ((0.5, None), (0.7, None), (0.7, 40), (1.3, None), (2.0, None), (1e16, None)):
        p = QParam(q, "high")
        mu = QMeasure(p, depth)
        ys = [build_y(l, m, p) for l, m in GRAM_LABELS if l <= 6]
        for i in range(len(ys)):
            for j in range(i, len(ys)):
                got, want = inner_product(ys[i], ys[j], mu), _per_call_inner_product(ys[i], ys[j], mu)
                assert type(got) is type(want) and got.as_tuple() == want.as_tuple(), (q, depth, i, j)


def test_each_operand_is_formed_once_across_a_gram(monkeypatch):
    formed = []
    form = jackson._form_operand
    monkeypatch.setattr(jackson, "_form_operand", lambda c, p: formed.append(c) or form(c, p))
    for q, precision in ((0.5, "double"), (1.0, "double"), (2.0, "double"), (0.7, "high")):
        p = QParam(q, precision)
        ys = [build_y(l, m, p) for l, m in GRAM_LABELS if l <= 6 or not p.is_high]
        for mu in (QMeasure(p), QMeasure(p), *((QMeasure(p, 40),) if q < 1 else ())):
            for i in range(len(ys)):
                for j in range(i, len(ys)):
                    inner_product(ys[i], ys[j], mu)
        # every harmonic meets itself, and none is formed twice
        assert len(formed) == len(ys), q
        assert {id(c) for c in formed} == {id(y.coeffs) for y in ys}
        formed.clear()
        # the operand is kept: its coefficients are the function's,
        # converted to Decimal (exactly in double precision, in the
        # QParam's arithmetic in high precision)
        for y in ys:
            coeffs = jackson._operand(y).coeffs
            assert coeffs == dict(y.coeffs), (q, precision)
            assert all(type(v) is decimal.Decimal for v in coeffs.values())
        assert not formed


def test_functions_survive_pickle_and_deepcopy():
    # after an inner product has kept its operand on each function, a copy
    # has the same coefficient bits and gives the same inner-product bits
    for precision in ("double", "high"):
        p = QParam(0.7, precision)
        mu = QMeasure(p)
        f = build_y(3, -1, p)
        g = angular_function(p, -1, {0: p.number(1.5), 2: p.number(-0.25)})
        want = {(a, b): _bits(inner_product(a, b, mu)) for a in (f, g) for b in (f, g)}
        for copied in (lambda h: pickle.loads(pickle.dumps(h)), copy.deepcopy):
            f2, g2 = copied(f), copied(g)
            for h, h2 in ((f, f2), (g, g2)):
                assert h2.m == h.m and h2.p == h.p
                assert [(k, _bits(v)) for k, v in h2.coeffs.items()] == [(k, _bits(v)) for k, v in h.coeffs.items()]
                with pytest.raises(TypeError):
                    h2.coeffs[0] = p.one
            mu2 = QMeasure(f2.p)
            for (a, b), bits in want.items():
                a2, b2 = (f2 if a is f else g2), (f2 if b is f else g2)
                assert _bits(inner_product(a2, b2, mu2)) == bits, precision
                assert _bits(inner_product(a, b2, mu)) == bits, precision


def test_operand_holds_no_reference_to_the_qparam():
    # only numbers, tuples and dicts of numbers: nothing that could keep a
    # QParam or a function alive, or make a cycle through them
    p, ph = QParam(0.5), QParam(0.7, "high")
    f = build_y(3, 1, p)
    g = angular_function(p, 1, {0: 1.5, 3: math.nan, 4: -1.5e308})
    for h in (f, g):
        inner_product(h, f, QMeasure(p))
        inner_product(h, g, QMeasure(p))
    # a high operand converts by v * ph.one, but keeps only the results
    fh = build_y(3, 1, ph)
    inner_product(fh, fh, QMeasure(ph))
    todo, seen = [f._operand, g._operand, fh._operand], set()
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if x is not jackson._Operand:  # a named tuple refers to its class
            assert x is None or isinstance(x, (tuple, dict, int, float, decimal.Decimal)), type(x)
            todo.extend(gc.get_referents(x) if isinstance(x, (tuple, dict)) else ())
    # the walk reached every converted coefficient
    assert {id(v) for h in (f, g, fh) for v in h._operand.coeffs.values()} <= seen
