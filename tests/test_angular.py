import decimal
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsu2 import (
    QMeasure,
    QParam,
    angular_function,
    apply_c_invariant,
    apply_casimir,
    apply_l0,
    apply_lambda,
    apply_lminus,
    apply_lplus,
    build_phi,
    build_y,
    hypergeom_phi,
    inner_product,
    invariants,
    mul_position,
    mul_position_right,
    normalization_constant,
    position_coeff_lower,
    position_coeff_upper,
    qnum,
    verify_algebra,
)
from qsu2 import angular
from qsu2.angular import ladder_factor
from qsu2.qcore import _CTX

Q_GRID = (0.5, 0.9, 1.5)

qvals = st.one_of(
    st.just(1.0),
    st.floats(min_value=0.4, max_value=2.2).filter(lambda q: abs(q - 1) > 1e-3),
)

coeff_maps = st.dictionaries(
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=-2, max_value=2).filter(lambda v: abs(v) > 1e-3),
    min_size=1,
    max_size=4,
)


def rand_func(p, m, coeffs):
    return angular_function(p, m, coeffs)


# ----------------------------- construction -----------------------------

def test_build_phi_top_label_is_bare_winding():
    phi = build_phi(1, 1, QParam(1.4))
    assert phi.m == 1 and phi.coeffs == {0: 1.0}


def test_build_phi_quadrupole_row():
    for q in Q_GRID:
        p = QParam(q)
        phi = build_phi(2, 0, p)
        three = (q ** 3 - q ** -3) / (q - 1 / q)
        assert phi.coeffs[0] == 1.0
        assert phi.coeffs[2] == pytest.approx(-three, rel=1e-14)
        assert set(phi.coeffs) == {0, 2}


def test_build_phi_linear_row():
    phi = build_phi(1, 0, QParam(1.7))
    assert phi.coeffs == {1: 1.0}


@given(q=qvals, l=st.integers(0, 6), data=st.data())
def test_build_phi_parity_structure(q, l, data):
    m = data.draw(st.integers(0, l))
    phi = build_phi(l, m, QParam(q))
    for k in phi.coeffs:
        assert k % 2 == (l - m) % 2
        assert k <= l - m
    assert phi.degree == l - m


def test_build_phi_rejects_bad_labels():
    p = QParam(1.1)
    for l, m in ((1, 2), (2, -1), (-1, 0)):
        with pytest.raises(ValueError):
            build_phi(l, m, p)
    with pytest.raises(ValueError):
        hypergeom_phi(1, 2, p)


def test_hypergeom_matches_recursion():
    # tolerance is scaled: the polynomials carry coefficients up to ~1e5 at
    # q = 0.5, where an absolute 1e-12 would sit below one ulp
    for q in Q_GRID:
        p = QParam(q)
        for l in range(7):
            for m in range(l + 1):
                phi = build_phi(l, m, p)
                d = phi.distance(hypergeom_phi(l, m, p))
                assert d < 1e-12 * max(1.0, phi.max_abs()), (l, m, q, d)


def test_hypergeom_classical_values():
    # at q = 1 the terminating series is the classical Gauss form; compare
    # the quadrupole polynomial against the classical Legendre proportions
    phi = hypergeom_phi(2, 0, QParam(1.0))
    assert phi.coeffs[0] == 1.0
    assert phi.coeffs[2] == pytest.approx(-3.0, abs=1e-15)


# ----------------------------- position multiplication -----------------------------

def test_mul_position_constant():
    p = QParam(1.3)
    one = angular_function(p, 0, {0: 1.0})
    assert mul_position(0, one).coeffs == {1: 1.0}


def test_mul_position_winding_dilation_factor():
    p = QParam(1.3)
    f = build_phi(1, 1, p)
    g = mul_position(0, f)
    assert g.m == 1
    assert g.coeffs[1] == pytest.approx(p.q ** -2, rel=1e-15)


@given(q=qvals, m=st.integers(-3, 3), coeffs=coeff_maps)
@settings(max_examples=60)
def test_unit_sphere_contraction(q, m, coeffs):
    # -(1/q) x1 x-1 f + x0 x0 f - q x-1 x1 f == f
    p = QParam(q)
    f = rand_func(p, m, coeffs)
    total = mul_position(1, mul_position(-1, f)).scaled(-1 / p.q)
    total = total + mul_position(0, mul_position(0, f))
    total = total + mul_position(-1, mul_position(1, f)).scaled(-p.q)
    assert total.distance(f) < 1e-10 * max(1.0, f.max_abs())


# ----------------------------- ladder operators -----------------------------

def test_highest_weight_annihilated():
    p = QParam(0.8)
    for l in range(6):
        assert apply_lplus(build_phi(l, l, p)).is_zero


def test_lowest_weight_annihilated():
    p = QParam(1.5)
    for l in range(5):
        assert apply_lminus(build_y(l, -l, p)).is_zero


def test_raise_lower_eigenvalue():
    for q in (0.7, 1.3):
        p = QParam(q)
        for l in range(5):
            for m in range(-l, l + 1):
                y = build_y(l, m, p)
                got = apply_lplus(apply_lminus(y))
                want = y.scaled(qnum(l + m, p) * qnum(l - m + 1, p))
                assert got.distance(want) < 1e-9 * max(1.0, want.max_abs()), (l, m, q)


@given(q=qvals, m=st.integers(-3, 3), coeffs=coeff_maps)
@settings(max_examples=60)
def test_ladder_commutators(q, m, coeffs):
    p = QParam(q)
    f = rand_func(p, m, coeffs)
    # [L0, L+/-] = +/- L+/-
    up = apply_lplus(f)
    assert (apply_l0(up) - apply_lplus(apply_l0(f))).distance(up) < 1e-9 * max(1.0, up.max_abs())
    dn = apply_lminus(f)
    assert (apply_l0(dn) - apply_lminus(apply_l0(f))).distance(dn.scaled(-1)) < 1e-9 * max(1.0, dn.max_abs())
    # [L+, L-] = [2 L0], tolerance scaled by the cancelling compositions
    a = apply_lplus(apply_lminus(f))
    b = apply_lminus(apply_lplus(f))
    scale = max(1.0, f.max_abs(), a.max_abs(), b.max_abs())
    assert (a - b).distance(f.scaled(qnum(2 * m, p))) < 1e-9 * scale


def test_casimir_eigenvalue_on_harmonics():
    for q in (0.6, 1.0, 1.4):
        p = QParam(q)
        for l in range(5):
            for m in range(-l, l + 1):
                y = build_y(l, m, p)
                want = y.scaled(qnum(l, p) * qnum(l + 1, p))
                assert apply_casimir(y).distance(want) < 1e-9 * max(1.0, want.max_abs())


# ----------------------------- the rebuilt vector -----------------------------

def test_lambda0_eigenvalue_classical():
    p = QParam(1.0)
    for l in range(4):
        for m in range(-l, l + 1):
            y = build_y(l, m, p)
            got = apply_lambda(0, y)
            assert got.distance(y.scaled(m)) < 1e-12 * max(1.0, y.max_abs())


def _vector_condition_residuals(p, f, component):
    """Residuals of the two defining vector relations, scaled by the size
    of the operands entering each cancellation (the compositions can reach
    1e5 while their difference is near zero, so result-sized tolerances
    would measure nothing but luck)."""
    two = qnum(2, p)
    out = []
    for k in (1, 0, -1):
        vk = component(k, f)
        a = apply_l0(vk)
        b = component(k, apply_l0(f))
        scale = max(1.0, a.max_abs(), b.max_abs())
        out.append((a - b).distance(vk.scaled(k)) / scale)
        for sign, ladder in ((1, apply_lplus), (-1, apply_lminus)):
            g = f.scaled(p.q ** f.m)
            t1 = ladder(component(k, g))
            t2 = component(k, ladder(g)).scaled(p.q ** k)
            lhs = t1 - t2
            scale = max(1.0, t1.max_abs(), t2.max_abs())
            if abs(k + sign) <= 1:
                rhs = component(k + sign, f).scaled(p.sqrt(two))
                out.append(lhs.distance(rhs) / max(scale, rhs.max_abs()))
            else:
                out.append(lhs.max_abs() / scale)
    return out


@given(q=qvals, m=st.integers(-2, 2), coeffs=coeff_maps)
@settings(max_examples=40)
def test_lambda_vector_conditions(q, m, coeffs):
    p = QParam(q)
    f = rand_func(p, m, coeffs)
    for r in _vector_condition_residuals(p, f, apply_lambda):
        assert r < 1e-9


@given(q=qvals, m=st.integers(-2, 2), coeffs=coeff_maps)
@settings(max_examples=40)
def test_position_vector_conditions(q, m, coeffs):
    p = QParam(q)
    f = rand_func(p, m, coeffs)
    for r in _vector_condition_residuals(p, f, mul_position):
        assert r < 1e-9


def test_c_invariant_action():
    for q in (0.7, 1.2):
        p = QParam(q)
        for l in range(4):
            for m in range(-l, l + 1):
                y = build_y(l, m, p)
                want = y.scaled(invariants(l, p).c)
                assert apply_c_invariant(y).distance(want) < 1e-9 * max(1.0, want.max_abs())


# ----------------------------- normalization -----------------------------

def test_y00_constant():
    y = build_y(0, 0, QParam(1.9))
    assert y.coeffs == {0: pytest.approx(1 / math.sqrt(4 * math.pi), rel=1e-15)}


def test_unit_norms():
    from qsu2 import QMeasure, inner_product

    for q in Q_GRID:
        p = QParam(q)
        mu = QMeasure(p)
        for l in range(5):
            for m in range(-l, l + 1):
                y = build_y(l, m, p)
                assert abs(inner_product(y, y, mu) - 1) < 1e-9, (l, m, q)


def test_negative_m_rejects_bad_labels():
    # ladder_factor(1, 5, p) and ladder_factor(2, -3, p) ended in sqrt's
    # bare "math domain error"
    for precision in ("double", "high"):
        p = QParam(1.2, precision)
        for l, m in ((2, -3), (2, 5), (1, 5), (0, 1)):
            for build in (build_y, ladder_factor):
                with pytest.raises(ValueError, match=re.escape(f"label needs -l <= m <= l, got (l={l}, m={m})")):
                    build(l, m, p)
        assert not p._table
        assert ladder_factor(2, -2, p) == 0


def _bits(v):
    """The exact representation of a float or Decimal, sign of zero and exponent included."""
    return v.hex() if isinstance(v, float) else v.as_tuple()


def _coeff_bits(y):
    return y.m, sorted((k, _bits(v)) for k, v in y.coeffs.items())


def _normalized(l, m, p):
    """Y_lm for m >= 0: build_phi rescaled to the series convention (q**-m
    at odd l - m), times the normalization constant."""
    phi = build_phi(l, m, p)
    if (l - m) % 2:
        phi = phi.scaled(p.power(-m))
    return phi.scaled(normalization_constant(l, m, p))


def _lowering_loop(l, m, p):
    """Y_lm as formed before the table: _normalized for m >= 0, else the
    lowering chain walked from m = 0 on every call."""
    if m >= 0:
        return _normalized(l, m, p)
    y = _normalized(l, 0, p)
    with decimal.localcontext(_CTX if p.is_high else None):
        for mu in range(0, m, -1):
            y = apply_lminus(y).scaled(1 / ladder_factor(l, mu, p))
    return y


HARMONIC_LABELS = [(l, m) for l in range(9) for m in range(-l, l + 1)]


@pytest.mark.parametrize("q, precision", [(0.5, "double"), (1.0, "double"), (2.0, "double"), (0.7, "high")])
def test_build_y_matches_the_lowering_loop_bitwise(q, precision):
    want = {lm: _coeff_bits(_lowering_loop(*lm, QParam(q, precision))) for lm in HARMONIC_LABELS}
    shuffled = list(HARMONIC_LABELS)
    random.Random(27).shuffle(shuffled)
    for order in (HARMONIC_LABELS, HARMONIC_LABELS[::-1], shuffled, shuffled + shuffled[::3]):
        p = QParam(q, precision)
        for lm in order:
            # a second call reads the stored label
            for _ in range(2):
                assert _coeff_bits(build_y(*lm, p)) == want[lm], (q, precision, lm)


def test_each_label_costs_one_lowering_step(monkeypatch):
    # 36 labels with m < 0 below l = 9, each one step from the label above
    # it, and each m >= 0 label normalized once, in any call order
    calls = {"lower": 0, "normalize": 0}

    def counted(name, f):
        def run(*args):
            calls[name] += 1
            return f(*args)
        return run

    monkeypatch.setattr(angular, "apply_lminus", counted("lower", angular.apply_lminus))
    monkeypatch.setattr(angular, "normalization_constant", counted("normalize", angular.normalization_constant))
    shuffled = list(HARMONIC_LABELS)
    random.Random(9).shuffle(shuffled)
    p = QParam(1.3)
    for lm in shuffled + HARMONIC_LABELS:
        build_y(*lm, p)
    assert calls == {"lower": 36, "normalize": 45}


def _table_bits(p):
    return {key: sorted((k, _bits(v)) for k, v in entry.items()) for key, entry in p._table.items() if key[0] == "y"}


def test_build_y_returns_a_function_of_its_own():
    # a harmonic's map is read-only: no attempt to change it reaches the
    # table of its QParam or the next call
    for precision in ("double", "high"):
        p = QParam(1.3, precision)
        want = _coeff_bits(build_y(4, -3, p))
        ys = [build_y(*lm, p) for lm in ((4, -3), (4, -2), (4, 0), (4, 2))]
        table = _table_bits(p)
        for y in ys:
            with pytest.raises(TypeError):
                y.coeffs[0] = p.number(99)
            with pytest.raises(AttributeError):
                y.coeffs.clear()
        assert _table_bits(p) == table
        assert _coeff_bits(build_y(4, -3, p)) == want
        assert _coeff_bits(build_y(4, 2, p)) == _coeff_bits(_normalized(4, 2, QParam(1.3, precision)))


@pytest.mark.parametrize("l, m", [(2.5, 1), (3, -1.0), (True, 0), (2, False), (3.0, 1), ("2", 1)])
def test_harmonic_labels_must_be_integers(l, m):
    # 2.5 failed deep in the q-double-factorial, -1.0 in range(), True was l = 1
    p = QParam(1.2)
    name, v = ("l", l) if type(l) is not int else ("m", m)
    for build in (build_y, build_phi, hypergeom_phi, normalization_constant, ladder_factor):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {v!r}")):
            build(l, m, p)
    assert not p._table


CLASSICAL_Y = {
    # (l, m) -> (norm, polynomial in x0 multiplying sin^|m| theta), phases
    # per the standard convention with alternating sign on positive m
    (0, 0): (math.sqrt(1 / (4 * math.pi)), {0: 1.0}),
    (1, 0): (math.sqrt(3 / (4 * math.pi)), {1: 1.0}),
    (1, 1): (-math.sqrt(3 / (8 * math.pi)), {0: 1.0}),
    (1, -1): (math.sqrt(3 / (8 * math.pi)), {0: 1.0}),
    (2, 0): (math.sqrt(5 / (16 * math.pi)), {0: -1.0, 2: 3.0}),
    (2, 1): (-math.sqrt(15 / (8 * math.pi)), {1: 1.0}),
    (2, -1): (math.sqrt(15 / (8 * math.pi)), {1: 1.0}),
    (2, 2): (math.sqrt(15 / (32 * math.pi)), {0: 1.0}),
    (2, -2): (math.sqrt(15 / (32 * math.pi)), {0: 1.0}),
    (3, 0): (math.sqrt(7 / (16 * math.pi)), {1: -3.0, 3: 5.0}),
    (3, 1): (-math.sqrt(21 / (64 * math.pi)), {0: -1.0, 2: 5.0}),
    (3, -1): (math.sqrt(21 / (64 * math.pi)), {0: -1.0, 2: 5.0}),
    (3, 2): (math.sqrt(105 / (32 * math.pi)), {1: 1.0}),
    (3, -2): (math.sqrt(105 / (32 * math.pi)), {1: 1.0}),
    (3, 3): (-math.sqrt(35 / (64 * math.pi)), {0: 1.0}),
    (3, -3): (math.sqrt(35 / (64 * math.pi)), {0: 1.0}),
}


def _classical_value(l, m, theta):
    norm, poly = CLASSICAL_Y[(l, m)]
    x = math.cos(theta)
    return norm * math.sin(theta) ** abs(m) * sum(a * x ** k for k, a in poly.items())


def _our_value_q1(y, theta):
    # winding factor at q = 1: the raising unit component is -sin(theta)/sqrt(2)
    # and the lowering one +sin(theta)/sqrt(2); azimuthal phase dropped on
    # both sides of the comparison
    x = math.cos(theta)
    s = math.sin(theta) / math.sqrt(2.0)
    w = (-s) ** y.m if y.m >= 0 else s ** (-y.m)
    return w * sum(a * x ** k for k, a in y.coeffs.items())


def test_classical_limit_matches_reference_forms():
    p = QParam(1.0)
    thetas = [0.3, 0.9, 1.4, 2.2, 2.9]
    for (l, m) in CLASSICAL_Y:
        y = build_y(l, m, p)
        ratios = []
        for th in thetas:
            ref = _classical_value(l, m, th)
            ours = _our_value_q1(y, th)
            ratios.append(ours / ref)
        # a single constant of unit magnitude relates the conventions
        for r in ratios:
            assert abs(abs(r) - 1) < 1e-10, (l, m, ratios)
            assert abs(r - ratios[0]) < 1e-10, (l, m, ratios)


# ----------------------------- ladder identity and products -----------------------------

def _ladder_step_row(q):
    # the one-step raising relation between series-convention polynomials,
    # over 0 <= m < l <= 5, relative to the next polynomial's largest coefficient
    rows = {c.name: c for c in verify_algebra(QParam(q), 3).checks}
    return rows["harmonic-ladder-step"]


def test_ladder_identity_examples():
    row = _ladder_step_row(1.3)
    assert row.passed and row.residual <= 1e-10, row.residual


def test_ladder_identity_sweep():
    for q in Q_GRID:
        row = _ladder_step_row(q)
        assert row.passed and row.residual <= 1e-10, (q, row.residual)


def test_product_expansion_coefficients():
    from qsu2 import position_coeff_lower, position_coeff_upper

    for q in (0.7, 1.4):
        p = QParam(q)
        for l in range(4):
            for m in range(-l, l + 1):
                y = build_y(l, m, p)
                for k in (1, 0, -1):
                    got = mul_position(k, y)
                    target = None
                    if abs(m + k) <= l + 1:
                        t = build_y(l + 1, m + k, p).scaled(position_coeff_upper(p, l, m, k))
                        target = t if target is None else target + t
                    if l >= 1 and abs(m + k) <= l - 1:
                        t = build_y(l - 1, m + k, p).scaled(position_coeff_lower(p, l, m, k))
                        target = t if target is None else target + t
                    assert got.distance(target) < 1e-9 * max(1.0, got.max_abs()), (l, m, k, q)


def test_right_multiplication_exchange():
    # left action differs from right action by the dilation weight plus a
    # single neighbouring-m correction
    from qsu2 import qnum as qn

    for q in (0.8, 1.3):
        p = QParam(q)
        two = qn(2, p)
        for l in range(4):
            for m in range(-l, l + 1):
                y = build_y(l, m, p)
                lhs = mul_position(0, y)
                rhs = mul_position_right(0, y).scaled(p.q ** (-2 * m))
                assert lhs.distance(rhs) < 1e-10 * max(1.0, lhs.max_abs())
                if m + 1 <= l:
                    lhs = mul_position(1, y)
                    corr = mul_position_right(0, build_y(l, m + 1, p)).scaled(
                        p.lam / p.sqrt(two) * p.q ** (-m - 1)
                        * p.sqrt(qn(l - m, p) * qn(l + m + 1, p))
                    )
                    rhs = mul_position_right(1, y) + corr
                    assert lhs.distance(rhs) < 1e-9 * max(1.0, lhs.max_abs()), (l, m, q)
                if m - 1 >= -l:
                    lhs = mul_position(-1, y)
                    corr = mul_position_right(0, build_y(l, m - 1, p)).scaled(
                        -p.lam / p.sqrt(two) * p.q ** (-m + 1)
                        * p.sqrt(qn(l + m, p) * qn(l - m + 1, p))
                    )
                    rhs = mul_position_right(-1, y) + corr
                    assert lhs.distance(rhs) < 1e-9 * max(1.0, lhs.max_abs()), (l, m, q)


def test_ladder_adjointness():
    from qsu2 import QMeasure, inner_product

    for q in (0.6, 1.5):
        p = QParam(q)
        mu = QMeasure(p)
        for m in (-2, -1, 0, 1):
            f = angular_function(p, m, {0: 0.3, 1: -1.1, 2: 0.8, 4: 0.2})
            g = angular_function(p, m + 1, {0: 0.9, 1: 0.4, 3: -0.6})
            lhs = inner_product(apply_lplus(f), g, mu)
            rhs = inner_product(f, apply_lminus(g), mu)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def _fraction_ladder_against_winding(coeffs: dict, m: int, s: int, q: Fraction) -> dict:
    """The ladder step against the winding (s*m < 0, j = |m|) the long
    way, in exact rationals: multiply by the order-j winding product
    prod_{t=1..j} (1 - q**(s(4t-2)) x0**2), apply the Jackson derivative
    with Q = q**(-2s), divide exactly by the order-(j-1) product, scale by
    -1/[2].  The prefactor sqrt([2]) q**m is left out."""
    j = -s * m
    poly = dict(coeffs)
    for t in range(1, j + 1):
        alpha = q ** (s * (4 * t - 2))
        shifted = {k + 2: -alpha * v for k, v in poly.items()}
        poly = {k: poly.get(k, 0) + shifted.get(k, 0) for k in set(poly) | set(shifted)}
    big_q = q ** (-2 * s)
    poly = {k - 1: v * (1 - big_q ** k) / (1 - big_q) for k, v in poly.items() if k}
    for t in range(1, j):
        alpha = q ** (s * (4 * t - 2))
        deg = max(poly)
        quot: dict = {}
        for k in range(deg + 1):
            val = poly.get(k, 0) + alpha * quot.get(k - 2, 0)
            if k <= deg - 2:
                quot[k] = val
            else:
                assert val == 0, (m, s, q, k)
        poly = quot
    two = q + 1 / q
    return {k: -v / two for k, v in poly.items() if v}


def test_ladder_against_the_winding_matches_the_exact_division():
    # the closed form against the route it replaces, multiply, derive and
    # divide, held in exact rationals: q = 3/2 and the double nearest 2/3,
    # whose Fraction is exactly the q high precision computes with
    rng = random.Random(20)
    for qf in (1.5, 2 / 3):
        p = QParam(qf, "high")
        q = Fraction(qf)
        for m in (-4, -3, -2, -1, 1, 2, 3, 4):
            s = 1 if m < 0 else -1
            ladder = apply_lplus if s == 1 else apply_lminus
            for _ in range(3):
                # dyadic rationals are exact as floats, so both routes
                # start from the same polynomial
                coeffs = {k: Fraction(rng.randint(-99, 99), 2 ** rng.randint(0, 6)) for k in range(rng.randint(0, 6) + 1)}
                coeffs = {k: v for k, v in coeffs.items() if v} or {0: Fraction(1)}
                got = ladder(angular_function(p, m, {k: float(v) for k, v in coeffs.items()}))
                exact = _fraction_ladder_against_winding(coeffs, m, s, q)
                with decimal.localcontext() as ctx:
                    ctx.prec = 90
                    pref = p.sqrt(qnum(2, p)) * p.power(m)
                    want = {k: pref * (Decimal(v.numerator) / Decimal(v.denominator)) for k, v in exact.items()}
                    scale = max(abs(v) for v in want.values())
                    keys = set(got.coeffs) | set(want)
                    err = max(abs(got.coeffs.get(k, 0) - want.get(k, 0)) for k in keys) / scale
                assert got.m == m + s, (qf, m)
                assert err < Decimal("1e-55"), (qf, m, err)


# ----------------------------- plumbing -----------------------------

def test_high_precision_harmonics():
    p = QParam(1.3, "high")
    for l in range(3):
        for m in range(l + 1):
            d = build_phi(l, m, p).distance(hypergeom_phi(l, m, p))
            assert float(d) < 1e-40


def test_zero_function_handling():
    p = QParam(1.1)
    z = angular_function(p, 2, {})
    assert z.is_zero and z.degree == -1
    assert z.distance(angular_function(p, -1, {})) == 0.0
    # a zero of any winding adds as zero; nonzero functions of different
    # windings do not add, and lie infinitely far apart
    f, g = angular_function(p, 1, {0: 1.0}), angular_function(p, 0, {1: 2.0})
    assert (f + z) is f and (z + f) is f
    with pytest.raises(ValueError, match="cannot add functions of different winding"):
        f + g
    assert f.distance(g) == math.inf and g.distance(f) == math.inf


def test_against_the_winding_ladders_propagate_nan():
    # raising winding -2 (lowering +2) is a closed form with no division:
    # a NaN coefficient reaches the result instead of raising, on both
    # sides of q = 1 and in both precisions
    for q, precision in ((0.7, "double"), (1.3, "double"), (0.7, "high"), (1.3, "high")):
        p = QParam(q, precision)
        nan = p.number(math.nan)
        for coeffs in ({0: nan, 2: p.one}, {0: p.one, 2: nan}):
            for ladder, m, step in ((apply_lplus, -2, 1), (apply_lminus, 2, -1)):
                g = ladder(angular_function(p, m, coeffs))
                assert g.m == m + step and math.isnan(g.max_abs()), (q, precision, m, coeffs)


def test_negative_power_rejected():
    # a key is the power of x0, an integer of at least 0; -2.0 is no integer
    for key, want in ((-1, "key must be at least 0, got -1"), (-2.0, "key must be an integer, got -2.0")):
        with pytest.raises(ValueError, match=re.escape(want)):
            angular_function(QParam(1.1), 0, {key: 1.0})


def test_internal_results_own_their_maps_and_drop_zeros():
    # the module forms its results without the constructor's checks, but
    # each still gets a read-only map of its own, without zeros
    for precision in ("double", "high"):
        p = QParam(1.3, precision)
        for k, m in ((1, 0), (1, 2), (-1, 0), (-1, -2)):
            f = angular_function(p, m, {0: 1.0, 2: -0.5})
            g = mul_position(k, f)
            assert g.m == m + k and g.coeffs == f.coeffs and g.coeffs is not f.coeffs
            for key, v in ((0, p.number(7)), (5, p.one)):
                with pytest.raises(TypeError):
                    g.coeffs[key] = v
            assert f.coeffs == g.coeffs == {0: p.one, 2: p.number(-0.5)}, (precision, k, m)
    p = QParam(1.3)
    f = angular_function(p, 1, {0: 1.0, 3: 1e-300})
    g = f.scaled(1e-300)
    assert g.coeffs == {0: 1e-300} and g.degree == 0
    assert f.scaled(0).is_zero and f.scaled(0).degree == -1
    # the public constructor still checks the keys by the integer rule, and
    # stores each as an int; 2.0, Fraction(3) and Decimal(5) are refused
    with pytest.raises(ValueError, match=re.escape("key must be at least 0, got -1")):
        angular.AngularFunction(p, 0, {1: 1.0, -1: 2.0})
    for key in (2.0, Fraction(3), Decimal(5)):
        with pytest.raises(ValueError, match=re.escape(f"key must be an integer, got {key!r}")):
            angular.AngularFunction(p, 0, {key: 1.0})
    h = angular.AngularFunction(p, 0, {2: 1.0, np.int64(3): 0.5, np.int8(5): 0.25, 4: 0.0})
    assert h.coeffs == {2: 1.0, 3: 0.5, 5: 0.25} and all(type(k) is int for k in h.coeffs) and h.degree == 5


def _assert_read_only(f):
    """Every way of changing f's map raises, and the map stays as it was."""
    c = f.coeffs
    before = [(k, _bits(v)) for k, v in c.items()]
    key = next(iter(c), 0)
    with pytest.raises(TypeError):
        c[key] = f.p.one
    with pytest.raises(TypeError):
        del c[key]
    for name, args in (("pop", (key,)), ("clear", ()), ("update", ({key: f.p.one},)), ("setdefault", (key, 1))):
        with pytest.raises(AttributeError):
            getattr(c, name)(*args)
    with pytest.raises(AttributeError):  # a frozen dataclass field
        f.coeffs = {}
    assert [(k, _bits(v)) for k, v in f.coeffs.items()] == before


def test_coefficient_maps_are_read_only():
    # every way the library forms a function, in both precisions
    for precision in ("double", "high"):
        p = QParam(1.3, precision)
        f = angular_function(p, -1, {0: 1.0, 2: -0.5})
        g = angular_function(p, -1, {1: 0.25, 2: 2.0})
        y = build_y(3, 1, p)
        formed = [
            angular.AngularFunction(p, 2, {0: p.one, 3: p.number(0.5)}),
            f,
            y,
            build_y(3, -2, p),
            build_phi(3, 1, p),
            hypergeom_phi(3, 1, p),
            f.scaled(2),
            f.scaled(0),
            f + g,
            f - g,
            *(mul_position(k, f) for k in (1, 0, -1)),
            *(mul_position_right(k, y) for k in (1, 0, -1)),
            apply_lplus(f),
            apply_lminus(y),
            apply_casimir(y),
        ]
        for h in formed:
            _assert_read_only(h)
        # a changed coefficient makes a new function
        g = angular_function(p, f.m, {**f.coeffs, 2: 0.25})
        assert f.coeffs == {0: p.one, 2: p.number(-0.5)} and g.coeffs == {0: p.one, 2: p.number(0.25)}


@pytest.mark.parametrize("key", [1.5, True, False, "2", math.nan, math.inf, -math.inf, Decimal("NaN"), Decimal("2.5"), Fraction(1, 2), 1j])
def test_constructor_refuses_keys_that_are_not_integral_powers(key):
    # int() alone would move 1.5 onto the coefficient at 1, take a bool or
    # a string, and fail on NaN without naming the key; a key is refused by
    # the integer rule
    for precision in ("double", "high"):
        p = QParam(0.7, precision)
        for coeffs in ({key: 2.0, 1: 3.0}, {key: 2.0}, {5: 1.0, key: 0.0}):
            for make in (angular.AngularFunction, angular_function):
                with pytest.raises(ValueError, match=re.escape(f"key must be an integer, got {key!r}")):
                    make(p, 0, coeffs)


# qcore's real rule, as a refusal reads it after the argument's name
_NOT_REAL = "must be a real number (an int, a float or a Decimal)"


@pytest.mark.parametrize("value", [1j, complex(1.5, 0.0), complex(math.nan, 0.0), np.complex128(2), np.complex64(1j)])
def test_complex_coefficients_and_scale_factors_are_refused(value):
    # the realizations are hermitian at real q: both precisions take real
    # coefficients only, where high precision took a complex one into the
    # constructor and failed in its first inner product
    for precision in ("double", "high"):
        p = QParam(0.7, precision)
        for make in (angular.AngularFunction, angular_function):
            for coeffs in ({0: value}, {0: 1.0, 2: value}):
                with pytest.raises(ValueError, match=re.escape(f"coeffs {_NOT_REAL}, got {value!r}")):
                    make(p, 0, coeffs)
        # a scale factor is taken by the same rule, and named s
        f = angular_function(p, 1, {0: 1.0, 2: -0.5})
        with pytest.raises(ValueError, match=re.escape(f"s {_NOT_REAL}, got {value!r}")):
            f.scaled(value)
        assert f.scaled(p.number(2)).coeffs == {0: 2 * p.one, 2: -p.one}


@pytest.mark.parametrize("precision", ["double", "high"])
def test_coefficients_are_stored_as_numbers_of_the_backend(precision):
    # an int, a float (np.float64 is one) or a Decimal is taken by both
    # constructors and stored as p.number stores it: a float in double
    # precision, a Decimal, exactly, in high precision.  A double function
    # used to keep a Decimal, which scaled, + and mul_position_right met
    # with a bare TypeError, and AngularFunction kept a float in high
    # precision, which the inner product met with one.  scaled takes its
    # factor by the same rule: a Decimal raised a bare TypeError there in
    # double precision, a float in high precision
    p = QParam(0.7, precision)
    coeffs = {0: 3, 1: 0.1, 2: Decimal("0.5"), 3: np.float64(-0.25), 4: -math.inf}
    for make in (angular.AngularFunction, angular_function):
        f = make(p, 1, coeffs)
        assert f.coeffs == {k: p.number(v) for k, v in coeffs.items()}
        assert {type(v) for v in f.coeffs.values()} == {Decimal if p.is_high else float}
        for s in coeffs.values():
            g = f.scaled(s)
            assert g.coeffs == f.scaled(p.number(s)).coeffs
            assert {type(v) for v in g.coeffs.values()} == {type(p.one)}
        g = f.scaled(2) + mul_position(0, f)
        assert mul_position_right(1, g).m == 2 and mul_position_right(-1, f).m == 0
        finite = make(p, 1, {k: v for k, v in coeffs.items() if k < 4})
        assert inner_product(finite, finite, QMeasure(p)) > 0


@pytest.mark.parametrize("value", [True, False, Fraction(1, 2), np.int64(2), np.float32(0.5), "1", None])
def test_coefficients_of_any_other_type_are_refused(value):
    # a bool acted as 0 or 1; a Fraction, a numpy int or float32 was taken
    # and failed in the first inner product without naming it.  As a scale
    # factor, True, Fraction(1, 2) and np.int64(2) were taken
    for precision in ("double", "high"):
        p = QParam(0.7, precision)
        for make in (angular.AngularFunction, angular_function):
            with pytest.raises(ValueError, match=re.escape(f"coeffs {_NOT_REAL}, got {value!r}")):
                make(p, 0, {0: 1.0, 2: value})
        with pytest.raises(ValueError, match=re.escape(f"s {_NOT_REAL}, got {value!r}")):
            angular_function(p, 0, {0: 1.0}).scaled(value)


@pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400), Decimal("1E+400"), Decimal("-2E+308")])
def test_coefficients_past_the_double_range_are_refused_in_double_precision(value):
    # float() would make them infinite, or raise for the int; high precision
    # keeps them exactly
    for make in (angular.AngularFunction, angular_function):
        with pytest.raises(ValueError, match=re.escape(f"coefficient {value!r} lies outside the double range")):
            make(QParam(0.7), 0, {1: value})
        assert make(QParam(0.7, "high"), 0, {1: value}).coeffs == {1: value}
    # and as a scale factor
    with pytest.raises(ValueError, match=re.escape(f"coefficient {value!r} lies outside the double range")):
        angular_function(QParam(0.7), 0, {1: 2.0}).scaled(value)
    assert angular_function(QParam(0.7, "high"), 0, {1: 2}).scaled(value).coeffs == {1: 2 * value}


@pytest.mark.parametrize("m", [0.5, 2.0, True, "1", Fraction(1), None])
def test_constructor_refuses_a_winding_that_is_not_an_integer(m):
    # a non-integer winding would reach the ladders, which form a result,
    # and inner_product, which fails without naming it
    for precision in ("double", "high"):
        p = QParam(0.7, precision)
        for make in (angular.AngularFunction, angular_function):
            with pytest.raises(ValueError, match=re.escape(f"m must be an integer, got {m!r}")):
                make(p, m, {0: 1.0})


def test_component_index_validation():
    p = QParam(1.2)
    f = angular_function(p, 0, {0: 1.0})
    for k in (2, -2, 5):
        with pytest.raises(ValueError):
            mul_position(k, f)
        with pytest.raises(ValueError):
            mul_position_right(k, f)
        with pytest.raises(ValueError):
            apply_lambda(k, f)
        for coeff in (position_coeff_upper, position_coeff_lower):
            with pytest.raises(ValueError, match=re.escape(f"k must be one of +1, 0, -1, got {k}")):
                coeff(p, 2, 0, k)
