import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsu2 import QParam, invariants, qdouble_factorial, qfactorial, qnum

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
    for l in range(7):
        inv = invariants(l, QParam(1.0))
        assert inv.C == l * (l + 1)
        assert inv.Cprime == l * (l + 1)
        assert inv.c == 1.0


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


def test_invariants_rejects_bad_l():
    with pytest.raises(ValueError):
        invariants(-1, QParam(1.2))


def test_qparam_validation():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            QParam(bad)
    with pytest.raises(ValueError):
        QParam(1 + 1j)
    with pytest.raises(ValueError):
        QParam(1.2, "quad")


def test_high_precision_mode():
    p = QParam(1.3, "high")
    q = p.q
    assert abs(q ** 4 + q ** 2 + 1 + q ** -2 + q ** -4 - qnum(5, p)) < 1e-40
    pd = QParam(1.3)
    for l in range(5):
        hi, lo = invariants(l, p), invariants(l, pd)
        assert abs(float(hi.c) - lo.c) < 1e-12


def test_qnum_base2_half_indices():
    from qsu2.qcore import qnum_base2

    # base-q**2 numbers at twice the index: integral exponents only
    q = 1.7
    p = QParam(q)
    got = qnum_base2(3, p)
    want = (q ** 3 - q ** -3) / (q ** 2 - q ** -2)
    assert got == pytest.approx(want, rel=1e-15)
    assert qnum_base2(3, QParam(1.0)) == 1.5


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
    """The exact representation of a float or mpf value, sign of zero included."""
    return x.hex() if isinstance(x, float) else x._mpf_


def test_table_entries_equal_the_direct_formulas():
    for precision in ("double", "high"):
        for q in (0.5, 1.0, 1.3):
            p = QParam(q, precision)
            qq = p.q
            assert _bits(p.one) == _bits(qq ** 0) and _bits(p.zero) == _bits(0 * qq ** 0)
            for n in range(-12, 13):
                direct = n * qq ** 0 if q == 1.0 else (qq ** n - qq ** (-n)) / (qq - 1 / qq)
                first = qnum(n, p)
                assert _bits(first) == _bits(direct), (precision, q, n)
                # a second call reads the stored entry
                assert qnum(n, p) is first
                power = p.power(n)
                assert _bits(power) == _bits(qq ** n) and p.power(n) is power
            # a real index is computed directly and not stored
            size = len(p._table)
            assert _bits(qnum(2.5, p)) == _bits(2.5 * qq ** 0 if q == 1.0 else (qq ** 2.5 - qq ** -2.5) / (qq - 1 / qq))
            assert len(p._table) == size


def test_table_overflow_is_raised_and_not_stored():
    p = QParam(1.3)
    size = len(p._table)
    for _ in range(2):
        with pytest.raises(OverflowError):
            qnum(5000, p)
        with pytest.raises(OverflowError):
            p.power(5000)
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
