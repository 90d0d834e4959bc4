import decimal
import json
import math
import re

from decimal import Decimal

import numpy as np
import pytest

from qsu2 import (
    AngularFunction,
    IdentityCheck,
    OperatorMatrix,
    QMeasure,
    QParam,
    VerifyReport,
    build_generators,
    build_invariant_c,
    build_lambda,
    build_partial,
    build_partial_elements,
    build_position,
    build_y,
    diag_operator,
    identity_operator,
    inner_product,
    invariants,
    mul_position,
    position_coeff_lower,
    position_coeff_upper,
    qnum,
    scalar_product,
    transverse_square_candidates,
    verify_algebra,
)
from qsu2.irrep import _adjoint_pairs
from qsu2.qcore import _CTX

import make_verdict_map as verdicts


def test_generators_classical_spin_one_block():
    gen = build_generators(QParam(1.0), 2)
    lp = gen["Lplus"].block(1, 1)
    # classical ladder entries sqrt(2) on the two superdiagonal slots
    s2 = math.sqrt(2)
    assert lp[1, 0] == pytest.approx(s2, rel=1e-15)
    assert lp[2, 1] == pytest.approx(s2, rel=1e-15)
    assert abs(lp).sum() == pytest.approx(2 * s2, rel=1e-15)
    l0 = gen["L0"].block(1, 1)
    assert [l0[i, i].real for i in range(3)] == [-1, 0, 1]


def test_generator_commutator_residual():
    p = QParam(1.7)
    gen = build_generators(p, 6)
    lp, lm = gen["Lplus"], gen["Lminus"]
    two_l0 = diag_operator(p, 6, lambda l, m: qnum(2 * m, p))
    assert ((lp @ lm - lm @ lp) - two_l0).max_abs() < 1e-12


def test_casimir_diagonal():
    p = QParam(1.7)
    gen = build_generators(p, 6)
    cas = gen["Lminus"] @ gen["Lplus"] + diag_operator(p, 6, lambda l, m: qnum(m, p) * qnum(m + 1, p))
    want = diag_operator(p, 6, lambda l, m: invariants(l, p).C)
    assert (cas - want).max_abs() < 1e-11


def test_lambda_square_and_invariant_diagonals():
    for q in (0.8, 1.25):
        p = QParam(q)
        lam = build_lambda(build_generators(p, 6))
        sq = scalar_product(lam, lam)
        c_op = build_invariant_c(lam)
        for l in range(7):
            inv = invariants(l, p)
            for v in sq.diagonal(l):
                assert abs(v - inv.Cprime) < 1e-10 * max(1.0, abs(inv.Cprime))
            for v in c_op.diagonal(l):
                assert abs(v - inv.c) < 1e-12 * max(1.0, abs(inv.c))


def test_lambda_classical_components():
    # at q = 1 the rebuilt vector reduces to the spherical components of
    # the generators
    p = QParam(1.0)
    gen = build_generators(p, 3)
    lam = build_lambda(gen)
    s = 1 / math.sqrt(2)
    assert (lam[1] - gen["Lplus"].scaled(-s)).max_abs() < 1e-14
    assert (lam[-1] - gen["Lminus"].scaled(s)).max_abs() < 1e-14
    assert (lam[0] - gen["L0"]).max_abs() < 1e-14


def test_position_hermiticity_patterns():
    for q in (0.8, 1.5):
        p = QParam(q)
        x = build_position(p, 6)
        interior = 4
        assert (x[1].dagger() + x[-1].scaled(1 / p.q)).truncated(interior).max_abs() < 1e-13
        assert (x[-1].dagger() + x[1].scaled(p.q)).truncated(interior).max_abs() < 1e-13
        assert (x[0].dagger() - x[0]).truncated(interior).max_abs() < 1e-13


def test_position_classical_entries():
    # q = 1 entries are real and reproduce the classical recursion weights
    p = QParam(1.0)
    x = build_position(p, 4)
    for l in range(3):
        for m in range(-l, l + 1):
            got = x[0].block(l + 1, l)[m + l + 1, m + l]
            want = math.sqrt((l - m + 1) * (l + m + 1) / ((2 * l + 1) * (2 * l + 3)))
            assert got.imag == 0
            assert got.real == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("precision", ["double", "high"])
@pytest.mark.parametrize("q", [0.3, 0.9, 1.0, 1.7, 10])
def test_position_blocks_match_the_entry_functions(q, precision):
    # the blocks share roots between entries; the entry functions form each
    # entry on its own, and every entry must be theirs, bit for bit
    p = QParam(q, precision)
    for lmax in range(1, 13):
        x = build_position(p, lmax)
        # per l the upper block, then the lower one
        order = []
        for l in range(lmax + 1):
            order += [(l + 1, l)] * (l < lmax) + [(l - 1, l)] * (l > 0)
        for k in (1, 0, -1):
            assert list(x[k].blocks) == order
            for (lo, l), vec in x[k].blocks.items():
                assert len(vec) == 2 * l + 1
                for m, got in zip(range(-l, l + 1), vec):
                    if lo > l:
                        want = position_coeff_upper(p, l, m, k)
                    elif abs(m + k) < l:
                        want = position_coeff_lower(p, l, m, k)
                    else:
                        want = p.zero
                    assert repr(got) == repr(want), (lmax, k, lo, l, m)


def test_position_matches_integral_cross_check():
    # matrix elements against the deformed integral of the constructed
    # harmonics; the coefficient table must agree with what the functions
    # actually do
    for q in (0.5, 1.5):
        p = QParam(q)
        mu = QMeasure(p)
        for l in range(4):
            for m in range(-l, l + 1):
                for k in (1, 0, -1):
                    xf = mul_position(k, build_y(l, m, p))
                    if abs(m + k) <= l + 1:
                        got = inner_product(build_y(l + 1, m + k, p), xf, mu)
                        assert abs(got - position_coeff_upper(p, l, m, k)) < 1e-9
                    if l >= 1 and abs(m + k) <= l - 1:
                        got = inner_product(build_y(l - 1, m + k, p), xf, mu)
                        assert abs(got - position_coeff_lower(p, l, m, k)) < 1e-9


def _partials(p, lmax):
    """The transverse derivative by both builders, from operands built on l <= lmax."""
    x = build_position(p, lmax)
    lam = build_lambda(build_generators(p, lmax))
    return build_partial(x, lam, build_invariant_c(lam)), build_partial_elements(x)


def test_partial_dual_construction():
    p = QParam(1.4)
    d_a, d_b = _partials(p, 6)
    for k in (1, 0, -1):
        assert (d_a[k] - d_b[k]).truncated(4).max_abs() < 1e-10


def test_partial_refuses_operands_that_do_not_match():
    # each builder reads p and lmax from its operands; operands of another
    # lmax or q refuse to combine, x needs lmax >= 1 and the generators
    # lmax >= 0
    p, other = QParam(1.3), QParam(0.7)
    lam6 = build_lambda(build_generators(p, 6))
    lam_other = build_lambda(build_generators(other, 4))
    for lam, side in ((lam6, "q=1.3 double lmax=6"), (lam_other, "q=0.7 double lmax=4")):
        with pytest.raises(ValueError, match=re.escape(f"cannot combine operators of q=1.3 double lmax=4 and {side}")):
            build_partial(build_position(p, 4), lam, build_invariant_c(lam))
    with pytest.raises(ValueError, match="lmax must be at least 1, got 0"):
        build_position(p, 0)
    with pytest.raises(ValueError, match="lmax must be at least 0, got -1"):
        build_generators(p, -1)


def test_partial_hermiticity():
    p = QParam(1.2)
    d = _partials(p, 6)[0]
    for k in (1, 0, -1):
        assert (d[k].dagger() + d[-k].scaled((-1 / p.q) ** k)).truncated(4).max_abs() < 1e-12


def test_partial_from_invariant_commutator():
    p = QParam(1.5)
    lmax = 6
    x = build_position(p, lmax)
    lam = build_lambda(build_generators(p, lmax))
    c = build_invariant_c(lam)
    d = build_partial(x, lam, c)
    for k in (1, 0, -1):
        comm = (c @ x[k] - x[k] @ c).scaled(1 / (p.lam * p.lam))
        assert (comm - d[k]).truncated(4).max_abs() < 1e-10


def test_scalar_contractions():
    for q in (0.8, 1.3):
        p = QParam(q)
        lmax = 6
        x = build_position(p, lmax)
        lam = build_lambda(build_generators(p, lmax))
        c = build_invariant_c(lam)
        d = build_partial(x, lam, c)
        ident = identity_operator(p, lmax)
        assert (scalar_product(x, x) - ident).truncated(4).max_abs() < 1e-11
        assert (scalar_product(x, d) - c).truncated(4).max_abs() < 1e-10
        assert (scalar_product(d, x) + c).truncated(4).max_abs() < 1e-10


def test_partial_zero_diagonal_blocks():
    p = QParam(1.3)
    d = _partials(p, 5)[0]
    for k in (1, 0, -1):
        for (lo, li) in d[k].blocks:
            assert abs(lo - li) == 1 or len(d[k].blocks[(lo, li)]) == 0


def test_transverse_square_resolution():
    # exactly one candidate matches every l; the shorter-bracket variant
    # coincides only at l = 0
    consistent = "-([2l][2l+2]/[2]^2 + c_l^2)"
    printed = "-([2l][2l+1]/[2]^2 + c_l^2)"
    for q in (1.0, 1.3, 0.7):
        p = QParam(q)
        d = _partials(p, 6)[0]
        sq = scalar_product(d, d)
        for l in range(5):
            cands = transverse_square_candidates(l, p)
            diag = sq.diagonal(l)
            resid = {name: max(abs(v - value) for v in diag) for name, value in cands.items()}
            assert resid[consistent] < 1e-10 * max(1.0, abs(cands[consistent]))
            if l == 0:
                assert resid[printed] < 1e-10
            else:
                assert resid[printed] > 1e-3


def test_transverse_square_classical_value():
    p = QParam(1.0)
    d = _partials(p, 6)[0]
    sq = scalar_product(d, d)
    for l in range(5):
        for v in sq.diagonal(l):
            assert v.real == pytest.approx(-(l * (l + 1) + 1), abs=1e-11)


def test_verify_algebra_classical():
    rep = verify_algebra(QParam(1.0), 5)
    assert rep.passed
    gated = [c.residual for c in rep.checks if c.passed is not None]
    assert max(gated) < 1e-12


def test_verify_algebra_sweep():
    for q in (0.8, 0.5, 0.9, 1.5):
        rep = verify_algebra(QParam(q), 6)
        assert rep.passed, [c.name for c in rep.checks if c.passed is False]
        assert max(c.residual for c in rep.checks if c.passed is not None) < 1e-10
        assert any(c.name == "transverse-square-diagonal" for c in rep.checks)
        assert rep.finding["transverse_square_diagonal"]["resolution"] == "-([2l][2l+2]/[2]^2 + c_l^2)"


def test_harmonic_orthonormality_far_from_one():
    # the Gram rows sum closed-form moments, so far from q = 1 they no
    # longer lose the large harmonic coefficients to cancellation
    for q in (0.2, 3.0, 5.0):
        rep = verify_algebra(QParam(q), 6)
        row = next(c for c in rep.checks if c.name == "harmonic-orthonormality")
        assert row.passed, (q, row.residual)


@pytest.mark.parametrize("q", [1e-30, 1e100])
def test_ladder_adjointness_reads_the_exact_q_far_from_one(q):
    # the double q has more than 62 significant digits: the moments of the
    # inner products sit at the exact q of the ladders, so L+ stays the
    # adjoint of L- to the digits of the sums
    p = QParam(q, "high")
    pairs = _adjoint_pairs(p, QMeasure(p))
    with decimal.localcontext(_CTX):
        assert max(abs(a - b) for a, b in pairs) < Decimal("1e-60"), q


def test_verdict_map_replays():
    # every point of the committed verdict map, run again: whether it
    # passed, its failing gated rows and whether its finding resolves are
    # those recorded (make_verdict_map.py)
    points = json.loads(verdicts.TABLE.read_text())["points"]
    assert [(e["precision"], e["q"], e["lmax"]) for e in points] == verdicts.POINTS
    changed = [e for e in points if verdicts.run(e["precision"], e["q"], e["lmax"]) != e]
    assert not changed, changed


@pytest.mark.parametrize(
    "q, lmax, precision",
    [(1.3, 6, "double"), (0.5, 4, "double"), (1.35, 5, "double"), (0.7, 4, "high")],
)
def test_interior_basis_matches_the_full_truncation(q, lmax, precision):
    # the catalogue runs its operator rows on the interior basis, from operands
    # built one shell above it; the same rows formed by the public builders up
    # to lmax and compared on the interior blocks give the same residual bits
    p = QParam(q, precision)
    interior = lmax - 2
    with decimal.localcontext(_CTX):
        gen = build_generators(p, lmax)
        lam = build_lambda(gen)
        c = build_invariant_c(lam)
        x = build_position(p, lmax)
        d = build_partial(x, lam, c)
        ql0, two = diag_operator(p, lmax, lambda l, m: p.power(m)), p.sqrt(qnum(2, p))
        vector = []
        for k in (1, 0, -1):
            vector.append((gen["L0"] @ d[k] - d[k] @ gen["L0"], d[k].scaled(k)))
            for sign, ladder in ((1, gen["Lplus"]), (-1, gen["Lminus"])):
                lhs = (ladder @ d[k] - (d[k] @ ladder).scaled(p.power(k))) @ ql0
                vector.append((lhs, d[k + sign].scaled(two) if k + sign in d else OperatorMatrix(p, lmax, k + sign)))
        rows = {
            "unit-sphere-norm": [(scalar_product(x, x), identity_operator(p, lmax))],
            "cross-contraction-xd": [(scalar_product(x, d), c)],
            "position-exchange-mixed": [(x[1] @ x[-1] - x[-1] @ x[1], (x[0] @ x[0]).scaled(p.lam))],
            "transverse-exchange-dilation": [
                (d[0] @ d[1] - (d[1] @ d[0]).scaled(p.power(-2)), (c @ lam[1]).scaled(1 / p.q)),
                (d[0] @ d[-1] - (d[-1] @ d[0]).scaled(p.power(2)), (c @ lam[-1]).scaled(-p.q)),
            ],
            "vector-condition-transverse": vector,
        }
        expected = {
            name: max(lhs.truncated(interior).distance(rhs.truncated(interior)) for lhs, rhs in pairs)
            for name, pairs in rows.items()
        }
    got = {row.name: row.residual for row in verify_algebra(p, lmax).checks if row.name in rows}
    assert got == expected


def test_verify_algebra_q_inverse_symmetry():
    p = QParam(1.45)
    lam = build_lambda(build_generators(p, 5))
    c = build_invariant_c(lam)
    lam_r = build_lambda(build_generators(p.reciprocal(), 5))
    c_r = build_invariant_c(lam_r)
    sq, sq_r = scalar_product(lam, lam), scalar_product(lam_r, lam_r)
    for l in range(4):
        for a, b in zip(sq.diagonal(l), sq_r.diagonal(l)):
            assert abs(a - b) < 1e-11 * max(1.0, abs(a))
        for a, b in zip(c.diagonal(l), c_r.diagonal(l)):
            assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_verify_algebra_high_precision():
    rep = verify_algebra(QParam(1.3, "high"), 4, tol=1e-25)
    assert rep.passed
    assert max(c.residual for c in rep.checks if c.passed is not None) < 1e-25


@pytest.mark.parametrize("q", [0.3, 0.7, 1.0, 1.3, 3.0])
def test_high_precision_carries_no_double(q):
    # decimal refuses a float operand, so a double entering high-precision
    # arithmetic raises instead of rounding the result to 53 bits; every
    # operand the catalogue builds must be a Decimal
    p = QParam(q, "high")
    for lmax in (3, 6):
        gen = build_generators(p, lmax)
        x = build_position(p, lmax)
        partial = [v for d in _partials(p, lmax) for v in d.values()]
        for op in (*gen.values(), *x.values(), *partial):
            assert all(type(v) is Decimal for vec in op.blocks.values() for v in vec)
        for fault in (False, True):
            rep = verify_algebra(p, lmax, inject_fault=fault)
            gated = [c for c in rep.checks if c.passed is not None]
            assert all(math.isfinite(c.residual) for c in gated)
            failed = [c.name for c in gated if not c.passed]
            assert failed == (["position-product-expansion"] if fault else []), (lmax, fault)
    for l in range(5):
        for m in range(-l, l + 1):
            assert all(type(v) is Decimal for v in build_y(l, m, p).coeffs.values())


def test_verify_algebra_covers_the_whole_catalogue():
    rep = verify_algebra(QParam(1.2), 4, inject_fault=True)
    assert {c.group for c in rep.checks} == {"operator", "harmonic", "measure"}
    assert [c.name for c in rep.checks if c.passed is False] == ["position-product-expansion"]


def test_max_residual_ignores_informational_rows():
    rep = verify_algebra(QParam(0.5), 10)
    gated = [c.residual for c in rep.checks if c.passed is not None]
    bare = [c.residual for c in rep.checks if c.passed is None and c.residual is not None]
    assert max(bare) > 1e6
    assert rep.max_residual == max(gated) < 1e-5


def test_verify_algebra_rejects_small_lmax():
    with pytest.raises(ValueError):
        verify_algebra(QParam(1.1), 2)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0, 0.0, -1, -1e-10, True, False, "1e-10", None, 1e-10j])
def test_verify_algebra_refuses_a_tolerance_that_is_not_positive_and_finite(tol):
    # inf and True passed every row, NaN, 0 and -1 failed every gated one,
    # and a string raised TypeError from the first comparison; a real of
    # the wrong sign or size and a value that is no real read the two forms
    # of qcore's real rule
    real = isinstance(tol, (int, float)) and not isinstance(tol, bool)
    rule = "must be positive and finite" if real else "must be a real number (an int, a float or a Decimal)"
    with pytest.raises(ValueError, match=re.escape(f"tol {rule}, got {tol!r}")):
        verify_algebra(QParam(1.3), 3, tol)


# every row of the catalogue in report order: (group, name, passed is None)
CATALOGUE = [
    ("operator", "generator-commutator-raise", False),
    ("operator", "generator-commutator-lower", False),
    ("operator", "generator-commutator-ladder", False),
    ("operator", "casimir-diagonal", False),
    ("operator", "vector-condition-position", False),
    ("operator", "vector-condition-angular", False),
    ("operator", "vector-condition-transverse", False),
    ("operator", "position-exchange-dilation", False),
    ("operator", "position-exchange-mixed", False),
    ("operator", "transverse-exchange-dilation", False),
    ("operator", "transverse-exchange-dilation-bare", True),
    ("operator", "transverse-exchange-mixed", False),
    ("operator", "transverse-exchange-mixed-bare", True),
    ("operator", "unit-sphere-norm", False),
    ("operator", "cross-contraction-xd", False),
    ("operator", "cross-contraction-dx", False),
    ("operator", "angular-square-diagonal", False),
    ("operator", "third-invariant-diagonal", False),
    ("operator", "transverse-from-invariant", False),
    ("operator", "transverse-dual-construction", False),
    ("operator", "transverse-hermiticity", False),
    ("operator", "position-hermiticity", False),
    ("operator", "transverse-square-diagonal", False),
    ("harmonic", "harmonic-recursion-vs-closed-form", False),
    ("harmonic", "harmonic-orthonormality", False),
    ("harmonic", "harmonic-ladder-step", False),
    ("harmonic", "harmonic-casimir", False),
    ("harmonic", "position-product-expansion", False),
    ("harmonic", "position-right-commutation", False),
    ("harmonic", "ladder-adjointness", False),
    ("harmonic", "measure-symmetry", False),
    ("measure", "measure-series-agreement", True),
    ("harmonic", "uniform-state-moment", False),
]


def test_verify_algebra_catalogue_shape():
    rep = verify_algebra(QParam(1.3), 4)
    assert [(c.group, c.name, c.passed is None) for c in rep.checks] == CATALOGUE
    # the series grid exists only for q < 1, the commutator route only off q = 1
    rows = {c.name: c for c in rep.checks}
    assert rows["measure-series-agreement"].residual is None
    assert rows["measure-series-agreement"].note == "series grid only exists for q < 1"
    rows = {c.name: c for c in verify_algebra(QParam(1.0), 4).checks}
    row = rows["transverse-from-invariant"]
    assert row.residual is None and row.passed is None
    assert row.note == "skipped at q = 1: the commutator route divides by lambda**2"
    assert rows["measure-series-agreement"].note == "series grid only exists for q < 1"
    rows = {c.name: c for c in verify_algebra(QParam(1.3), 4, inject_fault=True).checks}
    assert rows["position-product-expansion"].note == "fault injected"
    assert rows["position-product-expansion"].passed is False


def test_operator_matrix_algebra():
    p = QParam(1.2)
    x = build_position(p, 4)
    ident = identity_operator(p, 4)
    assert ((x[0] + x[0].scaled(-1))).max_abs() == 0
    assert ((ident @ x[0]) - x[0]).max_abs() < 1e-15
    assert (x[0].dagger().dagger() - x[0]).max_abs() == 0
    assert x[1].delta_m == 1 and x[1].dagger().delta_m == -1


def test_graded_blocks_match_dense_algebra():
    # the one-vector-per-block storage must reproduce dense block products
    # (summed over the intermediate l) and conjugate transposes
    def worst_gap(a, b):
        gap = 0.0
        for lo in range(a.lmax + 1):
            for li in range(a.lmax + 1):
                dense = sum(a.block(lo, k) @ b.block(k, li) for k in range(a.lmax + 1))
                gap = max(gap, float(np.max(np.abs((a @ b).block(lo, li) - dense))))
                adjoint = np.conjugate(a.block(lo, li).T)
                gap = max(gap, float(np.max(np.abs(a.dagger().block(li, lo) - adjoint))))
        return gap

    # high-precision blocks hold mpf values, their dense views object arrays
    for p, lmax, gate in ((QParam(0.7), 5, 1e-13), (QParam(1.3, "high"), 3, 1e-50)):
        gen = build_generators(p, lmax)
        ops = [*gen.values(), *build_position(p, lmax).values(), *build_lambda(gen).values()]
        for a in ops:
            for b in ops:
                assert (a @ b).delta_m == a.delta_m + b.delta_m
                assert worst_gap(a, b) < gate
    ph = QParam(0.7, "high")
    gen, x = build_generators(ph, 3), build_position(ph, 3)
    lam = build_lambda(gen)
    assert worst_gap(gen["Lplus"], x[-1]) < 1e-50
    assert worst_gap(x[1], lam[0]) < 1e-50


def test_operators_of_different_parameters_refuse_to_combine():
    # q, precision and lmax must all agree, in either argument order
    base = build_position(QParam(1.2), 3)[0]
    for other in (
        build_position(QParam(0.7), 3)[0],
        build_position(QParam(1.2, "high"), 3)[0],
        build_position(QParam(1.2), 4)[0],
    ):
        for a, b in ((base, other), (other, base)):
            for combine in (lambda a, b: a @ b, lambda a, b: a + b, lambda a, b: a - b):
                with pytest.raises(ValueError):
                    combine(a, b)
    # equal parameters in distinct objects still combine
    assert (base - build_position(QParam(1.2), 3)[0]).max_abs() == 0


def test_verify_algebra_forms_each_operand_once(monkeypatch):
    import qsu2.angular as angular
    import qsu2.irrep as irrep

    calls = {"build_y": 0, "build_phi": 0, "matmul": 0}
    build_y_orig, build_phi_orig, matmul_orig = irrep.build_y, irrep.build_phi, irrep.OperatorMatrix.__matmul__

    def counted_build_y(*args):
        calls["build_y"] += 1
        return build_y_orig(*args)

    def counted_build_phi(*args):
        calls["build_phi"] += 1
        return build_phi_orig(*args)

    def counted_matmul(a, b):
        calls["matmul"] += 1
        return matmul_orig(a, b)

    monkeypatch.setattr(irrep, "build_y", counted_build_y)
    # build_phi is looked up in irrep by the catalogue and in angular by build_y
    monkeypatch.setattr(irrep, "build_phi", counted_build_phi)
    monkeypatch.setattr(angular, "build_phi", counted_build_phi)
    monkeypatch.setattr(irrep.OperatorMatrix, "__matmul__", counted_matmul)
    verify_algebra(QParam(1.3), 6)
    # the 25 harmonics with l <= 4, each built once
    assert calls["build_y"] == 25
    # the 28 polynomials with l <= 6, plus one inside each build_y call
    assert calls["build_phi"] <= 53
    assert calls["matmul"] <= 130


def test_max_abs_propagates_nan():
    # the builtin max skips a NaN that does not come first
    for p in (QParam(1.3), QParam(1.3, "high")):
        nan = p.number(math.nan)
        for vec in ([nan], [p.one, nan, p.one / 2]):
            op = OperatorMatrix(p, 2, 0, {(0, 0): [p.one / 4], (1, 1): vec})
            assert math.isnan(op.max_abs())
            assert op.truncated(0).max_abs() == 0.25
        op = OperatorMatrix(p, 2, 0, {(0, 0): [p.one / 4], (1, 1): [p.one, -2 * p.one, p.one / 2]})
        assert op.max_abs() == 2.0
        f = AngularFunction(p, 1, {0: p.one, 1: nan, 2: p.one / 2})
        g = AngularFunction(p, 1, {0: p.one, 2: p.one / 4})
        assert math.isnan(f.max_abs()) and math.isnan(f.distance(g)) and math.isnan(g.distance(f))
        assert g.max_abs() == 1.0 and g.distance(g.scaled(2)) == 1.0
    checks = [IdentityCheck("a", "operator", 1e-12, True), IdentityCheck("b", "operator", math.nan, False)]
    assert math.isnan(VerifyReport(checks, {}).max_residual)


def _nan_operator_entry_fails_its_rows(monkeypatch, precision):
    import qsu2.irrep as irrep

    upper, build = irrep.position_coeff_upper, irrep.build_position

    # the upper (l, m, k) = (1, 1, 0) entry is NaN both in the expansion
    # coefficients and in x0, as its block (2, 1) at index m + l = 2
    def nan_at_one_entry(p, l, m, k):
        return p.number(math.nan) if (l, m, k) == (1, 1, 0) else upper(p, l, m, k)

    def nan_in_x0(p, lmax):
        x = build(p, lmax)
        x[0].blocks[(2, 1)][2] = p.number(math.nan)
        return x

    monkeypatch.setattr(irrep, "position_coeff_upper", nan_at_one_entry)
    monkeypatch.setattr(irrep, "build_position", nan_in_x0)
    rows = {c.name: c for c in verify_algebra(QParam(1.3, precision), 6).checks}
    for name in (
        "unit-sphere-norm", "position-exchange-dilation", "transverse-dual-construction", "position-product-expansion"
    ):
        assert math.isnan(rows[name].residual) and rows[name].passed is False, name


def test_nan_operator_entry_fails_its_rows(monkeypatch):
    _nan_operator_entry_fails_its_rows(monkeypatch, "double")


def test_nan_operator_entry_fails_its_rows_in_high_precision(monkeypatch):
    # a Decimal NaN, which the private context lets through as floats do:
    # it fails its rows rather than raising
    _nan_operator_entry_fails_its_rows(monkeypatch, "high")


NAN_SOURCES = [
    ("hypergeom_phi", (3, 1), {"harmonic-recursion-vs-closed-form"}),
    ("build_y", (2, 1), {
        "harmonic-orthonormality", "harmonic-casimir", "position-product-expansion", "position-right-commutation",
    }),
    ("build_phi", (4, 2), {"harmonic-recursion-vs-closed-form", "harmonic-ladder-step"}),
]


@pytest.mark.parametrize("source, label, consumers, precision", [
    pytest.param(*case, precision, id=case[0] if precision == "double" else f"{case[0]}-high")
    for precision in ("double", "high") for case in NAN_SOURCES
])
def test_nan_harmonic_coefficient_fails_its_rows(monkeypatch, source, label, consumers, precision):
    import qsu2.irrep as irrep

    build = getattr(irrep, source)

    def nan_in_one_coefficient(l, m, p):
        f = build(l, m, p)
        if (l, m) != label:
            return f
        return AngularFunction(p, m, {**f.coeffs, max(f.coeffs): p.number(math.nan)})

    monkeypatch.setattr(irrep, source, nan_in_one_coefficient)
    rep = verify_algebra(QParam(1.3, precision), 6)
    failed = {c.name for c in rep.checks if c.passed is False}
    assert failed == consumers
    assert all(math.isnan(c.residual) for c in rep.checks if c.name in consumers)
    assert not rep.passed and math.isnan(rep.max_residual)


def test_operator_sum_needs_equal_m_shift():
    x = build_position(QParam(1.2), 3)
    with pytest.raises(ValueError):
        x[1] + x[0]
    with pytest.raises(ValueError):
        x[1] - x[-1]


@pytest.mark.parametrize("precision, lmax", [("double", 6), ("high", 4)])
def test_distance_equals_max_abs_of_difference(monkeypatch, precision, lmax):
    # every (lhs, rhs) pair the catalogue compares, checked against the
    # difference operator it no longer forms
    distance = OperatorMatrix.distance
    seen = []

    def checked(a, b):
        d = distance(a, b)
        ref = (a - b).max_abs()
        assert type(d) is float and d.hex() == ref.hex()
        seen.append(d)
        return d

    monkeypatch.setattr(OperatorMatrix, "distance", checked)
    for q in (0.5, 1.3):
        before = len(seen)
        verify_algebra(QParam(q, precision), lmax)
        assert len(seen) - before >= 40


def test_distance_edge_cases():
    for p in (QParam(1.3), QParam(1.3, "high")):
        one, nan = p.one, p.number(math.nan)
        a = OperatorMatrix(p, 3, 0, {(0, 0): [one / 4], (1, 1): [one, -2 * one, one / 2]})
        b = OperatorMatrix(p, 3, 0, {(0, 0): [one], (2, 2): [3 * one] * 5})
        # a block missing on either side counts as zero
        assert a.distance(b) == 3.0 and b.distance(a) == 3.0
        assert a.truncated(1).distance(b.truncated(1)) == 2.0 and b.truncated(1).distance(a.truncated(1)) == 2.0
        assert a.truncated(0).distance(b.truncated(0)) == 0.75
        assert OperatorMatrix(p, 3, 0).distance(OperatorMatrix(p, 3, 0)) == 0.0
        # a NaN on either side, inside the basis, makes the distance NaN
        c = OperatorMatrix(p, 3, 0, {(0, 0): [one], (2, 2): [one, nan, one, one, one]})
        assert math.isnan(c.distance(b)) and math.isnan(b.distance(c))
        assert math.isnan(c.distance(OperatorMatrix(p, 3, 0)))
        assert c.truncated(1).distance(b.truncated(1)) == 0.0
        for other in (
            OperatorMatrix(QParam(0.7, p.precision), 3, 0),
            OperatorMatrix(QParam(1.3, "double" if p.is_high else "high"), 3, 0),
            OperatorMatrix(p, 4, 0),
            OperatorMatrix(p, 3, 1),
        ):
            with pytest.raises(ValueError):
                a.distance(other)
            with pytest.raises(ValueError):
                other.distance(a)


def _composed_commutator(D, A, s=None, right=None):
    """(D @ A - s (A @ D)) @ right out of full products, a scaled copy and a
    difference: the form the commutator kernel replaces."""
    ad = A @ D
    out = D @ A - (ad if s is None else ad.scaled(s))
    return out if right is None else out @ right


def _same_entry(u, v) -> bool:
    """Equal values (a signed zero equals its opposite), or NaN on both sides."""
    return u == v or u != u and v != v


@pytest.mark.parametrize("precision", ["double", "high"])
@pytest.mark.parametrize("q", [0.5, 1.0, 1.3])
def test_commutator_kernel_matches_the_composed_form(precision, q):
    p = QParam(q, precision)
    gen = build_generators(p, 4)
    lam = build_lambda(gen)
    c, x = build_invariant_c(lam), build_position(p, 4)
    ql0 = diag_operator(p, 4, lambda l, m: p.power(m))
    nan_x = OperatorMatrix(p, 4, 1, {key: list(vec) for key, vec in x[1].blocks.items()})
    nan_x.blocks[(2, 1)][1] = p.number(math.nan)
    # l-changing operands (x, a product of two of them, a NaN entry),
    # l-diagonal ones (Lambda, the ladders), and as the diagonal factor the
    # ladders, whose (0, 0) block is missing
    operands = [*x.values(), x[1] @ x[0], nan_x, *lam.values(), gen["Lplus"], gen["Lminus"]]
    for D in (gen["L0"], gen["Lplus"], gen["Lminus"], c):
        for A in operands:
            for s in (None, p.power(1), -p.power(-2)):
                for right in (None, ql0):
                    kernel, composed = D._commutator(A, s, right), _composed_commutator(D, A, s, right)
                    assert kernel.delta_m == composed.delta_m and kernel.blocks.keys() == composed.blocks.keys()
                    for key, vec in kernel.blocks.items():
                        assert all(map(_same_entry, vec, composed.blocks[key])), key
                        # every nonzero entry bitwise, NaN where the composed form has it
                        assert [repr(u) for u in vec if u != 0] == [repr(v) for v in composed.blocks[key] if v != 0]
    kernel = gen["L0"]._commutator(nan_x)
    assert math.isnan(kernel.max_abs()) and math.isnan(kernel.distance(_composed_commutator(gen["L0"], x[1])))


def test_commutator_kernel_refuses_an_l_changing_factor():
    p = QParam(1.3)
    gen, x = build_generators(p, 4), build_position(p, 4)
    with pytest.raises(ValueError, match="must be l-diagonal"):
        x[0]._commutator(gen["L0"])
    with pytest.raises(ValueError, match="must be l-diagonal"):
        gen["Lplus"]._commutator(x[1], p.q, x[0])
    with pytest.raises(ValueError, match="must not shift m"):
        gen["Lplus"]._commutator(x[1], p.q, gen["Lminus"])
    with pytest.raises(ValueError, match="cannot combine operators"):
        gen["L0"]._commutator(build_position(p, 3)[1])
