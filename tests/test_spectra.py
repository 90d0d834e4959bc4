import dataclasses
import hashlib
import math
import random
import re

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsu2 import (
    COULOMB,
    OSCILLATOR,
    QParam,
    RadialGrid,
    centrifugal_rhs,
    coulomb_energy,
    degeneracy_report,
    multipole_report,
    oscillator_energy,
    radial_verify,
    solve_l,
    spectrum_table,
)
from qsu2.spectra import _potential_table, _root_l, _shoot, _shoot_pair

qvals = st.one_of(
    st.just(1.0),
    st.floats(min_value=0.4, max_value=2.5).filter(lambda q: abs(q - 1) > 1e-3),
)


def _oracle_L(l, q):
    """Independent high-precision evaluation of the effective angular number."""
    with mpmath.workdps(50):
        qm = mpmath.mpf(q)
        lam = qm - 1 / qm
        two = (qm ** 2 - qm ** -2) / lam
        if l == 0:
            return mpmath.mpf(0)
        cp = ((qm ** (2 * l) - qm ** (-2 * l)) / lam) * ((qm ** (2 * l + 2) - qm ** (-2 * l - 2)) / lam) / two ** 2
        c = (qm ** (2 * l + 1) + qm ** (-2 * l - 1)) / two
        rhs = cp + c * c - c
        return (-1 + mpmath.sqrt(1 + 4 * rhs)) / 2


def test_solve_l_zero_is_exact():
    for q in (0.5, 0.8, 1.2, 2.0, 3.7):
        assert solve_l(0, QParam(q)) == 0.0


def test_solve_l_classical():
    p = QParam(1.0)
    for l in range(7):
        assert solve_l(l, p) == float(l)


def test_solve_l_oracle_value():
    # rhs at (l=1, q=2) is exactly 4.25 + 3.25^2 - 3.25 = 11.5625
    p = QParam(2.0)
    assert centrifugal_rhs(1, p) == pytest.approx(11.5625, abs=1e-12)
    got = solve_l(1, p)
    want = float(_oracle_L(1, 2.0))
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(2.93693177121688, abs=1e-11)


def test_solve_l_refuses_a_negative_right_side():
    # the right side is nonnegative for every q > 0 and l >= 0; a negative
    # one has no real root L
    with pytest.raises(ArithmeticError, match=re.escape("came out negative (-1.0) at l=1, q=1.3")):
        _root_l(-1.0, 1, QParam(1.3))


@given(l=st.integers(0, 6), q=qvals)
def test_solve_l_q_inverse_symmetry(l, q):
    p = QParam(q)
    a, b = solve_l(l, p), solve_l(l, p.reciprocal())
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_coulomb_classical():
    p = QParam(1.0)
    for n in range(3):
        for l in range(3):
            e = coulomb_energy(n, l, p)
            assert e.E == -1 / (2 * (n + l + 1) ** 2)


def test_oscillator_classical():
    p = QParam(1.0)
    for n in range(3):
        for l in range(3):
            e = oscillator_energy(n, l, p)
            assert e.E == 2 * n + l + 1.5


def test_closed_form_oracle_values():
    p = QParam(2.0)
    L = float(_oracle_L(1, 2.0))
    assert coulomb_energy(0, 1, p).E == pytest.approx(-1 / (2 * (1 + L) ** 2), abs=1e-12)
    assert oscillator_energy(1, 1, p).E == pytest.approx(2 + L + 1.5, abs=1e-11)


def test_l0_levels_bitwise_q_independent():
    qs = (0.5, 0.8, 1.2, 2.0)
    for maker in (coulomb_energy, oscillator_energy):
        rows = [[(maker(n, 0, QParam(q)).L, maker(n, 0, QParam(q)).E) for n in range(4)] for q in qs]
        for other in rows[1:]:
            assert other == rows[0]


def test_energy_monotone_in_n():
    for q in (0.7, 1.3):
        p = QParam(q)
        for l in range(3):
            ec = [coulomb_energy(n, l, p).E for n in range(6)]
            eo = [oscillator_energy(n, l, p).E for n in range(6)]
            assert ec == sorted(ec) and all(e < 0 for e in ec)
            assert eo == sorted(eo) and all(e > 0 for e in eo)
            assert ec[-1] > -0.05  # accumulating at zero from below


def test_entry_invariants():
    p = QParam(1.6)
    e = oscillator_energy(2, 3, p)
    assert e.L >= 0
    assert abs(e.L * (e.L + 1) - centrifugal_rhs(3, p)) < 1e-12 * max(1.0, centrifugal_rhs(3, p))
    with pytest.raises(ValueError):
        coulomb_energy(-1, 0, p)
    with pytest.raises(ValueError):
        spectrum_table("yukawa", p, 1, 1)


def test_spectrum_table_refuses_a_negative_size():
    # both calls returned [], so the unknown potential went unseen too
    p = QParam(1.0)
    with pytest.raises(ValueError, match="lmax must be nonnegative, got -3"):
        spectrum_table("coulomb", p, 2, -3)
    with pytest.raises(ValueError, match="nmax must be nonnegative, got -1"):
        spectrum_table("yukawa", p, -1, 2)
    # the smallest table holds one level, so an unknown potential is refused
    with pytest.raises(ValueError, match="unknown potential 'yukawa'"):
        spectrum_table("yukawa", p, 0, 0)
    assert [(e.n, e.l) for e in spectrum_table("coulomb", p, 0, 0)] == [(0, 0)]


# ----------------------------- shooting -----------------------------

def test_shooting_hydrogen_ground_state():
    rep = radial_verify(COULOMB, 0, 0, QParam(1.0))
    assert rep.converged
    assert abs(rep.e_numeric - (-0.5)) < 1e-6
    assert rep.abs_err < 1e-6
    assert rep.nodes_found == 0


def test_shooting_oscillator_grid():
    p = QParam(1.3)
    for n in range(2):
        for l in range(3):
            rep = radial_verify(OSCILLATOR, n, l, p)
            assert rep.converged, rep.message
            assert rep.abs_err < 1e-6, (n, l, rep.abs_err)


def test_shooting_coulomb_excited():
    rep = radial_verify(COULOMB, 1, 1, QParam(1.3))
    assert rep.converged
    assert rep.abs_err < 1e-6
    assert rep.nodes_found == 1


def test_shooting_origin_exponent():
    rep = radial_verify(OSCILLATOR, 0, 2, QParam(1.3))
    assert rep.converged
    # the reduced solution rises like r**(L+1) out of the origin
    assert rep.origin_exponent == pytest.approx(rep.L + 1, abs=0.4)


def test_shooting_rk4_route():
    # L is about 21 and 232 at the last two levels: RK4 shares the
    # logarithmic grid, and its start derivative comes from the series
    for n, l, q in ((1, 1, 1.3), (0, 3, 0.6), (0, 3, 0.4)):
        rep = radial_verify(OSCILLATOR, n, l, QParam(q), grid=RadialGrid(method="rk4"))
        assert rep.converged
        assert rep.abs_err < 1e-6
        # the origin fit comes from the RK4 stepper itself
        assert rep.origin_exponent == pytest.approx(rep.L + 1, abs=0.4)


def test_shooting_grid_validation():
    # at q = 5 the l = 8 oscillator level has L of about 1.5e11: the start
    # radius 1e-4 (L+1) lies beyond the outer radius the energy sets
    with pytest.raises(ValueError, match="r_min=1.49869e[+]07 is not below r_max=547490"):
        radial_verify(OSCILLATOR, 0, 8, QParam(5.0))
    with pytest.raises(ValueError):
        RadialGrid(method="euler")
    with pytest.raises(ValueError):
        radial_verify("yukawa", 0, 0, QParam(1.0))


def test_shooting_rejects_grids_too_short():
    # five steps cannot hold the origin-fit points, and a negative count is
    # no grid
    with pytest.raises(ValueError, match="at least 8 steps"):
        RadialGrid(n_steps=5)
    with pytest.raises(ValueError, match="grid parameters must be nonnegative"):
        RadialGrid(n_steps=-1)
    # L is about 107: a hundred steps break the bound on (L+1/2) h
    with pytest.raises(ValueError) as err:
        radial_verify(OSCILLATOR, 0, 4, QParam(1.8), RadialGrid(n_steps=100))
    assert "L=107.1" in str(err.value)


def test_shooting_large_effective_angular_number():
    # far from q = 1 the effective angular number explodes (about 107 for
    # the oscillator case below, about 59, 21 and 7 for the Coulomb ones);
    # levels then crowd within a few percent of each other and the
    # centrifugal wall dominates near the origin, so this exercises
    # node-count bracketing among close neighbours and the Langer term of
    # the logarithmic grid together
    rep = radial_verify(OSCILLATOR, 0, 4, QParam(1.8))
    assert rep.converged and rep.abs_err < 1e-6 and rep.nodes_found == 0
    assert rep.L > 100
    assert rep.origin_exponent == pytest.approx(rep.L + 1, abs=0.4)
    rep = radial_verify(COULOMB, 0, 3, QParam(0.6))
    assert rep.converged and rep.abs_err < 1e-6 and rep.nodes_found == 0
    assert rep.origin_exponent == pytest.approx(rep.L + 1, abs=0.4)
    rep = radial_verify(COULOMB, 1, 2, QParam(0.6))
    assert rep.converged and rep.abs_err < 1e-6 and rep.nodes_found == 1
    assert rep.origin_exponent == pytest.approx(rep.L + 1, abs=0.4)
    rep = radial_verify(COULOMB, 2, 3, QParam(0.6))
    assert rep.converged and rep.abs_err < 1e-6 and rep.nodes_found == 2
    assert rep.origin_exponent == pytest.approx(rep.L + 1, abs=0.4)
    rep = radial_verify(COULOMB, 2, 4, QParam(0.6))
    assert rep.converged and rep.abs_err < 1e-6 and rep.nodes_found == 2
    assert rep.origin_exponent == pytest.approx(rep.L + 1, abs=0.4)


def test_shooting_huge_effective_angular_numbers():
    # at q = 0.4 and 2.5, L is about 232 at l = 3 and 1456 at l = 4, where
    # the start radius exceeds 1 and r_min**(L+1) alone would overflow; the
    # origin fit must still find L+1 there
    for q in (0.4, 2.5):
        for potential in (COULOMB, OSCILLATOR):
            for l in range(5):
                rep = radial_verify(potential, 0, l, QParam(q))
                assert rep.converged and rep.nodes_found == 0, (q, potential, l, rep.message)
                assert rep.abs_err < 1e-6, (q, potential, l, rep.abs_err)
                assert rep.origin_exponent == pytest.approx(rep.L + 1, abs=0.4), (q, potential, l)
                assert rep.message == ""


def test_shooting_refuses_grids_above_the_step_budget(monkeypatch):
    import qsu2.spectra as spectra

    # the Langer bound asks for 218M steps at L of about 2.2e6 and 9e16 at
    # 5.2e14; both are refused before a table is built, as is a user grid
    # above the budget
    def no_tables(*args):
        raise AssertionError("grid tables built for a refused grid")

    monkeypatch.setattr(spectra, "_potential_table", no_tables)
    cases = (
        (8, 0.4, RadialGrid(), "L=2.22311e+06 ", 218024269),
        (64, 1.3, RadialGrid(), "L=5.15079e+14 ", 9.0198e16),
        (1, 1.0, RadialGrid(n_steps=spectra.MAX_STEPS + 1), "L=1 ", spectra.MAX_STEPS + 1),
    )
    for l, q, grid, L, steps in cases:
        with pytest.raises(ValueError) as err:
            radial_verify(COULOMB, 0, l, QParam(q), grid)
        assert L in str(err.value)
        assert int(re.search(r" (\d+) steps", str(err.value)).group(1)) == pytest.approx(steps, rel=1e-4)


def test_shooting_centrifugal_free_at_l0():
    # the l = 0 equation carries no centrifugal term: L(L+1) is exactly 0
    rep = radial_verify(COULOMB, 0, 0, QParam(1.8))
    assert rep.L == 0.0
    assert rep.converged
    assert abs(rep.e_numeric - (-0.5)) < 1e-6


# ----------------------------- degeneracy and moments -----------------------------

def test_degeneracy_classical_oscillator():
    rep = degeneracy_report(OSCILLATOR, QParam(1.0), 2, 2)
    shell2 = next(s for s in rep.shells if s["shell"] == 2)
    assert shell2["degenerate"]
    assert set(shell2["members"]) == {(1, 0), (0, 2)}
    group = next(g for g in rep.groups if abs(g["energy"] - 3.5) < 1e-12)
    assert set(group["members"]) == {(1, 0), (0, 2)}
    assert rep.accidental_present


def test_degeneracy_classical_coulomb():
    rep = degeneracy_report(COULOMB, QParam(1.0), 2, 2)
    shell1 = next(s for s in rep.shells if s["shell"] == 1)
    assert shell1["degenerate"]
    assert set(shell1["members"]) == {(1, 0), (0, 1)}
    assert rep.accidental_present


def test_degeneracy_split_oscillator():
    p = QParam(1.2)
    rep = degeneracy_report(OSCILLATOR, p, 2, 2)
    shell2 = next(s for s in rep.shells if s["shell"] == 2)
    assert not shell2["degenerate"]
    # the l = 0 member stays at its classical energy exactly
    assert oscillator_energy(1, 0, p).E == 3.5
    assert oscillator_energy(0, 2, p).E == pytest.approx(solve_l(2, p) + 1.5, abs=1e-12)
    assert oscillator_energy(0, 2, p).E != 3.5


def test_degeneracy_split_coulomb():
    p = QParam(1.2)
    rep = degeneracy_report(COULOMB, p, 2, 2)
    shell1 = next(s for s in rep.shells if s["shell"] == 1)
    assert not shell1["degenerate"]
    assert coulomb_energy(1, 0, p).E == -0.125
    assert coulomb_energy(0, 1, p).E != -0.125


def test_degeneracy_report_validation():
    with pytest.raises(ValueError):
        degeneracy_report(OSCILLATOR, QParam(1.0), 0, 2)
    # the integer rule comes before the range check, which a string or
    # None would meet with a bare TypeError
    for bad in ("2", None, 2.5, True):
        with pytest.raises(ValueError, match=re.escape(f"nmax must be an integer, got {bad!r}")):
            degeneracy_report(COULOMB, QParam(1.0), bad, 2)
        with pytest.raises(ValueError, match=re.escape(f"lmax must be an integer, got {bad!r}")):
            degeneracy_report(COULOMB, QParam(1.0), 2, bad)


def test_multipole_report():
    rep = multipole_report(QParam(1.0))
    assert rep.x0_sq_expectation == pytest.approx(1 / 3, abs=1e-15)
    assert rep.quadrupole_deviation == pytest.approx(0.0, abs=1e-15)
    assert not rep.higher_even_poles_nonzero

    rep5 = multipole_report(QParam(0.5))
    assert rep5.x0_sq_expectation == pytest.approx(1 / 5.25, rel=1e-14)
    assert rep5.higher_even_poles_nonzero

    rep2 = multipole_report(QParam(2.0))
    assert rep2.x0_sq_expectation == pytest.approx(rep5.x0_sq_expectation, rel=1e-14)


def test_shoot_reads_only_the_walked_prefix():
    # the outward walk of n steps reads n + 1 table entries (2 n + 1 for
    # RK4): shooting on those alone gives the same bits as on the full tables
    from qsu2.spectra import _potential_table, _shoot

    for potential, L, E in ((COULOMB, 1.7, -0.12), (OSCILLATOR, 2.3, 4.1)):
        r_min, n_steps = 1e-4 * (L + 1), 400
        h = math.log(12.0 / r_min) / n_steps
        for method in ("numerov", "rk4"):
            full = _potential_table(potential, L, r_min, h, n_steps, method)
            assert all(len(t) == (n_steps + 1 if method == "numerov" else 2 * n_steps + 1) for t in full)
            for steps in (4, 8, 57, n_steps):
                used = steps + 1 if method == "numerov" else 2 * steps + 1
                prefix = tuple(t[:used] for t in full)
                assert _shoot(potential, L, E, full, r_min, h, steps, method) == _shoot(
                    potential, L, E, prefix, r_min, h, steps, method
                ), (potential, method, steps)


# The two steppers as they were written before the z-form and the transfer
# matrix: Numerov on u with three products and a division per step, RK4 in
# four explicit stages.  Both read the unscaled parts g0 = (L+1/2)**2 +
# 2 r**2 V(r) and r**2 of F = g0 - 2 E r**2 from _raw_table.

def _raw_table(potential, L, r_min, h, count):
    a2 = (L + 0.5) ** 2
    r = [r_min * math.exp(i * h) for i in range(count)]
    r2 = [x * x for x in r]
    if potential == COULOMB:
        return [a2 - 2.0 * x for x in r], r2
    return [a2 + x * x for x in r2], r2


def _series_start(potential, L, E, r_min, h, i):
    nu = L + 0.5
    k, ck = (1, -1.0 / (L + 1)) if potential == COULOMB else (2, -E / (2 * L + 3))
    t, crk = math.exp(nu * i * h), ck * (r_min * math.exp(i * h)) ** k
    return t * (1 + crk), t * (nu * (1 + crk) + k * crk)


def _u_form_numerov(potential, L, E, g0, r2, r_min, h, n_steps):
    f = [g - 2.0 * E * s for g, s in zip(g0[:n_steps + 1], r2)]
    v0, _ = _series_start(potential, L, E, r_min, h, 0)
    v1, _ = _series_start(potential, L, E, r_min, h, 1)
    c, nodes = h * h / 12.0, 0
    fm, f0 = f[0], f[1]
    for fp in f[2:n_steps + 1]:
        v2 = (2.0 * (1.0 + 5.0 * c * f0) * v1 - (1.0 - c * fm) * v0) / (1.0 - c * fp)
        if v2 * v1 < 0.0:
            nodes += 1
        if abs(v2) > 1e250:
            v1 *= 1e-200
            v2 *= 1e-200
        v0, v1 = v1, v2
        fm, f0 = f0, fp
    return nodes, v1


def _staged_rk4(potential, L, E, g0, r2, r_min, h, n_steps):
    f = [g - 2.0 * E * s for g, s in zip(g0[:2 * n_steps + 1], r2)]
    v1, w = _series_start(potential, L, E, r_min, h, 1)
    nodes, f_lo = 0, f[2]
    for f_mid, f_hi in zip(f[3:2 * n_steps:2], f[4:2 * n_steps + 1:2]):
        k1v, k1w = w, f_lo * v1
        k2v, k2w = w + h / 2 * k1w, f_mid * (v1 + h / 2 * k1v)
        k3v, k3w = w + h / 2 * k2w, f_mid * (v1 + h / 2 * k2v)
        k4v, k4w = w + h * k3w, f_hi * (v1 + h * k3v)
        v2 = v1 + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        w = w + h / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        if v2 * v1 < 0.0:
            nodes += 1
        if abs(v2) > 1e250:
            v2 *= 1e-200
            w *= 1e-200
        v1, f_lo = v2, f_hi
    return nodes, v1


def test_shoot_matches_the_reference_steppers():
    # at an energy midway between the closed-form levels n = 3 and 4 the
    # endpoint is far from a node; the grid keeps (L+1/2) h <= 0.2, and at
    # L = 1456 over 8000 steps the walk rescales several times
    from qsu2.spectra import _potential_table, _shoot

    seen_nodes, rescaled = set(), False
    for potential, E_mid in ((COULOMB, lambda L: -0.5 / (L + 4.5) ** 2), (OSCILLATOR, lambda L: L + 8.5)):
        for L in (0.0, 1.7, 232.0, 1456.0):
            E = E_mid(L)
            r_min = 1e-4 * (L + 1)
            r_end = 200.0 if potential == COULOMB else 8.0
            for n_steps in (400, 8000):
                h = min(math.log(r_end / r_min) / n_steps, 0.2 / (L + 0.5))
                for method, ref, count, spacing in (
                    ("numerov", _u_form_numerov, n_steps + 1, h),
                    ("rk4", _staged_rk4, 2 * n_steps + 1, h / 2),
                ):
                    g0, r2 = _raw_table(potential, L, r_min, spacing, count)
                    want_nodes, want = ref(potential, L, E, g0, r2, r_min, h, n_steps)
                    tables = _potential_table(potential, L, r_min, h, n_steps, method)
                    nodes, got = _shoot(potential, L, E, tables, r_min, h, n_steps, method)
                    case = (potential, L, n_steps, method)
                    assert nodes == want_nodes, case
                    assert abs(got - want) <= 1e-10 * abs(want), (case, got, want)
                    seen_nodes.add(nodes)
                    rescaled |= (L + 0.5) * h * n_steps > 600
    # the cases cover oscillating walks and the rescale path
    assert max(seen_nodes) >= 3 and rescaled


def test_shooting_refuses_a_nonpositive_numerov_weight():
    # on 100 steps the oscillator's h**2 F/12 is about 4.9 at the outer
    # radius r = 8.2, so 1 - h**2 F/12 < 0 and the z-form's signs would not
    # be u's
    with pytest.raises(ValueError, match="h=") as err:
        radial_verify(OSCILLATOR, 0, 0, QParam(1.0), RadialGrid(n_steps=100))
    assert "r=8.23205" in str(err.value)


def test_shoot_counters():
    # every full-grid shoot is counted, and the walked steps add the two
    # origin-fit shoots of 4 and 8 steps
    for grid in (RadialGrid(), RadialGrid(method="rk4")):
        rep = radial_verify(OSCILLATOR, 1, 1, QParam(1.3), grid)
        assert rep.converged
        # the first pair, then any extrapolated pair, widenings,
        # certifying pair and fallback bisections
        assert rep.shoots >= rep.bisections + 2
        assert rep.steps_walked == rep.shoots * rep.grid["n_steps"] + 4 + 8


def _level(case):
    """radial_verify on a (potential, n, l, q, method) case with the default grid."""
    potential, n, l, q, method = case
    return radial_verify(potential, n, l, QParam(q), RadialGrid(method=method))


def test_shooting_budget():
    # criterion 7's levels with both steppers.  A level within 0.45 tol_e of
    # its closed form is certified by the first pair's node counts: two
    # full-grid shoots and the two origin-fit ones.  Any other costs the
    # first pair and a pair around the step extrapolated from it; none
    # bisects
    total = 0
    for method in ("numerov", "rk4"):
        for q in (1.0, 1.3):
            for potential in (COULOMB, OSCILLATOR):
                for n in range(2):
                    for l in range(3):
                        rep = radial_verify(potential, n, l, QParam(q), RadialGrid(method=method))
                        case = (method, q, potential, n, l, rep.shoots)
                        assert rep.converged and rep.nodes_found == n, case
                        assert rep.shoots <= 4, case
                        assert rep.bisections == 0, case
                        tol_e = max(1e-12, 1e-11 * abs(rep.e_closed))
                        if abs(rep.e_numeric - rep.e_closed) <= 0.45 * tol_e:
                            assert rep.shoots == 2, case
                            assert rep.steps_walked == 2 * rep.grid["n_steps"] + 12, case
                        total += rep.shoots
    # a search that starts 4 tol_e out and always shoots the certifying
    # pair takes 192 shoots over these 48 levels
    assert total <= 112, total


def test_shooting_falls_back_when_the_secant_step_misses(monkeypatch):
    import qsu2.spectra as spectra

    # the first three levels lie within 0.45 tol_e of their closed forms,
    # the last three about 0.6 tol_e above, where the first pair misses the
    # step and a second pair is shot around the step it predicts.  An
    # endpoint offset by half its own magnitude moves the secant root off
    # the step by up to half the bracket; the pair still certifies the
    # level and its secant root stays inside it.  Offset by all of it, a
    # negative endpoint reads 0, so the root lands on a bracket end or
    # there is none, and the level is found by bisection on the node
    # count, at least once, at no more than the bisection's shoots plus the
    # missed pairs.  Every full-grid endpoint is offset, whether its shoot
    # walks alone or in a pair
    cases = (
        (OSCILLATOR, 1, 1, 1.3, "numerov"),
        (OSCILLATOR, 1, 1, 1.3, "rk4"),
        (COULOMB, 1, 0, 1.0, "numerov"),
        (COULOMB, 1, 1, 1.3, "numerov"),
        (COULOMB, 1, 1, 1.3, "rk4"),
        (COULOMB, 1, 1, 1.0, "numerov"),
    )

    clean = {case: _level(case) for case in cases}
    shoot, shoot_pair = spectra._shoot, spectra._shoot_pair
    for share in (-0.5, 0.5, 1.0):
        def offset_shoot(*args):
            nodes, end = shoot(*args)
            return nodes, end + share * abs(end)

        def offset_pair(*args):
            return tuple((nodes, end + share * abs(end)) for nodes, end in shoot_pair(*args))

        monkeypatch.setattr(spectra, "_shoot", offset_shoot)
        monkeypatch.setattr(spectra, "_shoot_pair", offset_pair)
        for case, want in clean.items():
            rep = _level(case)
            tol_e = max(1e-12, 1e-11 * abs(rep.e_closed))
            assert rep.converged and rep.nodes_found == case[1], (share, case)
            assert abs(rep.e_numeric - want.e_numeric) <= tol_e, (share, case)
            if share == 1.0:
                assert want.shoots < rep.shoots <= 9, (share, case, want.shoots, rep.shoots)
                assert rep.bisections > 0, (share, case)
            else:
                assert rep.shoots <= 5 and rep.bisections == 0, (share, case, rep.shoots)


def test_shooting_does_not_read_back_the_closed_form(monkeypatch):
    import dataclasses

    import qsu2.spectra as spectra

    # the closed form only sets where the search starts: moved by a few
    # energy tolerances it changes neither the node count nor the level
    # found, and the pair extrapolated from the first one still certifies
    # the level in four shoots, where a bracket widened from the start
    # would need five.  Moved so far that the level lies outside
    # BRACKET_SPAN |E| of it (a Coulomb energy above 0, an oscillator
    # energy at a third), it leaves the level unbracketed, and the report
    # still counts the shoots made
    make_entry = spectra._make_entry

    def move(to):
        """Make radial_verify start from to(E) in place of the closed form E."""
        def moved(*args):
            entry = make_entry(*args)
            return dataclasses.replace(entry, E=to(entry.E))

        monkeypatch.setattr(spectra, "_make_entry", moved)

    cases = ((OSCILLATOR, 1, 1, 1.3, "numerov"), (COULOMB, 1, 1, 1.3, "rk4"))
    for case, want in [(case, _level(case)) for case in cases]:
        n, tol_e = case[1], max(1e-12, 1e-11 * abs(want.e_closed))
        for shift in (-0.3, 3, 60):
            move(lambda e: e + shift * tol_e)
            rep = _level(case)
            assert rep.e_closed == want.e_closed + shift * tol_e, (case, shift)
            assert rep.converged and rep.nodes_found == n and rep.shoots <= 4, (case, shift, rep.shoots)
            assert abs(rep.e_numeric - want.e_numeric) <= 1e-3 * tol_e, (case, shift)
        move(lambda e: -e if case[0] == COULOMB else e / 3)
        rep = _level(case)
        assert abs(rep.e_closed - want.e_numeric) > spectra.BRACKET_SPAN * abs(rep.e_closed), case
        assert not rep.converged and rep.e_numeric is None, (case, rep.shoots)
        assert "no energy within" in rep.message, case
        assert rep.shoots >= 2 and rep.steps_walked == rep.shoots * rep.grid["n_steps"], case


def _report_hash(reports):
    """sha256 over every field of each report, floats by their hex form."""
    def canon(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, dict):
            return "{" + ",".join(f"{k}:{canon(v)}" for k, v in sorted(x.items())) + "}"
        return repr(x)

    digest = hashlib.sha256()
    for rep in reports:
        for f in dataclasses.fields(rep):
            digest.update(f"{f.name}={canon(getattr(rep, f.name))};".encode())
        digest.update(b"\n")
    return digest.hexdigest()


# (potential, n, l, q, method, n_steps): the radial-shooting levels of
# seeds 1 and 7 (4000-step and default grids, RK4, L of about 59), the
# first pair alone and with the extrapolated pair, L of about 232 and 1456
# (grids of 14k to 100k steps that rescale), and grids of 400 and 1000
# steps on which the search widens or bisects
PINNED_LEVELS = (
    (COULOMB, 0, 1, 1.05, "numerov", 4000),
    (COULOMB, 1, 1, 0.95, "numerov", 4000),
    (OSCILLATOR, 0, 1, 0.9268728488224802, "numerov", 0),
    (OSCILLATOR, 1, 2, 1.0694867473874465, "numerov", 0),
    (OSCILLATOR, 2, 3, 1.0527549237953229, "numerov", 0),
    (OSCILLATOR, 1, 1, 0.9268728488224802, "rk4", 0),
    (OSCILLATOR, 0, 1, 0.9647665529666325, "numerov", 0),
    (OSCILLATOR, 1, 2, 0.9301698347849005, "numerov", 0),
    (OSCILLATOR, 2, 3, 1.0301868946079709, "numerov", 0),
    (OSCILLATOR, 1, 1, 0.9647665529666325, "rk4", 0),
    (COULOMB, 2, 4, 0.6, "numerov", 0),
    (OSCILLATOR, 1, 1, 1.3, "rk4", 0),
    (COULOMB, 1, 1, 1.3, "rk4", 0),
    (COULOMB, 1, 0, 1.0, "numerov", 0),
    (OSCILLATOR, 0, 2, 1.3, "numerov", 2000),
    (COULOMB, 0, 4, 2.5, "numerov", 0),
    (OSCILLATOR, 0, 4, 0.4, "numerov", 0),
    (COULOMB, 0, 3, 0.4, "numerov", 0),
    (OSCILLATOR, 0, 3, 0.4, "rk4", 0),
    (COULOMB, 3, 1, 0.6, "numerov", 400),
    (OSCILLATOR, 2, 1, 1.3, "numerov", 400),
    (OSCILLATOR, 2, 3, 0.6, "rk4", 1000),
    (OSCILLATOR, 3, 3, 1.7, "rk4", 1000),
)


def test_radial_reports_pinned_bitwise(monkeypatch):
    import qsu2.spectra as spectra

    # every field of every report, recorded before the first pair and the
    # extrapolated pair were walked in one pass, and re-recorded when every
    # double q-number and power of q came to be its 62-digit value rounded
    # once, which moves L and the levels formed from it; the last two levels
    # start from a closed form moved out of reach and are reported
    # unbracketed
    reports = [
        radial_verify(potential, n, l, QParam(q), RadialGrid(n_steps=n_steps, method=method))
        for potential, n, l, q, method, n_steps in PINNED_LEVELS
    ]
    paths = {(rep.shoots > 4, rep.bisections > 0) for rep in reports}
    assert paths == {(False, False), (True, False), (True, True)}
    assert max(rep.L for rep in reports) > 1455
    make_entry = spectra._make_entry
    for potential, method, to in ((COULOMB, "numerov", lambda e: -e), (OSCILLATOR, "rk4", lambda e: e / 3)):
        monkeypatch.setattr(spectra, "_make_entry", lambda *a: dataclasses.replace(make_entry(*a), E=to(make_entry(*a).E)))
        reports.append(radial_verify(potential, 1, 1, QParam(1.3), RadialGrid(method=method)))
        assert not reports[-1].converged
    assert _report_hash(reports) == "7f209d5ca896678aaea1fc0527602e910107c9dae94ef2b3788c5dea00ec4c9b"


def _bits(result):
    nodes, end = result
    return nodes, end.hex()


def test_shoot_pair_is_two_shoots_bitwise():
    # seeded draws of L, grid and two energies: near a level, far from any
    # (dozens of nodes, and Coulomb energies above 0), walks that rescale,
    # and a NaN energy, which leaves no node and a NaN endpoint
    rng = random.Random(31)
    seen_nodes, rescaled, nans, cases = set(), False, 0, 0
    for _ in range(60):
        potential = rng.choice((COULOMB, OSCILLATOR))
        L = rng.choice((0.0, rng.uniform(0, 5), rng.uniform(50, 300)))
        n_steps = rng.choice((8, 9, 57, 400, 4000))
        r_min = 1e-4 * (L + 1)
        r_end = 60.0 if potential == COULOMB else 12.0
        h = min(math.log(r_end / r_min) / n_steps, 0.25 / (L + 0.5))
        tables = _potential_table(potential, L, r_min, h, n_steps, "numerov")
        if potential == COULOMB:
            level = -0.5 / (L + 1 + rng.randrange(30)) ** 2
            far = rng.choice((rng.uniform(-0.01, 0), rng.uniform(0, 2), math.nan))
        else:
            level = L + 1.5 + 2 * rng.randrange(30)
            far = rng.choice((rng.uniform(50, 150), math.nan))
        tol_e = max(1e-12, 1e-11 * abs(level))
        E1 = level + rng.uniform(-3, 3) * tol_e
        for pair in ((E1, E1 + 0.9 * tol_e), (far, E1), (E1, far)):
            got = _shoot_pair(potential, L, *pair, tables, r_min, h, n_steps)
            want = tuple(_shoot(potential, L, E, tables, r_min, h, n_steps, "numerov") for E in pair)
            assert tuple(map(_bits, got)) == tuple(map(_bits, want)), (potential, L, n_steps, pair)
            for E, (nodes, end) in zip(pair, got):
                seen_nodes.add(nodes)
                if math.isnan(E):
                    assert nodes == 0 and math.isnan(end)
                    nans += 1
            cases += 1
        rescaled |= (L + 0.5) * h * n_steps > 600
    assert cases == 180 and nans > 10 and max(seen_nodes) >= 20 and rescaled


# _potential_table and _shoot's RK4 walk as they were written before the
# table was formed in one pass and the walk read it in place: three list
# comprehensions over a list of r, and a list of p = a - E s walked in
# three slices

def _reference_table(potential, L, r_min, h, n_steps, method):
    if method == "numerov":
        count, spacing, c = n_steps + 1, h, h * h / 12.0
    else:
        count, spacing, c = 2 * n_steps + 1, h / 2, h * h / 6.0
    a2 = (L + 0.5) ** 2
    r = [r_min * math.exp(i * spacing) for i in range(count)]
    if potential == COULOMB:
        a = [c * (a2 - 2.0 * x) for x in r]
    else:
        a = [c * (a2 + (x * x) * (x * x)) for x in r]
    return a, [2.0 * c * (x * x) for x in r]


def _listed_rk4(potential, L, E, tables, r_min, h, n_steps):
    a, s = tables
    p = [g - E * r for g, r in zip(a[:2 * n_steps + 1], s)]
    v, w = _series_start(potential, L, E, r_min, h, 1)
    W, nodes = h * w, 0
    for lo, mid, hi in zip(p[2::2], p[3::2], p[4::2]):
        diag, cross, t = 1.0 + 2.0 * mid, 1.0 + 1.5 * mid, lo + hi
        v, prev, W = ((diag + lo * cross) * v + (1.0 + mid) * W, v,
                      (t + mid * (4.0 + 3.0 * t)) * v + (diag + hi * cross) * W)
        if v * prev < 0.0:
            nodes += 1
        if v > 1e250 or v < -1e250:
            v *= 1e-200
            W *= 1e-200
    return nodes, v


def test_table_and_rk4_walk_are_the_listed_forms_bitwise():
    # seeded draws of L (0, up to 5, 50-300 and about 1456), grid and
    # energy: every entry of both methods' tables is the listed table's,
    # and every RK4 shoot, over the whole grid and over the origin fit's 4
    # and 8 steps, is the listed walk's, near a level, far from any and at
    # a NaN energy
    rng = random.Random(32)
    seen_nodes, rescaled, nans, walks = set(), False, 0, 0
    for _ in range(40):
        potential = rng.choice((COULOMB, OSCILLATOR))
        L = rng.choice((0.0, rng.uniform(0, 5), rng.uniform(50, 300), rng.uniform(1455, 1457)))
        n_steps = rng.choice((8, 9, 57, 400, 4000))
        r_min = 1e-4 * (L + 1)
        r_end = 60.0 if potential == COULOMB else 12.0
        h = min(math.log(r_end / r_min) / n_steps, 0.25 / (L + 0.5))
        for method in ("numerov", "rk4"):
            tables = _potential_table(potential, L, r_min, h, n_steps, method)
            want = _reference_table(potential, L, r_min, h, n_steps, method)
            assert [list(map(float.hex, t)) for t in tables] == [list(map(float.hex, t)) for t in want], (
                potential, L, n_steps, method
            )
        if potential == COULOMB:
            level = -0.5 / (L + 1 + rng.randrange(30)) ** 2
            far = rng.choice((rng.uniform(-0.01, 0), rng.uniform(0, 2), math.nan))
        else:
            level = L + 1.5 + 2 * rng.randrange(30)
            far = rng.choice((rng.uniform(50, 150), math.nan))
        tol_e = max(1e-12, 1e-11 * abs(level))
        for E in (level + rng.uniform(-3, 3) * tol_e, far):
            for steps in sorted({4, 8, n_steps}):
                got = _shoot(potential, L, E, tables, r_min, h, steps, "rk4")
                want = _listed_rk4(potential, L, E, tables, r_min, h, steps)
                assert _bits(got) == _bits(want), (potential, L, n_steps, steps, E)
                seen_nodes.add(got[0])
                if math.isnan(E):
                    assert got[0] == 0 and math.isnan(got[1])
                    nans += 1
                walks += 1
        rescaled |= (L + 0.5) * h * n_steps > 600
    assert walks > 150 and nans > 5 and max(seen_nodes) >= 20 and rescaled


def test_tables_and_rk4_shoots_allocate_no_grid_copies():
    # on the 8000-step level of the radial-shooting round, an RK4 shoot
    # keeps no per-grid list (a list of p and its slices took 0.7 MB), and
    # the tables hold their two floats per point with no list of r beside
    # them (about 65 B per point, against 97 with that list)
    import tracemalloc

    import qsu2.spectra as spectra

    entry = spectra._make_entry(OSCILLATOR, 1, 1, QParam(0.9268728488224802))
    for method in ("rk4", "numerov"):
        r_min, r_max, n_steps = spectra._resolve_grid(OSCILLATOR, entry.L, entry.E, RadialGrid(method=method))
        h = math.log(r_max / r_min) / n_steps
        tracemalloc.start()
        try:
            tables = _potential_table(OSCILLATOR, entry.L, r_min, h, n_steps, method)
            held, table_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _shoot(OSCILLATOR, entry.L, entry.E, tables, r_min, h, n_steps, method)
            shoot_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert n_steps == 8000
        assert table_peak < 70 * len(tables[0]), (method, table_peak)
        if method == "rk4":
            assert shoot_peak < 4096, shoot_peak
