"""Acceptance suite: one test per criterion, each printing a status line.

Run with -s (or look at captured output) to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

from qsu2 import (
    COULOMB,
    OSCILLATOR,
    QMeasure,
    QParam,
    build_y,
    build_phi,
    coulomb_energy,
    degeneracy_report,
    hypergeom_phi,
    inner_product,
    integrate_monomial,
    invariants,
    mul_position,
    oscillator_energy,
    position_coeff_lower,
    position_coeff_upper,
    qnum,
    radial_verify,
    solve_l,
    verify_algebra,
)

Q_GRID = (0.5, 0.9, 1.5)


def _report(number, title, ok):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {title}")
    assert ok, f"criterion {number}: {title}"


def test_criterion_1_classical_limit():
    p = QParam(1.0)
    ok = True
    for l in range(7):
        inv = invariants(l, p)
        ok &= abs(inv.C - l * (l + 1)) <= 1e-12
        ok &= abs(inv.Cprime - l * (l + 1)) <= 1e-12
        ok &= abs(inv.c - 1.0) <= 1e-12
        ok &= abs(solve_l(l, p) - l) <= 1e-12
    for n in range(3):
        for l in range(4):
            ok &= abs(coulomb_energy(n, l, p).E + 1 / (2 * (n + l + 1) ** 2)) <= 1e-12
            ok &= abs(oscillator_energy(n, l, p).E - (2 * n + l + 1.5)) <= 1e-12
    _report(1, "classical limit of invariants and spectra at q = 1", ok)


def test_criterion_2_algebra_identity_suite():
    t0 = time.monotonic()
    ok = True
    for q in Q_GRID:
        rep = verify_algebra(QParam(q), 6, tol=1e-10)
        ok &= rep.passed
        ok &= max(c.residual for c in rep.checks if c.passed is not None) < 1e-10
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    _report(2, f"operator identity suite < 1e-10 at lmax 6 ({elapsed:.2f}s)", ok)


def test_criterion_3_harmonic_equivalence():
    # coefficient tolerance is scaled by the coefficient magnitude, which
    # reaches ~1e5 at q = 0.5 where an absolute 1e-12 would be sub-ulp
    ok = True
    for q in Q_GRID:
        p = QParam(q)
        for l in range(7):
            for m in range(l + 1):
                phi = build_phi(l, m, p)
                d = phi.distance(hypergeom_phi(l, m, p))
                ok &= d < 1e-12 * max(1.0, phi.max_abs())
    _report(3, "recursion and terminating series agree for l <= 6", ok)


def test_criterion_4_orthonormality():
    ok = True
    for q in Q_GRID:
        p = QParam(q)
        mu = QMeasure(p)
        ys = [(l, m, build_y(l, m, p)) for l in range(5) for m in range(-l, l + 1)]
        for i, (l1, m1, y1) in enumerate(ys):
            for l2, m2, y2 in ys[i:]:
                want = 1.0 if (l1, m1) == (l2, m2) else 0.0
                ok &= abs(inner_product(y1, y2, mu) - want) < 1e-9
    _report(4, "Gram matrix of harmonics l <= 4 is the identity to 1e-9", ok)


def test_criterion_5_matrix_element_cross_check():
    ok = True
    for q in Q_GRID:
        p = QParam(q)
        mu = QMeasure(p)
        for l in range(4):
            for m in range(-l, l + 1):
                for k in (1, 0, -1):
                    xf = mul_position(k, build_y(l, m, p))
                    if abs(m + k) <= l + 1:
                        got = inner_product(build_y(l + 1, m + k, p), xf, mu)
                        ok &= abs(got - position_coeff_upper(p, l, m, k)) < 1e-9
                    if l >= 1 and abs(m + k) <= l - 1:
                        got = inner_product(build_y(l - 1, m + k, p), xf, mu)
                        ok &= abs(got - position_coeff_lower(p, l, m, k)) < 1e-9
    _report(5, "integral matrix elements match the coefficient table to 1e-9", ok)


def test_criterion_6_dual_construction_and_resolution():
    from qsu2 import (
        build_generators, build_invariant_c, build_lambda, build_partial, build_partial_elements, build_position,
        scalar_product, transverse_square_candidates,
    )

    ok = True
    consistent = "-([2l][2l+2]/[2]^2 + c_l^2)"
    for q in (0.8, 1.3):
        p = QParam(q)
        x = build_position(p, 6)
        lam = build_lambda(build_generators(p, 6))
        d_a, d_b = build_partial(x, lam, build_invariant_c(lam)), build_partial_elements(x)
        for k in (1, 0, -1):
            ok &= (d_a[k] - d_b[k]).truncated(4).max_abs() < 1e-10
        # the diagonal matches exactly one candidate at every l <= 4
        sq = scalar_product(d_a, d_a)
        matched_sets = []
        for l in range(5):
            cands = transverse_square_candidates(l, p)
            diag = sq.diagonal(l)
            matched = {
                name
                for name, value in cands.items()
                if max(abs(v - value) for v in diag) < 1e-10 * max(1.0, abs(value))
            }
            matched_sets.append(matched)
        common = set.intersection(*matched_sets)
        ok &= common == {consistent}
        # and the verifier writes the same resolution into its report
        rep = verify_algebra(p, 6, tol=1e-10)
        ok &= rep.finding["transverse_square_diagonal"]["resolution"] == consistent
    _report(6, "dual transverse construction agrees; square diagonal resolved uniquely", ok)


def test_criterion_7_spectrum_verification():
    ok = True
    worst = 0.0
    slowest = 0.0
    for q in (1.0, 1.3):
        p = QParam(q)
        for potential in (COULOMB, OSCILLATOR):
            for n in range(2):
                for l in range(3):
                    t0 = time.monotonic()
                    rep = radial_verify(potential, n, l, p)
                    dt = time.monotonic() - t0
                    slowest = max(slowest, dt)
                    ok &= rep.converged and rep.abs_err < 1e-6
                    ok &= dt < 2.0
                    worst = max(worst, rep.abs_err)
    _report(7, f"shooting reproduces closed forms (worst {worst:.1e}, slowest {slowest:.2f}s)", ok)


def test_criterion_8_degeneracy_and_moment_claims():
    ok = True
    # l = 0 spectra bitwise q-independent
    qs = (0.5, 0.8, 1.2, 2.0)
    for maker in (coulomb_energy, oscillator_energy):
        rows = [[(maker(n, 0, QParam(q)).L, maker(n, 0, QParam(q)).E) for n in range(4)] for q in qs]
        ok &= all(r == rows[0] for r in rows[1:])
    # accidental degeneracy present classically, split at q = 1.2
    rep = degeneracy_report(OSCILLATOR, QParam(1.0), 2, 2)
    shell = next(s for s in rep.shells if s["shell"] == 2)
    ok &= shell["degenerate"] and set(shell["members"]) == {(1, 0), (0, 2)}
    rep = degeneracy_report(OSCILLATOR, QParam(1.2), 2, 2)
    ok &= not next(s for s in rep.shells if s["shell"] == 2)["degenerate"]
    rep = degeneracy_report(COULOMB, QParam(1.0), 2, 2)
    ok &= next(s for s in rep.shells if s["shell"] == 1)["degenerate"]
    rep = degeneracy_report(COULOMB, QParam(1.2), 2, 2)
    ok &= not next(s for s in rep.shells if s["shell"] == 1)["degenerate"]
    # second moment of the angle-independent state
    for q, want in ((1.0, 1 / 3), (0.5, 1 / 5.25)):
        p = QParam(q)
        val = integrate_monomial(2, QMeasure(p)) / integrate_monomial(0, QMeasure(p))
        ok &= abs(val - want) < 1e-12
        ok &= abs(val - 1 / qnum(3, p)) < 1e-12
    _report(8, "level splitting and uniform-state moment claims", ok)


def test_criterion_9_q_inverse_symmetry():
    ok = True
    for q in (0.5, 0.8, 1.3, 2.0):
        p = QParam(q)
        r = QParam(q).reciprocal()
        for l in range(7):
            a, b = invariants(l, p), invariants(l, r)
            for u, v in ((a.C, b.C), (a.Cprime, b.Cprime), (a.c, b.c)):
                ok &= abs(u - v) <= 1e-12 * max(1.0, abs(u))
            ok &= abs(solve_l(l, p) - solve_l(l, r)) <= 1e-12 * max(1.0, solve_l(l, p))
        for n in range(3):
            for l in range(4):
                ok &= abs(coulomb_energy(n, l, p).E - coulomb_energy(n, l, r).E) <= 1e-12
                e1, e2 = oscillator_energy(n, l, p).E, oscillator_energy(n, l, r).E
                ok &= abs(e1 - e2) <= 1e-12 * max(1.0, abs(e1))
        for n in range(0, 9):
            a = integrate_monomial(n, QMeasure(p))
            b = integrate_monomial(n, QMeasure(r))
            ok &= abs(a - b) <= 1e-12 * max(1.0, abs(a))
    _report(9, "eigenvalues, invariants and integrals invariant under q -> 1/q", ok)
