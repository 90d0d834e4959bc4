"""Deformed radial spectra: effective angular quantum number, closed-form
energies, and an independent shooting-method verifier.

Units are hbar = mass = 1 with unit Coulomb coupling (V = -1/r) and unit
oscillator stiffness (V = r**2 / 2).  The centrifugal strength is
L(L+1) with L the nonnegative root of

    L(L+1) = [2l][2l+2]/[2]**2 + c_l**2 - c_l,

generally not an integer.  At l = 0 the right side vanishes identically
(c_0 = 1), so l = 0 levels are bitwise independent of q; at q = 1 the root
is exactly L = l and both spectra collapse to their classical forms.

The shooting solver integrates the reduced radial equation outward on a
uniform grid and bisects on the sign of the endpoint value.  It shares
nothing with the closed forms except the energy window, which is widened
on bracketing failure; convergence problems are reported, never silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .qcore import QParam, invariants

COULOMB = "coulomb"
OSCILLATOR = "oscillator"

POTENTIALS = (COULOMB, OSCILLATOR)


@dataclass(frozen=True)
class SpectrumEntry:
    potential: str
    n: int
    l: int
    q: float
    L: float
    E: float


def centrifugal_rhs(l: int, p: QParam):
    """Right side of the quadratic fixing the effective angular number."""
    inv = invariants(l, p)
    return inv.Cprime + inv.c * inv.c - inv.c


def solve_l(l: int, p: QParam):
    """Nonnegative root L of L(L+1) = [2l][2l+2]/[2]**2 + c_l**2 - c_l.

    The right side is nonnegative for every q > 0 and l >= 0 (checked);
    the negative root is excluded by finiteness of the reduced radial
    function at the origin.  Returns exactly 0.0 for l = 0 and exactly l
    at q = 1.  Raises ArithmeticError when L does not fit in a double
    (large l far from q = 1, where c_l**2 overflows).
    """
    rhs = centrifugal_rhs(l, p)
    if rhs < 0:
        raise ArithmeticError(f"centrifugal strength came out negative ({rhs}) at l={l}, q={p.q}")
    L = (-1 + p.sqrt(1 + 4 * rhs)) / 2
    if not math.isfinite(L):
        raise ArithmeticError(f"effective angular number is not finite in double precision at l={l}, q={p.q}")
    return L


def _make_entry(potential: str, n: int, l: int, p: QParam) -> SpectrumEntry:
    if n != int(n) or n < 0 or l != int(l) or l < 0:
        raise ValueError(f"quantum numbers must be nonnegative integers, got n={n!r}, l={l!r}")
    L = solve_l(l, p)
    if potential == COULOMB:
        E = -1 / (2 * (n + L + 1) ** 2)
        signed = float(E) < 0
    elif potential == OSCILLATOR:
        E = 2 * n + L + 1.5
        signed = float(E) > 0
    else:
        raise ValueError(f"unknown potential {potential!r}")
    rhs = centrifugal_rhs(l, p)
    if not (signed and abs(L * (L + 1) - rhs) <= 1e-12 * max(1.0, abs(float(rhs)))):
        raise ArithmeticError(f"{potential} level n={n}, l={l} is out of double range at q={p.q}: L={L}, E={E}")
    return SpectrumEntry(potential=potential, n=int(n), l=int(l), q=float(p.q), L=float(L), E=float(E))


def coulomb_energy(n: int, l: int, p: QParam) -> SpectrumEntry:
    """E = -1/(2 (n + L + 1)**2); independent of q at l = 0."""
    return _make_entry(COULOMB, n, l, p)


def oscillator_energy(n: int, l: int, p: QParam) -> SpectrumEntry:
    """E = 2n + L + 3/2; independent of q at l = 0."""
    return _make_entry(OSCILLATOR, n, l, p)


def spectrum_table(potential: str, p: QParam, nmax: int, lmax: int) -> list:
    """All entries with n <= nmax, l <= lmax, sorted by (l, n)."""
    maker = coulomb_energy if potential == COULOMB else oscillator_energy
    if potential not in POTENTIALS:
        raise ValueError(f"unknown potential {potential!r}")
    return [maker(n, l, p) for l in range(lmax + 1) for n in range(nmax + 1)]


# ----------------------------- shooting verifier -----------------------------

NUMEROV = "numerov"
RK4 = "rk4"


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid configuration for the outward integration.

    r_max = 0 means choose automatically from the closed-form energy scale
    (turning point plus enough decay lengths for the endpoint sign to be
    meaningful).
    """

    r_min: float = 0.0
    r_max: float = 0.0
    n_steps: int = 0
    method: str = NUMEROV

    def __post_init__(self):
        if self.r_min < 0 or self.r_max < 0 or self.n_steps < 0:
            raise ValueError("grid parameters must be nonnegative (0 = choose automatically)")
        if self.r_max and self.r_min >= self.r_max:
            raise ValueError("grid needs r_min < r_max")
        if self.method not in (NUMEROV, RK4):
            raise ValueError(f"unknown stepping method {self.method!r}")


@dataclass(frozen=True)
class RadialReport:
    converged: bool
    potential: str
    n: int
    l: int
    q: float
    L: float
    e_closed: float
    e_numeric: float | None
    abs_err: float | None
    boundary_residual: float | None
    origin_exponent: float | None
    nodes_expected: int
    nodes_found: int | None
    bisections: int
    grid: dict
    message: str = ""


def _resolve_grid(potential: str, L: float, e_closed: float, grid: RadialGrid) -> tuple:
    if potential == COULOMB:
        kappa = math.sqrt(2 * abs(e_closed))
        r_turn = 1 / abs(e_closed)
        r_max = grid.r_max or (r_turn + 16.0 / kappa)
    else:
        r_max = grid.r_max or (math.sqrt(2 * e_closed) + 6.5)
    n_steps = grid.n_steps or max(8000, min(int(260 * r_max), 150000))
    r_min = grid.r_min
    if not r_min:
        # keep h**2 f/12 small at the first step: below this radius the
        # centrifugal wall destabilizes the fixed-step recurrence while the
        # regular solution r**(L+1) is far beneath rounding anyway
        h = r_max / n_steps
        r_min = max(1e-2 if L > 0.5 else 1e-3, 2.0 * h * math.sqrt(max(L * (L + 1), 0.25)))
    return r_min, r_max, n_steps


def _neighbor_clamped_window(potential: str, n: int, L: float, e_closed: float, window: float) -> float:
    """Initial half-width that keeps the neighbouring closed-form levels
    outside the bracket; at large effective angular number the relative
    level spacing shrinks well below 20 percent."""
    if potential == COULOMB:
        gaps = [abs(-1 / (2 * (n + 1 + L + 1) ** 2) - e_closed)]
        if n >= 1:
            gaps.append(abs(-1 / (2 * (n - 1 + L + 1) ** 2) - e_closed))
    else:
        gaps = [2.0]
    rel = min(gaps) / abs(e_closed)
    return min(window, 0.45 * rel)


def _turning_radius(potential: str, L: float, E: float) -> float:
    """Outer classical turning point; node counting stops there because the
    deep forbidden tail can cross zero once from rounding-level admixture
    of the growing solution."""
    ll1 = L * (L + 1)
    if potential == COULOMB:
        disc = max(1.0 - 2.0 * abs(E) * ll1, 0.0)
        return (1.0 + math.sqrt(disc)) / (2.0 * abs(E))
    disc = max(E * E - ll1, 0.0)
    return math.sqrt(E + math.sqrt(disc))


def _shoot(potential: str, L: float, E: float, r_min: float, r_max: float, n_steps: int, method: str):
    """Integrate the reduced equation v'' = f(r) v outward; return the
    endpoint value normalized to the largest magnitude seen, plus the
    node count inside the classically allowed region."""
    h = (r_max - r_min) / n_steps
    ll1 = L * (L + 1)
    node_cut = min(1.05 * _turning_radius(potential, L, E) + 1.0, r_max)
    i_cut = int((node_cut - r_min) / h)
    if potential == COULOMB:
        base = [ll1 / (r_min + i * h) ** 2 - 2.0 / (r_min + i * h) for i in range(n_steps + 1)]
        c1 = -1.0 / (L + 1)
        series = lambda r: r ** (L + 1) * (1 + c1 * r)
    else:
        base = [ll1 / (r_min + i * h) ** 2 + (r_min + i * h) ** 2 for i in range(n_steps + 1)]
        c2 = -E / (2 * L + 3)
        series = lambda r: r ** (L + 1) * (1 + c2 * r * r)
    two_e = 2.0 * E
    v0 = series(r_min)
    v1 = series(r_min + h)
    vmax = max(abs(v0), abs(v1))
    nodes = 0
    if method == NUMEROV:
        c = h * h / 12.0
        fm, f0 = base[0] - two_e, base[1] - two_e
        for i in range(1, n_steps):
            fp = base[i + 1] - two_e
            v2 = (2.0 * (1.0 + 5.0 * c * f0) * v1 - (1.0 - c * fm) * v0) / (1.0 - c * fp)
            if i <= i_cut and v2 * v1 < 0.0:
                nodes += 1
            a = abs(v2)
            if a > vmax:
                vmax = a
            if a > 1e250:
                v1 *= 1e-200
                v2 *= 1e-200
                vmax *= 1e-200
            v0, v1 = v1, v2
            fm, f0 = f0, fp
    else:
        w = (v1 - v0) / h
        v = v1
        r = r_min + h
        for i in range(1, n_steps):
            f_lo = base[i] - two_e
            r_mid = r + h / 2
            if potential == COULOMB:
                f_mid = ll1 / (r_mid * r_mid) - 2.0 / r_mid - two_e
            else:
                f_mid = ll1 / (r_mid * r_mid) + r_mid * r_mid - two_e
            f_hi = base[i + 1] - two_e
            k1v, k1w = w, f_lo * v
            k2v, k2w = w + h / 2 * k1w, f_mid * (v + h / 2 * k1v)
            k3v, k3w = w + h / 2 * k2w, f_mid * (v + h / 2 * k2v)
            k4v, k4w = w + h * k3w, f_hi * (v + h * k3v)
            v_new = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            w = w + h / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
            if i <= i_cut and v_new * v < 0.0:
                nodes += 1
            v = v_new
            a = abs(v)
            if a > vmax:
                vmax = a
            if a > 1e250:
                v *= 1e-200
                w *= 1e-200
                vmax *= 1e-200
            r += h
        v1 = v
    return v1 / vmax, nodes


def _origin_exponent(potential: str, L: float, E: float, r_min: float, r_max: float, n_steps: int, method: str) -> float:
    """Fitted power of the reduced solution near the origin (expected L+1).

    Measured at two early grid radii where the leading power dominates; the
    fit is over integrated values, not the seeded start."""
    h = (r_max - r_min) / n_steps
    i1, i2 = max(4, n_steps // 400), max(8, n_steps // 200)
    ll1 = L * (L + 1)
    if potential == COULOMB:
        f = lambda r: ll1 / (r * r) - 2.0 / r - 2 * E
        c1 = -1.0 / (L + 1)
        series = lambda r: r ** (L + 1) * (1 + c1 * r)
    else:
        f = lambda r: ll1 / (r * r) + r * r - 2 * E
        c2 = -E / (2 * L + 3)
        series = lambda r: r ** (L + 1) * (1 + c2 * r * r)
    c = h * h / 12.0
    v0, v1 = series(r_min), series(r_min + h)
    vals = {0: v0, 1: v1}
    for i in range(1, i2 + 1):
        r0, r1p, r2 = r_min + (i - 1) * h, r_min + i * h, r_min + (i + 1) * h
        v2 = (2.0 * (1.0 + 5.0 * c * f(r1p)) * v1 - (1.0 - c * f(r0)) * v0) / (1.0 - c * f(r2))
        vals[i + 1] = v2
        v0, v1 = v1, v2
    ra, rb = r_min + i1 * h, r_min + i2 * h
    return math.log(abs(vals[i2] / vals[i1])) / math.log(rb / ra)


def radial_verify(
    potential: str,
    n: int,
    l: int,
    p: QParam,
    grid: RadialGrid = RadialGrid(),
    window: float = 0.2,
    widen_attempts: int = 4,
    max_bisections: int = 200,
) -> RadialReport:
    """Solve the radial eigenproblem by shooting and compare with the
    closed form.

    The bisection window starts at the closed-form energy +/- window and
    adapts on failure: it widens geometrically when it fails to bracket a
    sign change, and tightens when bisection converges onto a neighbouring
    level (detected by the radial node count; neighbours crowd into a 20%
    window when the effective angular number is large).  All remaining
    failure modes are reported in the result, never silently.
    """
    if potential not in POTENTIALS:
        raise ValueError(f"unknown potential {potential!r}")
    entry = _make_entry(potential, n, l, p)
    L, e_closed = entry.L, entry.E
    r_min, r_max, n_steps = _resolve_grid(potential, L, e_closed, grid)
    grid_meta = {
        "r_min": r_min, "r_max": r_max, "n_steps": n_steps, "method": grid.method,
    }

    def endpoint(E):
        return _shoot(potential, L, E, r_min, r_max, n_steps, grid.method)

    def fail(bisections, message, e_numeric=None):
        return RadialReport(
            converged=False, potential=potential, n=n, l=l, q=float(p.q), L=L,
            e_closed=e_closed, e_numeric=e_numeric, abs_err=None,
            boundary_residual=None, origin_exponent=None, nodes_expected=n,
            nodes_found=None, bisections=bisections, grid=grid_meta, message=message,
        )

    width = _neighbor_clamped_window(potential, n, L, e_closed, window)
    widenings = 0
    tightenings = 0
    tol_e = max(1e-12, 1e-11 * abs(e_closed))
    e_num = None
    nodes_found = None
    it = 0
    while True:
        cand_lo, cand_hi = e_closed * (1 + width), e_closed * (1 - width)
        if cand_lo > cand_hi:
            cand_lo, cand_hi = cand_hi, cand_lo
        if potential == OSCILLATOR:
            cand_lo = max(cand_lo, 1e-6)
        s_lo, _ = endpoint(cand_lo)
        s_hi, _ = endpoint(cand_hi)
        if s_lo != 0.0 and s_hi != 0.0 and s_lo * s_hi > 0:
            widenings += 1
            if widenings > widen_attempts:
                return fail(
                    it,
                    f"energy window around {e_closed:.6g} failed to bracket a sign change "
                    f"after {widenings} widenings",
                )
            width *= 1.6
            continue
        lo, hi = cand_lo, cand_hi
        while hi - lo > tol_e:
            it += 1
            if it > max_bisections:
                return fail(
                    it,
                    f"bisection did not reach {tol_e:.1e} within {max_bisections} iterations",
                    e_numeric=0.5 * (lo + hi),
                )
            mid = 0.5 * (lo + hi)
            s_mid, _ = endpoint(mid)
            if s_mid == 0.0:
                lo = hi = mid
                break
            if s_lo * s_mid < 0:
                hi = mid
            else:
                lo, s_lo = mid, s_mid
        e_num = 0.5 * (lo + hi)
        boundary, _ = endpoint(e_num)
        # the node count is deterministic just below the eigenvalue; at the
        # midpoint it flips with the side bisection happened to land on
        _, nodes_found = endpoint(e_num - 2 * tol_e)
        if nodes_found == n:
            break
        tightenings += 1
        if tightenings > widen_attempts:
            return fail(
                it,
                f"bisection kept landing on a level with {nodes_found} radial nodes, "
                f"expected {n}, after {tightenings} window tightenings",
                e_numeric=e_num,
            )
        width *= 0.5

    exponent = _origin_exponent(potential, L, e_num, r_min, r_max, n_steps, grid.method)
    return RadialReport(
        converged=True, potential=potential, n=n, l=l, q=float(p.q), L=L,
        e_closed=e_closed, e_numeric=e_num, abs_err=abs(e_num - e_closed),
        boundary_residual=abs(boundary), origin_exponent=exponent,
        nodes_expected=n, nodes_found=nodes_found, bisections=it, grid=grid_meta,
        message="",
    )


# ----------------------------- degeneracy and moments -----------------------------

@dataclass(frozen=True)
class DegeneracyReport:
    potential: str
    q: float
    groups: tuple
    shells: tuple
    accidental_present: bool
    m_degeneracy: str = "each (n, l) level carries 2l+1 magnetic states by construction"


def degeneracy_report(potential: str, p: QParam, nmax: int, lmax: int, tol: float = 1e-9) -> DegeneracyReport:
    """Group levels by energy and track the classical shells.

    At q = 1 the classical multiplets (equal n+l for the Coulomb case,
    equal 2n+l for the oscillator) are degenerate; away from q = 1 each
    former multiplet splits while the magnetic degeneracy survives.
    """
    if nmax < 1 or lmax < 1:
        raise ValueError("degeneracy report needs nmax >= 1 and lmax >= 1")
    entries = spectrum_table(potential, p, nmax, lmax)
    by_energy: list[list] = []
    for e in sorted(entries, key=lambda s: s.E):
        if by_energy and abs(e.E - by_energy[-1][-1].E) <= tol:
            by_energy[-1].append(e)
        else:
            by_energy.append([e])
    groups = tuple(
        {
            "energy": grp[0].E,
            "members": tuple((e.n, e.l) for e in grp),
            "m_multiplicity": sum(2 * e.l + 1 for e in grp),
        }
        for grp in by_energy
    )
    shell_of = (lambda e: e.n + e.l) if potential == COULOMB else (lambda e: 2 * e.n + e.l)
    shell_map: dict = {}
    for e in entries:
        shell_map.setdefault(shell_of(e), []).append(e)
    shells = []
    for key in sorted(shell_map):
        members = shell_map[key]
        energies = [e.E for e in members]
        spread = max(energies) - min(energies)
        shells.append(
            {
                "shell": key,
                "members": tuple((e.n, e.l) for e in members),
                "energies": tuple(energies),
                "degenerate": bool(spread <= tol),
                "spread": spread,
            }
        )
    accidental = any(len(g["members"]) > 1 for g in groups)
    return DegeneracyReport(
        potential=potential, q=float(p.q), groups=groups, shells=tuple(shells),
        accidental_present=accidental,
    )


@dataclass(frozen=True)
class MultipoleReport:
    q: float
    x0_sq_expectation: float
    classical_value: float
    quadrupole_deviation: float
    higher_even_poles_nonzero: bool


def multipole_report(p: QParam) -> MultipoleReport:
    """Moments of the angle-independent state.

    The normalized second moment of x0 is 1/[3] (1/3 classically); its
    deviation from 1/3 scales the induced quadrupole, and every higher
    even multipole is nonzero as soon as q differs from 1.
    """
    from .jackson import QMeasure, integrate_monomial

    mu = QMeasure(p)
    val = integrate_monomial(2, mu) / integrate_monomial(0, mu)
    dev = val - 1.0 / 3.0
    return MultipoleReport(
        q=float(p.q),
        x0_sq_expectation=float(val),
        classical_value=1.0 / 3.0,
        quadrupole_deviation=float(dev),
        higher_even_poles_nonzero=not p.is_one,
    )
