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
uniform grid.  It identifies a level by the node count of the outward
solution (Sturm oscillation theorem) and bisects between trial energies
with n and n+1 nodes.  It shares nothing with the closed forms except the
point the bracket search starts from; a level it cannot bracket is
reported, never silent.
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

# the origin fit reads grid points up to index 8 (_fit_points)
MIN_STEPS = 8
# the bracket search widens tenfold per shoot from 4 energy tolerances
# around the closed-form level and gives up beyond this multiple of |E|
BRACKET_SPAN = 1.0


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
        if 0 < self.n_steps < MIN_STEPS:
            raise ValueError(f"grid needs at least {MIN_STEPS} steps for the origin fit")
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
    if r_min >= r_max:
        raise ValueError(f"grid start r_min={r_min:.6g} is not below r_max={r_max:.6g}; use more steps")
    return r_min, r_max, n_steps


def _fit_points(n_steps: int) -> tuple:
    """Grid indices of the two early values that fix the origin exponent."""
    return max(4, n_steps // 400), max(8, n_steps // 200)


def _potential_table(potential: str, L: float, r_min: float, h: float, count: int) -> list:
    """Energy-independent part of f(r) = L(L+1)/r**2 + 2V(r) - 2E at
    r = r_min + i*h for i < count."""
    ll1 = L * (L + 1)
    if potential == COULOMB:
        return [ll1 / (r_min + i * h) ** 2 - 2.0 / (r_min + i * h) for i in range(count)]
    return [ll1 / (r_min + i * h) ** 2 + (r_min + i * h) ** 2 for i in range(count)]


def _shoot(potential: str, L: float, E: float, table: list, r_min: float, h: float, n_steps: int, method: str):
    """Integrate the reduced equation v'' = f(r) v outward from the series
    start (r/r_min)**(L+1), scaled so that it cannot overflow however large
    L is.  Returns the endpoint value normalized to the largest magnitude
    seen, the node count over the whole grid, and the values at the two
    _fit_points.

    ``table`` holds f + 2E on the grid (Numerov) or on the half-step grid
    (RK4)."""
    if potential == COULOMB:
        c1 = -1.0 / (L + 1)
        series = lambda r: (r / r_min) ** (L + 1) * (1 + c1 * r)
    else:
        c2 = -E / (2 * L + 3)
        series = lambda r: (r / r_min) ** (L + 1) * (1 + c2 * r * r)
    two_e = 2.0 * E
    i1, i2 = _fit_points(n_steps)
    mark = i1 - 1  # step that lands on the next fit point
    fit = []
    v0 = series(r_min)
    v1 = series(r_min + h)
    vmax = max(abs(v0), abs(v1))
    nodes = 0
    if method == NUMEROV:
        c = h * h / 12.0
        fm, f0 = table[0] - two_e, table[1] - two_e
        for i in range(1, n_steps):
            fp = table[i + 1] - two_e
            v2 = (2.0 * (1.0 + 5.0 * c * f0) * v1 - (1.0 - c * fm) * v0) / (1.0 - c * fp)
            if v2 * v1 < 0.0:
                nodes += 1
            if i == mark:
                fit.append(v2)
                mark = i2 - 1
            a = abs(v2)
            if a > vmax:
                vmax = a
            if a > 1e250:
                v1 *= 1e-200
                v2 *= 1e-200
                vmax *= 1e-200
                fit = [x * 1e-200 for x in fit]
            v0, v1 = v1, v2
            fm, f0 = f0, fp
    else:
        w = (v1 - v0) / h
        f_lo = table[2] - two_e
        for i in range(1, n_steps):
            f_mid = table[2 * i + 1] - two_e
            f_hi = table[2 * i + 2] - two_e
            k1v, k1w = w, f_lo * v1
            k2v, k2w = w + h / 2 * k1w, f_mid * (v1 + h / 2 * k1v)
            k3v, k3w = w + h / 2 * k2w, f_mid * (v1 + h / 2 * k2v)
            k4v, k4w = w + h * k3w, f_hi * (v1 + h * k3v)
            v2 = v1 + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            w = w + h / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
            if v2 * v1 < 0.0:
                nodes += 1
            if i == mark:
                fit.append(v2)
                mark = i2 - 1
            a = abs(v2)
            if a > vmax:
                vmax = a
            if a > 1e250:
                v2 *= 1e-200
                w *= 1e-200
                vmax *= 1e-200
                fit = [x * 1e-200 for x in fit]
            v1 = v2
            f_lo = f_hi
    return v1 / vmax, nodes, fit


def radial_verify(potential: str, n: int, l: int, p: QParam, grid: RadialGrid = RadialGrid()) -> RadialReport:
    """Solve the radial eigenproblem by shooting and compare with the
    closed form.

    By the Sturm oscillation theorem the outward solution at a trial
    energy has as many nodes as there are levels below it, so the level
    with n radial nodes is the one energy where the node count steps from
    n to n+1.  A bracket with those two counts is searched for around the
    closed-form energy, widening tenfold per shoot up to BRACKET_SPAN
    times |E|; bisection on the node count then shrinks it to the energy
    tolerance.  The origin exponent is fitted from a last shoot at the
    converged energy.  A missing bracket is reported, never silent.
    """
    if potential not in POTENTIALS:
        raise ValueError(f"unknown potential {potential!r}")
    entry = _make_entry(potential, n, l, p)
    L, e_closed = entry.L, entry.E
    r_min, r_max, n_steps = _resolve_grid(potential, L, e_closed, grid)
    grid_meta = {
        "r_min": r_min, "r_max": r_max, "n_steps": n_steps, "method": grid.method,
    }
    h = (r_max - r_min) / n_steps
    if grid.method == NUMEROV:
        table = _potential_table(potential, L, r_min, h, n_steps + 1)
    else:
        table = _potential_table(potential, L, r_min, h / 2, 2 * n_steps + 1)

    def shoot(E):
        return _shoot(potential, L, E, table, r_min, h, n_steps, grid.method)

    tol_e = max(1e-12, 1e-11 * abs(e_closed))
    span = BRACKET_SPAN * abs(e_closed)
    d = 4 * tol_e
    lo, hi = e_closed - d, e_closed + d
    _, k_lo, _ = shoot(lo)
    _, k_hi, _ = shoot(hi)
    while k_lo > n or k_hi <= n:
        if d >= span:
            return RadialReport(
                converged=False, potential=potential, n=n, l=l, q=float(p.q), L=L,
                e_closed=e_closed, e_numeric=None, abs_err=None,
                boundary_residual=None, origin_exponent=None, nodes_expected=n,
                nodes_found=None, bisections=0, grid=grid_meta,
                message=f"no energy within {BRACKET_SPAN:g}|E| of {e_closed:.6g} brackets the level "
                        f"with {n} radial nodes (node counts {k_lo} to {k_hi})",
            )
        d = min(10 * d, span)
        # the end just passed keeps its node count as the other end
        if k_lo > n:
            hi, k_hi = lo, k_lo
            lo = e_closed - d
            _, k_lo, _ = shoot(lo)
        else:
            lo, k_lo = hi, k_hi
            hi = e_closed + d
            _, k_hi, _ = shoot(hi)

    bisections = 0
    while hi - lo > tol_e:
        mid = 0.5 * (lo + hi)
        _, k, _ = shoot(mid)
        bisections += 1
        if k <= n:
            lo, k_lo = mid, k
        else:
            hi = mid
    e_num = 0.5 * (lo + hi)
    boundary, _, fit = shoot(e_num)
    i1, i2 = _fit_points(n_steps)
    if fit[0] and fit[1]:
        ratio = (r_min + i2 * h) / (r_min + i1 * h)
        exponent, message = math.log(abs(fit[1] / fit[0])) / math.log(ratio), ""
    else:
        # the 1e-200 rescalings of a steeply growing solution flush the early values to zero
        exponent, message = None, f"origin-fit values underflowed at L={L:.6g}; no origin exponent"
    return RadialReport(
        converged=True, potential=potential, n=n, l=l, q=float(p.q), L=L,
        e_closed=e_closed, e_numeric=e_num, abs_err=abs(e_num - e_closed),
        boundary_residual=abs(boundary), origin_exponent=exponent,
        # the last shoot, at e_num, counts as one more bisection
        nodes_expected=n, nodes_found=k_lo, bisections=bisections + 1, grid=grid_meta,
        message=message,
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
