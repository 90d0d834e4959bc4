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
grid uniform in x = ln r, carrying the Langer term (L+1/2)**2, with one
step rule for every L.  It identifies a level by the node count of the
outward solution (Sturm oscillation theorem): the count steps from n to
n+1 where the endpoint value crosses zero.  The search starts with two
shoots just below and above the closed form, which certify a level lying
between them by their node counts alone; the secant root of their
endpoint values is then the level.  A pair that misses predicts the step
by extrapolation, and a pair around the prediction is shot; a bracket
still missing widens tenfold per shoot.  Inside the bracket one secant
step is taken: a pair of shoots around its root certifies it, and
bisection on the count narrows whatever bracket is left to the energy
tolerance.  A level costs two shoots when it lies within
0.45 energy tolerances of the closed form, four when the extrapolated
pair brackets it, and otherwise more by the widenings, the certifying
pair and any fallback bisections.  With Numerov the two shoots of the
first pair, and of the extrapolated pair, are walked in one pass over the
grid, so a level within 0.45 tolerances costs two shoots in one pass.
It shares nothing with the closed forms except the point the search
starts from; a level it cannot bracket is reported, never silent.

Each step does the least work its scheme allows.  Numerov runs in the
z-form z = (1 - h**2 F/12) u (Blatt, J. Comput. Phys. 1 (1967) 382),
where the recurrence is z' = (12/b - 10) z - z_prev with b the weight
1 - h**2 F/12; it is walked in differences of z, a multiply-add and an
add per step, so that the small part h**2 F/b of the factor keeps its
precision.  The E-independent parts of F are tabulated once per level,
and a grid on which some b <= 0 is refused.  RK4 applies the 2x2 matrix
its four stages amount to on a linear system, which keeps it an
independent scheme and so Numerov's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from .jackson import QMeasure, integrate_monomial
from .qcore import QParam, _check_integers, _in_private_context, _is_integer, invariants

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


@_in_private_context
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
    return _root_l(centrifugal_rhs(l, p), l, p)


@_in_private_context
def _root_l(rhs, l: int, p: QParam):
    """solve_l's root from the right side rhs already formed."""
    if rhs < 0:
        raise ArithmeticError(f"centrifugal strength came out negative ({float(rhs)}) at l={l}, q={float(p.q)}")
    L = (-1 + p.sqrt(1 + 4 * rhs)) / 2
    if not math.isfinite(L):
        raise ArithmeticError(f"effective angular number is not finite in double precision at l={l}, q={float(p.q)}")
    return L


@_in_private_context
def _make_entry(potential: str, n: int, l: int, p: QParam) -> SpectrumEntry:
    if not (_is_integer(n) and _is_integer(l)) or n < 0 or l < 0:
        raise ValueError(f"quantum numbers must be nonnegative integers, got n={n!r}, l={l!r}")
    if potential not in POTENTIALS:
        raise ValueError(f"unknown potential {potential!r}")
    rhs = centrifugal_rhs(l, p)
    L = _root_l(rhs, l, p)
    if potential == COULOMB:
        E = -1 / (2 * ((n + L + 1) * (n + L + 1)))
        signed = float(E) < 0
    else:
        E = 2 * n + L + 3 * p.one / 2
        signed = float(E) > 0
    consistent = abs(L * (L + 1) - rhs) <= 1e-12 * max(1.0, abs(float(rhs)))
    if not (signed and consistent):
        raise ArithmeticError(
            f"{potential} level n={n}, l={l} is out of double range at q={float(p.q)}: L={float(L)}, E={float(E)}"
        )
    return SpectrumEntry(potential=potential, n=int(n), l=int(l), q=float(p.q), L=float(L), E=float(E))


def coulomb_energy(n: int, l: int, p: QParam) -> SpectrumEntry:
    """E = -1/(2 (n + L + 1)**2); independent of q at l = 0."""
    return _make_entry(COULOMB, n, l, p)


def oscillator_energy(n: int, l: int, p: QParam) -> SpectrumEntry:
    """E = 2n + L + 3/2; independent of q at l = 0."""
    return _make_entry(OSCILLATOR, n, l, p)


def spectrum_table(potential: str, p: QParam, nmax: int, lmax: int) -> list:
    """All entries with n <= nmax, l <= lmax, sorted by (l, n).  A negative
    size raises ValueError naming it; the table is never empty, so an
    unknown potential is always refused (by _make_entry)."""
    _check_integers(nmax=nmax, lmax=lmax)
    for name, size in (("nmax", nmax), ("lmax", lmax)):
        if size < 0:
            raise ValueError(f"{name} must be nonnegative, got {size}")
    return [_make_entry(potential, n, l, p) for l in range(lmax + 1) for n in range(nmax + 1)]


# ----------------------------- shooting verifier -----------------------------

NUMEROV = "numerov"
RK4 = "rk4"

# the origin fit reads the integrated values at grid steps 4 and 8
MIN_STEPS = 8
# the regular solution grows like exp((L+1/2) x) near the origin; a step
# with (L+1/2) h above this bound resolves that growth too coarsely
MAX_LANGER_STEP = 0.25
# grid tables hold n_steps + 1 floats (2 n_steps + 1 for RK4) and every
# shoot walks all of them; grids longer than this are refused up front
MAX_STEPS = 1_000_000
# the bracket search starts 0.45 energy tolerances either side of the
# closed-form level, widens tenfold per shoot and gives up beyond this
# multiple of |E|
BRACKET_SPAN = 1.0


@dataclass(frozen=True)
class RadialGrid:
    """Logarithmic grid configuration for the outward integration.

    The grid is uniform in x = ln r from r_min = 1e-4 (L+1) to r_max in
    n_steps steps.  r_max always comes from the closed-form energy scale
    (turning point plus enough decay lengths for the endpoint sign to be
    meaningful).  n_steps = 0 is chosen automatically, the least count
    with (L+1/2) h <= MAX_LANGER_STEP, but at least 8000.  A user n_steps
    that breaks that bound is rejected, and so is any grid above MAX_STEPS
    (one million) steps, which the rule asks for from L of about 1.3e4
    (Coulomb ground state) or 6e4 (oscillator) on.
    """

    n_steps: int = 0
    method: str = NUMEROV

    def __post_init__(self):
        _check_integers(n_steps=self.n_steps)
        if self.n_steps < 0:
            raise ValueError("grid parameters must be nonnegative (0 = choose automatically)")
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
    origin_exponent: float | None
    nodes_found: int | None
    # fallback midpoint shoots, made where the certifying pair misses or
    # the secant root lies outside the certified bracket
    bisections: int
    grid: dict
    message: str = ""
    # full-grid shoots (the first pair, the extrapolated pair, widenings,
    # the certifying pair, any fallback bisections), and the steps walked
    # over every shoot including the two origin-fit ones
    shoots: int = 0
    steps_walked: int = 0


def _resolve_grid(potential: str, L: float, e_closed: float, grid: RadialGrid) -> tuple:
    if potential == COULOMB:
        # the turning point plus 16 decay lengths 1/sqrt(2|E|)
        r_max = 1 / abs(e_closed) + 16.0 / math.sqrt(2 * abs(e_closed))
    else:
        r_max = math.sqrt(2 * e_closed) + 6.5
    # the two-term series start holds while r is small next to L+1, so the
    # start radius grows with L and no steps are spent deep in the
    # centrifugal wall
    r_min = 1e-4 * (L + 1)
    if r_min >= r_max:
        raise ValueError(f"grid start r_min={r_min:.6g} is not below r_max={r_max:.6g}")
    needed = math.ceil((L + 0.5) * math.log(r_max / r_min) / MAX_LANGER_STEP)
    n_steps = grid.n_steps or max(8000, needed)
    if n_steps < needed:
        raise ValueError(f"L={L:.6g} needs at least {needed} steps on this grid, got {n_steps}")
    if n_steps > MAX_STEPS:
        raise ValueError(f"L={L:.6g} needs a grid of {n_steps} steps, above the budget of {MAX_STEPS}")
    return r_min, r_max, n_steps


def _potential_table(potential: str, L: float, r_min: float, h: float, n_steps: int, method: str) -> tuple:
    """The tables _shoot reads, formed once per level: (a, s) with
    c F = a - E s at each point, where F(x) = (L+1/2)**2 + 2 r**2 (V(r) - E)
    splits into g0 = (L+1/2)**2 + 2 r**2 V(r) and -2 E r**2, so that
    a = c g0 and s = 2 c r**2.  Numerov takes c = h**2/12 on the
    n_steps + 1 grid points r = r_min exp(i*h), RK4 c = h**2/6 on the
    2 n_steps + 1 points of the half-step grid.  One pass over the points
    forms each r once and both entries from it, with no list of r."""
    if method == NUMEROV:
        count, spacing, c = n_steps + 1, h, h * h / 12.0
    else:
        count, spacing, c = 2 * n_steps + 1, h / 2, h * h / 6.0
    a2, c2, exp = (L + 0.5) ** 2, 2.0 * c, math.exp
    a, s = [], []
    if potential == COULOMB:
        for i in range(count):
            x = r_min * exp(i * spacing)
            a.append(c * (a2 - 2.0 * x))
            s.append(c2 * (x * x))
    else:
        for i in range(count):
            x = r_min * exp(i * spacing)
            xx = x * x
            a.append(c * (a2 + xx * xx))
            s.append(c2 * xx)
    return a, s


def _series_start(potential: str, L: float, E: float, r_min: float, h: float, i: int) -> tuple:
    """u and du/dx of the series start (r/r_min)**(L+1/2) (1 + c r**k) at
    grid point i."""
    nu = L + 0.5
    if potential == COULOMB:
        k, ck = 1, -1.0 / (L + 1)
    else:
        k, ck = 2, -E / (2 * L + 3)
    t, crk = math.exp(nu * i * h), ck * (r_min * math.exp(i * h)) ** k
    return t * (1 + crk), t * (nu * (1 + crk) + k * crk)


def _numerov_start(potential: str, L: float, E: float, tables: tuple, r_min: float, h: float, n_steps: int) -> tuple:
    """The Numerov walk's z_1 and d = z_1 - z_0 from the series start, and
    the weight b at the endpoint, which turns its z back into u."""
    a, s = tables
    # c F_i = a_i - E s_i = h**2 F_i/12, so h**2 F_i/b_i = 12 c F_i/(1 - c F_i)
    b0, b1, b_end = (1.0 - (a[i] - E * s[i]) for i in (0, 1, n_steps))
    v0, _ = _series_start(potential, L, E, r_min, h, 0)
    v1, _ = _series_start(potential, L, E, r_min, h, 1)
    return b1 * v1, b1 * v1 - b0 * v0, b_end


def _shoot(potential: str, L: float, E: float, tables: tuple, r_min: float, h: float, n_steps: int, method: str):
    """Integrate u'' = F(x) u outward in x = ln r, where the reduced radial
    function is v(r) = r**(1/2) u(x), from the series start
    (r/r_min)**(L+1/2) (1 + c r**k), scaled so that it cannot overflow
    however large L is.  r**(1/2) > 0, so u and v share their nodes.
    Returns the node count over the whole grid and the endpoint value
    (rescaled by powers of 1e-200 only after passing 1e250, which the
    first MIN_STEPS steps never reach; the test reads z > 1e250 or
    z < -1e250, which is abs(z) > 1e250 for every float, NaN and the
    infinities included, without the call).  _shoot_pair walks two
    Numerov shoots at once, and this walk is its oracle.

    ``tables`` holds (a, s) from _potential_table; only the n_steps + 1
    (RK4: 2 n_steps + 1) entries the walk reaches are read.

    Numerov.  With b_i = 1 - h**2 F_i/12 the classical recurrence

        b_{i+1} u_{i+1} = 2 (1 + 5 h**2 F_i/12) u_i - b_{i-1} u_{i-1}

    becomes, in z_i = b_i u_i and since 1 + 5 h**2 F_i/12 = 6 - 5 b_i,

        z_{i+1} = (12/b_i - 10) z_i - z_{i-1},

    the same discrete scheme with one multiply-add per step.  Its factor
    is 2 + h**2 F_i/b_i, and a double near 2 keeps few bits of the small
    h**2 F_i/b_i, so the walk carries the difference d = z_i - z_{i-1}:

        d += (h**2 F_i/b_i) z_i,   z_{i+1} = z_i + d,

    which keeps that term to full relative precision for one more add.
    While every b_i > 0, which radial_verify makes sure of, z and u have
    the same signs, so the nodes are counted on z, and the endpoint value
    is u = z/b.

    RK4.  On the linear system y = (v, w), v' = w, w' = F v, with F at the
    start, midpoint and end of a step (F_lo, F_mid, F_hi) and
    M = [[0, 1], [F, 0]], the classical stages

        k1 = M_lo y,  k2 = M_mid (y + h k1/2),  k3 = M_mid (y + h k2/2),
        k4 = M_hi (y + h k3),  y' = y + h (k1 + 2 k2 + 2 k3 + k4)/6

    multiply out to y' = T y with

        T11 = 1 + h**2 (F_lo/6 + F_mid/3) + h**4 F_lo F_mid/24
        T12 = h + h**3 F_mid/6
        T21 = h (F_lo + 4 F_mid + F_hi)/6 + h**3 F_mid (F_lo + F_hi)/12
        T22 = 1 + h**2 (F_mid/3 + F_hi/6) + h**4 F_mid F_hi/24.

    In p = h**2 F/6 and W = h w, a diagonal change of scale that leaves
    the scheme as it is, the step reads

        v' = (1 + 2 p_mid + p_lo (1 + 3 p_mid/2)) v + (1 + p_mid) W
        W' = (t + p_mid (4 + 3 t)) v + (1 + 2 p_mid + p_hi (1 + 3 p_mid/2)) W,

    with t = p_lo + p_hi, and the walk applies this matrix in place of the
    four stages.  It reads the tables in place, forming p = a - E s at
    each half-step point as it reaches it, and each step's p_hi is the
    next step's p_lo."""
    nodes = 0
    if method == NUMEROV:
        z, d, b_end = _numerov_start(potential, L, E, tables, r_min, h, n_steps)
        a, s = tables
        for g, r in zip(islice(a, 1, n_steps), islice(s, 1, n_steps)):
            x = g - E * r
            d += 12.0 * x / (1.0 - x) * z
            prev, z = z, z + d
            if z * prev < 0.0:
                nodes += 1
            if z > 1e250 or z < -1e250:
                z *= 1e-200
                d *= 1e-200
        return nodes, z / b_end
    a, s = tables
    v, w = _series_start(potential, L, E, r_min, h, 1)
    W = h * w
    # steps run from grid point 1 (half-step index 2) to n_steps (2 n_steps)
    end = 2 * n_steps + 1
    lo = a[2] - E * s[2]
    for g, r, g_hi, r_hi in zip(islice(a, 3, end, 2), islice(s, 3, end, 2),
                                islice(a, 4, end, 2), islice(s, 4, end, 2)):
        mid, hi = g - E * r, g_hi - E * r_hi
        diag, cross, t = 1.0 + 2.0 * mid, 1.0 + 1.5 * mid, lo + hi
        v, prev, W = ((diag + lo * cross) * v + (1.0 + mid) * W, v,
                      (t + mid * (4.0 + 3.0 * t)) * v + (diag + hi * cross) * W)
        lo = hi
        if v * prev < 0.0:
            nodes += 1
        if v > 1e250 or v < -1e250:
            v *= 1e-200
            W *= 1e-200
    return nodes, v


def _shoot_pair(potential: str, L: float, E1: float, E2: float, tables: tuple, r_min: float, h: float, n_steps: int):
    """The Numerov shoots at E1 and E2 in one pass over the tables.

    Each of the two recurrences runs _shoot's operations in _shoot's
    order (the same start, step, node count and rescale), so each result
    is bitwise _shoot(potential, L, E, tables, r_min, h, n_steps,
    NUMEROV) at its energy, and _shoot is this walk's oracle.  Walking
    both at once reads each table entry and runs the loop once for two
    energies."""
    z1, d1, end1 = _numerov_start(potential, L, E1, tables, r_min, h, n_steps)
    z2, d2, end2 = _numerov_start(potential, L, E2, tables, r_min, h, n_steps)
    a, s = tables
    nodes1 = nodes2 = 0
    for g, r in zip(islice(a, 1, n_steps), islice(s, 1, n_steps)):
        x = g - E1 * r
        d1 += 12.0 * x / (1.0 - x) * z1
        prev, z1 = z1, z1 + d1
        if z1 * prev < 0.0:
            nodes1 += 1
        if z1 > 1e250 or z1 < -1e250:
            z1 *= 1e-200
            d1 *= 1e-200
        x = g - E2 * r
        d2 += 12.0 * x / (1.0 - x) * z2
        prev, z2 = z2, z2 + d2
        if z2 * prev < 0.0:
            nodes2 += 1
        if z2 > 1e250 or z2 < -1e250:
            z2 *= 1e-200
            d2 *= 1e-200
    return (nodes1, z1 / end1), (nodes2, z2 / end2)


def radial_verify(potential: str, n: int, l: int, p: QParam, grid: RadialGrid = RadialGrid()) -> RadialReport:
    """Solve the radial eigenproblem by shooting and compare with the
    closed form.

    By the Sturm oscillation theorem the outward solution at a trial
    energy has as many nodes as there are levels below it, so the level
    with n radial nodes is the one energy where the node count steps from
    n to n+1, and it steps where the endpoint value crosses zero, so the
    secant root of two shoots' endpoint values predicts it.  With the
    energy tolerance tol_e = max(1e-12, 1e-11 |E|):

    - the first bracket is the certifying pair itself, shoots at
      E -+ 0.45 tol_e around the closed form E; a level between them is
      certified by their node counts in two shoots;
    - a pair on one side of the step predicts it by extrapolating the
      secant, and shoots at c -+ 0.45 tol_e around that prediction c
      become the bracket when their counts straddle n;
    - a bracket still missing widens tenfold per shoot (4.5, 45, ...
      tol_e), keeping the end it passed, up to BRACKET_SPAN times |E|;
    - one secant step: the secant root c of the bracket's ends is
      formed once and certified by a shoot at c - 0.45 tol_e and, unless
      that one already lies above the step, one at c + 0.45 tol_e, each
      taken only while the bracket is wider than tol_e and only strictly
      inside it, since an end's count certifies the side at or beyond it;
      c is not formed again from the narrowed bracket;
    - bisection on the node count then shrinks whatever bracket is left
      to tol_e.

    The level is the secant root of the final bracket's ends wherever that
    root lies strictly inside it; elsewhere, as where an endpoint is not
    finite, the bracket is bisected at least once and its midpoint is the
    level, so the closed form is never read back as the numeric energy.
    A level costs two shoots within 0.45 tol_e of the closed form, four
    when the extrapolated pair brackets it, and otherwise the first pair,
    the extrapolated pair where one is predicted within BRACKET_SPAN |E|,
    one shoot per widening, one or two certifying shoots and any fallback
    bisections, which ``bisections`` counts.  The solution's values at
    grid steps 4 and 8 give the origin exponent.  A missing bracket is
    reported, never silent.

    A Numerov grid whose weight 1 - h**2 F/12 is not positive at some
    point and some energy the search can try is a ValueError naming h and
    r: there the z-form's node count would not be the solution's.
    """
    entry = _make_entry(potential, n, l, p)
    L, e_closed = entry.L, entry.E
    r_min, r_max, n_steps = _resolve_grid(potential, L, e_closed, grid)
    grid_meta = {
        "r_min": r_min, "r_max": r_max, "n_steps": n_steps, "method": grid.method,
    }
    h = math.log(r_max / r_min) / n_steps
    tables = _potential_table(potential, L, r_min, h, n_steps, grid.method)
    tol_e = max(1e-12, 1e-11 * abs(e_closed))
    span = BRACKET_SPAN * abs(e_closed)
    # half the width of a certifying pair, which also opens the search
    half = 0.45 * tol_e
    d = half
    if grid.method == NUMEROV:
        # the weight b = 1 - (a - E s) rises with E, and at the lowest
        # trial energy F is convex in r for both potentials, so the grid
        # ends bound it below over every point and every energy tried
        e_low = e_closed - max(d, span)
        for i in (0, n_steps):
            b = 1.0 - (tables[0][i] - e_low * tables[1][i])
            if not b > 0.0:
                raise ValueError(
                    f"Numerov weight 1 - h**2 F/12 is {b:.3g} at r={r_min * math.exp(i * h):.6g} "
                    f"and E={e_low:.6g} on a grid with h={h:.6g}; the grid needs more steps"
                )
    shoots = 0

    def shoot(E):
        nonlocal shoots
        shoots += 1
        return _shoot(potential, L, E, tables, r_min, h, n_steps, grid.method)

    def shoot_pair(E1, E2):
        """Two shoots, in one pass where the method is Numerov."""
        nonlocal shoots
        if grid.method != NUMEROV:
            return shoot(E1), shoot(E2)
        shoots += 2
        return _shoot_pair(potential, L, E1, E2, tables, r_min, h, n_steps)

    def secant(lo, f_lo, hi, f_hi):
        """Root of the line through the endpoint values at lo and hi, or
        NaN where they give none."""
        if math.isfinite(f_lo) and math.isfinite(f_hi) and f_lo != f_hi:
            return lo - f_lo * (hi - lo) / (f_hi - f_lo)
        return math.nan

    lo, hi = e_closed - d, e_closed + d
    (k_lo, f_lo), (k_hi, f_hi) = shoot_pair(lo, hi)
    if k_lo > n or k_hi <= n:
        # a pair on one side of the step predicts it by extrapolation; a
        # pair around the prediction that straddles the step is the bracket
        c = secant(lo, f_lo, hi, f_hi)
        if abs(c - e_closed) + half <= span:
            (k_a, f_a), (k_b, f_b) = shoot_pair(c - half, c + half)
            if k_a <= n < k_b:
                lo, k_lo, f_lo, hi, k_hi, f_hi = c - half, k_a, f_a, c + half, k_b, f_b
    while k_lo > n or k_hi <= n:
        if d >= span:
            return RadialReport(
                converged=False, potential=potential, n=n, l=l, q=float(p.q), L=L,
                e_closed=e_closed, e_numeric=None, abs_err=None, origin_exponent=None,
                nodes_found=None, bisections=0, grid=grid_meta,
                message=f"no energy within {BRACKET_SPAN:g}|E| of {e_closed:.6g} brackets the level "
                        f"with {n} radial nodes (node counts {k_lo} to {k_hi})",
                shoots=shoots, steps_walked=shoots * n_steps,
            )
        d = min(10 * d, span)
        # the end just passed keeps its node count as the other end
        if k_lo > n:
            hi, k_hi, f_hi = lo, k_lo, f_lo
            lo = e_closed - d
            k_lo, f_lo = shoot(lo)
        else:
            lo, k_lo, f_lo = hi, k_hi, f_hi
            hi = e_closed + d
            k_hi, f_hi = shoot(hi)

    def narrow(e):
        """Shoot at e, move the bracket end on its side of the step there,
        and tell whether the step lies below e."""
        nonlocal lo, hi, k_lo
        k, _ = shoot(e)
        if k > n:
            hi = e
        else:
            lo, k_lo = e, k
        return k > n

    c = secant(lo, f_lo, hi, f_hi)
    # the certifying pair around the secant root, shot only while the
    # bracket is wider than tol_e and only inside it: an end certifies the
    # side at or beyond it.  A step below the first shoot needs no second
    # one, and a pair that misses still leaves a narrower bracket for the
    # bisection
    for e in (c - half, c + half):
        if hi - lo > tol_e and lo < e < hi and narrow(e):
            break
    # the secant root is the level wherever the certified bracket holds it;
    # elsewhere at least one bisection, so the closed form is never read back
    bisections = 0
    while hi - lo > tol_e or not (bisections or lo < c < hi):
        narrow(0.5 * (lo + hi))
        bisections += 1
    e_num = c if lo < c < hi else 0.5 * (lo + hi)
    # u grows like r**(L+1/2) = exp((L+1/2) x) out of the origin
    u4, u8 = (_shoot(potential, L, e_num, tables, r_min, h, steps, grid.method)[1] for steps in (4, 8))
    exponent = math.log(abs(u8 / u4)) / (4 * h) + 0.5
    return RadialReport(
        converged=True, potential=potential, n=n, l=l, q=float(p.q), L=L,
        e_closed=e_closed, e_numeric=e_num, abs_err=abs(e_num - e_closed), origin_exponent=exponent,
        nodes_found=k_lo, bisections=bisections, grid=grid_meta,
        shoots=shoots, steps_walked=shoots * n_steps + 4 + 8,
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


# Energies closer than this are one level in degeneracy_report.
DEGENERACY_TOL = 1e-9


def degeneracy_report(potential: str, p: QParam, nmax: int, lmax: int) -> DegeneracyReport:
    """Group levels by energy and track the classical shells.

    At q = 1 the classical multiplets (equal n+l for the Coulomb case,
    equal 2n+l for the oscillator) are degenerate; away from q = 1 each
    former multiplet splits while the magnetic degeneracy survives.  Levels
    within DEGENERACY_TOL of each other are degenerate.
    """
    _check_integers(nmax=nmax, lmax=lmax)
    if nmax < 1 or lmax < 1:
        raise ValueError("degeneracy report needs nmax >= 1 and lmax >= 1")
    entries = spectrum_table(potential, p, nmax, lmax)
    by_energy: list[list] = []
    for e in sorted(entries, key=lambda s: s.E):
        if by_energy and abs(e.E - by_energy[-1][-1].E) <= DEGENERACY_TOL:
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
                "degenerate": bool(spread <= DEGENERACY_TOL),
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


@_in_private_context
def multipole_report(p: QParam) -> MultipoleReport:
    """Moments of the angle-independent state.

    The normalized second moment of x0 is 1/[3] (1/3 classically); its
    deviation from 1/3 scales the induced quadrupole, and every higher
    even multipole is nonzero as soon as q differs from 1.
    """
    mu = QMeasure(p)
    val = integrate_monomial(2, mu) / integrate_monomial(0, mu)
    dev = val - p.one / 3
    return MultipoleReport(
        q=float(p.q),
        x0_sq_expectation=float(val),
        classical_value=1.0 / 3.0,
        quadrupole_deviation=float(dev),
        higher_even_poles_nonzero=not p.is_one,
    )
