"""Deformed integration on (-1, 1) and the inner product on angular functions.

The measure is the discrete integral on the geometric grid x = +-b**(2k+1),
k = 0, 1, ..., with weights b**(2k) - b**(2k+2) and b = min(q, 1/q).  The
monomial x0**n integrates to (1 + (-1)**n)/[n+1]; the reciprocal grid
carries the same functional for q > 1, which keeps the q -> 1/q symmetry
of [n+1].  A series measure truncates the grid at a finite depth (q < 1).
One routine, _running_sums, walks the grid: it yields the partial sums
depth by depth for a list of degrees, each degree's sums independent of
the others', and each consumer reads every depth and degree it needs from
one walk: a series measure's moments all their degrees, integrate_monomial
one degree (the verifier's series row calls it once per degree) and the
convergence probe every depth it reports.  The walk runs in decimal, in
either precision, at the exact Decimal q that the QParam keeps, p._q, the
q of its ladders and q-scalars: powers of q only seed it, each degree's
term then advances by one product per point, and the grid weight and the
winding factors take a form that cancels nothing, so no digits are lost
to cancellation near q = 1.  Double precision walks in the private
62-digit context, as high precision does, and rounds each sum to a double
once: its value is the high-precision one, rounded.

The inner product of two functions of winding m reduces the winding
factors of f~ g to the weight w_m(x) = pref_m prod_i (1 - q**e_i x**2),
the same rewrite as angular.mul_position, so, with the real coefficients
a_i of f and b_j of g (the conjugate of a real is itself),

    <f, g> = 2 pi sum_{i,j} a_i b_j M_m(i + j),

with the weighted moments M_m(n), the grid sums of x**n w_m(x).  Every
grid weight lies in [0, 1] and the first |m| of them vanish; the rest form
a q-binomial series (Gasper-Rahman, Basic Hypergeometric Series, ch. 1)
whose value is finite: M_m(n) = 0 for odd n and

    M_m(n) = 2 q**(m n) prod_{i=1..|m|} ([2i]/[2]) / prod_{j=0..|m|} [n+1+2j]

for even n.  That is 2/[n+1] at m = 0 and the classical value at q = 1,
and q -> 1/q maps it to M_{-m}, so b = min(q, 1/q) serves both sides.
For q = b <= 1 the moments are evaluated as
2 b**E prod h(2i)/h(2) / prod h(n+1+2j), with h(k) = 1 + b**2 + ... +
b**(2k-2) and E = (|m| + 1 + m) n + 2|m|, whose factors are positive and
bounded: nothing cancels or overflows at any q, and the cost is O(|m|)
per moment whatever the grid depth.

Both precisions form the sum in stdlib decimal, through one routine
(_operand_sum), in qcore's private 62-digit context, as the grid walk
does: a double-precision sum is the high-precision sum of the same
operands, rounded once to a double.  The two differ only
in what enters the sum: in double precision the coefficients and the
double nearest pi, converted exactly to Decimal, in high precision the
coefficients as v * p.one, which rounds at 62 digits, and the 62-digit
pi.  q itself is never converted: in both precisions the moments, closed
form or series, are formed at p._q.  What a sum reads of each function is
its sum operand: the coefficients in the sum's number type, and in double
precision also their finiteness and the parity of their degrees.  It is
formed once and kept on the function, which never changes (see
_operand), so a function met in many sums is converted once, and nothing
is kept anywhere else.  The closed-form moments are kept in the QParam's
table under ("moments", m), one list per winding
with the state its formation stopped in: moment n does not depend on how
many are formed, so a stored list serves every sum up to its degree, bit
for bit, and a sum of a higher degree resumes the formation where it
stopped, in a new, longer list.  Each entry is formed once per QParam.
A series measure forms its grid sums on every call, in either precision,
and keeps none.

Since M_m(n) vanishes for odd n, parity selects the pairs: when every
degree of f has one parity and every degree of g the other, every i + j is
odd and the sum is an exact zero.  Double precision returns that zero
without forming moments or entering a context, provided every coefficient
of f is finite; a NaN or infinite one gives NaN in the full sum (NaN*0 and
inf*0 are quiet NaNs in the private context), while a coefficient of g
never enters it.  High precision forms the full sum, whose Decimal zero
carries an exponent set by the coefficients.
"""

from __future__ import annotations

import decimal
import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat, tee
from operator import add, mul
from typing import NamedTuple

from .angular import AngularFunction
from .qcore import QParam, _check_integers, _in_private_context, qnum

# series_convergence_probe reports the partial sum at each grid depth here.
PROBE_DEPTHS = (10, 25, 50, 100, 200, 400)
# The double nearest pi, exactly (from_float leaves the caller's context
# unflagged): the double-precision sums' 2 pi factor.
_PI = decimal.Decimal.from_float(math.pi)


@dataclass(frozen=True)
class QMeasure:
    """The deformed measure on (-1, 1): the closed form, or with a
    `series_depth` the grid sum truncated at that depth.

    The series only exists for 0 < q < 1, where the geometric grid q**k
    lies inside (0, 1).
    """

    p: QParam
    series_depth: int | None = None

    def __post_init__(self):
        if self.series_depth is not None:
            _check_integers(1, series_depth=self.series_depth)
            if not self.p.q < 1:
                raise ValueError("series mode requires 0 < q < 1")


def _running_sums(ns, q, m: int = 0):
    """Grid sums over (0, 1) of x**n times the winding weight w_m, one for
    each n in ns, for a Decimal 0 < q < 1, in the context entered: an
    iterator of the tuples of sums over k < D for D = 0, 1, 2, ... without
    end.

    At grid point k the weight is pref_m prod_{i<m} (1 - q**(4(k-i))) for
    m >= 0, exactly zero for k < m, and pref_m prod_{i<|m|}
    (1 - q**(4(k+i+1))) for m < 0.  w_0 = 1.  Powers of q are taken only
    to seed the walk, which then runs by products.  With c = 1 - q**2,
    pref_m = (1 + q**2)**-m for m > 0 and (q**2 / (1 + q**2))**|m| for
    m < 0, and 1 - q**(4j) = (1 - q**4) h_j with h_j = 1 + q**4 + ... +
    q**(4(j-1)), the term of degree n at the s-th weighted point k
    (s = k - m for m > 0, s = k otherwise) is

        q**((2k+1)n + 2k) c b**|m| prod_{j=s+1..s+|m|} h_j,

    with b = c for m >= 0 and b = c q**2 for m < 0.  Each degree's first
    factor advances by one product with q**(2n+2) per point, h_{j+1} is
    1 + q**4 h_j, and only the |m| latest h_j are kept.  c is formed as
    (1 - q)(1 + q) and every other quantity is a product or sum of positive
    numbers, so nothing cancels, where q**(2k) - q**(2k+2) and
    1 - q**(4j) would lose the digits that q**2 and q**(4j) share with 1.
    Each degree's terms and sums are chained accumulations, so a step of
    an unwound walk (m = 0) runs no Python code.
    """
    a, skip = abs(m), max(m, 0)
    q2 = q * q
    c = (1 - q) * (1 + q)
    scale = c * (c if m >= 0 else c * q2) ** a
    zero = 0 * q
    weights = tee(_winding_products(q, a), len(ns)) if a else repeat(None)

    def column(n, w):
        terms = accumulate(repeat(q2 ** (n + 1)), mul, initial=q ** (n + skip * (2 * n + 2)) * scale)
        return accumulate(terms if w is None else map(mul, terms, w), add, initial=zero)

    return chain(repeat((zero,) * len(ns), skip), zip(*map(column, ns, weights)))


def _winding_products(q, a: int):
    """prod_{j=s+1..s+a} h_j for s = 0, 1, 2, ..., with h_1 = 1 and
    h_{j+1} = 1 + q**4 h_j: the winding factors of _running_sums."""
    q4, hs = q ** 4, deque([1], maxlen=a)
    while len(hs) < a:
        hs.append(1 + q4 * hs[-1])
    while True:
        yield math.prod(hs)
        hs.append(1 + q4 * hs[-1])


def _halfline_series(ns, q, depth: int, m: int = 0) -> tuple:
    """The depth-`depth` sums of _running_sums."""
    return next(islice(_running_sums(ns, q, m), depth, None))


def _over_qnum(c, k: int, p: QParam):
    """c/[k], falling back to c b**k (1/b - b) / (1 - b**(2k)) with
    b = min(q, 1/q) when [k] overflows: formed at the exact Decimal q in
    the private context and rounded once, the value, or 0 once it
    underflows, in either precision."""
    try:
        return c / qnum(k, p)
    except (OverflowError, decimal.Overflow):
        b = min(p._q, 1 / p._q)
        return p.number(c * b ** k * (1 / b - b) / (1 - b ** (2 * k)))


@_in_private_context
def integrate_monomial(n: int, mu: QMeasure):
    """Integral of x0**n over (-1, 1): (1 + (-1)**n)/[n+1].

    Odd n vanishes by the parity phase of the negative half-line; even n
    doubles the half-line value.
    """
    _check_integers(0, n=n)
    n = int(n)
    p = mu.p
    if n % 2 == 1:
        return p.zero
    if mu.series_depth is not None:
        return p.number(2 * _halfline_series([n], p._q, mu.series_depth)[0])
    return _over_qnum(2, n + 1, p)


def _moments(m: int, nmax: int, b, table: dict | None = None, key=None) -> list:
    """M_m(n) for n = 0..nmax at q = b <= 1, in the number type of b; the
    moments at q > 1 are those of -m at b = 1/q (see the module docstring).

    Without a table the list is formed from empty and is the caller's.
    With one, formation resumes from the entry table[key] when there is
    one, and the call stores (moments, h, lead, step, b2) there in one
    assignment: the list, h[k] = 1 + b**2 + ... + b**(2k-2) = [k] b**(k-1),
    the numerator of the next even entry, the factor that advances it and
    b**2, plain numbers and lists.  Only the entries past the stored list
    are formed, by the operations a fresh formation runs for them, in the
    same order, so each entry has the bits it has in a fresh list.  The
    stored list and h are copied before they grow, so a list returned
    earlier never changes.
    """
    mu = abs(m)
    kept = table.get(key) if table is not None else None
    if kept is None:
        kept = [], [0 * b, b ** 0], None, b ** (2 * (mu + 1 + m)), b * b
    moments, h, lead, step, b2 = kept
    moments, h = moments[:], h[:]
    while len(h) < nmax + 2 * mu + 2:
        h.append(h[-1] * b2 + 1)
    if lead is None:  # a fresh start, now that h reaches h[2 mu]
        lead = 2 * b ** (2 * mu)
        for i in range(1, mu + 1):
            lead = lead * h[2 * i] / h[2]
    for n in range(len(moments), nmax + 1):
        if n % 2:
            moments.append(h[0])  # 0 * b
            continue
        den = h[n + 1]
        for j in range(1, mu + 1):
            den = den * h[n + 1 + 2 * j]
        moments.append(lead / den)
        lead = lead * step
    if table is not None:
        table[key] = moments, h, lead, step, b2
    return moments


def _pair_sum(x: dict, y: dict, moments: list):
    """sum_{i,j} x_i y_j M(i+j), skipping the vanishing odd moments."""
    total = 0
    for i, xi in x.items():
        row = 0
        for j, yj in y.items():
            if not (i + j) % 2:
                row += yj * moments[i + j]
        total += xi * row
    return total


def _sum_moments(mu: QMeasure, m: int, nmax: int) -> list:
    """The weighted moments M_m(n), n = 0..nmax at least, of the measure:
    Decimals formed in the private context at p._q, in either precision.

    A series measure's depth-D grid sums are formed on every call.  The
    closed form is read from and kept in the table of p under
    ("moments", m): one list per winding, whatever the operands of the sums
    that read it.  Entry n of _moments does not depend on nmax, so a stored
    list of at least nmax + 1 entries serves as it is, and a shorter one
    grows into a new, longer list: each entry is formed once per QParam.
    """
    p, q = mu.p, mu.p._q
    if mu.series_depth is not None:
        even = _halfline_series(range(0, nmax + 1, 2), q, mu.series_depth, m)
        return [0 * q if n % 2 else 2 * even[n // 2] for n in range(nmax + 1)]
    key = ("moments", m)
    kept = p._table.get(key)
    if kept is not None and len(kept[0]) > nmax:
        return kept[0]
    return _moments(-m, nmax, 1 / q, p._table, key) if q > 1 else _moments(m, nmax, q, p._table, key)


class _Operand(NamedTuple):
    """What a sum reads of one function.  A high-precision operand holds
    only its coefficients and degree: the facts after them serve the double
    precision parity exit alone, and keep their defaults."""

    coeffs: dict  # {k: a_k}, every a_k nonzero, in the sum's number type
    degree: int
    finite: bool = True  # every coefficient is finite
    # 0 when every degree is even, 1 when every one is odd, 2 when mixed:
    # two functions are of opposite parity exactly when theirs sum to 1
    parity: int = 2


def _operand(h: AngularFunction) -> _Operand:
    """The sum operand of h, formed from its coefficients on first use and
    kept in h._operand: a function never changes, and the operand refers to
    nothing but numbers, so it lives and dies with h."""
    if h._operand is None:
        object.__setattr__(h, "_operand", _form_operand(h.coeffs, h.p))
    return h._operand


@_in_private_context
def _form_operand(c: Mapping, p: QParam) -> _Operand:
    """The _Operand of the coefficients c of a function at p, converted in
    the private context, so that the caller's context sees no float
    conversion: as v * p.one, which rounds at 62 digits, in high precision,
    and exactly to Decimal in double precision."""
    if p.is_high:
        return _Operand({k: v * p.one for k, v in c.items()}, max(c))
    coeffs = {k: decimal.Decimal(v) for k, v in c.items()}
    parities = {k % 2 for k in c}
    return _Operand(
        coeffs=coeffs,
        degree=max(c),
        finite=all(v.is_finite() for v in coeffs.values()),
        parity=parities.pop() if len(parities) == 1 else 2,
    )


@_in_private_context
def _operand_sum(mu: QMeasure, m: int, a: _Operand, b: _Operand) -> decimal.Decimal:
    """2 pi sum a_i b_j M_m(i+j) over the operands a of f and b of g, a
    Decimal summed in the private 62-digit context in either precision."""
    p = mu.p
    moments = _sum_moments(mu, m, a.degree + b.degree)
    pi = p.pi if p.is_high else _PI
    return 2 * pi * _pair_sum(a.coeffs, b.coeffs, moments)


def inner_product(f: AngularFunction, g: AngularFunction, mu: QMeasure):
    """Hermitian inner product of two functions with real coefficients:
    a float in double precision, a Decimal in high precision.

    Zero for unequal windings (exact angle integral); otherwise
    2 pi sum_{i,j} a_i b_j M_m(i+j) over the coefficients a of f and b of
    g, with the closed-form weighted moments M_m(n) of the module
    docstring (or, for a series measure, their depth-D grid sums).

    Both precisions form the moments and the sum in decimal, in the private
    62-digit context.  In double precision coefficients convert exactly,
    once per function, in its first sum (see _operand), and the sum is
    rounded to a double once.  A pair of opposite parity (every degree of f
    even and every degree of g odd, or the reverse) returns the exact zero
    of that sum, 0.0, without forming it, unless a coefficient of f is NaN
    or infinite, which makes the sum NaN.  In high precision the sum is
    formed in the QParam's Decimal arithmetic from the same kept operands,
    opposite-parity pairs included: the Decimal zero's exponent depends on
    the coefficients, and callers may compare it digit by digit.
    """
    p = mu.p
    if f.p is not p and f.p != p or g.p is not p and g.p != p:
        raise ValueError("function and measure must share the deformation parameter")
    if f.m != g.m or f.is_zero or g.is_zero:
        return p.zero
    a, b = _operand(f), _operand(g)
    if p.is_high:
        return _operand_sum(mu, f.m, a, b)
    if a.parity + b.parity == 1 and a.finite:
        return 0.0  # every i + j is odd; a non-finite a_i would make the sum nan
    return float(_operand_sum(mu, f.m, a, b))


@dataclass(frozen=True)
class ConvergenceProbe:
    n: int
    q: float
    limit: float
    rows: tuple
    depth_for_1e12: int | None


@_in_private_context
def series_convergence_probe(n: int, p: QParam) -> ConvergenceProbe:
    """Partial sums of the discrete half-line integral versus 1/[n+1], one
    at each depth of PROBE_DEPTHS.

    Only defined for 0 < q < 1.  Also reports the first depth, up to
    100000, at which the partial sum is within 1e-12 of the closed form.
    One pass over the grid serves both.  The degree n is a nonnegative
    integer, by integrate_monomial's rule, in either precision; any other
    raises ValueError naming it.
    """
    _check_integers(0, n=n)
    n = int(n)
    if not p.q < 1:
        raise ValueError("convergence probe requires 0 < q < 1")
    cap = 100000
    want = list(PROBE_DEPTHS)
    rows = []
    hit = None
    limit = _over_qnum(1, n + 1, p)
    # The walk and the comparison run in Decimal: the double limit converts
    # exactly, and so does the 1e-12 gate.  The sums never decrease (every
    # term is positive), and one at or below `floor`, a number below
    # exact - 2 gate whatever the rounding, is not within the gate of
    # exact, so only a sum above it is compared.
    exact, gate = decimal.Decimal(limit), decimal.Decimal(1e-12)
    floor = (exact - 2 * gate).next_minus()
    for d, (s,) in enumerate(_running_sums([n], p._q)):
        while want and want[0] <= d:
            rows.append((want.pop(0), float(s), float(abs(s - exact))))
        if hit is None and s > floor and 0 < d <= cap and abs(s - exact) < gate:
            hit = d
        if not want and (hit is not None or d >= cap):
            break
    return ConvergenceProbe(n=n, q=float(p.q), limit=float(limit), rows=tuple(rows), depth_for_1e12=hit)
