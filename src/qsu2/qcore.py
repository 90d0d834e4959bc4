"""q-number arithmetic and closed-form invariant eigenvalues.

Everything downstream (harmonics, operator matrices, spectra) consumes the
helpers in this module.  The deformation parameter q is a positive real and
every quantity is symmetric under q -> 1/q.  The q = 1 point is handled by
exact branches, so classical values come out bitwise exact rather than as
0/0 limits evaluated a rounding error away.

Two numeric backends are supported per ``QParam``: plain double precision
(floats) and an mpmath-backed high precision mode (>= 50 significant
digits).  The high mode exists for oracle runs: identity residuals that are
pure rounding noise drop by many orders of magnitude there, residuals that
stay put are real.  Its numbers come from a private mpmath context, built
when the first high-precision ``QParam`` is, so double precision never
imports mpmath and ``mpmath.mp`` is never touched.

Every identity downstream is built from a handful of q-numbers [n] and
integer powers q**e, so each ``QParam`` keeps a private table of them,
filled on first use: ``qnum(n, p)`` for integer n and ``p.power(e)`` read
it, and the unit and zero of the backend are formed once, at construction.
A table entry is the value the direct formula gives, bit for bit; the
table is not part of equality, hashing or the repr, and it lives and dies
with its ``QParam``, so nothing is shared between parameters or calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

DOUBLE = "double"
HIGH = "high"

HIGH_PRECISION_DPS = 60


@cache
def _mp():
    """The private high-precision context, built on first use: being private,
    it leaves the process-wide mpmath.mp settings alone; being lazy, it keeps
    mpmath out of double-precision runs."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = HIGH_PRECISION_DPS
    return ctx


@dataclass(frozen=True)
class QParam:
    """Deformation parameter q with lambda = q - 1/q cached alongside.

    q must be a positive real; complex values and roots of unity are
    rejected at construction because the hermiticity assignments used by
    the operator realizations require real q.

    ``one`` and ``zero`` are the unit and zero of the numeric backend.  The
    private ``_table`` holds the integer powers q**e (key ``("pow", e)``)
    and q-numbers [n] (key ``("qnum", n)``) evaluated so far; it is filled
    on first use by ``power`` and ``qnum`` and is invisible to equality,
    hashing and the repr.
    """

    q: float
    precision: str = DOUBLE
    lam: float = field(init=False, compare=False)
    one: float = field(init=False, compare=False, repr=False)
    zero: float = field(init=False, compare=False, repr=False)
    _table: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.precision not in (DOUBLE, HIGH):
            raise ValueError(f"unknown precision {self.precision!r}")
        try:
            if self.precision == HIGH:
                q = _mp().mpf(self.q)
                ok = _mp().isfinite(q) and q > 0
            else:
                q = float(self.q)
                ok = math.isfinite(q) and q > 0
        except (TypeError, ValueError):
            raise ValueError(f"q must be a positive real number, got {self.q!r}") from None
        if not ok:
            raise ValueError(f"q must be a positive real number, got {self.q!r}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "lam", q - 1 / q)
        object.__setattr__(self, "one", q ** 0)
        object.__setattr__(self, "zero", 0 * self.one)

    @property
    def is_one(self) -> bool:
        return self.q == 1

    @property
    def is_high(self) -> bool:
        return self.precision == HIGH

    @property
    def pi(self):
        return +_mp().pi if self.is_high else math.pi

    @property
    def coeff_tol(self) -> float:
        """Absolute tolerance for coefficient-level identity checks."""
        return 1e-30 if self.is_high else 1e-10

    def sqrt(self, x):
        if self.is_high:
            return _mp().sqrt(x)
        return math.sqrt(x)

    def reciprocal(self) -> "QParam":
        return QParam(1 / self.q, self.precision)

    def power(self, e: int):
        """q**e for an integer e, from the table; an overflow is raised and
        not stored."""
        key = ("pow", e)
        try:
            return self._table[key]
        except KeyError:
            val = self._table[key] = self.q ** e
            return val


def qnum(n, p: QParam):
    """Symmetric q-number (q**n - q**-n)/(q - 1/q); equals n when q = 1.

    n may be any real; the function is odd in n and invariant under
    q -> 1/q.  Integer n is read from the table of p, filled on first use;
    an overflow is raised and not stored.
    """
    if type(n) is not int:
        return _qnum(n, p)
    key = ("qnum", n)
    try:
        return p._table[key]
    except KeyError:
        val = p._table[key] = _qnum(n, p)
        return val


def _qnum(n, p: QParam):
    if p.is_one:
        return n * p.one
    return (p.q ** n - p.q ** (-n)) / p.lam


def qnum_base2(e2, p: QParam):
    """q-number with base q**2 evaluated at half-index e2/2.

    The argument is twice the index so that all exponents stay integral:
    qnum_base2(2*x, p) is the base-q**2 q-number of x.  Used by the
    terminating hypergeometric series, whose parameters are half-integers.
    """
    if p.is_one:
        return e2 / 2 * p.one
    q2 = p.q * p.q
    return (p.power(e2) - p.power(-e2)) / (q2 - 1 / q2)


def qfactorial(n: int, p: QParam):
    """[n]! = [n][n-1]...[1] with the empty-product convention [0]! = 1."""
    if n != int(n) or n < 0:
        raise ValueError(f"q-factorial requires an integer n >= 0, got {n!r}")
    out = p.one
    for k in range(1, int(n) + 1):
        out = out * qnum(k, p)
    return out


def qdouble_factorial(n: int, p: QParam):
    """[n]!! = [n][n-2]... with [0]!! = [-1]!! = 1; rejects n < -1."""
    if n != int(n) or n < -1:
        raise ValueError(f"q-double-factorial requires an integer n >= -1, got {n!r}")
    out = p.one
    k = int(n)
    while k >= 1:
        out = out * qnum(k, p)
        k -= 2
    return out


@dataclass(frozen=True)
class InvariantSet:
    """Closed-form eigenvalues of the three commuting invariants at label l."""

    l: int
    C: float
    Cprime: float
    c: float


def invariants(l: int, p: QParam) -> InvariantSet:
    """Eigenvalues C = [l][l+1], C' = [2l][2l+2]/[2]**2 and the third
    invariant c = (q**(2l+1) + q**(-2l-1))/[2].

    All three are invariant under q -> 1/q.  At q = 1 they reduce to the
    classical l(l+1), l(l+1) and 1.  The l = 0 values are emitted exactly
    (0, 0, 1) so that downstream l = 0 results are bitwise q-independent.
    """
    if l != int(l) or l < 0:
        raise ValueError(f"l must be a nonnegative integer, got {l!r}")
    l = int(l)
    one = p.one
    if l == 0:
        return InvariantSet(l=0, C=p.zero, Cprime=p.zero, c=one)
    if p.is_one:
        cl = l * (l + 1) * one
        return InvariantSet(l=l, C=cl, Cprime=cl, c=one)
    two = qnum(2, p)
    C = qnum(l, p) * qnum(l + 1, p)
    Cprime = qnum(2 * l, p) * qnum(2 * l + 2, p) / (two * two)
    c = (p.power(2 * l + 1) + p.power(-2 * l - 1)) / two
    return InvariantSet(l=l, C=C, Cprime=Cprime, c=c)
