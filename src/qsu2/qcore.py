"""q-number arithmetic and closed-form invariant eigenvalues.

Everything downstream (harmonics, operator matrices, spectra) consumes the
helpers in this module.  The deformation parameter q is a positive real and
every quantity is symmetric under q -> 1/q.  The q = 1 point is handled by
exact branches, so classical values come out bitwise exact rather than as
0/0 limits evaluated a rounding error away.

Two numeric backends are supported per ``QParam``: plain double precision
(floats) and a high precision mode on the stdlib ``decimal`` module at 62
significant digits, with no exponent limit.  The high mode exists for
oracle runs: identity residuals that are pure rounding noise drop by many
orders of magnitude there, residuals that stay put are real.  Decimal
arithmetic rounds at the calling thread's context, so every public entry
point that computes in high precision runs under ``_high_context(p)``,
which installs one private context for the call and the caller's own one
afterwards: results do not depend on the caller's context, and that
context is the same after the call.  Double precision pays nothing for
this on its hot paths (see ``_high_context``).  ``decimal`` is imported
when the first high-precision ``QParam`` is built (or by the first
double-precision inner product, see ``jackson``), so importing the package
loads neither it nor any third-party module.

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
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache

DOUBLE = "double"
HIGH = "high"

# 62 decimal digits hold the 203 bits that 60 significant digits take in binary
HIGH_PRECISION_DIGITS = 62
# pi to 80 significant digits, rounded to HIGH_PRECISION_DIGITS on use
_PI_DIGITS = "3.1415926535897932384626433832795028841971693993751058209749445923078164062862090"

_NO_CONTEXT = nullcontext()


@cache
def _decimal():
    """The decimal module, imported on first use so that start-up does not
    pay for it."""
    import decimal

    return decimal


@cache
def _private_context():
    """The private high-precision context, built on first use.

    Its exponent range is the widest decimal allows, so high precision has
    no practical range limit.  Division by zero and overflow raise; an
    invalid operation gives a quiet NaN, as in floats, so that an ordering
    comparison with a NaN is false instead of raising and a NaN fails its
    verification row the way it does in double precision.
    """
    dec = _decimal()
    return dec.Context(
        prec=HIGH_PRECISION_DIGITS, Emax=dec.MAX_EMAX, Emin=dec.MIN_EMIN,
        traps=[dec.DivisionByZero, dec.Overflow],
    )


def _in_high_context() -> bool:
    """Whether the calling thread computes in the private context already."""
    return _decimal().getcontext() is _private_context()


class _HighContext:
    """Installs the private context as the calling thread's decimal context
    for the body, and the caller's own one again afterwards, also when the
    body raises.  The private context is installed itself, not a copy, so
    that ``_in_high_context`` is one identity test; nothing inside changes
    its settings, and its flags, shared by every call, are never read."""

    __slots__ = ("_saved",)

    def __enter__(self):
        dec = _decimal()
        self._saved = dec.getcontext()
        dec.setcontext(_private_context())

    def __exit__(self, *exc):
        _decimal().setcontext(self._saved)


def _high_context(p: "QParam"):
    """``with _high_context(p):`` computes its body in the private context
    when p is high precision; it does nothing in double precision or when
    the thread is in the private context already.

    Functions called many times per verification skip even the no-op
    ``with`` in double precision: they begin with
    ``if p.is_high and not _in_high_context():`` and then call themselves
    again inside ``with _high_context(p):``.
    """
    if p.is_high and not _in_high_context():
        return _HighContext()
    return _NO_CONTEXT


@cache
def _high_pi():
    return _private_context().plus(_decimal().Decimal(_PI_DIGITS))


@dataclass(frozen=True)
class QParam:
    """Deformation parameter q with lambda = q - 1/q cached alongside.

    q must be a positive real; complex values and roots of unity are
    rejected at construction because the hermiticity assignments used by
    the operator realizations require real q.

    ``is_high`` selects the numeric backend, floats or Decimals, and ``one``
    and ``zero`` are its unit and zero.  The private ``_table`` holds the integer powers q**e (key ``("pow", e)``)
    and q-numbers [n] (key ``("qnum", n)``) evaluated so far; it is filled
    on first use by ``power`` and ``qnum`` and is invisible to equality,
    hashing and the repr.
    """

    q: float
    precision: str = DOUBLE
    lam: float = field(init=False, compare=False)
    is_high: bool = field(init=False, compare=False, repr=False)
    one: float = field(init=False, compare=False, repr=False)
    zero: float = field(init=False, compare=False, repr=False)
    _table: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        if self.precision not in (DOUBLE, HIGH):
            raise ValueError(f"unknown precision {self.precision!r}")
        object.__setattr__(self, "is_high", self.precision == HIGH)
        with _high_context(self):
            try:
                # Decimal(float) is exact, as is float(float)
                q = _decimal().Decimal(self.q) if self.is_high else float(self.q)
                ok = q.is_finite() if self.is_high else math.isfinite(q)
            except (TypeError, ValueError, ArithmeticError):
                raise ValueError(f"q must be a positive real number, got {self.q!r}") from None
            if not (ok and q > 0):
                raise ValueError(f"q must be a positive real number, got {self.q!r}")
            object.__setattr__(self, "q", q)
            object.__setattr__(self, "lam", q - 1 / q)
            object.__setattr__(self, "one", q ** 0)
            object.__setattr__(self, "zero", 0 * self.one)

    @property
    def is_one(self) -> bool:
        return self.q == 1

    @property
    def pi(self):
        return _high_pi() if self.is_high else math.pi

    @property
    def coeff_tol(self) -> float:
        """Absolute tolerance for coefficient-level identity checks."""
        return 1e-30 if self.is_high else 1e-10

    def sqrt(self, x):
        """Square root; a negative argument raises ValueError in both
        precisions."""
        if self.is_high:
            root = _private_context().sqrt(x)
            # a NaN root of a number that is not NaN: x was negative
            if root != root and x == x:
                raise ValueError("math domain error")
            return root
        return math.sqrt(x)

    def number(self, x):
        """The int or float x as a number of the backend, exactly: a float
        in double precision, a Decimal in high precision."""
        return _decimal().Decimal(x) if self.is_high else float(x)

    def reciprocal(self) -> "QParam":
        with _high_context(self):
            return QParam(1 / self.q, self.precision)

    def power(self, e: int):
        """q**e for an integer e, from the table; an overflow is raised and
        not stored."""
        key = ("pow", e)
        try:
            return self._table[key]
        except KeyError:
            with _high_context(self):
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
    if p.is_high and not _in_high_context():
        with _high_context(p):
            return _qnum(n, p)
    if isinstance(n, float):
        n = p.number(n)
    if p.is_one:
        return n * p.one
    return (p.q ** n - p.q ** (-n)) / p.lam


def qnum_base2(e2, p: QParam):
    """q-number with base q**2 evaluated at half-index e2/2.

    The argument is twice the index so that all exponents stay integral:
    qnum_base2(2*x, p) is the base-q**2 q-number of x.  Used by the
    terminating hypergeometric series, whose parameters are half-integers.
    """
    if p.is_high and not _in_high_context():
        with _high_context(p):
            return qnum_base2(e2, p)
    if p.is_one:
        return e2 * p.one / 2
    q2 = p.q * p.q
    return (p.power(e2) - p.power(-e2)) / (q2 - 1 / q2)


def qfactorial(n: int, p: QParam):
    """[n]! = [n][n-1]...[1] with the empty-product convention [0]! = 1."""
    if n != int(n) or n < 0:
        raise ValueError(f"q-factorial requires an integer n >= 0, got {n!r}")
    if p.is_high and not _in_high_context():
        with _high_context(p):
            return qfactorial(n, p)
    out = p.one
    for k in range(1, int(n) + 1):
        out = out * qnum(k, p)
    return out


def qdouble_factorial(n: int, p: QParam):
    """[n]!! = [n][n-2]... with [0]!! = [-1]!! = 1; rejects n < -1."""
    if n != int(n) or n < -1:
        raise ValueError(f"q-double-factorial requires an integer n >= -1, got {n!r}")
    if p.is_high and not _in_high_context():
        with _high_context(p):
            return qdouble_factorial(n, p)
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
    if l == 0:
        return InvariantSet(l=0, C=p.zero, Cprime=p.zero, c=p.one)
    with _high_context(p):
        if p.is_one:
            cl = l * (l + 1) * p.one
            return InvariantSet(l=l, C=cl, Cprime=cl, c=p.one)
        two = qnum(2, p)
        C = qnum(l, p) * qnum(l + 1, p)
        Cprime = qnum(2 * l, p) * qnum(2 * l + 2, p) / (two * two)
        c = (p.power(2 * l + 1) + p.power(-2 * l - 1)) / two
    return InvariantSet(l=l, C=C, Cprime=Cprime, c=c)
