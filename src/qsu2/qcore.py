"""q-number arithmetic and closed-form invariant eigenvalues.

Everything downstream (harmonics, operator matrices, spectra) consumes the
helpers in this module, the argument rules among them: reals (q,
coefficients, tolerances), integers with an optional lower bound,
harmonic labels and spherical components are each checked, and refused
in one form, by one helper here.  The deformation
parameter q is a positive real and every quantity is symmetric under
q -> 1/q.  At q = 1 a q-number is formed by an exact branch, so classical
values come out bitwise exact rather than as 0/0 limits evaluated a
rounding error away.

Two numeric backends are supported per ``QParam``: plain double precision
(floats) and a high precision mode on the stdlib ``decimal`` module at 62
significant digits, with no exponent limit.  The high mode exists for
oracle runs: identity residuals that are pure rounding noise drop by many
orders of magnitude there, residuals that stay put are real.  Both form
lambda, q**e and [n] at 62 digits from the exact q, and double precision
rounds each once (``QParam.number``): a double result depends only on IEEE
arithmetic and sqrt, libmpdec and CPython's float parse and repr.  That is
a second rounding, so a value within about 1e-62 relative of a binary
midpoint can land one ulp from the exactly rounded double: 2/[1075] at
q = 0.5 gives 5e-324 where exact rounding gives 1e-323.  Decimal
arithmetic rounds at the calling thread's context, and this module is the
only one that knows it: every public function and method that computes is
decorated with ``_in_private_context``, which installs one private context
for the call and the caller's own one afterwards, in either precision, so
results do not depend on the caller's context, in any thread, and that
context is the same after the call.  An outermost call pays for the swap;
a call made inside the private context pays one identity test.  The
private context is built once, when this module is imported, so a
``QParam`` made in any way, an unpickled one included, finds it ready;
importing the package loads no third-party module.

Every identity downstream is built from a handful of q-numbers [n] and
integer powers q**e, so each ``QParam`` keeps a private table of them,
filled on first use: ``qnum(n, p)`` for integer n, ``p.power(e)`` and
``_sqrt2(p)``, the square root of [2] every ladder step takes, read it.
The same table keeps what the harmonics and the inner product share
at one q: ``angular.build_y`` stores each harmonic's coefficients, and
``jackson.inner_product`` the closed-form weighted moments of each
winding.  A table entry is the value the direct computation gives, bit
for bit, and never refers to its ``QParam``: entries are numbers,
coefficient dicts and lists of numbers, so a ``QParam`` is freed by
reference counting, with no cycle for the collector.  The table is not
part of equality, hashing or the repr, and it lives and dies with its
``QParam``, so nothing is shared between parameters or calls, and no
module keeps a memo of its own.
"""

from __future__ import annotations

import decimal
import math
import numbers
from dataclasses import dataclass, field
from functools import wraps

DOUBLE = "double"
HIGH = "high"

# 62 decimal digits hold the 203 bits that 60 significant digits take in binary
HIGH_PRECISION_DIGITS = 62
# pi to 80 significant digits, rounded to HIGH_PRECISION_DIGITS in _HIGH_PI
_PI_DIGITS = "3.1415926535897932384626433832795028841971693993751058209749445923078164062862090"

# The private high-precision context.  Its exponent range is the widest
# decimal allows, so high precision has no practical range limit.  Division
# by zero and overflow raise; an invalid operation gives a quiet NaN, as in
# floats, so that an ordering comparison with a NaN is false instead of
# raising and a NaN fails its verification row the way it does in double
# precision.  Rounding is half-even whatever decimal.DefaultContext says.
_CTX = decimal.Context(
    prec=HIGH_PRECISION_DIGITS, rounding=decimal.ROUND_HALF_EVEN, Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN, traps=[decimal.DivisionByZero, decimal.Overflow],
)
_HIGH_PI = _CTX.plus(decimal.Decimal(_PI_DIGITS))


def _in_private_context(f):
    """Decorator: f computes in the private context, and the caller's own
    context is installed again afterwards, also when f raises.

    The private context is installed itself, not a copy, so that a call
    made inside it is told by one identity test and runs f directly.
    Nothing inside changes its settings, and its flags, shared by every
    call, are never read.  The decorator reads nothing of f's arguments,
    so it fits any signature.
    """
    getcontext, setcontext = decimal.getcontext, decimal.setcontext

    @wraps(f)
    def run(*args, **kwargs):
        saved = getcontext()
        if saved is _CTX:
            return f(*args, **kwargs)
        setcontext(_CTX)
        try:
            return f(*args, **kwargs)
        finally:
            setcontext(saved)

    return run


@dataclass(frozen=True)
class QParam:
    """Deformation parameter q with lambda = q - 1/q cached alongside.

    q is a positive real by the real rule of ``_check_reals``: an int (not
    a bool), a float or a Decimal with 0 < q < inf; any other, a Fraction,
    a numpy integer, a string or a complex number included, raises
    ValueError in both precisions.  Complex values and roots of unity are
    rejected because the hermiticity assignments used by the operator
    realizations require real q.  In double precision a q outside the
    double range raises OverflowError naming it: one that rounds to 0 or
    inf as a double (10**400, Decimal("1E-400")), and one below 1/DBL_MAX
    (about 5.6e-309), whose 1/q overflows.

    ``is_high`` selects the numeric backend, floats or Decimals, and ``one``
    and ``zero`` are its unit and zero.  The private ``_table`` holds,
    each filled on first use and invisible to equality, hashing and the
    repr:

    * ``("pow", e)``: the integer power q**e, by ``power``;
    * ``("qnum", n)``: the q-number [n] for integer n, by ``qnum``;
    * ``("sqrt2",)``: the square root of [2], the factor of every ladder
      step, by ``_sqrt2``;
    * ``("y", l, m)``: the coefficient dict of the harmonic Y_lm, by
      ``angular.build_y``, which returns a copy;
    * ``("moments", m)``: the closed-form weighted moments M_m(n),
      n = 0..nmax, of winding m in the sum's number type, formed in the
      private context by ``jackson.inner_product``, with the numbers and
      lists their formation resumes from: a later call of a higher
      degree stores a new, longer list that forms only the entries past
      the old one, which stays as it was.

    No value refers back to the ``QParam``: a function or any object that
    holds it would make a reference cycle, which only the cyclic collector
    frees.
    """

    q: float
    precision: str = DOUBLE
    lam: float = field(init=False, compare=False)
    is_high: bool = field(init=False, compare=False, repr=False)
    one: float = field(init=False, compare=False, repr=False)
    zero: float = field(init=False, compare=False, repr=False)
    # q exactly and lambda at 62 digits, as Decimals, in either precision
    _q: decimal.Decimal = field(init=False, compare=False, repr=False)
    _lam: decimal.Decimal = field(init=False, compare=False, repr=False)
    _table: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    @_in_private_context
    def __post_init__(self):
        """q as a number of the backend, and lam, one and zero formed from it."""
        if self.precision not in (DOUBLE, HIGH):
            raise ValueError(f"unknown precision {self.precision!r}")
        object.__setattr__(self, "is_high", self.precision == HIGH)
        _check_reals(True, q=self.q)
        # Decimal() is exact for every real, and float() rounds it once
        q = decimal.Decimal(self.q) if self.is_high else float(decimal.Decimal(self.q))
        if not 0 < q < math.inf:  # a q that is 0 or inf as a double
            raise OverflowError(f"q={self.q!r} lies outside the double range [1/DBL_MAX, DBL_MAX]")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_q", decimal.Decimal(q))
        object.__setattr__(self, "_lam", self._q - 1 / self._q)
        try:
            object.__setattr__(self, "lam", self.number(self._lam))
        except OverflowError:  # q < 1/DBL_MAX, a subnormal double: 1/q overflows
            raise OverflowError(f"1/q overflows in double precision at q={q}") from None
        object.__setattr__(self, "one", self.number(1))
        object.__setattr__(self, "zero", 0 * self.one)

    @property
    def is_one(self) -> bool:
        return self.q == 1

    @property
    def pi(self):
        return _HIGH_PI if self.is_high else math.pi

    def sqrt(self, x):
        """Square root; a negative argument raises ValueError in both
        precisions."""
        if self.is_high:
            root = _CTX.sqrt(x)
            # a NaN root of a number that is not NaN: x was negative
            if root != root and x == x:
                raise ValueError("math domain error")
            return root
        return math.sqrt(x)

    def number(self, x):
        """The int, float or Decimal x as a number of the backend: exactly a
        Decimal in high precision, a float rounded once in double precision,
        where a finite x that rounds to +-inf raises OverflowError."""
        if self.is_high:
            return decimal.Decimal(x)
        v = float(x)
        if math.isinf(v) and decimal.Decimal(x).is_finite():
            raise OverflowError(f"{x:.6g} lies outside the double range")
        return v

    @_in_private_context
    def reciprocal(self) -> "QParam":
        return QParam(1 / self.q, self.precision)

    def power(self, e: int):
        """q**e for an integer e, from the table; an overflow is raised and
        not stored."""
        key = ("pow", e)
        try:
            return self._table[key]
        except KeyError:
            val = self._table[key] = _rounded(self, lambda q: q ** e)
            return val


def _check_integers(low=None, **args):
    """The rule for every integer argument of the library: raise ValueError
    naming the first argument that is not an integer or, with low, lies
    below low.  A bool, a float of integral value, inf and NaN are not
    integers; an int, or any other numbers.Integral, is."""
    for name, v in args.items():
        if type(v) is int and (low is None or v >= low):
            continue
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        if low is not None and v < low:
            raise ValueError(f"{name} must be at least {low}, got {v!r}")


def _check_label(l, m, nonneg: bool = False) -> tuple:
    """The rule for a harmonic label: (l, m) as ints, integers both with
    |m| <= l, and with nonneg also m >= 0; any other raises ValueError
    naming it."""
    if type(l) is not int or type(m) is not int:
        _check_integers(l=l, m=m)
        l, m = int(l), int(m)
    if not (0 if nonneg else -l) <= m <= l:
        raise ValueError(f"label needs {'0' if nonneg else '-l'} <= m <= l, got (l={l}, m={m})")
    return l, m


def _check_component(k) -> int:
    """The rule for a spherical component index: k as an int, an integer
    that is +1, 0 or -1; any other raises ValueError naming it."""
    if type(k) is not int:
        _check_integers(k=k)
        k = int(k)
    if k not in (1, 0, -1):
        raise ValueError(f"k must be one of +1, 0, -1, got {k}")
    return k


def _check_reals(positive: bool = False, **args):
    """The rule for every real argument of the library: raise ValueError
    naming the first argument that is not a real or, with positive, does
    not lie in (0, inf).  A real is an int (not a bool), a float or a
    Decimal, exactly the types decimal.Decimal() converts without loss,
    but not a signaling-NaN Decimal: float() cannot convert one and every
    comparison or sum of it is an invalid operation.  A quiet Decimal NaN
    compares quietly only in the private context."""
    for name, v in args.items():
        if (isinstance(v, bool) or not isinstance(v, (int, float, decimal.Decimal))
                or isinstance(v, decimal.Decimal) and v.is_snan()):
            raise ValueError(f"{name} must be a real number (an int, a float or a Decimal), got {v!r}")
        if positive and not 0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v!r}")


def qnum(n, p: QParam):
    """Symmetric q-number (q**n - q**-n)/(q - 1/q); equals n when q = 1.

    n may be an int, a float or a Decimal; the function is odd in n and
    invariant under q -> 1/q.  Integer n is read from the table of p,
    filled on first use; an overflow is raised and not stored.
    """
    if type(n) is not int:
        return _qnum(n, p)
    key = ("qnum", n)
    try:
        return p._table[key]
    except KeyError:
        val = p._table[key] = _qnum(n, p)
        return val


def _sqrt2(p: QParam):
    """The square root of [2], p.sqrt(qnum(2, p)), from the table of p,
    filled on first use; an overflow is raised and not stored."""
    key = ("sqrt2",)
    try:
        return p._table[key]
    except KeyError:
        val = p._table[key] = p.sqrt(qnum(2, p))
        return val


def _qnum(n, p: QParam):
    n = decimal.Decimal(n) if isinstance(n, float) else n
    return _rounded(p, lambda q: n * q ** 0 if p.is_one else (q ** n - q ** -n) / p._lam)


@_in_private_context
def _rounded(p: QParam, form):
    """form(q) at the exact Decimal q, as p.number rounds it; in double
    precision one past decimal's own range raises OverflowError too."""
    try:
        return p.number(form(p._q))
    except decimal.Overflow:
        if p.is_high:
            raise
        raise OverflowError("a power of q lies outside the double range") from None


@_in_private_context
def qfactorial(n: int, p: QParam):
    """[n]! = [n][n-1]...[1] with the empty-product convention [0]! = 1."""
    _check_integers(0, n=n)
    out = p.one
    for k in range(1, int(n) + 1):
        out = out * qnum(k, p)
    return out


@_in_private_context
def qdouble_factorial(n: int, p: QParam):
    """[n]!! = [n][n-2]... with [0]!! = [-1]!! = 1; rejects n < -1."""
    _check_integers(-1, n=n)
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


@_in_private_context
def invariants(l: int, p: QParam) -> InvariantSet:
    """Eigenvalues C = [l][l+1], C' = [2l][2l+2]/[2]**2 and the third
    invariant c = (q**(2l+1) + q**(-2l-1))/[2].

    All three are invariant under q -> 1/q.  At q = 1 they reduce to the
    classical l(l+1), l(l+1) and 1 exactly, since [n] is exactly n there.
    The l = 0 values are emitted exactly (0, 0, 1) so that downstream l = 0
    results are bitwise q-independent.
    """
    _check_integers(0, l=l)
    l = int(l)
    if l == 0:
        return InvariantSet(l=0, C=p.zero, Cprime=p.zero, c=p.one)
    two = qnum(2, p)
    C = qnum(l, p) * qnum(l + 1, p)
    Cprime = qnum(2 * l, p) * qnum(2 * l + 2, p) / (two * two)
    c = (p.power(2 * l + 1) + p.power(-2 * l - 1)) / two
    return InvariantSet(l=l, C=C, Cprime=Cprime, c=c)
