"""Fixed-winding angular functions and the deformed ladder operators.

An angular function is stored in normal-ordered form: a winding factor to
the left (the m-th power of the raising unit-sphere component for m >= 0,
of the lowering one for m < 0, phases implicit) and a polynomial in x0 to
the right.  Every operation here is closed on this family:

* products of opposite winding factors are polynomials in x0, so left and
  right multiplication by unit-sphere components stay polynomial;
* the 1/x0 inside the ladder kernels always follows an operator that
  annihilates the constant term, so it acts by exact monomial division;
* raising a negative winding (and lowering a positive one) contracts the
  winding into a product of quadratic factors, and the ladder kernel maps
  that product onto the one an order down times a polynomial: the step
  acts on each monomial in closed form, with no division.

Coefficients and scale factors are reals by qcore's real rule (an int,
a float or a Decimal) in either precision, stored as floats in double
mode and Decimals in high precision mode; any other, a complex one
included, is refused with ValueError in both, since the realizations are
hermitian at real q.  Coefficient keys and the winding m follow the
integer rule, labels the label rule and the component k the component
rule, so a component is an int wherever it is used.  Scalar arithmetic
is routed through QParam, and every public function and method that
computes is decorated with ``qcore._in_private_context``, so it computes
in the private decimal context in either precision, whatever the
caller's context is.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .qcore import QParam, _check_component, _check_integers, _check_label, _check_reals, _in_private_context, qdouble_factorial, qnum


def _nanmax(magnitudes, zero=0.0):
    """Largest of nonnegative values (zero if none), or NaN if any is NaN:
    the builtin max drops a NaN that does not come first, while their sum
    is NaN exactly when one of them is."""
    vals = list(magnitudes)
    total = sum(vals)
    return total if total != total else max(vals, default=zero)


def _coefficient(v, p: QParam, name: str = "coeffs"):
    """v, the argument name, as p.number(v) once the real rule takes it,
    refused past the double range; a number of the backend's own type is
    returned as it is."""
    if type(v) is type(p.one):
        return v
    _check_reals(**{name: v})
    try:
        return p.number(v)
    except OverflowError:
        raise ValueError(f"coefficient {v!r} lies outside the double range") from None


@dataclass(frozen=True, eq=False)
class AngularFunction:
    """Winding index m plus a finite coefficient map k -> a_k for x0**k:
    an immutable value.

    Constructing one validates it: m by the integer rule (stored as an
    int), each key, the power of x0, a nonnegative integer by the same
    rule (stored as an int), and each coefficient a real by the real rule,
    or ValueError names it.
    The nonzero coefficients go into a dict of the function's own, which
    ``degree`` and ``is_zero`` rely on, behind the read-only view
    ``coeffs``: assigning or deleting a key raises TypeError.  A changed
    function is a new one, ``angular_function(p, f.m, {**f.coeffs, k: v})``.
    The functions this module forms from valid ones (scaling, sums, the
    position products, the ladder steps, the harmonic builders) come from
    ``_function``, which checks nothing.  The inner product keeps on each
    function what its sums read of the map (jackson._operand).
    """

    p: QParam
    m: int
    coeffs: Mapping
    # the sum operand, set by jackson._operand; not a dataclass field
    _operand = None

    def __post_init__(self):
        _check_integers(m=self.m)
        object.__setattr__(self, "m", int(self.m))
        for k in self.coeffs:
            _check_integers(0, key=k)
        powers = [(int(k), _coefficient(v, self.p)) for k, v in self.coeffs.items()]
        object.__setattr__(self, "coeffs", MappingProxyType({k: v for k, v in powers if v != 0}))

    def __reduce__(self):
        return _function, (self.p, self.m, self.coeffs.copy())

    @property
    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @_in_private_context
    def scaled(self, s) -> "AngularFunction":
        return _function(self.p, self.m, _pscale(self.coeffs, _coefficient(s, self.p, "s")))

    @_in_private_context
    def __add__(self, other: "AngularFunction") -> "AngularFunction":
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.m != other.m:
            raise ValueError("cannot add functions of different winding")
        return _function(self.p, self.m, _padd(self.coeffs, other.coeffs))

    def __sub__(self, other: "AngularFunction") -> "AngularFunction":
        return self + other.scaled(-1)

    @_in_private_context
    def distance(self, other: "AngularFunction") -> float:
        """Max absolute coefficient difference; infinite for unequal windings
        unless one side is zero, NaN if any coefficient is NaN."""
        if self.m != other.m and not (self.is_zero or other.is_zero):
            return self.p.number(math.inf)
        keys = set(self.coeffs) | set(other.coeffs)
        return _nanmax((abs(self.coeffs.get(k, 0) - other.coeffs.get(k, 0)) for k in keys), self.p.zero)

    @_in_private_context
    def max_abs(self) -> float:
        """Largest |coefficient| (zero if none), NaN if any is NaN."""
        return _nanmax(map(abs, self.coeffs.values()), self.p.zero)


# the constructor under its functional name: angular_function(p, m, {k: a_k})
angular_function = AngularFunction


def _function(p: QParam, m: int, coeffs: Mapping) -> AngularFunction:
    """The function of winding m with the nonzero coefficients of coeffs,
    in a new dict behind a read-only view, formed without the
    constructor's checks: for the results formed from valid functions."""
    f = object.__new__(AngularFunction)
    f.__dict__.update(p=p, m=m, coeffs=MappingProxyType({k: v for k, v in coeffs.items() if v != 0}))
    return f


# ----------------------------- polynomial helpers -----------------------------

def _padd(a: Mapping, b: Mapping) -> dict:
    out = a.copy()
    for k, v in b.items():
        w = out.get(k, 0) + v
        if w == 0:
            out.pop(k, None)
        else:
            out[k] = w
    return out


def _pscale(a: dict, s) -> dict:
    if s == 0:
        return {}
    return {k: s * v for k, v in a.items()}


def _pshift(a: dict, j: int = 1) -> dict:
    return {k + j: v for k, v in a.items()}


def _pdilate(a: dict, p: QParam, e: int) -> dict:
    """Coefficients of P(q**e x0)."""
    return {k: v * p.power(e * k) for k, v in a.items()}


def _qderiv(a: dict, p: QParam, sign: int) -> dict:
    """The ladder kernel (1/x0)(1 - q**(sign*2*N0))/(1 - q**(sign*2)).

    Acts on x0**k as q**(sign*(k-1)) [k] x0**(k-1); the constant term is
    annihilated before the 1/x0 factor applies, so the result is a
    polynomial.  sign = -1 is the raising kernel, sign = +1 the lowering
    one.
    """
    out: dict = {}
    for k, v in a.items():
        if k == 0:
            continue
        out[k - 1] = v * p.power(sign * (k - 1)) * qnum(k, p)
    return out


# ----------------------------- position multiplication -----------------------------

def _mixed_product(coeffs: dict, alpha, p: QParam) -> dict:
    """-(1/[2]) (1 - alpha x0**2) P, the polynomial replacing a mixed
    winding pair commuted through the remaining winding factor."""
    two = qnum(2, p)
    out = _pscale(coeffs, -1 / two)
    return _padd(out, _pscale(_pshift(coeffs, 2), alpha / two))


@_in_private_context
def mul_position(k: int, f: AngularFunction) -> AngularFunction:
    """Left-multiply f by the unit-sphere component with spherical index k.

    k = 0 commutes through the winding factor picking up q**(-2m); k = +/-1
    either extends the winding factor (k*m >= 0) or contracts one mixed pair
    into its polynomial product.
    """
    k = _check_component(k)
    p, m = f.p, f.m
    if k == 0:
        return _function(p, m, _pscale(_pshift(f.coeffs), p.power(-2 * m)))
    if k * m >= 0:
        return _function(p, m + k, f.coeffs)
    return _function(p, m + k, _mixed_product(f.coeffs, p.power(-4 * m - 2 * k), p))


@_in_private_context
def mul_position_right(k: int, f: AngularFunction) -> AngularFunction:
    """Right-multiply f by the unit-sphere component with index k.

    Needed by the noncommutativity checks: the polynomial part is commuted
    through the new factor (dilating its argument by q**(-2k)) before any
    mixed pair is contracted.
    """
    k = _check_component(k)
    p, m = f.p, f.m
    if k == 0:
        return _function(p, m, _pshift(f.coeffs))
    tail = _pdilate(f.coeffs, p, -2 * k)
    if k * m >= 0:
        return _function(p, m + k, tail)
    return _function(p, m + k, _mixed_product(tail, p.power(-2 * k), p))


# ----------------------------- ladder operators -----------------------------

def apply_l0(f: AngularFunction) -> AngularFunction:
    return f.scaled(f.m)


@_in_private_context
def _ladder(f: AngularFunction, s: int) -> AngularFunction:
    """Raising (s = +1) or lowering (s = -1) operator: strip the winding
    factor, apply the ladder kernel to the polynomial part, recreate the
    winding one step along.

    With the step (s*m >= 0) the kernel is the Jackson derivative
    D F(x) = (F(x) - F(Qx))/((1 - Q) x), Q = q**(-2s), of the polynomial
    part P, which takes x0**k to q**(-s(k-1)) [k] x0**(k-1).  Against it
    (j = |m| >= 1) the strip contracts the j mixed pairs into
    (-1/[2])**j Pi_j P, with the winding product
    Pi_j(x) = prod_{t=1..j} (1 - q**(s(4t-2)) x**2), and the recreated
    factor takes (-1/[2])**(j-1) Pi_{j-1} back out.  As
    Pi_j(Qx) = (1 - q**(-2s) x**2) Pi_{j-1}(x) and
    Pi_j(x) = (1 - q**(s(4j-2)) x**2) Pi_{j-1}(x), the quotient
    D(Pi_j P)/Pi_{j-1} needs no division: it takes x0**k to
    q**(-s(k-1)) [k] x0**(k-1) - q**(s(2j-k-1)) [2j+k] x0**(k+1).
    """
    p, m = f.p, f.m
    pref = p.sqrt(qnum(2, p)) * p.power(m)
    poly = _qderiv(f.coeffs, p, -s)
    if s * m < 0:
        j = -s * m
        up = {k + 1: -v * p.power(s * (2 * j - k - 1)) * qnum(2 * j + k, p) for k, v in f.coeffs.items()}
        poly = _pscale(_padd(poly, up), -1 / qnum(2, p))
    return _function(p, m + s, _pscale(poly, pref))


def apply_lplus(f: AngularFunction) -> AngularFunction:
    return _ladder(f, 1)


def apply_lminus(f: AngularFunction) -> AngularFunction:
    return _ladder(f, -1)


@_in_private_context
def apply_lambda(k: int, f: AngularFunction) -> AngularFunction:
    """Components of the vector rebuilt from the generators."""
    k = _check_component(k)
    p = f.p
    if k == 0:
        two = qnum(2, p)
        a = apply_lplus(apply_lminus(f)).scaled(p.q / two)
        b = apply_lminus(apply_lplus(f)).scaled(-1 / (p.q * two))
        return a + b
    g = _ladder(f, k)
    return g.scaled(-k * p.sqrt(1 / qnum(2, p)) * p.power(-g.m))


def apply_c_invariant(f: AngularFunction) -> AngularFunction:
    """The third invariant q**(-2 L0) + lambda Lambda_0 acting on f."""
    p = f.p
    return f.scaled(p.power(-2 * f.m)) + apply_lambda(0, f).scaled(p.lam)


@_in_private_context
def apply_casimir(f: AngularFunction) -> AngularFunction:
    """L- L+ + [L0][L0 + 1] acting on f; eigenvalue [l][l+1] on harmonics."""
    p = f.p
    return apply_lminus(apply_lplus(f)) + f.scaled(qnum(f.m, p) * qnum(f.m + 1, p))


# ----------------------------- harmonic construction -----------------------------

@_in_private_context
def build_phi(l: int, m: int, p: QParam) -> AngularFunction:
    """Unnormalized harmonic polynomial from the two-step recursion.

    a_{k+2} = -q**(-2m) [l-m-k][l+m+k+1] / ([k+1][k+2]) a_k starting from
    a_0 = 1 for even l-m, a_1 = 1 for odd l-m; terminates at k = l-m.
    """
    l, m = _check_label(l, m, nonneg=True)
    k0 = (l - m) % 2
    coeffs = {k0: p.one}
    k = k0
    while k + 2 <= l - m:
        num = qnum(l - m - k, p) * qnum(l + m + k + 1, p)
        den = qnum(k + 1, p) * qnum(k + 2, p)
        coeffs[k + 2] = -p.power(-2 * m) * num / den * coeffs[k]
        k += 2
    return _function(p, m, coeffs)


@_in_private_context
def hypergeom_phi(l: int, m: int, p: QParam) -> AngularFunction:
    """The same polynomial from the terminating hypergeometric series in
    base q**2, argument (q**-m x0)**2.  In base q**2 the q-number of x is
    [2x]/[2], so at the half-integer parameters a/2, b/2, c/2 the term
    ratio is [a + 2n][b + 2n]/([c + 2n][2n + 2]): the [2]s cancel.

    Must reproduce build_phi coefficient by coefficient; that equivalence
    is the closed-form-versus-recursion oracle.  The odd-parity series is
    normalized so its linear coefficient is 1, matching build_phi.
    """
    l, m = _check_label(l, m, nonneg=True)
    odd = (l - m) % 2
    if odd:
        a2, b2, c2 = l + m + 2, m - l + 1, 3
        nterms = (l - m - 1) // 2
    else:
        a2, b2, c2 = l + m + 1, m - l, 1
        nterms = (l - m) // 2
    z = p.power(-2 * m)
    term = p.one
    coeffs = {odd: term}
    for n in range(nterms):
        ratio = qnum(a2 + 2 * n, p) * qnum(b2 + 2 * n, p) / (qnum(c2 + 2 * n, p) * qnum(2 + 2 * n, p))
        term = term * ratio * z
        coeffs[2 * (n + 1) + odd] = term
    return _function(p, m, coeffs)


@_in_private_context
def normalization_constant(l: int, m: int, p: QParam):
    """Normalization for the series-convention polynomial: with
    hi = [l-m]!![l+m]!! and lo = [l-m-1]!![l+m-1]!!, the phase
    (-1)**((l-m)//2) times sqrt([2l+1]/(4 pi)) sqrt([2]**m) times
    sqrt(hi/lo) at odd l - m and sqrt(lo/hi) at even."""
    l, m = _check_label(l, m, nonneg=True)
    front = p.sqrt(qnum(2 * l + 1, p) / (4 * p.pi)) * p.sqrt(math.prod([qnum(2, p)] * m))
    hi = qdouble_factorial(l - m, p) * qdouble_factorial(l + m, p)
    lo = qdouble_factorial(l - m - 1, p) * qdouble_factorial(l + m - 1, p)
    return (-1) ** ((l - m) // 2) * front * p.sqrt(hi / lo if (l - m) % 2 else lo / hi)


@_in_private_context
def ladder_factor(l: int, m: int, p: QParam):
    """sqrt([l+m][l-m+1]): norm of the lowering step out of (l, m), for the
    labels build_y takes."""
    _check_label(l, m)
    return p.sqrt(qnum(l + m, p) * qnum(l - m + 1, p))


@_in_private_context
def build_y(l: int, m: int, p: QParam) -> AngularFunction:
    """Unit-norm harmonic for any |m| <= l, integers both.

    Each label is formed once per QParam and kept in its table, entry
    ("y", l, m) holding a copy of its coefficients as a plain dict, so
    nothing stored refers to p.  m >= 0 is build_phi times q**-m at odd
    l - m, the closed-form series convention in which the normalization
    constant is exact, times that constant; a new m < 0 is one lowering
    step from (l, m + 1), itself read through the table, divided by the
    ladder factor, which keeps the norm at one whenever the lowering
    operator is the adjoint of the raising one.  Every label is thus formed
    bit for bit as the chain from m = 0 forms it, and every call returns a
    new function.
    """
    l, m = _check_label(l, m)
    table = p._table
    top = m
    while ("y", l, top) not in table and top < 0:
        top += 1
    if ("y", l, top) in table:
        y = _function(p, top, table[("y", l, top)])
    else:
        y = build_phi(l, top, p)
        if (l - top) % 2:
            y = y.scaled(p.power(-top))
        y = y.scaled(normalization_constant(l, top, p))
        table[("y", l, top)] = y.coeffs.copy()
    for mu in range(top, m, -1):
        y = apply_lminus(y).scaled(1 / ladder_factor(l, mu, p))
        table[("y", l, mu - 1)] = y.coeffs.copy()
    return y
