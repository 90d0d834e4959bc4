"""Block-sparse operator matrices on the truncated harmonic basis and the
identity-verification engine, which holds the whole catalogue: operator,
harmonic and measure identities.

Matrices act on the basis {|l, m> : l <= lmax, |m| <= l}.  Each shifts m
by a fixed delta_m and has bandwidth at most one in l, so the block keyed
by (l_out, l_in) is one vector over m_in.  The vectors are plain Python
lists, at most 2 lmax + 1 long, of floats or Decimals, and the algebra
on them is list arithmetic: numpy is imported only for the dense block()
view, so verification runs without it.  Every public builder and method
that computes is decorated with ``qcore._in_private_context``, so it
computes in the private decimal context in either precision.
The operator rows run on the interior basis l <= lmax - 2, which
truncation cannot reach: a product of two l-changing operators, the most
a row composes, reads one shell above its labels.  So the operands are
built on l <= lmax - 1, where such products are formed, then cut with
``OperatorMatrix.truncated``; every other product has an l-diagonal factor.

Builders take the operators they derive from and read p and lmax from
them; operators of different p or lmax refuse to combine.  The transverse
derivative d has two independent builders, which the catalogue compares:
``build_partial`` composes it from the position vector x, the rebuilt
angular vector Lambda and the invariant c, and ``build_partial_elements``
rescales the blocks of x.  The catalogue is data: one dict of operands,
each formed once (``_operator_operands``, ``_function_operands``), and
the table ``_ROWS`` of rows in report order, each (name, group, gated,
note, pairs), where ``pairs(**operands)`` gives the (lhs, rhs) sides it
compares, or the reason it is skipped at this q.
``_residual`` picks the metric by the type of the sides: operators by the
largest entry of lhs - rhs, functions by the largest coefficient
difference relative to the largest coefficient of lhs (floor 1), scalars
by |lhs - rhs|.  A NaN on either side makes the residual NaN, which fails.
A new row goes into ``_ROWS`` at its place in the report; an operand that
several rows read, and any product of two l-changing operators, goes into
one of the two builders.  The report holds the rows and the finding;
``qsu2 verify`` writes its only serialized form.
``OperatorMatrix.distance`` forms the operator residual in one pass over
the blocks of both sides, without building the difference; it
reduces the magnitudes as floats, and since rounding to a float keeps
their order, its maximum is bitwise that of ``(lhs - rhs).max_abs``.
The rows that check a q-commutator, the generator commutators with the
ladders, the vector conditions and the transverse derivative from c, form
(D A - s A D) R with the one-pass kernel ``OperatorMatrix._commutator``
instead of two or three products, a scaled copy and a difference: D is
l-diagonal, so each entry takes one product from each side, and the
kernel makes the multiplies, scaling and subtraction of the composed
form in its order, so every nonzero entry is bitwise the same.
The scalars every builder reads, the q-numbers [n] and powers q**e, come
from the table of the ``QParam`` (see ``qcore``), evaluated once each.
``build_position`` reads the ones it needs once per call, not once per
entry, and forms each block in one pass with one square root per distinct
product under it; its entries are bitwise those of
``position_coeff_upper`` and ``position_coeff_lower``, which stay as the
per-entry oracle and give the position-product-expansion row its
coefficients.

The ladder matrix elements use the positive-real convention
sqrt([l -+ m][l +- m + 1]); only the product of raising and lowering steps
is fixed by the algebra, and this gauge matches the phases of the
constructed harmonics, so function-level and matrix-level coefficients can
be compared directly.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul, sub

from .angular import (
    AngularFunction,
    _nanmax,
    angular_function,
    apply_casimir,
    apply_lminus,
    apply_lplus,
    build_phi,
    build_y,
    hypergeom_phi,
    mul_position,
    mul_position_right,
)
from .jackson import QMeasure, _series_integrals, inner_product, integrate_monomial
from .qcore import QParam, _check_component, _check_integers, _check_label, _check_reals, _in_private_context, _sqrt2, invariants, qnum


def _zeros(p: QParam, n: int) -> list:
    return [p.zero] * n


def _finite(x):
    """x, or None where it is NaN or infinite: payloads carry no such float."""
    return x if x is None or math.isfinite(x) else None


def _span(lo: int, li: int, dm: int) -> tuple:
    """Slice over m_in + l_in of the entries with |m_in + dm| <= lo."""
    return max(-li, -lo - dm) + li, min(li, lo - dm) + li + 1


@dataclass
class OperatorMatrix:
    """Operator on the truncated basis that shifts m by delta_m.

    Each (l_out, l_in) block is one list over m_in = -l_in..l_in whose entry
    m_in + l_in is <l_out, m_in + delta_m| A |l_in, m_in>; it is zero where
    |m_in + delta_m| > l_out.  Entries are floats in double precision and
    Decimals in high precision.  Instances are immutable by convention
    once built.
    """

    p: QParam
    lmax: int
    delta_m: int
    blocks: dict = field(default_factory=dict)

    def block(self, lo: int, li: int):
        """Dense numpy view of the (lo, li) block, indexed [m_out + lo, m_in + li].

        A float64 array in double precision; in high precision an object
        array of the entries as exact Fractions, which, unlike Decimals,
        mix with floats and need no decimal context."""
        from fractions import Fraction

        import numpy as np

        shape = (2 * lo + 1, 2 * li + 1)
        high = self.p.is_high
        out = np.full(shape, Fraction(0), dtype=object) if high else np.zeros(shape)
        vec = self.blocks.get((lo, li))
        if vec is not None:
            start, stop = _span(lo, li, self.delta_m)
            for col in range(start, stop):
                out[col - li + self.delta_m + lo, col] = Fraction(vec[col]) if high else vec[col]
        return out

    def _check(self, other: "OperatorMatrix", same_shift: bool = False):
        """Refuse an operand of another q, precision or lmax, and with
        same_shift one of another m-shift."""
        if other.p is not self.p and other.p != self.p or other.lmax != self.lmax:
            sides = [f"q={float(o.p.q):.6g} {o.p.precision} lmax={o.lmax}" for o in (self, other)]
            raise ValueError(f"cannot combine operators of {sides[0]} and {sides[1]}")
        if same_shift and self.delta_m != other.delta_m:
            raise ValueError(f"cannot combine operators with m-shifts {self.delta_m} and {other.delta_m}")

    @_in_private_context
    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._check(other)
        dm = other.delta_m
        out = OperatorMatrix(self.p, self.lmax, self.delta_m + dm)
        blocks, zero = out.blocks, self.p.zero
        # the right blocks by first label, in their stored order, so that each
        # output block sums its products in the same order as a full scan
        rows: dict = {}
        for (k2, li), b in other.blocks.items():
            rows.setdefault(k2, []).append((li, b))
        for (lo, k1), a in self.blocks.items():
            for li, b in rows.get(k1, ()):
                # _span(k1, li, dm), inline
                start = max(-li, -k1 - dm) + li
                stop = min(li, k1 - dm) + li + 1
                shift = k1 - li + dm
                prod = map(mul, a[start + shift:stop + shift], b[start:stop])
                acc = blocks.get((lo, li))
                if acc is None:
                    acc = blocks[(lo, li)] = [zero] * (2 * li + 1)
                    acc[start:stop] = prod
                else:
                    acc[start:stop] = map(add, acc[start:stop], prod)
        return out

    @_in_private_context
    def _commutator(self, other: "OperatorMatrix", s=None, right: "OperatorMatrix | None" = None) -> "OperatorMatrix":
        """(self @ other - s (other @ self)) @ right in one pass over the
        blocks of other: self l-diagonal, s an optional scalar (none: no
        scaling) and right an optional diagonal operator.

        With self l-diagonal, output entry i of block (lo, li) takes one
        product from each side, self[lo] at i + lo - li + dm times other at
        i and other at i + d times self[li] at i (d, dm the m-shifts of
        self and other), so each block is one comprehension over those four
        windows.  Its multiplies, scaling, subtraction and right factor are
        those of the composed form, in the same order.  Where a window runs
        off a block, or a block of self is missing, the composed form has an
        exact zero term and the kernel a product with a zero: since other is
        zero off its own span, that is a signed zero, and every nonzero
        entry is the composed form's, bitwise; only the sign of a zero may
        differ.  An output block whose right block is missing is dropped, as
        the product with right drops it.  An l-changing self or right, or a
        right that shifts m, raises ValueError."""
        self._check(other)
        if right is not None:
            self._check(right)
            if right.delta_m:
                raise ValueError(f"the commutator kernel's right factor must not shift m, got {right.delta_m}")
        for op in (self,) if right is None else (self, right):
            if any(lo != li for lo, li in op.blocks):
                raise ValueError("the commutator kernel's factors must be l-diagonal")
        d, dm = self.delta_m, other.delta_m
        out = OperatorMatrix(self.p, self.lmax, d + dm)
        one, zero = self.p.one, self.p.zero
        plain = s is None and right is None
        s = one if s is None else s
        # the blocks of self padded with k zeros on each side, so that the
        # window any block of other reads is one slice
        k = max((abs(lo - li) for lo, li in other.blocks), default=0) + abs(dm) + 1
        pad = [zero] * k
        padded = {l: pad + vec + pad for (l, _), vec in self.blocks.items()}
        for (lo, li), a in other.blocks.items():
            left, dr = padded.get(lo), self.blocks.get((li, li))
            f = repeat(one) if right is None else right.blocks.get((li, li))
            if f is None or left is None and dr is None:
                continue
            n = 2 * li + 1
            start = k + lo - li + dm
            left = [zero] * n if left is None else left[start:start + n]
            dr = [zero] * n if dr is None else dr
            shifted = a if d == 0 else (a[d:] + [zero] * d if d > 0 else [zero] * -d + a[:d])
            if plain:
                out.blocks[(lo, li)] = [x * y - u * v for x, y, u, v in zip(left, a, shifted, dr)]
            else:
                out.blocks[(lo, li)] = [(x * y - u * v * s) * g for x, y, u, v, g in zip(left, a, shifted, dr, f)]
        return out

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, add)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, sub)

    @_in_private_context
    def _combine(self, other: "OperatorMatrix", op) -> "OperatorMatrix":
        """Blockwise op of two operators; a block missing on one side is zero."""
        self._check(other, same_shift=True)
        out = OperatorMatrix(self.p, self.lmax, self.delta_m)
        for key in set(self.blocks) | set(other.blocks):
            a, b = self.blocks.get(key), other.blocks.get(key)
            out.blocks[key] = list(map(op, a or _zeros(self.p, len(b)), b or _zeros(self.p, len(a))))
        return out

    @_in_private_context
    def scaled(self, s) -> "OperatorMatrix":
        out = OperatorMatrix(self.p, self.lmax, self.delta_m)
        for key, blk in self.blocks.items():
            out.blocks[key] = [x * s for x in blk]
        return out

    def dagger(self) -> "OperatorMatrix":
        dm = self.delta_m
        out = OperatorMatrix(self.p, self.lmax, -dm)
        for (lo, li), vec in self.blocks.items():
            start, stop = _span(lo, li, dm)
            adj = _zeros(self.p, 2 * lo + 1)
            shift = lo - li + dm
            adj[start + shift:stop + shift] = vec[start:stop]
            out.blocks[(li, lo)] = adj
        return out

    @_in_private_context
    def max_abs(self) -> float:
        """Largest |entry|; NaN if any entry is NaN."""
        return _nanmax(float(_nanmax(map(abs, vec))) for vec in self.blocks.values())

    @_in_private_context
    def distance(self, other: "OperatorMatrix") -> float:
        """Largest |self - other| in one pass over both operands:
        (self - other).max_abs() without forming the difference.  A block
        missing on one side counts as zero; NaN if any entry is NaN.
        Magnitudes are reduced as floats, which keeps their order, so the
        maximum is the same."""
        self._check(other, same_shift=True)
        mags = []
        for key in self.blocks.keys() | other.blocks.keys():
            a, b = self.blocks.get(key), other.blocks.get(key)
            mags += map(abs, b if a is None else a if b is None else map(sub, a, b))
        return _nanmax(map(float, mags) if self.p.is_high else mags)

    def truncated(self, l_top: int) -> "OperatorMatrix":
        """The operator on the basis l <= l_top: its blocks there, in stored order."""
        return OperatorMatrix(self.p, l_top, self.delta_m, {k: v for k, v in self.blocks.items() if max(k) <= l_top})

    def diagonal(self, l: int):
        """Diagonal of the (l, l) block as a list over m = -l..l."""
        vec = self.blocks.get((l, l)) if self.delta_m == 0 else None
        return _zeros(self.p, 2 * l + 1) if vec is None else list(vec)


@_in_private_context
def diag_operator(p: QParam, lmax: int, fn) -> OperatorMatrix:
    """Diagonal operator with entry fn(l, m)."""
    _check_integers(lmax=lmax)
    return OperatorMatrix(p, lmax, 0, {(l, l): [fn(l, m) for m in range(-l, l + 1)] for l in range(lmax + 1)})


def identity_operator(p: QParam, lmax: int) -> OperatorMatrix:
    return diag_operator(p, lmax, lambda l, m: p.one)


@_in_private_context
def build_generators(p: QParam, lmax: int) -> dict:
    """L0 diagonal and the ladder matrices in the positive-real gauge."""
    _check_integers(0, lmax=lmax)
    # the step out of m = l (raising) or m = -l (lowering) is zero, so the
    # shared entries sit at the front of the raising block and at the back
    # of the lowering one; l = 0 has no ladder block
    steps = {l: [p.sqrt(qnum(l - m, p) * qnum(l + m + 1, p)) for m in range(-l, l)] for l in range(1, lmax + 1)}
    zero = _zeros(p, 1)
    return {
        "L0": diag_operator(p, lmax, lambda l, m: m * p.one),
        "Lplus": OperatorMatrix(p, lmax, +1, {(l, l): vals + zero for l, vals in steps.items()}),
        "Lminus": OperatorMatrix(p, lmax, -1, {(l, l): zero + vals for l, vals in steps.items()}),
    }


@_in_private_context
def build_lambda(gen: dict) -> dict:
    """The vector rebuilt from the generators: components for k = +1, 0, -1."""
    lp, lm = gen["Lplus"], gen["Lminus"]
    p, lmax = lp.p, lp.lmax
    s = p.sqrt(1 / qnum(2, p))
    qml0 = diag_operator(p, lmax, lambda l, m: p.power(-m))
    lam_p = (qml0 @ lp).scaled(-s)
    lam_m = (qml0 @ lm).scaled(s)
    two = qnum(2, p)
    lam_0 = (lp @ lm).scaled(p.q / two) + (lm @ lp).scaled(-1 / (p.q * two))
    return {1: lam_p, 0: lam_0, -1: lam_m}


def build_invariant_c(lam: dict) -> OperatorMatrix:
    """Third invariant in operator form q**(-2 L0) + lambda * Lambda_0.

    Built from the operator expression rather than its eigenvalues, so that
    comparing its diagonal against the closed form is itself a check.
    """
    p = lam[0].p
    qm2l0 = diag_operator(p, lam[0].lmax, lambda l, m: p.power(-2 * m))
    return qm2l0 + lam[0].scaled(p.lam)


@_in_private_context
def position_coeff_upper(p: QParam, l: int, m: int, k: int):
    """Coefficient of |l+1, m+k> in the position component k applied to |l, m>.

    The k = +/-1 prefactor is q**(k*l - m).  At k = -1 that is q**(-l-m),
    the value forced by the conjugation pair with the k = +1 component; it
    is also the value the integral cross-check reproduces.
    """
    l, m = _check_label(l, m)
    k = _check_component(k)
    d = qnum(2 * l + 1, p) * qnum(2 * l + 3, p)
    if k == 0:
        return p.power(-m) * p.sqrt(qnum(l - m + 1, p) * qnum(l + m + 1, p) / d)
    return p.power(k * l - m) * p.sqrt(qnum(l + k * m + 1, p) * qnum(l + k * m + 2, p) / (qnum(2, p) * d))


@_in_private_context
def position_coeff_lower(p: QParam, l: int, m: int, k: int):
    """Coefficient of |l-1, m+k> in the position component k applied to |l, m>.

    The k = 0 coefficient is positive: the k = 0 component is self-adjoint,
    so its lower coefficient must equal the upper one a row down.
    """
    l, m = _check_label(l, m)
    k = _check_component(k)
    d = qnum(2 * l + 1, p) * qnum(2 * l - 1, p)
    if k == 0:
        return p.power(-m) * p.sqrt(qnum(l - m, p) * qnum(l + m, p) / d)
    return -p.power(-k * (l + 1) - m) * p.sqrt(qnum(l - k * m, p) * qnum(l - k * m - 1, p) / (qnum(2, p) * d))


@_in_private_context
def build_position(p: QParam, lmax: int) -> dict:
    """Unit-sphere position components; bandwidth one in l, zero diagonal.

    Formed block by block, all three components at once, from the
    q-numbers [1..2 lmax + 1] and the powers q**e, |e| < 2 lmax, read once
    each: the ones the entry functions read.  A block forms its 2d = [2] d
    once and one square root per distinct product under it: entry
    (k = +1, m) shares its root with (k = -1, -m), and the k = 0 root is
    even in m.  Each entry is then power * root (upper) or -power * root
    (lower) in the operation order of ``position_coeff_upper`` and
    ``position_coeff_lower``, which stay its oracle: every entry is theirs,
    bit for bit."""
    _check_integers(1, lmax=lmax)
    sqrt, zero = p.sqrt, p.zero
    # qn[n] = [n]; qn[0] is never read
    qn = [zero] + [qnum(n, p) for n in range(1, 2 * lmax + 2)]
    pw = {e: p.power(e) for e in range(1 - 2 * lmax, 2 * lmax)}
    two = qn[2]
    out = {1: {}, 0: {}, -1: {}}
    for l in range(lmax + 1):
        # per l the upper block (l+1, l), then the lower block (l-1, l),
        # which is zero where |m + k| > l - 1
        ms = range(-l, l + 1)
        if l < lmax:
            d = qn[2 * l + 1] * qn[2 * l + 3]
            two_d = two * d
            # the k = +-1 root by j = l + k m + 1 (r1[0] is never read), the k = 0 one by |m|
            r1 = [zero] + [sqrt(qn[j] * qn[j + 1] / two_d) for j in range(1, 2 * l + 2)]
            r0 = [sqrt(qn[l - m + 1] * qn[l + m + 1] / d) for m in range(l + 1)]
            out[1][(l + 1, l)] = [pw[l - m] * r1[l + m + 1] for m in ms]
            out[0][(l + 1, l)] = [pw[-m] * r0[abs(m)] for m in ms]
            out[-1][(l + 1, l)] = [pw[-l - m] * r1[l - m + 1] for m in ms]
        if l > 0:
            d = qn[2 * l + 1] * qn[2 * l - 1]
            two_d = two * d
            # the k = +-1 root by j = l - k m (r1[0], r1[1] are never read), the k = 0 one by |m|
            r1 = [zero, zero] + [sqrt(qn[j] * qn[j - 1] / two_d) for j in range(2, 2 * l + 1)]
            r0 = [sqrt(qn[l - m] * qn[l + m] / d) for m in range(l)]
            out[1][(l - 1, l)] = [-pw[-l - 1 - m] * r1[l - m] if m < l - 1 else zero for m in ms]
            out[0][(l - 1, l)] = [pw[-m] * r0[abs(m)] if abs(m) < l else zero for m in ms]
            out[-1][(l - 1, l)] = [-pw[l + 1 - m] * r1[l + m] if m > 1 - l else zero for m in ms]
    return {k: OperatorMatrix(p, lmax, k, blocks) for k, blocks in out.items()}


@_in_private_context
def build_partial(x: dict, lam: dict, c: OperatorMatrix) -> dict:
    """Transverse derivative components composed from the position vector,
    the rebuilt angular vector and the third invariant: the
    cross-product-plus-invariant combination.  build_partial_elements is
    the independent route; the two agree on interior blocks."""
    p, q = c.p, c.p.q
    d1 = (x[1] @ lam[0]).scaled(1 / q) + (x[0] @ lam[1]).scaled(-q) + x[1] @ c
    d0 = x[1] @ lam[-1] + (x[0] @ lam[0]).scaled(-p.lam) - x[-1] @ lam[1] + x[0] @ c
    dm1 = (x[-1] @ lam[0]).scaled(-q) + (x[0] @ lam[-1]).scaled(1 / q) + x[-1] @ c
    return {1: d1, 0: d0, -1: dm1}


@_in_private_context
def build_partial_elements(x: dict) -> dict:
    """Transverse derivative components from their matrix elements: the
    position blocks scaled by +[2l+2]/[2] (raising l) and -[2l]/[2]
    (lowering l), with zero diagonal: a position operator has no other
    blocks."""
    p = x[0].p
    two = qnum(2, p)
    out = {}
    for k in (1, 0, -1):
        d = OperatorMatrix(p, x[k].lmax, k)
        for (lo, li), blk in x[k].blocks.items():
            s = qnum(2 * li + 2, p) / two if lo == li + 1 else -qnum(2 * li, p) / two
            d.blocks[(lo, li)] = [v * s for v in blk]
        out[k] = d
    return out


@_in_private_context
def scalar_product(u: dict, v: dict) -> OperatorMatrix:
    """Rank-zero contraction of two vector triples:
    -(1/q) u_1 v_-1 + u_0 v_0 - q u_-1 v_1."""
    return _contract({(i, -i): u[i] @ v[-i] for i in (1, 0, -1)}, u[0].p)


def _contract(uv: dict, p: QParam) -> OperatorMatrix:
    """The rank-zero combination of the component products uv[i, j] = u_i v_j."""
    return uv[1, -1].scaled(-1 / p.q) + uv[0, 0] + uv[-1, 1].scaled(-p.q)


# ----------------------------- verification engine -----------------------------

@dataclass(frozen=True)
class IdentityCheck:
    name: str
    group: str
    residual: float | None
    passed: bool | None
    note: str = ""

    def to_payload(self) -> dict:
        return {"name": self.name, "group": self.group, "residual": _finite(self.residual),
                "passed": self.passed, "note": self.note}


@dataclass
class VerifyReport:
    checks: list
    finding: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    @property
    def max_residual(self) -> float:
        """Worst residual over the gated rows, NaN if one is; informational rows are left out."""
        return _nanmax(c.residual for c in self.checks if c.passed is not None)


_CONSISTENT = "-([2l][2l+2]/[2]^2 + c_l^2)"


@_in_private_context
def transverse_square_candidates(l: int, p: QParam) -> dict:
    """Candidate closed forms for the diagonal of the contracted transverse
    derivative, keyed by formula."""
    inv = invariants(l, p)
    two = qnum(2, p)
    c2 = p.number(decimal.Decimal(inv.c) ** 2)  # rounded once, so an overflow raises
    printed = -(qnum(2 * l, p) * qnum(2 * l + 1, p) / (two * two) + c2)
    with_cross = -(inv.Cprime + c2 - inv.c)
    consistent = -(inv.Cprime + c2)
    return {
        "-([2l][2l+1]/[2]^2 + c_l^2)": printed,
        "-([2l][2l+2]/[2]^2 + c_l^2 - c_l)": with_cross,
        _CONSISTENT: consistent,
    }


def _operator_operands(p: QParam, interior: int) -> dict:
    """Every operand of the operator rows, each formed once: the generators,
    Lambda, c, x, both routes of the transverse derivative d, the diagonal
    operators, the products of two l-changing operators that rows read (xx,
    xd, dx, dd by component pair), the exchange differences of d that gated
    and bare rows share, and per candidate the (diagonal entry, closed form)
    pairs of d.d.  Built on l <= interior + 1 and cut to l <= interior, so a
    product of two l-changing operators that a new row reads is formed here."""
    top, rank_zero = interior + 1, [(1, -1), (0, 0), (-1, 1)]
    gen = build_generators(p, top)
    lp_lm, lm_lp = gen["Lplus"] @ gen["Lminus"], gen["Lminus"] @ gen["Lplus"]
    lam = build_lambda(gen)
    c = build_invariant_c(lam)
    x = build_position(p, top)
    d = build_partial(x, lam, c)
    inv = [invariants(l, p) for l in range(top + 1)]
    ops = {
        **gen, "lp_lm": lp_lm, "lm_lp": lm_lp, "lam": lam, "c": c, "x": x, "d": d,
        "d_elem": build_partial_elements(x), "ident": identity_operator(p, top),
        "two_l0": diag_operator(p, top, lambda l, m: qnum(2 * m, p)),
        "casimir": lm_lp + diag_operator(p, top, lambda l, m: qnum(m, p) * qnum(m + 1, p)),
        "C": diag_operator(p, top, lambda l, m: inv[l].C),
        "Cprime": diag_operator(p, top, lambda l, m: inv[l].Cprime),
        "c_diag": diag_operator(p, top, lambda l, m: inv[l].c),
        "ql0": diag_operator(p, top, lambda l, m: p.power(m)),
    }
    for a, b in ("xx", "xd", "dx", "dd"):
        # x.x and d.d for the exchange relations too, x.d and d.x only contracted
        exchange = [(0, 1), (1, 0), (0, -1), (-1, 0)] if a == b else []
        ops[a + b] = {(i, j): ops[a][i] @ ops[b][j] for i, j in rank_zero + exchange}
    for k, v in ops.items():
        ops[k] = {i: o.truncated(interior) for i, o in v.items()} if isinstance(v, dict) else v.truncated(interior)
    dd, d_sq = ops["dd"], _contract(ops["dd"], p)
    cands = [transverse_square_candidates(l, p) for l in range(interior + 1)]
    return {
        **ops, "p": p,
        "dil_up": dd[0, 1] - dd[1, 0].scaled(p.power(-2)),
        "dil_down": dd[0, -1] - dd[-1, 0].scaled(p.power(2)),
        "mixed": dd[1, -1] - dd[-1, 1] - dd[0, 0].scaled(p.lam),
        "square": {f: [(v, cand[f]) for l, cand in enumerate(cands) for v in d_sq.diagonal(l)] for f in cands[0]},
    }


def _function_operands(p: QParam, inject_fault: bool) -> dict:
    """Every operand of the harmonic and measure rows: phi for l <= 6 and Y for
    l <= 4, keyed by (l, m) in l-major order, and the measures at q and 1/q."""
    return {
        "phi": {(l, m): build_phi(l, m, p) for l in range(7) for m in range(l + 1)},
        "y": {(l, m): build_y(l, m, p) for l in range(5) for m in range(-l, l + 1)},
        "mu": QMeasure(p), "mu_r": QMeasure(p.reciprocal()), "fault": inject_fault,
    }


def _vector_pairs(v, L0, Lplus, Lminus, ql0, p, **_):
    """The two defining vector relations of the triple v over all components
    and both ladder directions."""
    two = _sqrt2(p)
    pairs = []
    for k in (1, 0, -1):
        pairs.append((L0._commutator(v[k]), v[k].scaled(k)))
        for sign, ladder in ((1, Lplus), (-1, Lminus)):
            lhs = ladder._commutator(v[k], p.power(k), ql0)
            pairs.append((lhs, v[k + sign].scaled(two) if k + sign in v else OperatorMatrix(p, L0.lmax, k + sign)))
    return pairs


def _ladder_step_pairs(p, phi, **_):
    # phi in the series convention (odd l - m carries q**-m).  Raising carries
    # the weight q**m of the winding it acts on; with it the raised polynomial
    # is -[l-m][l+m+1] times the next one for even l - m, the next one for odd.
    series = {(l, m): f.scaled(p.power(-m)) if (l - m) % 2 else f for (l, m), f in phi.items()}
    return [
        (series[(l, m + 1)].scaled(1 if (l - m) % 2 else -qnum(l - m, p) * qnum(l + m + 1, p)),
         apply_lplus(series[(l, m)]).scaled(1 / _sqrt2(p)))
        for l in range(1, 6) for m in range(l)
    ]


def _product_pairs(p, y, fault, **_):
    pairs = []
    for l in range(4):
        for m in range(-l, l + 1):
            for k in (1, 0, -1):
                # the l + 1 term is always there, the l - 1 one where |m + k| < l
                target = y[(l + 1, m + k)].scaled(position_coeff_upper(p, l, m, k))
                if abs(m + k) < l:
                    target += y[(l - 1, m + k)].scaled(position_coeff_lower(p, l, m, k))
                if fault and (l, m, k) == (1, 0, 0):
                    target = target.scaled(p.number(1 + 1e-3))
                pairs.append((mul_position(k, y[(l, m)]), target))
    return pairs


def _commutation_pairs(p, y, **_):
    pairs = []
    for (l, m), f in y.items():
        if l < 4:
            pairs.append((mul_position(0, f), mul_position_right(0, f).scaled(p.power(-2 * m))))
            for k in (1, -1):
                if abs(m + k) <= l:
                    corr = mul_position_right(0, y[(l, m + k)]).scaled(
                        k * p.lam / _sqrt2(p) * p.power(-m - k)
                        * p.sqrt(qnum(l - k * m, p) * qnum(l + k * m + 1, p))
                    )
                    pairs.append((mul_position(k, f), mul_position_right(k, f) + corr))
    return pairs


def _adjoint_pairs(p, mu, **_):
    pairs = []
    for m in (-2, 0, 1):
        f = angular_function(p, m, {0: 0.4, 1: -0.9, 2: 0.25, 3: 0.5})
        g = angular_function(p, m + 1, {0: 1.1, 1: 0.3, 2: -0.7})
        pairs.append((inner_product(apply_lplus(f), g, mu), inner_product(f, apply_lminus(g), mu)))
    return pairs


def _series_pairs(p, mu, **_):
    # The depth-D grid sum of x0**n is exactly closed * (1 - q**(2D(n+1))),
    # so the comparison holds at every q < 1, however slowly the tail decays.
    if p.q >= 1:
        return "series grid only exists for q < 1"
    depth, ns = 400, range(0, 9, 2)
    return [
        (s, integrate_monomial(n, mu) * (1 - p.power(2 * depth * (n + 1))))
        for n, s in zip(ns, _series_integrals(ns, p, depth))
    ]


# The position-shaped exchange relations of d hold only on l-changing blocks;
# on l-preserving ones the exact identities carry c*Lambda counterterms, which
# gate, while the bare forms report ungated.  Function rows are relative: at
# q = 0.5 harmonic coefficients reach ~1e5, where absolute gates would sit
# below representation granularity.
_COUNTERTERM = "with the c*Lambda counterterm"
_BARE = "position-shaped form without the counterterm; exact only on l-changing blocks"
_ROWS = (
    ("generator-commutator-raise", "operator", True, "", lambda L0, Lplus, **_: [(L0._commutator(Lplus), Lplus)]),
    ("generator-commutator-lower", "operator", True, "",
     lambda L0, Lminus, **_: [(L0._commutator(Lminus), Lminus.scaled(-1))]),
    ("generator-commutator-ladder", "operator", True, "", lambda lp_lm, lm_lp, two_l0, **_: [(lp_lm - lm_lp, two_l0)]),
    ("casimir-diagonal", "operator", True, "", lambda casimir, C, **_: [(casimir, C)]),
    ("vector-condition-position", "operator", True, "", lambda x, **o: _vector_pairs(x, **o)),
    ("vector-condition-angular", "operator", True, "", lambda lam, **o: _vector_pairs(lam, **o)),
    ("vector-condition-transverse", "operator", True, "", lambda d, **o: _vector_pairs(d, **o)),
    ("position-exchange-dilation", "operator", True, "", lambda xx, p, **_: [
        (xx[0, 1], xx[1, 0].scaled(p.power(-2))), (xx[0, -1], xx[-1, 0].scaled(p.power(2)))]),
    ("position-exchange-mixed", "operator", True, "",
     lambda xx, p, **_: [(xx[1, -1] - xx[-1, 1], xx[0, 0].scaled(p.lam))]),
    ("transverse-exchange-dilation", "operator", True, _COUNTERTERM, lambda dil_up, dil_down, c, lam, p, **_: [
        (dil_up, (c @ lam[1]).scaled(1 / p.q)), (dil_down, (c @ lam[-1]).scaled(-p.q))]),
    ("transverse-exchange-dilation-bare", "operator", False, _BARE, lambda dil_up, dil_down, **_: [
        (dil, OperatorMatrix(dil.p, dil.lmax, dil.delta_m)) for dil in (dil_up, dil_down)]),
    ("transverse-exchange-mixed", "operator", True, _COUNTERTERM,
     lambda mixed, c, lam, **_: [(mixed, (c @ lam[0]).scaled(-1))]),
    ("transverse-exchange-mixed-bare", "operator", False, _BARE,
     lambda mixed, **_: [(mixed, OperatorMatrix(mixed.p, mixed.lmax, 0))]),
    ("unit-sphere-norm", "operator", True, "", lambda xx, ident, p, **_: [(_contract(xx, p), ident)]),
    ("cross-contraction-xd", "operator", True, "", lambda xd, c, p, **_: [(_contract(xd, p), c)]),
    ("cross-contraction-dx", "operator", True, "", lambda dx, c, p, **_: [(_contract(dx, p), c.scaled(-1))]),
    ("angular-square-diagonal", "operator", True, "", lambda lam, Cprime, **_: [(scalar_product(lam, lam), Cprime)]),
    ("third-invariant-diagonal", "operator", True, "", lambda c, c_diag, **_: [(c, c_diag)]),
    ("transverse-from-invariant", "operator", True, "", lambda c, x, d, p, **_: (
        "skipped at q = 1: the commutator route divides by lambda**2" if p.is_one
        else [(c._commutator(x[k]).scaled(1 / (p.lam * p.lam)), d[k]) for k in (1, 0, -1)])),
    ("transverse-dual-construction", "operator", True, "",
     lambda d, d_elem, **_: [(d[k], d_elem[k]) for k in (1, 0, -1)]),
    ("transverse-hermiticity", "operator", True, "", lambda d, p, **_: [
        (d[1].dagger(), d[-1].scaled(1 / p.q)), (d[0].dagger(), d[0].scaled(-1)), (d[-1].dagger(), d[1].scaled(p.q))]),
    ("position-hermiticity", "operator", True, "", lambda x, p, **_: [
        (x[1].dagger(), x[-1].scaled(-1 / p.q)), (x[-1].dagger(), x[1].scaled(-p.q)), (x[0].dagger(), x[0])]),
    ("transverse-square-diagonal", "operator", True, lambda matched, **_: f"matched: {', '.join(matched)}",
     lambda square, **_: square[_CONSISTENT]),
    ("harmonic-recursion-vs-closed-form", "harmonic", True, "",
     lambda phi, p, **_: [(f, hypergeom_phi(l, m, p)) for (l, m), f in phi.items()]),
    ("harmonic-orthonormality", "harmonic", True, "", lambda y, mu, p, **_: [
        (inner_product(y1, y2, mu), p.one if lm1 == lm2 else p.zero)
        for lm1, y1 in y.items() for lm2, y2 in y.items() if lm1 <= lm2]),
    ("harmonic-ladder-step", "harmonic", True, "", _ladder_step_pairs),
    ("harmonic-casimir", "harmonic", True, "", lambda y, p, **_: [
        (f.scaled(qnum(l, p) * qnum(l + 1, p)), apply_casimir(f)) for (l, m), f in y.items()]),
    ("position-product-expansion", "harmonic", True, lambda fault, **_: "fault injected" if fault else "",
     _product_pairs),
    ("position-right-commutation", "harmonic", True, "", _commutation_pairs),
    ("ladder-adjointness", "harmonic", True, "", _adjoint_pairs),
    ("measure-symmetry", "harmonic", True, "q against 1/q", lambda mu, mu_r, **_: [
        (integrate_monomial(n, mu), integrate_monomial(n, mu_r)) for n in range(0, 9, 2)]),
    ("measure-series-agreement", "measure", True, "", _series_pairs),
    ("uniform-state-moment", "harmonic", True, "",
     lambda mu, p, **_: [(integrate_monomial(2, mu) / integrate_monomial(0, mu), 1 / qnum(3, p))]),
)


def _residual(lhs, rhs) -> float:
    """How far lhs is from rhs, by the type of the sides: operators by the
    largest entry of lhs - rhs, functions by the largest coefficient
    difference relative to the largest coefficient of lhs (floor 1),
    scalars by |lhs - rhs|."""
    if isinstance(lhs, OperatorMatrix):
        return lhs.distance(rhs)
    if isinstance(lhs, AngularFunction):
        return lhs.distance(rhs) / max(lhs.p.one, lhs.max_abs())
    return abs(lhs - rhs)


def _worst(pairs) -> float:
    return float(_nanmax(_residual(lhs, rhs) for lhs, rhs in pairs))


@_in_private_context
def verify_algebra(p: QParam, lmax: int, tol: float = 1e-10, inject_fault: bool = False) -> VerifyReport:
    """Run the full identity catalogue at one deformation value.

    ``_operator_operands`` and ``_function_operands`` build every operand
    once, into one dict.  Each row of ``_ROWS`` turns it into (lhs, rhs)
    pairs; the row's residual is the worst ``_residual`` over them, and a
    gated row passes when that is below tol (a NaN fails).  tol is a
    positive finite real by qcore's real rule, or ValueError names it: inf
    or True would pass every row, 0 or NaN fail them all.  Operator
    rows run on the interior basis l <= lmax - 2 and read each product of
    two l-changing operators from the operands, formed a shell above it.
    Harmonic and measure rows take fixed small l ranges.
    The finding resolves which of three candidate closed forms the
    contracted transverse-derivative diagonal matches; exactly one is
    consistent for every l.  inject_fault corrupts one position expansion
    coefficient, so that a caller can confirm the verifier fails.
    ``qsu2 verify`` writes the report's only serialized form.
    """
    _check_integers(3, lmax=lmax)
    _check_reals(True, tol=tol)
    ops = {**_operator_operands(p, lmax - 2), **_function_operands(p, inject_fault)}
    squares = {f: _worst(pairs) for f, pairs in ops["square"].items()}
    ops["matched"] = matched = sorted(f for f, r in squares.items() if r < tol)
    checks = []
    for name, group, gated, note, pairs in _ROWS:
        sides = pairs(**ops)
        r = None if isinstance(sides, str) else _worst(sides)
        note = sides if r is None else note if isinstance(note, str) else note(**ops)
        checks.append(IdentityCheck(name, group, r, bool(r < tol) if gated and r is not None else None, note))
    residuals = {c.name: _finite(c.residual) for c in checks}
    finding = {
        "transverse_square_diagonal": {
            "candidates": {f: _finite(r) for f, r in squares.items()},
            "matched": matched,
            "resolution": _CONSISTENT if _CONSISTENT in matched else (matched[0] if matched else None),
            "note": (
                "the contracted transverse derivative equals -([2l][2l+2]/[2]^2 + c_l^2) on the diagonal; "
                "the variant with the extra -c_l term belongs to the full kinetic operator, where the "
                "cross contractions contribute it, and the [2l+1] variant only coincides at l = 0"
            ),
        },
        "transverse_exchange": {
            "bare_residual_dilation": residuals["transverse-exchange-dilation-bare"],
            "bare_residual_mixed": residuals["transverse-exchange-mixed-bare"],
            "note": (
                "the transverse components satisfy d0 d1 = q^-2 d1 d0 + (1/q) c Lambda_1, "
                "d0 d-1 = q^2 d-1 d0 - q c Lambda_-1 and d1 d-1 = d-1 d1 + lambda d0^2 - c Lambda_0; "
                "the counterterms live purely in the l-preserving blocks and survive at q = 1"
            ),
        },
    }
    return VerifyReport(checks, finding)
