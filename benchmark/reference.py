"""Reference values computed in plain floats, without importing qsu2.

The benchmark checks the library against these formulas, so they are
written out again here rather than taken from ``qsu2.qcore``:

* the symmetric q-number [n] = (q**n - q**-n) / (q - 1/q), equal to n at q = 1;
* the effective angular number L(q, l), the nonnegative root of
  L(L+1) = [2l][2l+2]/[2]**2 + c_l**2 - c_l with c_l = (q**(2l+1) + q**(-2l-1))/[2];
* the closed-form Coulomb and oscillator energies in units hbar = mass = 1;
* the ladder matrix elements sqrt([l-m][l+m+1]).
"""

from __future__ import annotations

import math


def qnum(n: float, q: float) -> float:
    if q == 1.0:
        return float(n)
    return (q ** n - q ** (-n)) / (q - 1.0 / q)


def effective_l(q: float, l: int) -> float:
    if l == 0:
        return 0.0
    two = qnum(2, q)
    c = (q ** (2 * l + 1) + q ** (-2 * l - 1)) / two
    rhs = qnum(2 * l, q) * qnum(2 * l + 2, q) / (two * two) + c * c - c
    return (-1.0 + math.sqrt(1.0 + 4.0 * rhs)) / 2.0


def energy(potential: str, n: int, l: int, q: float) -> float:
    big_l = effective_l(q, l)
    if potential == "coulomb":
        return -1.0 / (2.0 * (n + big_l + 1.0) ** 2)
    if potential == "oscillator":
        return 2.0 * n + big_l + 1.5
    raise ValueError(f"unknown potential {potential!r}")


def ladder_element(q: float, l: int, m: int) -> float:
    """<l, m+1| L+ |l, m> in the positive-real gauge."""
    return math.sqrt(qnum(l - m, q) * qnum(l + m + 1, q))
