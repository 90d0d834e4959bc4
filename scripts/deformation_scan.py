#!/usr/bin/env python3
"""Scan the two closed-form spectra across a deformation grid.

Prints one CSV block per potential showing how each (n, l) level moves
with q while the l = 0 rows stay put, which is the quickest way to see
the accidental degeneracy split.
"""

import argparse

from qsu2 import QParam, coulomb_energy, oscillator_energy


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--qmin", type=float, default=0.6)
    ap.add_argument("--qmax", type=float, default=1.6)
    ap.add_argument("--steps", type=int, default=11)
    ap.add_argument("--nmax", type=int, default=1)
    ap.add_argument("--lmax", type=int, default=2)
    ns = ap.parse_args()
    if ns.steps < 2:
        ap.error("--steps must be at least 2 (the grid includes both --qmin and --qmax)")

    qs = [ns.qmin + i * (ns.qmax - ns.qmin) / (ns.steps - 1) for i in range(ns.steps)]
    for potential, maker in (("coulomb", coulomb_energy), ("oscillator", oscillator_energy)):
        print(f"# {potential}")
        header = ["q"] + [f"E({n},{l})" for l in range(ns.lmax + 1) for n in range(ns.nmax + 1)]
        print(",".join(header))
        for q in qs:
            p = QParam(q)
            row = [f"{q:.4f}"]
            for l in range(ns.lmax + 1):
                for n in range(ns.nmax + 1):
                    row.append(f"{maker(n, l, p).E:.10g}")
            print(",".join(row))
        print()


if __name__ == "__main__":
    main()
