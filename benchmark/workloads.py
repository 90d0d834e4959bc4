"""The four workloads: seeded inputs, one timed item each, output checks.

A workload's inputs are one *round*: a fixed list of items drawn from the
seed.  A run repeats whole rounds, so every run attempts the same
operations in the same proportions and the share of failed operations is
the same whatever the seed or run length.

Seeded q values come in mirrored pairs inside a band (see ``q_pair``).
The library's cost away from q = 1 grows with the geometric grid depth,
which is proportional to 1/|ln q|; the pair's depths sum to a constant,
so a round costs the same for every seed.

Library entry points are looked up on the ``qsu2`` modules at call time,
so the wrappers of the traced run see every call.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import qsu2
import qsu2.cli

import reference
from spans import clock

CONSISTENT_DIAGONAL = "-([2l][2l+2]/[2]^2 + c_l^2)"
GRAM_GATE = 1e-9
POSITION_GATE = 1e-9
HIGH_RESIDUAL_LIMIT = 1e-25
ENERGY_GATE = 1e-6
MAX_PROBLEMS = 20


@dataclass
class Tally:
    """What the timed rounds did: operations, item times and findings."""

    attempted: int = 0
    failed: int = 0
    item_s: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    gram_err_max: float = 0.0
    bisections: int = 0
    grid_steps: int = 0
    abs_err_max: float = 0.0

    def problem(self, text: str):
        if len(self.problems) < MAX_PROBLEMS and text not in self.problems:
            self.problems.append(text)


def q_pair(rng: random.Random, q_a: float, q_b: float) -> tuple:
    """Two seeded q values between q_a and q_b (one side of q = 1) whose
    grid depths 1/|ln q| are mirrored about the band's centre."""
    d_a, d_b = 1 / math.log(q_a), 1 / math.log(q_b)
    u = rng.random()
    return tuple(math.exp(1 / (d_a + t * (d_b - d_a))) for t in (u, 1 - u))


# ----------------------------- CLI verify -----------------------------

class VerifyWorkload:
    """``qsu2.cli.main(["verify", ...])`` in process; op = one gated row,
    item = one invocation."""

    precision = "double"

    def __init__(self, seed: int, tmpdir: str):
        self.items = self.make_items(random.Random(seed))
        self.out = os.path.join(tmpdir, "verify.json")

    @staticmethod
    def make_items(rng):
        # the costs are spread so that the tier-1 grid is the median item
        return [
            ((0.5, 0.9, 1.5), 6),
            (q_pair(rng, 1.005, 1.025), 12),
            (q_pair(rng, 0.88, 0.93), 14),
            (q_pair(rng, 0.88, 0.93), 16),
            ((0.5,), 10),
        ]

    def argv(self, qs, lmax, *extra):
        args = ["verify", "--lmax", str(lmax), "--precision", self.precision, "--out", self.out, *extra]
        for q in qs:
            args += ["--q", repr(float(q))]
        return args

    def invoke(self, argv):
        if os.path.exists(self.out):
            os.remove(self.out)
        t0 = clock()
        code = qsu2.cli.main(argv)
        dt = clock() - t0
        body = None
        if os.path.exists(self.out):
            with open(self.out) as fh:
                body = json.load(fh)
        return code, body, dt

    def run_item(self, item, tally: Tally):
        qs, lmax = item
        code, body, dt = self.invoke(self.argv(qs, lmax))
        tally.item_s.append(dt)
        if code not in (0, 1) or body is None:
            tally.attempted += 1
            tally.failed += 1
            tally.problem(f"verify q={qs} lmax={lmax} exited {code} without a report")
            return
        gated = [r for r in body["rows"] if r["passed"] is not None]
        bad = [r for r in gated if r["passed"] is False]
        tally.attempted += len(gated)
        tally.failed += len(bad)
        if code != (1 if bad else 0):
            tally.problem(f"verify q={qs} lmax={lmax} exited {code} with {len(bad)} failed rows")
        self.check_rows(qs, lmax, body, gated, tally)

    def check_rows(self, qs, lmax, body, gated, tally):
        passed_diag = {r["q"] for r in gated if r["name"] == "transverse-square-diagonal" and r["passed"]}
        for key, finding in body["findings"].items():
            resolution = finding["transverse_square_diagonal"]["resolution"]
            if float(key) in passed_diag and resolution != CONSISTENT_DIAGONAL:
                tally.problem(f"q={key} lmax={lmax}: transverse-square diagonal resolved to {resolution!r}")

    def check(self, tally: Tally):
        """Untimed checks made once per run."""
        for qs, lmax in self.items:
            for q in qs:
                check_ladder(qsu2.QParam(q, self.precision), lmax, tally)
        q = self.items[1][0][0]
        code, body, _ = self.invoke(self.argv((q,), 4, "--inject-fault"))
        failed = [r["name"] for r in body["rows"] if r["passed"] is False] if body else []
        if code != 1 or "position-product-expansion" not in failed:
            tally.problem(f"--inject-fault exited {code}, failed rows {failed}")


class VerifyHighWorkload(VerifyWorkload):
    """The same CLI verify with --precision high."""

    precision = "high"

    @staticmethod
    def make_items(rng):
        q_lo, q_hi = rng.uniform(0.6, 0.8), rng.uniform(1.2, 1.6)
        return [((q_lo,), 4), ((q_hi,), 5), ((q_lo,), 6)]

    def check_rows(self, qs, lmax, body, gated, tally):
        super().check_rows(qs, lmax, body, gated, tally)
        worst = max(r["residual"] for r in gated)
        if not worst < HIGH_RESIDUAL_LIMIT:
            tally.problem(f"high precision q={qs} lmax={lmax}: gated residual {worst:.3g}")


def check_ladder(p, lmax: int, tally: Tally):
    """Ladder blocks of build_generators against sqrt([l-m][l+m+1])."""
    gen = qsu2.build_generators(p, lmax)
    q = float(p.q)
    for l in range(lmax + 1):
        up, down = gen["Lplus"].block(l, l), gen["Lminus"].block(l, l)
        for m in range(-l, l):
            want = reference.ladder_element(q, l, m)
            for got in (up[m + 1 + l, m + l], down[m + l, m + 1 + l]):
                if not abs(got - want) <= 1e-12 * max(1.0, want):
                    tally.problem(f"ladder element q={q} l={l} m={m}: {got} against {want}")


# ----------------------------- harmonic Gram matrix -----------------------------

class HarmonicGramWorkload:
    """For each q: build_y for every l <= 8, then the upper-triangle Gram
    matrix.  Op = one inner product, item = one q-point."""

    LMAX = 8

    def __init__(self, seed: int, tmpdir: str):
        rng = random.Random(seed)
        # 1.0 is the exact classical branch, 0.985 uses the expanded weight,
        # 0.5 and 2.0 carry the known loss of accuracy (and hold the median
        # item); the seeded pair straddles q = 1, 1/above in [1/0.92, 1/0.86]
        below, above = q_pair(rng, 0.86, 0.92)
        self.items = [1.0, 0.985, 0.5, 2.0, below, 1 / above]

    def run_item(self, q, tally: Tally):
        labels = [(l, m) for l in range(self.LMAX + 1) for m in range(-l, l + 1)]
        t0 = clock()
        p = qsu2.QParam(q)
        mu = qsu2.QMeasure(p)
        ys = [qsu2.build_y(l, m, p) for l, m in labels]
        gram = [[qsu2.inner_product(ys[i], ys[j], mu) for j in range(i, len(ys))] for i in range(len(ys))]
        tally.item_s.append(clock() - t0)
        for i, row in enumerate(gram):
            for j, v in enumerate(row, start=i):
                err = abs(v - (1.0 if i == j else 0.0))
                tally.attempted += 1
                if not err < GRAM_GATE:
                    tally.failed += 1
                if err > tally.gram_err_max or math.isnan(err):
                    tally.gram_err_max = err

    def check(self, tally: Tally):
        """Position matrix elements by integral against the coefficient
        table, l <= 3."""
        for q in self.items:
            p = qsu2.QParam(q)
            mu = qsu2.QMeasure(p)
            for l in range(4):
                for m in range(-l, l + 1):
                    y = qsu2.build_y(l, m, p)
                    for k in (1, 0, -1):
                        xf = qsu2.mul_position(k, y)
                        pairs = []
                        if abs(m + k) <= l + 1:
                            pairs.append((l + 1, qsu2.position_coeff_upper(p, l, m, k)))
                        if l >= 1 and abs(m + k) <= l - 1:
                            pairs.append((l - 1, qsu2.position_coeff_lower(p, l, m, k)))
                        for l2, want in pairs:
                            got = qsu2.inner_product(qsu2.build_y(l2, m + k, p), xf, mu)
                            if not abs(got - want) < POSITION_GATE:
                                tally.problem(f"position element q={q} l={l} m={m} k={k} -> l={l2}: "
                                              f"{got} against {want}")


# ----------------------------- radial shooting -----------------------------

class RadialWorkload:
    """radial_verify over a fixed list of levels.  Op = item = one level."""

    def __init__(self, seed: int, tmpdir: str):
        rng = random.Random(seed)
        near_one = lambda: rng.uniform(0.9, 1.1)
        short = 4000
        # two cheap levels on short grids, three oscillator levels on the
        # default 8000 steps (the median item is one of them), one RK4
        # level, and one level whose grid hits the 150k-step cap
        self.items = [
            ("coulomb", 0, 1, 1.05, "numerov", short),
            ("coulomb", 1, 1, 0.95, "numerov", short),
            ("oscillator", 0, 1, near_one(), "numerov", 0),
            ("oscillator", 1, 2, near_one(), "numerov", 0),
            ("oscillator", 2, 3, near_one(), "numerov", 0),
            ("oscillator", 1, 1, near_one(), "rk4", 0),
            ("coulomb", 2, 4, 0.6, "numerov", 0),  # L ~ 59
        ]

    def run_item(self, item, tally: Tally):
        potential, n, l, q, method, n_steps = item
        t0 = clock()
        rep = qsu2.radial_verify(potential, n, l, qsu2.QParam(q), qsu2.RadialGrid(n_steps=n_steps, method=method))
        tally.item_s.append(clock() - t0)
        tally.attempted += 1
        tally.bisections += rep.bisections
        tally.grid_steps += rep.grid["n_steps"]
        if not rep.converged:
            tally.failed += 1
            return
        tally.abs_err_max = max(tally.abs_err_max, rep.abs_err)
        e_ref = reference.energy(potential, n, l, q)
        l_ref = reference.effective_l(q, l)
        if not abs(rep.e_numeric - e_ref) < ENERGY_GATE:
            tally.problem(f"{item}: E = {rep.e_numeric} against reference {e_ref}")
        if rep.nodes_found != n:
            tally.problem(f"{item}: {rep.nodes_found} nodes, expected {n}")
        if not abs(rep.L - l_ref) <= 1e-9 * max(1.0, l_ref):
            tally.problem(f"{item}: L = {rep.L} against reference {l_ref}")

    def check(self, tally: Tally):
        pass


WORKLOADS = {
    "verify-sweep": VerifyWorkload,
    "verify-high": VerifyHighWorkload,
    "harmonic-gram": HarmonicGramWorkload,
    "radial-shooting": RadialWorkload,
}
