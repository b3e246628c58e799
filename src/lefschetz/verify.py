"""The property registry shared by `lef verify` and the acceptance suite.

`CHECKS` maps a property name to `check(cfg, sweep)`, which returns None when
the property holds on its whole sweep and otherwise a JSON-ready payload that
reproduces the first counterexample.  `cfg` holds the sweep parameters
(`types`, `max_coord`, `seed`, `max_m`, `max`, `points`); a check reads only
its own.  A parameter that would leave nothing to check is malformed input and
raises ValueError.  Verdicts are explicit comparisons, never `assert`, so they
hold under `python -O`.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import algebra, cohomology, euler, formula, roots, spin

# Largest half-dimension of the spin checks.  Measured with Python 3.11 on one
# Xeon vCPU: at m = 8 the Clifford check takes 0.15 s and the spin square
# 0.26 s; at m = 10 they take 1.1 s and 3.5 s.
MAX_SPIN_M = 8

# Largest `max` of the comb check, whose (max + 1)^2 identities sum O(max)
# big binomial products each.  Measured in process with Python 3.11 on a
# shared 2-vCPU host: the whole check takes 0.001 s at the default 12, 0.48 s
# at 100, 1.5 s at 128 and 3.9 s at 160, about 20 times more per doubling.
MAX_COMB = 100


class Sweep:
    """Root data with their algebras, highest-weight modules, Levi splits and
    the cochain and chain tables of each (split, lambda) point, each built
    once and kept as long as the object: one verification run.  A complex
    lives only while its table and its d^2 verdict are computed."""

    def __init__(self, dim_bound: int = algebra.DIMENSION_BOUND):
        self.dim_bound = dim_bound
        # (kind, label, ...) -> what build() returned for it
        self._built = {}

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def chevalley(self, label):
        """(datum, algebra)"""
        datum = self._once(("datum", label), lambda: roots.build_root_system(label))
        return datum, self._once(
            ("algebra", label), lambda: algebra.build_chevalley_algebra(datum)
        )

    def module(self, label, lam):
        alg = self.chevalley(label)[1]
        return self._once(
            ("module", label, lam),
            lambda: algebra.highest_weight_module(alg, lam, dim_bound=self.dim_bound),
        )

    def splits(self, label):
        """(datum, split) for every Levi subset, in the order of its bit mask."""
        datum, alg = self.chevalley(label)
        for bits in range(1 << datum.rank):
            levi = frozenset(i for i in range(datum.rank) if bits >> i & 1)
            yield datum, self._once(
                ("split", label, levi), lambda: algebra.parabolic_split(alg, levi)
            )

    def cochains(self, split, lam, mod):
        """(d^2 = 0, cohomology table) of the CE complex at one point."""

        def build():
            cx = cohomology.build_ce_complex(split, mod)
            return cx.verify_complex(), cohomology.cohomology_table(cx)

        return self._once(("cochains", split.datum.label, split.levi, lam), build)

    def chains(self, split, lam, mod):
        """(homology table, duality flag) at one point."""
        return self._once(
            ("chains", split.datum.label, split.levi, lam),
            lambda: cohomology.homology_table(split, mod, self.cochains(split, lam, mod)[1]),
        )

    def first_failure(self, cfg, holds):
        """The first point of the sweep (every type, every Levi subset, every
        dominant lambda with coordinates <= max_coord) at which
        holds(sweep, datum, split, lambda, module) is false, as {type, levi,
        weight}; None if there is none."""
        max_coord = _at_least("max_coord", cfg["max_coord"], 0)
        for label in cfg["types"]:
            for datum, split in self.splits(label):
                for lam in itertools.product(range(max_coord + 1), repeat=datum.rank):
                    if not holds(self, datum, split, lam, self.module(label, lam)):
                        return {
                            "type": datum.label,
                            "levi": sorted(split.levi),
                            "weight": list(lam),
                        }
        return None


def _at_least(name, value, low):
    if value < low:
        raise ValueError(f"{name} = {value} leaves nothing to check; it must be >= {low}")
    return value


def _spaces(cfg):
    """Polarized spaces of half-dimension 1..max_m."""
    top = _at_least("max_m", cfg["max_m"], 1)
    if top > MAX_SPIN_M:
        raise ValueError(f"max_m = {top} exceeds the limit MAX_SPIN_M = {MAX_SPIN_M}")
    return [spin.PolarizedSpace(m) for m in range(1, top + 1)]


# ---------------------------------------------------------------------------
# The properties


def _jacobi(cfg, sweep):
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 on every basis triple."""
    for label in cfg["types"]:
        datum, alg = sweep.chevalley(label)
        for x, y, z in itertools.combinations(alg.basis, 3):
            acc = {}
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                for w, cw in alg.bracket(b, c).items():
                    for k, v in alg.bracket(a, w).items():
                        acc[k] = acc.get(k, 0) + cw * v
            if any(acc.values()):
                return {"type": datum.label, "triple": [repr(x), repr(y), repr(z)]}
    return None


def _on_sweep(holds):
    """The check that holds(sweep, datum, split, lambda, module) on the whole
    sweep."""
    return lambda cfg, sweep: sweep.first_failure(cfg, holds)


@_on_sweep
def _d2(sweep, datum, split, lam, mod):
    return sweep.cochains(split, lam, mod)[0]


@_on_sweep
def _kostant(sweep, datum, split, lam, mod):
    table = sweep.cochains(split, lam, mod)[1]
    return table == cohomology.kostant_prediction(datum, split, lam)


@_on_sweep
def _euler(sweep, datum, split, lam, mod):
    return cohomology.euler_character_check(split, mod, sweep.cochains(split, lam, mod)[1])


@_on_sweep
def _duality(sweep, datum, split, lam, mod):
    return sweep.chains(split, lam, mod)[1]


@_on_sweep
def _hechtschmid(sweep, datum, split, lam, mod):
    return formula.hecht_schmid_check(mod, split, sweep.chains(split, lam, mod)[0])


def _det(cfg, sweep):
    """The determinant identity at `points` seeded rational points per split."""
    points = _at_least("points", cfg["points"], 1)
    rng = random.Random(cfg["seed"])
    for label in cfg["types"]:
        for datum, split in sweep.splits(label):
            weights = [split.restrict_to_a(r) for r in split.n_roots]
            for _ in range(points):
                point = tuple(
                    Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    for _ in range(split.a_dim())
                )
                if not formula.det_identity_check(weights, point):
                    return {
                        "type": datum.label,
                        "levi": sorted(split.levi),
                        "point": [str(x) for x in point],
                    }
    return None


def _spin(cfg, sweep):
    """The Clifford relation, and the spin square with global sign (-1)^m."""
    for space in _spaces(cfg):
        m = space.m
        if not spin.clifford_relation_check(space):
            return {"m": m, "failure": "clifford relation"}
        holds, sign = spin.verify_spin_square(space)
        if not holds or sign != (-1) ** m:
            return {"m": m, "failure": "spin square", "sign": sign}
    return None


def _epsilon(cfg, sweep):
    """The epsilon twist, matching S+ with the exterior parity of m."""
    for space in _spaces(cfg):
        m = space.m
        holds, parity = spin.epsilon_twist_check(space)
        if not holds or parity != ("even" if m % 2 == 0 else "odd"):
            return {"m": m, "failure": "epsilon twist", "parity": parity}
    return None


def _comb(cfg, sweep):
    top = _at_least("max", cfg["max"], 0)
    if top > MAX_COMB:
        raise ValueError(f"max = {top} exceeds the limit MAX_COMB = {MAX_COMB}")
    for r, p in itertools.product(range(top + 1), repeat=2):
        if not euler.comb_identity_check(r, p):
            return {"r": r, "p": p}
    return None


def _chitransfer(cfg, sweep):
    """chi_r of the rank-r transfer equals chi_0 of the base, for r <= 5, on
    every Betti vector of length <= 3 with entries <= 2, then on 500 seeded
    vectors of length <= 8 with entries <= 5."""
    cases = [
        (b, r)
        for n in range(1, 4)
        for b in itertools.product(range(3), repeat=n)
        for r in range(6)
    ]
    rng = random.Random(cfg["seed"])
    for _ in range(500):
        b = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 8)))
        cases.append((b, rng.randint(0, 5)))
    for b, r in cases:
        base = euler.BettiVector(b)
        if euler.chi_r(euler.bundle_betti_transfer(base, r), r) != euler.chi_r(base, 0):
            return {"base": list(base.b), "r": r}
    return None


CHECKS = {
    "jacobi": _jacobi,
    "d2": _d2,
    "kostant": _kostant,
    "euler": _euler,
    "duality": _duality,
    "spin": _spin,
    "epsilon": _epsilon,
    "det": _det,
    "hechtschmid": _hechtschmid,
    "comb": _comb,
    "chitransfer": _chitransfer,
}
