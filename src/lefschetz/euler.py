"""Euler characteristics, the fiber-bundle Betti transfer, the closed-form
constants of the trace side, and Euler-Poincare trace values.

Transcendental factors are kept symbolic: constants are returned as a sign, a
power of 2*pi, a power of sqrt(2) and an exact-or-floating rational factor, so
ratios stay exact whenever the transcendental parts cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cohomology import weight_multiplicities
from .exact import LaurentCharacter, Weight, exterior_power_character
from .roots import RootDatum


@dataclass(frozen=True)
class BettiVector:
    b: tuple[int, ...]

    def __post_init__(self):
        if any(x < 0 for x in self.b):
            raise ValueError("Betti numbers must be nonnegative")
        object.__setattr__(self, "b", tuple(int(x) for x in self.b))


@dataclass(frozen=True)
class HarishChandraInput:
    n_noncompact_pos_roots: int
    n_pos_roots: int
    nu: int
    volume_ratio: float | Fraction
    weyl_order: int
    weyl_order_complex: int = 0
    rho_product: float | Fraction = Fraction(0)

    def __post_init__(self):
        if min(self.n_noncompact_pos_roots, self.n_pos_roots, self.nu) < 0:
            raise ValueError("counts must be nonnegative")
        if self.weyl_order_complex and self.weyl_order_complex % self.weyl_order:
            raise ValueError("weyl_order must divide weyl_order_complex")


@dataclass(frozen=True)
class EllipticClassInput:
    tau_trace: complex
    centralizer: HarishChandraInput | None
    is_elliptic: bool
    is_regular: bool


@dataclass(frozen=True)
class SymbolicScalar:
    """sign * (2*pi)^two_pi_power * sqrt(2)^sqrt2_power * factor."""

    sign: int
    two_pi_power: int
    sqrt2_power: int
    factor: float | Fraction

    def float_value(self) -> float:
        return (
            self.sign
            * (2 * math.pi) ** self.two_pi_power
            * math.sqrt(2) ** self.sqrt2_power
            * float(self.factor)
        )

    def inverse(self) -> "SymbolicScalar":
        factor = self.factor
        inv = 1 / factor if isinstance(factor, Fraction) else 1.0 / factor
        return SymbolicScalar(self.sign, -self.two_pi_power, -self.sqrt2_power, inv)

    def scaled(self, c) -> "SymbolicScalar":
        return SymbolicScalar(
            self.sign, self.two_pi_power, self.sqrt2_power, self.factor * c
        )

    def to_json_obj(self) -> dict:
        f = self.factor
        return {
            "sign": self.sign,
            "two_pi_power": self.two_pi_power,
            "sqrt2_power": self.sqrt2_power,
            "factor": str(f) if isinstance(f, Fraction) else f,
            "float_value": self.float_value(),
        }


def chi_r(b: BettiVector, r: int) -> int:
    """Sum_j (-1)^{j+r} C(j, r) b[j]."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return sum(
        (-1) ** (j + r) * comb(j, r) * bj for j, bj in enumerate(b.b)
    )


def bundle_betti_transfer(base: BettiVector, r: int) -> BettiVector:
    """Betti numbers of a rank-r torus bundle: binomial convolution of the
    base vector with the r-th Pascal row."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    out = [0] * (len(base.b) + r)
    for j, bj in enumerate(base.b):
        for k in range(r + 1):
            out[j + k] += comb(r, k) * bj
    return BettiVector(tuple(out))


def comb_identity_check(r: int, p: int) -> bool:
    """Sum_{j=r}^{r+p} (-1)^{j+r} C(j,r) C(r, j-p) = (-1)^p, exactly."""
    if r < 0 or p < 0:
        raise ValueError("r and p must be nonnegative")
    total = sum(
        (-1) ** (j + r) * comb(j, r) * comb(r, j - p)
        for j in range(max(r, p), r + p + 1)
    )
    return total == (-1) ** p


def harish_chandra_constant(inp: HarishChandraInput) -> SymbolicScalar:
    """c = (-1)^{#noncompact} (2*pi)^{#pos roots} 2^{nu/2} (v(T)/v(K)) |W|."""
    if float(inp.volume_ratio) <= 0:
        raise ValueError("volume ratio must be positive")
    sign = (-1) ** inp.n_noncompact_pos_roots
    factor = inp.volume_ratio * inp.weyl_order
    return SymbolicScalar(sign, inp.n_pos_roots, inp.nu, factor)


def chi_gen(
    inp: HarishChandraInput, covolume, a_covolume=None
) -> dict:
    """Generic Euler number c^{-1} |W_C| prod(rho, alpha) vol, and optionally
    its quotient by an A-covolume."""
    if float(covolume) <= 0:
        raise ValueError("covolume must be positive")
    c = harish_chandra_constant(inp)
    if float(inp.rho_product) == 0 or float(c.factor) == 0:
        raise ValueError("degenerate constant")
    value = c.inverse().scaled(
        inp.weyl_order_complex * inp.rho_product * covolume
    )
    out = {"chi_gen": value}
    if a_covolume is not None:
        if float(a_covolume) <= 0:
            raise ValueError("A-covolume must be positive")
        out["chi_r"] = value.scaled(
            Fraction(1) / a_covolume
            if isinstance(a_covolume, (int, Fraction))
            else 1.0 / a_covolume
        )
    return out


def orbital_integral_value(inp: EllipticClassInput) -> complex:
    """Closed elliptic value tr tau(g) * c_g^{-1} |W| prod(rho_g, alpha);
    zero off the elliptic set."""
    if not inp.is_elliptic:
        return 0
    cz = inp.centralizer
    if cz is None:
        raise ValueError("elliptic input requires centralizer data")
    c = harish_chandra_constant(cz)
    return (
        inp.tau_trace
        * c.inverse().float_value()
        * cz.weyl_order
        * float(cz.rho_product)
    )


# ---------------------------------------------------------------------------
# Character decomposition and Euler-Poincare trace values


def _is_weyl_invariant(datum: RootDatum, ch: LaurentCharacter, simple=None) -> bool:
    """Invariance under the reflections in the `simple` roots (default: all)."""
    if ch.scale != 1:
        ch = ch.normalized()
        if ch.scale != 1:
            return False
    for i in range(datum.rank) if simple is None else simple:
        reflected = {}
        for w, m in ch.terms.items():
            reflected[datum.reflect(w, i)] = m
        if reflected != dict(ch.terms):
            return False
    return True


def decompose_character(
    datum: RootDatum, ch: LaurentCharacter, levi=None
) -> dict[Weight, int]:
    """Multiplicities of irreducible characters in a Weyl-invariant virtual
    character, by greedy subtraction of the highest remaining term.  With
    `levi`, the irreducibles and the Weyl group are those of the subsystem
    of those simple roots, and a weight is ordered by its height on them."""
    levi = range(datum.rank) if levi is None else sorted(levi)
    if not _is_weyl_invariant(datum, ch, levi):
        raise ValueError("character is not Weyl-invariant")
    remaining = dict(ch.normalized().terms)
    out: dict[Weight, int] = {}

    def height(w):
        coords = datum.root_coordinates(w)
        return sum((coords[i] for i in levi), Fraction(0))

    while remaining:
        top = max(remaining, key=lambda w: (height(w), w))
        if any(top[i] < 0 for i in levi):
            raise ValueError(
                f"highest remaining weight {top} is not dominant; "
                "input is not a virtual character of the group"
            )
        m = remaining[top]
        out[top] = out.get(top, 0) + m
        for w, mult in weight_multiplicities(datum, top, levi).items():
            c = remaining.get(w, 0) - m * mult
            if c:
                remaining[w] = c
            else:
                remaining.pop(w, None)
    return {k: v for k, v in out.items() if v}


def trivial_multiplicity(datum: RootDatum, ch: LaurentCharacter, levi=None) -> int:
    """Multiplicity of the summands trivial on the subsystem of the `levi`
    simple roots (default: all), whose highest weights vanish on them."""
    levi = range(datum.rank) if levi is None else levi
    tops = decompose_character(datum, ch, levi)
    return sum(m for top, m in tops.items() if all(top[i] == 0 for i in levi))


def euler_poincare_trace(
    pi_char: LaurentCharacter,
    p_char: LaurentCharacter,
    tau_char: LaurentCharacter,
    group: RootDatum,
) -> int:
    """Alternating sum over p of the trivial multiplicity in
    pi ⊗ ∧^p(p_char) ⊗ tau-dual."""
    for ch in (pi_char, p_char, tau_char):
        if not ch.is_effective():
            raise ValueError("input characters must be effective")
        if not _is_weyl_invariant(group, ch):
            raise ValueError("input character is not Weyl-invariant")
    base = pi_char * tau_char.dual()
    total = 0
    for p in range(p_char.dimension() + 1):
        term = base * exterior_power_character(p_char, p)
        mult = trivial_multiplicity(group, term)
        total += mult if p % 2 == 0 else -mult
    return total
