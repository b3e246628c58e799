"""Clifford algebras on polarized quadratic spaces and the spin module.

The quadratic space V = V+ ⊕ V- is polarized (q vanishes on each half) and
has the pairing q(v_i, v̂_j) = -δ_ij between the two halves.  The spin module
is S = ∧V- with basis indexed by subsets-as-bitmasks; V- acts by left wedge
and V+ by contraction.  The contraction is taken with coefficient 2 so that
the Clifford relation x·y + y·x = -2 q(x,y) holds exactly with the stored
pairing (wedge-then-contract plus contract-then-wedge is the identity, and
-2 q(v_i, v̂_i) = 2).

S± and ε have half-integral weights, so their characters live on the doubled
lattice (the key 2w is the weight w), and `_doubled` moves V and V+ there
before the comparison: an injective map, so each identity keeps its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    LaurentCharacter,
    Weight,
    alternating_exterior_sum,
    exterior_power_character,
)

# generator labels: ("v", i) spans V+, ("vhat", i) spans V-
GenLabel = tuple


@dataclass(frozen=True)
class PolarizedSpace:
    """Even-dimensional quadratic space with a chosen polarization.

    `m` is the half-dimension; `torus_weights` are the nonzero weights of V+
    under a torus (V- gets the negated weights).  The pairing is
    q(v_i, v̂_j) = -δ_ij and q vanishes on V+ and on V-.
    """

    m: int
    torus_weights: tuple[Weight, ...] = ()

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("half-dimension m must be positive")
        if not self.torus_weights:
            # default: standard basis weights of a rank-m torus
            std = tuple(
                tuple(1 if j == i else 0 for j in range(self.m)) for i in range(self.m)
            )
            object.__setattr__(self, "torus_weights", std)
        else:
            object.__setattr__(
                self, "torus_weights", tuple(tuple(w) for w in self.torus_weights)
            )
        ranks = {len(w) for w in self.torus_weights}
        if len(self.torus_weights) != self.m or len(ranks) != 1:
            raise ValueError("need m torus weights of a common rank")
        # prod (1 - x^mu)(1 - x^-mu) = (-1)^m (ch S+ - ch S-)^2 fixes the sign
        # and parity of both identities only when no factor vanishes
        zero = next((i for i, w in enumerate(self.torus_weights) if not any(w)), None)
        if zero is not None:
            raise ValueError(
                f"torus weight {zero} is zero: the spin square and the epsilon "
                "twist then fix no sign or parity"
            )

    @property
    def rank(self) -> int:
        return len(self.torus_weights[0])

    def generators(self) -> list[GenLabel]:
        return [("v", i) for i in range(self.m)] + [("vhat", i) for i in range(self.m)]

    def pairing(self, x: GenLabel, y: GenLabel) -> Fraction:
        """Symmetric bilinear form on generator pairs."""
        if x[0] != y[0] and x[1] == y[1]:
            return Fraction(-1)
        return Fraction(0)


def _koszul_sign(s: int, i: int) -> int:
    """Sign for moving a factor indexed i past the factors of s below i."""
    below = s & ((1 << i) - 1)
    return -1 if bin(below).count("1") % 2 else 1


def clifford_action(space: PolarizedSpace, gen: GenLabel, s: int) -> dict[int, int]:
    """Action of a generator on a spin basis element, as a sparse combination."""
    kind, i = gen
    if not 0 <= i < space.m:
        raise ValueError(f"unknown generator {gen!r}")
    bit = 1 << i
    if kind == "vhat":
        if s & bit:
            return {}
        return {s | bit: _koszul_sign(s, i)}
    if kind == "v":
        if not s & bit:
            return {}
        # contraction by -2q(v_i, ·): coefficient 2 with the Koszul sign
        return {s & ~bit: 2 * _koszul_sign(s, i)}
    raise ValueError(f"unknown generator {gen!r}")


def clifford_relation_check(space: PolarizedSpace) -> bool:
    """x(y(s)) + y(x(s)) = -2 q(x,y) s for every ordered generator pair and
    every basis bitmask s, with integer coefficients: two linear maps are
    equal exactly when they agree on a basis."""
    gens = space.generators()
    for x in gens:
        for y in gens:
            expected = -2 * space.pairing(x, y)
            for s in range(1 << space.m):
                anti: dict[int, int] = {}
                for a, b in ((x, y), (y, x)):
                    for t, c in clifford_action(space, b, s).items():
                        for u, d in clifford_action(space, a, t).items():
                            anti[u] = anti.get(u, 0) + c * d
                if anti.pop(s, 0) != expected or any(anti.values()):
                    return False
    return True


def half_spin_characters(
    space: PolarizedSpace,
) -> tuple[LaurentCharacter, LaurentCharacter]:
    """Characters of S± (weights ½(±μ₁±…±μ_m), even/odd minus signs), doubled."""
    rank = space.rank
    plus: list[list[int]] = []
    minus: list[list[int]] = []
    for s in range(1 << space.m):
        w = [0] * rank
        for i, mu in enumerate(space.torus_weights):
            sign = -1 if s & (1 << i) else 1
            for j, c in enumerate(mu):
                w[j] += sign * c
        (plus if bin(s).count("1") % 2 == 0 else minus).append(w)
    return LaurentCharacter.from_weights(rank, plus), LaurentCharacter.from_weights(rank, minus)


def _doubled(ch: LaurentCharacter) -> LaurentCharacter:
    """The same character on the doubled lattice."""
    return LaurentCharacter(ch.rank, {tuple(2 * c for c in w): m for w, m in ch.terms.items()})


def full_space_character(space: PolarizedSpace) -> LaurentCharacter:
    """Character of V = V+ ⊕ V- with weights ±μ_i."""
    weights = [[sign * c for c in mu] for mu in space.torus_weights for sign in (1, -1)]
    return LaurentCharacter.from_weights(space.rank, weights)


def verify_spin_square(space: PolarizedSpace) -> tuple[bool, int]:
    """(ch S+ - ch S-)² versus ∧^even V - ∧^odd V.

    Returns (holds, sign) where sign is the unique global sign making the
    two virtual characters equal, or (False, 0) if neither sign works.
    """
    s_plus, s_minus = half_spin_characters(space)
    delta = s_plus - s_minus
    lhs = delta * delta
    rhs = alternating_exterior_sum(_doubled(full_space_character(space)))
    if lhs == rhs:
        return True, 1
    if lhs == -rhs:
        return True, -1
    return False, 0


def epsilon_twist_check(space: PolarizedSpace) -> tuple[bool, str]:
    """S± ⊗ ε versus the even/odd exterior powers of V+, as weight multisets.

    ε is the one-dimensional twist of weight ½(μ₁+…+μ_m).  Returns (holds,
    parity) where parity names the exterior parity matched by S+ ⊗ ε.
    """
    s_plus, s_minus = half_spin_characters(space)
    rank = space.rank
    eps_key = tuple(sum(mu[j] for mu in space.torus_weights) for j in range(rank))
    eps = LaurentCharacter.monomial(eps_key)
    v_plus = _doubled(LaurentCharacter.from_weights(rank, space.torus_weights))
    even = LaurentCharacter.zero(rank)
    odd = LaurentCharacter.zero(rank)
    for p in range(space.m + 1):
        term = exterior_power_character(v_plus, p)
        if p % 2 == 0:
            even = even + term
        else:
            odd = odd + term
    twisted_plus = s_plus * eps
    twisted_minus = s_minus * eps
    if twisted_plus == even and twisted_minus == odd:
        return True, "even"
    if twisted_plus == odd and twisted_minus == even:
        return True, "odd"
    return False, "none"
