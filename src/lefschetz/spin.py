"""Clifford algebras on polarized quadratic spaces and the spin module.

The quadratic space V = V+ ⊕ V- is polarized (q vanishes on each half) and
has the pairing q(v_i, v̂_j) = -δ_ij between the two halves.  The spin module
is S = ∧V- with basis indexed by subsets-as-bitmasks; V- acts by left wedge
and V+ by contraction.  The contraction is taken with coefficient 2 so that
the Clifford relation x·y + y·x = -2 q(x,y) holds exactly with the stored
pairing (wedge-then-contract plus contract-then-wedge is the identity, and
-2 q(v_i, v̂_i) = 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    ExactMatrix,
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

    `m` is the half-dimension; `torus_weights` are the weights of V+ under a
    torus (V- gets the negated weights).  The pairing is q(v_i, v̂_j) = -δ_ij
    and q vanishes on V+ and on V-.
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


@dataclass(frozen=True)
class SpinModule:
    """S = ∧V- with basis the subsets of {0..m-1} encoded as bitmasks."""

    space: PolarizedSpace

    @property
    def dimension(self) -> int:
        return 1 << self.space.m

    @property
    def basis(self) -> range:
        return range(self.dimension)

    @property
    def plus_part(self) -> list[int]:
        return [s for s in self.basis if bin(s).count("1") % 2 == 0]

    @property
    def minus_part(self) -> list[int]:
        return [s for s in self.basis if bin(s).count("1") % 2 == 1]


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


def clifford_matrix(space: PolarizedSpace, gen: GenLabel) -> ExactMatrix:
    n = 1 << space.m
    out = ExactMatrix(n, n)
    for s in range(n):
        for t, c in clifford_action(space, gen, s).items():
            out[t, s] = c
    return out


def clifford_relation_check(space: PolarizedSpace) -> bool:
    """x·y + y·x = -2 q(x,y) on all generator pairs, exactly."""
    gens = space.generators()
    mats = {g: clifford_matrix(space, g) for g in gens}
    n = 1 << space.m
    for x in gens:
        for y in gens:
            anti = mats[x] @ mats[y] + mats[y] @ mats[x]
            expected = ExactMatrix.identity(n).scale_by(-2 * space.pairing(x, y))
            if anti != expected:
                return False
    return True


def half_spin_characters(
    space: PolarizedSpace,
) -> tuple[LaurentCharacter, LaurentCharacter]:
    """Characters of S± with weights ½(±μ₁±…±μ_m), even/odd minus signs."""
    rank = space.rank
    plus: dict[Weight, int] = {}
    minus: dict[Weight, int] = {}
    for s in range(1 << space.m):
        w = [0] * rank
        for i, mu in enumerate(space.torus_weights):
            sign = -1 if s & (1 << i) else 1
            for j, c in enumerate(mu):
                w[j] += sign * c
        key = tuple(w)  # stored on the doubled lattice
        target = plus if bin(s).count("1") % 2 == 0 else minus
        target[key] = target.get(key, 0) + 1
    return (
        LaurentCharacter(rank, plus, scale=2),
        LaurentCharacter(rank, minus, scale=2),
    )


def full_space_character(space: PolarizedSpace) -> LaurentCharacter:
    """Character of V = V+ ⊕ V- with weights ±μ_i."""
    rank = space.rank
    terms: dict[Weight, int] = {}
    for mu in space.torus_weights:
        for sign in (1, -1):
            key = tuple(sign * c for c in mu)
            terms[key] = terms.get(key, 0) + 1
    return LaurentCharacter(rank, terms)


def verify_spin_square(space: PolarizedSpace) -> tuple[bool, int]:
    """(ch S+ - ch S-)² versus ∧^even V - ∧^odd V.

    Returns (holds, sign) where sign is the unique global sign making the
    two virtual characters equal, or (False, 0) if neither sign works.
    """
    s_plus, s_minus = half_spin_characters(space)
    delta = s_plus - s_minus
    lhs = delta * delta
    rhs = alternating_exterior_sum(full_space_character(space))
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
    eps = LaurentCharacter(rank, {eps_key: 1}, scale=2)
    v_plus = LaurentCharacter.from_weights(rank, space.torus_weights)
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
