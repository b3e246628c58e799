"""Spectral and geometric sides of the trace identity at desk scale.

Spectral terms m_lambda are computed from the weight-graded nilradical
cohomology of a finite-dimensional module; geometric coefficients come from a
ledger of closed-geodesic class records.  A balance evaluator pairs both
sides against exponential-box test functions on the negative chamber.

Chamber convention: a class record stores a_log in the negative chamber
(every n-root takes a negative value on it); test-function boxes live in the
positive chamber coordinates t = -a_log, so a^lambda = exp(<lambda, a_log>)
becomes exp(<-lambda, t>) under the integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from itertools import combinations

from .algebra import ParabolicSplit, WeightModule
from .cohomology import ChainComplex, CohomologyTable, build_ce_complex, cohomology_table
from .euler import trivial_multiplicity
from .exact import (
    LaurentCharacter,
    Weight,
    alternating_exterior_sum,
    exterior_power_character,
)

AWeight = tuple[Fraction, ...]


def _parse(from_json_obj):
    """A from_json_obj classmethod that raises ValueError, as for any bad
    input, where malformed JSON makes it raise TypeError or ZeroDivisionError."""

    @wraps(from_json_obj)
    def parse(cls, obj):
        try:
            return from_json_obj(cls, obj)
        except (TypeError, ZeroDivisionError) as e:
            raise ValueError(f"malformed {cls.__name__}: {e}") from e

    return classmethod(parse)


# ---------------------------------------------------------------------------
# Input record types


@dataclass(frozen=True)
class GeodesicClassRecord:
    """One closed-geodesic class: logarithm of the split part, covolume,
    twisted Euler number and the two trace values."""

    a_log: tuple[float, ...]
    covolume: float
    chi_r: Fraction
    omega_trace: complex
    tau_trace: complex

    @_parse
    def from_json_obj(cls, obj: dict) -> "GeodesicClassRecord":
        def cx(v):
            if isinstance(v, (list, tuple)):
                re, im = v
                return complex(re, im)
            return complex(v)

        return cls(
            tuple(float(x) for x in obj["a_log"]),
            float(obj["covolume"]),
            Fraction(obj["chi_r"]),
            cx(obj["omega_trace"]),
            cx(obj["tau_trace"]),
        )

    def to_json_obj(self) -> dict:
        return {
            "a_log": list(self.a_log),
            "covolume": self.covolume,
            "chi_r": str(self.chi_r),
            "omega_trace": [self.omega_trace.real, self.omega_trace.imag],
            "tau_trace": [self.tau_trace.real, self.tau_trace.imag],
        }


@dataclass(frozen=True)
class SpectralTermTable:
    """Finitely supported map from a-weights to integer coefficients."""

    terms: dict[AWeight, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {
            tuple(Fraction(c) for c in k): int(v)
            for k, v in self.terms.items()
            if v
        }
        object.__setattr__(self, "terms", clean)

    def __add__(self, other: "SpectralTermTable") -> "SpectralTermTable":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return SpectralTermTable(out)

    def scaled(self, n: int) -> "SpectralTermTable":
        return SpectralTermTable({k: n * v for k, v in self.terms.items()})

    @_parse
    def from_json_obj(cls, rows: list) -> "SpectralTermTable":
        return cls(
            {
                tuple(Fraction(c) for c in row["lambda"]): int(row["m"])
                for row in rows
            }
        )

    def to_json_obj(self) -> list:
        return [
            {"lambda": [str(c) for c in k], "m": v}
            for k, v in sorted(self.terms.items())
        ]


@dataclass(frozen=True)
class SpectralInput:
    """Virtual combination of spectral term tables with multiplicities."""

    entries: tuple[tuple[SpectralTermTable, int], ...]

    @_parse
    def from_json_obj(cls, obj: dict) -> "SpectralInput":
        return cls(
            tuple(
                (SpectralTermTable.from_json_obj(e["table"]), int(e["multiplicity"]))
                for e in obj["entries"]
            )
        )

    def combined(self) -> SpectralTermTable:
        total = SpectralTermTable({})
        for table, n in self.entries:
            total = total + table.scaled(n)
        return total


@dataclass(frozen=True)
class TestFunction:
    """Finite combination of exponential pieces supported on boxes strictly
    inside the positive chamber coordinates."""

    __test__ = False  # not a test case despite the name

    pieces: tuple[tuple[float, tuple[Fraction, ...], tuple[tuple[float, float], ...]], ...]

    def __post_init__(self):
        for _, mu, box in self.pieces:
            if len(mu) != len(box):
                raise ValueError(f"mu {list(mu)} and its box have different lengths")
            for t, u in box:
                if not 0 < t < u:
                    raise ValueError("box bounds must satisfy 0 < T < U")

    @_parse
    def from_json_obj(cls, obj: dict) -> "TestFunction":
        return cls(
            tuple(
                (
                    float(p["coefficient"]),
                    tuple(Fraction(c) for c in p["mu"]),
                    tuple((float(t), float(u)) for t, u in p["box"]),
                )
                for p in obj["pieces"]
            )
        )

    def scaled(self, c: float) -> "TestFunction":
        return TestFunction(
            tuple((coeff * c, mu, box) for coeff, mu, box in self.pieces)
        )

    def evaluate(self, point) -> float:
        """Value at a point in chamber coordinates (zero outside all boxes)."""
        total = 0.0
        for coeff, mu, box in self.pieces:
            if len(point) != len(box):
                raise ValueError("point dimension mismatch")
            if all(t <= x <= u for x, (t, u) in zip(point, box)):
                total += coeff * math.exp(
                    sum(float(m) * x for m, x in zip(mu, point))
                )
        return total


@dataclass(frozen=True)
class LeviRealForm:
    """How to extract Levi-invariants: the character of the symmetric-space
    part for the Levi; the invariants are those of the compact Levi."""

    p_m_char: LaurentCharacter

    def __post_init__(self):
        if not self.p_m_char.is_effective():
            raise ValueError("p_M character must be effective")


# ---------------------------------------------------------------------------
# Determinant identity


def det_identity_check(n_weights, point) -> bool:
    """Sum_r (-1)^r tr(.|wedge^r n) = det(1 - .|n), exactly at a rational
    point.  Weights may be rational; a common denominator L is cleared and
    the point is read on the refined lattice (point_j = t_j^{1/L})."""
    weights = [tuple(Fraction(c) for c in w) for w in n_weights]
    point = [Fraction(c) for c in point]
    denom = math.lcm(*(c.denominator for w in weights for c in w))
    values = [
        math.prod((p ** int(c * denom) for c, p in zip(w, point)), start=Fraction(1))
        for w in weights
    ]
    # sum_r (-1)^r e_r(values), e_r the elementary symmetric functions
    lhs = sum(
        (-1) ** r * math.prod(c, start=Fraction(1))
        for r in range(len(values) + 1)
        for c in combinations(values, r)
    )
    rhs = math.prod(((1 - v) for v in values), start=Fraction(1))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Spectral side


def spectral_term(
    mod: WeightModule,
    split: ParabolicSplit,
    levi_form: LeviRealForm,
    tau_char: LaurentCharacter,
) -> SpectralTermTable:
    """m_lambda = sum over (p, q) of (-1)^{p+q+dim N} times the dimension of
    the Levi-invariants in H^q(n,V)^lambda ⊗ ∧^p p_M ⊗ tau-dual."""
    datum = split.datum
    table = cohomology_table(build_ce_complex(split, mod))
    dim_n = len(split.n_roots)
    sign_n = (-1) ** dim_n
    p_ch = levi_form.p_m_char
    tau_dual = tau_char.dual()
    out: dict[AWeight, int] = {}
    for q, degree in enumerate(table.degrees):
        # group the h-weights of H^q by restricted a-weight
        blocks: dict[AWeight, dict[Weight, int]] = {}
        for wt, d in degree.items():
            blocks.setdefault(split.restrict_to_a(wt), {})[wt] = d
        for lam, terms in blocks.items():
            h_ch = LaurentCharacter(datum.rank, terms)
            for p in range(p_ch.dimension() + 1):
                prod = h_ch * exterior_power_character(p_ch, p) * tau_dual
                inv = trivial_multiplicity(datum, prod, split.levi)
                if inv:
                    val = sign_n * ((-1) ** (p + q)) * inv
                    out[lam] = out.get(lam, 0) + val
    return SpectralTermTable(out)


# ---------------------------------------------------------------------------
# Geometric side


def geometric_term(
    rec: GeodesicClassRecord, n_weights, multipliers=None
) -> complex:
    """c = covolume * chi_r * tr omega * tr tau / det(1 - ab | n), with the
    determinant evaluated from the a-weights at a_log and optional
    unit-modulus per-weight multipliers for the elliptic part."""
    if multipliers is None:
        multipliers = [1.0] * len(n_weights)
    if len(multipliers) != len(n_weights):
        raise ValueError("one multiplier per n-weight required")
    det = complex(1.0)
    for w, u in zip(n_weights, multipliers):
        expo = sum(float(c) * x for c, x in zip(w, rec.a_log, strict=True))
        if expo >= 0:
            raise ValueError(
                f"weight {tuple(w)} is not negative on a_log; record lies "
                "outside the negative chamber"
            )
        det *= 1 - complex(u) * math.exp(expo)
    if abs(det) < 1e-300:
        raise ValueError("vanishing determinant")
    return (
        rec.covolume * float(rec.chi_r) * rec.omega_trace * rec.tau_trace / det
    )


def am_tilde_membership(a_eigs_on_nbar, m_eigs_on_g) -> tuple[bool, float]:
    """lambda = min |a on nbar| / max |m on g|; member iff lambda > 1."""
    if not a_eigs_on_nbar or not m_eigs_on_g:
        raise ValueError("eigenvalue lists must be nonempty")
    lam = min(a_eigs_on_nbar) / max(m_eigs_on_g)
    return lam > 1, lam


# ---------------------------------------------------------------------------
# Character identity of the split restriction


def hecht_schmid_check(
    mod: WeightModule, split: ParabolicSplit, table: CohomologyTable | None = None
) -> bool:
    """ch(V) * prod_{alpha in n}(1 - x^alpha) = sum_p (-1)^p ch H_p(n, V),
    exactly as Laurent characters on the full Cartan (the chain convention
    of the homology boundary fixes the orientation).  `table` is the homology
    table of (split, mod), computed here if not given."""
    n_char = LaurentCharacter.from_weights(split.datum.rank, split.n_roots)
    lhs = mod.character() * alternating_exterior_sum(n_char)
    if table is None:
        table = ChainComplex(split, mod).table()
    return lhs == table.euler_character()


# ---------------------------------------------------------------------------
# Test-function integration and the balance evaluator


def integrate_testfn(phi: TestFunction, lam) -> float:
    """Sum_i c_i prod_j integral_{T_j}^{U_j} exp((mu_ij + lam_j) t) dt."""
    lam = [float(c) for c in lam]
    total = 0.0
    for coeff, mu, box in phi.pieces:
        if len(lam) != len(box):
            raise ValueError("weight dimension mismatch")
        piece = coeff
        for m, l, (t, u) in zip(mu, lam, box):
            e = float(m) + l
            if e == 0:
                piece *= u - t
            else:
                # e^{eT} (e^{e(U-T)} - 1) / e: no cancellation as e -> 0
                piece *= math.exp(e * t) * math.expm1(e * (u - t)) / e
        total += piece
    return total


def balance_evaluator(
    spec: SpectralInput,
    ledger,
    phi: TestFunction,
    split: ParabolicSplit | None = None,
    n_weights=None,
    multipliers_per_record=None,
) -> tuple[complex, complex, complex]:
    """Global side (spectral sum against the test function), local side
    (ledger sum of c_gamma * phi at the class), and their difference.

    The residual is reported, never asserted: real spectral data is external.
    """
    if n_weights is None:
        if split is None:
            raise ValueError("need either explicit n-weights or a split")
        n_weights = [split.restrict_to_a(r) for r in split.n_roots]
    table = spec.combined()
    # a^lambda = exp(<lambda, a_log>) = exp(<-lambda, t>) on the boxes
    global_side = math.fsum(
        m * integrate_testfn(phi, [-c for c in lam]) for lam, m in table.terms.items()
    )
    if multipliers_per_record is None:
        multipliers_per_record = [None] * len(ledger)
    local_terms = [
        geometric_term(rec, n_weights, mult) * phi.evaluate(tuple(-x for x in rec.a_log))
        for rec, mult in zip(ledger, multipliers_per_record, strict=True)
    ]
    local_side = complex(
        math.fsum(z.real for z in local_terms), math.fsum(z.imag for z in local_terms)
    )
    return global_side, local_side, global_side - local_side
