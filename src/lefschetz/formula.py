"""Spectral and geometric sides of the trace identity at desk scale.

Spectral terms m_lambda are computed from Kostant's highest weights of the
nilradical cohomology of a finite-dimensional module, with no module or
complex built; geometric coefficients come from a ledger of closed-geodesic
class records.  A balance evaluator pairs both sides against exponential-box
test functions on the negative chamber.

Chamber convention: a class record stores a_log in the negative chamber
(every n-root takes a negative value on it); test-function boxes live in the
positive chamber coordinates t = -a_log, so a^lambda = exp(<lambda, a_log>)
becomes exp(<-lambda, t>) under the integral.
"""

from __future__ import annotations

import cmath
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from itertools import combinations

from .algebra import ParabolicSplit, WeightModule
from .cohomology import CohomologyTable, euler_identity_check, kostant_weights
from .euler import decompose_character
from .exact import LaurentCharacter, alternating_exterior_sum

AWeight = tuple[Fraction, ...]


def _parse(from_json_obj):
    """A from_json_obj classmethod that raises ValueError, as for any bad
    input, where malformed JSON makes it raise TypeError, ZeroDivisionError or
    OverflowError (a Fraction of Infinity)."""

    @wraps(from_json_obj)
    def parse(cls, obj):
        try:
            return from_json_obj(cls, obj)
        except (TypeError, ZeroDivisionError, OverflowError) as e:
            raise ValueError(f"malformed {cls.__name__}: {e}") from e

    return classmethod(parse)


def json_int(v) -> int:
    """A count read from JSON, which must be an integer: int() would truncate
    a float."""
    if type(v) is not int:
        raise ValueError(f"{v!r} is not an integer")
    return v


# Largest size |n| of the decimal exponent e<n> of a rational read from input,
# where `Fraction` forms 10**|n| before anything can check its size.  Measured
# with Python 3.11 on a shared 2-vCPU host, min of five parses of "1e-<n>":
# 0.005 ms at n = 400, 0.14 ms at 10**4, 4.3 ms at 10**5 and 0.17 s at 10**6.
MAX_EXPONENT = 10**4

# the exponent of a decimal that `Fraction` reads: it ends the string
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def read_fraction(v) -> Fraction:
    """A rational read from JSON or the command line, as `Fraction` reads it,
    but with a decimal exponent above MAX_EXPONENT in size refused first."""
    if isinstance(v, str) and (m := _EXPONENT.search(v)) and int(m.group(1)) > MAX_EXPONENT:
        raise ValueError(f"the exponent of {v!r} exceeds the limit MAX_EXPONENT = {MAX_EXPONENT}")
    return Fraction(v)


def _finite(x):
    """A float or complex read from JSON, which must be finite: Python's json
    reads NaN and Infinity."""
    if not cmath.isfinite(x):
        raise ValueError(f"{x} is not finite")
    return x


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
                return _finite(complex(re, im))
            return _finite(complex(v))

        return cls(
            tuple(_finite(float(x)) for x in obj["a_log"]),
            _finite(float(obj["covolume"])),
            read_fraction(obj["chi_r"]),
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

    @_parse
    def from_json_obj(cls, rows: list) -> "SpectralTermTable":
        return cls(
            {
                tuple(map(read_fraction, row["lambda"])): json_int(row["m"])
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
                (SpectralTermTable.from_json_obj(e["table"]), json_int(e["multiplicity"]))
                for e in obj["entries"]
            )
        )

    def combined(self) -> SpectralTermTable:
        total = Counter()
        for table, n in self.entries:
            for k, v in table.terms.items():
                total[k] += n * v
        return SpectralTermTable(total)


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
                    _finite(float(p["coefficient"])),
                    tuple(map(read_fraction, p["mu"])),
                    tuple((_finite(float(t)), _finite(float(u))) for t, u in p["box"]),
                )
                for p in obj["pieces"]
            )
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


# ---------------------------------------------------------------------------
# Determinant identity


# Most n-weights of `det_identity_check`, which sums 2^k products per point.
# Measured with Python 3.11 on a shared 2-vCPU host: `lef verify det` takes
# 19.7 s on D4 (at most 12 weights) with 50 points, and 6.1 s on A5 (15) with
# one; every split of A1-A4, B2, B3, C3, G2 and D4 is admitted.
DET_WEIGHT_BOUND = 12


def det_identity_check(n_weights, point) -> bool:
    """Sum_r (-1)^r tr(.|wedge^r n) = det(1 - .|n), exactly at a rational
    point.  Weights may be rational; a common denominator L is cleared and
    the point is read on the refined lattice (point_j = t_j^{1/L})."""
    weights = [tuple(Fraction(c) for c in w) for w in n_weights]
    if len(weights) > DET_WEIGHT_BOUND:
        raise ValueError(
            f"{len(weights)} n-weights exceed DET_WEIGHT_BOUND = {DET_WEIGHT_BOUND}"
        )
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
    split: ParabolicSplit, lam, p_m_char: LaurentCharacter, tau_char: LaurentCharacter
) -> SpectralTermTable:
    """m_lambda = sum over (p, q) of (-1)^{p+q+dim N} times the dimension of
    the Levi-invariants in H^q(n,V)^lambda ⊗ ∧^p p_M ⊗ tau-dual, V of highest
    weight `lam`.  By Kostant, H^q(n, V) = ⊕ F_mu over the degree-q
    `kostant_weights` mu, F_mu of a-weight mu|_a; the invariants of F_mu ⊗ X
    count the summands of X-dual with mu's Levi coordinates."""
    datum, levi = split.datum, sorted(split.levi)
    virtual = alternating_exterior_sum(p_m_char.dual()) * tau_char
    count = Counter()
    for top, m in decompose_character(datum, virtual, levi).items():
        count[tuple(top[i] for i in levi)] += m
    out = Counter()
    for q, level in enumerate(kostant_weights(datum, split, lam)):
        for mu in level:
            if c := count[tuple(mu[i] for i in levi)]:
                out[split.restrict_to_a(mu)] += (-1) ** (q + len(split.n_roots)) * c
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
        if not expo < 0:  # NaN too
            raise ValueError(
                f"weight {tuple(w)} is not negative on a_log; record lies "
                "outside the negative chamber"
            )
        # 1 - u e^x without the cancellation of 1 - e^x as x -> 0-
        det *= -math.expm1(expo) if u == 1 else (1 - u) - u * math.expm1(expo)
    if abs(det) < 1e-300:
        raise ValueError("vanishing determinant")
    return (
        rec.covolume * float(rec.chi_r) * rec.omega_trace * rec.tau_trace / det
    )


# ---------------------------------------------------------------------------
# Character identity of the split restriction


def hecht_schmid_check(mod: WeightModule, split: ParabolicSplit, table: CohomologyTable) -> bool:
    """ch(V) * prod_{alpha in n}(1 - x^alpha) = sum_p (-1)^p ch H_p(n, V),
    exactly as Laurent characters on the full Cartan (the chain convention
    of the homology boundary fixes the orientation); `table` is the homology
    table of (split, mod)."""
    return euler_identity_check(mod, table, split.n_roots)


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
    spec: SpectralInput, ledger, phi: TestFunction, split: ParabolicSplit
) -> tuple[complex, complex, complex]:
    """Global side (spectral sum against the test function), local side
    (ledger sum of c_gamma * phi at the class), and their difference.

    The residual is reported, never asserted: real spectral data is external.
    """
    table = spec.combined()
    # a^lambda = exp(<lambda, a_log>) = exp(<-lambda, t>) on the boxes
    global_side = math.fsum(
        m * integrate_testfn(phi, [-c for c in lam]) for lam, m in table.terms.items()
    )
    local_terms = [
        geometric_term(rec, split.n_weights) * phi.evaluate(tuple(-x for x in rec.a_log))
        for rec in ledger
    ]
    local_side = complex(
        math.fsum(z.real for z in local_terms), math.fsum(z.imag for z in local_terms)
    )
    return global_side, local_side, global_side - local_side
