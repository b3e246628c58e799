"""Exact scalars, Laurent characters on lattice tori, and exact linear algebra.

Everything here is rational-exact: scalars are `fractions.Fraction`, and
characters are finite integer-weighted multisets of lattice points.  Dense
(`ExactMatrix`) and sparse (`SparseMatrix`) matrices are ranked by one
fraction-free elimination, `echelon`, on sparse rows cleared of denominators;
no tolerance, modulus or random choice enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping, Sequence

Scalar = Fraction
Weight = tuple[int, ...]


class InvariantError(AssertionError):
    """A structural identity does not hold.  Raised explicitly, so that it
    survives `python -O`; an AssertionError, for callers that expect one."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


# ---------------------------------------------------------------------------
# Laurent characters


@dataclass(frozen=True)
class LaurentCharacter:
    """Virtual character on a rank-r lattice torus.

    `terms` maps lattice points (length `rank`) to nonzero integer
    multiplicities.  `scale` is the lattice denominator: the stored key `w`
    represents the weight w/scale.  Half-integral spin weights use scale 2.
    """

    rank: int
    terms: Mapping[Weight, int] = field(default_factory=dict)
    scale: int = 1

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError("scale must be positive")
        clean = {}
        for w, m in self.terms.items():
            if len(w) != self.rank:
                raise ValueError(f"weight {w} has wrong length for rank {self.rank}")
            if m != 0:
                clean[tuple(map(int, w))] = int(m)
        object.__setattr__(self, "terms", clean)

    # -- constructors

    @classmethod
    def zero(cls, rank: int) -> "LaurentCharacter":
        return cls(rank, {})

    @classmethod
    def one(cls, rank: int) -> "LaurentCharacter":
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def monomial(cls, w: Sequence[int], mult: int = 1, scale: int = 1) -> "LaurentCharacter":
        return cls(len(w), {tuple(w): mult}, scale)

    @classmethod
    def from_weights(cls, rank: int, weights: Iterable[Sequence[int]], scale: int = 1) -> "LaurentCharacter":
        terms: dict[Weight, int] = {}
        for w in weights:
            key = tuple(w)
            terms[key] = terms.get(key, 0) + 1
        return cls(rank, terms, scale)

    # -- scale handling

    def rescaled(self, new_scale: int) -> "LaurentCharacter":
        if new_scale == self.scale:
            return self
        if new_scale % self.scale != 0:
            raise ValueError("new scale must be a multiple of the current scale")
        f = new_scale // self.scale
        return LaurentCharacter(
            self.rank, {tuple(c * f for c in w): m for w, m in self.terms.items()}, new_scale
        )

    def normalized(self) -> "LaurentCharacter":
        """Reduce the scale to the smallest one representing all terms."""
        g = self.scale
        for w in self.terms:
            for c in w:
                g = gcd(g, c)
            if g == 1:
                return self
        return LaurentCharacter(
            self.rank,
            {tuple(c // g for c in w): m for w, m in self.terms.items()},
            self.scale // g,
        )

    def _common(self, other: "LaurentCharacter") -> tuple["LaurentCharacter", "LaurentCharacter"]:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        s = lcm(self.scale, other.scale)
        return self.rescaled(s), other.rescaled(s)

    # -- ring operations

    def __add__(self, other: "LaurentCharacter") -> "LaurentCharacter":
        a, b = self._common(other)
        terms = dict(a.terms)
        for w, m in b.terms.items():
            terms[w] = terms.get(w, 0) + m
        return LaurentCharacter(a.rank, terms, a.scale)

    def __sub__(self, other: "LaurentCharacter") -> "LaurentCharacter":
        return self + (-other)

    def __neg__(self) -> "LaurentCharacter":
        return LaurentCharacter(self.rank, {w: -m for w, m in self.terms.items()}, self.scale)

    def __mul__(self, other) -> "LaurentCharacter":
        if isinstance(other, int):
            return LaurentCharacter(
                self.rank, {w: m * other for w, m in self.terms.items()}, self.scale
            )
        a, b = self._common(other)
        terms: dict[Weight, int] = {}
        for u, mu in a.terms.items():
            for v, mv in b.terms.items():
                w = tuple(map(add, u, v))
                terms[w] = terms.get(w, 0) + mu * mv
        return LaurentCharacter(a.rank, terms, a.scale)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentCharacter):
            return NotImplemented
        if self.rank != other.rank:
            return False
        a, b = self._common(other)
        return a.terms == b.terms

    def __hash__(self):
        n = self.normalized()
        return hash((n.rank, n.scale, frozenset(n.terms.items())))

    # -- queries

    def is_effective(self) -> bool:
        return all(m > 0 for m in self.terms.values())

    def dimension(self) -> int:
        """Sum of multiplicities (the value at the identity point)."""
        return sum(self.terms.values())

    def dual(self) -> "LaurentCharacter":
        return LaurentCharacter(
            self.rank, {tuple(-c for c in w): m for w, m in self.terms.items()}, self.scale
        )

    def weight_list(self) -> list[Weight]:
        """Weights repeated with multiplicity; requires an effective character."""
        if not self.is_effective():
            raise ValueError("weight_list requires nonnegative multiplicities")
        out = []
        for w in sorted(self.terms):
            out.extend([w] * self.terms[w])
        return out

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Evaluate at a point t of the torus given by t_i = point_i, i.e.
        sum m_w * prod point_i^(w_i).  Keys are used unscaled, so the point
        refers to the stored (scaled) lattice."""
        total = Fraction(0)
        for w, m in self.terms.items():
            v = Fraction(1)
            for c, p in zip(w, point):
                v *= _as_fraction(p) ** c
            total += m * v
        return total

    # -- serialization

    def to_json_obj(self) -> dict:
        return {
            "rank": self.rank,
            "scale": self.scale,
            "terms": [
                {"w": list(w), "m": m} for w, m in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LaurentCharacter":
        return cls(
            obj["rank"],
            {tuple(t["w"]): t["m"] for t in obj["terms"]},
            obj.get("scale", 1),
        )


def character_product(a: LaurentCharacter, b: LaurentCharacter) -> LaurentCharacter:
    """Tensor-product (convolution) of two virtual characters."""
    return a * b


def exterior_power_character(ch: LaurentCharacter, p: int) -> LaurentCharacter:
    """Character of the p-th exterior power of an effective character.

    Elementary symmetric polynomial of degree p in the monomials x^w, one
    variable per multiplicity unit.
    """
    if p < 0:
        raise ValueError("exterior power degree must be nonnegative")
    if not ch.is_effective():
        raise ValueError("exterior power requires an effective character")
    weights = ch.weight_list()
    # dp[k] = e_k of the weights processed so far
    dp: list[LaurentCharacter | None] = [LaurentCharacter.one(ch.rank)] + [None] * p
    for w in weights:
        mono = LaurentCharacter.monomial(w, 1, ch.scale)
        for k in range(min(p, len(weights)), 0, -1):
            if dp[k - 1] is not None:
                term = dp[k - 1] * mono
                dp[k] = term if dp[k] is None else dp[k] + term
    return dp[p] if dp[p] is not None else LaurentCharacter.zero(ch.rank)


def alternating_exterior_sum(ch: LaurentCharacter) -> LaurentCharacter:
    """Sum_p (-1)^p Lambda^p(ch) = prod_w (1 - x^w) over the weight list."""
    out = LaurentCharacter.one(ch.rank)
    one = LaurentCharacter.one(ch.rank)
    for w in ch.weight_list():
        out = out * (one - LaurentCharacter.monomial(w, 1, ch.scale))
    return out


# ---------------------------------------------------------------------------
# Exact matrices


class ExactMatrix:
    """Dense matrix of Fractions with exact rank/kernel computations."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence | None = None):
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.entries = [Fraction(0)] * (rows * cols)
        else:
            if len(entries) != rows * cols:
                raise ValueError("entry count must equal rows * cols")
            self.entries = [_as_fraction(x) for x in entries]

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence]) -> "ExactMatrix":
        r = len(rows_data)
        c = len(rows_data[0]) if r else 0
        flat = [x for row in rows_data for x in row]
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        m = cls(n, n)
        for i in range(n):
            m[i, i] = Fraction(1)
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def __setitem__(self, ij, v):
        i, j = ij
        self.entries[i * self.cols + j] = _as_fraction(v)

    def row(self, i: int) -> list[Fraction]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def scale_by(self, c) -> "ExactMatrix":
        c = _as_fraction(c)
        return ExactMatrix(self.rows, self.cols, [c * x for x in self.entries])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        out = ExactMatrix(self.rows, other.cols)
        for i in range(self.rows):
            ri = self.row(i)
            for k, a in enumerate(ri):
                if a == 0:
                    continue
                base = k * other.cols
                obase = i * other.cols
                for j in range(other.cols):
                    out.entries[obase + j] += a * other.entries[base + j]
        return out

    def transpose(self) -> "ExactMatrix":
        out = ExactMatrix(self.cols, self.rows)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j, i] = self[i, j]
        return out

    def apply(self, vec: Sequence) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [
            sum((a * _as_fraction(v) for a, v in zip(self.row(i), vec)), Fraction(0))
            for i in range(self.rows)
        ]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def rank(self) -> int:
        return rank_and_kernel(self)[0]

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = [self.row(i) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if piv is None:
                raise ValueError("matrix is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            pv = aug[col][col]
            aug[col] = [x / pv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return ExactMatrix.from_rows([row[n:] for row in aug])

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


class SparseMatrix:
    """Exact sparse matrix: `columns[j]` is the flat tuple (row, entry, row,
    entry, ...) of the nonzero int or Fraction entries of column j; flat
    tuples keep thousands of short columns small."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, columns: list[tuple]):
        self.rows = rows
        self.cols = len(columns)
        self.columns = columns

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        return SparseMatrix(self.rows, [flat(image(self.columns, b)) for b in other.columns])

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        # column j: the two columns a_j, b_j applied to the vector (1, -1)
        diff = (0, 1, 1, -1)
        return SparseMatrix(
            self.rows, [flat(image(ab, diff)) for ab in zip(self.columns, other.columns)]
        )

    def scale_by(self, c) -> "SparseMatrix":
        cols = [flat({i: v * c for i, v in pairs(col)}) for col in self.columns]
        return SparseMatrix(self.rows, cols if c else [()] * self.cols)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            dict(pairs(a)) == dict(pairs(b)) for a, b in zip(self.columns, other.columns)
        )

    def dense(self) -> ExactMatrix:
        out = ExactMatrix(self.rows, self.cols)
        for j, col in enumerate(self.columns):
            for i, v in pairs(col):
                out[i, j] = v
        return out

    def is_zero(self) -> bool:
        return not any(self.columns)

    def rank(self) -> int:
        """Rank over Q, as the rank of the transpose: the columns are
        eliminated as sparse rows."""
        return len(echelon(pairs(col) for col in self.columns))


def pairs(column: tuple) -> Iterable[tuple[int, Fraction | int]]:
    """The (row, entry) pairs of a flat column tuple."""
    it = iter(column)
    return zip(it, it)


def flat(entries: Mapping[int, Fraction | int]) -> tuple:
    """The flat column tuple of a row -> nonzero entry mapping."""
    return tuple(chain.from_iterable(entries.items()))


def image(columns: Sequence[tuple], column: tuple) -> dict[int, Fraction | int]:
    """Row -> nonzero entry of the matrix with these flat columns applied to
    one flat column."""
    acc: dict[int, Fraction | int] = {}
    for k, a in pairs(column):
        for i, b in pairs(columns[k]):
            acc[i] = acc.get(i, 0) + a * b
    return {i: v for i, v in acc.items() if v}


def echelon(
    rows: Iterable[Iterable[tuple[int, Fraction | int]]]
) -> dict[int, dict[int, int]]:
    """Fraction-free echelon form of sparse rational rows given as (column,
    nonzero entry) pairs: each row is cleared of denominators, reduced over
    the integers against the pivot rows until its leading (smallest) column
    is new, and divided by its content.  Maps each pivot column to its row;
    the number of pivots is the rank."""
    pivots: dict[int, dict[int, int]] = {}
    for vec in rows:
        row = dict(vec)
        if any(type(x) is not int for x in row.values()):
            den = lcm(*(x.denominator for x in row.values()))
            row = {c: int(x * den) for c, x in row.items()}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                g = 0
                for x in row.values():
                    g = gcd(g, x)
                pivots[lead] = {c: x // g for c, x in row.items()}
                break
            a, b = piv[lead], row[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            for c, x in piv.items():
                v = a * row.pop(c, 0) - b * x
                if v:
                    row[c] = v
            if a != 1:
                for c in row:
                    if c not in piv:
                        row[c] *= a
    return pivots


def rank_and_kernel(
    m: ExactMatrix, col_order: Sequence[int] | None = None
) -> tuple[int, list[list[Fraction]]]:
    """Exact rank and a kernel basis: `echelon` on the rows, then back
    substitution over Fractions.

    `col_order` permutes the columns before elimination; the returned kernel
    vectors are always expressed in the original column order.  Passing a
    different order gives an independent elimination path for cross-checks.
    """
    n_cols = m.cols
    if col_order is None:
        col_order = list(range(n_cols))
    pivots = echelon(
        [(p, m[i, j]) for p, j in enumerate(col_order) if m[i, j]] for i in range(m.rows)
    )
    order = sorted(pivots, reverse=True)
    kernel: list[list[Fraction]] = []
    for fc in range(n_cols):
        if fc in pivots:
            continue
        vec = {fc: Fraction(1)}
        for pc in order:
            row = pivots[pc]
            s = sum(x * vec[c] for c, x in row.items() if c in vec)
            if s:
                vec[pc] = -s / row[pc]
        # un-permute back to original column order
        orig = [Fraction(0)] * n_cols
        for pos, j in enumerate(col_order):
            orig[j] = vec.get(pos, Fraction(0))
        kernel.append(orig)
    return len(pivots), kernel
