"""Exact scalars, Laurent characters on lattice tori, and exact linear algebra.

Everything here is rational-exact: scalars are `fractions.Fraction`, and
characters are finite integer-weighted multisets of points of one lattice, the
weight lattice (`spin` keeps its half-integral weights on the doubled one).
A lattice point on the hot paths is one int (`pack`, `unpack`), whose
addition is vector addition while every coordinate stays below PACK_LIMIT in
size; a character keys its points so and carries a `span` bounding their
coordinates, refused at PACK_LIMIT.  The `LaurentCharacter` constructor is
the one validating boundary (integral points of length `rank`, integral
multiplicities); ring operations on valid characters build their results
directly.  Dense matrices (`ExactMatrix`) hold
Fractions; sparse ones (`SparseMatrix`) hold integer columns, each a row ->
entry dict, over one positive denominator, so their images (`image`) and ranks
run in integers.  Both are ranked by one fraction-free elimination, `echelon`,
on sparse rows cleared of denominators; no tolerance, modulus or random choice
enters.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import add, sub
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

Weight = tuple[int, ...]


class InvariantError(AssertionError):
    """A structural identity does not hold.  Raised explicitly, so that it
    survives `python -O`; an AssertionError, for callers that expect one."""


# ---------------------------------------------------------------------------
# Packed lattice points


# A lattice point w is the int sum_k w_k 2^(k PACK_BITS): coordinate k is the
# k-th PACK_BITS-bit block, a balanced digit in [-2^(PACK_BITS-1),
# 2^(PACK_BITS-1)).  Packing is additive, so the sum of two packed points is
# the packed sum, and it decodes uniquely while every coordinate is below
# 2^(PACK_BITS-1) in size.  Points kept packed have coordinates below
# PACK_LIMIT, so that the sum of two of them still decodes.  A block is 64
# bits, the width of struct's "q", which decodes it.
PACK_BITS = 64
PACK_LIMIT = 2**62


def pack(w: Sequence[int]) -> int:
    """The int sum_k w_k 2^(k PACK_BITS) of integer coordinates w."""
    k = 0
    for c in reversed(w):
        k = (k << PACK_BITS) + c
    return k


@lru_cache
def _layout(rank: int) -> tuple[int, Callable, int]:
    """The top bit of every block, the decoder of `rank` signed blocks, and
    their length in bytes."""
    top = sum(1 << (PACK_BITS * j + PACK_BITS - 1) for j in range(rank))
    return top, struct.Struct(f"<{rank}q").unpack, PACK_BITS // 8 * rank


def unpack(k: int, rank: int) -> Weight:
    """The rank coordinates packed in k, each below 2^(PACK_BITS-1) in size.
    Adding the top bits moves every balanced digit d to d + 2^(PACK_BITS-1) in
    [0, 2^PACK_BITS) with no carry, and clearing them again leaves each block
    the two's complement of d."""
    top, decode, size = _layout(rank)
    return decode(((k + top) ^ top).to_bytes(size, "little"))


def checked_span(span: int) -> int:
    """span, a bound on the size of coordinates to be packed; a ValueError at
    or above PACK_LIMIT, where their keys could no longer be told apart."""
    if span >= PACK_LIMIT:
        raise ValueError(
            f"a lattice coordinate of size up to {span} reaches the limit PACK_LIMIT = 2**62"
        )
    return span


# ---------------------------------------------------------------------------
# Laurent characters


def _integral(x) -> int:
    """x as an int; a ValueError where int() would truncate it."""
    if type(x) is int:
        return x
    i = int(x)
    if i != x:
        raise ValueError(f"{x!r} is not integral")
    return i


class LaurentCharacter:
    """Virtual character on a rank-r lattice torus.

    The character is a dict from packed lattice points (`pack`) to nonzero
    integer multiplicities, so that shifting every point of a character by u
    is one int addition per point.  `span` bounds the size of every
    coordinate: a character built from its terms has the largest one, a sum
    or difference the larger span of its operands and a product the sum of
    their spans.  A span at or above PACK_LIMIT is refused with a ValueError.
    `terms` is the read-only view lattice point (length `rank`) ->
    multiplicity, decoded on first read in the order the points were stored.

    The constructor is the one validating boundary: it checks every point's
    length and that every coordinate and multiplicity is integral, drops zero
    multiplicities and packs the points.  Ring operations (`+`, `-`, `*`,
    `dual`) on valid characters build their results directly, through `_of`.
    """

    __slots__ = ("rank", "span", "_packed", "_terms")

    def __init__(self, rank: int, terms: Mapping[Sequence, int] | None = None):
        packed, span = {}, 0
        for w, m in (terms or {}).items():
            if len(w) != rank:
                raise ValueError(f"weight {w} has wrong length for rank {rank}")
            w, m = tuple(map(_integral, w)), _integral(m)
            if m:
                span = max(span, max(map(abs, w), default=0))
                packed[pack(w)] = m
        self.rank, self.span, self._packed, self._terms = rank, checked_span(span), packed, None

    @classmethod
    def _of(cls, rank: int, packed: dict[int, int], span: int) -> "LaurentCharacter":
        """The character of `packed`, packed points of length `rank` with
        nonzero int multiplicities and coordinates of size at most `span`:
        no checks but the span's, no copy."""
        ch = object.__new__(cls)
        ch.rank, ch.span, ch._packed, ch._terms = rank, checked_span(span), packed, None
        return ch

    @property
    def terms(self) -> Mapping[Weight, int]:
        if self._terms is None:
            rank = self.rank
            self._terms = MappingProxyType({unpack(k, rank): m for k, m in self._packed.items()})
        return self._terms

    def __repr__(self):
        return f"LaurentCharacter(rank={self.rank}, terms={dict(self.terms)!r})"

    # -- constructors

    @classmethod
    def zero(cls, rank: int) -> "LaurentCharacter":
        return cls(rank, {})

    @classmethod
    def one(cls, rank: int) -> "LaurentCharacter":
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def monomial(cls, w: Sequence[int], mult: int = 1) -> "LaurentCharacter":
        return cls(len(w), {tuple(w): mult})

    @classmethod
    def from_weights(cls, rank: int, weights: Iterable[Sequence[int]]) -> "LaurentCharacter":
        terms: dict[Weight, int] = {}
        for w in weights:
            key = tuple(w)
            terms[key] = terms.get(key, 0) + 1
        return cls(rank, terms)

    def _check_rank(self, other: "LaurentCharacter") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    # -- ring operations

    def _combine(self, other: "LaurentCharacter", op) -> "LaurentCharacter":
        if not isinstance(other, LaurentCharacter):
            return NotImplemented
        self._check_rank(other)
        packed = dict(self._packed)
        get = packed.get
        for k, m in other._packed.items():
            m = op(get(k, 0), m)
            if m:
                packed[k] = m
            else:
                del packed[k]
        return self._of(self.rank, packed, max(self.span, other.span))

    def __add__(self, other: "LaurentCharacter") -> "LaurentCharacter":
        return self._combine(other, add)

    def __sub__(self, other: "LaurentCharacter") -> "LaurentCharacter":
        return self._combine(other, sub)

    def __neg__(self) -> "LaurentCharacter":
        return self._of(self.rank, {k: -m for k, m in self._packed.items()}, self.span)

    def __mul__(self, other) -> "LaurentCharacter":
        if isinstance(other, int):
            packed = {k: m * other for k, m in self._packed.items()} if other else {}
            return self._of(self.rank, packed, self.span)
        if not isinstance(other, LaurentCharacter):
            return NotImplemented
        self._check_rank(other)
        span = checked_span(self.span + other.span)
        small, large = self._packed, other._packed
        if len(small) > len(large):
            small, large = large, small
        keys, mults = list(large), list(large.values())
        packed: dict[int, int] = {}
        get = packed.get
        for u, mu in small.items():  # the points of large shifted by u, in C
            for k, mv in zip(map(add, keys, repeat(u)), mults):
                m = get(k, 0) + mu * mv
                if m:
                    packed[k] = m
                else:
                    del packed[k]
        return self._of(self.rank, packed, span)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentCharacter):
            return NotImplemented
        return self.rank == other.rank and self._packed == other._packed

    def __hash__(self):
        return hash((self.rank, frozenset(self._packed.items())))

    # -- queries

    def is_effective(self) -> bool:
        return all(m > 0 for m in self._packed.values())

    def dimension(self) -> int:
        """Sum of multiplicities (the value at the identity point)."""
        return sum(self._packed.values())

    def dual(self) -> "LaurentCharacter":
        return self._of(self.rank, {-k: m for k, m in self._packed.items()}, self.span)

    def weight_list(self) -> list[Weight]:
        """Weights repeated with multiplicity; requires an effective character."""
        if not self.is_effective():
            raise ValueError("weight_list requires nonnegative multiplicities")
        out = []
        for w in sorted(self.terms):
            out.extend([w] * self.terms[w])
        return out


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
        mono = LaurentCharacter.monomial(w)
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
        out = out * (one - LaurentCharacter.monomial(w))
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
            self.entries = [Fraction(x) for x in entries]

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence]) -> "ExactMatrix":
        r = len(rows_data)
        c = len(rows_data[0]) if r else 0
        return cls(r, c, [x for row in rows_data for x in row])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def __setitem__(self, ij, v):
        i, j = ij
        self.entries[i * self.cols + j] = Fraction(v)

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
    """Exact sparse matrix `columns / den`: `columns[j]` maps each row of a
    nonzero entry of column j to that integer entry, and `den` is one
    positive integer prime to all of them, so that equal matrices are stored
    alike.  The constructor clears any Fraction entries it is given into
    `den` and divides out the common factor."""

    __slots__ = ("rows", "cols", "columns", "den")

    def __init__(self, rows: int, columns: list[dict[int, int]], den: int = 1):
        if type(den) is not int or den < 1:
            raise ValueError(f"denominator must be a positive int, not {den!r}")
        # a sum of ints is an int, and one Fraction entry makes it a Fraction
        if type(sum(sum(col.values()) for col in columns)) is not int:
            clear = lcm(*(Fraction(v).denominator for col in columns for v in col.values()))
            columns = [{i: int(v * clear) for i, v in col.items()} for col in columns]
            den *= clear
        g = gcd(den, *(v for col in columns for v in col.values())) if den != 1 else 1
        if g != 1:
            columns = [{i: v // g for i, v in col.items()} for col in columns]
            den //= g
        self.rows = rows
        self.cols = len(columns)
        self.columns = columns
        self.den = den

    @classmethod
    def _of(cls, rows: int, columns: list[dict[int, int]], den: int = 1) -> "SparseMatrix":
        """The matrix of the integer `columns` over `den`, each column a row ->
        nonzero int entry dict, `den` positive and prime to them all: no
        scan, no checks."""
        m = object.__new__(cls)
        m.rows, m.cols, m.columns, m.den = rows, len(columns), columns, den
        return m

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.den, self.columns) == (other.rows, other.den, other.columns)

    def rank(self, stop: int | None = None) -> int:
        """Rank over Q, as the rank of the transpose: the integer columns are
        eliminated as sparse rows, last column first (on the Koszul blocks
        this halves the time of first column first).  With `stop`, a bound
        the caller has proved, it ends at `stop` pivots (none for 0)."""
        return len(echelon(reversed(self.columns), stop))


def image(
    columns: Sequence[Mapping[int, int]], column: Mapping[int, Fraction | int]
) -> dict[int, Fraction | int]:
    """Row -> nonzero entry of the matrix with these columns applied to one
    column, each a row -> entry mapping."""
    acc: dict[int, Fraction | int] = {}
    for k, a in column.items():
        for i, b in columns[k].items():
            acc[i] = acc.get(i, 0) + a * b
    return {i: v for i, v in acc.items() if v}


def echelon(
    rows: Iterable[Mapping[int, Fraction | int]], stop: int | None = None
) -> dict[int, dict[int, int]]:
    """Fraction-free echelon form of sparse rational rows, each a column ->
    nonzero entry mapping (read, not changed): each row is cleared of
    denominators, reduced over the integers against the pivot rows until its
    leading (smallest) column is new, and divided by its content.  Maps each
    pivot column to its row; the number of pivots is the rank.  With `stop`,
    no further row is read once there are `stop` pivots: the rank is then
    min(rank, stop)."""
    pivots: dict[int, dict[int, int]] = {}
    for vec in rows:
        if len(pivots) == stop:
            break
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
        {p: m[i, j] for p, j in enumerate(col_order) if m[i, j]} for i in range(m.rows)
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
