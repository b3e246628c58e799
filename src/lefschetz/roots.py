"""Root systems, Weyl groups and the invariant form.

Weights are stored in fundamental-weight coordinates throughout, so simple
roots are the rows of the Cartan matrix and dominance is a sign check.  The
Cartan convention is a[i][j] = <alpha_i, alpha_j_coroot>, hence
alpha_i = sum_j a[i][j] omega_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import mul, sub
from typing import Iterator

from .exact import ExactMatrix, InvariantError, Weight, pack, unpack

WEYL_ORDER_BOUND = 10**6


class UnsupportedLabelError(ValueError):
    pass


def _cartan_matrix(series: str, rank: int) -> list[list[int]]:
    """Cartan matrix with Bourbaki numbering; a[i][j] = <alpha_i, alpha_j^vee>."""
    A = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def link(i, j, aij=-1, aji=-1):
        A[i][j] = aij
        A[j][i] = aji

    if series == "A":
        for i in range(rank - 1):
            link(i, i + 1)
    elif series == "B":
        # alpha_rank is the short root: <alpha_{n-1}, alpha_n^vee> = -2
        if rank < 2:
            raise UnsupportedLabelError("B requires rank >= 2")
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, -2, -1)
    elif series == "C":
        if rank < 2:
            raise UnsupportedLabelError("C requires rank >= 2")
        for i in range(rank - 2):
            link(i, i + 1)
        link(rank - 2, rank - 1, -1, -2)
    elif series == "D":
        if rank < 3:
            raise UnsupportedLabelError("D requires rank >= 3")
        for i in range(rank - 3):
            link(i, i + 1)
        link(rank - 3, rank - 2)
        link(rank - 3, rank - 1)
    elif series == "E":
        if rank not in (6, 7, 8):
            raise UnsupportedLabelError("E requires rank 6, 7 or 8")
        # Bourbaki: node 2 attaches to node 4 (1-indexed); chain 1-3-4-5-...
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)
    elif series == "F":
        if rank != 4:
            raise UnsupportedLabelError("F requires rank 4")
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif series == "G":
        if rank != 2:
            raise UnsupportedLabelError("G requires rank 2")
        link(0, 1, -3, -1)
    else:
        raise UnsupportedLabelError(f"unknown series {series!r}")
    return A


def _symmetrizer(A: list[list[int]]) -> list[int]:
    """d_i with d_i * a[i][j] symmetric and min d_i = 1 (short roots length^2 2)."""
    n = len(A)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if A[i][j] != 0 and d[i] is not None and d[j] is None:
                    # symmetry of (alpha_i, alpha_j) = a_ij d_j requires
                    # a_ij d_j = a_ji d_i
                    d[j] = d[i] * A[j][i] / A[i][j]
                    changed = True
    if None in d:
        raise InvariantError("the Cartan matrix is not connected")
    m = min(d)  # type: ignore[type-var]
    return [int(x / m) for x in d]  # type: ignore[union-attr]


@dataclass(frozen=True)
class WeylElement:
    """Weyl group element w: a reduced word and the integer columns w(omega_k),
    which alone decide equality."""

    reduced_word: tuple[int, ...] = field(compare=False)
    columns: tuple[Weight, ...]
    length: int = field(compare=False)

    def act(self, lam: Weight) -> Weight:
        """w(lam) = sum_k lam_k w(omega_k)."""
        return tuple(sum(map(mul, lam, row)) for row in zip(*self.columns))


class RootDatum:
    """Root system data in fundamental-weight coordinates, with the invariant
    form fixed by (alpha, alpha) = 2 on short roots; the Killing-dual
    form is `ChevalleyAlgebra.killing_dual_form_on_weights`."""

    def __init__(self, series: str, rank: int):
        self.rank = rank
        self.label = f"{series}{rank}"
        self.cartan_matrix = _cartan_matrix(series, rank)
        self.simple_roots: list[Weight] = [tuple(row) for row in self.cartan_matrix]
        self.fundamental_weights: list[Weight] = [
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
        ]
        self.rho: Weight = (1,) * rank
        self._d = _symmetrizer(self.cartan_matrix)
        # Gram matrix of the form on fundamental-weight coordinates:
        # (omega_i, alpha_j) = d_i delta_ij  =>  G A^T = D, G = D (A^T)^{-1}
        A = ExactMatrix.from_rows(self.cartan_matrix)
        Ainv = A.inverse()
        G = ExactMatrix(rank, rank)
        for i in range(rank):
            for j in range(rank):
                G[i, j] = self._d[i] * Ainv[j, i]
        self.form = G
        self._root_coords = self._close_positive_roots()
        self.positive_roots: list[Weight] = list(self._root_coords)
        self._levi_forms: dict[frozenset[int], tuple] = {}  # frozenset(levi) -> levi_form

    @classmethod
    def from_label(cls, label: str) -> "RootDatum":
        label = label.strip().upper()
        if len(label) < 2 or label[0] not in "ABCDEFG":
            raise UnsupportedLabelError(f"bad label {label!r}")
        try:
            rank = int(label[1:])
        except ValueError as e:
            raise UnsupportedLabelError(f"bad label {label!r}") from e
        if rank < 1 or rank > 8:
            raise UnsupportedLabelError("rank must be between 1 and 8")
        return cls(label[0], rank)

    # -- basic weight operations

    def reflect(self, lam: Weight, i: int) -> Weight:
        """Simple reflection s_i(lam) = lam - <lam, alpha_i^vee> alpha_i."""
        return tuple(map(sub, lam, map(mul, repeat(lam[i]), self.simple_roots[i])))

    def is_dominant(self, lam: Weight) -> bool:
        return all(c >= 0 for c in lam)

    def _close_positive_roots(self) -> dict[Weight, tuple[int, ...]]:
        """Each positive root with its simple-root coordinates, by height: the
        closure of the simple roots under the s_i.  s_i(b) = b - b_i alpha_i
        is positive unless b = alpha_i, and lowers coordinate i by b_i."""
        coords = dict(zip(self.simple_roots, self.fundamental_weights))  # alpha_i -> e_i
        frontier = self.simple_roots
        while frontier:
            new = []
            for beta in frontier:
                for i, alpha in enumerate(self.simple_roots):
                    img = self.reflect(beta, i)
                    if beta != alpha and img not in coords:
                        c = coords[beta]
                        coords[img] = c[:i] + (c[i] - beta[i],) + c[i + 1 :]
                        new.append(img)
            frontier = new
        return dict(sorted(coords.items(), key=lambda rc: (sum(rc[1]), rc[0])))

    def is_root(self, w: Weight) -> bool:
        return w in self._root_coords or tuple(-c for c in w) in self._root_coords

    def __repr__(self):
        return f"RootDatum({self.label})"

    # -- Weyl group

    def partition_roots(self, levi):
        """The positive roots on the `levi` simple roots and those off them
        (the roots of n), each as (root, simple-root coordinates)."""
        on, off = [], []
        for r, c in self._root_coords.items():
            if any(c[i] for i in range(self.rank) if i not in levi):
                off.append((r, c))
            else:
                on.append((r, c))
        return on, off

    def levi_form(self, levi):
        """Freudenthal's data for the subsystem on the `levi` simple roots: the
        symmetrizer d, and each of its positive roots a with the pairing vector
        p_j = c_j(a) d_j for the simple-root coordinates c of a, so that
        (nu, a) = sum_j p_j nu_j in fundamental coordinates, up to the form's
        scale (d_i = (alpha_i, alpha_i) / 2 when short roots have length^2 2).
        Computed once per Levi subset, in any order or container."""
        key = frozenset(levi)
        if key not in self._levi_forms:
            on, _ = self.partition_roots(key)
            self._levi_forms[key] = self._d, tuple((r, tuple(map(mul, c, self._d))) for r, c in on)
        return self._levi_forms[key]

    def weyl_order(self, levi=()) -> int:
        """|W/W_L| = prod of (ht a + 1)/ht a over the roots a of n, those off
        the `levi` simple roots: Macdonald's Poincare series at t = 1 (|W|
        for the empty Levi)."""
        order = Fraction(1)
        for _, c in self.partition_roots(levi)[1]:
            order *= Fraction(sum(c) + 1, sum(c))
        return int(order)

    def coset_walk(self, levi=()) -> Iterator[dict]:
        """Minimal representatives v of W/W_L by length, as an integer orbit walk
        that yields one level at a time.

        Level q maps each point v(lam_P) of the orbit of lam_P = sum of the
        omega_i off the Levi to v's reduced word and the columns w(omega_k)
        of w = v^-1, Kostant's representative (w^-1 alpha_j > 0 on the Levi).
        Points and columns are packed lattice points (`exact.pack`), so that
        sum_k y_k w(omega_k) is w(y) packed.  A step s_i from a point with
        x_i > 0 raises the length by one, reaches x - x_i alpha_i, and w s_i
        differs from w only in column i, by -w(alpha_i) = -sum_j a_ij
        w(omega_j): int arithmetic on packed points, whose coordinates, sums
        of coroot coefficients, stay far below PACK_LIMIT.  |W/W_L| is checked
        against WEYL_ORDER_BOUND before the first level and against the count
        after the last; the bound limits the walk only, not the Levi modules
        built on it.
        """
        count = self.weyl_order(levi)
        if count > WEYL_ORDER_BOUND:
            raise ValueError(
                f"|W/W_L| = {count} exceeds the limit WEYL_ORDER_BOUND = {WEYL_ORDER_BOUND}"
            )
        rank, simple = self.rank, list(map(pack, self.simple_roots))
        links = [[(j, a) for j, a in enumerate(row) if a] for row in self.cartan_matrix]
        start = pack([int(i not in levi) for i in range(rank)])
        level, found = {start: ((), tuple(map(pack, self.fundamental_weights)))}, 0
        while level:
            yield level
            found += len(level)
            prev, level = level, {}
            for x, (word, cols) in prev.items():
                for i, c in enumerate(unpack(x, rank)):
                    if c <= 0 or (y := x - c * simple[i]) in level:
                        continue
                    col = cols[i]
                    for j, a in links[i]:
                        col -= a * cols[j]
                    level[y] = ((i,) + word, cols[:i] + (col,) + cols[i + 1 :])
        if found != count:
            raise InvariantError(f"the walk found {found} cosets, not |W/W_L| = {count}")

    def weyl_group(self) -> list[WeylElement]:
        """All Weyl elements, shortest first: the coset walk with no Levi.  An
        entry holds the word of v and the packed columns of v^-1, whose own
        word is the one at its image of rho, the sum of its columns; each
        element keeps its columns unpacked."""
        levels = list(self.coset_walk())
        words = {x: word for level in levels for x, (word, _) in level.items()}
        group = [
            WeylElement(words[sum(cols)], tuple(unpack(c, self.rank) for c in cols), q)
            for q, level in enumerate(levels)
            for _, cols in level.values()
        ]
        return sorted(group, key=lambda w: (w.length, w.reduced_word))

    # -- dimension formula

    def weyl_dimension(self, lam: Weight, levi=None) -> int:
        """prod_{alpha>0} (lam+rho, alpha) / (rho, alpha) over the positive
        roots of the subsystem on the `levi` simple roots (default: all), with
        the pairings of `levi_form(levi)`."""
        levi = range(self.rank) if levi is None else levi
        if len(lam) != self.rank or any(lam[i] < 0 for i in levi):
            raise ValueError(f"weight {lam} is not a dominant rank-{self.rank} weight")
        num = den = 1
        for _, p in self.levi_form(levi)[1]:
            num *= sum(p) + sum(map(mul, p, lam))
            den *= sum(p)
        val, rem = divmod(num, den)
        if rem:
            raise InvariantError(f"nonintegral Weyl dimension {Fraction(num, den)} of {lam}")
        return val

    # -- serialization

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "rank": self.rank,
            "cartan_matrix": self.cartan_matrix,
            "simple_roots": [list(r) for r in self.simple_roots],
            "positive_roots": [list(r) for r in self.positive_roots],
            "fundamental_weights": [list(w) for w in self.fundamental_weights],
            "rho": list(self.rho),
            "form": [[str(self.form[i, j]) for j in range(self.rank)] for i in range(self.rank)],
            "form_normalization": "short-root-2",
        }


def build_root_system(label: str) -> RootDatum:
    return RootDatum.from_label(label)
