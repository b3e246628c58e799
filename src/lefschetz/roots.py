"""Root systems, Weyl groups, the invariant form and the dot action.

Weights are stored in fundamental-weight coordinates throughout, so simple
roots are the rows of the Cartan matrix and dominance is a sign check.  The
Cartan convention is a[i][j] = <alpha_i, alpha_j_coroot>, hence
alpha_i = sum_j a[i][j] omega_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import ExactMatrix, InvariantError, Weight

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


def _symmetrizer(A: list[list[int]]) -> list[Fraction]:
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
    return [x / m for x in d]  # type: ignore[union-attr]


@dataclass(frozen=True)
class WeylElement:
    """Weyl group element: a reduced word and its matrix on weight coordinates."""

    reduced_word: tuple[int, ...]
    matrix: ExactMatrix
    length: int

    def act(self, lam: Weight) -> Weight:
        img = self.matrix.apply(list(lam))
        return tuple(int(x) for x in img)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # matrix of the composite; word is concatenated, not reduced
        return WeylElement(
            self.reduced_word + other.reduced_word,
            self.matrix @ other.matrix,
            -1,
        )

    def __hash__(self):
        return hash(tuple(self.matrix.entries))

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.matrix == other.matrix


class RootDatum:
    """Root system data in fundamental-weight coordinates.

    `form_normalization` is either "short-root-2" (default, (alpha,alpha)=2 on
    short roots) or "killing" (pullback of the Killing form; installed by the
    chevalley module via `with_killing_form`).
    """

    def __init__(self, series: str, rank: int):
        self.series = series
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
        self.form_normalization = "short-root-2"
        self._to_root_coords = A.transpose().inverse()
        self.positive_roots: list[Weight] = self._close_positive_roots()

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

    def pairing(self, lam: Weight, i: int) -> int:
        """<lam, alpha_i^vee> = i-th fundamental coordinate."""
        return lam[i]

    def reflect(self, lam: Weight, i: int) -> Weight:
        """Simple reflection s_i(lam) = lam - <lam, alpha_i^vee> alpha_i."""
        c = lam[i]
        alpha = self.simple_roots[i]
        return tuple(x - c * a for x, a in zip(lam, alpha))

    def is_dominant(self, lam: Weight) -> bool:
        return all(c >= 0 for c in lam)

    def inner(self, lam, mu) -> Fraction:
        """(lam, mu) under the datum's form."""
        total = Fraction(0)
        for i, a in enumerate(lam):
            if a == 0:
                continue
            for j, b in enumerate(mu):
                if b:
                    total += Fraction(a) * self.form[i, j] * Fraction(b)
        return total

    def weight_norm(self, lam) -> Fraction:
        return self.inner(lam, lam)

    def root_coordinates(self, lam) -> list[Fraction]:
        """Coordinates of lam in the simple-root basis (rational)."""
        return self._to_root_coords.apply(list(lam))

    def height(self, root: Weight) -> Fraction:
        return sum(self.root_coordinates(root), Fraction(0))

    def _close_positive_roots(self) -> list[Weight]:
        roots = set(self.simple_roots)
        frontier = set(self.simple_roots)
        while frontier:
            new = set()
            for beta in frontier:
                for i in range(self.rank):
                    img = self.reflect(beta, i)
                    if img not in roots and self._is_positive(img):
                        new.add(img)
            roots |= new
            frontier = new
        return sorted(roots, key=lambda r: (self.height(r), r))

    def _is_positive(self, w: Weight) -> bool:
        coords = self.root_coordinates(w)
        return all(c >= 0 for c in coords) and any(c > 0 for c in coords)

    def is_root(self, w: Weight) -> bool:
        return w in self._root_set()

    @lru_cache(maxsize=None)
    def _root_set(self) -> frozenset[Weight]:
        neg = {tuple(-c for c in r) for r in self.positive_roots}
        return frozenset(set(self.positive_roots) | neg)

    def __hash__(self):
        return hash((self.label, self.form_normalization))

    def __eq__(self, other):
        if not isinstance(other, RootDatum):
            return NotImplemented
        return self.label == other.label and self.form_normalization == other.form_normalization

    def __repr__(self):
        return f"RootDatum({self.label})"

    # -- Weyl group

    def simple_reflection_matrix(self, i: int) -> ExactMatrix:
        # acts on coordinate vectors: s_i(lam)_k = lam_k - lam_i alpha_i[k]
        n = self.rank
        alpha = self.simple_roots[i]
        m = ExactMatrix.identity(n)
        for k in range(n):
            m[k, i] = m[k, i] - alpha[k]
        return m

    def weyl_group(self, bound: int = WEYL_ORDER_BOUND) -> list[WeylElement]:
        """All Weyl elements by breadth-first closure over reduced words."""
        gens = [self.simple_reflection_matrix(i) for i in range(self.rank)]
        ident = WeylElement((), ExactMatrix.identity(self.rank), 0)
        seen = {tuple(ident.matrix.entries): ident}
        frontier = [ident]
        while frontier:
            new = []
            for w in frontier:
                for i, g in enumerate(gens):
                    mat = g @ w.matrix
                    key = tuple(mat.entries)
                    if key not in seen:
                        el = WeylElement((i,) + w.reduced_word, mat, w.length + 1)
                        seen[key] = el
                        new.append(el)
                        if len(seen) > bound:
                            raise ValueError("Weyl group order exceeds bound")
            frontier = new
        return sorted(seen.values(), key=lambda w: (w.length, w.reduced_word))

    def weyl_order(self) -> int:
        return len(self.weyl_group())

    def inversion_count(self, w: WeylElement) -> int:
        """Number of positive roots sent to negative roots."""
        count = 0
        for r in self.positive_roots:
            img = w.act(r)
            if not self._is_positive(img):
                count += 1
        return count

    # -- dimension formula and dot action

    def weyl_dimension(self, lam: Weight) -> int:
        """prod_{alpha>0} (lam+rho, alpha) / (rho, alpha)."""
        if not self.is_dominant(lam):
            raise ValueError(f"weight {lam} is not dominant")
        lam_rho = tuple(a + b for a, b in zip(lam, self.rho))
        num = Fraction(1)
        den = Fraction(1)
        for alpha in self.positive_roots:
            num *= self.inner(lam_rho, alpha)
            den *= self.inner(self.rho, alpha)
        val = num / den
        if val.denominator != 1:
            raise InvariantError(f"nonintegral Weyl dimension {val} of {lam}")
        return int(val)

    def dot_action(self, w: WeylElement, lam: Weight) -> Weight:
        """w . lam = w(lam + rho) - rho."""
        shifted = tuple(a + b for a, b in zip(lam, self.rho))
        img = w.act(shifted)
        return tuple(a - b for a, b in zip(img, self.rho))

    # -- form normalization switch

    def with_killing_form(self) -> "RootDatum":
        """Copy of this datum whose form is the Killing-form pullback on h*."""
        from .algebra import build_chevalley_algebra  # local import, no cycle at module load

        alg = build_chevalley_algebra(self)
        return self._with_form(alg.killing_dual_form_on_weights(), "killing")

    def _with_form(self, form: ExactMatrix, name: str) -> "RootDatum":
        import copy

        other = copy.copy(self)
        other.form = form
        other.form_normalization = name
        return other

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
            "form_normalization": self.form_normalization,
        }


def build_root_system(label: str) -> RootDatum:
    return RootDatum.from_label(label)
