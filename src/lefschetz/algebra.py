"""Semisimple Lie algebras over Q via Chevalley bases.

Structure-constant signs follow the extraspecial-pair convention: for each
non-simple positive root the special pair with minimal first member gets a
positive constant, and all remaining constants are forced by the Jacobi
identity.  Highest-weight modules are built from words in the simple lowering
operators, with linear independence decided exactly through the contravariant
(Shapovalov) form, after W. A. de Graaf, "Constructing representations of
split semisimple Lie algebras", J. Pure Appl. Algebra 164 (2001).  The module
operators are sparse exact columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactMatrix, InvariantError, LaurentCharacter, SparseMatrix, Weight
from .exact import flat, image, pairs, rank_and_kernel
from .roots import RootDatum

# Largest module built, in dimension.  Measured with Python 3.11 on one Xeon
# vCPU: B2 (3,3), dim 256, builds in 0.3-0.5 s and G2 (2,1), dim 286, in
# 2.6-3.3 s, most of it in the Shapovalov word recursion (`_WordCalculus`).
DIMENSION_BOUND = 5000

# basis labels: ("h", i), ("e", root), ("f", root) with root a positive weight tuple
Label = tuple


def _neg(w: Weight) -> Weight:
    return tuple(-c for c in w)


def _add(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


class StructureConstants:
    """The constants N(x, y) with [e_x, e_y] = N(x, y) e_{x+y}."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        pos = datum.positive_roots  # sorted by height then lex
        self.index = {r: i for i, r in enumerate(pos)}
        self.pos = pos
        self._table: dict[tuple[Weight, Weight], int] = {}
        self._fill()

    def _is_pos(self, r: Weight) -> bool:
        return r in self.index

    def _chain_down(self, x: Weight, y: Weight) -> int:
        """max k >= 0 with y - k x a root."""
        k = 0
        cur = _sub(y, x)
        while self.datum.is_root(cur):
            k += 1
            cur = _sub(cur, x)
        return k

    def _fill(self):
        datum = self.datum
        for gamma in self.pos:
            specials = []
            for xi in self.pos:
                if self.index[xi] >= self.index[gamma]:
                    break
                eta = _sub(gamma, xi)
                if self._is_pos(eta) and self.index[xi] < self.index[eta]:
                    specials.append((xi, eta))
            if not specials:
                continue
            specials.sort(key=lambda p: self.index[p[0]])
            alpha, beta = specials[0]
            self._table[(alpha, beta)] = self._chain_down(alpha, beta) + 1
            for xi, eta in specials[1:]:
                # Jacobi on (e_alpha, e_beta, e_{-xi}) determines N(gamma, -xi)
                t = 0
                if datum.is_root(_sub(beta, xi)):
                    t += self.n(beta, _neg(xi)) * self.n(alpha, _sub(beta, xi))
                if datum.is_root(_sub(alpha, xi)):
                    t -= self.n(alpha, _neg(xi)) * self.n(beta, _sub(alpha, xi))
                n_gamma_negxi = Fraction(t, self._table[(alpha, beta)])
                val = (
                    -n_gamma_negxi
                    * datum.weight_norm(gamma)
                    / datum.weight_norm(eta)
                )
                if val.denominator != 1:
                    raise InvariantError(f"nonintegral structure constant N{xi, eta} = {val}")
                self._table[(xi, eta)] = int(val)

    def n(self, x: Weight, y: Weight) -> int:
        """N(x, y) for arbitrary roots x, y; 0 if x + y is not a root."""
        s = _add(x, y)
        if not self.datum.is_root(s):
            return 0
        xp, yp = self._is_pos(x), self._is_pos(y)
        if xp and yp:
            if self.index[x] < self.index[y]:
                return self._table[(x, y)]
            return -self._table[(y, x)]
        if not xp and not yp:
            return -self.n(_neg(x), _neg(y))
        if not self._is_pos(s):
            return -self.n(_neg(x), _neg(y))
        # mixed pair with positive sum
        if not xp:
            return -self.n(y, x)
        # x positive, y negative, x+y positive; cyclic relation with z = -(x+y)
        z = _neg(s)
        n_yz = -self.n(_neg(y), _neg(z))
        val = (
            Fraction(n_yz)
            * self.datum.weight_norm(z)
            / self.datum.weight_norm(x)
        )
        if val.denominator != 1:
            raise InvariantError(f"nonintegral structure constant N{x, y} = {val}")
        return int(val)


class ChevalleyAlgebra:
    """Structure-constant realization of the split semisimple algebra."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.constants = StructureConstants(datum)
        self.basis: list[Label] = (
            [("h", i) for i in range(datum.rank)]
            + [("e", r) for r in datum.positive_roots]
            + [("f", r) for r in datum.positive_roots]
        )
        self._index = {b: i for i, b in enumerate(self.basis)}
        self.dimension = len(self.basis)
        self._bracket_cache: dict[tuple[Label, Label], dict[Label, Fraction]] = {}
        self._killing: ExactMatrix | None = None

    # -- root/coroot helpers

    def coroot_coefficients(self, alpha: Weight) -> list[int]:
        """alpha^vee in the simple-coroot basis: integers c_i with
        alpha^vee = sum c_i alpha_i^vee."""
        datum = self.datum
        coords = datum.root_coordinates(alpha)
        d_alpha = datum.weight_norm(alpha) / 2
        out = []
        for i, c in enumerate(coords):
            d_i = datum.weight_norm(datum.simple_roots[i]) / 2
            v = c * d_i / d_alpha
            if v.denominator != 1:
                raise InvariantError(f"coroot of {alpha} has nonintegral coefficient {v}")
            out.append(int(v))
        return out

    def _root_vector_label(self, r: Weight) -> Label:
        if r in self.constants.index:
            return ("e", r)
        return ("f", _neg(r))

    # -- bracket

    def bracket(self, x: Label, y: Label) -> dict[Label, Fraction]:
        key = (x, y)
        if key in self._bracket_cache:
            return self._bracket_cache[key]
        out = self._bracket_impl(x, y)
        out = {k: v for k, v in out.items() if v != 0}
        self._bracket_cache[key] = out
        return out

    def _signed_root(self, lab: Label) -> Weight:
        kind, val = lab
        return val if kind == "e" else _neg(val)

    def _bracket_impl(self, x: Label, y: Label) -> dict[Label, Fraction]:
        kx = x[0]
        ky = y[0]
        if kx == "h" and ky == "h":
            return {}
        if kx == "h":
            r = self._signed_root(y)
            return {y: Fraction(r[x[1]])}
        if ky == "h":
            r = self._signed_root(x)
            return {x: Fraction(-r[y[1]])}
        rx = self._signed_root(x)
        ry = self._signed_root(y)
        s = _add(rx, ry)
        if all(c == 0 for c in s):
            # [e_alpha, f_alpha] = h_alpha; here rx = -ry
            sign = 1 if x[0] == "e" else -1
            coeffs = self.coroot_coefficients(rx if x[0] == "e" else ry)
            return {("h", i): Fraction(sign * c) for i, c in enumerate(coeffs)}
        n = self.constants.n(rx, ry)
        if n == 0:
            return {}
        return {self._root_vector_label(s): Fraction(n)}

    def bracket_combos(
        self, xs: dict[Label, Fraction], ys: dict[Label, Fraction]
    ) -> dict[Label, Fraction]:
        out: dict[Label, Fraction] = {}
        for x, cx in xs.items():
            for y, cy in ys.items():
                for z, cz in self.bracket(x, y).items():
                    out[z] = out.get(z, Fraction(0)) + cx * cy * cz
        return {k: v for k, v in out.items() if v != 0}

    # -- invariant forms

    def killing_form(self) -> ExactMatrix:
        """B(x, y) = tr(ad x ad y) on the full basis, read off the bracket
        table: the sum over basis elements b of the b-coefficient of
        [x, [y, b]]."""
        if self._killing is None:
            basis, n = self.basis, self.dimension
            B = ExactMatrix(n, n)
            for i, x in enumerate(basis):
                for j in range(i, n):
                    B[i, j] = B[j, i] = sum(
                        c * self.bracket(x, z).get(b, 0)
                        for b in basis
                        for z, c in self.bracket(basis[j], b).items()
                    )
            self._killing = B
        return self._killing

    def killing_dual_form_on_weights(self) -> ExactMatrix:
        """Gram matrix of the Killing-dual form on h* in fundamental coords."""
        r, K = self.datum.rank, self.killing_form()
        return ExactMatrix.from_rows([[K[i, j] for j in range(r)] for i in range(r)]).inverse()

    def invariant_form(self, choice: str) -> ExactMatrix:
        """Nondegenerate invariant form on the whole algebra."""
        K = self.killing_form()
        if choice == "killing":
            return K
        if choice == "short-root-2":
            # scale the Killing form so the dual form on h* is the
            # short-root-2 Gram matrix of the datum
            dual = self.killing_dual_form_on_weights()
            G, r = self.datum.form, self.datum.rank
            # the ratio at the first nonzero entry of G, in row-major order
            c = next(dual[i, j] / G[i, j] for i in range(r) for j in range(r) if G[i, j] != 0)
            if c == 0:
                raise InvariantError("the Killing-dual form vanishes on h*")
            return K.scale_by(c)
        raise ValueError(f"unknown form choice {choice!r}")

    def weight_form_gram(self, choice: str) -> ExactMatrix:
        """Gram matrix on h* (fundamental coords) dual to invariant_form."""
        if choice == "killing":
            return self.killing_dual_form_on_weights()
        if choice == "short-root-2":
            return self.datum.form
        raise ValueError(f"unknown form choice {choice!r}")


def build_chevalley_algebra(datum: RootDatum) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(datum)


# ---------------------------------------------------------------------------
# Parabolic decompositions


@dataclass(frozen=True)
class ParabolicSplit:
    """Decomposition g = a + m + n + nbar for the parabolic with the given Levi."""

    algebra: ChevalleyAlgebra
    levi: frozenset[int]
    a_basis: tuple[tuple[Fraction, ...], ...]  # vectors in coroot coordinates
    levi_roots: tuple[Weight, ...]  # positive roots of the Levi
    n_roots: tuple[Weight, ...]
    two_rho_P: tuple[Fraction, ...]  # restricted to a

    @property
    def datum(self) -> RootDatum:
        return self.algebra.datum

    def a_dim(self) -> int:
        return len(self.a_basis)

    def m_dim(self) -> int:
        return len(self.levi) + 2 * len(self.levi_roots)

    def restrict_to_a(self, lam) -> tuple[Fraction, ...]:
        """Value list of the weight on the a-basis elements."""
        return tuple(
            sum((Fraction(b[j]) * lam[j] for j in range(len(lam))), Fraction(0))
            for b in self.a_basis
        )


def parabolic_split(alg: ChevalleyAlgebra, levi) -> ParabolicSplit:
    datum = alg.datum
    levi = frozenset(levi)
    if not levi <= set(range(datum.rank)):
        raise ValueError("levi must be a subset of simple-root indices")
    on, off = datum.partition_roots(levi)
    levi_roots = tuple(r for r, _ in on)
    n_roots = tuple(r for r, _ in off)
    if levi:
        rows = [datum.cartan_matrix[i] for i in sorted(levi)]
        _, kernel = rank_and_kernel(ExactMatrix.from_rows(rows))
        a_basis = tuple(tuple(v) for v in kernel)
    else:
        a_basis = tuple(
            tuple(Fraction(int(i == j)) for j in range(datum.rank))
            for i in range(datum.rank)
        )
    total = (0,) * datum.rank
    for r in n_roots:
        total = _add(total, r)
    split = ParabolicSplit(
        alg,
        levi,
        a_basis,
        levi_roots,
        n_roots,
        tuple(
            sum((Fraction(b[j]) * total[j] for j in range(datum.rank)), Fraction(0))
            for b in a_basis
        ),
    )
    return split


# ---------------------------------------------------------------------------
# Highest-weight modules


@dataclass
class WeightModule:
    highest_weight: Weight
    dimension: int
    basis_weights: list[Weight]  # weight of each basis vector
    action: dict[Label, SparseMatrix]
    datum: RootDatum

    def character(self) -> LaurentCharacter:
        return LaurentCharacter.from_weights(self.datum.rank, self.basis_weights)

    def weight_multiplicities(self) -> dict[Weight, int]:
        out: dict[Weight, int] = {}
        for w in self.basis_weights:
            out[w] = out.get(w, 0) + 1
        return out


class _WordCalculus:
    """Shapovalov pairing of lowering-operator words on a Verma highest weight.

    The word (i, j, ...) stands for f_i f_j ... v.  Pairings are integers:
    moving e_i through the word only brings in the pairings <wt, alpha_i^vee>."""

    def __init__(self, datum: RootDatum, lam: Weight):
        self.lam = lam
        self.simple_roots = datum.simple_roots
        self._weights: dict[tuple[int, ...], Weight] = {(): lam}
        self._pair_cache: dict[tuple, int] = {}

    def word_weight(self, word: tuple[int, ...]) -> Weight:
        wt = self._weights.get(word)
        if wt is None:
            wt = _sub(self.word_weight(word[1:]), self.simple_roots[word[0]])
            self._weights[word] = wt
        return wt

    def apply_e(self, i: int, word: tuple[int, ...]) -> list[tuple[int, tuple]]:
        """e_i f_word v as (coefficient, word) terms: e_i commutes past each
        f_j, and at each f_i leaves h_i, which acts on the rest of the word
        by the i-th coordinate of its weight."""
        out = []
        c = self.lam[i]  # scanned from the right: <wt(word[p + 1:]), alpha_i^vee>
        for p in range(len(word) - 1, -1, -1):
            j = word[p]
            if j == i and c:
                out.append((c, word[:p] + word[p + 1 :]))
            c -= self.simple_roots[j][i]
        return out

    def pair(self, w1: tuple[int, ...], w2: tuple[int, ...]) -> int:
        """<f_{w1} v, f_{w2} v> via contravariance; 0 unless the words are
        permutations of each other, i.e. of one weight."""
        key = (w1, w2)
        val = self._pair_cache.get(key)
        if val is None:
            if not w1:
                val = int(not w2)
            else:
                rest = w1[1:]
                val = sum(c * self.pair(rest, w) for c, w in self.apply_e(w1[0], w2))
            self._pair_cache[key] = val
        return val


def highest_weight_module(
    alg: ChevalleyAlgebra, lam, dim_bound: int = DIMENSION_BOUND
) -> WeightModule:
    """The irreducible module of highest weight lam on a basis of words.

    The candidates f_i w, w a basis word one level up, join the basis in turn
    when their Schur complement against the words taken is nonzero; else their
    coordinates are G^-1 b (b: their pairings with those words), the columns
    of f_i.  Then e_i f_k w = f_k e_i w + [i = k] <wt(w), alpha_i^vee> w."""
    datum = alg.datum
    lam = tuple(int(c) for c in lam)
    if len(lam) != datum.rank:
        raise ValueError(
            f"highest weight {lam} has {len(lam)} coordinates; "
            f"{datum.label} has rank {datum.rank}"
        )
    if not datum.is_dominant(lam):
        raise ValueError(f"highest weight {lam} is not dominant")
    expected_dim = datum.weyl_dimension(lam)
    if expected_dim > dim_bound:
        raise ValueError(
            f"module dimension {expected_dim} exceeds bound {dim_bound}"
        )
    calc = _WordCalculus(datum, lam)
    rank = datum.rank

    levels: list[list[tuple[int, ...]]] = [[()]]
    coords: dict[tuple[int, ...], dict] = {}  # candidate -> its basis coordinates
    while levels[-1]:
        new_level: list[tuple[int, ...]] = []
        candidates: dict[Weight, list[tuple[int, ...]]] = {}
        for w in levels[-1]:
            for i in range(rank):
                cand = (i,) + w
                candidates.setdefault(calc.word_weight(cand), []).append(cand)
        for wt in sorted(candidates):
            chosen: list[tuple[int, ...]] = []
            inv: list[list[Fraction]] = []  # inverse Gram matrix of chosen
            for cand in candidates[wt]:
                b = [calc.pair(x, cand) for x in chosen]
                u = [sum(g * y for g, y in zip(row, b)) for row in inv]
                schur = calc.pair(cand, cand) - sum(x * y for x, y in zip(b, u))
                if schur:
                    # border the inverse by the new row b and the Schur complement
                    inv = [
                        [g + ui * uj / schur for g, uj in zip(row, u)] + [-ui / schur]
                        for row, ui in zip(inv, u)
                    ]
                    inv.append([-uj / schur for uj in u] + [Fraction(1, schur)])
                    chosen.append(cand)
                    coords[cand] = {cand: 1}
                else:
                    coords[cand] = {x: c for x, c in zip(chosen, u) if c}
            new_level.extend(chosen)
        levels.append(new_level)

    # flat basis ordered by level then word
    flat_basis = [w for level in levels for w in sorted(level)]
    index = {w: i for i, w in enumerate(flat_basis)}
    dim = len(flat_basis)
    if dim != expected_dim:
        raise InvariantError(
            f"constructed dimension {dim} != Weyl dimension {expected_dim}"
        )
    weights = [calc.word_weight(w) for w in flat_basis]

    f_cols = [
        [flat({index[x]: c for x, c in coords[(i,) + w].items()}) for w in flat_basis]
        for i in range(rank)
    ]
    e_cols: list[list[tuple]] = [[()] for _ in range(rank)]  # e_i v = 0
    for w in flat_basis[1:]:  # by level, so e_i of the tail w[1:] is known
        k, t = w[0], index[w[1:]]
        for i in range(rank):
            col = image(f_cols[k], e_cols[i][t])
            if k == i:
                col[t] = col.get(t, 0) + weights[t][i]
            e_cols[i].append(flat({r: c for r, c in col.items() if c}))
    action: dict[Label, SparseMatrix] = {}
    for i in range(rank):
        h = [(j, wt[i]) if wt[i] else () for j, wt in enumerate(weights)]
        action[("h", i)] = SparseMatrix(dim, h)
        action[("e", datum.simple_roots[i])] = SparseMatrix(dim, e_cols[i])
        action[("f", datum.simple_roots[i])] = SparseMatrix(dim, f_cols[i])

    # non-simple root vectors via commutators, by height
    simple_set = set(datum.simple_roots)
    for gamma in datum.positive_roots:
        if gamma in simple_set:
            continue
        # decompose via the minimal special pair
        sc = alg.constants
        for a in datum.positive_roots:
            b = _sub(gamma, a)
            if b in sc.index and sc.index[a] < sc.index[b]:
                break
        else:
            raise InvariantError(f"no special pair for the root {gamma}")
        n = sc.n(a, b)
        ea, eb = action[("e", a)], action[("e", b)]
        fa, fb = action[("f", a)], action[("f", b)]
        action[("e", gamma)] = (ea @ eb - eb @ ea).scale_by(Fraction(1, n))
        action[("f", gamma)] = (fa @ fb - fb @ fa).scale_by(Fraction(-1, n))

    return WeightModule(lam, dim, weights, action, datum)


def casimir_matrix(
    alg: ChevalleyAlgebra, mod: WeightModule, form_choice: str = "killing"
) -> SparseMatrix:
    """sum_i rho(X_i) rho(Y_i) over bases dual under the chosen form."""
    F = alg.invariant_form(form_choice)
    rk, _ = rank_and_kernel(F)
    if rk < alg.dimension:
        raise ValueError("invariant form is degenerate")
    Finv = F.inverse()
    acc: list[dict[int, Fraction]] = [{} for _ in range(mod.dimension)]
    for i, x in enumerate(alg.basis):
        for k, y in enumerate(alg.basis):
            c = Finv[k, i]
            if c:
                for col, prod in zip(acc, (mod.action[x] @ mod.action[y]).columns):
                    for r, v in pairs(prod):
                        col[r] = col.get(r, 0) + c * v
    return SparseMatrix(
        mod.dimension, [flat({r: v for r, v in col.items() if v}) for col in acc]
    )


def casimir_eigenvalue(
    alg: ChevalleyAlgebra, mod: WeightModule, form_choice: str = "killing"
) -> Fraction:
    """Scalar by which the Casimir of the chosen form acts; raises if the
    Casimir matrix is not an exact scalar multiple of the identity."""
    C = casimir_matrix(alg, mod, form_choice)
    scalar = Fraction(dict(pairs(C.columns[0])).get(0, 0)) if mod.dimension else Fraction(0)
    for j, col in enumerate(C.columns):
        if dict(pairs(col)) != ({j: scalar} if scalar else {}):
            raise InvariantError("Casimir matrix is not scalar")
    G = alg.weight_form_gram(form_choice)

    def inner(a, b):
        return sum(x * G[i, j] * y for i, x in enumerate(a) for j, y in enumerate(b))

    lam_rho = _add(mod.highest_weight, alg.datum.rho)
    formula = inner(lam_rho, lam_rho) - inner(alg.datum.rho, alg.datum.rho)
    if scalar != formula:
        raise InvariantError(
            f"Casimir scalar {scalar} != (lam+rho)^2-rho^2 = {formula}"
        )
    return scalar
