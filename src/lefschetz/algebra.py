"""Semisimple Lie algebras over Q via Chevalley bases.

Structure-constant signs follow the extraspecial-pair convention: for each
non-simple positive root the special pair with minimal first member gets a
positive constant, and all remaining constants are forced by the Jacobi
identity.  Highest-weight modules are built from words in the simple lowering
operators, with linear independence decided exactly through the contravariant
(Shapovalov) form, after W. A. de Graaf, "Constructing representations of
split semisimple Lie algebras", J. Pure Appl. Algebra 164 (2001).  The form is
read off the module's own e_i, built level by level with the basis, and the
Gram rows of the level above.  The module operators are sparse exact columns;
the non-simple root vectors are commutators of earlier ones, each built column
by column in integers.  Every invariant form is a scale c times the Killing
form, kept once per algebra as its nonzero integer entries; the Casimir
inverts c K by its blocks (h with h, e_alpha with f_alpha), never as a whole.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, mul, neg, sub

from .exact import ExactMatrix, InvariantError, LaurentCharacter, SparseMatrix, Weight
from .exact import _integral, image, rank_and_kernel
from .roots import RootDatum

# Largest module built, in dimension.  Measured in process with Python 3.11.7
# on a shared 2-vCPU host, min-max of five builds: G2 (2,1), dim 286, builds
# in 0.043-0.049 s, B2 (4,4), dim 625, in 0.10-0.11 s and G2 (2,2), dim 729,
# in 0.26-0.27 s; one build of D4 (1,1,1,1), dim 4096, took 3.1 s.
DIMENSION_BOUND = 5000


def check_dimension(what: str, dim: int) -> None:
    """Refuse a module of dimension `dim` above the limit: LEF_MAX_DIM if the
    environment sets it, read at each call, else DIMENSION_BOUND."""
    bound = int(os.environ.get("LEF_MAX_DIM", DIMENSION_BOUND))
    if dim > bound:
        raise ValueError(
            f"{what} has dimension {dim}, more than the limit DIMENSION_BOUND "
            f"(or LEF_MAX_DIM) = {bound}"
        )


# basis labels: ("h", i), ("e", root), ("f", root) with root a positive weight tuple
Label = tuple


def _neg(w: Weight) -> Weight:
    return tuple(map(neg, w))


def _add(a: Weight, b: Weight) -> Weight:
    return tuple(map(add, a, b))


def _sub(a: Weight, b: Weight) -> Weight:
    return tuple(map(sub, a, b))


class StructureConstants:
    """The constants N(x, y) with [e_x, e_y] = N(x, y) e_{x+y}."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        pos = datum.positive_roots  # sorted by height then lex
        self.index = {r: i for i, r in enumerate(pos)}
        self.pos = pos
        # the pairing vector p of each positive root, and |alpha|^2 = sum_j p_j alpha_j
        self.pairing = dict(datum.levi_form(range(datum.rank))[1])
        self.norm = {r: sum(map(mul, p, r)) for r, p in self.pairing.items()}
        self._table: dict[tuple[Weight, Weight], int] = {}
        # each non-simple positive root -> its extraspecial pair, by height
        self.special: dict[Weight, tuple[Weight, Weight]] = {}
        self._fill()

    @staticmethod
    def _ratio(num: int, den: int, x: Weight, y: Weight) -> int:
        val, rem = divmod(num, den)
        if rem:
            raise InvariantError(
                f"nonintegral structure constant N{x, y} = {Fraction(num, den)}"
            )
        return val

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
            specials = []  # (xi, gamma - xi), xi the earlier of the two, in index order of xi
            for xi in self.pos:
                if self.index[xi] >= self.index[gamma]:
                    break
                eta = _sub(gamma, xi)
                if self._is_pos(eta) and self.index[xi] < self.index[eta]:
                    specials.append((xi, eta))
            if not specials:
                continue
            alpha, beta = self.special[gamma] = specials[0]
            self._table[(alpha, beta)] = self._chain_down(alpha, beta) + 1
            for xi, eta in specials[1:]:
                # Jacobi on (e_alpha, e_beta, e_{-xi}) determines N(gamma, -xi)
                t = 0
                if datum.is_root(_sub(beta, xi)):
                    t += self.n(beta, _neg(xi)) * self.n(alpha, _sub(beta, xi))
                if datum.is_root(_sub(alpha, xi)):
                    t -= self.n(alpha, _neg(xi)) * self.n(beta, _sub(alpha, xi))
                # N(xi, eta) = -N(gamma, -xi) |gamma|^2 / |eta|^2, with
                # N(gamma, -xi) = t / N(alpha, beta)
                den = self._table[(alpha, beta)] * self.norm[eta]
                self._table[(xi, eta)] = self._ratio(-t * self.norm[gamma], den, xi, eta)

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
        # N(x, y) = N(y, z) |z|^2 / |x|^2 with N(y, z) = -N(-y, x + y)
        return self._ratio(-self.n(_neg(y), s) * self.norm[s], self.norm[x], x, y)


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
        self._bracket_cache: dict[tuple[Label, Label], dict[Label, int]] = {}
        self._killing: dict[tuple[int, int], int] | None = None
        self._killing_dual: ExactMatrix | None = None

    # -- root/coroot helpers

    def coroot_coefficients(self, alpha: Weight) -> list[int]:
        """The integers c_i with alpha^vee = sum c_i alpha_i^vee, for a
        positive root alpha: c_i = 2 p_i / |alpha|^2 with p the pairing
        vector of alpha, since alpha_i = d_i alpha_i^vee."""
        norm = self.constants.norm[alpha]
        out = []
        for p in self.constants.pairing[alpha]:
            v, rem = divmod(2 * p, norm)
            if rem:
                raise InvariantError(
                    f"coroot of {alpha} has nonintegral coefficient {Fraction(2 * p, norm)}"
                )
            out.append(v)
        return out

    def _root_vector_label(self, r: Weight) -> Label:
        if r in self.constants.index:
            return ("e", r)
        return ("f", _neg(r))

    # -- bracket

    def bracket(self, x: Label, y: Label) -> dict[Label, int]:
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

    def _bracket_impl(self, x: Label, y: Label) -> dict[Label, int]:
        kx = x[0]
        ky = y[0]
        if kx == "h" and ky == "h":
            return {}
        if kx == "h":
            return {y: self._signed_root(y)[x[1]]}
        if ky == "h":
            return {x: -self._signed_root(x)[y[1]]}
        rx = self._signed_root(x)
        ry = self._signed_root(y)
        s = _add(rx, ry)
        if all(c == 0 for c in s):
            # [e_alpha, f_alpha] = h_alpha; here rx = -ry
            sign = 1 if x[0] == "e" else -1
            coeffs = self.coroot_coefficients(rx if x[0] == "e" else ry)
            return {("h", i): sign * c for i, c in enumerate(coeffs)}
        n = self.constants.n(rx, ry)
        if n == 0:
            return {}
        return {self._root_vector_label(s): n}

    # -- invariant forms

    def killing_form(self) -> dict[tuple[int, int], int]:
        """The nonzero entries K[i, j] = B(x_i, x_j) = tr(ad x_i ad x_j) on the
        full basis, read off the bracket table once per algebra: the sum over
        basis elements b of the b-coefficient of [x_i, [x_j, b]]."""
        if self._killing is None:
            basis, n = self.basis, self.dimension
            K = {}
            for i, x in enumerate(basis):
                for j in range(i, n):
                    v = sum(
                        c * self.bracket(x, z).get(b, 0)
                        for b in basis
                        for z, c in self.bracket(basis[j], b).items()
                    )
                    if v:
                        K[i, j] = K[j, i] = v
            self._killing = K
        return self._killing

    def killing_dual_form_on_weights(self) -> ExactMatrix:
        """Gram matrix of the Killing-dual form on h* in fundamental coords:
        the inverse of the Killing form's h block, computed once."""
        if self._killing_dual is None:
            r, K = self.datum.rank, self.killing_form()
            h = ExactMatrix.from_rows([[K.get((i, j), 0) for j in range(r)] for i in range(r)])
            self._killing_dual = h.inverse()
        return self._killing_dual

    def form_scale(self, choice: str) -> Fraction:
        """The c with the invariant form of `choice` equal to c times the
        Killing form: 1 for "killing"; for "short-root-2" the c whose dual
        form on h* is the short-root-2 Gram matrix of the datum."""
        if choice == "killing":
            return Fraction(1)
        if choice == "short-root-2":
            dual = self.killing_dual_form_on_weights()
            G, r = self.datum.form, self.datum.rank
            # the ratio at the first nonzero entry of G, in row-major order
            c = next(dual[i, j] / G[i, j] for i in range(r) for j in range(r) if G[i, j] != 0)
            if c == 0:
                raise InvariantError("the Killing-dual form vanishes on h*")
            return c
        raise ValueError(f"unknown form choice {choice!r}")

    def weight_form_gram(self, choice: str) -> ExactMatrix:
        """Gram matrix on h* (fundamental coords) dual to the invariant form
        form_scale(choice) times the Killing form."""
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
    n_roots: tuple[Weight, ...]

    @property
    def datum(self) -> RootDatum:
        return self.algebra.datum

    def a_dim(self) -> int:
        return len(self.a_basis)

    def restrict_to_a(self, lam) -> tuple[Fraction, ...]:
        """Value list of the weight on the a-basis elements: each a-basis entry
        is a Fraction, so each value is one."""
        return tuple(sum(map(mul, b, lam)) for b in self.a_basis)

    @cached_property
    def n_weights(self) -> tuple[tuple[Fraction, ...], ...]:
        """Each n-root restricted to a, computed on first use (the setup of a
        split that never reads them stays cheap)."""
        return tuple(map(self.restrict_to_a, self.n_roots))


def parabolic_split(alg: ChevalleyAlgebra, levi) -> ParabolicSplit:
    datum = alg.datum
    levi = frozenset(levi)
    if not levi <= set(range(datum.rank)):
        raise ValueError("levi must be a subset of simple-root indices")
    n_roots = tuple(r for r, _ in datum.partition_roots(levi)[1])
    rows = [x for i in sorted(levi) for x in datum.cartan_matrix[i]]
    _, kernel = rank_and_kernel(ExactMatrix(len(levi), datum.rank, rows))
    a_basis = tuple(map(tuple, kernel))
    return ParabolicSplit(alg, levi, a_basis, n_roots)


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
        return dict(self.character().terms)


def _sylvester(num: int, det: int) -> int:
    """num / det, which Sylvester's identity makes exact in the bordering."""
    q, rem = divmod(num, det)
    if rem:
        raise InvariantError(f"inexact Sylvester division {num} / {det}")
    return q


def _operator(dim: int, cols: list[tuple[dict[int, int], int]]) -> SparseMatrix:
    """The operator whose column j is the integer column cols[j][0] over
    cols[j][1], put over the lcm of those denominators."""
    den = lcm(*(d for _, d in cols))
    return SparseMatrix(
        dim, [{r: v * (den // d) for r, v in c.items()} if d != den else c for c, d in cols], den
    )


def _pairing(col: dict[int, int], den: int, gram_row: dict[int, int]) -> int:
    """<x, f_i w> = <e_i x, w> for e_i x = col / den on the basis words of w's
    weight and w's Gram row on them: a Shapovalov pairing, so an integer."""
    q, rem = divmod(sum(v * gram_row[r] for r, v in col.items()), den)
    if rem:
        raise InvariantError(f"inexact Shapovalov pairing division by {den}")
    return q


def highest_weight_module(alg: ChevalleyAlgebra, lam) -> WeightModule:
    """The irreducible module of highest weight lam on a basis of words.

    The candidates f_i w, named (i, t) for the basis word w of index t one
    level up, join the basis in turn when their Schur complement against the
    words taken at their weight is nonzero; else their coordinates (adj G) b /
    det G on those words, bordered fraction-free with b their pairings, are
    the columns of f_i.  Level by level, e_k f_i w = f_i e_k w + [k = i]
    <wt(w), alpha_k^vee> w gives the operators e_k and, with the Gram rows one
    level up, every pairing: <x, f_i w> = <e_i x, w>, x = f_i w included."""
    datum = alg.datum
    lam = tuple(map(_integral, lam))
    expected_dim = datum.weyl_dimension(lam)  # refuses a non-dominant or wrong-length lam
    check_dimension(f"the {datum.label} module {lam}", expected_dim)
    rank, simple = datum.rank, datum.simple_roots
    # of each basis word, by level then word: its weight, its Gram row on the
    # basis words of its weight, its e_k columns and, once the next level is
    # done, its f_i columns, each column integers over a denominator
    weights, gram = [lam], [{0: 1}]
    e_cols: list[list[tuple[dict, int]]] = [[({}, 1)] for _ in range(rank)]  # e_k v = 0
    f_cols: list[list[dict[int, int]]] = [[] for _ in range(rank)]
    f_dens: list[list[int]] = [[] for _ in range(rank)]

    def e_of_f(k: int, i: int, t: int) -> tuple[dict[int, int], int]:
        """e_k f_i w for the basis word w of index t, reduced."""
        col, den = e_cols[k][t]
        dens = f_dens[i]
        scale = lcm(*(dens[z] for z in col))
        acc = image(f_cols[i], {z: a * (scale // dens[z]) for z, a in col.items()})
        den *= scale
        if k == i:
            acc[t] = acc.get(t, 0) + weights[t][k] * den
        g = gcd(den, *acc.values())
        return {r: c // g for r, c in acc.items() if c}, den // g

    index: dict[tuple[int, int], int] = {}  # word (i, t) -> its index in the basis
    level = [0]  # the basis indices of the last level, in the order taken
    while level:
        candidates: dict[Weight, list[tuple[int, int]]] = {}
        for t in level:
            for i in range(rank):
                candidates.setdefault(_sub(weights[t], simple[i]), []).append((i, t))
        coords: dict[tuple[int, int], tuple[dict, int]] = {}  # f_i w on the words taken
        taken: dict[tuple[int, int], tuple] = {}  # word -> weight, words taken, Gram row, e_k
        for wt in sorted(candidates):
            chosen: list[tuple[int, int]] = []
            rows: list[list[int]] = []  # the Gram matrix of chosen
            ecols: list[list[tuple[dict, int]]] = []  # the e_k columns of chosen
            det = 1  # Gram determinant of chosen
            adj: list[list[int]] = []  # det times the inverse Gram matrix of chosen
            for cand in candidates[wt]:
                i, t = cand
                b = [_pairing(*ec[i], gram[t]) for ec in ecols]
                u = [sum(map(mul, row, b)) for row in adj]
                e_i = e_of_f(i, i, t)
                own = _pairing(*e_i, gram[t])
                new = own * det - sum(map(mul, b, u))  # det * Schur complement
                if new:
                    # border adj by the new row b; the new determinant is `new`
                    adj = [
                        [_sylvester(g * new + ui * uj, det) for g, uj in zip(row, u)] + [-ui]
                        for row, ui in zip(adj, u)
                    ]
                    adj.append([-uj for uj in u] + [det])
                    det = new
                    for row, bx in zip(rows, b):
                        row.append(bx)
                    rows.append(b + [own])
                    ecols.append([e_i if k == i else e_of_f(k, i, t) for k in range(rank)])
                    chosen.append(cand)
                    taken[cand] = (wt, chosen, rows[-1], ecols[-1])
                    coords[cand] = ({cand: 1}, 1)
                else:
                    coords[cand] = ({x: c for x, c in zip(chosen, u) if c}, det)
        # by word: f_i w_t is before f_j w_s just when (i, t) < (j, s)
        start, ordered = len(weights), sorted(taken)
        index.update((w, n) for n, w in enumerate(ordered, start))
        for w in ordered:
            wt, chosen, row, ecol = taken[w]
            weights.append(wt)
            gram.append(dict(zip(map(index.get, chosen), row)))
            for k in range(rank):
                e_cols[k].append(ecol[k])
        for t in range(len(f_dens[0]), start):  # the words one level up
            for i in range(rank):
                col, den = coords[i, t]
                f_cols[i].append({index[x]: c for x, c in col.items()})
                f_dens[i].append(den)
        level = [index[w] for w in taken]
        if len(weights) > expected_dim:  # wrong pairings need not end the loop
            break

    dim = len(weights)
    if dim != expected_dim:
        raise InvariantError(
            f"constructed dimension {dim} != Weyl dimension {expected_dim}"
        )
    action: dict[Label, SparseMatrix] = {}
    for i in range(rank):
        h = [{j: wt[i]} if wt[i] else {} for j, wt in enumerate(weights)]
        action[("h", i)] = SparseMatrix._of(dim, h)
        action[("e", datum.simple_roots[i])] = _operator(dim, e_cols[i])
        action[("f", datum.simple_roots[i])] = _operator(dim, list(zip(f_cols[i], f_dens[i])))

    # non-simple root vectors via commutators of their special pairs, by height
    sc = alg.constants
    for gamma, (a, b) in sc.special.items():
        n = sc.n(a, b)
        action[("e", gamma)] = _commutator(action[("e", a)], action[("e", b)], n)
        action[("f", gamma)] = _commutator(action[("f", a)], action[("f", b)], -n)

    return WeightModule(lam, dim, weights, action, datum)


def _commutator(x: SparseMatrix, y: SparseMatrix, n: int) -> SparseMatrix:
    """(x y - y x) / n, built column by column in integers and reduced once.
    Column j holds the rows of (x y)_j that do not cancel, in the order the
    product reaches them, then the further rows of (y x)_j."""
    xc, yc = x.columns, y.columns
    den, sign = x.den * y.den * abs(n), 1 if n > 0 else -1
    g, cols = den, []
    for xj, yj in zip(xc, yc):
        acc: dict[int, int] = {}
        for k, a in yj.items():
            for i, v in xc[k].items():
                acc[i] = acc.get(i, 0) + a * v
        acc = {i: v for i, v in acc.items() if v}
        for k, a in xj.items():
            for i, v in yc[k].items():
                acc[i] = acc.get(i, 0) - a * v
        col = {i: v for i, v in acc.items() if v}
        if g != 1:
            g = gcd(g, *col.values())
        cols.append(col)
    if g != 1 or sign != 1:
        cols = [{i: v * sign // g for i, v in col.items()} for col in cols]
    return SparseMatrix._of(x.rows, cols, den // g)


def casimir_matrix(
    alg: ChevalleyAlgebra, mod: WeightModule, form_choice: str = "killing"
) -> SparseMatrix:
    """sum_i rho(X_i) rho(Y_i) over bases dual under the chosen form, c K with
    c = form_scale(form_choice), summed in integers over the lcm of the terms'
    denominators.  In a Chevalley basis K pairs h only with h and e_alpha only
    with f_alpha, so the inverse of c K is the Killing-dual form over c on h
    and 1 / (c K(e_alpha, f_alpha)) per positive root; a nonzero entry of K
    outside those blocks raises InvariantError."""
    K, scale = alg.killing_form(), alg.form_scale(form_choice)
    basis, size, r = alg.basis, alg.dimension, alg.datum.rank
    npos = (size - r) // 2  # e_alpha is basis[r + m], f_alpha basis[r + npos + m]
    for i, j in K:
        if not (i < r and j < r or i >= r and j >= r and abs(i - j) == npos):
            raise InvariantError(
                f"the invariant form pairs {basis[i]} with {basis[j]} outside its blocks"
            )
    dual = alg.killing_dual_form_on_weights()  # raises if singular
    act = mod.action
    terms = []  # ((c K)^-1[k, i], rho(basis[i]), rho(basis[k])) by i, then k
    for i, x in enumerate(basis):
        if i < r:
            terms += [(dual[k, i] / scale, act[x], act[basis[k]]) for k in range(r) if dual[k, i]]
            continue
        k = i + npos if i < r + npos else i - npos
        if not K.get((i, k)):
            raise ValueError(f"the invariant form is degenerate at {x}")
        terms.append((1 / (scale * K[i, k]), act[x], act[basis[k]]))
    den = lcm(*(c.denominator * a.den * b.den for c, a, b in terms))
    acc: list[dict[int, int]] = [{} for _ in range(mod.dimension)]
    for c, a, b in terms:
        m = c.numerator * (den // (c.denominator * a.den * b.den))
        for col, bcol in zip(acc, b.columns):  # col += m * a @ bcol
            for k, v in bcol.items():
                v *= m
                for r, x in a.columns[k].items():
                    col[r] = col.get(r, 0) + v * x
    return SparseMatrix(mod.dimension, [{r: v for r, v in col.items() if v} for col in acc], den)


def casimir_eigenvalue(
    alg: ChevalleyAlgebra, mod: WeightModule, form_choice: str = "killing"
) -> Fraction:
    """Scalar by which the Casimir of the chosen form acts; raises if the
    Casimir matrix is not an exact scalar multiple of the identity."""
    C = casimir_matrix(alg, mod, form_choice)
    num = C.columns[0].get(0, 0) if mod.dimension else 0
    for j, col in enumerate(C.columns):
        if col != ({j: num} if num else {}):
            raise InvariantError("Casimir matrix is not scalar")
    scalar = Fraction(num, C.den)
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
