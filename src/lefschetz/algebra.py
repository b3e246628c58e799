"""Semisimple Lie algebras over Q via Chevalley bases.

Structure-constant signs follow the extraspecial-pair convention: for each
non-simple positive root the special pair with minimal first member gets a
positive constant, and all remaining constants are forced by the Jacobi
identity.  Highest-weight modules are built from words in the simple lowering
operators, with linear independence decided exactly through the contravariant
(Shapovalov) form, after W. A. de Graaf, "Constructing representations of
split semisimple Lie algebras", J. Pure Appl. Algebra 164 (2001).  The form is
read off the module's own e_i, built level by level with the basis, and the
Gram rows of the level above.  The module operators are sparse exact columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, neg, sub

from .exact import ExactMatrix, InvariantError, LaurentCharacter, SparseMatrix, Weight
from .exact import _integral, flat, image, pairs, rank_and_kernel
from .roots import RootDatum

# Largest module built, in dimension.  Measured in process with Python 3.11.7
# on a shared 2-vCPU host, min-max of five builds: G2 (2,1), dim 286, builds
# in 0.12-0.13 s, B2 (4,4), dim 625, in 0.25-0.68 s and G2 (2,2), dim 729, in
# 0.61-0.67 s; one build of D4 (1,1,1,1), dim 4096, took 5.3 s.
DIMENSION_BOUND = 5000

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
        self._killing: ExactMatrix | None = None

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


def _sylvester(num: int, det: int) -> int:
    """num / det, which Sylvester's identity makes exact in the bordering."""
    q, rem = divmod(num, det)
    if rem:
        raise InvariantError(f"inexact Sylvester division {num} / {det}")
    return q


def _operator(dim: int, cols: list[tuple[tuple, int]]) -> SparseMatrix:
    """The operator whose column j is the flat integer column cols[j][0]
    over cols[j][1], put over the lcm of those denominators."""
    den = lcm(*(d for _, d in cols))
    return SparseMatrix(
        dim,
        [flat({r: v * (den // d) for r, v in pairs(col)}) if d != den else col for col, d in cols],
        den,
    )


def _pairing(col: tuple, den: int, gram_row: dict[int, int]) -> int:
    """<x, f_i w> = <e_i x, w> for e_i x = col / den on the basis words of w's
    weight and w's Gram row on them: a Shapovalov pairing, so an integer."""
    q, rem = divmod(sum(v * gram_row[r] for r, v in pairs(col)), den)
    if rem:
        raise InvariantError(f"inexact Shapovalov pairing division by {den}")
    return q


def highest_weight_module(
    alg: ChevalleyAlgebra, lam, dim_bound: int = DIMENSION_BOUND
) -> WeightModule:
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
    if expected_dim > dim_bound:
        raise ValueError(
            f"module dimension {expected_dim} exceeds bound {dim_bound}"
        )
    rank, simple = datum.rank, datum.simple_roots
    # of each basis word, by level then word: its weight, its Gram row on the
    # basis words of its weight, its e_k columns and, once the next level is
    # done, its f_i columns, each column integers over a denominator
    weights, gram = [lam], [{0: 1}]
    e_cols: list[list[tuple[tuple, int]]] = [[((), 1)] for _ in range(rank)]  # e_k v = 0
    f_cols: list[list[tuple]] = [[] for _ in range(rank)]
    f_dens: list[list[int]] = [[] for _ in range(rank)]

    def e_of_f(k: int, i: int, t: int) -> tuple[tuple, int]:
        """e_k f_i w for the basis word w of index t, reduced."""
        col, den = e_cols[k][t]
        dens = f_dens[i]
        scale = lcm(*(dens[z] for z in col[::2]))
        acc = image(f_cols[i], flat({z: a * (scale // dens[z]) for z, a in pairs(col)}))
        den *= scale
        if k == i:
            acc[t] = acc.get(t, 0) + weights[t][k] * den
        g = gcd(den, *acc.values())
        return flat({r: c // g for r, c in acc.items() if c}), den // g

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
            ecols: list[list[tuple[tuple, int]]] = []  # the e_k columns of chosen
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
                f_cols[i].append(flat({index[x]: c for x, c in col.items()}))
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
        h = [(j, wt[i]) if wt[i] else () for j, wt in enumerate(weights)]
        action[("h", i)] = SparseMatrix(dim, h)
        action[("e", datum.simple_roots[i])] = _operator(dim, e_cols[i])
        action[("f", datum.simple_roots[i])] = _operator(dim, list(zip(f_cols[i], f_dens[i])))

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
    """sum_i rho(X_i) rho(Y_i) over bases dual under the chosen form, summed
    in integers over the lcm of the terms' denominators."""
    Finv = alg.invariant_form(form_choice).inverse()  # raises if the form is degenerate
    act = mod.action
    terms = [
        (Finv[k, i], act[x], act[y])
        for i, x in enumerate(alg.basis)
        for k, y in enumerate(alg.basis)
        if Finv[k, i]
    ]
    den = lcm(*(c.denominator * a.den * b.den for c, a, b in terms))
    acc: list[dict[int, int]] = [{} for _ in range(mod.dimension)]
    for c, a, b in terms:
        m = c.numerator * (den // (c.denominator * a.den * b.den))
        for col, bcol in zip(acc, b.columns):  # col += m * a @ bcol
            for k, v in pairs(bcol):
                v *= m
                for r, x in pairs(a.columns[k]):
                    col[r] = col.get(r, 0) + v * x
    return SparseMatrix(
        mod.dimension, [flat({r: v for r, v in col.items() if v}) for col in acc], den
    )


def casimir_eigenvalue(
    alg: ChevalleyAlgebra, mod: WeightModule, form_choice: str = "killing"
) -> Fraction:
    """Scalar by which the Casimir of the chosen form acts; raises if the
    Casimir matrix is not an exact scalar multiple of the identity."""
    C = casimir_matrix(alg, mod, form_choice)
    num = dict(pairs(C.columns[0])).get(0, 0) if mod.dimension else 0
    for j, col in enumerate(C.columns):
        if dict(pairs(col)) != ({j: num} if num else {}):
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
