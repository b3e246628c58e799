"""Semisimple Lie algebras over Q via Chevalley bases.

Structure-constant signs follow the extraspecial-pair convention: for each
non-simple positive root the special pair with minimal first member gets a
positive constant, and all remaining constants are forced by the Jacobi
identity.  Highest-weight modules are built from words in the simple lowering
operators, with linear independence decided exactly through the contravariant
(Shapovalov) form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactMatrix, LaurentCharacter, Weight, rank_and_kernel
from .roots import RootDatum

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
                assert val.denominator == 1, "nonintegral structure constant"
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
        assert val.denominator == 1
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
            assert v.denominator == 1
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

    def ad_matrix(self, lab: Label) -> ExactMatrix:
        m = ExactMatrix(self.dimension, self.dimension)
        for j, b in enumerate(self.basis):
            for z, c in self.bracket(lab, b).items():
                m[self._index[z], j] = c
        return m

    # -- invariant forms

    def killing_form(self) -> ExactMatrix:
        """B(X, Y) = tr(ad X ad Y) on the full basis."""
        if self._killing is not None:
            return self._killing
        ads = [self.ad_matrix(b) for b in self.basis]
        n = self.dimension
        B = ExactMatrix(n, n)
        for i in range(n):
            for j in range(i, n):
                t = (ads[i] @ ads[j]).trace()
                B[i, j] = t
                B[j, i] = t
        self._killing = B
        return B

    def killing_dual_form_on_weights(self) -> ExactMatrix:
        """Gram matrix of the Killing-dual form on h* in fundamental coords."""
        r = self.datum.rank
        Bh = ExactMatrix(r, r)
        K = self.killing_form()
        for i in range(r):
            for j in range(r):
                Bh[i, j] = K[i, j]
        return Bh.inverse()

    def invariant_form(self, choice: str) -> ExactMatrix:
        """Nondegenerate invariant form on the whole algebra."""
        K = self.killing_form()
        if choice == "killing":
            return K
        if choice == "short-root-2":
            # scale the Killing form so the dual form on h* is the
            # short-root-2 Gram matrix of the datum
            dual = self.killing_dual_form_on_weights()
            G = self.datum.form
            c = None
            for i in range(self.datum.rank):
                for j in range(self.datum.rank):
                    if G[i, j] != 0:
                        c = dual[i, j] / G[i, j]
                        break
                if c is not None:
                    break
            assert c is not None and c != 0
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
    levi_roots = []
    n_roots = []
    for r in datum.positive_roots:
        coords = datum.root_coordinates(r)
        if all(coords[i] == 0 for i in range(datum.rank) if i not in levi):
            levi_roots.append(r)
        else:
            n_roots.append(r)
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
        tuple(levi_roots),
        tuple(n_roots),
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
    action: dict[Label, ExactMatrix]
    datum: RootDatum

    def character(self) -> LaurentCharacter:
        return LaurentCharacter.from_weights(self.datum.rank, self.basis_weights)

    def weight_multiplicities(self) -> dict[Weight, int]:
        out: dict[Weight, int] = {}
        for w in self.basis_weights:
            out[w] = out.get(w, 0) + 1
        return out


class _WordCalculus:
    """Shapovalov pairing of lowering-operator words on a Verma highest weight."""

    def __init__(self, datum: RootDatum, lam: Weight):
        self.datum = datum
        self.lam = lam
        self._pair_cache: dict[tuple, Fraction] = {}

    def word_weight(self, word: tuple[int, ...]) -> Weight:
        w = self.lam
        for i in word:
            w = _sub(w, self.datum.simple_roots[i])
        return w

    def apply_e(self, i: int, word: tuple[int, ...]) -> list[tuple[Fraction, tuple]]:
        if not word:
            return []
        j, rest = word[0], word[1:]
        out = [(c, (j,) + w2) for c, w2 in self.apply_e(i, rest)]
        if i == j:
            out.append((Fraction(self.word_weight(rest)[i]), rest))
        return out

    def pair(self, w1: tuple[int, ...], w2: tuple[int, ...]) -> Fraction:
        """<f_{w1} v, f_{w2} v> via contravariance."""
        if self.word_weight(w1) != self.word_weight(w2):
            return Fraction(0)
        key = (w1, w2)
        if key in self._pair_cache:
            return self._pair_cache[key]
        if not w1:
            val = Fraction(1) if not w2 else Fraction(0)
        else:
            i, rest = w1[0], w1[1:]
            val = sum(
                (c * self.pair(rest, w) for c, w in self.apply_e(i, w2)),
                Fraction(0),
            )
        self._pair_cache[key] = val
        return val


def highest_weight_module(
    alg: ChevalleyAlgebra, lam, dim_bound: int = DIMENSION_BOUND
) -> WeightModule:
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

    # per-weight data: list of basis words, Gram matrix inverse
    basis_words: dict[Weight, list[tuple[int, ...]]] = {}
    gram_inv: dict[Weight, ExactMatrix] = {}
    levels: list[list[tuple[int, ...]]] = [[()]]
    basis_words[lam] = [()]
    gram_inv[lam] = ExactMatrix.identity(1)

    while levels[-1]:
        new_level: list[tuple[int, ...]] = []
        candidates: dict[Weight, list[tuple[int, ...]]] = {}
        for w in levels[-1]:
            for i in range(datum.rank):
                cand = (i,) + w
                candidates.setdefault(calc.word_weight(cand), []).append(cand)
        for wt in sorted(candidates):
            chosen: list[tuple[int, ...]] = []
            gram_rows: list[list[Fraction]] = []
            for cand in candidates[wt]:
                b = [calc.pair(x, cand) for x in chosen]
                nrm = calc.pair(cand, cand)
                if chosen:
                    ginv = gram_inv[wt]
                    gb = ginv.apply(b)
                    schur = nrm - sum(
                        (x * y for x, y in zip(b, gb)), Fraction(0)
                    )
                else:
                    schur = nrm
                if schur != 0:
                    chosen.append(cand)
                    gram = ExactMatrix.from_rows(
                        [
                            [calc.pair(x, y) for y in chosen]
                            for x in chosen
                        ]
                    )
                    gram_inv[wt] = gram.inverse()
            if chosen:
                basis_words[wt] = chosen
                new_level.extend(chosen)
        levels.append(new_level)

    # flat basis ordered by level then weight then word
    flat: list[tuple[int, ...]] = []
    for level in levels:
        flat.extend(sorted(level))
    index = {w: i for i, w in enumerate(flat)}
    dim = len(flat)
    if dim != expected_dim:
        raise AssertionError(
            f"constructed dimension {dim} != Weyl dimension {expected_dim}"
        )
    weights = [calc.word_weight(w) for w in flat]

    def express(word: tuple[int, ...]) -> dict[int, Fraction]:
        """Coefficients of a word's image in the chosen basis."""
        wt = calc.word_weight(word)
        if wt not in basis_words:
            return {}
        bw = basis_words[wt]
        b = [calc.pair(x, word) for x in bw]
        coeffs = gram_inv[wt].apply(b)
        return {
            index[x]: c for x, c in zip(bw, coeffs) if c != 0
        }

    action: dict[Label, ExactMatrix] = {}
    rank = datum.rank
    for i in range(rank):
        h = ExactMatrix(dim, dim)
        for j, wt in enumerate(weights):
            h[j, j] = Fraction(wt[i])
        action[("h", i)] = h
        f = ExactMatrix(dim, dim)
        e = ExactMatrix(dim, dim)
        for j, word in enumerate(flat):
            for k, c in express((i,) + word).items():
                f[k, j] = c
            acc: dict[int, Fraction] = {}
            for c, w2 in calc.apply_e(i, word):
                for k, c2 in express(w2).items():
                    acc[k] = acc.get(k, Fraction(0)) + c * c2
            for k, c in acc.items():
                if c != 0:
                    e[k, j] = c
        action[("e", datum.simple_roots[i])] = e
        action[("f", datum.simple_roots[i])] = f

    # non-simple root vectors via commutators, by height
    simple_set = set(datum.simple_roots)
    for gamma in datum.positive_roots:
        if gamma in simple_set:
            continue
        # decompose via the minimal special pair
        sc = alg.constants
        pair = None
        for xi in datum.positive_roots:
            eta = _sub(gamma, xi)
            if eta in sc.index and sc.index[xi] < sc.index[eta]:
                pair = (xi, eta)
                break
        assert pair is not None
        a, b = pair
        n = sc.n(a, b)
        ea, eb = action[("e", a)], action[("e", b)]
        fa, fb = action[("f", a)], action[("f", b)]
        action[("e", gamma)] = (ea @ eb - eb @ ea).scale_by(Fraction(1, n))
        action[("f", gamma)] = (fa @ fb - fb @ fa).scale_by(Fraction(-1, n))

    return WeightModule(lam, dim, weights, action, datum)


def casimir_matrix(
    alg: ChevalleyAlgebra, mod: WeightModule, form_choice: str = "killing"
) -> ExactMatrix:
    """sum_i rho(X_i) rho(Y_i) over bases dual under the chosen form."""
    F = alg.invariant_form(form_choice)
    rk, _ = rank_and_kernel(F)
    if rk < alg.dimension:
        raise ValueError("invariant form is degenerate")
    Finv = F.inverse()
    n = alg.dimension
    dim = mod.dimension
    out = ExactMatrix(dim, dim)
    mats = [mod.action[b] for b in alg.basis]
    for i in range(n):
        for k in range(n):
            c = Finv[k, i]
            if c == 0:
                continue
            prod = mats[i] @ mats[k]
            for idx, v in enumerate(prod.entries):
                if v:
                    out.entries[idx] += c * v
    return out


def casimir_eigenvalue(
    alg: ChevalleyAlgebra, mod: WeightModule, form_choice: str = "killing"
) -> Fraction:
    """Scalar by which the Casimir of the chosen form acts; raises if the
    Casimir matrix is not an exact scalar multiple of the identity."""
    C = casimir_matrix(alg, mod, form_choice)
    scalar = C[0, 0] if mod.dimension else Fraction(0)
    for i in range(mod.dimension):
        for j in range(mod.dimension):
            expected = scalar if i == j else Fraction(0)
            if C[i, j] != expected:
                raise AssertionError("Casimir matrix is not scalar")
    G = alg.weight_form_gram(form_choice)

    def inner(a, b):
        return sum(
            (
                Fraction(a[i]) * G[i, j] * Fraction(b[j])
                for i in range(len(a))
                for j in range(len(b))
            ),
            Fraction(0),
        )

    lam_rho = _add(mod.highest_weight, alg.datum.rho)
    formula = inner(lam_rho, lam_rho) - inner(alg.datum.rho, alg.datum.rho)
    if scalar != formula:
        raise AssertionError(
            f"Casimir scalar {scalar} != (lam+rho)^2-rho^2 = {formula}"
        )
    return scalar
