"""Chevalley algebras, parabolic splits, modules, Killing form and Casimir."""

import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from lefschetz.algebra import (
    ChevalleyAlgebra,
    _pairing,
    _sylvester,
    build_chevalley_algebra,
    casimir_eigenvalue,
    casimir_matrix,
    highest_weight_module,
    parabolic_split,
)
from lefschetz.exact import ExactMatrix, InvariantError, SparseMatrix, image
from lefschetz.exact import rank_and_kernel
from lefschetz.roots import build_root_system
from lefschetz.verify import CHECKS, Sweep

SRC = Path(__file__).resolve().parent.parent / "src"


ALL_TYPES = (
    *(f"A{n}" for n in range(1, 9)),
    *(f"B{n}" for n in range(2, 9)),
    *(f"C{n}" for n in range(3, 9)),
    *(f"D{n}" for n in range(4, 9)),
    "E6",
    "E7",
    "E8",
    "F4",
    "G2",
)


def algebra(label):
    return build_chevalley_algebra(build_root_system(label))


def form_matrix(alg, choice):
    """The g x g matrix of the invariant form of `choice`, c K, in Fractions."""
    K, c, n = alg.killing_form(), alg.form_scale(choice), alg.dimension
    return ExactMatrix.from_rows([[c * K.get((i, j), 0) for j in range(n)] for i in range(n)])


def inner(datum, lam, mu):
    """(lam, mu) under the datum's Gram matrix on fundamental coordinates."""
    return sum(a * datum.form[i, j] * b for i, a in enumerate(lam) for j, b in enumerate(mu))


def sparse_product(a, b):
    """a @ b: the columns of b applied to a, over a.den * b.den, normalised
    by the SparseMatrix constructor."""
    return SparseMatrix(a.rows, [image(a.columns, col) for col in b.columns], a.den * b.den)


def sparse_combination(dim, terms):
    """The sum of c * m over (c, m) in terms, square matrices of size dim,
    summed in Fractions and normalised by the SparseMatrix constructor."""
    acc = [{} for _ in range(dim)]
    for c, m in terms:
        for col, mcol in zip(acc, m.columns):
            for i, v in mcol.items():
                col[i] = col.get(i, 0) + Fraction(c * v, m.den)
    return SparseMatrix(dim, [{i: v for i, v in col.items() if v} for col in acc])


def flat_columns(m):
    """The columns of m as the tuples (row, entry, row, entry, ...) in dict
    order, the form the pinned digests hash."""
    return [tuple(itertools.chain.from_iterable(col.items())) for col in m.columns]


class TestBrackets:
    def test_a1_defining_relations(self):
        alg = algebra("A1")
        assert alg.dimension == 3
        alpha = alg.datum.simple_roots[0]
        e, f, h = ("e", alpha), ("f", alpha), ("h", 0)
        assert alg.bracket(e, f) == {h: 1}
        assert alg.bracket(h, e) == {e: 2}
        assert alg.bracket(h, f) == {f: -2}

    def test_dimensions(self):
        assert algebra("A2").dimension == 8
        assert algebra("B2").dimension == 10
        assert algebra("G2").dimension == 14

    def test_a2_simple_bracket_is_unit(self):
        alg = algebra("A2")
        a1, a2 = alg.datum.simple_roots
        out = alg.bracket(("e", a1), ("e", a2))
        [(lab, c)] = out.items()
        assert lab == ("e", tuple(x + y for x, y in zip(a1, a2)))
        assert c in (1, -1)

    def test_antisymmetry(self):
        alg = algebra("B2")
        for x in alg.basis:
            for y in alg.basis:
                fwd = alg.bracket(x, y)
                back = alg.bracket(y, x)
                assert fwd == {k: -v for k, v in back.items()}

    def test_jacobi(self):
        cfg = {"types": ("A1", "A2", "B2", "G2")}
        assert CHECKS["jacobi"](cfg, Sweep()) is None

    def test_nonintegral_constant_survives_optimize_flag(self):
        """Under python -O a structure constant made nonintegral by a wrong
        symmetrizer (d_i scaled by i + 1, so G2 gets N = -4/5) still raises
        InvariantError, and `lef` reports it as exit 1 with a JSON error
        payload and no traceback."""
        script = textwrap.dedent(
            """
            import sys
            from lefschetz import cli, roots

            if not sys.flags.optimize:
                sys.exit("not running under -O")
            sym = roots._symmetrizer
            roots._symmetrizer = lambda A: [d * (i + 1) for i, d in enumerate(sym(A))]
            sys.exit(cli.main(["module", "--type", "G2", "--weight", "0,0"]))
            """
        )
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        error = json.loads(proc.stdout)["error"]
        assert error.startswith("nonintegral structure constant")
        assert issubclass(InvariantError, AssertionError)


class TestIntegerRootTable:
    """The constants, coroots and brackets read off the integer root table."""

    def test_norms_and_coroots_match_the_fraction_form(self):
        """|alpha|^2 and alpha^vee = 2 alpha / |alpha|^2 in simple coroots,
        against the Gram matrix of the datum: c_i |alpha_i|^2 / |alpha|^2."""
        for label in ALL_TYPES:
            alg = algebra(label)
            d = alg.datum
            simple = [inner(d, a, a) for a in d.simple_roots]
            for r, coords in d.partition_roots(())[1]:
                norm = inner(d, r, r)
                assert alg.constants.norm[r] == norm, (label, r)
                expected = [c * n_i / norm for c, n_i in zip(coords, simple)]
                assert alg.coroot_coefficients(r) == expected, (label, r)

    def test_bracket_coefficients_are_ints(self):
        for label in ("A3", "B3", "C3", "D4", "F4", "G2"):
            alg = algebra(label)
            for x, y in itertools.product(alg.basis, repeat=2):
                assert all(type(c) is int for c in alg.bracket(x, y).values()), (x, y)

    def test_constant_tables_are_unchanged(self):
        """The extraspecial-pair table and the coroots of all 31 types hash
        to the value of the Fraction computation they replace."""
        tables = []
        for label in ALL_TYPES:
            alg = algebra(label)
            coroots = [alg.coroot_coefficients(r) for r in alg.datum.positive_roots]
            tables.append((label, sorted(alg.constants._table.items()), coroots))
        digest = hashlib.sha256(repr(tables).encode()).hexdigest()
        assert digest == "91800bb2281a8862918f0cf36d436ce2cf6e855b098eac9799fef8365b4db7e3"

    def test_special_pairs_are_the_first_decompositions(self):
        """`special` holds each non-simple positive root, by height, with the
        decomposition gamma = a + b whose a comes first, a before b, and
        N(a, b) = p + 1 > 0 for the a-string through b."""
        for label in ALL_TYPES:
            alg = algebra(label)
            sc, pos = alg.constants, alg.datum.positive_roots
            simple = set(alg.datum.simple_roots)
            assert list(sc.special) == [r for r in pos if r not in simple], label
            for gamma, (a, b) in sc.special.items():
                pairs = [
                    (x, y)
                    for x in pos
                    if (y := tuple(g - c for g, c in zip(gamma, x))) in sc.index
                    and sc.index[x] < sc.index[y]
                ]
                assert pairs[0] == (a, b), (label, gamma)
                assert sc.n(a, b) == sc._chain_down(a, b) + 1 > 0


class TestKillingForm:
    def test_a1_values(self):
        alg = algebra("A1")
        K = alg.killing_form()
        # basis order: h, e, f; only the nonzero entries are kept
        assert K[0, 0] == 8
        assert K[1, 2] == 4
        assert (1, 1) not in K and 0 not in K.values()

    def test_invariance(self):
        alg = algebra("A2")
        K = alg.killing_form()
        idx = alg._index
        for x in alg.basis:
            for y in alg.basis:
                for z in alg.basis:
                    lhs = sum(
                        (c * K.get((idx[w], idx[z]), 0) for w, c in alg.bracket(x, y).items()),
                        Fraction(0),
                    )
                    rhs = sum(
                        (c * K.get((idx[y], idx[w]), 0) for w, c in alg.bracket(x, z).items()),
                        Fraction(0),
                    )
                    assert lhs + rhs == 0

    def test_nondegenerate(self):
        for label in ("A1", "B2"):
            alg = algebra(label)
            assert rank_and_kernel(form_matrix(alg, "killing"))[0] == alg.dimension

    def test_computed_once(self):
        """The entries and the dual form on h* are computed once per algebra."""
        alg = algebra("B2")
        assert alg.killing_form() is alg.killing_form()
        assert alg.killing_dual_form_on_weights() is alg.killing_dual_form_on_weights()

    @pytest.mark.parametrize("label", ["A1", "A2", "B2", "C3", "G2", "F4"])
    def test_form_scale_gives_the_short_root_2_dual_form(self, label):
        """c K with c = form_scale("short-root-2") has the datum's Gram matrix
        as its dual form on h*, and the Killing form has scale 1."""
        alg = algebra(label)
        r, form = alg.datum.rank, form_matrix(alg, "short-root-2")
        h = ExactMatrix.from_rows([form.row(i)[:r] for i in range(r)])
        assert h.inverse() == alg.datum.form
        assert alg.form_scale("killing") == 1 and alg.form_scale("short-root-2") > 0

    def test_form_scale_refusals(self, monkeypatch):
        alg = algebra("A2")
        with pytest.raises(ValueError, match="unknown form choice"):
            alg.form_scale("trace")
        monkeypatch.setattr(
            ChevalleyAlgebra, "killing_dual_form_on_weights", lambda self: ExactMatrix(2, 2)
        )
        with pytest.raises(InvariantError, match="vanishes on h"):
            alg.form_scale("short-root-2")


class TestParabolicSplit:
    def test_a2_borel(self):
        alg = algebra("A2")
        split = parabolic_split(alg, set())
        assert len(split.n_roots) == 3 and split.a_dim() == 2
        assert alg.datum.partition_roots(split.levi)[0] == []

    def test_a2_one_simple(self):
        alg = algebra("A2")
        split = parabolic_split(alg, {0})
        assert len(split.n_roots) == 2 and split.a_dim() == 1
        assert len(alg.datum.partition_roots(split.levi)[0]) == 1

    def test_full_levi_degenerate(self):
        alg = algebra("A2")
        split = parabolic_split(alg, {0, 1})
        assert split.n_roots == () and split.a_dim() == 0

    def test_dimension_bookkeeping(self):
        alg = algebra("B2")
        for levi in (set(), {0}, {1}, {0, 1}):
            split = parabolic_split(alg, levi)
            m_dim = len(split.levi) + 2 * len(alg.datum.partition_roots(levi)[0])
            assert split.a_dim() + m_dim + 2 * len(split.n_roots) == alg.dimension

    def test_n_closed_under_bracket(self):
        alg = algebra("B2")
        split = parabolic_split(alg, {1})
        n_set = set(split.n_roots)
        for a in split.n_roots:
            for b in split.n_roots:
                s = tuple(x + y for x, y in zip(a, b))
                if alg.datum.is_root(s):
                    assert s in n_set

    def test_two_rho_p_is_n_root_sum(self):
        """The n-weights are the n-roots on a, and sum to 2 rho_P on a."""
        for label, levi in (("A2", {0}), ("B2", set()), ("G2", {1}), ("A3", {0, 2})):
            split = parabolic_split(algebra(label), levi)
            total = tuple(map(sum, zip(*split.n_roots)))
            assert split.n_weights == tuple(map(split.restrict_to_a, split.n_roots))
            assert tuple(map(sum, zip(*split.n_weights))) == split.restrict_to_a(total)

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "D4"])
    def test_restrict_to_a_is_the_exact_pairing(self, label):
        """Each value is the Fraction sum_j b_j lam_j, the pairing of the
        weight with an a-basis vector, and vanishes on the Levi's simple roots."""
        alg = algebra(label)
        datum = alg.datum
        for r in range(datum.rank + 1):
            for levi in itertools.combinations(range(datum.rank), r):
                split = parabolic_split(alg, levi)
                for lam in itertools.product(range(-1, 3), repeat=datum.rank):
                    got = split.restrict_to_a(lam)
                    assert got == tuple(
                        sum((Fraction(x) * y for x, y in zip(b, lam)), Fraction(0))
                        for b in split.a_basis
                    ), (levi, lam)
                    assert all(type(v) is Fraction for v in got), (levi, lam)
                for i in levi:
                    assert split.restrict_to_a(datum.simple_roots[i]) == (0,) * split.a_dim()

    def test_bad_levi_rejected(self):
        with pytest.raises(ValueError):
            parabolic_split(algebra("A2"), {5})


class TestModules:
    def test_trivial(self):
        alg = algebra("A2")
        mod = highest_weight_module(alg, (0, 0))
        assert mod.dimension == 1
        zero = SparseMatrix(1, [{}])
        assert all(m == zero for lab, m in mod.action.items() if lab[0] != "h")

    def test_a1_dimensions(self):
        alg = algebra("A1")
        assert highest_weight_module(alg, (2,)).dimension == 3
        assert highest_weight_module(alg, (1,)).dimension == 2

    def test_a2_defining(self):
        alg = algebra("A2")
        assert highest_weight_module(alg, (1, 0)).dimension == 3

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            highest_weight_module(algebra("A1"), (-1,))

    def test_dimension_bound(self, monkeypatch):
        monkeypatch.setenv("LEF_MAX_DIM", "100")
        with pytest.raises(ValueError):
            highest_weight_module(algebra("A2"), (9, 9))

    def test_sweep_module_follows_the_env(self, monkeypatch):
        """A sweep's modules go through the same limit, read at each build."""
        monkeypatch.setenv("LEF_MAX_DIM", "3")
        sweep = Sweep()
        assert sweep.module("A1", (2,)).dimension == 3
        with pytest.raises(ValueError, match=r"the A1 module \(3,\) has dimension 4"):
            sweep.module("A1", (3,))

    @pytest.mark.parametrize("lam", [(1.5,), (Fraction(5, 2),), (2.7,)])
    def test_rejects_non_integral_weight(self, lam):
        with pytest.raises(ValueError, match="is not integral"):
            highest_weight_module(algebra("A1"), lam)

    @pytest.mark.parametrize("lam", [(3.0,), (Fraction(6, 2),)])
    def test_accepts_integral_float_and_fraction(self, lam):
        mod = highest_weight_module(algebra("A1"), lam)
        assert mod.highest_weight == (3,) and type(mod.highest_weight[0]) is int
        assert mod.basis_weights == highest_weight_module(algebra("A1"), (3,)).basis_weights

    def test_bracket_relations(self):
        for label, lam in (("A1", (2,)), ("A2", (1, 1)), ("B2", (1, 1))):
            alg = algebra(label)
            mod = highest_weight_module(alg, lam)
            for x in alg.basis:
                for y in alg.basis:
                    xy = sparse_product(mod.action[x], mod.action[y])
                    yx = sparse_product(mod.action[y], mod.action[x])
                    commutator = sparse_combination(mod.dimension, [(1, xy), (-1, yx)])
                    terms = [(c, mod.action[z]) for z, c in alg.bracket(x, y).items()]
                    expected = sparse_combination(mod.dimension, terms)
                    assert commutator == expected, (label, lam, x, y)

    def test_character_weyl_invariant(self):
        alg = algebra("B2")
        mod = highest_weight_module(alg, (1, 1))
        ch = mod.character()
        d = alg.datum
        for i in range(d.rank):
            reflected = {d.reflect(w, i): m for w, m in ch.terms.items()}
            assert reflected == dict(ch.terms)


def fraction_bordering_reference(datum, lam):
    """The word basis (by level, then word) and the coordinates of every
    candidate word, found by bordering the inverse Gram matrix in Fractions.
    The Shapovalov pairing is the plain recursion of e_i through Verma words,
    memoized on word pairs, independent of the builder's e-columns."""
    simple, rank = datum.simple_roots, datum.rank

    @functools.lru_cache(maxsize=None)
    def pair(w1, w2):
        if not w1:
            return int(not w2)
        i, total = w1[0], 0
        c = lam[i]  # <weight of w2[p + 1:], alpha_i^vee>, scanned from the right
        for p in range(len(w2) - 1, -1, -1):
            if w2[p] == i and c:
                total += c * pair(w1[1:], w2[:p] + w2[p + 1 :])
            c -= simple[w2[p]][i]
        return total

    def weight(word):
        return tuple(x - sum(simple[i][k] for i in word) for k, x in enumerate(lam))

    levels, coords = [[()]], {}
    while levels[-1]:
        candidates, new_level = {}, []
        for w in levels[-1]:
            for i in range(rank):
                candidates.setdefault(weight((i,) + w), []).append((i,) + w)
        for wt in sorted(candidates):
            chosen, inv = [], []
            for cand in candidates[wt]:
                b = [pair(x, cand) for x in chosen]
                u = [sum(g * y for g, y in zip(row, b)) for row in inv]
                schur = pair(cand, cand) - sum(x * y for x, y in zip(b, u))
                if schur:
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
    return [w for level in levels for w in sorted(level)], coords


MODULE_DIGESTS = {
    ("B2", (2, 3)): "608b101afe67d17e1dc68aeba11431e5c5595981333ed64d869043c771cd08a4",
    ("G2", (1, 1)): "22bad18b697101f160d09a801f4ab903a43aa156960ee5e38bc3cc89eead007a",
    ("C3", (1, 1, 0)): "c0d820416f96fd04ac8ad94f6748c8203c072800aeecdaf819a630ad0fd07b1f",
    ("A3", (1, 1, 1)): "f61297b31492462ecef8e37ef6ce651cd7fbf708d7a0706d1778978720afc719",
    ("A2", (2, 4)): "016d408d6390d1e4db7feb731d1dd644a88b2a5c5601ce888d357c446adcb3d5",
    ("G2", (2, 1)): "5067759a5c487695b7223220efca4808ddda4c9f857fa913579c27dc950bc4e4",
    ("B3", (1, 1, 1)): "4153fdfce2736280e38ea30b832d55a784f5eded991e574a2a79ce5aa2851590",
}


CASIMIR_DIGESTS = {
    ("B2", (2, 3)): "875024dfb243e9b269d1cadfe3efe2295fd75023c27f22ef77b81e89ed8a46b8",
    ("G2", (1, 1)): "a89ba6480ea892c28922f68926a663d7cc4a4a9537d7c3c37b3ddd440770c720",
    ("C3", (1, 1, 0)): "351d7e0707be5a8e3fac14890d43d4a194a449b92ea86e313b179ecbec34dc91",
    ("A3", (1, 1, 1)): "bfc5d4e3c4e8e4c0490d6a01855564911c673916caf60b0c6d24331e9f8ab0b4",
    ("A2", (2, 4)): "4193a9d067a1c7634c01f7514adf366ac8c89beee60b37a6ab156bc8512885c6",
    ("G2", (2, 1)): "2b44bdb1c0e3e48630fad17a9e1374a4b5e7e67a5ba534310b65702b10ba17e8",
}


class TestIntegerModules:
    @pytest.mark.parametrize("label, lam", list(CASIMIR_DIGESTS))
    def test_casimir_is_pinned(self, label, lam):
        """The Casimir matrix (den, columns) under both forms, as it was summed
        over the blocks of a g x g Fraction form: the benchmark's module pool
        and G2 (2,1)."""
        alg = algebra(label)
        mod = highest_weight_module(alg, lam)
        digest = hashlib.sha256()
        for form in ("killing", "short-root-2"):
            c = casimir_matrix(alg, mod, form)
            digest.update(repr((form, c.den, flat_columns(c))).encode())
        assert digest.hexdigest() == CASIMIR_DIGESTS[label, lam]

    @pytest.mark.parametrize("label, lam", list(MODULE_DIGESTS))
    def test_operators_are_pinned(self, label, lam):
        """Every operator (label, den, columns) and the basis weights, as the
        builder gave them when it paired Verma words: the benchmark's module
        pool, G2 (2,1) and B3 (1,1,1)."""
        mod = highest_weight_module(algebra(label), lam)
        digest = hashlib.sha256(repr(mod.basis_weights).encode())
        for lab in sorted(mod.action):
            op = mod.action[lab]
            digest.update(repr((lab, op.den, flat_columns(op))).encode())
        assert digest.hexdigest() == MODULE_DIGESTS[label, lam]

    def test_inexact_pairing_division_raises(self):
        """<x, f_i w> = (e_i x) . (Gram row of w) / den is an integer; a
        remainder raises, under python -O too."""
        assert _pairing({0: 3, 2: -1}, 2, {0: 2, 2: 4}) == 1
        with pytest.raises(InvariantError, match="inexact Shapovalov pairing"):
            _pairing({0: 3, 2: -1}, 2, {0: 1, 2: 4})
        script = textwrap.dedent(
            """
            import sys
            from lefschetz.algebra import _pairing

            if not sys.flags.optimize:
                sys.exit("not running under -O")
            try:
                _pairing({0: 3}, 2, {0: 1})
            except AssertionError as e:
                print("raised:", e)
                sys.exit(0)
            sys.exit(1)
            """
        )
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "raised: inexact Shapovalov pairing division by 2" in proc.stdout

    def test_inexact_sylvester_division_raises(self):
        """The bordering's divisions are exact by Sylvester's identity; one
        that is not raises, under python -O too."""
        assert _sylvester(-12, 4) == -3
        with pytest.raises(InvariantError, match="inexact Sylvester division"):
            _sylvester(7, 2)

    @pytest.mark.parametrize(
        "label, lam",
        [("B2", (2, 3)), ("G2", (1, 1)), ("C3", (1, 1, 0)), ("A3", (1, 1, 1)), ("A2", (2, 4))],
    )
    def test_operators_and_casimir_hold_ints(self, label, lam):
        """The benchmark's module pool: every operator, and the Casimir
        matrix, is integer columns over one reduced denominator."""
        alg = algebra(label)
        mod = highest_weight_module(alg, lam)
        ops = [*mod.action.values(), casimir_matrix(alg, mod, "short-root-2")]
        for op in ops:
            entries = [v for col in op.columns for v in col.values()]
            assert all(type(v) is int for v in entries)
            assert type(op.den) is int and op.den >= 1 and gcd(op.den, *entries) == 1

    @pytest.mark.parametrize(
        "label, lam",
        [
            (label, lam)
            for label, top in (("A2", 2), ("B2", 2), ("G2", 2), ("A3", 1), ("B3", 1), ("C3", 1))
            for lam in itertools.product(range(top + 1), repeat=build_root_system(label).rank)
            if build_root_system(label).weyl_dimension(lam) <= 200
        ],
    )
    def test_bordering_matches_the_fraction_reference(self, label, lam):
        """The builder takes the same words as the Fraction bordering on the
        Verma word pairing, and gives every f_i w the same coordinates; a
        taken word f_i w has the unit coordinate at its own place in the
        basis.  (G2 at (2,1) and (2,2), dimensions 286 and 729, and B3 and C3
        at (1,1,1), dimension 512, are left out for time.)"""
        alg = algebra(label)
        mod = highest_weight_module(alg, lam)
        basis, coords = fraction_bordering_reference(alg.datum, lam)
        index = {w: n for n, w in enumerate(basis)}
        assert len(basis) == mod.dimension
        for i, alpha in enumerate(alg.datum.simple_roots):
            f = mod.action[("f", alpha)]
            for j, w in enumerate(basis):
                got = {r: Fraction(c, f.den) for r, c in f.columns[j].items()}
                assert got == {index[x]: c for x, c in coords[(i,) + w].items()}, (i, w)


class TestCasimir:
    def test_trivial_module(self):
        alg = algebra("A1")
        assert casimir_eigenvalue(alg, highest_weight_module(alg, (0,)), "killing") == 0

    def test_a1_adjoint_killing(self):
        alg = algebra("A1")
        assert casimir_eigenvalue(alg, highest_weight_module(alg, (2,)), "killing") == 1

    def test_a1_defining_killing(self):
        alg = algebra("A1")
        val = casimir_eigenvalue(alg, highest_weight_module(alg, (1,)), "killing")
        assert val == Fraction(3, 8)

    def test_sweep_matches_formula(self):
        # casimir_eigenvalue raises internally unless the matrix is an exact
        # scalar matching (lam+rho, lam+rho) - (rho, rho)
        for label in ("A1", "A2", "B2"):
            alg = algebra(label)
            for lam in itertools.product(range(3), repeat=alg.datum.rank):
                mod = highest_weight_module(alg, lam)
                for form in ("killing", "short-root-2"):
                    casimir_eigenvalue(alg, mod, form)

    @pytest.mark.parametrize("label, lam", [("A2", (1, 1)), ("B2", (1, 0))])
    def test_any_corrupted_entry_is_not_scalar(self, label, lam):
        """Adding 1 to any one nonzero entry of any one operator makes the
        Casimir matrix non-scalar, and the check, which reads every entry,
        says so."""
        alg = algebra(label)
        mod = highest_weight_module(alg, lam)
        for lab, op in list(mod.action.items()):
            for j, col in enumerate(op.columns):
                for r, v in col.items():
                    cols = list(op.columns)
                    cols[j] = {**col, r: v + op.den}
                    mod.action[lab] = SparseMatrix(op.rows, cols, op.den)
                    with pytest.raises(InvariantError, match="Casimir matrix is not scalar"):
                        casimir_eigenvalue(alg, mod, "killing")
            mod.action[lab] = op

    def test_formula_check_survives_optimize_flag(self):
        """Under python -O a Casimir scalar that disagrees with
        (lam+rho, lam+rho) - (rho, rho) still raises AssertionError."""
        script = textwrap.dedent(
            """
            import sys
            from lefschetz import algebra
            from lefschetz.exact import ExactMatrix
            from lefschetz.roots import build_root_system

            if not sys.flags.optimize:
                sys.exit("not running under -O")
            alg = algebra.build_chevalley_algebra(build_root_system("A1"))
            mod = algebra.highest_weight_module(alg, (2,))
            G = alg.datum.form
            doubled = ExactMatrix(G.rows, G.cols, [2 * x for x in G.entries])
            algebra.ChevalleyAlgebra.weight_form_gram = lambda self, choice: doubled
            try:
                algebra.casimir_eigenvalue(alg, mod, "short-root-2")
            except AssertionError as e:
                print("raised:", e)
                sys.exit(0)
            sys.exit(1)
            """
        )
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert "raised: Casimir scalar" in proc.stdout


SMALL_MODULES = [
    (label, lam)
    for label in ("A1", "A2", "B2")
    for lam in itertools.product(range(3), repeat=build_root_system(label).rank)
] + [("G2", (1, 0)), ("G2", (0, 1)), ("G2", (1, 1))]


def outside_blocks(alg):
    """The (i, j) positions of the invariant form off its blocks: h with h,
    and e_alpha with f_alpha."""
    index, r = alg._index, alg.datum.rank
    partner = {("e", a): index["f", a] for a in alg.datum.positive_roots}
    partner.update({("f", a): index["e", a] for a in alg.datum.positive_roots})
    return [
        (i, j)
        for i, x in enumerate(alg.basis)
        for j in range(alg.dimension)
        if not (i < r and j < r or partner.get(x) == j)
    ]


class TestRootVectorsAndCasimirBlocks:
    """The commutator root vectors and the block-inverted Casimir against
    test-local references built from sparse products and the full inverse of
    the invariant form."""

    @pytest.mark.parametrize("label, lam", SMALL_MODULES)
    def test_root_vectors_are_commutators(self, label, lam):
        """Every non-simple e_gamma and f_gamma is (x y - y x) / N for every
        split gamma = a + b into positive roots, with [x, y] = N z read off
        the algebra's bracket."""
        alg = algebra(label)
        mod = highest_weight_module(alg, lam)
        act, roots = mod.action, alg.datum.positive_roots
        for gamma, a, b in itertools.product(roots, repeat=3):
            if tuple(x + y for x, y in zip(a, b)) != gamma:
                continue
            for kind in ("e", "f"):
                x, y = act[kind, a], act[kind, b]
                [(z, n)] = alg.bracket((kind, a), (kind, b)).items()
                assert z == (kind, gamma)
                xy, yx = sparse_product(x, y), sparse_product(y, x)
                expected = sparse_combination(
                    mod.dimension, [(Fraction(1, n), xy), (Fraction(-1, n), yx)]
                )
                assert act[z] == expected, (label, lam, z, a, b)

    @pytest.mark.parametrize("label, lam", SMALL_MODULES)
    def test_casimir_matches_the_full_inverse(self, label, lam):
        """casimir_matrix equals sum_{i,k} F^-1[k, i] rho(x_i) rho(x_k) with
        F^-1 the g x g inverse of the chosen invariant form F = c K."""
        alg = algebra(label)
        mod = highest_weight_module(alg, lam)
        act, basis = mod.action, alg.basis
        for form in ("killing", "short-root-2"):
            Finv = form_matrix(alg, form).inverse()
            terms = [
                (Finv[k, i], sparse_product(act[x], act[y]))
                for i, x in enumerate(basis)
                for k, y in enumerate(basis)
                if Finv[k, i]
            ]
            assert casimir_matrix(alg, mod, form) == sparse_combination(mod.dimension, terms)

    @pytest.mark.parametrize("label, lam", SMALL_MODULES)
    def test_form_entry_outside_the_blocks_raises(self, label, lam, monkeypatch):
        """One nonzero entry of the invariant form off its blocks, at any
        position, raises InvariantError before the Casimir is summed."""
        alg = algebra(label)
        mod = highest_weight_module(alg, lam)
        form = alg.killing_form()
        for i, j in outside_blocks(alg):
            corrupt = {**form, (i, j): 1}
            monkeypatch.setattr(ChevalleyAlgebra, "killing_form", lambda self: corrupt)
            with pytest.raises(InvariantError, match="outside its blocks"):
                casimir_matrix(alg, mod)

    def test_form_entry_outside_the_blocks_raises_under_optimize_flag(self):
        """The same refusal under python -O, on the first and the last
        position off the blocks of every module above."""
        script = textwrap.dedent(
            """
            import sys
            from lefschetz import algebra
            from lefschetz.roots import build_root_system
            from test_algebra import SMALL_MODULES, outside_blocks

            if not sys.flags.optimize:
                sys.exit("not running under -O")
            refused, killing_form = 0, algebra.ChevalleyAlgebra.killing_form
            for label, lam in SMALL_MODULES:
                alg = algebra.build_chevalley_algebra(build_root_system(label))
                mod = algebra.highest_weight_module(alg, lam)
                form = killing_form(alg)
                for i, j in [outside_blocks(alg)[0], outside_blocks(alg)[-1]]:
                    corrupt = {**form, (i, j): 1}
                    algebra.ChevalleyAlgebra.killing_form = lambda self: corrupt
                    try:
                        algebra.casimir_matrix(alg, mod)
                    except AssertionError as e:
                        refused += "outside its blocks" in str(e)
            print("refused:", refused)
            """
        )
        path = [str(SRC), str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert f"refused: {2 * len(SMALL_MODULES)}" in proc.stdout

    def test_degenerate_root_block_is_refused(self, monkeypatch):
        """B(e_alpha, f_alpha) = 0 leaves the form degenerate."""
        alg = algebra("A2")
        mod = highest_weight_module(alg, (1, 0))
        form, top = alg.killing_form(), alg.datum.positive_roots[-1]
        corrupt = dict(form)
        del corrupt[alg._index["e", top], alg._index["f", top]]
        monkeypatch.setattr(ChevalleyAlgebra, "killing_form", lambda self: corrupt)
        with pytest.raises(ValueError, match="degenerate"):
            casimir_matrix(alg, mod)
