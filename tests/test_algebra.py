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
    _pairing,
    _sylvester,
    build_chevalley_algebra,
    casimir_eigenvalue,
    casimir_matrix,
    highest_weight_module,
    parabolic_split,
)
from lefschetz.exact import InvariantError, SparseMatrix, pairs
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
            simple = [d.weight_norm(a) for a in d.simple_roots]
            for r in d.positive_roots:
                norm = d.weight_norm(r)
                assert alg.constants.norm[r] == norm, (label, r)
                coords = d.root_coordinates(r)
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


class TestKillingForm:
    def test_a1_values(self):
        alg = algebra("A1")
        K = alg.killing_form()
        # basis order: h, e, f
        assert K[0, 0] == 8
        assert K[1, 2] == 4
        assert K[1, 1] == 0

    def test_invariance(self):
        alg = algebra("A2")
        K = alg.killing_form()
        idx = alg._index
        for x in alg.basis:
            for y in alg.basis:
                for z in alg.basis:
                    lhs = sum(
                        (c * K[idx[w], idx[z]] for w, c in alg.bracket(x, y).items()),
                        Fraction(0),
                    )
                    rhs = sum(
                        (c * K[idx[y], idx[w]] for w, c in alg.bracket(x, z).items()),
                        Fraction(0),
                    )
                    assert lhs + rhs == 0

    def test_nondegenerate(self):
        for label in ("A1", "B2"):
            alg = algebra(label)
            assert alg.killing_form().rank() == alg.dimension


class TestParabolicSplit:
    def test_a2_borel(self):
        alg = algebra("A2")
        split = parabolic_split(alg, set())
        assert len(split.n_roots) == 3 and split.a_dim() == 2
        assert split.levi_roots == ()

    def test_a2_one_simple(self):
        alg = algebra("A2")
        split = parabolic_split(alg, {0})
        assert len(split.n_roots) == 2 and split.a_dim() == 1
        assert len(split.levi_roots) == 1

    def test_full_levi_degenerate(self):
        alg = algebra("A2")
        split = parabolic_split(alg, {0, 1})
        assert split.n_roots == () and split.a_dim() == 0

    def test_dimension_bookkeeping(self):
        alg = algebra("B2")
        for levi in (set(), {0}, {1}, {0, 1}):
            split = parabolic_split(alg, levi)
            assert split.a_dim() + split.m_dim() + 2 * len(split.n_roots) == alg.dimension

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
        alg = algebra("A2")
        split = parabolic_split(alg, {0})
        total = (0,) * 2
        for r in split.n_roots:
            total = tuple(x + y for x, y in zip(total, r))
        assert split.two_rho_P == split.restrict_to_a(total)

    def test_bad_levi_rejected(self):
        with pytest.raises(ValueError):
            parabolic_split(algebra("A2"), {5})


class TestModules:
    def test_trivial(self):
        alg = algebra("A2")
        mod = highest_weight_module(alg, (0, 0))
        assert mod.dimension == 1
        zero = SparseMatrix(1, [()])
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

    def test_dimension_bound(self):
        with pytest.raises(ValueError):
            highest_weight_module(algebra("A2"), (9, 9), dim_bound=100)

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
                    commutator = mod.action[x] @ mod.action[y] - mod.action[y] @ mod.action[x]
                    expected = SparseMatrix(mod.dimension, [()] * mod.dimension)
                    for z, c in alg.bracket(x, y).items():
                        expected = expected - mod.action[z].scale_by(-c)
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


class TestIntegerModules:
    @pytest.mark.parametrize("label, lam", list(MODULE_DIGESTS))
    def test_operators_are_pinned(self, label, lam):
        """Every operator (label, den, columns) and the basis weights, as the
        builder gave them when it paired Verma words: the benchmark's module
        pool, G2 (2,1) and B3 (1,1,1)."""
        mod = highest_weight_module(algebra(label), lam)
        digest = hashlib.sha256(repr(mod.basis_weights).encode())
        for lab in sorted(mod.action):
            op = mod.action[lab]
            digest.update(repr((lab, op.den, op.columns)).encode())
        assert digest.hexdigest() == MODULE_DIGESTS[label, lam]

    def test_inexact_pairing_division_raises(self):
        """<x, f_i w> = (e_i x) . (Gram row of w) / den is an integer; a
        remainder raises, under python -O too."""
        assert _pairing((0, 3, 2, -1), 2, {0: 2, 2: 4}) == 1
        with pytest.raises(InvariantError, match="inexact Shapovalov pairing"):
            _pairing((0, 3, 2, -1), 2, {0: 1, 2: 4})
        script = textwrap.dedent(
            """
            import sys
            from lefschetz.algebra import _pairing

            if not sys.flags.optimize:
                sys.exit("not running under -O")
            try:
                _pairing((0, 3), 2, {0: 1})
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
            entries = [v for col in op.columns for _, v in pairs(col)]
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
            f = mod.action[("f", alpha)].dense()
            for j, w in enumerate(basis):
                got = {r: f[r, j] for r in range(f.rows) if f[r, j]}
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
                for p in range(1, len(col), 2):
                    cols = list(op.columns)
                    cols[j] = col[:p] + (col[p] + op.den,) + col[p + 1 :]
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
            from lefschetz.roots import build_root_system

            if not sys.flags.optimize:
                sys.exit("not running under -O")
            alg = algebra.build_chevalley_algebra(build_root_system("A1"))
            mod = algebra.highest_weight_module(alg, (2,))
            algebra.ChevalleyAlgebra.weight_form_gram = (
                lambda self, choice: self.datum.form.scale_by(2)
            )
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
