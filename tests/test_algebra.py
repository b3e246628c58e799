"""Chevalley algebras, parabolic splits, modules, Killing form and Casimir."""

import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from lefschetz.algebra import (
    build_chevalley_algebra,
    casimir_eigenvalue,
    highest_weight_module,
    parabolic_split,
)
from lefschetz.exact import ExactMatrix
from lefschetz.roots import build_root_system
from lefschetz.verify import CHECKS, Sweep

SRC = Path(__file__).resolve().parent.parent / "src"


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
        assert all(m.is_zero() for lab, m in mod.action.items() if lab[0] != "h")

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

    def test_bracket_relations(self):
        for label, lam in (("A1", (2,)), ("A2", (1, 1)), ("B2", (1, 1))):
            alg = algebra(label)
            mod = highest_weight_module(alg, lam)
            for x in alg.basis:
                for y in alg.basis:
                    commutator = mod.action[x] @ mod.action[y] - mod.action[y] @ mod.action[x]
                    expected = ExactMatrix(mod.dimension, mod.dimension)
                    for z, c in alg.bracket(x, y).items():
                        for i, v in enumerate(mod.action[z].entries):
                            expected.entries[i] += c * v
                    assert commutator == expected, (label, lam, x, y)

    def test_character_weyl_invariant(self):
        alg = algebra("B2")
        mod = highest_weight_module(alg, (1, 1))
        ch = mod.character()
        d = alg.datum
        for i in range(d.rank):
            reflected = {d.reflect(w, i): m for w, m in ch.terms.items()}
            assert reflected == dict(ch.terms)


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
