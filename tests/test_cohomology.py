"""Nilradical cohomology: the complex, the prediction oracle, homology."""

import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from lefschetz.algebra import build_chevalley_algebra, highest_weight_module, parabolic_split
from lefschetz.cohomology import (
    ChainComplex,
    build_ce_complex,
    cohomology_table,
    euler_character_check,
    homology_table,
    irreducible_character,
    kostant_prediction,
    weight_multiplicities,
)
from lefschetz.exact import ExactMatrix, InvariantError, pairs, rank_and_kernel
from lefschetz.roots import RootDatum, build_root_system

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(label, levi, lam):
    datum = build_root_system(label)
    alg = build_chevalley_algebra(datum)
    split = parabolic_split(alg, levi)
    mod = highest_weight_module(alg, lam)
    return datum, split, mod


class TestWeightMultiplicities:
    def test_a1_string(self):
        d = build_root_system("A1")
        assert weight_multiplicities(d, (3,)) == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}

    def test_a2_adjoint(self):
        d = build_root_system("A2")
        mult = weight_multiplicities(d, (1, 1))
        assert mult[(0, 0)] == 2
        assert sum(mult.values()) == 8

    def test_agrees_with_constructed_module(self):
        for label in ("A2", "B2"):
            datum = build_root_system(label)
            alg = build_chevalley_algebra(datum)
            for lam in itertools.product(range(3), repeat=2):
                mod = highest_weight_module(alg, lam)
                assert weight_multiplicities(datum, lam) == mod.weight_multiplicities()

    def test_empty_levi(self):
        d = build_root_system("A2")
        assert weight_multiplicities(d, (2, -1), levi=[]) == {(2, -1): 1}

    def test_sub_system(self):
        d = build_root_system("A2")
        mult = weight_multiplicities(d, (2, -1), levi=[0])
        # an A1-string of length 3 through the alpha_1 direction
        assert len(mult) == 3 and all(m == 1 for m in mult.values())

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            weight_multiplicities(build_root_system("A1"), (-2,))

    def test_character_dimension(self):
        d = build_root_system("B2")
        assert irreducible_character(d, (1, 1)).dimension() == d.weyl_dimension((1, 1))


def fraction_freudenthal(datum, lam, levi):
    """Freudenthal's recursion over Fractions with the datum's own form: the
    norms |mu + rho_L|^2 and pairings (nu, alpha) from `datum.inner`."""
    levi = sorted(levi)
    lam = tuple(lam)
    if not levi:
        return {lam: 1}
    pos = [
        r for r in datum.positive_roots
        if all(c == 0 for i, c in enumerate(datum.root_coordinates(r)) if i not in levi)
    ]
    rho_l = [sum(Fraction(r[j], 2) for r in pos) for j in range(datum.rank)]

    def shifted_norm(mu):
        v = [a + b for a, b in zip(mu, rho_l)]
        return datum.inner(v, v)

    mult, level = {lam: 1}, [lam]
    while level:
        candidates = {
            tuple(a - b for a, b in zip(mu, datum.simple_roots[i])) for mu in level for i in levi
        }
        level = []
        for mu in sorted(candidates):
            rhs = Fraction(0)
            for alpha in pos:
                k = 1
                while (nu := tuple(a + k * b for a, b in zip(mu, alpha))) in mult:
                    rhs += 2 * mult[nu] * datum.inner(nu, alpha)
                    k += 1
            if rhs:
                val = rhs / (shifted_norm(lam) - shifted_norm(mu))
                assert val.denominator == 1 and val > 0
                mult[mu] = int(val)
                level.append(mu)
    return mult


def test_integer_freudenthal_matches_fraction_recursion():
    """Every type of rank <= 4, every Levi subset, several weights: the
    integer recursion equals the Fraction one, entry and order alike."""
    labels = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2")
    for label in labels:
        d = build_root_system(label)
        r = d.rank
        weights = {(0,) * r, d.fundamental_weights[0], d.fundamental_weights[-1]}
        if r <= 3:
            weights |= {d.rho, tuple(range(r))}
        for lam in sorted(weights):
            for k in range(r + 1):
                for levi in itertools.combinations(range(r), k):
                    got = weight_multiplicities(d, lam, levi)
                    expected = fraction_freudenthal(d, lam, levi)
                    assert list(got.items()) == list(expected.items()), (label, lam, levi)


def test_integer_freudenthal_ignores_the_form_scale():
    """The Killing-form datum gives the multiplicities of the Fraction
    recursion under the Killing form itself."""
    d = build_root_system("B2").with_killing_form()
    assert d.form_normalization == "killing"
    for lam in ((0, 0), (1, 0), (0, 1), (2, 1)):
        for levi in ((), (0,), (1,), (0, 1)):
            assert weight_multiplicities(d, lam, levi) == fraction_freudenthal(d, lam, levi)


def test_freudenthal_invariant_survives_optimize_flag():
    """Under python -O a corrupted symmetrizer (B2 with d swapped) still
    makes Freudenthal's recursion raise InvariantError."""
    script = textwrap.dedent(
        """
        import sys
        from fractions import Fraction
        from lefschetz.cohomology import weight_multiplicities
        from lefschetz.exact import InvariantError
        from lefschetz.roots import build_root_system

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        datum = build_root_system("B2")
        datum._d = [Fraction(1), Fraction(2)]
        try:
            weight_multiplicities(datum, (1, 1))
        except InvariantError as e:
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
    assert "raised: Freudenthal multiplicity 11/4 of (0, 1)" in proc.stdout


class TestComplex:
    def test_a1_borel_trivial_dims(self):
        _, split, mod = setup("A1", set(), (0,))
        cx = build_ce_complex(split, mod)
        assert [cx.cochain_dimension(q) for q in (0, 1)] == [1, 1]
        assert cx.verify_complex()

    def test_a2_borel_binomial_dims(self):
        _, split, mod = setup("A2", set(), (0, 0))
        cx = build_ce_complex(split, mod)
        assert [cx.cochain_dimension(q) for q in range(4)] == [1, 3, 3, 1]

    def test_d_squared_zero(self):
        for label in ("A2", "B2"):
            for levi in (set(), {0}, {1}):
                _, split, mod = setup(label, levi, (1, 1))
                assert build_ce_complex(split, mod).verify_complex()

    def test_differential_preserves_weight(self):
        _, split, mod = setup("A2", set(), (1, 0))
        cx = build_ce_complex(split, mod)
        for q in range(cx.top):
            for wt, mat in cx.differentials[q].items():
                assert mat.cols == len(cx.bases[q][wt])
                assert mat.rows == len(cx.bases[q + 1].get(wt, []))


class TestCohomology:
    def test_a1_borel_trivial(self):
        _, split, mod = setup("A1", set(), (0,))
        table = cohomology_table(build_ce_complex(split, mod))
        assert table.degrees == [{(0,): 1}, {(-2,): 1}]

    def test_a1_borel_adjoint(self):
        _, split, mod = setup("A1", set(), (2,))
        table = cohomology_table(build_ce_complex(split, mod))
        assert table.degrees == [{(2,): 1}, {(-4,): 1}]

    def test_a2_borel_trivial_dims(self):
        _, split, mod = setup("A2", set(), (0, 0))
        table = cohomology_table(build_ce_complex(split, mod))
        assert [table.dimension(q) for q in range(4)] == [1, 2, 2, 1]

    def test_a_weight_pushforward(self):
        _, split, mod = setup("A2", {0}, (1, 1))
        table = cohomology_table(build_ce_complex(split, mod))
        for q, block in enumerate(table.a_degrees()):
            assert sum(block.values()) == table.dimension(q)

    def test_full_levi_gives_module_back(self):
        _, split, mod = setup("A2", {0, 1}, (1, 1))
        table = cohomology_table(build_ce_complex(split, mod))
        assert table.degrees == [mod.weight_multiplicities()]


class TestPredictionOracle:
    def test_a1_borel_trivial(self):
        datum, split, _ = setup("A1", set(), (0,))
        table = kostant_prediction(datum, split, (0,))
        assert table.degrees == [{(0,): 1}, {(-2,): 1}]

    def test_a2_borel_length_counts(self):
        datum, split, _ = setup("A2", set(), (0, 0))
        table = kostant_prediction(datum, split, (0, 0))
        assert [table.dimension(q) for q in range(4)] == [1, 2, 2, 1]

    def test_a2_one_module_per_degree(self):
        datum, split, _ = setup("A2", {0}, (1, 1))
        table = kostant_prediction(datum, split, (1, 1))
        assert len(table.degrees) == 3
        assert all(table.dimension(q) > 0 for q in range(3))

    def test_rejects_non_dominant(self):
        datum, split, _ = setup("A1", set(), (0,))
        with pytest.raises(ValueError):
            kostant_prediction(datum, split, (-1,))

    def test_a2_levi_0_trivial(self):
        """w = e, s_1, s_1 s_0 give the Levi modules of highest weight (0, 0),
        (1, -2) (weights (1, -2), (-1, -1)) and (0, -3)."""
        datum, split, _ = setup("A2", {0}, (0, 0))
        table = kostant_prediction(datum, split, (0, 0))
        assert table.degrees == [{(0, 0): 1}, {(1, -2): 1, (-1, -1): 1}, {(0, -3): 1}]

    def test_e7_e8_borels_refused_before_walking(self, monkeypatch):
        """|W| of E7 and E8 exceeds WEYL_ORDER_BOUND: refused from the closed
        form, before a single reflection of the walk."""
        cases = []
        for label in ("E7", "E8"):
            datum = build_root_system(label)
            cases.append((datum, parabolic_split(build_chevalley_algebra(datum), ())))

        def no_step(self, lam, i):
            raise AssertionError("the walk started")

        monkeypatch.setattr(RootDatum, "reflect", no_step)
        for datum, split in cases:
            for refused in (datum.weyl_group, lambda: kostant_prediction(datum, split, datum.rho)):
                with pytest.raises(ValueError, match="WEYL_ORDER_BOUND = 1000000"):
                    refused()

    def test_matches_complex_on_spot_checks(self):
        for label, levi, lam in (
            ("A2", {1}, (2, 1)),
            ("B2", {0}, (1, 2)),
            ("B2", set(), (1, 1)),
        ):
            datum, split, mod = setup(label, levi, lam)
            table = cohomology_table(build_ce_complex(split, mod))
            assert table == kostant_prediction(datum, split, lam)


class TestHomologyAndEuler:
    def test_boundary_squares_to_zero(self):
        _, split, mod = setup("A2", set(), (1, 1))
        assert ChainComplex(split, mod).verify_complex()

    def test_a1_borel_trivial_homology(self):
        _, split, mod = setup("A1", set(), (0,))
        table, holds = homology_table(split, mod)
        assert table.degrees == [{(0,): 1}, {(2,): 1}]
        assert holds

    def test_total_dimensions_match(self):
        _, split, mod = setup("A2", set(), (0, 0))
        hom, _ = homology_table(split, mod)
        coh = cohomology_table(build_ce_complex(split, mod))
        assert sum(hom.dimension(q) for q in range(4)) == sum(
            coh.dimension(q) for q in range(4)
        )

    def test_degenerate_empty_n(self):
        _, split, mod = setup("A1", {0}, (2,))
        table, holds = homology_table(split, mod)
        assert holds and table.degrees == [mod.weight_multiplicities()]

    def test_euler_character_examples(self):
        for lam in ((0,), (2,)):
            _, split, mod = setup("A1", set(), lam)
            assert euler_character_check(split, mod)

    def test_euler_character_b2(self):
        _, split, mod = setup("B2", {1}, (1, 1))
        assert euler_character_check(split, mod)


def dense(block):
    mat = ExactMatrix(block.rows, block.cols)
    for j, col in enumerate(block.columns):
        for i, v in pairs(col):
            mat[i, j] = v
    return mat


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_sparse_rank_matches_dense_elimination(label):
    """Each block's sparse rank (its columns eliminated) equals the dense row
    elimination of rank_and_kernel, in the natural and the reversed column
    order, for every Levi subset and every weight with coordinates <= 1."""
    datum = build_root_system(label)
    alg = build_chevalley_algebra(datum)
    for lam in itertools.product(range(2), repeat=2):
        mod = highest_weight_module(alg, lam)
        for levi in ((), (0,), (1,), (0, 1)):
            split = parabolic_split(alg, levi)
            for cx in (build_ce_complex(split, mod), ChainComplex(split, mod)):
                for blocks in cx.differentials:
                    for block in blocks.values():
                        mat, rank = dense(block), block.rank()
                        reverse = list(range(mat.cols))[::-1]
                        assert rank == rank_and_kernel(mat)[0]
                        assert rank == rank_and_kernel(mat, col_order=reverse)[0]


def test_homology_invariant_survives_optimize_flag():
    """Under python -O a complex whose d^2 check fails still stops
    homology_table, with the same exception type."""
    script = textwrap.dedent(
        """
        import sys
        from lefschetz import cohomology
        from lefschetz.algebra import (
            build_chevalley_algebra, highest_weight_module, parabolic_split,
        )
        from lefschetz.roots import build_root_system

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        alg = build_chevalley_algebra(build_root_system("A2"))
        split, mod = parabolic_split(alg, ()), highest_weight_module(alg, (1, 0))
        cohomology.ChainComplex.verify_complex = lambda self: False
        try:
            cohomology.homology_table(split, mod)
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
    assert "raised: boundary does not square to zero" in proc.stdout
