"""Nilradical cohomology: the complex, the prediction oracle, homology."""

import dataclasses
import functools
import hashlib
import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lefschetz import cohomology
from lefschetz.algebra import build_chevalley_algebra, highest_weight_module, parabolic_split
from lefschetz.cohomology import (
    ChainComplex,
    CohomologyTable,
    build_ce_complex,
    cohomology_table,
    euler_character_check,
    homology_table,
    irreducible_character,
    kostant_prediction,
    kostant_weights,
    weight_multiplicities,
)
from lefschetz.exact import (
    ExactMatrix,
    InvariantError,
    LaurentCharacter,
    SparseMatrix,
    alternating_exterior_sum,
    echelon,
    rank_and_kernel,
)
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

    @pytest.mark.parametrize("lam", [(1,), (1, 0, 5)])
    @pytest.mark.parametrize("levi", [None, (0,), ()])
    def test_rejects_weight_of_wrong_length(self, lam, levi):
        with pytest.raises(ValueError, match="rank-2"):
            weight_multiplicities(build_root_system("A2"), lam, levi)

    @pytest.mark.parametrize("lam", [(1.5,), (Fraction(5, 2),), (2.7,)])
    def test_rejects_non_integral_weight(self, lam):
        with pytest.raises(ValueError, match="is not integral"):
            weight_multiplicities(build_root_system("A1"), lam)

    @pytest.mark.parametrize("lam", [(3.0,), (Fraction(6, 2),)])
    def test_accepts_integral_float_and_fraction(self, lam):
        d = build_root_system("A1")
        assert weight_multiplicities(d, lam) == weight_multiplicities(d, (3,))

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
    norms |mu + rho_L|^2 and pairings (nu, alpha) from the Gram matrix
    `datum.form` on fundamental coordinates."""
    levi = sorted(levi)
    lam = tuple(lam)
    if not levi:
        return {lam: 1}
    pos = [r for r, _ in datum.partition_roots(levi)[0]]
    rho_l = [sum(Fraction(r[j], 2) for r in pos) for j in range(datum.rank)]

    def inner(a, b):
        return sum(x * datum.form[i, j] * y for i, x in enumerate(a) for j, y in enumerate(b))

    def shifted_norm(mu):
        v = [a + b for a, b in zip(mu, rho_l)]
        return inner(v, v)

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
                    rhs += 2 * mult[nu] * inner(nu, alpha)
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
    d = build_root_system("B2")
    d.form = build_chevalley_algebra(d).killing_dual_form_on_weights()
    assert d.form != build_root_system("B2").form
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


def cochains(cx, q):
    """dim C^q, the labels of the weight blocks of degree q."""
    return sum(len(labels) for labels in cx.bases[q].values())


class TestComplex:
    def test_a1_borel_trivial_dims(self):
        _, split, mod = setup("A1", set(), (0,))
        cx = build_ce_complex(split, mod)
        assert [cochains(cx, q) for q in (0, 1)] == [1, 1]
        assert cx.verify_complex()

    def test_a2_borel_binomial_dims(self):
        _, split, mod = setup("A2", set(), (0, 0))
        cx = build_ce_complex(split, mod)
        assert [cochains(cx, q) for q in range(4)] == [1, 3, 3, 1]

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

    @pytest.mark.parametrize("lam", [(1,), (1, 0, 5)])
    def test_rejects_weight_of_wrong_length(self, lam):
        datum, split, _ = setup("A2", set(), (0, 0))
        with pytest.raises(ValueError, match="not a dominant weight of A2"):
            kostant_prediction(datum, split, lam)
        with pytest.raises(ValueError, match="not a dominant weight of A2"):
            next(kostant_weights(datum, split, lam))

    @pytest.mark.parametrize("lam", [(2.7,), (Fraction(5, 2),), (1.5,)])
    def test_rejects_non_integral_weight(self, lam):
        datum, split, _ = setup("A1", set(), (0,))
        with pytest.raises(ValueError, match="is not integral"):
            next(kostant_weights(datum, split, lam))
        with pytest.raises(ValueError, match="is not integral"):
            kostant_prediction(datum, split, lam)

    @pytest.mark.parametrize("lam", [(2.0,), (Fraction(4, 2),)])
    def test_accepts_integral_float_and_fraction(self, lam):
        datum, split, _ = setup("A1", set(), (0,))
        assert list(kostant_weights(datum, split, lam)) == [[(2,)], [(-4,)]]

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

    def test_levi_work_refused_before_freudenthal(self, monkeypatch):
        """Maximal parabolics whose Levi modules exceed LEVI_DIMENSION_BOUND
        in all (E6 without Bourbaki node 4: 2 289 792; E7 without node 7 and
        E8 without node 8: more than 1.3e8) are refused before any module."""
        cases = []
        for label, node in (("E6", 3), ("E7", 6), ("E8", 7)):
            datum = build_root_system(label)
            levi = set(range(datum.rank)) - {node}
            cases.append((datum, parabolic_split(build_chevalley_algebra(datum), levi)))

        def no_module(*args):
            raise AssertionError("Freudenthal started")

        monkeypatch.setattr(cohomology, "weight_multiplicities", no_module)
        for datum, split in cases:
            with pytest.raises(ValueError, match="LEVI_DIMENSION_BOUND = 1048576"):
                kostant_prediction(datum, split, (0,) * datum.rank)

    def test_levi_work_refused_during_the_walk(self, monkeypatch):
        """E8 without Bourbaki node 4 has 483 840 cosets, but its Levi
        dimensions pass LEVI_DIMENSION_BOUND within the first levels of the
        walk: the refusal computes fewer than 1 000 of them."""
        datum = build_root_system("E8")
        split = parabolic_split(build_chevalley_algebra(datum), set(range(8)) - {3})
        calls = []
        dimension = RootDatum.weyl_dimension

        def counted(self, *args):
            calls.append(args)
            return dimension(self, *args)

        monkeypatch.setattr(RootDatum, "weyl_dimension", counted)
        with pytest.raises(ValueError, match="LEVI_DIMENSION_BOUND = 1048576"):
            kostant_prediction(datum, split, (0,) * 8)
        assert 0 < len(calls) < 1000

    def test_matches_complex_on_spot_checks(self):
        for label, levi, lam in (
            ("A2", {1}, (2, 1)),
            ("B2", {0}, (1, 2)),
            ("B2", set(), (1, 1)),
        ):
            datum, split, mod = setup(label, levi, lam)
            table = cohomology_table(build_ce_complex(split, mod))
            assert table == kostant_prediction(datum, split, lam)


# (type, Levi, highest weight, cosets, distinct Levi parts of the highest weights)
LEVI_PART_CASES = (
    ("B3", (0,), (0, 0, 1), 24, 5),
    ("A3", (1,), (1, 0, 1), 12, 4),
    ("B4", (0,), (0, 0, 0, 0), 192, 6),
    ("B4", (2, 3), (0, 0, 0, 1), 48, 6),
    ("B3", (), (0, 0, 1), 48, 1),
)


@pytest.mark.parametrize("label, levi, lam, cosets, parts", LEVI_PART_CASES)
def test_prediction_runs_freudenthal_once_per_levi_part(
    monkeypatch, label, levi, lam, cosets, parts
):
    """The prediction equals the sum of each Kostant weight's own Levi module,
    with one Freudenthal run per distinct Levi part, fewer than the cosets."""
    datum = build_root_system(label)
    split = parabolic_split(build_chevalley_algebra(datum), levi)
    levels = list(kostant_weights(datum, split, lam))
    mus = [mu for level in levels for mu in level]
    degrees = [{} for _ in range(len(split.n_roots) + 1)]
    for table, level in zip(degrees, levels):
        for mu in level:
            for wt, m in weight_multiplicities(datum, mu, levi).items():
                table[wt] = table.get(wt, 0) + m
    assert len(mus) == cosets
    assert len({tuple(mu[i] for i in levi) for mu in mus}) == parts < cosets

    runs = []

    def counted(*args):
        runs.append(args)
        return weight_multiplicities(*args)

    monkeypatch.setattr(cohomology, "weight_multiplicities", counted)
    assert kostant_prediction(datum, split, lam).degrees == degrees
    assert len(runs) == parts


# The benchmark's oracle pool: (type, Levi, highest weight, sha256 of the
# sorted Kostant table and Euler-product character).
ORACLE_POOL_DIGESTS = (
    ("F4", (), (0, 0, 0, 1), "90332f005f2dbed91d78dc6eb138b39431cbeae780c8431baf437707a918cc52"),
    ("B4", (), (1, 0, 0, 0), "b4f6abc6a20feb97e11349d2dff37ae97ba35c59a1cd75e7c1b3f8e22c99ac47"),
    ("B4", (0,), (0, 0, 0, 0), "ab70cad9324e1412df939bbd85230c8d43cfb1018acd82a89fe1bd9dce88f8cd"),
    ("B4", (2, 3), (0, 0, 0, 1), "7f151d6f842dce26e8de313cbe7ed2a21ae44204f3d8104e47d93881a43d43a2"),
    ("D5", (), (0, 0, 0, 1, 0), "fe7ea0f7ab5858f1fe64b87e3fb4241aecaacda0c86ca6313a6e186562ffc897"),
)


@pytest.mark.parametrize("label, levi, lam, digest", ORACLE_POOL_DIGESTS)
def test_oracle_pool_outputs_are_pinned(label, levi, lam, digest):
    """Kostant's table and ch V · Π_{α in n} (1 - x^{-α}), by sorted items so
    that no dict order enters; the table's Euler character is that product."""
    datum = build_root_system(label)
    split = parabolic_split(build_chevalley_algebra(datum), levi)
    table = kostant_prediction(datum, split, lam)
    n_dual = LaurentCharacter.from_weights(
        datum.rank, (tuple(-c for c in r) for r in split.n_roots)
    )
    euler = irreducible_character(datum, lam) * alternating_exterior_sum(n_dual)
    assert table.euler_character() == euler
    outputs = [sorted(t.items()) for t in table.degrees], sorted(euler.terms.items())
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == digest


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


BORELS = {
    label: parabolic_split(build_chevalley_algebra(build_root_system(label)), ())
    for label in ("A1", "B2", "A3")
}


@st.composite
def cohomology_tables(draw):
    """Tables whose degrees draw their weights from one small pool, so that
    terms cancel across degrees, some completely."""
    split = BORELS[draw(st.sampled_from(sorted(BORELS)))]
    point = st.tuples(*[st.integers(-2, 2)] * split.datum.rank)
    pool = draw(st.lists(point, min_size=1, max_size=3, unique=True))
    table = st.dictionaries(st.sampled_from(pool), st.integers(1, 3), max_size=len(pool))
    return CohomologyTable(split, draw(st.lists(table, max_size=5)))


@settings(max_examples=150, deadline=None)
@given(cohomology_tables())
@example(CohomologyTable(BORELS["A1"], [{(0,): 1, (2,): 2}, {(0,): 1}, {(2,): 1}, {(2,): 3}]))
def test_euler_character_is_the_alternating_fold(table):
    rank = table.split.datum.rank
    fold = LaurentCharacter.zero(rank)
    for q, degree in enumerate(table.degrees):
        ch = LaurentCharacter(rank, degree)
        fold = fold + ch if q % 2 == 0 else fold - ch
    euler = table.euler_character()
    assert (euler.rank, euler.terms) == (fold.rank, fold.terms)


def dense(block):
    mat = ExactMatrix(block.rows, block.cols)
    for j, col in enumerate(block.columns):
        for i, v in col.items():
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


# ---------------------------------------------------------------------------
# The CE pipeline's invariants: blocks in normal form, d² checked once, ranks
# bounded by d² = 0, and the weight check on the e_k


def _ce_cases():
    for label in ("A2", "B2"):
        for levi in ((), (0,), (1,), (0, 1)):
            for lam in itertools.product(range(3), repeat=2):
                yield label, levi, lam
    for levi in ((), (0,), (1,), (0, 1)):
        yield "G2", levi, (1, 0)
    yield from (("A3", (), (1, 1, 1)), ("B3", (), (0, 0, 1)), ("D4", (), (0, 0, 0, 0)))


CE_CASES = list(_ce_cases())
KINDS = {"cochains": build_ce_complex, "chains": ChainComplex}


def _case_id(case):
    label, levi, lam = case
    return f"{label}-levi{''.join(map(str, levi))}-{''.join(map(str, lam))}"


@functools.lru_cache(maxsize=None)
def _split_and_module(label, levi, lam):
    return setup(label, levi, lam)[1:]


def unbounded_table(cx):
    """The table with every block ranked in full, first column first."""
    ranks = [
        {wt: len(echelon(d.columns)) for wt, d in blocks.items()}
        for blocks in cx.differentials
    ]
    degrees = []
    for q, blocks in enumerate(cx.bases):
        prev = q - cx.step
        into = ranks[prev] if 0 <= prev <= cx.top else {}
        dims = {wt: len(b) - ranks[q].get(wt, 0) - into.get(wt, 0) for wt, b in blocks.items()}
        degrees.append({wt: h for wt, h in dims.items() if h})
    return degrees


def koszul_terms(cx):
    """The number of terms of the Koszul map: 2^(|n|-1) per entry of an e_k,
    and dim V * 2^(|n|-3) per pair a < b of n with [e_a, e_b] = N e_g, N != 0
    and g in n.  Each term has its own (source, target) label pair."""
    roots, top = cx.n_roots, cx.top
    entries = sum(len(col) for r in roots for col in cx.module.action[("e", r)].columns)
    n = cx.split.algebra.constants.n
    brackets = sum(
        tuple(map(sum, zip(a, b))) in roots and n(a, b) != 0
        for a, b in itertools.combinations(roots, 2)
    )
    return (entries << top >> 1) + (brackets * cx.module.dimension << top >> 3)


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("case", CE_CASES, ids=_case_id)
def test_ce_blocks_in_normal_form_and_table_matches_unbounded_ranks(case, kind):
    """Every block: one column per source label, rows inside the target
    block, nonzero int entries over den 1, and as many entries in all as the
    map has terms, so that no two terms share an entry; and the table, whose
    ranks stop at the d² = 0 bound, equals the table of full ranks."""
    cx = KINDS[kind](*_split_and_module(*case))
    for q, blocks in enumerate(cx.differentials):
        target = cx.bases[q + cx.step] if 0 <= q + cx.step <= cx.top else {}
        assert blocks.keys() == (cx.bases[q].keys() if target else set())
        for wt, d in blocks.items():
            assert type(d.den) is int and d.den == 1
            assert (d.rows, d.cols) == (len(target.get(wt, ())), len(cx.bases[q][wt]))
            for col in d.columns:
                assert all(0 <= i < d.rows for i in col)
                assert all(type(v) is int and v for v in col.values())
    maps = [d for blocks in cx.differentials for d in blocks.values()]
    assert sum(len(col) for d in maps for col in d.columns) == koszul_terms(cx)
    assert cx.verify_complex()
    assert cohomology_table(cx).degrees == unbounded_table(cx)


def _set_entry(block, col, row):
    """Double the entry (row, col) of a block, or make it 1 if it is zero."""
    entries = block.columns[col]
    block.columns[col] = {**entries, row: 2 * entries[row] if row in entries else 1}


def _corrupt_one_entry(cx):
    """Change one entry of a pair of composable blocks d_q, d_{q+step} so
    that d_{q+step} d_q is no longer zero: in d_q, an entry in a row whose
    column of d_{q+step} is nonzero, or in d_{q+step}, an entry in a column
    whose row of d_q is nonzero.  The d² verdict is kept from the first
    check, so only a complex not checked yet sees the change."""
    for q, blocks in enumerate(cx.differentials):
        if not 0 <= q + cx.step <= cx.top:
            continue
        for wt, d0 in blocks.items():
            d1 = cx.differentials[q + cx.step].get(wt)
            if d1 is None:
                continue
            hit = next((r for r, col in enumerate(d1.columns) if col), None)
            if hit is not None and d0.cols:
                return _set_entry(d0, 0, hit)
            hit = next((next(iter(col)) for col in d0.columns if col), None)
            if hit is not None and d1.rows:
                return _set_entry(d1, hit, 0)
    raise AssertionError("no entry of this complex enters a composite")


# Nontrivial modules and nilradicals: an e_k of n acts nonzero on V
NONTRIVIAL = [c for c in CE_CASES if any(c[2]) and len(c[1]) < len(c[2])]
# the maximal parabolics of A2 on C^3 and its dual, and of B2 on the spin
# module: no weight block has two composable maps that are not both zero,
# so that no single entry breaks d^2 = 0
NOT_CORRUPTIBLE = {
    ("A2", (0,), (0, 1)),
    ("A2", (0,), (1, 0)),
    ("A2", (1,), (0, 1)),
    ("A2", (1,), (1, 0)),
    ("B2", (1,), (0, 1)),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize(
    "case", [c for c in NONTRIVIAL if c not in NOT_CORRUPTIBLE], ids=_case_id
)
def test_corrupted_complex_is_ranked_in_full(case, kind):
    """With one corrupted entry the d² verdict is False, and the table is
    that of the full ranks: the bound, which needs d² = 0, is not used."""
    cx = KINDS[kind](*_split_and_module(*case))
    _corrupt_one_entry(cx)
    assert cx.verify_complex() is False
    assert cohomology_table(cx).degrees == unbounded_table(cx)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_d2_verdict_is_kept_from_the_first_check(kind):
    """The verdict is that of the blocks when first checked: a block changed
    afterwards does not reopen it, and the complex built anew and changed
    the same way before its check is refused."""
    case = next(c for c in NONTRIVIAL if c not in NOT_CORRUPTIBLE)
    cx = KINDS[kind](*_split_and_module(*case))
    assert cx.verify_complex()
    _corrupt_one_entry(cx)
    assert cx.verify_complex() is True
    fresh = KINDS[kind](*_split_and_module(*case))
    _corrupt_one_entry(fresh)
    assert fresh.verify_complex() is False


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("case", NONTRIVIAL, ids=_case_id)
def test_e_k_entry_at_a_wrong_weight_is_refused(case, kind):
    """One entry of an n-root's e_k moved to a row of another weight: the
    complex is refused before any block is built."""
    split, mod = _split_and_module(*case)
    weights = mod.basis_weights
    for r in split.n_roots:
        e = mod.action[("e", r)]
        j = next((j for j, col in enumerate(e.columns) if col), None)
        if j is not None:
            break
    col = e.columns[j]
    (row, value), *rest = col.items()
    wrong = next(i for i, w in enumerate(weights) if w != weights[row] and i not in col)
    columns = list(e.columns)
    columns[j] = {wrong: value, **dict(rest)}
    action = dict(mod.action)
    action[("e", r)] = SparseMatrix(e.rows, columns, e.den)
    bad = dataclasses.replace(mod, action=action)
    with pytest.raises(InvariantError, match="the map does not preserve the weight"):
        KINDS[kind](split, bad)


def test_ce_build_memory_stays_under_the_max_cochains_figure():
    """The tracemalloc peak of `build_ce_complex` on the D4 Borel complex with
    the trivial module, 4096 cochains, stays under the 0.75 KiB per cochain
    by which the comment at MAX_COCHAINS bounds the largest build."""
    split, mod = _split_and_module("D4", (), (0, 0, 0, 0))
    assert mod.dimension << len(split.n_roots) == 4096
    tracemalloc.start()
    try:
        build_ce_complex(split, mod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 1024 * 4096


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
