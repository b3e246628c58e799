"""Exact scalars, Laurent characters and fraction-free linear algebra."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.exact import (
    ExactMatrix,
    LaurentCharacter,
    SparseMatrix,
    alternating_exterior_sum,
    character_product,
    exterior_power_character,
    flat,
    pairs,
    rank_and_kernel,
)


def mono(w, m=1, scale=1):
    return LaurentCharacter.monomial(w, m, scale)


class TestLaurentCharacter:
    def test_zero_terms_dropped(self):
        ch = LaurentCharacter(1, {(1,): 0, (2,): 3})
        assert ch.terms == {(2,): 3}

    def test_addition_and_negation(self):
        a = mono((1,)) + mono((-1,))
        assert (a - a).terms == {}
        assert (-a).terms == {(1,): -1, (-1,): -1}

    def test_product_convolution(self):
        a = mono((1,)) + mono((-1,))
        sq = a * a
        assert sq.terms == {(2,): 1, (0,): 2, (-2,): 1}

    def test_product_with_one(self):
        a = mono((2,), 3) + mono((0,), -1)
        assert a * LaurentCharacter.one(1) == a

    def test_virtual_square(self):
        a = mono((1,)) - mono((-1,))
        assert (a * a).terms == {(2,): 1, (0,): -2, (-2,): 1}

    def test_scale_rescaling(self):
        half = mono((1,), scale=2)  # the weight 1/2
        whole = mono((1,))
        prod = half * whole
        assert prod.scale == 2
        assert prod.terms == {(3,): 1}

    def test_normalized(self):
        ch = LaurentCharacter(1, {(2,): 1, (-2,): 1}, scale=2)
        n = ch.normalized()
        assert n.scale == 1 and n.terms == {(1,): 1, (-1,): 1}

    def test_dual_and_dimension(self):
        a = mono((1,), 2) + mono((3,), 1)
        assert a.dual().terms == {(-1,): 2, (-3,): 1}
        assert a.dimension() == 3

    def test_evaluate(self):
        a = mono((2,)) + mono((-1,), 3)
        assert a.evaluate([Fraction(2)]) == Fraction(4) + Fraction(3, 2)

    def test_json_round_trip(self):
        a = mono((1, -2), 4, scale=2) + mono((0, 0), -1, scale=2)
        back = LaurentCharacter.from_json_obj(a.to_json_obj())
        assert back == a

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mono((1,)) + mono((1, 2))


class TestExteriorPowers:
    def test_zeroth_power_is_one(self):
        ch = mono((1,)) + mono((2,))
        assert exterior_power_character(ch, 0) == LaurentCharacter.one(1)

    def test_first_power_is_identity(self):
        ch = mono((1,), 2) + mono((-3,))
        assert exterior_power_character(ch, 1) == ch

    def test_top_power_is_weight_sum(self):
        ch = mono((1,)) + mono((4,))
        assert exterior_power_character(ch, 2).terms == {(5,): 1}

    def test_rejects_virtual_input(self):
        with pytest.raises(ValueError):
            exterior_power_character(mono((1,), -1), 1)

    def test_alternating_sum_is_product(self):
        rng = random.Random(3)
        for _ in range(30):
            rank = rng.randint(1, 2)
            n = rng.randint(0, 6)
            weights = [
                tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(n)
            ]
            ch = LaurentCharacter.from_weights(rank, weights)
            total = LaurentCharacter.zero(rank)
            for p in range(n + 1):
                term = exterior_power_character(ch, p)
                total = total + term if p % 2 == 0 else total - term
            assert total == alternating_exterior_sum(ch)


class TestCharacterProductProperties:
    def test_commutative_associative(self):
        rng = random.Random(11)
        for _ in range(20):
            chars = [
                LaurentCharacter(
                    2,
                    {
                        (rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                        for _ in range(3)
                    },
                )
                for _ in range(3)
            ]
            a, b, c = chars
            assert character_product(a, b) == character_product(b, a)
            assert character_product(character_product(a, b), c) == character_product(
                a, character_product(b, c)
            )


class TestExactMatrix:
    def test_identity_rank(self):
        rank, kernel = rank_and_kernel(ExactMatrix.identity(3))
        assert rank == 3 and kernel == []

    def test_zero_matrix(self):
        rank, kernel = rank_and_kernel(ExactMatrix(2, 2))
        assert rank == 0 and len(kernel) == 2

    def test_proportional_rows(self):
        m = ExactMatrix.from_rows([[1, 2], [2, 4]])
        rank, kernel = rank_and_kernel(m)
        assert rank == 1 and len(kernel) == 1
        v = kernel[0]
        assert v[0] * 1 + v[1] * 2 == 0

    def test_inverse_round_trip(self):
        m = ExactMatrix.from_rows([[2, 1], [7, 4]])
        assert m @ m.inverse() == ExactMatrix.identity(2)

    def test_singular_inverse_raises(self):
        with pytest.raises(ValueError):
            ExactMatrix.from_rows([[1, 2], [2, 4]]).inverse()

    def test_rank_kernel_random_products(self):
        rng = random.Random(0)
        for _ in range(40):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            r = rng.randint(0, min(n, m))
            if r:
                a = ExactMatrix.from_rows(
                    [
                        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
                        for _ in range(n)
                    ]
                )
                b = ExactMatrix.from_rows(
                    [
                        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
                        for _ in range(r)
                    ]
                )
                mat = a @ b
            else:
                mat = ExactMatrix(n, m)
            rank, kernel = rank_and_kernel(mat)
            assert rank <= r
            assert rank + len(kernel) == m
            for v in kernel:
                assert all(x == 0 for x in mat.apply(v))

    def test_rank_independent_of_elimination_order(self):
        rng = random.Random(5)
        for _ in range(40):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            mat = ExactMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
            )
            r1, k1 = rank_and_kernel(mat)
            order = list(range(m))
            rng.shuffle(order)
            r2, k2 = rank_and_kernel(mat, col_order=order)
            assert r1 == r2 and len(k1) == len(k2)
            for v in k2:
                assert all(x == 0 for x in mat.apply(v))


def test_sparse_product_and_zero():
    d0 = SparseMatrix(2, [(0, 1, 1, -1)])
    d1 = SparseMatrix(1, [(0, Fraction(1, 3)), (0, Fraction(1, 3))])
    assert (d1 @ d0).is_zero()
    assert (d0 @ SparseMatrix(1, [(0, 2)])).columns == [(0, 2, 1, -2)]


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    # a few repeated rows make rank deficiency common
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=1, max_size=n))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))
    scale = st.sampled_from([1, -2, Fraction(1, 3)])
    scales = draw(st.lists(scale, min_size=n, max_size=n))
    return ExactMatrix.from_rows([[c * x for x in rows[i]] for i, c in zip(picks, scales)])


@settings(max_examples=80, deadline=None)
@given(rational_matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_column_permutation(mat, rng):
    rank, kernel = rank_and_kernel(mat)
    order = list(range(mat.cols))
    rng.shuffle(order)
    permuted_rank, permuted_kernel = rank_and_kernel(mat, col_order=order)
    columns = [flat({i: mat[i, j] for i in range(mat.rows) if mat[i, j]}) for j in order]
    assert permuted_rank == rank == SparseMatrix(mat.rows, columns).rank()
    assert rank + len(kernel) == mat.cols == rank + len(permuted_kernel)
    for v in kernel + permuted_kernel:
        assert all(x == 0 for x in mat.apply(v))


def sparse(mat):
    return SparseMatrix(
        mat.rows,
        [flat({i: mat[i, j] for i in range(mat.rows) if mat[i, j]}) for j in range(mat.cols)],
    )


@st.composite
def sparse_operands(draw):
    """A and B of one shape, C with as many rows as A has columns, a scalar."""
    n, m, p = (draw(st.integers(1, 4)) for _ in range(3))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4))

    def matrix(rows, cols):
        row = st.lists(entry, min_size=cols, max_size=cols)
        return ExactMatrix.from_rows(draw(st.lists(row, min_size=rows, max_size=rows)))

    return matrix(n, m), matrix(n, m), matrix(m, p), draw(entry)


@settings(max_examples=80, deadline=None)
@given(sparse_operands())
def test_sparse_ops_agree_with_dense(operands):
    """Product, difference, scaling and equality of sparse columns agree
    with the dense matrices entry for entry, and store no zero entry."""
    a, b, c, s = operands
    sa, sb, sc = sparse(a), sparse(b), sparse(c)
    results = (sa @ sc, sa - sb, sa.scale_by(s))
    assert results[0].dense() == a @ c
    assert results[1].dense().entries == [x - y for x, y in zip(a.entries, b.entries)]
    assert results[2].dense() == a.scale_by(s)
    assert all(v != 0 for m in results for col in m.columns for _, v in pairs(col))
    assert (sa == sb) == (a == b)
    reordered = [flat(dict(reversed(list(pairs(col))))) for col in sa.columns]
    shuffled = SparseMatrix(a.rows, reordered)
    assert shuffled == sa and sa - shuffled == SparseMatrix(a.rows, [()] * a.cols)


@st.composite
def character_pairs(draw):
    """Two characters of one rank, with scales 1 or 2 and signed
    multiplicities, so that products rescale and terms cancel."""
    rank = draw(st.integers(1, 3))
    weight = st.tuples(*[st.integers(-2, 2)] * rank)

    def character():
        terms = draw(st.dictionaries(weight, st.integers(-3, 3), max_size=5))
        return LaurentCharacter(rank, terms, draw(st.sampled_from((1, 2))))

    return character(), character()


@settings(max_examples=150, deadline=None)
@given(character_pairs())
def test_product_matches_validating_constructor(operands):
    """The product equals the convolution built through the validating
    constructor, term for term, and stores no zero multiplicity."""
    a, b = operands
    s = a.scale * b.scale // math.gcd(a.scale, b.scale)
    terms = {}
    for u, mu in a.terms.items():
        for v, mv in b.terms.items():
            w = tuple(x * (s // a.scale) + y * (s // b.scale) for x, y in zip(u, v))
            terms[w] = terms.get(w, 0) + mu * mv
    expected = LaurentCharacter(a.rank, terms, s)
    prod = a * b
    assert (prod.rank, prod.scale, prod.terms) == (expected.rank, expected.scale, expected.terms)
    assert 0 not in prod.terms.values()
    assert prod == expected and hash(prod) == hash(expected)
