"""Exact scalars, Laurent characters and fraction-free linear algebra."""

import math
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.exact import (
    PACK_LIMIT,
    ExactMatrix,
    LaurentCharacter,
    SparseMatrix,
    alternating_exterior_sum,
    echelon,
    exterior_power_character,
    image,
    pack,
    rank_and_kernel,
    unpack,
)


def mono(w, m=1):
    return LaurentCharacter.monomial(w, m)


def identity(n):
    return ExactMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def apply(mat, vec):
    """The matrix times a vector, entry by entry in Fractions."""
    return [sum(mat[i, j] * x for j, x in enumerate(vec)) for i in range(mat.rows)]


def scale(mat, c):
    return ExactMatrix(mat.rows, mat.cols, [c * x for x in mat.entries])


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

    def test_dual_and_dimension(self):
        a = mono((1,), 2) + mono((3,), 1)
        assert a.dual().terms == {(-1,): 2, (-3,): 1}
        assert a.dimension() == 3

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mono((1,)) + mono((1, 2))

    @pytest.mark.parametrize(
        "terms",
        [{(0,): Fraction(1, 2)}, {(Fraction(1, 2),): 1}, {(0.7,): 2.9}],
        ids=["fraction_multiplicity", "fraction_coordinate", "floats"],
    )
    def test_non_integral_input_rejected(self, terms):
        """int() would truncate these to {(0,): 0}, {(0,): 1} and {(0,): 2}."""
        with pytest.raises(ValueError, match="not integral"):
            LaurentCharacter(1, terms)

    def test_integral_input_stored_as_int(self):
        ch = LaurentCharacter(1, {(Fraction(4, 2),): 3.0})
        assert ch.terms == {(2,): 3}
        assert all(type(c) is int for w, m in ch.terms.items() for c in (*w, m))

    @pytest.mark.parametrize("scalar", [Fraction(1, 2), 2.5], ids=["fraction", "float"])
    def test_non_integer_scalar_is_a_type_error(self, scalar):
        ch = mono((1,))
        with pytest.raises(TypeError):
            ch * scalar
        with pytest.raises(TypeError):
            scalar * ch

    @pytest.mark.parametrize("other", [1, 0.5, "x"], ids=["int", "float", "str"])
    @pytest.mark.parametrize("op", ["+", "-"])
    def test_non_character_operand_is_a_type_error(self, op, other):
        """Not an AttributeError from reading `other.rank`."""
        ch = LaurentCharacter.one(1)
        with pytest.raises(TypeError):
            ch + other if op == "+" else ch - other


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


class TestExactMatrix:
    def test_identity_rank(self):
        rank, kernel = rank_and_kernel(identity(3))
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
        assert m @ m.inverse() == identity(2)

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
                assert all(x == 0 for x in apply(mat, v))

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
                assert all(x == 0 for x in apply(mat, v))


# Test-local sparse arithmetic: the library builds its operators' products
# and differences in place, so these reference forms go through the
# normalising constructor, whose normal form the tests below check.


def product(a, b):
    """a @ b: the columns of b applied to a, over a.den * b.den."""
    return SparseMatrix(a.rows, [image(a.columns, col) for col in b.columns], a.den * b.den)


def difference(a, b):
    """a - b over lcm(a.den, b.den): column j is the columns a_j, b_j applied
    to the vector (den / a.den, -den / b.den)."""
    den = lcm(a.den, b.den)
    weights = {0: den // a.den, 1: -den // b.den}
    return SparseMatrix(a.rows, [image(ab, weights) for ab in zip(a.columns, b.columns)], den)


def scaled(a, c):
    """c * a for a rational c: the entries times its numerator, over a.den
    times its denominator."""
    c = Fraction(c)
    p = c.numerator
    cols = [{i: v * p for i, v in col.items() if p} for col in a.columns]
    return SparseMatrix(a.rows, cols, a.den * c.denominator)


def test_sparse_product_and_zero():
    d0 = SparseMatrix(2, [{0: 1, 1: -1}])
    d1 = SparseMatrix(1, [{0: Fraction(1, 3)}, {0: Fraction(1, 3)}])
    assert not any(product(d1, d0).columns)
    assert product(d0, SparseMatrix(1, [{0: 2}])).columns == [{0: 2, 1: -2}]


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
    columns = [{i: mat[i, j] for i in range(mat.rows) if mat[i, j]} for j in order]
    assert permuted_rank == rank == SparseMatrix(mat.rows, columns).rank()
    assert rank + len(kernel) == mat.cols == rank + len(permuted_kernel)
    for v in kernel + permuted_kernel:
        assert all(x == 0 for x in apply(mat, v))


def sparse(mat, kind=Fraction):
    """The sparse matrix of `mat`, its entries given as `kind`."""
    return SparseMatrix(
        mat.rows,
        [{i: kind(mat[i, j]) for i in range(mat.rows) if mat[i, j]} for j in range(mat.cols)],
    )


def dense(m):
    """The ExactMatrix of the sparse matrix `m`, entry for entry."""
    out = ExactMatrix(m.rows, m.cols)
    for j, col in enumerate(m.columns):
        for i, v in col.items():
            out[i, j] = Fraction(v, m.den)
    return out


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
    results = (product(sa, sc), difference(sa, sb), scaled(sa, s))
    assert dense(results[0]) == a @ c
    assert dense(results[1]).entries == [x - y for x, y in zip(a.entries, b.entries)]
    assert dense(results[2]) == scale(a, s)
    assert all(v != 0 for m in results for col in m.columns for v in col.values())
    assert (sa == sb) == (a == b)
    reordered = [dict(reversed(col.items())) for col in sa.columns]
    shuffled = SparseMatrix(a.rows, reordered, sa.den)
    assert shuffled == sa and difference(sa, shuffled) == SparseMatrix(a.rows, [{}] * a.cols)


def assert_normal(m):
    """Integer entries over one positive denominator prime to all of them."""
    entries = [v for col in m.columns for v in col.values()]
    assert all(type(v) is int and v != 0 for v in entries)
    assert type(m.den) is int and m.den >= 1
    assert gcd(m.den, *entries) == 1


@settings(max_examples=80, deadline=None)
@given(sparse_operands(), st.booleans())
def test_sparse_results_are_integers_over_one_denominator(operands, integral):
    """Built from int or Fraction columns, and after a product, a difference
    and a scaling, a sparse matrix holds ints over a reduced denominator."""
    a, b, c, s = operands
    kind = Fraction
    if integral:  # the same shapes with int entries
        a, b, c = (ExactMatrix(m.rows, m.cols, [int(6 * x) for x in m.entries]) for m in (a, b, c))
        kind = int
    sa, sb, sc = (sparse(m, kind) for m in (a, b, c))
    results = (product(sa, sc), difference(sa, sb), scaled(sa, s), difference(scaled(sa, s), sb))
    for m in (sa, sb, sc, *results):
        assert_normal(m)
    assert dense(sparse(scale(a, 4))) == dense(scaled(sa, 4)) == scale(a, 4)


def test_sparse_denominator_is_structural():
    half = SparseMatrix(1, [{0: Fraction(1, 2)}])
    assert (half.columns, half.den) == ([{0: 1}], 2)
    assert SparseMatrix(1, [{0: 3}], 6) == half
    assert (scaled(half, 2).columns, scaled(half, 2).den) == ([{0: 1}], 1)
    zero = difference(half, SparseMatrix(1, [{0: 2}], 4))
    assert (zero.columns, zero.den) == ([{}], 1)
    with pytest.raises(ValueError):
        SparseMatrix(1, [{0: 1}], 0)


@st.composite
def characters(draw, count):
    """`count` characters of one rank with signed multiplicities, so that
    terms cancel."""
    rank = draw(st.integers(1, 3))
    weight = st.tuples(*[st.integers(-2, 2)] * rank)

    def character():
        terms = draw(st.dictionaries(weight, st.integers(-3, 3), max_size=5))
        return LaurentCharacter(rank, terms)

    return tuple(character() for _ in range(count))


def _convolution(a, b):
    terms = {}
    for u, mu in a.terms.items():
        for v, mv in b.terms.items():
            w = tuple(x + y for x, y in zip(u, v))
            terms[w] = terms.get(w, 0) + mu * mv
    return terms


def _signed_sum(*signed):
    terms = {}
    for ch, sign in signed:
        for w, m in ch.terms.items():
            terms[w] = terms.get(w, 0) + sign * m
    return terms


# name -> (operation on (a, b, k), its terms built by plain loops)
RING_OPERATIONS = {
    "mul": (lambda a, b, k: a * b, lambda a, b, k: _convolution(a, b)),
    "add": (lambda a, b, k: a + b, lambda a, b, k: _signed_sum((a, 1), (b, 1))),
    "sub": (lambda a, b, k: a - b, lambda a, b, k: _signed_sum((a, 1), (b, -1))),
    "neg": (lambda a, b, k: -a, lambda a, b, k: _signed_sum((a, -1))),
    "times_int": (lambda a, b, k: a * k, lambda a, b, k: _signed_sum((a, k))),
    "int_times": (lambda a, b, k: k * a, lambda a, b, k: _signed_sum((a, k))),
    "times_zero": (lambda a, b, k: a * 0, lambda a, b, k: _signed_sum((a, 0))),
    "dual": (
        lambda a, b, k: a.dual(),
        lambda a, b, k: {tuple(-c for c in w): m for w, m in a.terms.items()},
    ),
}


@pytest.mark.parametrize("op", RING_OPERATIONS)
@settings(max_examples=150, deadline=None)
@given(operands=characters(2), k=st.integers(-3, 3))
def test_product_matches_validating_constructor(op, operands, k):
    """Every ring operation equals its result built through the validating
    constructor, term for term, and stores no zero multiplicity."""
    a, b = operands
    operation, reference = RING_OPERATIONS[op]
    expected = LaurentCharacter(a.rank, reference(a, b, k))
    result = operation(a, b, k)
    assert (result.rank, result.terms) == (expected.rank, expected.terms)
    assert 0 not in result.terms.values()
    assert result == expected and hash(result) == hash(expected)


@st.composite
def product_operands(draw):
    """Two characters of one rank 0-5 with nonzero multiplicities.  Each
    holds the zero point or not, and their sizes are equal or drawn apart;
    small coordinates make products cancel."""
    rank = draw(st.integers(0, 5))
    zero, points = (0,) * rank, 5**rank
    nonzero = st.tuples(*[st.integers(-2, 2)] * rank).filter(any)
    mult = st.integers(-3, 3).filter(bool)
    size = st.integers(0, min(5, points))
    sizes = [draw(size)]
    sizes.append(sizes[0] if draw(st.booleans()) else draw(size))

    def character(size):
        with_zero = size == points or (size > 0 and draw(st.booleans()))
        count = size - with_zero
        terms = draw(st.dictionaries(nonzero, mult, min_size=count, max_size=count))
        if with_zero:
            terms[zero] = draw(mult)
        return LaurentCharacter(rank, terms)

    return tuple(character(n) for n in sizes)


@settings(max_examples=300, deadline=None)
@given(operands=product_operands(), k=st.integers(-3, 3))
def test_product_matches_naive_double_loop(operands, k):
    """The product, in either order and through __rmul__, has the terms of a
    plain double loop over both operands, and so does a product with an int;
    no result stores a zero multiplicity."""
    a, b = operands
    expected = {w: m for w, m in _convolution(a, b).items() if m}
    for result in (a * b, b * a, a.__rmul__(b)):
        assert (result.rank, result.terms) == (a.rank, expected)
        assert 0 not in result.terms.values()
    scaled = {w: k * m for w, m in a.terms.items() if k}
    for result in (a * k, k * a):
        assert (result.rank, result.terms) == (a.rank, scaled)
        assert 0 not in result.terms.values()


@pytest.mark.parametrize("beta", [(1,), (1, -2), (0, 2, -1), (1, 0, 0, -1), (2, -1, 0, 1, -3)])
def test_product_cancels_to_one_minus_x_to_the_three_beta(beta):
    """(1 - x^beta)(1 + x^beta + x^2beta) = 1 - x^3beta: the cancelled points
    x^beta and x^2beta are not stored."""
    one = LaurentCharacter.one(len(beta))
    times = [tuple(j * c for c in beta) for j in range(4)]
    geometric = LaurentCharacter.from_weights(len(beta), times[:3])
    for product in (one - mono(beta)) * geometric, geometric * (one - mono(beta)):
        assert product.terms == {times[0]: 1, times[3]: -1}


def test_rank_zero_product():
    """Rank 0 has the one point (), which takes the zero-point path."""
    a, b = LaurentCharacter(0, {(): 3}), LaurentCharacter(0, {(): -2})
    assert (a * b).terms == {(): -6}
    assert (a * LaurentCharacter.zero(0)).terms == {}
    assert (2 * a).terms == {(): 6}


class TestCharacterProductProperties:
    """Ring laws of characters."""

    @settings(max_examples=100, deadline=None)
    @given(characters(3))
    def test_commutative_associative(self, operands):
        a, b, c = operands
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=100, deadline=None)
    @given(characters(3))
    def test_distributive_with_unit_and_negatives(self, operands):
        a, b, c = operands
        assert a * (b + c) == a * b + a * c
        assert a * LaurentCharacter.one(a.rank) == a
        assert a - a == LaurentCharacter.zero(a.rank)


# ---------------------------------------------------------------------------
# Packed points against tuple keys

# Coordinates near 0, where products cancel, and near +-PACK_LIMIT / 2, where
# a balanced digit borrows from the next block; the sum of two is below
# PACK_LIMIT in size, so every product is allowed.
NEAR = PACK_LIMIT // 2 - 3
PACKED_COORDINATE = st.integers(-2, 2) | st.integers(-2, 2).map(lambda c: c + NEAR) | (
    st.integers(-2, 2).map(lambda c: c - NEAR)
)


@st.composite
def tuple_key_characters(draw):
    """The rank 0-8 and two tuple-key dicts of signed multiplicities."""
    rank = draw(st.integers(0, 8))
    point = st.tuples(*[PACKED_COORDINATE] * rank)
    terms = st.dictionaries(point, st.integers(-3, 3), max_size=5)
    return rank, draw(terms), draw(terms)


def _nonzero(terms):
    return {w: m for w, m in terms.items() if m}


def _tuple_product(a, b):
    out = {}
    for u, mu in a.items():
        for v, mv in b.items():
            w = tuple(x + y for x, y in zip(u, v))
            out[w] = out.get(w, 0) + mu * mv
    return _nonzero(out)


def _tuple_signed_sum(a, b, sign):
    out = dict(a)
    for w, m in b.items():
        out[w] = out.get(w, 0) + sign * m
    return _nonzero(out)


@settings(max_examples=150, deadline=None)
@given(tuple_key_characters())
def test_packed_characters_match_tuple_keys(operands):
    """+, -, *, dual, ==, hash and `terms` of packed characters agree with
    plain tuple-key dicts, at ranks 0-8 and with digits that borrow."""
    rank, s, t = operands
    a, b = LaurentCharacter(rank, s), LaurentCharacter(rank, t)
    assert list(a.terms.items()) == list(_nonzero(s).items())  # insertion order kept
    expected = {
        "+": _tuple_signed_sum(s, t, 1),
        "-": _tuple_signed_sum(s, t, -1),
        "*": _tuple_product(s, t),
        "dual": {tuple(-c for c in w): m for w, m in _nonzero(s).items()},
    }
    results = {"+": a + b, "-": a - b, "*": a * b, "dual": a.dual()}
    for op, result in results.items():
        assert result.terms == expected[op], op
        reference = LaurentCharacter(rank, expected[op])
        assert result == reference and hash(result) == hash(reference), op
    assert (a == b) == (_nonzero(s) == _nonzero(t))
    assert a.dimension() == sum(s.values())
    assert a.is_effective() == all(m > 0 for m in _nonzero(s).values())


LIMIT_COORDINATE = st.integers(-PACK_LIMIT + 1, PACK_LIMIT - 1) | st.sampled_from(
    [PACK_LIMIT - 1, -PACK_LIMIT + 1, PACK_LIMIT - 2, -PACK_LIMIT + 2, 0, 1, -1]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(LIMIT_COORDINATE, max_size=8), st.lists(LIMIT_COORDINATE, max_size=8))
def test_pack_is_additive_and_unpacks_near_the_limit(u, v):
    """unpack(pack(w)) = w for coordinates below PACK_LIMIT in size, and
    pack(u) + pack(v) = pack(u + v), pack(-u) = -pack(u)."""
    v = (v + [0] * len(u))[: len(u)]
    total = [x + y for x, y in zip(u, v)]
    assert unpack(pack(u), len(u)) == tuple(u)
    assert pack(u) + pack(v) == pack(total)
    assert unpack(pack(u) + pack(v), len(u)) == tuple(total)
    assert pack([-x for x in u]) == -pack(u)


class TestPackLimit:
    @pytest.mark.parametrize(
        "point", [(PACK_LIMIT,), (-PACK_LIMIT,), (0, PACK_LIMIT, 0), (1, 2, -PACK_LIMIT)]
    )
    def test_character_at_the_limit_is_refused(self, point):
        with pytest.raises(ValueError, match="PACK_LIMIT"):
            LaurentCharacter(len(point), {point: 1})

    def test_character_below_the_limit_is_kept(self):
        point = (PACK_LIMIT - 1, -(PACK_LIMIT - 1), 0)
        ch = LaurentCharacter(3, {point: 2})
        assert ch.span == PACK_LIMIT - 1
        assert ch.terms == {point: 2} and ch.dual().terms == {tuple(-c for c in point): 2}
        assert (ch + ch.dual()).span == PACK_LIMIT - 1  # a sum keeps the larger span

    def test_repeated_squaring_is_refused_at_the_limit(self):
        """(1 + x^b)^(2^j) with b = (2^55, -2^55, 1): the spans double up to
        2^61 with the binomial terms, and the next square, whose points would
        reach 2^62, is refused before it is formed."""
        beta = (2**55, -(2**55), 1)
        ch = LaurentCharacter(3, {(0, 0, 0): 1, beta: 1})
        for j in range(1, 7):
            ch = ch * ch
            n = 2**j
            binomial = {tuple(k * c for c in beta): math.comb(n, k) for k in range(n + 1)}
            assert ch.span == 2 ** (55 + j) and ch.terms == binomial
        with pytest.raises(ValueError, match="PACK_LIMIT"):
            ch * ch
        assert (ch * 3).span == ch.span and (ch - ch).terms == {}


@st.composite
def sparse_integer_rows(draw):
    """A few sparse integer rows over up to 6 columns, some of them sums of
    earlier ones, so that the rank is often below the number of rows."""
    width = draw(st.integers(1, 6))
    entry = st.integers(-3, 3).filter(bool)
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            row = {c: a.get(c, 0) + b.get(c, 0) for c in a.keys() | b.keys()}
            rows.append({c: x for c, x in row.items() if x})
        else:
            rows.append(draw(st.dictionaries(st.integers(0, width - 1), entry, max_size=width)))
    return rows


@settings(max_examples=150, deadline=None)
@given(sparse_integer_rows(), st.integers(0, 3))
def test_echelon_stop_at_or_above_rank_gives_the_rank(rows, extra):
    """A stop at or above the rank reads as many pivots as no stop; a stop
    of 0 eliminates nothing."""
    rank = len(echelon(rows))
    assert len(echelon(rows, rank + extra)) == rank
    assert echelon(rows, 0) == {}
    assert SparseMatrix(6, rows).rank(rank + extra) == rank == SparseMatrix(6, rows).rank()
    assert SparseMatrix(6, rows).rank(0) == 0
