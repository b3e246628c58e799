"""Root systems, Weyl groups, the invariant form and the Weyl action."""

import itertools
from fractions import Fraction

import pytest

from lefschetz.algebra import build_chevalley_algebra
from lefschetz.cohomology import weight_multiplicities
from lefschetz.exact import ExactMatrix, InvariantError, pack, unpack
from lefschetz.roots import RootDatum, UnsupportedLabelError, WeylElement, build_root_system


def inner(d, lam, mu):
    """(lam, mu) under the datum's Gram matrix on fundamental coordinates."""
    return sum(a * d.form[i, j] * b for i, a in enumerate(lam) for j, b in enumerate(mu))


def root_coordinates(d, lam):
    """The simple-root coordinates (A^-1)^T lam, from the inverse Cartan matrix."""
    inv = ExactMatrix.from_rows(d.cartan_matrix).inverse()
    return tuple(sum(x * inv[j, i] for j, x in enumerate(lam)) for i in range(d.rank))


def compose(a, b):
    """The columns of the Weyl element a b: a applied to each column of b."""
    return tuple(map(a.act, b.columns))


def inversion_count(d, w):
    """The number of positive roots that w sends to negative roots."""
    positive = set(d.positive_roots)
    return sum(w.act(r) not in positive for r in d.positive_roots)


class TestConstruction:
    def test_positive_root_counts(self):
        expected = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "C3": 9, "D4": 12, "G2": 6, "F4": 24}
        for label, count in expected.items():
            assert len(build_root_system(label).positive_roots) == count

    def test_a2_positive_roots(self):
        d = build_root_system("A2")
        a1, a2 = d.simple_roots
        expected = {a1, a2, tuple(x + y for x, y in zip(a1, a2))}
        assert set(d.positive_roots) == expected

    def test_simple_reflection_permutes_other_positives(self):
        for label in ("A2", "B2", "G2"):
            d = build_root_system(label)
            for i in range(d.rank):
                others = [r for r in d.positive_roots if r != d.simple_roots[i]]
                images = {d.reflect(r, i) for r in others}
                assert images == set(others)

    def test_closure_coordinates(self):
        """The closure's simple-root coordinates are those of the inverse
        Cartan matrix, and the roots come by height, then lexicographically."""
        counts = {
            "A4": 10, "B3": 9, "C4": 16, "D5": 20, "G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120
        }
        for label, count in counts.items():
            d = build_root_system(label)
            on, off = d.partition_roots(())
            assert on == [] and [r for r, _ in off] == d.positive_roots
            assert len(off) == count
            assert all(c == root_coordinates(d, r) for r, c in off)
            assert [(sum(c), r) for r, c in off] == sorted((sum(c), r) for r, c in off)

    def test_partition_by_levi(self):
        d = build_root_system("A3")
        on, off = d.partition_roots((0, 2))
        assert on == [(d.simple_roots[2], (0, 0, 1)), (d.simple_roots[0], (1, 0, 0))]
        assert len(off) == 4 and all(c[1] == 1 for _, c in off)

    def test_rho_is_all_ones(self):
        assert build_root_system("B2").rho == (1, 1)

    def test_unsupported_labels(self):
        for bad in ("Z9", "A0", "E9", "B1", "xyz", "A"):
            with pytest.raises(UnsupportedLabelError):
                build_root_system(bad)

    def test_root_positivity_of_norms(self):
        for label in ("A2", "B2", "G2", "F4"):
            d = build_root_system(label)
            assert all(inner(d, r, r) > 0 for r in d.positive_roots)

    def test_short_roots_have_norm_two(self):
        for label in ("A1", "A2", "B2", "C3", "G2"):
            d = build_root_system(label)
            assert min(inner(d, r, r) for r in d.positive_roots) == 2


class TestWeylGroup:
    def test_a1_group(self):
        d = build_root_system("A1")
        group = d.weyl_group()
        assert sorted(w.length for w in group) == [0, 1]

    def test_a2_length_multiset(self):
        d = build_root_system("A2")
        assert sorted(w.length for w in d.weyl_group()) == [0, 1, 1, 2, 2, 3]

    def test_orders(self):
        orders = {"B2": 8, "G2": 12, "A3": 24, "F4": 1152, "E6": 51840, "E8": 696729600}
        for label, order in orders.items():
            assert build_root_system(label).weyl_order() == order

    def test_lengths_equal_inversion_counts(self):
        for label in ("A2", "B2"):
            d = build_root_system(label)
            for w in d.weyl_group():
                assert w.length == inversion_count(d, w)

    def test_roots_closed_under_weyl_action(self):
        for label in ("A2", "B2"):
            d = build_root_system(label)
            for w in d.weyl_group():
                for r in d.positive_roots:
                    assert d.is_root(w.act(r))

    def test_closed_under_composition(self):
        d = build_root_system("A2")
        group = d.weyl_group()
        columns = {w.columns for w in group}
        for a in group:
            for b in group:
                assert compose(a, b) in columns


def reflection_closure(d):
    """Every Weyl element as its columns w(omega_k) -> a reduced word, by
    breadth-first closure of s_i w, computed column by column with reflect."""
    ident = tuple(d.fundamental_weights)
    words, frontier = {ident: ()}, [ident]
    while frontier:
        new = []
        for cols in frontier:
            for i in range(d.rank):
                img = tuple(d.reflect(c, i) for c in cols)
                if img not in words:
                    words[img] = (i,) + words[cols]
                    new.append(img)
        frontier = new
    return words


def apply(cols, lam):
    """w(lam) from the packed columns w(omega_k) of the walk."""
    return unpack(sum(x * col for x, col in zip(lam, cols)), len(lam))


class TestCosetWalk:
    def test_walk_matches_definition(self):
        """The walk's (length, w(lam + rho)) are those of the w with
        w^-1 alpha_j > 0 on the Levi, over the whole group, with multiplicity."""
        for label in ("A2", "B2", "G2", "A3", "B3", "C3"):
            d = build_root_system(label)
            positive = set(d.positive_roots)
            group = reflection_closure(d)
            for r in range(d.rank + 1):
                for levi in itertools.combinations(range(d.rank), r):
                    kostant = []
                    for cols, word in group.items():
                        inverse_images = []
                        for j in levi:
                            root = d.simple_roots[j]
                            for i in word:  # w^-1 = s_ik ... s_i1 for w = s_i1 ... s_ik
                                root = d.reflect(root, i)
                            inverse_images.append(root)
                        if all(root in positive for root in inverse_images):
                            kostant.append((len(word), tuple(map(pack, cols))))
                    walk = list(d.coset_walk(levi))
                    for lam in itertools.product(range(2), repeat=d.rank):
                        shifted = tuple(c + 1 for c in lam)
                        expected = sorted((q, apply(cols, shifted)) for q, cols in kostant)
                        got = sorted(
                            (q, apply(cols, shifted))
                            for q, level in enumerate(walk)
                            for _, cols in level.values()
                        )
                        assert got == expected, (label, levi, lam)

    def test_a2_levi_0_table(self):
        """Kostant's representatives are e, s_1 and s_1 s_0 (the words are
        those of v = w^-1).  Applying s_1 to points w(rho) reaches s_1 s_0
        (rho) = (1, -2) only from s_0 (rho) = (-1, 2), which is not dominant
        for the Levi, so a walk that kept only such points would miss it."""
        d = build_root_system("A2")
        walk = d.coset_walk((0,))
        table = [
            [(word, apply(cols, d.rho)) for word, cols in level.values()] for level in walk
        ]
        assert table == [[((), (1, 1))], [((1,), (2, -1))], [((0, 1), (1, -2))]]

    def test_e6_maximal_parabolics(self):
        """|W(E6)| / |W_L| for the Levi without node k (D5, A5, A1 x A4,
        A2 x A1 x A2, A4 x A1, D5), from the walk and from the closed form."""
        d = build_root_system("E6")
        for k, index in enumerate((27, 72, 216, 720, 216, 27)):
            levi = tuple(i for i in range(6) if i != k)
            assert sum(map(len, d.coset_walk(levi))) == d.weyl_order(levi) == index

    def test_walk_checked_against_closed_form(self, monkeypatch):
        d = build_root_system("B3")
        monkeypatch.setattr(RootDatum, "weyl_order", lambda self, levi=(): 47)
        with pytest.raises(InvariantError, match="found 48 cosets, not"):
            list(d.coset_walk())


class TestDimensionFormula:
    def test_trivial(self):
        assert build_root_system("A1").weyl_dimension((0,)) == 1

    def test_defining(self):
        assert build_root_system("A1").weyl_dimension((1,)) == 2

    def test_a2_rho(self):
        assert build_root_system("A2").weyl_dimension((1, 1)) == 8

    def test_b2_values(self):
        d = build_root_system("B2")
        assert d.weyl_dimension((1, 0)) == 5
        assert d.weyl_dimension((0, 1)) == 4

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            build_root_system("A2").weyl_dimension((-1, 0))

    @pytest.mark.parametrize("lam", [(1,), (1, 0, 5)])
    def test_rejects_weight_of_wrong_length(self, lam):
        with pytest.raises(ValueError, match="rank-2"):
            build_root_system("A2").weyl_dimension(lam)

    def test_levi_dimension_is_freudenthal_count(self):
        """On a Levi subsystem the dimension counts the Freudenthal weights,
        and dominance is asked only on the Levi coordinates."""
        for label in ("A2", "B2", "G2", "A3", "B3"):
            d = build_root_system(label)
            for bits in range(1 << d.rank):
                levi = [i for i in range(d.rank) if bits >> i & 1]
                for lam in itertools.product(range(-1, 2), repeat=d.rank):
                    if any(lam[i] < 0 for i in levi):
                        with pytest.raises(ValueError):
                            d.weyl_dimension(lam, levi)
                        continue
                    count = sum(weight_multiplicities(d, lam, levi).values())
                    assert d.weyl_dimension(lam, levi) == count, (label, levi, lam)

    def test_exceptional_fundamental_modules(self):
        """Dimensions of the fundamental modules, Bourbaki numbering (but the
        long simple root of G2 comes first here)."""
        expected = {
            "G2": (14, 7),
            "F4": (52, 1274, 273, 26),
            "E6": (27, 78, 351, 2925, 351, 27),
            "E7": (133, 912, 8645, 365750, 27664, 1539, 56),
            "E8": (3875, 147250, 6696000, 6899079264, 146325270, 2450240, 30380, 248),
        }
        for label, dims in expected.items():
            d = build_root_system(label)
            assert tuple(map(d.weyl_dimension, d.fundamental_weights)) == dims, label


def test_levi_form_is_computed_once_per_levi_subset():
    """A Levi subset given as a list, a set or a range is one memo entry,
    equal to the form computed afresh from `partition_roots`."""
    d = build_root_system("B3")
    first = d.levi_form([1, 0])
    assert d.levi_form({0, 1}) is first and d.levi_form(range(2)) is first
    assert len(d._levi_forms) == 1
    on, _ = d.partition_roots({0, 1})
    fresh = [(r, tuple(c_j * d_j for c_j, d_j in zip(c, d._d))) for r, c in on]
    assert first[0] == d._d == [2, 2, 1]
    assert list(first[1]) == fresh and len(fresh) == 3


class TestDotAction:
    """The dot action w . lam = w(lam + rho) - rho, on the shifted weight lam + rho."""

    def test_identity(self):
        d = build_root_system("A2")
        ident = next(w for w in d.weyl_group() if w.length == 0)
        assert ident.act(d.rho) == d.rho

    def test_a1_reflection_on_zero(self):
        d = build_root_system("A1")
        s = next(w for w in d.weyl_group() if w.length == 1)
        assert s.act((1,)) == (-1,)

    def test_group_action(self):
        d = build_root_system("A2")
        group = d.weyl_group()
        shifted = (2, 3)
        for a in group:
            for b in group:
                assert a.act(b.act(shifted)) == WeylElement((), compose(a, b), -1).act(shifted)


class TestForms:
    def test_short_root_norm_a1(self):
        d = build_root_system("A1")
        assert inner(d, (2,), (2,)) == 2

    def test_killing_norm_a1(self):
        gram = build_chevalley_algebra(build_root_system("A1")).killing_dual_form_on_weights()
        assert 4 * gram[0, 0] == Fraction(1, 2)

    def test_form_is_weyl_invariant(self):
        for label in ("A2", "B2"):
            d = build_root_system(label)
            lam, mu = (1, 2), (2, -1)
            val = inner(d, lam, mu)
            for w in d.weyl_group():
                assert inner(d, w.act(lam), w.act(mu)) == val

    def test_json_shape(self):
        obj = build_root_system("A2").to_json_obj()
        assert obj["label"] == "A2" and obj["rank"] == 2
        assert len(obj["positive_roots"]) == 3
        assert obj["form_normalization"] == "short-root-2"
