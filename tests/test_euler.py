"""Euler characteristics, transfer identities and trace-value formulas."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz.cohomology import irreducible_character
from lefschetz.euler import (
    BettiVector,
    HarishChandraInput,
    SymbolicScalar,
    bundle_betti_transfer,
    chi_gen,
    chi_r,
    comb_identity_check,
    decompose_character,
    euler_poincare_trace,
    harish_chandra_constant,
    trivial_multiplicity,
)
from lefschetz.exact import LaurentCharacter
from lefschetz.roots import build_root_system


class TestChiR:
    def test_sphere(self):
        assert chi_r(BettiVector((1, 0, 1)), 0) == 2

    def test_circle_first(self):
        assert chi_r(BettiVector((1, 1)), 1) == 1

    def test_torus_first(self):
        assert chi_r(BettiVector((1, 2, 1)), 1) == 0

    def test_r_zero_is_alternating_sum(self):
        rng = random.Random(2)
        for _ in range(50):
            b = BettiVector(tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 8))))
            assert chi_r(b, 0) == sum((-1) ** j * x for j, x in enumerate(b.b))

    def test_negative_betti_rejected(self):
        with pytest.raises(ValueError):
            BettiVector((1, -1))


class TestBundleTransfer:
    def test_point_times_circle(self):
        assert bundle_betti_transfer(BettiVector((1,)), 1).b == (1, 1)

    def test_pascal_row(self):
        assert bundle_betti_transfer(BettiVector((1,)), 2).b == (1, 2, 1)

    def test_sphere_times_circle(self):
        assert bundle_betti_transfer(BettiVector((1, 0, 1)), 1).b == (1, 1, 1, 1)

    def test_transfer_preserves_chi(self):
        rng = random.Random(9)
        for _ in range(300):
            n = rng.randint(1, 8)
            base = BettiVector(tuple(rng.randint(0, 5) for _ in range(n)))
            r = rng.randint(0, 5)
            assert chi_r(bundle_betti_transfer(base, r), r) == chi_r(base, 0)


class TestCombIdentity:
    def test_single_term(self):
        assert comb_identity_check(0, 0)

    def test_two_terms(self):
        assert comb_identity_check(1, 1)

    def test_full_grid(self):
        assert all(comb_identity_check(r, p) for r in range(13) for p in range(13))


class TestConstants:
    def test_torus_case(self):
        c = harish_chandra_constant(HarishChandraInput(0, 0, 0, Fraction(1), 1))
        assert c.float_value() == 1 and c.sign == 1

    def test_direct_substitution(self):
        c = harish_chandra_constant(HarishChandraInput(1, 1, 2, Fraction(1), 2))
        assert abs(c.float_value() + 8 * math.pi) < 1e-12

    def test_sign_parity(self):
        for k in range(4):
            c = harish_chandra_constant(HarishChandraInput(k, 2, 0, Fraction(1), 1))
            assert c.sign == (-1) ** k

    def test_positive_ratio_required(self):
        with pytest.raises(ValueError):
            harish_chandra_constant(HarishChandraInput(0, 0, 0, Fraction(0), 1))

    @pytest.mark.parametrize(
        "scalar",
        [SymbolicScalar(1, 0, 0, Fraction(10**400)), SymbolicScalar(-1, 2, 0, Fraction(10**308))],
        ids=["factor_beyond_float", "product_beyond_float"],
    )
    def test_json_float_value_is_null_beyond_the_float_range(self, scalar):
        """float(10^400) raises, 10^308 (2 pi)^2 rounds to inf: either way the
        exact factor stands and `float_value` is null."""
        obj = scalar.to_json_obj()
        assert obj["factor"] == str(scalar.factor) and obj["float_value"] is None

    def test_chi_gen_linearity(self):
        inp = HarishChandraInput(1, 1, 2, Fraction(1), 2, 4, Fraction(3, 2))
        one = chi_gen(inp, Fraction(1))["chi_gen"].float_value()
        two = chi_gen(inp, Fraction(2))["chi_gen"].float_value()
        assert abs(two - 2 * one) < 1e-12

    def test_chi_gen_with_a_covolume(self):
        inp = HarishChandraInput(0, 1, 0, Fraction(1), 2, 2, Fraction(1))
        out = chi_gen(inp, Fraction(4), a_covolume=Fraction(2))
        assert abs(out["chi_r"].float_value() * 2 - out["chi_gen"].float_value()) < 1e-12

    def test_chi_gen_symbolic_ratio_exact(self):
        inp = HarishChandraInput(1, 3, 2, Fraction(2, 3), 2, 4, Fraction(5))
        a = chi_gen(inp, Fraction(1))["chi_gen"]
        b = chi_gen(inp, Fraction(7))["chi_gen"]
        # transcendental parts are identical; the rational factors differ by 7
        assert (a.two_pi_power, a.sqrt2_power, a.sign) == (b.two_pi_power, b.sqrt2_power, b.sign)
        assert b.factor == 7 * a.factor


class TestCharacterDecomposition:
    def test_adjoint_square(self):
        d = build_root_system("A1")
        adj = LaurentCharacter(1, {(2,): 1, (0,): 1, (-2,): 1})
        assert decompose_character(d, adj * adj) == {(4,): 1, (2,): 1, (0,): 1}

    def test_rejects_non_invariant(self):
        d = build_root_system("A1")
        with pytest.raises(ValueError):
            decompose_character(d, LaurentCharacter(1, {(2,): 1}))

    def test_trivial_multiplicity(self):
        d = build_root_system("A2")
        adj = LaurentCharacter(
            2, {(1, 1): 1, (-1, 2): 1, (2, -1): 1, (0, 0): 2, (1, -2): 1, (-2, 1): 1, (-1, -1): 1}
        )
        assert trivial_multiplicity(d, adj * adj) == 1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_levi_decomposition_round_trip(data):
    """An integer combination of irreducible Levi characters decomposes back
    to its multiplicities, for every Levi of A2, B2, G2 and A3."""
    d = build_root_system(data.draw(st.sampled_from(("A2", "B2", "G2", "A3"))))
    levi = data.draw(st.sets(st.integers(0, d.rank - 1)))
    tops = st.tuples(*(st.integers(0 if i in levi else -2, 2) for i in range(d.rank)))
    mults = data.draw(st.dictionaries(tops, st.integers(-3, 3).filter(bool), max_size=4))
    terms = {}
    for top, m in mults.items():
        for w, k in irreducible_character(d, top, levi).terms.items():
            terms[w] = terms.get(w, 0) + m * k
    ch = LaurentCharacter(d.rank, {w: c for w, c in terms.items() if c})
    assert decompose_character(d, ch, levi) == mults


class TestEulerPoincareTrace:
    def test_trivial_everything(self):
        d = build_root_system("A1")
        one = LaurentCharacter.one(1)
        assert euler_poincare_trace(one, LaurentCharacter.zero(1), one, d) == 1

    def test_missing_isotypic_component(self):
        d = build_root_system("A1")
        defining = LaurentCharacter(1, {(1,): 1, (-1,): 1})
        tau = LaurentCharacter(1, {(4,): 1, (2,): 1, (0,): 1, (-2,): 1, (-4,): 1})
        assert euler_poincare_trace(defining, LaurentCharacter.zero(1), tau, d) == 0

    @pytest.mark.parametrize("label, lam", [("A1", (2,)), ("B2", (0, 1))], ids=["A1", "B2"])
    def test_dual_method_oracle(self, label, lam):
        # the same alternating invariant count with each trivial multiplicity
        # read off the Weyl denominator, not by decompose_character: chi times
        # sum_w (-1)^l(w) x^{w(rho)} has x^rho with coefficient n_0(chi), so
        # n_0(chi) = sum_w (-1)^l(w) [coefficient of x^{rho - w(rho)} in chi]
        from lefschetz.algebra import build_chevalley_algebra, highest_weight_module
        from lefschetz.exact import exterior_power_character

        d = build_root_system(label)
        mod = highest_weight_module(build_chevalley_algebra(d), lam)
        pi = p_char = mod.character()
        tau = LaurentCharacter.one(d.rank)
        greedy = euler_poincare_trace(pi, p_char, tau, d)

        shifts = [
            (tuple(r - c for r, c in zip(d.rho, w.act(d.rho))), (-1) ** w.length)
            for w in d.weyl_group()
        ]
        brute = 0
        for p in range(p_char.dimension() + 1):
            terms = (pi * exterior_power_character(p_char, p)).terms
            trivial = sum(sign * terms.get(shift, 0) for shift, sign in shifts)
            brute += (-1) ** p * trivial
        assert greedy == brute

    def test_virtual_linearity(self):
        d = build_root_system("A1")
        one = LaurentCharacter.one(1)
        adj = LaurentCharacter(1, {(2,): 1, (0,): 1, (-2,): 1})
        p_char = adj
        a = euler_poincare_trace(one, p_char, one, d)
        b = euler_poincare_trace(adj, p_char, one, d)
        both = euler_poincare_trace(one + adj, p_char, one, d)
        assert both == a + b
