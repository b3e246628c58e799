"""Clifford action on the spin module and the two character identities."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import spin
from lefschetz.cli import EXIT_VERIFY_FAIL, main
from lefschetz.exact import ExactMatrix, LaurentCharacter
from lefschetz.spin import (
    PolarizedSpace,
    clifford_action,
    clifford_relation_check,
    epsilon_twist_check,
    full_space_character,
    half_spin_characters,
    verify_spin_square,
)


def dense(sp, gen):
    """The 2^m x 2^m matrix of a generator, column s the image of bitmask s;
    an independent dense cross-check of the bitmask Clifford check."""
    n = 1 << sp.m
    out = ExactMatrix(n, n)
    for s in range(n):
        for t, c in clifford_action(sp, gen, s).items():
            out[t, s] = c
    return out


class TestPolarizedSpace:
    def test_default_weights(self):
        sp = PolarizedSpace(2)
        assert sp.torus_weights == ((1, 0), (0, 1))
        assert sp.rank == 2

    def test_pairing(self):
        sp = PolarizedSpace(2)
        assert sp.pairing(("v", 0), ("vhat", 0)) == -1
        assert sp.pairing(("v", 0), ("vhat", 1)) == 0
        assert sp.pairing(("v", 0), ("v", 0)) == 0
        assert sp.pairing(("vhat", 1), ("vhat", 1)) == 0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            PolarizedSpace(0)
        with pytest.raises(ValueError):
            PolarizedSpace(2, ((1, 0),))

    def test_zero_torus_weight_refused(self):
        """With a zero weight both sides of the spin square vanish, so
        neither identity fixes a sign or parity: the space is refused, and
        the message names the zero weight."""
        with pytest.raises(ValueError, match="torus weight 0 is zero"):
            PolarizedSpace(1, ((0,),))
        with pytest.raises(ValueError, match="torus weight 1 is zero"):
            PolarizedSpace(3, ((1, 2), (0, 0), (-1, 1)))


class TestCliffordAction:
    def test_wedge_on_empty(self):
        sp = PolarizedSpace(1)
        assert clifford_action(sp, ("vhat", 0), 0) == {1: 1}

    def test_contraction(self):
        sp = PolarizedSpace(1)
        # the contraction carries coefficient 2 so the Clifford relation
        # holds with the stored pairing q(v, vhat) = -1
        assert clifford_action(sp, ("v", 0), 1) == {0: 2}

    def test_annihilates_missing_factor(self):
        sp = PolarizedSpace(1)
        assert clifford_action(sp, ("v", 0), 0) == {}

    def test_wedge_square_zero(self):
        sp = PolarizedSpace(2)
        m = dense(sp, ("vhat", 1))
        assert not any((m @ m).entries)

    def test_koszul_signs(self):
        sp = PolarizedSpace(2)
        # vhat_1 on (vhat_0) picks up no transposition; vhat_0 on (vhat_1) does
        assert clifford_action(sp, ("vhat", 1), 0b01) == {0b11: -1}
        assert clifford_action(sp, ("vhat", 0), 0b10) == {0b11: 1}

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            clifford_action(PolarizedSpace(1), ("v", 4), 0)

    def test_generator_squares(self):
        sp = PolarizedSpace(3)
        for gen in sp.generators():
            m = dense(sp, gen)
            assert not any((m @ m).entries)  # -q(x) = 0 on isotropic generators

    def test_clifford_relation_through_m6(self):
        for m in range(1, 7):
            assert clifford_relation_check(PolarizedSpace(m))

    def test_dense_anticommutators_through_m3(self):
        for m in range(1, 4):
            sp = PolarizedSpace(m)
            n = 1 << m
            for x in sp.generators():
                for y in sp.generators():
                    # x.y + y.x = -2 q(x, y), entry for entry
                    c = -2 * sp.pairing(x, y)
                    expected = [c * (i == j) for i in range(n) for j in range(n)]
                    xy, yx = dense(sp, x) @ dense(sp, y), dense(sp, y) @ dense(sp, x)
                    assert [a + b for a, b in zip(xy.entries, yx.entries)] == expected

    def test_wrong_contraction_coefficient_fails(self, capsys, monkeypatch):
        # contraction with coefficient 1: x.y + y.x = -q(x,y), not -2q(x,y)
        right = spin.clifford_action

        def halved(space, gen, s):
            out = right(space, gen, s)
            return {t: c // 2 for t, c in out.items()} if gen[0] == "v" else out

        monkeypatch.setattr(spin, "clifford_action", halved)
        for m in range(1, 4):
            assert not clifford_relation_check(PolarizedSpace(m))
        code = main(["verify", "spin", "--max-m", "3"])
        [entry] = json.loads(capsys.readouterr().out)["suite"]
        assert code == EXIT_VERIFY_FAIL
        assert entry["counterexample"] == {"m": 1, "failure": "clifford relation"}

    def test_even_part_preserved_by_generator_pairs(self):
        for m in range(1, 5):
            sp = PolarizedSpace(m)
            even = {s for s in range(1 << m) if bin(s).count("1") % 2 == 0}
            for x in sp.generators():
                for y in sp.generators():
                    prod = dense(sp, x) @ dense(sp, y)
                    for s in even:
                        for t in range(1 << m):
                            if prod[t, s] != 0:
                                assert t in even


class TestHalfSpinCharacters:
    def test_m1(self):
        plus, minus = half_spin_characters(PolarizedSpace(1))
        assert plus.terms == {(1,): 1}
        assert minus.terms == {(-1,): 1}

    def test_m2_plus(self):
        plus, _ = half_spin_characters(PolarizedSpace(2))
        assert plus.terms == {(1, 1): 1, (-1, -1): 1}

    def test_cardinalities(self):
        for m in range(1, 7):
            plus, minus = half_spin_characters(PolarizedSpace(m))
            assert plus.dimension() == minus.dimension() == 2 ** (m - 1)

    def test_difference_vanishes_at_identity(self):
        for m in range(1, 5):
            plus, minus = half_spin_characters(PolarizedSpace(m))
            assert (plus - minus).dimension() == 0


class TestCharacterIdentities:
    def test_spin_square_m1_explicit(self):
        sp = PolarizedSpace(1)
        plus, minus = half_spin_characters(sp)
        delta = plus - minus
        # on the doubled lattice: (x^½ - x^-½)² = x - 2 + x^-1
        assert (delta * delta).terms == {(2,): 1, (0,): -2, (-2,): 1}
        holds, sign = verify_spin_square(sp)
        assert holds and sign == -1

    def test_spin_square_sign_alternates(self):
        for m in range(1, 7):
            holds, sign = verify_spin_square(PolarizedSpace(m))
            assert holds and sign == (-1) ** m

    def test_epsilon_twist_parities(self):
        for m in range(1, 7):
            holds, parity = epsilon_twist_check(PolarizedSpace(m))
            assert holds
            assert parity == ("even" if m % 2 == 0 else "odd")

    def test_full_space_character(self):
        ch = full_space_character(PolarizedSpace(2))
        assert ch.terms == {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}

    def test_nonstandard_torus_weights(self):
        sp = PolarizedSpace(2, ((2, 0), (1, 1)))
        holds, sign = verify_spin_square(sp)
        assert holds and sign == 1
        holds, _ = epsilon_twist_check(sp)
        assert holds


@st.composite
def torus_weights(draw):
    """1 to 4 nonzero torus weights of one rank <= 3, coordinates in -3..3,
    odd ones included, so that ½μ leaves the weight lattice."""
    rank = draw(st.integers(1, 3))
    weight = st.tuples(*[st.integers(-3, 3)] * rank).filter(any)
    return tuple(draw(st.lists(weight, min_size=1, max_size=4)))


@settings(max_examples=150, deadline=None)
@given(torus_weights())
def test_identities_on_random_torus_weights(weights):
    """Both identities hold for any nonzero weights, with the sign and parity
    of m; the half-spin side lives on the doubled lattice, so a check that
    compares it with the undoubled exterior powers fails here."""
    sp = PolarizedSpace(len(weights), weights)
    assert verify_spin_square(sp) == (True, (-1) ** sp.m)
    assert epsilon_twist_check(sp) == (True, "even" if sp.m % 2 == 0 else "odd")
