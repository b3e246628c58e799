"""Spectral terms, geometric coefficients and the balance evaluator."""

import decimal
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefschetz import formula
from lefschetz.algebra import build_chevalley_algebra, highest_weight_module, parabolic_split
from lefschetz.cohomology import (
    ChainComplex,
    build_ce_complex,
    cohomology_table,
    irreducible_character,
)
from lefschetz.euler import trivial_multiplicity
from lefschetz.exact import LaurentCharacter, exterior_power_character
from lefschetz.formula import (
    DET_WEIGHT_BOUND,
    MAX_EXPONENT,
    GeodesicClassRecord,
    SpectralInput,
    SpectralTermTable,
    TestFunction,
    balance_evaluator,
    det_identity_check,
    geometric_term,
    hecht_schmid_check,
    integrate_testfn,
    read_fraction,
    spectral_term,
)
from lefschetz.roots import build_root_system


def setup(label, levi):
    datum = build_root_system(label)
    alg = build_chevalley_algebra(datum)
    return datum, alg, parabolic_split(alg, levi)


def box_fn(coeff=1.0, mu=(Fraction(0),), box=((1.0, 2.0),)):
    return TestFunction(((coeff, tuple(mu), tuple(box)),))


class TestDetIdentity:
    def test_empty(self):
        assert det_identity_check([], ())

    def test_single_weight(self):
        assert det_identity_check([(1,)], (Fraction(2, 3),))

    def test_a2_borel_generic_point(self):
        _, _, split = setup("A2", set())
        weights = [split.restrict_to_a(r) for r in split.n_roots]
        assert det_identity_check(weights, (Fraction(3, 5), Fraction(7, 2)))

    def test_rational_weights(self):
        assert det_identity_check(
            [(Fraction(1, 2),), (Fraction(3, 2),)], (Fraction(2, 3),)
        )

    def test_seeded_sweep(self):
        rng = random.Random(42)
        for label in ("A1", "A2", "B2"):
            datum, alg, _ = setup(label, set())
            for bits in range(1 << datum.rank):
                levi = {i for i in range(datum.rank) if bits >> i & 1}
                split = parabolic_split(alg, levi)
                weights = [split.restrict_to_a(r) for r in split.n_roots]
                for _ in range(10):
                    point = tuple(
                        Fraction(rng.randint(1, 9), rng.randint(1, 9))
                        for _ in range(split.a_dim())
                    )
                    assert det_identity_check(weights, point)

    def test_weight_bound(self):
        """2^k products per point: past the bound, refused before any."""
        assert det_identity_check([(1,)] * DET_WEIGHT_BOUND, (Fraction(2),))
        with pytest.raises(ValueError, match="DET_WEIGHT_BOUND"):
            det_identity_check([(1,)] * (DET_WEIGHT_BOUND + 1), (Fraction(2),))


@st.composite
def det_cases(draw):
    """Up to 8 rational weights of rank <= 3 and a positive rational point."""
    rank = draw(st.integers(1, 3))
    coord = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    weights = draw(st.lists(st.tuples(*[coord] * rank), max_size=8))
    point = draw(st.tuples(*[st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))] * rank))
    return weights, point


@settings(max_examples=100, deadline=None)
@given(det_cases())
def test_det_identity_on_random_rational_weights(case):
    assert det_identity_check(*case)


def ce_spectral_term(split, table, p_m_char, tau_char):
    """The spectral table from the CE cohomology `table` of V: the h-weights
    of H^q grouped by a-weight, and each block's Levi-trivial multiplicity in
    block ⊗ ∧^p p_M ⊗ tau-dual, with the sign (-1)^{p+q+dim n}."""
    datum = split.datum
    out = {}
    for q, degree in enumerate(table.degrees):
        blocks = {}
        for wt, d in degree.items():
            blocks.setdefault(split.restrict_to_a(wt), {})[wt] = d
        for lam, terms in blocks.items():
            h_ch = LaurentCharacter(datum.rank, terms)
            for p in range(p_m_char.dimension() + 1):
                prod = h_ch * exterior_power_character(p_m_char, p) * tau_char.dual()
                inv = trivial_multiplicity(datum, prod, split.levi)
                out[lam] = out.get(lam, 0) + (-1) ** (p + q + len(split.n_roots)) * inv
    return SpectralTermTable(out)


class TestSpectralTerm:
    def test_rank_one_borel_fixture(self):
        _, _, split = setup("A1", set())
        zero = LaurentCharacter.zero(1)
        table = spectral_term(split, (0,), zero, LaurentCharacter.one(1))
        assert table.terms == {(Fraction(0),): -1, (Fraction(-2),): 1}

    def test_full_levi_reduces_to_alternating_invariants(self):
        from lefschetz.euler import euler_poincare_trace

        datum, alg, split = setup("A1", {0})
        zero = LaurentCharacter.zero(1)
        tau = LaurentCharacter.one(1)
        for lam in ((0,), (2,)):
            mod = highest_weight_module(alg, lam)
            table = spectral_term(split, lam, zero, tau)
            expected = euler_poincare_trace(
                mod.character(), LaurentCharacter.zero(1), tau, datum
            )
            assert table.terms.get((), 0) == expected

    def test_linearity_in_tables(self):
        _, _, split = setup("A1", set())
        zero = LaurentCharacter.zero(1)
        tau = LaurentCharacter.one(1)
        t0 = spectral_term(split, (0,), zero, tau)
        t2 = spectral_term(split, (2,), zero, tau)
        combined = SpectralInput(((t0, 2), (t2, -1))).combined()
        for k in set(t0.terms) | set(t2.terms):
            assert combined.terms.get(k, 0) == 2 * t0.terms.get(k, 0) - t2.terms.get(k, 0)

    def test_combined_drops_cancelled_weights(self):
        """Entries that cancel leave no weight behind, even a zero one."""
        table = SpectralTermTable({(Fraction(-2),): 3, (Fraction(1, 2),): 1})
        other = SpectralTermTable({(Fraction(-2),): 1})
        assert SpectralInput(((table, 1), (other, -3))).combined().terms == {(Fraction(1, 2),): 1}
        assert SpectralInput(((table, 2), (table, -2))).combined().terms == {}
        assert SpectralInput(()).combined().terms == {}

    def test_nontrivial_levi_invariants(self):
        _, _, split = setup("A2", {0})
        zero = LaurentCharacter.zero(2)
        tau = LaurentCharacter.one(2)
        table = spectral_term(split, (1, 0), zero, tau)
        assert table.terms == {(Fraction(-4),): 1}
        # the adjoint module cancels completely against trivial Levi data
        table = spectral_term(split, (1, 1), zero, tau)
        assert table.terms == {}

    def test_matches_the_ce_complex(self):
        """Kostant's side equals the table read off the CE complex: each
        a-weight block of H^q ⊗ ∧^p p_M ⊗ tau-dual, its Levi-trivial
        multiplicity.  Every Levi of A2, B2 and G2, lam in {0,1}^r, tau
        trivial or of highest weight omega_1, and p_M = 0 or the Levi module
        of omega_max(L) (the monomial omega_1 for a Borel), which is not
        self-dual when L is proper."""
        nonzero = 0
        for label in ("A2", "B2", "G2"):
            datum, alg, _ = setup(label, set())
            omega_1 = (1, 0)
            taus = (LaurentCharacter.one(2), highest_weight_module(alg, omega_1).character())
            for levi in ((), (0,), (1,), (0, 1)):
                split = parabolic_split(alg, set(levi))
                top = tuple(int(i == max(levi, default=0)) for i in range(2))
                p_m = irreducible_character(datum, top, levi)
                p_m_chars = (LaurentCharacter.zero(2), p_m)
                for lam in itertools.product(range(2), repeat=2):
                    mod = highest_weight_module(alg, lam)
                    table = cohomology_table(build_ce_complex(split, mod))
                    for tau, p_m_char in itertools.product(taus, p_m_chars):
                        expected = ce_spectral_term(split, table, p_m_char, tau)
                        assert spectral_term(split, lam, p_m_char, tau) == expected
                        nonzero += bool(expected.terms)
        assert nonzero > 0

    def test_non_effective_p_m_refused(self):
        _, _, split = setup("A1", set())
        tau = LaurentCharacter.one(1)
        with pytest.raises(ValueError, match="nonnegative multiplicities"):
            spectral_term(split, (0,), -LaurentCharacter.monomial((2,)), tau)

    def test_json_round_trip(self):
        table = SpectralTermTable({(Fraction(-2),): 1, (Fraction(0),): -1})
        assert SpectralTermTable.from_json_obj(table.to_json_obj()) == table


class TestGeometricTerm:
    def test_rank_one_closed_form(self):
        ell = 1.7
        rec = GeodesicClassRecord((-ell,), ell, Fraction(1), 1 + 0j, 1 + 0j)
        value = geometric_term(rec, [(1,)])
        assert abs(value - ell / (1 - math.exp(-ell))) < 1e-14

    def test_covolume_linearity(self):
        rec1 = GeodesicClassRecord((-1.0,), 1.0, Fraction(1), 1 + 0j, 1 + 0j)
        rec2 = GeodesicClassRecord((-1.0,), 2.0, Fraction(1), 1 + 0j, 1 + 0j)
        assert abs(geometric_term(rec2, [(1,)]) - 2 * geometric_term(rec1, [(1,)])) < 1e-14

    def test_zero_omega_trace(self):
        rec = GeodesicClassRecord((-1.0,), 1.0, Fraction(1), 0j, 1 + 0j)
        assert geometric_term(rec, [(1,)]) == 0

    def test_unit_multipliers(self):
        rec = GeodesicClassRecord((-1.0,), 1.0, Fraction(1), 1 + 0j, 1 + 0j)
        u = complex(math.cos(1.0), math.sin(1.0))
        value = geometric_term(rec, [(1,)], [u])
        assert abs(value - 1 / (1 - u * math.exp(-1.0))) < 1e-14

    @pytest.mark.parametrize("a_log", [-1e-3, -1e-6, -1e-9, -1e-12])
    def test_no_cancellation_near_the_wall(self, a_log):
        """c = 1 / (1 - e^a) for the weight (1,) against a 60-digit decimal
        reference: 1 - e^a is formed as -expm1(a), so the relative error stays
        at the rounding of expm1 and one division as a -> 0-."""
        rec = GeodesicClassRecord((a_log,), 1.0, Fraction(1), 1 + 0j, 1 + 0j)
        value = geometric_term(rec, [(1,)])
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            ref = 1 / (1 - decimal.Decimal(a_log).exp())
            assert value.imag == 0
            assert abs(decimal.Decimal(value.real) - ref) / ref < decimal.Decimal(2) ** -51

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-math.pi, math.pi),
        st.sampled_from([-1e-3, -1e-6, -1e-9, -1e-12]) | st.floats(-30.0, -1e-12),
    )
    def test_unit_multiplier_against_decimal(self, theta, a_log):
        """c = 1 / (1 - u e^a) for a unit-modulus u, against a 60-digit
        decimal reference on the float parts of u: 1 - u e^a is formed as
        (1 - u) - u expm1(a), whose two terms are less than a right angle
        apart, so neither part cancels."""
        u = complex(math.cos(theta), math.sin(theta))
        rec = GeodesicClassRecord((a_log,), 1.0, Fraction(1), 1 + 0j, 1 + 0j)
        value = geometric_term(rec, [(1,)], [u])
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            D = decimal.Decimal
            e = D(a_log).exp()
            re, im = 1 - D(u.real) * e, -D(u.imag) * e  # 1 - u e^a
            norm = re * re + im * im
            err_re, err_im = D(value.real) - re / norm, D(value.imag) + im / norm
            # |c - ref|^2 / |ref|^2, with |ref|^2 = 1 / norm
            assert (err_re * err_re + err_im * err_im) * norm < D(2) ** -100

    def test_record_outside_chamber_rejected(self):
        rec = GeodesicClassRecord((1.0,), 1.0, Fraction(1), 1 + 0j, 1 + 0j)
        with pytest.raises(ValueError):
            geometric_term(rec, [(1,)])

    def test_json_round_trip(self):
        rec = GeodesicClassRecord((-1.5, -0.5), 2.0, Fraction(3, 2), 1 + 2j, 0.5 + 0j)
        assert GeodesicClassRecord.from_json_obj(rec.to_json_obj()) == rec


def hecht_schmid(mod, split):
    """The check on the homology table of (split, mod)."""
    return hecht_schmid_check(mod, split, cohomology_table(ChainComplex(split, mod)))


class TestHechtSchmid:
    def test_trivial_a1(self):
        _, alg, split = setup("A1", set())
        assert hecht_schmid(highest_weight_module(alg, (0,)), split)

    def test_empty_n(self):
        _, alg, split = setup("A1", {0})
        assert hecht_schmid(highest_weight_module(alg, (2,)), split)

    def test_sweep_a1_a2(self):
        for label in ("A1", "A2"):
            datum, alg, _ = setup(label, set())
            for bits in range(1 << datum.rank):
                levi = {i for i in range(datum.rank) if bits >> i & 1}
                split = parabolic_split(alg, levi)
                for lam in itertools.product(range(3), repeat=datum.rank):
                    mod = highest_weight_module(alg, lam)
                    assert hecht_schmid(mod, split), (label, levi, lam)


class TestIntegration:
    def test_interval_length(self):
        assert abs(integrate_testfn(box_fn(), (Fraction(0),)) - 1) < 1e-15

    def test_exponential(self):
        phi = box_fn(mu=(Fraction(-1),), box=((0.5, 1.5),))
        expected = math.exp(-0.5) - math.exp(-1.5)
        assert abs(integrate_testfn(phi, (Fraction(0),)) - expected) < 1e-15

    def test_product_of_coordinates(self):
        phi = TestFunction(
            ((2.0, (Fraction(0), Fraction(-1)), ((1.0, 2.0), (0.5, 1.5))),)
        )
        expected = 2.0 * 1.0 * (math.exp(-0.5) - math.exp(-1.5))
        assert abs(integrate_testfn(phi, (Fraction(0), Fraction(0))) - expected) < 1e-14

    @pytest.mark.parametrize("e", [1e-12, 1e-15])
    def test_small_exponent_is_stable(self, e):
        # on [0.5, 2] the integral of exp(e t) is 1.5 + 1.875 e + O(e^2); the
        # stated error bound is 1e-15, about four units in the last place of 1.5
        phi = box_fn(box=((0.5, 2.0),))
        assert abs(integrate_testfn(phi, (Fraction(e),)) - (1.5 + 1.875 * e)) < 1e-15

    def test_bad_box_rejected(self):
        with pytest.raises(ValueError):
            box_fn(box=((-1.0, 2.0),))

    def test_evaluate_inside_and_outside(self):
        phi = box_fn(mu=(Fraction(1),))
        assert phi.evaluate((1.5,)) == pytest.approx(math.exp(1.5))
        assert phi.evaluate((5.0,)) == 0.0


class TestReadFraction:
    @pytest.mark.parametrize(
        "v", [3, 0.5, "3/2", " -7 ", "1e400", "1e-400", "2.5E+3", f"1e{MAX_EXPONENT}"]
    )
    def test_reads_what_fraction_reads(self, v):
        assert read_fraction(v) == Fraction(v)

    @pytest.mark.parametrize("v", [f"1e{MAX_EXPONENT + 1}", f"-2.5E-{MAX_EXPONENT + 1} "])
    def test_exponent_over_the_limit_refused_before_fraction(self, monkeypatch, v):
        """The exponent is read off the string: Fraction is never called."""

        def refuse(*args):
            raise AssertionError("Fraction called")

        monkeypatch.setattr(formula, "Fraction", refuse)
        with pytest.raises(ValueError, match=f"MAX_EXPONENT = {MAX_EXPONENT}"):
            read_fraction(v)

    @pytest.mark.parametrize("v", ["1e", "1e400/3", "e5", [1]])
    def test_malformed_values_raise_as_fraction_does(self, v):
        with pytest.raises((ValueError, TypeError)):
            Fraction(v)
        with pytest.raises((ValueError, TypeError)):
            read_fraction(v)


class TestBalance:
    def test_empty_inputs(self):
        _, alg, split = setup("A1", set())
        spec = SpectralInput(())
        phi = box_fn()
        assert balance_evaluator(spec, [], phi, split=split) == (0.0, 0.0, 0.0)

    def test_constructed_consistent_fixture(self):
        _, alg, split = setup("A1", set())
        phi = box_fn(box=((0.2, 3.0),))
        ell = 1.0
        rec = GeodesicClassRecord((-ell,), 1.0, Fraction(1), 1 + 0j, 1 + 0j)
        n_weights = [split.restrict_to_a(r) for r in split.n_roots]
        local = geometric_term(rec, n_weights) * phi.evaluate((ell,))
        lam = (Fraction(-2),)
        per_unit = integrate_testfn(phi, tuple(-c for c in lam))
        # one spectral entry tuned so the global side equals the local side
        table = SpectralTermTable({lam: 1})
        scale = local.real / per_unit
        phi_scaled = TestFunction(tuple((c * scale, mu, box) for c, mu, box in phi.pieces))
        g, l, r = balance_evaluator(
            SpectralInput(((table, 1),)), [rec], phi_scaled, split=split
        )
        # the local side is also scaled by `scale`, so rescale the record
        rec2 = GeodesicClassRecord((-ell,), 1.0 / scale, Fraction(1), 1 + 0j, 1 + 0j)
        g, l, r = balance_evaluator(
            SpectralInput(((table, 1),)), [rec2], phi_scaled, split=split
        )
        assert abs(r) < 1e-12 * max(1.0, abs(g))

    def test_linearity_in_test_function(self):
        _, alg, split = setup("A1", set())
        table = SpectralTermTable({(Fraction(-2),): 1, (Fraction(0),): -1})
        spec = SpectralInput(((table, 1),))
        rec = GeodesicClassRecord((-1.0,), 1.0, Fraction(1), 1 + 0j, 1 + 0j)
        phi = box_fn(box=((0.5, 2.0),))
        g1, l1, r1 = balance_evaluator(spec, [rec], phi, split=split)
        phi3 = TestFunction(tuple((c * 3.0, mu, box) for c, mu, box in phi.pieces))
        g3, l3, r3 = balance_evaluator(spec, [rec], phi3, split=split)
        assert abs(g3 - 3 * g1) < 1e-12
        assert abs(l3 - 3 * l1) < 1e-12
        assert abs(r3 - 3 * r1) < 1e-12

    def test_linearity_in_multiplicities(self):
        _, alg, split = setup("A1", set())
        table = SpectralTermTable({(Fraction(-2),): 1})
        phi = box_fn()
        g1, _, _ = balance_evaluator(SpectralInput(((table, 1),)), [], phi, split=split)
        g5, _, _ = balance_evaluator(SpectralInput(((table, 5),)), [], phi, split=split)
        assert abs(g5 - 5 * g1) < 1e-12
