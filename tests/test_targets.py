import re
from dataclasses import replace
from fractions import Fraction

import pytest

from hkcert import targets
from hkcert.targets import (
    TargetValue,
    dimension_target,
    ehk_quadric_dim7,
    large_e_threshold,
    m_coeffs,
    verify_quadric_identities,
    wy_target,
    zigzag_numbers,
)

from oracles import poly_derivative, poly_eval, sec_tan_series_oracle

F = Fraction


class TestSeries:
    def test_zigzag_numbers(self):
        assert zigzag_numbers(10) == [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]

    def test_against_division_oracle(self):
        assert m_coeffs(14) == sec_tan_series_oracle(14)[1:]

    def test_first_values(self):
        m = m_coeffs(8)
        assert m[0] == 1
        assert m[1] == F(1, 2)

    def test_dimension_seven_value(self):
        m = m_coeffs(7)
        assert m[6] == F(17, 315)
        assert 1 + m[6] == F(332, 315)

    def test_dimension_eight_value(self):
        m = m_coeffs(8)
        assert m[7] == F(277, 8064)
        assert 1 + m[7] == F(8341, 8064)

    def test_positive_and_decreasing(self):
        m = m_coeffs(14)
        assert all(c > 0 for c in m)
        assert all(a > b for a, b in zip(m[1:], m[2:]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            m_coeffs(0)


class TestQuadric:
    def test_worst_characteristic(self):
        assert ehk_quadric_dim7(3) == F(71, 67)

    def test_p5_against_big_integer_oracle(self):
        assert ehk_quadric_dim7(5) == F(215292, 203868) == F(2563, 2427)

    def test_rational_parameter(self):
        v = ehk_quadric_dim7(F(7, 2))
        assert v.denominator > 1
        assert F(332, 315) < v < F(71, 67)

    def test_limit_approach(self):
        assert abs(float(ehk_quadric_dim7(10**4)) - float(F(332, 315))) < 1e-6
        assert ehk_quadric_dim7(10**4) > F(332, 315)

    def test_rejects_small_parameter(self):
        with pytest.raises(ValueError):
            ehk_quadric_dim7(2)

    def test_identities_all_hold(self):
        outcome = verify_quadric_identities()
        assert outcome.decomposition_identity
        assert outcome.derivative_identity
        assert outcome.derivative_negative
        assert outcome.strictly_decreasing
        assert outcome.all_hold
        assert outcome.sampled_parameters[0] == 3
        assert outcome.sampled_parameters[-1] == 199

    def test_coefficient_helpers_match_the_list_oracles(self):
        for coeffs in (targets._QUADRIC_NUM, targets._DER_DEN, (F(1, 2), 0, 3, 1), (5,)):
            assert targets._derivative(coeffs) == tuple(poly_derivative(list(coeffs)))
            for x in (0, 3, F(-7, 2)):
                assert targets._at(coeffs, x) == poly_eval(coeffs, x)

    @pytest.mark.parametrize(
        "name, flag",
        [
            ("_RES_NUM", "decomposition_identity"),
            ("_RES_DEN", "decomposition_identity"),
            ("_DER_NUM", "derivative_identity"),
            ("_DER_DEN", "derivative_identity"),
        ],
    )
    def test_each_identity_fails_on_any_changed_coefficient(self, monkeypatch, name, flag):
        expected = replace(verify_quadric_identities(7), **{flag: False})
        data = getattr(targets, name)
        for i in range(len(data)):
            monkeypatch.setattr(targets, name, data[:i] + (data[i] + 1,) + data[i + 1:])
            assert verify_quadric_identities(7) == expected, (name, i)

    def test_a_change_that_vanishes_at_nine_points_is_caught(self, monkeypatch):
        # Adding (p - 1) ... (p - 8) to _DER_DEN moves the derivative identity's
        # cross product by n'd - nd' (zero at p = 0) times it: zero at p = 0..8.
        bump = (1,)
        for i in range(1, 9):
            bump = tuple(a - i * b for a, b in zip((0,) + bump, bump + (0,)))
        changed = tuple(a + b for a, b in zip(targets._DER_DEN, bump))
        monkeypatch.setattr(targets, "_DER_DEN", changed)
        outcome = verify_quadric_identities(7)
        assert outcome.decomposition_identity and not outcome.derivative_identity

    @pytest.mark.parametrize("der_num", [(0, 128, 0, -896, 0, 488), (5, 0, 0)])
    def test_sign_needs_nonnegative_coefficients_past_the_constant(self, monkeypatch, der_num):
        monkeypatch.setattr(targets, "_DER_NUM", der_num)
        assert not verify_quadric_identities(7).derivative_negative

    def test_decomposition_at_three(self):
        lhs = F(71, 67) - F(332, 315)
        rhs = F(244 * 9 + 224, 4725 * 81 + 4095 * 9 + 2520)
        assert lhs == rhs

    def test_strict_decrease_chain(self):
        assert ehk_quadric_dim7(3) > ehk_quadric_dim7(5) > ehk_quadric_dim7(7)

    def test_dominates_series_limit(self):
        limit = 1 + m_coeffs(7)[-1]
        for p in range(3, 200, 2):
            assert ehk_quadric_dim7(p) > limit


class TestWyTarget:
    def test_dimension7_with_characteristic(self):
        t = wy_target(7, 3)
        assert t.value == F(71, 67)
        assert t.provenance == "closed-form-d7"
        assert t.characteristic == 3

    def test_dimension7_series(self):
        t = wy_target(7)
        assert t.value == F(332, 315)
        assert t.provenance == "series"

    def test_dimension8_series(self):
        assert wy_target(8).value == F(8341, 8064)

    def test_no_closed_form_elsewhere(self):
        with pytest.raises(ValueError, match="no closed form"):
            wy_target(6, 3)

    def test_target_value_validation(self):
        with pytest.raises(ValueError):
            TargetValue(3, None, F(1), "series")
        with pytest.raises(ValueError):
            TargetValue(3, None, F(3, 2), "mystery")

    @pytest.mark.parametrize(
        "dimension, characteristic, bad",
        [(True, None, True), (7.0, None, 7.0), (0, None, 0),
         (7, 2.5, 2.5), (7, 2, 2), (7, True, True)],
        ids=["d-bool", "d-float", "d-zero", "p-float", "p-two", "p-bool"],
    )
    def test_target_value_checks_dimension_and_characteristic(
        self, dimension, characteristic, bad
    ):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            TargetValue(dimension, characteristic, 2, "series")

    def test_target_value_reads_its_value_exactly(self):
        assert TargetValue(7, None, "3/2", "series").value == F(3, 2)
        assert TargetValue(7, None, 2, "series").value == F(2)
        with pytest.raises(TypeError, match="exact rational"):
            TargetValue(7, None, 2.5, "series")

    @pytest.mark.parametrize(
        "args",
        [(7, F(7, 2)), (7, "7/2"), (7, 3.0), (7, True), (7, 2), (True,), (0,), (7.0,), ("7",)],
        ids=repr,
    )
    def test_rejects_non_integer_dimension_or_characteristic(self, args):
        with pytest.raises(ValueError, match=re.escape(repr(args[-1]))):
            wy_target(*args)


class TestDimensionTarget:
    def test_dimension7_is_the_quadric_at_three(self):
        target = dimension_target(7)
        assert target == wy_target(7, 3)
        assert target.value == F(71, 67)

    @pytest.mark.parametrize("d", [2, 6, 8, 10])
    def test_other_dimensions_use_the_series(self, d):
        assert dimension_target(d) == wy_target(d)
        assert dimension_target(d).provenance == "series"


class TestThreshold:
    def test_dimension7(self):
        assert large_e_threshold(7, F(71, 67)) == 5340

    def test_trivial(self):
        assert large_e_threshold(1, 2) == 2

    def test_dimension8(self):
        assert large_e_threshold(8, F(8341, 8064)) == 41705

    @pytest.mark.parametrize("d", [True, 7.5, 0, -1, "7"])
    def test_rejects_non_integer_dimension(self, d):
        with pytest.raises(ValueError, match=re.escape(repr(d))):
            large_e_threshold(d, 2)

    def test_everything_above_is_settled(self):
        from hkcert.volume import _fact

        for d, target in ((7, F(71, 67)), (8, F(8341, 8064)), (3, F(3, 2))):
            thr = large_e_threshold(d, target)
            assert F(thr + 1, _fact(d)) > target
            assert F(thr, _fact(d)) <= target
