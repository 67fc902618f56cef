from fractions import Fraction

import pytest

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

from oracles import sec_tan_series_oracle

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

    def test_everything_above_is_settled(self):
        from hkcert.volume import _fact

        for d, target in ((7, F(71, 67)), (8, F(8341, 8064)), (3, F(3, 2))):
            thr = large_e_threshold(d, target)
            assert F(thr + 1, _fact(d)) > target
            assert F(thr, _fact(d)) <= target
