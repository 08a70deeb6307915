"""Unit tests for the binomial prioritization tests (cross-checked vs scipy)."""

import math

import pytest
from scipy.stats import binom

from repro.core.stattests import (
    binom_tail_lower,
    binom_tail_upper,
    c_blocks_for,
    fishers_method,
    log_binom_coefficient,
    log_binom_pmf,
    normal_tail_lower,
    normal_tail_upper,
    prioritization_test,
    windowed_prioritization_test,
)


class TestLogBinomials:
    def test_coefficient_matches_math_comb(self):
        for n, k in [(10, 3), (50, 25), (200, 7)]:
            assert log_binom_coefficient(n, k) == pytest.approx(
                math.log(math.comb(n, k))
            )

    def test_coefficient_out_of_range(self):
        assert log_binom_coefficient(5, 6) == float("-inf")
        assert log_binom_coefficient(5, -1) == float("-inf")

    def test_pmf_matches_scipy(self):
        for n, p in [(20, 0.1), (100, 0.5), (500, 0.03)]:
            for k in (0, 1, n // 2, n):
                expected = binom.logpmf(k, n, p)
                assert log_binom_pmf(k, n, p) == pytest.approx(expected, abs=1e-9)

    def test_pmf_degenerate_p(self):
        assert log_binom_pmf(0, 10, 0.0) == 0.0
        assert log_binom_pmf(1, 10, 0.0) == float("-inf")
        assert log_binom_pmf(10, 10, 1.0) == 0.0

    def test_pmf_invalid_p(self):
        with pytest.raises(ValueError):
            log_binom_pmf(1, 10, 1.5)


class TestExactTails:
    @pytest.mark.parametrize("n,p", [(10, 0.3), (100, 0.1), (1343, 0.0375)])
    def test_upper_tail_matches_scipy(self, n, p):
        for x in (0, 1, n // 4, n // 2, n):
            expected = float(binom.sf(x - 1, n, p))
            assert binom_tail_upper(x, n, p) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n,p", [(10, 0.3), (100, 0.1), (1343, 0.0375)])
    def test_lower_tail_matches_scipy(self, n, p):
        for x in (0, 1, n // 4, n // 2, n):
            expected = float(binom.cdf(x, n, p))
            assert binom_tail_lower(x, n, p) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_paper_table2_f2pool_row_is_extreme(self):
        # x=466 of y=839 c-blocks at theta0=0.1753: p must be ~0.
        p = binom_tail_upper(466, 839, 0.1753)
        assert p < 1e-100

    def test_deep_tail_no_underflow_to_garbage(self):
        p = binom_tail_upper(900, 1000, 0.01)
        assert 0.0 <= p < 1e-300 or p == 0.0

    def test_boundaries(self):
        assert binom_tail_upper(0, 10, 0.5) == 1.0
        assert binom_tail_upper(11, 10, 0.5) == 0.0
        assert binom_tail_lower(-1, 10, 0.5) == 0.0
        assert binom_tail_lower(10, 10, 0.5) == 1.0


class TestNormalApproximation:
    def test_tracks_exact_for_large_n(self):
        # Far-tail normal approximations are only log-scale accurate;
        # compare log p-values, which is what test decisions rest on.
        n, p = 5000, 0.12
        for x in (550, 600, 650, 700):
            exact = binom_tail_upper(x, n, p)
            approx = normal_tail_upper(x, n, p)
            assert math.log(approx) == pytest.approx(math.log(exact), rel=0.15)

    def test_lower_tracks_exact(self):
        n, p = 5000, 0.12
        for x in (500, 550, 600):
            exact = binom_tail_lower(x, n, p)
            approx = normal_tail_lower(x, n, p)
            assert math.log(approx) == pytest.approx(math.log(exact), rel=0.15)

    def test_degenerate_n(self):
        assert normal_tail_upper(0, 0, 0.5) == 1.0


class TestFishersMethod:
    def test_uniform_ps_stay_moderate(self):
        assert 0.3 < fishers_method([0.5, 0.5, 0.5]) < 1.0

    def test_small_ps_combine_smaller(self):
        combined = fishers_method([0.01, 0.01, 0.01])
        assert combined < 0.001

    def test_single_p(self):
        assert fishers_method([0.05]) == pytest.approx(0.05, rel=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fishers_method([])

    def test_zero_p_clipped(self):
        assert fishers_method([0.0, 0.5]) >= 0.0

    def test_matches_scipy_chi2_sf_bit_for_bit(self):
        from scipy.stats import chi2

        grid = [1e-300, 1e-200, 1e-12, 1e-6, 0.001, 0.01, 0.05, 0.3, 0.5,
                0.9, 0.999, 1.0]
        clipped_away = [0.0, 1e-320, 1.5]
        for k in range(1, 6):
            for start in range(len(grid)):
                ps = [grid[(start + i * 5) % len(grid)] for i in range(k)]
                for extra in ([], clipped_away[k % 3 : k % 3 + 1]):
                    values = ps + extra
                    clipped = [min(max(p, 1e-300), 1.0) for p in values]
                    statistic = -2.0 * sum(math.log(p) for p in clipped)
                    expected = float(chi2.sf(statistic, 2 * len(clipped)))
                    assert fishers_method(values) == expected, values


class TestPrioritizationTest:
    def test_counts_x_and_y(self):
        miners = ["m"] * 7 + ["other"] * 3
        result = prioritization_test("m", 0.2, miners)
        assert result.x == 7 and result.y == 10
        assert result.observed_share == pytest.approx(0.7)

    def test_acceleration_detected(self):
        miners = ["m"] * 70 + ["other"] * 30
        result = prioritization_test("m", 0.2, miners)
        assert result.accelerates()
        assert not result.decelerates()

    def test_neutral_not_flagged(self):
        miners = ["m"] * 20 + ["other"] * 80
        result = prioritization_test("m", 0.2, miners)
        assert not result.accelerates()
        assert not result.decelerates()

    def test_deceleration_detected(self):
        miners = ["other"] * 100
        result = prioritization_test("m", 0.2, miners)
        assert result.decelerates(alpha=0.001)

    def test_directional_complement(self):
        # P(B >= x) + P(B <= x-1) == 1 exactly.
        miners = ["m"] * 3 + ["other"] * 17
        result = prioritization_test("m", 0.25, miners)
        lower = binom_tail_lower(result.x - 1, result.y, 0.25)
        assert result.p_accelerate + lower == pytest.approx(1.0)

    def test_invalid_theta0(self):
        with pytest.raises(ValueError):
            prioritization_test("m", 0.0, ["m"])

    def test_normal_approximation_mode(self):
        miners = ["m"] * 700 + ["other"] * 300
        exact = prioritization_test("m", 0.2, miners)
        approx = prioritization_test("m", 0.2, miners, use_normal_approximation=True)
        assert math.isclose(
            math.log(max(approx.p_accelerate, 1e-300)),
            math.log(max(exact.p_accelerate, 1e-300)),
            rel_tol=0.2,
        )


class TestWindowedTest:
    def test_combines_windows(self):
        windows = [
            (0.2, ["m"] * 10 + ["o"] * 10),
            (0.3, ["m"] * 12 + ["o"] * 8),
        ]
        combined = windowed_prioritization_test("m", windows)
        assert 0.0 <= combined <= 1.0
        assert combined < 0.01  # both windows over-represent m

    def test_empty_windows_skipped(self):
        windows = [(0.2, []), (0.2, ["m"] * 5)]
        assert windowed_prioritization_test("m", windows) < 1.0

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            windowed_prioritization_test("m", [(0.2, [])])

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            windowed_prioritization_test("m", [(0.2, ["m"])], direction="sideways")


class TestCBlocks:
    def test_unique_heights_counted_once(self):
        block_miners = {0: "a", 1: "b", 2: "a"}
        labels = c_blocks_for(block_miners, [0, 0, 2, None])
        assert labels == ["a", "a"]

    def test_unknown_heights_skipped(self):
        assert c_blocks_for({0: "a"}, [5]) == []
