"""Statistical kernel tests.

Where the implementation leans on a library routine, the test checks it
against an independent route: the t-distribution p-value is verified by
numerical quadrature of the density, the logistic Wald p against a
likelihood-ratio fit, and BH-FDR against a brute-force scan over all
candidate thresholds.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize
from scipy.stats import chi2

import scrublang
import evaluation_oracle
from logistic_oracle import FAILED_FITS
from scrublang import stats
from scrublang.modeling import bootstrap_accuracy_diff
from scrublang.stats import (
    DegenerateDataError,
    Fit,
    _count,
    _is_constant,
    _pearson_deltas,
    bh_fdr,
    bootstrap_corr_diff,
    bootstrap_score_diff,
    cohens_d_paired,
    logistic_slope_p,
    paired_stats,
    paired_t_test,
    pearson_r,
    score,
)
from scrublang.synth import make_fixture

# A constant vector whose mean does not round-trip: x - x.mean() is ~1e-15,
# not 0, so a variance-based degeneracy test misses it.
CONSTANT = [5.961, 5.961, 5.961]


def t_two_sided_p_quadrature(t: float, df: int) -> float:
    """Two-sided t-test p by integrating the density (oracle route)."""

    def density(x):
        c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
        return c * (1 + x * x / df) ** (-(df + 1) / 2)

    tail, _ = integrate.quad(density, abs(t), np.inf)
    return 2 * tail


def bh_bruteforce(p_values, alpha):
    """Step-up by explicit scan over every candidate k."""
    p = list(p_values)
    m = len(p)
    ranked = sorted(p)
    k_star = 0
    for k in range(1, m + 1):
        if ranked[k - 1] <= k * alpha / m:
            k_star = k
    if k_star == 0:
        return [False] * m
    threshold = ranked[k_star - 1]
    return [v <= threshold for v in p]


def logistic_lr_p(x, y01):
    """Likelihood-ratio p for the slope, fit by direct optimization (oracle)."""

    def nll(beta):
        eta = beta[0] + beta[1] * x
        return np.sum(np.logaddexp(0, eta)) - np.sum(y01 * eta)

    full = optimize.minimize(nll, np.zeros(2), method="BFGS")
    pbar = y01.mean()
    null_ll = np.sum(y01 * np.log(pbar) + (1 - y01) * np.log1p(-pbar))
    lr = 2 * ((-full.fun) - null_ll)
    return float(chi2.sf(max(lr, 0.0), df=1))


class TestCohensD:
    def test_equal_vectors(self):
        assert cohens_d_paired([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_value(self):
        # diffs [2, 4, 6]: mean 4, sd 2
        assert cohens_d_paired([3, 5, 7], [1, 1, 1]) == 2.0

    def test_constant_nonzero_diffs_degenerate(self):
        with pytest.raises(DegenerateDataError):
            cohens_d_paired([2, 3, 4], [1, 2, 3])

    def test_constant_nonzero_diffs_with_rounded_mean_degenerate(self):
        with pytest.raises(DegenerateDataError):
            cohens_d_paired(CONSTANT, [0, 0, 0])

    @given(
        st.lists(
            st.tuples(
                st.floats(-50, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False)
            ),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    @example(pairs=[(5e-324, 0.0), (0.0, 0.0)])  # spread too small to square
    def test_swap_negates(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        try:
            d = cohens_d_paired(x, y)
        except DegenerateDataError:
            return
        assert cohens_d_paired(y, x) == -d

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_an_error(self, bad):
        # an infinity used to come back as a NaN d
        with pytest.raises(ValueError, match="finite"):
            cohens_d_paired([1, 2, bad], [0, 1, 2])
        with pytest.raises(ValueError, match="finite"):
            cohens_d_paired([0, 1, 2], [1, 2, bad])


class TestPairedT:
    def test_identical(self):
        t, p = paired_t_test([4, 4, 4], [4, 4, 4])
        assert t == 0.0 and p == 1.0

    def test_constant_nonzero_diffs_degenerate(self):
        with pytest.raises(DegenerateDataError):
            paired_t_test(CONSTANT, [0, 0, 0])

    def test_hand_value_with_quadrature_oracle(self):
        t, p = paired_t_test([3, 5, 7], [1, 1, 1])
        assert t == pytest.approx(4 / (2 / math.sqrt(3)), abs=1e-12)
        assert p == pytest.approx(t_two_sided_p_quadrature(t, df=2), abs=1e-10)

    def test_sign_convention_first_argument_dominant(self):
        rng = np.random.default_rng(0)
        sms = rng.normal(0.1, 0.02, 40)
        fb = sms + rng.normal(0.05, 0.01, 40)
        t, p = paired_t_test(fb, sms)
        assert t > 0
        t2, _ = paired_t_test(sms, fb)
        assert t2 == -t

    def test_p_matches_quadrature_across_sizes(self):
        rng = np.random.default_rng(1)
        for n in (3, 5, 12, 60):
            x = rng.normal(0.2, 1.0, n)
            y = rng.normal(0.0, 1.0, n)
            t, p = paired_t_test(x, y)
            assert p == pytest.approx(t_two_sided_p_quadrature(t, df=n - 1), rel=1e-8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_an_error(self, bad):
        # a NaN used to come back as (nan, nan)
        with pytest.raises(ValueError, match="finite"):
            paired_t_test([1, 2, bad], [0, 1, 2])
        with pytest.raises(ValueError, match="finite"):
            paired_t_test([0, 1, 2], [1, 2, bad])


class TestPearson:
    def test_perfect(self):
        assert pearson_r([1, 2, 3], [1, 2, 3]) == 1.0
        assert pearson_r([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_value(self):
        assert pearson_r([1, 2, 3], [1, 2, 4]) == pytest.approx(0.9819805060619656, abs=1e-12)

    def test_zero_variance_degenerate(self):
        with pytest.raises(DegenerateDataError):
            pearson_r([1, 1, 1], [1, 2, 3])

    def test_constant_with_rounded_mean_degenerate(self):
        with pytest.raises(DegenerateDataError):
            pearson_r(CONSTANT, [0, 0, 1])
        with pytest.raises(DegenerateDataError):
            pearson_r([0, 0, 1], CONSTANT)

    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False).map(lambda v: round(v, 3)),
                st.floats(-10, 10, allow_nan=False).map(lambda v: round(v, 3)),
            ),
            min_size=3,
            max_size=30,
        ),
        st.floats(0.1, 5).map(lambda v: round(v, 3)),
        st.floats(-3, 3).map(lambda v: round(v, 3)),
    )
    @settings(max_examples=100, deadline=None)
    @example(pairs=[(5.961, 0), (5.961, 0), (5.961, 1)], scale=1.5, shift=0.0)
    def test_positive_affine_invariance(self, pairs, scale, shift):
        # values are rounded so the spread cannot vanish into float rounding
        x = np.array([a for a, _ in pairs])
        y = np.array([b for _, b in pairs])
        try:
            r = pearson_r(x, y)
        except DegenerateDataError:
            return
        assert pearson_r(scale * x + shift, y) == pytest.approx(r, abs=1e-6)

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e160])
    def test_tiny_and_huge_samples(self, scale):
        # sum_xx * sum_yy underflows at 1e-100 and overflows at 1e160: the
        # unscaled products read 1.0 and -1.0 there
        x, y = np.array([1, 2, 4]) * scale, np.array([1, 3, 2]) * scale
        assert pearson_r(x, y) == pytest.approx(3 / math.sqrt(84), rel=1e-12)

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6).map(lambda v: round(v, 3)),
                st.floats(-1e6, 1e6).map(lambda v: round(v, 3)),
            ),
            min_size=2,
            max_size=30,
        ),
        st.integers(-30, 30),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_bits_as_the_unscaled_formula_in_the_normal_range(self, pairs, exponent):
        # the scales are exact powers of two, so where no product leaves the
        # normal range r is the unscaled formula's, bit for bit; values are
        # rounded, so that none is small enough to leave it
        x = np.array([a for a, _ in pairs]) * 10.0**exponent
        y = np.array([b for _, b in pairs])
        try:
            r = pearson_r(x, y)
        except DegenerateDataError:
            return
        xd, yd = x - x.mean(), y - y.mean()
        unscaled = float(xd @ yd) / np.sqrt(float(xd @ xd) * float(yd @ yd))
        assert r == min(1.0, max(-1.0, unscaled))


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_an_error(self, bad):
        # max(-1.0, nan) is -1.0: a NaN used to read as a perfect negative r
        with pytest.raises(ValueError, match="finite"):
            pearson_r([bad, 1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="finite"):
            pearson_r([1, 2, 3], [1, bad, 2])


@pytest.mark.parametrize("metric", ["pearson_r", "accuracy"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_score_of_non_finite_input_is_an_error(metric, bad):
    # a NaN estimate used to count as a tie, so the accuracy below read 1.0
    with pytest.raises(ValueError, match="finite"):
        score(metric, [bad, 1, -1], [-1, 1, -1])
    with pytest.raises(ValueError, match="finite"):
        score(metric, [-1, 1, -1], [1, bad, -1])


class TestBhFdr:
    def test_spec_example(self):
        assert bh_fdr([0.01, 0.02, 0.04, 0.5], 0.05) == [True, True, False, False]

    def test_all_ones(self):
        assert bh_fdr([1.0, 1.0, 1.0], 0.05) == [False, False, False]

    def test_single_value(self):
        assert bh_fdr([0.04], 0.05) == [True]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bh_fdr([0.5, 1.5], 0.05)

    def test_rejects_nan(self):
        # a NaN passed the range check and still counted in m
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bh_fdr([math.nan, 0.01], 0.05)

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=50),
        st.sampled_from([0.01, 0.05, 0.1, 0.2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce(self, p_values, alpha):
        assert bh_fdr(p_values, alpha) == bh_bruteforce(p_values, alpha)

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_order_equivariant(self, p_values):
        flags = bh_fdr(p_values, 0.05)
        rev = bh_fdr(list(reversed(p_values)), 0.05)
        assert flags == list(reversed(rev))


def logistic_fit(values, labels):
    """``logistic_slope_p`` on one column: (p, outcome), with the higher
    label as class 1."""
    x = np.asarray(values, dtype=float)
    y = np.asarray(labels)
    fit = logistic_slope_p(x[y == y.max()][:, None], x[y != y.max()][:, None])
    return fit.p[0], Fit(fit.outcome[0])


class TestPairedStats:
    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(-50, 50, allow_nan=False), min_size=2 * n, max_size=2 * n),
                min_size=1,
                max_size=6,
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    @example(columns=[[1.0, 2.0, 4.0, 0.0, 1.0, 1.0], CONSTANT + [0.0] * 3, [0.1] * 6])
    def test_columns_are_bit_identical_to_each_column_alone(self, columns):
        """A column's statistics do not depend on the columns batched with
        it, and its means are the means of the column taken on its own."""
        n = len(columns[0]) // 2
        x = np.array([c[:n] for c in columns]).T
        y = np.array([c[n:] for c in columns]).T
        batch = paired_stats(x, y)
        for j in range(len(columns)):
            alone = paired_stats(x[:, [j]], y[:, [j]])
            for got, want in zip(batch, alone):
                assert repr(got[j]) == repr(want[0])
            assert (batch.mean_x[j], batch.mean_y[j]) == (x[:, j].mean(), y[:, j].mean())

    def test_degenerate_and_equal_columns(self):
        x = np.array([[2.0, 4.0, 3.0], [3.0, 4.0, 5.0], [4.0, 4.0, 7.0]])
        y = np.array([[1.0, 4.0, 1.0], [2.0, 4.0, 1.0], [3.0, 4.0, 1.0]])
        paired = paired_stats(x, y)
        assert paired.degenerate.tolist() == [True, False, False]
        assert np.isnan(paired.d[0]) and np.isnan(paired.t[0]) and paired.p[0] == 1.0
        assert (paired.d[1], paired.t[1], paired.p[1]) == (0.0, 0.0, 1.0)
        assert paired.d[2] == 2.0

    def test_shapes_checked(self):
        with pytest.raises(ValueError):
            paired_stats(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            paired_stats(np.zeros((1, 2)), np.zeros((1, 2)))


class TestLogistic:
    def test_constant_feature_p_is_one(self):
        x = np.full(60, 3.0)
        y = np.r_[np.zeros(30), np.ones(30)]
        assert logistic_fit(x, y) == (1.0, Fit.CONSTANT)

    def test_strongly_separated_agrees_with_lr_oracle(self):
        rng = np.random.default_rng(3)
        x = np.r_[rng.normal(0, 1, 60), rng.normal(1.6, 1, 60)]
        y = np.r_[np.zeros(60), np.ones(60)]
        p_wald, outcome = logistic_fit(x, y)
        p_lr = logistic_lr_p(x, y)
        assert outcome == Fit.CONVERGED
        assert p_wald < 0.05 and p_lr < 0.05

    def test_null_agrees_with_lr_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, 120)
        y = np.r_[np.zeros(60), np.ones(60)]
        p_wald, outcome = logistic_fit(x, y)
        p_lr = logistic_lr_p(x, y)
        assert outcome == Fit.CONVERGED
        assert p_wald > 0.2 and p_lr > 0.2

    def test_failures_stay_in_their_column(self):
        """Three blocks of columns, three of them failing three ways: each
        column's outcome and p are those of the column fitted alone."""
        rng = np.random.default_rng(5)
        x1, x0 = rng.normal(0.3, 1, (4, 520)), rng.normal(0, 1, (4, 520))
        failing = {0: Fit.NON_FINITE, 300: Fit.SINGULAR, 519: Fit.NOT_CONVERGED}
        for j, (a, b) in zip(failing, FAILED_FITS):
            x1[:, j], x0[:, j] = a, b
        with mock.patch.object(stats, "_FIT_BLOCK", 8 * 256):  # 256 columns a block
            fit = logistic_slope_p(x1, x0)
        for j in range(520):
            alone = logistic_slope_p(x1[:, [j]], x0[:, [j]])
            assert (fit.outcome[j], repr(fit.p[j])) == (alone.outcome[0], repr(alone.p[0]))
        assert [fit.outcome[j] for j in failing] == list(failing.values())
        assert np.isnan(fit.p[list(failing)]).all()
        assert (fit.outcome == Fit.CONVERGED).sum() + (fit.outcome == Fit.SEPARATED).sum() == 517

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            logistic_fit([1.0, 2.0], [1, 1])

    def test_perfect_separation_flagged(self):
        x = np.r_[np.zeros(10), np.ones(10) + 1]
        y = np.r_[np.zeros(10), np.ones(10)]
        p, outcome = logistic_fit(x, y)
        assert outcome == Fit.SEPARATED
        assert p == 1.0


class TestBootstrap:
    def test_identical_estimates(self):
        rng = np.random.default_rng(5)
        truth = rng.normal(0, 1, 50)
        a = truth + rng.normal(0, 1, 50)
        res = bootstrap_corr_diff(a, a, truth, 1000, seed=0)
        assert res.delta_r == 0.0 and res.p_value == 1.0

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(6)
        truth = rng.normal(0, 1, 80)
        a = truth + rng.normal(0, 1, 80)
        b = truth + rng.normal(0, 1.5, 80)
        r1 = bootstrap_corr_diff(a, b, truth, 2000, seed=42)
        r2 = bootstrap_corr_diff(a, b, truth, 2000, seed=42)
        assert r1 == r2
        r3 = bootstrap_corr_diff(a, b, truth, 2000, seed=43)
        assert r3 != r1

    def test_detects_clear_quality_difference(self):
        rng = np.random.default_rng(7)
        truth = rng.normal(0, 1, 150)
        good = truth + rng.normal(0, 0.3, 150)
        bad = truth + rng.normal(0, 3.0, 150)
        res = bootstrap_corr_diff(good, bad, truth, 2000, seed=0)
        assert res.delta_r > 0.3
        assert res.p_value < 0.05

    def test_constant_resample_rows_are_invalid(self):
        # users 0-2 have CONSTANT estimates, and users 6 and 7 truths that
        # differ by less than _MIN_RANGE; each row draws one of these groups
        users = np.array([[0, 1, 2, 0, 1, 2, 0, 1], [3, 4, 5, 3, 4, 5, 3, 4], [6, 7] * 4], np.uint8)
        a = np.array(CONSTANT + [1.0, 2.0, 3.0, 6.0, 7.0])
        t = np.array([3.0, 5.0, 7.0, 1.0, 2.0, 4.0, 0.0, 1e-160])
        deltas, valid = _pearson_deltas(a, -a, t, _count(users), 0.0)
        assert valid.tolist() == [False, True, False]
        r = deltas / 2  # r(a, t) - r(-a, t) = 2 r(a, t)
        assert r[0] == pytest.approx(pearson_r(a[users[1]], t[users[1]]), abs=1e-12)

    def test_rows_below_the_smallest_range_are_invalid_at_any_magnitude(self):
        # the truths' range, 1.6e-154, passes the range test, but a row that
        # draws only users 0, 1, 3 and 4 (range 1e-154) does not; scaled, such
        # a row has an ordinary spread and leaves no rounding residue
        t = np.array([0.0, 1e-154, 1.6e-154, 0.0, 1e-154])
        a, b = np.array([1.0, 2.0, 3.0, 5.0, 4.0]), np.array([3.0, 1.0, 2.0, 4.0, 5.0])
        users = np.random.default_rng(0).integers(0, 5, (1000, 5)).astype(np.uint8)
        _, valid = _pearson_deltas(a, b, t, _count(users), pearson_r(a, t) - pearson_r(b, t))
        constant = np.array([_is_constant(v[users], axis=1) for v in (a, b, t)])
        assert valid.tolist() == (~constant.any(axis=0)).tolist()
        assert (constant[2] & ~constant[0]).sum() > 100

    def test_rows_far_below_the_largest_value_keep_their_precision(self):
        # scaled with t's largest value, 1e200, a row that does not draw it
        # underflows to 0
        t = np.array([0.0, 1.6e-154, 1e200, 0.0, 1.6e-154, 3e-154, 2e-154])
        a, b = np.array([1.0, 2, 3, 5, 4, 7, 1]), np.array([3.0, 1, 2, 4, 5, 2, 6])
        users = np.random.default_rng(0).integers(0, 7, (1000, 7)).astype(np.uint8)
        deltas, valid = _pearson_deltas(a, b, t, _count(users), pearson_r(a, t) - pearson_r(b, t))
        constant = np.array([_is_constant(v[users], axis=1) for v in (a, b, t)])
        assert valid.tolist() == (~constant.any(axis=0)).tolist()
        rows = users[valid]
        expected = [pearson_r(a[u], t[u]) - pearson_r(b[u], t[u]) for u in rows]
        assert (rows != 2).all(axis=1).sum() > 100  # rows without the 1e200
        np.testing.assert_allclose(deltas, expected, rtol=0, atol=1e-12)

    def test_p_value_does_not_depend_on_units(self):
        rng = np.random.default_rng(0)
        t = rng.normal(0, 1, 30)
        a, b = t + rng.normal(0, 1, 30), t + rng.normal(0, 2, 30)
        ps = [bootstrap_corr_diff(a * s, b * s, t * s, 1000, 0).p_value for s in (1e-100, 1, 1e160)]
        assert ps[0] == ps[1] == ps[2]

    def test_iteration_floor(self):
        with pytest.raises(ValueError):
            bootstrap_corr_diff([1, 2, 3], [1, 2, 3], [1, 2, 3], 10, seed=0)

    def test_binary_iteration_floor(self):
        """Sign accuracy has the same floor; zero resamples used to give p = 1."""
        y = np.array([1.0, -1.0, 1.0, 1.0])
        for iterations in (0, 999):
            with pytest.raises(ValueError, match="iterations must be >= 1000"):
                bootstrap_accuracy_diff(y, -y, y, iterations, 0)

    def test_binary_matches_brute_force_oracle(self):
        """The sign-accuracy bootstrap equals a loop over the same resamples in
        which ties (zero estimates) go to the whole sample's majority class."""
        rng = np.random.default_rng(9)
        n, iterations, seed = 30, 1000, 4
        y = np.where(rng.uniform(size=n) < 0.6, 1.0, -1.0)
        a = np.round(y + rng.normal(0, 1.2, n))  # rounding leaves some zeros: ties
        b = np.round(rng.normal(0, 1, n))
        assert (a == 0).any() and (b == 0).any()
        majority = 1.0 if (y > 0).sum() >= (y < 0).sum() else -1.0

        def accuracy(est, truth):
            hits = 0
            for e, t in zip(est, truth):
                sign = 1.0 if e > 0 else -1.0 if e < 0 else majority
                hits += sign == t
            return hits / len(truth)

        observed = accuracy(a, y) - accuracy(b, y)
        extreme = 0
        for rows in np.random.default_rng(seed).integers(0, n, (iterations, n)):
            delta = accuracy(a[rows], y[rows]) - accuracy(b[rows], y[rows])
            extreme += abs(delta - observed) >= abs(observed)
        res = bootstrap_score_diff(a, b, y, iterations, seed, metric="accuracy")
        assert res.delta_r == observed != 0
        assert res.p_value == min(1.0, (1 + extreme) / (iterations + 1))
        assert res.skipped == 0
        assert bootstrap_accuracy_diff(a, b, y, iterations, seed) == {
            "delta": res.delta_r, "p_value": res.p_value, "skipped": 0
        }

    def test_binary_identical_estimates(self):
        rng = np.random.default_rng(10)
        y = np.where(rng.uniform(size=40) < 0.5, 1.0, -1.0)
        a = np.round(y + rng.normal(0, 1, 40))
        res = bootstrap_score_diff(a, a, y, 1000, seed=0, metric="accuracy")
        assert res.delta_r == 0.0 and res.p_value == 1.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            bootstrap_score_diff([1, 2, 3], [1, 2, 3], [1, 2, 3], 1000, metric="auc")

    def test_p_shrinks_as_quality_gap_grows(self):
        rng = np.random.default_rng(8)
        truth = rng.normal(0, 1, 100)
        noise_a = rng.normal(0, 1, 100)
        b = truth + 1.5 * rng.normal(0, 1, 100)
        ps = [
            bootstrap_corr_diff(truth + q * noise_a, b, truth, 2000, seed=1).p_value
            for q in (1.5, 0.8, 0.3)
        ]
        assert ps[0] >= ps[2]
        assert ps[1] >= ps[2]


def _bootstrap_cases():
    rng = np.random.default_rng(11)
    truth = rng.normal(0, 1, 60)
    yield "pearson_r", truth + rng.normal(0, 1, 60), truth + rng.normal(0, 2, 60), truth
    y = np.where(rng.uniform(size=45) < 0.6, 1.0, -1.0)
    a, b = np.round(y + rng.normal(0, 1.2, 45)), np.round(rng.normal(0, 1, 45))
    assert (a == 0).any() and (b == 0).any()  # ties, which go to the majority class
    yield "accuracy", a, b, y
    # three users, two sharing a truth value: 9 resamples in 27 draw a
    # constant truth or constant estimates and are skipped
    yield "pearson_r", np.array([0.5, 2.0, 1.0]), np.array([3.0, 1.0, 2.5]), np.array([1.0, 2.0, 2.0])


class TestBlockedBootstrap:
    """Resamples scored in row blocks against the whole-matrix formula."""

    @pytest.mark.parametrize("iterations", [1000, 1023, 1025, 10_000])
    @pytest.mark.parametrize("case", range(3))
    def test_equals_the_whole_matrix_formula(self, iterations, case):
        metric, a, b, t = list(_bootstrap_cases())[case]
        res = bootstrap_score_diff(a, b, t, iterations, seed=5, metric=metric)
        assert res == evaluation_oracle.bootstrap_score_diff(a, b, t, iterations, 5, metric)
        if case == 2:
            assert res.skipped > iterations // 4

    def test_peak_memory_is_bounded_by_the_block(self):
        # The whole-matrix formula peaks at 32.2 MB traced here: the 8 MB of
        # resample indices plus every gathered and centered 10 000 x 100
        # matrix.  Blocks leave the indices and about 2.7 MB.
        rng = np.random.default_rng(12)
        truth = rng.normal(0, 1, 100)
        a, b = truth + rng.normal(0, 1, 100), truth + rng.normal(0, 2, 100)
        tracemalloc.start()
        try:
            bootstrap_score_diff(a, b, truth, 10_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


def _outcome(bootstrap, *args):
    """A bootstrap's result, or the type of the error it raised."""
    try:
        return bootstrap(*args)
    except ValueError as exc:  # DegenerateDataError among them
        return type(exc)


@st.composite
def _tied_inputs(draw, metric):
    """Small integer-valued estimates and truth with ties; the first estimate
    starts with a run of CONSTANT's value, so a resample that draws only
    those users is constant with a mean that does not round-trip.  Sign
    accuracy's truth is +/-1."""
    n = draw(st.integers(3, 12))
    a, b, t = (np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
               for _ in range(3))
    a[: draw(st.integers(0, n))] = CONSTANT[0]
    if metric == "accuracy":
        t = np.where(t >= 0, 1.0, -1.0)
    return a, b, t


@st.composite
def _continuous_inputs(draw, metric):
    """Estimates a = t + N(0, 1) and b = t + N(0, 2) of a normal truth, whose
    sign is sign accuracy's +/-1 truth."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 40))
    t = rng.normal(0, 1, n)
    a, b = t + rng.normal(0, 1, n), t + rng.normal(0, 2, n)
    if metric == "accuracy":
        t = np.where(t >= 0, 1.0, -1.0)
    return a, b, t


class TestCountedBootstrap:
    """Resamples scored from their counts against the gathered whole-matrix
    reference, on small tied inputs where many resamples draw few users."""

    @pytest.mark.parametrize("metric", ["pearson_r", "accuracy"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), iterations=st.sampled_from([1000, 1023, 1025]), seed=st.integers(0, 50))
    def test_equals_the_gathered_reference(self, metric, data, iterations, seed):
        a, b, t = data.draw(_tied_inputs(metric))
        args = (a, b, t, iterations, seed, metric)
        got = _outcome(bootstrap_score_diff, *args)
        assert got == _outcome(evaluation_oracle.bootstrap_score_diff, *args)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), seed=st.integers(0, 50))
    def test_each_resample_is_on_the_gathered_side(self, data, seed):
        # stronger than an equal p: each resample, not only their count
        a, b, t = data.draw(st.one_of(_tied_inputs("pearson_r"), _continuous_inputs("pearson_r")))
        try:
            observed = pearson_r(a, t) - pearson_r(b, t)
        except DegenerateDataError:
            return
        users = np.random.default_rng(seed).integers(0, t.size, (1000, t.size)).astype(np.uint8)
        deltas, valid = _pearson_deltas(a, b, t, _count(users), observed)
        rowwise = evaluation_oracle._rowwise_pearson
        (ra, va), (rb, vb) = (rowwise(e[users], t[users]) for e in (a, b))
        assert valid.tolist() == (va & vb).tolist()
        sides = [np.abs(d - observed) >= abs(observed) for d in (deltas, (ra - rb)[valid])]
        assert sides[0].tolist() == sides[1].tolist()

    @pytest.mark.parametrize("metric", ["pearson_r", "accuracy"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        exponents=st.tuples(*[st.integers(-300, 300)] * 3),
        seed=st.integers(0, 50),
    )
    def test_scaling_by_powers_of_two_changes_no_result(self, metric, data, exponents, seed):
        a, b, t = data.draw(st.one_of(_tied_inputs(metric), _continuous_inputs(metric)))
        k, j, m = exponents
        scaled = np.ldexp(a, k), np.ldexp(b, j), t if metric == "accuracy" else np.ldexp(t, m)
        got = _outcome(bootstrap_score_diff, *scaled, 1000, seed, metric)
        assert got == _outcome(bootstrap_score_diff, a, b, t, 1000, seed, metric)

    def test_resamples_on_the_threshold_take_the_gathered_arithmetic(self):
        # a and b swap users 2 and 4, where t is 0: r(a, t) and r(b, t) are
        # both -1/4, and the observed delta is their rounding.  Each resample
        # that draws users 2 and 4 equally often has a delta of 0 too, on the
        # threshold, which the moments and the gathered rows round apart
        a, b, t = np.array([[0, 0, 0, 0, 1], [0, 0, 1, 0, 0], [1, 0, 0, 0, 0]], dtype=float)
        res = bootstrap_score_diff(a, b, t, 1000, seed=0)
        assert res == evaluation_oracle.bootstrap_score_diff(a, b, t, 1000, 0, "pearson_r")

    def test_truths_near_the_smallest_range_match_the_reference(self):
        # squares of these truths are subnormal or 0 unless scaled; integer
        # estimates in 0-5 leave many resamples constant on either side
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 12))
            a, b = rng.integers(0, 6, (2, n)).astype(float)
            t = rng.choice([0.0, 1e-154, 1.6e-154, 3e-154], n)
            args = (a, b, t, 1000, seed, "pearson_r")
            got = _outcome(bootstrap_score_diff, *args)
            assert got == _outcome(evaluation_oracle.bootstrap_score_diff, *args), seed


def _modules_loaded_by(code: str, *modules: str) -> list[bool]:
    """Whether each of ``modules`` is imported after ``code`` runs in a fresh
    interpreter."""
    src = str(Path(scrublang.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code += f"\nimport sys; print(*(m in sys.modules for m in {modules!r}))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return [word == "True" for word in out.stdout.splitlines()[-1].split()]


def test_cli_import_does_not_load_scipy_stats():
    # the p-values come from scipy.special, imported when a p-value is first
    # computed, and the count table from scipy.sparse, imported when a table
    # is first built; scipy.stats costs ~0.7 s and ~45 MB to import and is
    # only needed by this test module's oracles
    modules = ("scipy.stats", "scipy.special", "scipy.sparse")
    assert _modules_loaded_by("import scrublang.cli", *modules) == [False, False, False]


def test_redact_does_not_load_scipy_special(tmp_path):
    log = make_fixture(tmp_path, n_users=3, seed=0)["keystroke_log"]
    argv = ["redact", "--in", str(log), "--out", str(tmp_path / "entries.jsonl")]
    code = f"from scrublang import cli\nassert cli.main({argv!r}) == 0"
    assert _modules_loaded_by(code, "scipy.special", "scipy.sparse") == [False, False]
    assert (tmp_path / "entries.jsonl").stat().st_size > 0
