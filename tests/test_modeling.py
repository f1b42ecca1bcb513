"""Modeling harness: ridge algebra, LOOCV and its hat-matrix shortcut, the
four-cell evaluation matrix, feature importance, and NMF."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evaluation_oracle
from evaluation_oracle import paired_matrices
from scrublang import modeling
from scrublang.modeling import (
    CELL_ORDER,
    LexiconModel,
    _loocv_fold_predictions,
    _ridge_fits,
    apply_lexicon,
    cross_domain_matrix,
    feature_importance,
    labeled_users,
    loocv_folds,
    loocv_predictions_hat,
    loocv_predictions_naive,
    nmf_reduce,
    ridge_fit,
    ridge_solve,
)
from scrublang.stats import pearson_r, sign_accuracy


class TestApplyLexicon:
    def test_empty_features_give_intercept(self):
        model = LexiconModel(weights={"a": 2.0}, intercept=0.75)
        assert apply_lexicon(model, {}) == 0.75

    def test_dot_product(self):
        model = LexiconModel(weights={"a": 2.0}, intercept=1.0)
        assert apply_lexicon(model, {"a": 0.5}) == 2.0

    def test_unknown_features_ignored(self):
        model = LexiconModel(weights={"a": 2.0}, intercept=0.0)
        assert apply_lexicon(model, {"b": 9.0, "a": 1.0}) == 2.0

    def test_terms_summed_in_the_model_order(self):
        """The sum runs over the model's terms in their order, whatever the
        order (or the size) of the frequencies: 1e16 - 1e16 + 1 is 1, while
        1e16 + 1 - 1e16 rounds to 0."""
        model = LexiconModel(weights={"a": 1e16, "c": -1e16, "b": 1.0, "unread": 5.0})
        for order in itertools.permutations("abc"):
            assert apply_lexicon(model, {t: 1.0 for t in order}) == 1.0


class TestRidge:
    def test_constant_target(self):
        rng = np.random.default_rng(0)
        w, b = ridge_solve(rng.normal(size=(12, 4)), np.full(12, 3.5), 1.0)
        assert np.allclose(w, 0.0)
        assert b == pytest.approx(3.5)

    def test_huge_alpha_shrinks_weights(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        y = X @ np.array([1.0, 2.0, -1.0])
        w, _ = ridge_solve(X, y, alpha=1e9)
        assert np.max(np.abs(w)) < 1e-4

    def test_dual_path_matches_primal(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(8, 40))  # wide: dual route
        y = rng.normal(size=8)
        w_dual, b_dual = ridge_solve(X, y, 1.0)
        w_primal = np.linalg.solve(
            ((X - X.mean(0)) / X.std(0)).T @ ((X - X.mean(0)) / X.std(0)) + np.eye(40),
            ((X - X.mean(0)) / X.std(0)).T @ (y - y.mean()),
        ) / X.std(0)
        assert np.allclose(w_dual, w_primal, atol=1e-9)
        assert b_dual == pytest.approx(float(y.mean() - w_primal @ X.mean(0)), abs=1e-9)

    def test_feature_reordering_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 5))
        y = rng.normal(size=15)
        names = [f"f{j}" for j in range(5)]
        model = ridge_fit(X, y, 1.0, feature_names=names)
        perm = [3, 0, 4, 1, 2]
        model_p = ridge_fit(X[:, perm], y, 1.0, feature_names=[names[j] for j in perm])
        probe = {name: rng.normal() for name in names}
        assert apply_lexicon(model, probe) == pytest.approx(apply_lexicon(model_p, probe))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ridge_solve(np.array([[np.nan], [1.0]]), np.array([1.0, 2.0]), 1.0)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            ridge_solve(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]), np.inf)

    def test_zero_variance_column_dropped(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.full(10, 2.0), rng.normal(size=10)])
        y = X[:, 1] * 3
        w, _ = ridge_solve(X, y, 0.001)
        assert w[0] == 0.0
        assert w[1] == pytest.approx(3.0, rel=0.01)

    def test_equal_values_with_a_nonzero_sd_get_weight_zero(self):
        # twenty 0.05s have a range of 0 but a computed sd of ~7e-18
        constant = np.full(20, 0.05)
        assert constant.std() > 0
        rng = np.random.default_rng(7)
        x = rng.normal(size=20)
        X = np.column_stack([constant, x])
        y = 2.0 * x + rng.normal(size=20)
        w, b = ridge_solve(X, y, 1.0)
        assert w[0] == 0.0
        assert ridge_fit(X, y, 1.0).weights["f0"] == 0.0
        w1, b1 = ridge_solve(x[:, None], y, 1.0)
        assert w[1] == pytest.approx(w1[0], rel=1e-12)
        assert b == pytest.approx(b1, rel=1e-12)


class TestLoocv:
    def test_folds_never_contain_holdout(self):
        for train, i in loocv_folds(8):
            assert i not in train
            assert len(train) == 7

    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + 5.0
        assert pearson_r(loocv_predictions_naive(X, y, 1.0), y) >= 0.999

    def test_noise_stays_in_null_band(self):
        # Monte-Carlo null band (300 trials, n=120, 5 features, alpha=1):
        # r in [-0.57, 0.32], mean -0.10 -- LOOCV on noise is biased negative,
        # so "no spurious signal" means r must not be meaningfully positive.
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            X = rng.normal(size=(120, 5))
            y = rng.normal(size=120)
            r = pearson_r(loocv_predictions_naive(X, y, 1.0), y)
            assert r < 0.25
            assert abs(r) < 0.5

    @pytest.mark.parametrize("standardize", ["global", "none"])
    def test_hat_shortcut_equals_refits(self, standardize):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 50))
            X = rng.normal(size=(n, 3))
            y = rng.normal(size=n)
            refits = evaluation_oracle.loocv_fixed_design(X, y, 1.0, standardize)
            hat = loocv_predictions_hat(X, y, 1.0, standardize=standardize)
            assert np.max(np.abs(refits - hat)) < 1e-9

    @pytest.mark.parametrize(
        "loocv", [loocv_predictions_naive, loocv_predictions_hat], ids=["fold", "global"]
    )
    def test_column_of_equal_values_changes_no_prediction(self, loocv):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(16, 3))
        y = rng.normal(size=16)
        with_constant = np.column_stack([X[:, :1], np.full(16, 0.05), X[:, 1:]])
        want = loocv(X, y, 1.0)
        got = loocv(with_constant, y, 1.0)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n, p", [(12, 4), (9, 30)])  # p <= n and p > n
    @pytest.mark.parametrize("standardize", ["global", "none"])
    def test_fixed_design_shortcut_matches_the_augmented_loop(self, standardize, n, p):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(n, p))
            X[:, 1] = 0.05
            X[:, 2] = 3.0
            y = rng.normal(size=n)
            got = loocv_predictions_hat(X, y, 1.0, standardize=standardize)
            want = evaluation_oracle.loocv_fixed_design(X, y, 1.0, standardize)
            assert np.max(np.abs(got - want)) < 1e-10

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(5, 40),
        p=st.integers(1, 60),  # p > n included
        alpha=st.floats(0.1, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hat_shortcut_equals_the_augmented_loop(self, data, n, p, alpha, seed):
        """The shortcut equals the oracle's refits in both designs, over column
        scales of 0.1 to 10 and up to three constant columns.  These ranges
        were measured (worst 1e-11 over 4 000 random designs, 6e-11 under a
        targeted search); scales of 1e-2 to 1e2 reach 6e-10 with design
        "none", so measure again before widening them."""
        scales = data.draw(st.lists(st.floats(0.1, 10.0), min_size=p, max_size=p))
        constant = data.draw(st.lists(st.integers(0, p - 1), max_size=3, unique=True))
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p)) * scales
        X[:, constant] = np.asarray(scales)[constant]
        y = rng.normal(size=n)
        for standardize in ("global", "none"):
            got = loocv_predictions_hat(X, y, alpha, standardize=standardize)
            want = evaluation_oracle.loocv_fixed_design(X, y, alpha, standardize)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_shortcut_metric_path(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 2))
        y = X @ np.array([2.0, 1.0])
        assert pearson_r(loocv_predictions_hat(X, y), y) >= 0.99

    def test_accuracy_metric_with_ties_to_majority(self):
        preds = np.array([0.5, -0.2, 0.0, 0.0])
        y = np.array([1.0, -1.0, 1.0, 1.0])
        # ties (zeros) resolve to the majority class (+1)
        assert sign_accuracy(preds, y) == 1.0

    @pytest.mark.parametrize("loocv", [loocv_predictions_naive, loocv_predictions_hat])
    def test_small_n_rejected(self, loocv):
        with pytest.raises(ValueError, match="n >= 3"):
            loocv(np.zeros((2, 1)), np.zeros(2))

    @pytest.mark.parametrize("loocv", [loocv_predictions_naive, loocv_predictions_hat])
    def test_loocv_paths_reject_what_a_fit_rejects(self, loocv):
        X = np.random.default_rng(9).normal(size=(6, 2))
        y = np.arange(6.0)
        with pytest.raises(ValueError, match="non-finite"):
            loocv(np.where(np.eye(6, 2, dtype=bool), np.nan, X), y, 1.0)
        for alpha in (0.0, -1.0, np.inf, np.nan):  # an infinite penalty gave nan weights
            with pytest.raises(ValueError, match="alpha must be positive"):
                loocv(X, y, alpha)

    def test_hat_shortcut_takes_no_refit_design(self):
        X = np.random.default_rng(9).normal(size=(6, 2))
        with pytest.raises(ValueError, match="loocv_predictions_hat supports"):
            loocv_predictions_hat(X, np.arange(6.0), 1.0, standardize="fold")


def _mk_features(users, rng, signal=None):
    out = {}
    for i, u in enumerate(users):
        vec = {f"f{j}": float(rng.uniform(0, 1)) for j in range(4)}
        if signal is not None:
            vec["f0"] = float(signal[i] + rng.normal(0, 0.05))
        out[u] = vec
    return out


class TestLabeledUsers:
    def test_present_and_finite_values_only(self):
        users = ["a", "b", "c", "d", "e", "f"]
        outcomes = {
            "a": {"y": 1.0},
            "b": {"y": None},
            "c": {"y": float("nan")},
            "d": {"y": 2.0},
            "e": {"y": float("inf")},
            "f": {"y": 3.0},
        }
        keep, y = labeled_users(users, outcomes, "y")
        assert keep == [0, 3, 5]
        assert y.tolist() == [1.0, 2.0, 3.0]

    def test_fewer_than_three_is_none(self):
        outcomes = {"a": {"y": 1.0}, "b": {"y": 2.0}, "c": {"y": float("nan")}}
        assert labeled_users(["a", "b", "c", "z"], outcomes, "y") is None


class TestCrossDomain:
    def test_identical_corpora_all_cells_equal(self):
        rng = np.random.default_rng(7)
        users = [f"u{i}" for i in range(10)]
        feats = _mk_features(users, rng)
        outcomes = {u: {"score": feats[u]["f1"] * 3 + 1} for u in users}
        report = cross_domain_matrix(
            *paired_matrices(feats, feats), outcomes, bootstrap_iterations=1000
        )
        values = [report.outcomes["score"].cells[c].value for c in CELL_ORDER]
        assert max(values) - min(values) < 1e-9

    def test_rows_must_match_users(self):
        rng = np.random.default_rng(8)
        X_fb, X_sms, users = paired_matrices(*[_mk_features(["a", "b", "c"], rng)] * 2)
        outcomes = {u: {"score": 1.0} for u in users}
        with pytest.raises(ValueError, match=r"one row per user \(2\)"):
            cross_domain_matrix(X_fb, X_sms, users[:2], outcomes, bootstrap_iterations=1000)
        with pytest.raises(ValueError, match="the same columns"):
            cross_domain_matrix(X_fb, X_sms[:, :3], users, outcomes, bootstrap_iterations=1000)
        with pytest.raises(ValueError, match=r"users missing from outcomes: \['c'\]"):
            cross_domain_matrix(X_fb, X_sms, users, {"a": {}, "b": {}}, bootstrap_iterations=1000)

    def test_too_few_bootstrap_iterations_rejected_before_any_fold_fit(self, monkeypatch):
        rng = np.random.default_rng(10)
        users = [f"u{i}" for i in range(30)]
        feats = _mk_features(users, rng)
        outcomes = {u: {"score": feats[u]["f1"]} for u in users}
        calls = []
        fold_fits = modeling._loocv_fold_predictions
        monkeypatch.setattr(
            modeling, "_loocv_fold_predictions", lambda *a, **k: calls.append(a) or fold_fits(*a, **k)
        )
        with pytest.raises(ValueError, match="iterations must be >= 1000, got 999"):
            cross_domain_matrix(*paired_matrices(feats, feats), outcomes, bootstrap_iterations=999)
        assert calls == []

    def test_planted_signal_platform_wins_at_home(self):
        rng = np.random.default_rng(9)
        users = [f"u{i}" for i in range(40)]
        y = rng.normal(0, 1, 40)
        fb = _mk_features(users, rng, signal=y)  # facebook carries the signal
        sms = _mk_features(users, rng)  # sms is noise
        outcomes = {u: {"score": float(y[i])} for i, u in enumerate(users)}
        report = cross_domain_matrix(
            *paired_matrices(fb, sms), outcomes, bootstrap_iterations=1000, seed=1
        )
        cells = {c: report.outcomes["score"].cells[c].value for c in CELL_ORDER}
        assert cells["fb_fb"] > max(cells["fb_sms"], cells["sms_sms"], cells["sms_fb"])

    def test_platform_swap_transposes_cells(self):
        rng = np.random.default_rng(10)
        users = [f"u{i}" for i in range(12)]
        fb = _mk_features(users, rng)
        sms = _mk_features(users, rng)
        outcomes = {u: {"score": float(rng.normal())} for u in users}
        rep = cross_domain_matrix(*paired_matrices(fb, sms), outcomes, bootstrap_iterations=1000)
        swapped = cross_domain_matrix(
            *paired_matrices(sms, fb), outcomes, bootstrap_iterations=1000
        )
        pairs = {"fb_fb": "sms_sms", "sms_sms": "fb_fb", "fb_sms": "sms_fb", "sms_fb": "fb_sms"}
        for cell, mirror in pairs.items():
            assert rep.outcomes["score"].cells[cell].value == pytest.approx(
                swapped.outcomes["score"].cells[mirror].value, abs=1e-12
            )

    def test_binary_outcome_uses_accuracy(self):
        rng = np.random.default_rng(11)
        users = [f"u{i}" for i in range(12)]
        feats = _mk_features(users, rng)
        outcomes = {u: {"gender": 1.0 if i % 2 else -1.0} for i, u in enumerate(users)}
        report = cross_domain_matrix(
            *paired_matrices(feats, feats), outcomes, bootstrap_iterations=1000
        )
        assert report.outcomes["gender"].cells["fb_fb"].metric == "accuracy"

    def test_constant_outcome_gives_nan_cells_and_no_bootstrap(self):
        rng = np.random.default_rng(14)
        users = [f"u{i}" for i in range(8)]
        feats = _mk_features(users, rng)
        outcomes = {u: {"score": 4.0} for u in users}
        report = cross_domain_matrix(
            *paired_matrices(feats, feats), outcomes, bootstrap_iterations=1000
        )
        ev = report.outcomes["score"]
        assert all(np.isnan(ev.cells[c].value) for c in CELL_ORDER)
        for result in ev.bootstrap.values():
            assert result["delta"] is None and result["p_value"] is None
            assert result["skipped"] == 1000

    def test_missing_outcome_values_drop_users(self):
        rng = np.random.default_rng(12)
        users = [f"u{i}" for i in range(10)]
        feats = _mk_features(users, rng)
        outcomes = {u: {"score": float(i) if i >= 4 else None} for i, u in enumerate(users)}
        report = cross_domain_matrix(
            *paired_matrices(feats, feats), outcomes, bootstrap_iterations=1000
        )
        assert report.outcomes["score"].cells["fb_fb"].n == 6


def _shared_fold_case(n, p, seed):
    """Two platforms' features and four outcomes in three labeled-user groups:
    ``age`` and ``score`` label everyone, ``stress`` all but two users and
    the binary ``gender`` all but one.  Column 0 of each platform is zero but
    for one user, so it has no variance in that user's fold alone."""
    rng = np.random.default_rng(seed)
    users = [f"u{i:02d}" for i in range(n)]
    X = {plat: rng.uniform(0, 1, (n, p)) for plat in ("fb", "sms")}
    X["fb"][:, 0], X["sms"][:, 0] = 0.0, 0.0
    X["fb"][2, 0], X["sms"][5, 0] = 0.7, 0.3
    signal = X["fb"][:, 1] - X["sms"][:, 2]
    outcomes = {}
    for i, u in enumerate(users):
        outcomes[u] = {
            "age": float(20 + 10 * signal[i] + rng.normal()),
            "score": float(rng.normal()),
            "stress": None if i in (1, 4) else float(signal[i] + rng.normal(0, 0.5)),
            "gender": float("nan") if i == 3 else (1.0 if signal[i] + rng.normal(0, 0.3) > 0 else -1.0),
        }
    feats = {
        plat: {u: {f"f{j}": float(M[i, j]) for j in range(p)} for i, u in enumerate(users)}
        for plat, M in X.items()
    }
    return X, feats, outcomes


SHAPES = [(12, 4), (9, 30)]  # p <= n (primal) and p > n (dual)


class TestSharedFolds:
    """The fold engine fits each fold once for every outcome that shares its
    users; the per-outcome loop of ``evaluation_oracle`` is the reference."""

    @pytest.mark.parametrize("n, p", SHAPES)
    def test_predictions_equal_the_per_outcome_loop(self, n, p):
        X, _, outcomes = _shared_fold_case(n, p, seed=n + p)
        ys = [np.array([outcomes[u][name] for u in sorted(outcomes)]) for name in ("age", "score")]
        for Xs, Xd in ((X["fb"], X["sms"]), (X["sms"], X["fb"])):
            shared = _loocv_fold_predictions(Xs, ys, 0.5, [Xs, Xd])
            for y, preds in zip(ys, shared):
                expected = evaluation_oracle.loocv_fold_predictions(Xs, y, 0.5, [Xs, Xd])
                for got, want in zip(preds, expected):
                    assert np.array_equal(got, want)
            for y, (w, b) in zip(ys, _ridge_fits(Xs, ys, 0.5)):
                w_want, b_want = evaluation_oracle.ridge_solve(Xs, y, 0.5)
                assert np.array_equal(w, w_want) and b == b_want
            naive = loocv_predictions_naive(Xs, ys[0], 0.5)
            want = evaluation_oracle.loocv_fold_predictions(Xs, ys[0], 0.5, [Xs])[0]
            assert np.array_equal(naive, want)

    @pytest.mark.parametrize("n, p", SHAPES)
    def test_report_equals_the_per_outcome_loop(self, n, p):
        _, feats, outcomes = _shared_fold_case(n, p, seed=n * p)
        kw = dict(alpha=0.5, bootstrap_iterations=1000, seed=2)
        args = (*paired_matrices(feats["fb"], feats["sms"]), outcomes)
        report = cross_domain_matrix(*args, **kw)
        expected = evaluation_oracle.cross_domain_matrix(*args, **kw)
        assert sorted(report.outcomes) == ["age", "gender", "score", "stress"]
        assert report.outcomes["gender"].cells["fb_fb"].metric == "accuracy"
        assert [ev.cells["fb_fb"].n for ev in report.outcomes.values()] == [n, n - 1, n, n - 2]
        assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())

    def test_each_user_count_draws_its_resamples_once(self, monkeypatch):
        """Eight comparisons on three labeled-user counts draw three index
        matrices, where the oracle, one per comparison, draws eight."""
        _, feats, outcomes = _shared_fold_case(12, 4, seed=48)
        draws = []
        default_rng = np.random.default_rng
        counted = lambda seed: draws.append(seed) or default_rng(seed)  # noqa: E731
        monkeypatch.setattr(np.random, "default_rng", counted)
        kw = dict(alpha=0.5, bootstrap_iterations=1000, seed=2)
        args = (*paired_matrices(feats["fb"], feats["sms"]), outcomes)
        report = cross_domain_matrix(*args, **kw)
        assert draws == [2, 2, 2]
        draws.clear()
        expected = evaluation_oracle.cross_domain_matrix(*args, **kw)
        assert len(draws) == 8
        assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())


class TestFeatureImportance:
    def test_arithmetic(self):
        model = LexiconModel(weights={"w": 0.5})
        rows = feature_importance(model, {"w": 0.02}, {"w": 0.01})
        assert rows[0].importance == pytest.approx(0.005)
        assert rows[0].quadrant == "A"

    def test_equal_frequencies_zero_importance(self):
        model = LexiconModel(weights={"w": 123.0})
        (row,) = feature_importance(model, {"w": 0.3}, {"w": 0.3})
        assert row.importance == 0.0 and row.quadrant is None

    def test_negative_weight_sms_frequent_is_quadrant_d(self):
        model = LexiconModel(weights={"u": -2.0})
        (row,) = feature_importance(model, {"u": 0.01}, {"u": 0.05})
        assert row.quadrant == "D"
        assert row.importance > 0  # negative weight times negative diff

    def test_all_four_quadrants(self):
        model = LexiconModel(weights={"a": 1.0, "b": 1.0, "c": -1.0, "d": -1.0})
        fb = {"a": 0.2, "b": 0.0, "c": 0.2, "d": 0.0}
        sms = {"a": 0.0, "b": 0.2, "c": 0.0, "d": 0.2}
        quadrants = {r.feature: r.quadrant for r in feature_importance(model, fb, sms)}
        assert quadrants == {"a": "A", "b": "B", "c": "C", "d": "D"}

    def test_antisymmetric_under_frequency_swap(self):
        model = LexiconModel(weights={"a": 1.5, "b": -0.5})
        fb = {"a": 0.1, "b": 0.05}
        sms = {"a": 0.02, "b": 0.2}
        fwd = {r.feature: r.importance for r in feature_importance(model, fb, sms)}
        rev = {r.feature: r.importance for r in feature_importance(model, sms, fb)}
        for feat in fwd:
            assert fwd[feat] == pytest.approx(-rev[feat])

    def test_ranked_by_signed_importance(self):
        model = LexiconModel(weights={"a": 1.0, "b": 2.0, "c": -1.0})
        fb = {"a": 0.2, "b": 0.1, "c": 0.3}
        sms = {"a": 0.1, "b": 0.0, "c": 0.0}
        rows = feature_importance(model, fb, sms)
        importances = [r.importance for r in rows]
        assert importances == sorted(importances, reverse=True)


class TestNmf:
    def test_shapes_and_nonnegativity(self):
        rng = np.random.default_rng(13)
        res = nmf_reduce(rng.uniform(0, 1, size=(3, 4)), k=2, iterations=50, seed=0)
        assert res.W.shape == (3, 2) and res.H.shape == (2, 4)
        assert np.all(res.W >= 0) and np.all(res.H >= 0)

    def test_identity_convergence(self):
        res = nmf_reduce(np.eye(2), k=2, iterations=500, seed=0)
        assert res.reconstruction_error < 1e-3

    def test_objective_monotone(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            V = rng.uniform(0, 2, size=(12, 7))
            res = nmf_reduce(V, k=3, iterations=150, seed=seed)
            obj = np.array(res.objectives)
            assert np.all(np.diff(obj) <= 1e-10 * np.maximum(1.0, obj[:-1]))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(14)
        V = rng.uniform(0, 1, size=(6, 5))
        a = nmf_reduce(V, 2, iterations=40, seed=3)
        b = nmf_reduce(V, 2, iterations=40, seed=3)
        assert np.array_equal(a.W, b.W) and np.array_equal(a.H, b.H)
        c = nmf_reduce(V, 2, iterations=40, seed=4)
        assert not np.array_equal(a.W, c.W)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            nmf_reduce(np.eye(3), k=4)
        with pytest.raises(ValueError):
            nmf_reduce(np.eye(3), k=0)

    def test_negative_entries_shifted_and_recorded(self):
        V = np.array([[1.0, -2.0], [3.0, 0.5], [0.0, 1.0]])
        res = nmf_reduce(V, k=2, iterations=50, seed=0)
        assert res.column_shifts[0] == 0.0
        assert res.column_shifts[1] == 2.0
        assert np.all(res.W @ res.H >= -1e-12)
