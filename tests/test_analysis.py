"""Differential language analysis and corpus summary statistics."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from logistic_oracle import (
    FAILED_FITS,
    corpus_ngrams,
    diff_ngrams_per_feature,
    ngram_diffs_per_feature,
    univariate_logistic_p,
)
from scrublang.analysis import (
    InsufficientUsersError,
    cloud_data,
    diff_categories,
    diff_ngrams,
    ngram_diffs,
    shared_users,
    summary_stats,
)
from scrublang.features import DictionarySpec, UserCorpus, count_table
from scrublang.stats import DegenerateDataError


def corpus(user, platform, docs):
    return UserCorpus(user_id=user, platform=platform, documents=list(docs))


def paired_corpora(n_users, fb_docs_fn, sms_docs_fn):
    corpora = {}
    for i in range(n_users):
        u = f"u{i:02d}"
        corpora[(u, "facebook")] = corpus(u, "facebook", fb_docs_fn(i))
        corpora[(u, "sms")] = corpus(u, "sms", sms_docs_fn(i))
    return corpora


class TestDiffNgrams:
    def test_paired_features_counts_a_user_once_per_ngram(self):
        # "both" is one user's on both platforms: 1 of 4 users, below half;
        # "fb" is two users', on facebook only: 2 of 4, kept
        docs = {"u1": ("both fb", "both"), "u2": ("fb", "sms"), "u3": ("x", "x"), "u4": ("x", "x")}
        corpora = {
            (u, plat): corpus(u, plat, [text])
            for u, pair in docs.items()
            for plat, text in zip(("facebook", "sms"), pair)
        }
        table = count_table(corpora)
        assert table.paired_features((1,), 0.5) == ["fb", "x"]
        assert table.paired_features((1, 2), 0.5) == ["fb", "x"]

    def test_planted_bigram_significant_on_facebook_side(self):
        rng = np.random.default_rng(0)
        filler = "the day was long and we went out".split()

        def fb_docs(i):
            words = list(rng.permutation(filler)) + ["fun", "weekend"] * (2 + i % 3)
            return [" ".join(words)]

        def sms_docs(i):
            return [" ".join(rng.permutation(filler))]

        corpora = paired_corpora(16, fb_docs, sms_docs)
        rows = diff_ngrams(count_table(corpora), alpha=0.05, min_group_fraction=0.5, orders=(1, 2))
        by_name = {r.ngram: r for r in rows}
        target = by_name["fun weekend"]
        assert target.q_significant
        assert target.cohens_d > 0
        clouds = cloud_data(rows)
        cloud_entry = next(c for c in clouds if c.ngram == "fun weekend")
        assert cloud_entry.side == "facebook"
        assert 0 < cloud_entry.size <= 1.0
        assert 0 < cloud_entry.darkness <= 1.0

    def test_identical_corpora_nothing_significant(self):
        docs = ["same words on both platforms every time"]
        corpora = paired_corpora(10, lambda i: docs, lambda i: docs)
        rows = diff_ngrams(count_table(corpora), alpha=0.05, min_group_fraction=0.5)
        assert all(not r.q_significant for r in rows)
        assert cloud_data(rows) == []

    def test_cloud_is_exactly_the_significant_subset(self):
        rng = np.random.default_rng(1)
        vocab = "alpha beta gamma delta epsilon".split()

        def fb_docs(i):
            return [" ".join(rng.choice(vocab, size=30)) + " extra" * (i % 2)]

        def sms_docs(i):
            return [" ".join(rng.choice(vocab, size=30))]

        corpora = paired_corpora(12, fb_docs, sms_docs)
        rows = diff_ngrams(count_table(corpora), alpha=0.2, min_group_fraction=0.3)
        clouds = cloud_data(rows)
        assert {c.ngram for c in clouds} == {
            r.ngram for r in rows if r.q_significant and np.isfinite(r.cohens_d)
        }

    def test_insufficient_users(self):
        corpora = {("u1", "facebook"): corpus("u1", "facebook", ["hello"])}
        with pytest.raises(InsufficientUsersError):
            diff_ngrams(count_table(corpora))

    def test_constant_nonzero_difference_is_degenerate(self):
        # every user: "fun" is 1/2 of the posts' words and 1/4 of the messages'
        corpora = paired_corpora(6, lambda i: ["fun day"], lambda i: ["fun day day day"])
        rows = diff_ngrams(count_table(corpora), min_group_fraction=0.5, orders=(1,))
        rows = {r.ngram: r for r in rows}
        fun = rows["fun"]
        assert fun.degenerate and fun.p_value == 1.0 and not fun.q_significant
        assert fun.p_fallback is None

    def test_shared_users_requires_both_platforms(self):
        corpora = {
            ("a", "facebook"): corpus("a", "facebook", ["x"]),
            ("a", "sms"): corpus("a", "sms", ["x"]),
            ("b", "facebook"): corpus("b", "facebook", ["x"]),
        }
        assert shared_users(corpora) == ["a"]


class TestDiffCategories:
    def test_paired_t_direction_and_fdr(self):
        spec = DictionarySpec({"leisure": ["fun", "weekend"], "assent": ["ok", "yes"]})
        rng = np.random.default_rng(2)

        def fb_docs(i):
            base = ["fun weekend fun trip today " + "filler " * (1 + i % 2)]
            return base

        def sms_docs(i):
            return ["ok yes ok sure thing today " + "filler " * (1 + i % 2)]

        corpora = paired_corpora(12, fb_docs, sms_docs)
        rows = {r.category: r for r in diff_categories(count_table(corpora), spec, alpha=0.05)}
        assert rows["leisure"].t_statistic > 0
        assert rows["assent"].t_statistic < 0
        assert rows["leisure"].q_significant and rows["assent"].q_significant

    def test_constant_nonzero_difference_is_degenerate(self):
        spec = DictionarySpec({"leisure": ["fun"]})
        corpora = paired_corpora(6, lambda i: ["fun day"], lambda i: ["fun day day day"])
        (row,) = diff_categories(count_table(corpora), spec)
        assert row.degenerate and row.p_value == 1.0 and not row.q_significant
        assert np.isnan(row.t_statistic)

    def test_equal_usage_degenerate_category(self):
        spec = DictionarySpec({"both": ["word"]})
        corpora = paired_corpora(6, lambda i: ["word two"], lambda i: ["word two"])
        (row,) = diff_categories(count_table(corpora), spec)
        assert row.t_statistic == 0.0 or row.degenerate


class TestSummary:
    def test_hand_values(self):
        corpora = {
            ("u1", "sms"): corpus("u1", "sms", ["a"]),
            ("u2", "sms"): corpus("u2", "sms", ["a b"]),
            ("u3", "sms"): corpus("u3", "sms", ["a b c"]),
        }
        stats = summary_stats(corpora)["sms"]
        assert stats["words"] == {"median": 2.0, "mean": 2.0, "sd": 1.0, "sd_defined": True}
        assert stats["posts"]["mean"] == 1.0

    def test_single_user_sd_flagged(self):
        corpora = {("u1", "facebook"): corpus("u1", "facebook", ["one two three four five"])}
        stats = summary_stats(corpora)["facebook"]
        assert stats["words"]["median"] == 5.0
        assert stats["words"]["mean"] == 5.0
        assert stats["words"]["sd"] == 0.0
        assert stats["words"]["sd_defined"] is False

    def test_platforms_reported_separately(self):
        corpora = {
            ("u1", "facebook"): corpus("u1", "facebook", ["a b c d"]),
            ("u1", "sms"): corpus("u1", "sms", ["a"]),
        }
        stats = summary_stats(corpora)
        assert set(stats) == {"facebook", "sms"}
        assert stats["facebook"]["words"]["mean"] == 4.0
        assert stats["sms"]["words"]["mean"] == 1.0


def logistic_p_fitting_quasi_separation(values, labels, tol=1e-8, max_iter=100):
    """Reference: the Wald p as computed before quasi-complete separation was
    tested for, when only complete separation skipped the Newton fit."""
    x = np.asarray(values, dtype=float)
    y01 = (np.asarray(labels) == max(labels)).astype(float)
    if np.ptp(x) < np.sqrt(np.finfo(float).tiny):
        return 1.0
    x1, x0 = x[y01 == 1], x[y01 == 0]
    if x1.min() > x0.max() or x0.min() > x1.max():
        warnings.warn("perfect separation", RuntimeWarning)
        return 1.0
    X = np.column_stack([np.ones_like(x), x])
    beta = np.zeros(2)
    for _ in range(max_iter):
        mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
        try:
            step = np.linalg.solve(X.T @ (X * (mu * (1 - mu))[:, None]), X.T @ (y01 - mu))
        except np.linalg.LinAlgError as exc:
            raise DegenerateDataError(str(exc)) from exc
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            break
    else:
        raise RuntimeError("IRLS did not converge")
    mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
    try:  # the information matrix at the last step can be exactly singular too
        se = np.sqrt(np.linalg.inv(X.T @ (X * (mu * (1 - mu))[:, None]))[1, 1])
    except np.linalg.LinAlgError as exc:
        raise DegenerateDataError(str(exc)) from exc
    if se == 0.0 or not np.isfinite(se):
        return 1.0
    return float(2.0 * ndtr(-abs(beta[1] / se)))


@st.composite
def sparse_corpora(draw) -> dict:
    """2-8 users with one message per platform, drawn from vocabularies that
    share two words, so that many unigrams are (quasi-completely) separated."""
    vocab = {"facebook": ["fun", "weekend", "ok", "yes"], "sms": ["ok", "yes", "lol", "omw"]}
    corpora = {}
    for i in range(draw(st.integers(2, 8))):
        for plat, words in vocab.items():
            text = " ".join(draw(st.lists(st.sampled_from(words), min_size=1, max_size=8)))
            corpora[(f"u{i}", plat)] = corpus(f"u{i}", plat, [text])
    return corpora


def quasi_separated_corpora() -> dict:
    """Six users write ``fun`` on facebook and ``ok`` in sms, a seventh ``ok``
    on both: the reference's Newton iteration on ``ok`` stops on a
    numerically singular information matrix instead of failing."""
    return paired_corpora(7, lambda i: ["ok" if i == 6 else "fun"], lambda i: ["ok"])


class TestSeparation:
    @given(sparse_corpora())
    @settings(max_examples=150, deadline=None)
    @example(paired_corpora(4, lambda i: ["fun ok" if i % 2 else "ok"], lambda i: ["ok yes"]))
    @example(quasi_separated_corpora())
    @example(  # the reference's information matrix is singular after its last step
        paired_corpora(
            6,
            lambda i: ["fun " * (7, 5, 7, 6, 6, 1)[i] + "ok" + " ok" * (i in (3, 4))],
            lambda i: ["ok" + " yes" * 7 if i == 5 else "yes"],
        )
    )
    def test_separated_features_take_the_fallback_without_a_fit(self, corpora):
        """Where the platforms' values overlap at most at one point there is
        no MLE: the fit is not tried and the row takes the paired-t fallback.
        Where the reference's fit failed, which is what it does on nearly
        every such feature, each row is the reference's.  Where its Newton
        iteration stopped instead, it stopped at the Wald p's limit of 1."""
        users = shared_users(corpora)
        labels = np.r_[np.ones(len(users)), np.zeros(len(users))]
        rows = diff_ngrams(count_table(corpora), min_group_fraction=0.0, orders=(1,))
        vectors = {key: corpus_ngrams(corpus, (1,)) for key, corpus in corpora.items()}
        stopped = set()
        for row in rows:
            x, y = (
                np.array([vectors[(u, plat)].get(row.ngram, 0.0) for u in users])
                for plat in ("facebook", "sms")
            )
            constant = x.min() == x.max() == y.min() == y.max()
            if row.degenerate or constant or not (x.min() >= y.max() or y.min() >= x.max()):
                continue
            assert row.p_fallback == "paired_t"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(RuntimeWarning, match="separation"):
                    univariate_logistic_p(np.r_[x, y], labels)
                try:
                    p = logistic_p_fitting_quasi_separation(np.r_[x, y], labels)
                except (RuntimeWarning, RuntimeError, DegenerateDataError):
                    continue
            assert p > 0.999
            stopped.add(row.ngram)
        reference = diff_ngrams_per_feature(
            corpora, min_group_fraction=0.0, orders=(1,), logistic_p=logistic_p_fitting_quasi_separation
        )
        # a changed p may move other rows' FDR flags
        kept = (lambda rows: [replace(r, q_significant=None) for r in rows]) if stopped else list
        assert_rows_match(
            kept(r for r in rows if r.ngram not in stopped),
            kept(r for r in reference if r.ngram not in stopped),
        )


def assert_rows_match(rows, reference):
    """The batched rows are the per-feature loop's: every field exactly,
    except a fitted logistic p, which may differ in the last bits."""
    assert len(rows) == len(reference)
    for got, want in zip(rows, reference):
        if got.p_fallback is None and not got.degenerate:
            assert got.p_value == pytest.approx(want.p_value, rel=1e-10, abs=0)
            got = replace(got, p_value=want.p_value)
        assert repr(got) == repr(want)


SMALL = (0.0, 0.0, 0.1, 0.25, 0.5, 1.0)  # frequencies that tie, so often separate
LARGE = (0.0, 2.0, 1e6)  # magnitudes at which the scalar fit's exp overflows


@st.composite
def paired_matrices(draw) -> tuple[np.ndarray, np.ndarray]:
    """Paired users x features matrices whose columns are small frequencies
    (fitted, constant or separated), small frequencies that overlap at one
    value at most (separated or quasi-separated), constant nonzero
    differences (degenerate), or large magnitudes."""
    n = draw(st.integers(2, 8))
    columns = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["small", "split", "shifted", "large"]))
        pools = {"large": (LARGE, LARGE), "split": (SMALL[:4], SMALL[3:])}.get(kind, (SMALL, SMALL))
        x, y = (draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)) for pool in pools)
        if kind == "shifted":
            shift = draw(st.sampled_from((0.25, 1.0)))
            y = [v - shift for v in x]
        columns.append((x, y))
    return tuple(np.array([c[side] for c in columns], dtype=float).T for side in (0, 1))


class TestBatchedStatistics:
    @given(paired_matrices(), st.sampled_from((0.05, 0.5)))
    @settings(max_examples=120, deadline=None)
    @example(tuple(np.array([c[side] for c in FAILED_FITS]).T for side in (0, 1)), 0.05)
    def test_rows_equal_the_per_feature_loop(self, matrices, alpha):
        X_fb, X_sms = matrices
        features = [f"f{j}" for j in range(X_fb.shape[1])]
        assert_rows_match(
            ngram_diffs(features, X_fb, X_sms, alpha),
            ngram_diffs_per_feature(features, X_fb, X_sms, alpha),
        )

    @given(sparse_corpora())
    @settings(max_examples=30, deadline=None)
    def test_diff_ngrams_equals_the_per_feature_loop(self, corpora):
        assert_rows_match(
            diff_ngrams(count_table(corpora), min_group_fraction=0.0, orders=(1, 2)),
            diff_ngrams_per_feature(corpora, min_group_fraction=0.0, orders=(1, 2)),
        )
