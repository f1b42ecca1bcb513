"""Differential language analysis and corpus summary statistics."""

from __future__ import annotations

import numpy as np
import pytest

from scrublang.analysis import (
    InsufficientUsersError,
    cloud_data,
    diff_categories,
    diff_ngrams,
    shared_users,
    summary_stats,
)
from scrublang.features import DictionarySpec, UserCorpus


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
    def test_planted_bigram_significant_on_facebook_side(self):
        rng = np.random.default_rng(0)
        filler = "the day was long and we went out".split()

        def fb_docs(i):
            words = list(rng.permutation(filler)) + ["fun", "weekend"] * (2 + i % 3)
            return [" ".join(words)]

        def sms_docs(i):
            return [" ".join(rng.permutation(filler))]

        corpora = paired_corpora(16, fb_docs, sms_docs)
        rows = diff_ngrams(corpora, alpha=0.05, min_group_fraction=0.5, orders=(1, 2))
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
        rows = diff_ngrams(corpora, alpha=0.05, min_group_fraction=0.5)
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
        rows = diff_ngrams(corpora, alpha=0.2, min_group_fraction=0.3)
        clouds = cloud_data(rows)
        assert {c.ngram for c in clouds} == {
            r.ngram for r in rows if r.q_significant and np.isfinite(r.cohens_d)
        }

    def test_insufficient_users(self):
        corpora = {("u1", "facebook"): corpus("u1", "facebook", ["hello"])}
        with pytest.raises(InsufficientUsersError):
            diff_ngrams(corpora)

    def test_constant_nonzero_difference_is_degenerate(self):
        # every user: "fun" is 1/2 of the posts' words and 1/4 of the messages'
        corpora = paired_corpora(6, lambda i: ["fun day"], lambda i: ["fun day day day"])
        rows = {r.ngram: r for r in diff_ngrams(corpora, min_group_fraction=0.5, orders=(1,))}
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
        rows = {r.category: r for r in diff_categories(corpora, spec, alpha=0.05)}
        assert rows["leisure"].t_statistic > 0
        assert rows["assent"].t_statistic < 0
        assert rows["leisure"].q_significant and rows["assent"].q_significant

    def test_constant_nonzero_difference_is_degenerate(self):
        spec = DictionarySpec({"leisure": ["fun"]})
        corpora = paired_corpora(6, lambda i: ["fun day"], lambda i: ["fun day day day"])
        (row,) = diff_categories(corpora, spec)
        assert row.degenerate and row.p_value == 1.0 and not row.q_significant
        assert np.isnan(row.t_statistic)

    def test_equal_usage_degenerate_category(self):
        spec = DictionarySpec({"both": ["word"]})
        corpora = paired_corpora(6, lambda i: ["word two"], lambda i: ["word two"])
        (row,) = diff_categories(corpora, spec)
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
