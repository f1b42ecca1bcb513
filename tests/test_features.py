"""Tokenizer, n-gram frequencies, dictionary categories, corpus loading."""

from __future__ import annotations

import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logistic_oracle
from scrublang import features
from scrublang.detectors import Gazetteer, load_catalogue
from scrublang.features import (
    DictionaryError,
    DictionarySpec,
    UserCorpus,
    count_table,
    filter_min_words,
    group_frequency_filter,
    load_corpus_jsonl,
    tokenize,
)
from scrublang.spans import PLACEHOLDER_RE, span
from scrublang.synth import make_fixture

tokens_strategy = st.lists(
    st.sampled_from(["a", "b", "c", "dd", "ee", ":)", "<email>"]), min_size=1, max_size=30
)


def ngrams(*documents: str, orders=(1, 2, 3)) -> dict[str, float]:
    return UserCorpus("u", "sms", list(documents)).ngram_features(orders)


def usage(users: list[list[int]], n_columns: int) -> tuple[np.ndarray, int]:
    """Each of ``n_columns`` columns' number of users, and the number of
    users, where user i uses the distinct columns ``users[i]``."""
    indices = np.array([j for cols in users for j in cols], dtype=np.intp)
    return np.bincount(indices, minlength=n_columns), len(users)


def categories(text: str, spec: DictionarySpec) -> dict[str, float]:
    return UserCorpus("u", "sms", [text] if text else []).dictionary_features(spec)


class TestTokenize:
    def test_punctuation_split_and_emoticon(self):
        assert tokenize("Love this!! :)") == ["love", "this", "!", "!", ":)"]

    def test_empty(self):
        assert tokenize("") == []

    def test_contractions_stay_whole(self):
        assert tokenize("i'll text u") == ["i'll", "text", "u"]
        assert tokenize("I’m here") == ["i'm", "here"]

    def test_placeholders_are_single_tokens(self):
        toks = tokenize("saw <work of art> and <date|phone> today")
        assert "<work of art>" in toks and "<date|phone>" in toks

    def test_hashtags_and_mentions(self):
        assert tokenize("at the #beach w/ @sam") == ["at", "the", "#beach", "w", "/", "@sam"]

    def test_placeholder_predicate(self):
        assert PLACEHOLDER_RE.fullmatch("<email>")
        assert PLACEHOLDER_RE.fullmatch("<work of art>")
        assert not PLACEHOLDER_RE.fullmatch("email")
        assert not PLACEHOLDER_RE.fullmatch("<3")
        # a label holds spaces only inside it
        assert PLACEHOLDER_RE.fullmatch("<date|phone>")
        assert not PLACEHOLDER_RE.fullmatch("<xd >")
        assert not PLACEHOLDER_RE.fullmatch("<a |b>")

    def test_emoticon_before_a_spaced_gt_is_two_tokens(self):
        # were "<xd >" a placeholder, its unigram id would equal the bigram id
        # of "<xd" and ">", which "<xd\t>" spells
        expected = ["ok", "<xd", ">", "and", "<xd", ">", "again"]
        assert tokenize("ok <xd > and <xd\t> again") == expected

    def test_every_bundled_label_and_compound_is_one_placeholder(self):
        catalogue = {d.name for d in load_catalogue()}
        labels = sorted(catalogue | set(Gazetteer.bundled_sample().entries))
        assert "person" in labels and "work of art" in labels and "credit_card" in labels
        tags = [(a,) for a in labels] + list(itertools.combinations(labels, 2))
        for placeholder in (span(0, 1, *t).placeholder() for t in tags):
            assert PLACEHOLDER_RE.fullmatch(placeholder)
            assert tokenize(f"x {placeholder} y") == ["x", placeholder, "y"]


class TestNgrams:
    def test_single_document_counts(self):
        vec = ngrams("a b a")
        assert vec["a"] == pytest.approx(2 / 3)
        assert vec["b"] == pytest.approx(1 / 3)
        assert vec["a b"] == pytest.approx(1 / 2)
        assert vec["b a"] == pytest.approx(1 / 2)

    def test_single_token_has_no_higher_orders(self):
        assert ngrams("a") == {"a": 1.0}

    def test_no_cross_document_ngrams(self):
        vec = ngrams("a b", "b a")
        assert "b b" not in vec
        assert vec["a b"] == pytest.approx(1 / 2)
        assert vec["b a"] == pytest.approx(1 / 2)

    @given(tokens_strategy)
    @settings(max_examples=100, deadline=None)
    def test_per_order_frequencies_sum_to_one(self, tokens):
        assert tokenize(" ".join(tokens)) == tokens
        vec = ngrams(" ".join(tokens))
        for order in (1, 2, 3):
            total = sum(v for k, v in vec.items() if k.count(" ") + 1 == order)
            if len(tokens) >= order:
                assert total == pytest.approx(1.0)

    def test_placeholder_with_spaces_is_a_unigram(self):
        assert ngrams("<work of art> a", orders=(1,)) == {"<work of art>": 0.5, "a": 0.5}
        text = "<work of art> a <work of art> b"
        vec = ngrams(text, orders=(1, 2, 3))
        for order in (1, 2, 3):
            by_order = ngrams(text, orders=(order,))
            assert by_order.items() <= vec.items()
            assert sum(by_order.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("orders", [(0,), (1, 0), (-1, 2)])
    def test_orders_below_one_rejected(self, orders):
        corpora = {("u", "sms"): UserCorpus("u", "sms", ["a b"])}
        with pytest.raises(ValueError, match="orders must be >= 1"):
            count_table(corpora, orders)
        with pytest.raises(ValueError, match="orders must be >= 1"):
            ngrams("a b", orders=orders)

    @given(
        st.lists(st.lists(tokens_strategy, min_size=1, max_size=4), min_size=1, max_size=3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_counts_stable_under_document_order(self, users, random):
        """Permuting each corpus's documents gives an equal table, whose
        totals count each document's own windows."""
        corpora = {
            (f"u{i}", "sms"): UserCorpus(f"u{i}", "sms", list(map(" ".join, docs)))
            for i, docs in enumerate(users)
        }
        permuted = {
            key: UserCorpus(*key, random.sample(c.documents, len(c.documents)))
            for key, c in corpora.items()
        }
        table = count_table(corpora)
        assert_equal_tables(count_table(permuted), table)
        for r, docs in enumerate(users):
            assert table.totals[r].tolist() == [
                0, *(sum(max(len(doc) - n + 1, 0) for doc in docs) for n in (1, 2, 3))
            ]

    # "<xd >" and "<xd\t>" are the tokens "<xd" and ">"; "<work of art>" is
    # one token whose id holds spaces
    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "<xd >", "<xd\t>", "<work of art>", ":)"]),
                     max_size=8).map(" ".join),
            max_size=4,
        ),
        st.sampled_from([(1,), (2,), (3, 1), (2, 1), (1, 2, 3)]),
    )
    @settings(max_examples=200, deadline=None)
    @example(["ok <work of art> and <xd\t> again"], (2, 1))
    def test_one_walk_matches_order_by_order(self, docs, orders):
        """One walk gives each n-gram the frequency that the order-by-order
        reference gives it, whatever the order of ``orders``."""
        corpus = UserCorpus("u", "sms", docs)
        assert corpus.ngram_features(orders) == logistic_oracle.corpus_ngrams(corpus, orders)


class TestDictionary:
    def test_wildcard_prefix_counting(self):
        spec = DictionarySpec({"assent": ["yes", "ok*"]})
        assert categories("yes ok okay no", spec) == {"assent": pytest.approx(3 / 4)}

    def test_empty_tokens_give_zero(self):
        spec = DictionarySpec({"assent": ["yes"], "negate": ["no"]})
        assert categories("", spec) == {"assent": 0.0, "negate": 0.0}

    def test_token_counts_once_per_category(self):
        spec = DictionarySpec({"a": ["ok"], "b": ["ok*"]})
        assert categories("ok", spec) == {"a": 1.0, "b": 1.0}

    def test_internal_star_rejected(self):
        with pytest.raises(DictionaryError):
            DictionarySpec({"bad": ["o*k"]})
        with pytest.raises(DictionaryError):
            DictionarySpec({"bad": ["*ok"]})

    def test_monotone_under_added_entry(self):
        text = "yes ok sure fine"
        base = DictionarySpec({"c": ["yes"]})
        larger = DictionarySpec({"c": ["yes", "sure"]})
        assert categories(text, larger)["c"] >= categories(text, base)["c"]

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("# comment\n[assent]\nyes\nok*\n[leisure]\nfun\n")
        spec = DictionarySpec.from_file(path)
        assert spec.categories == {"assent": ["yes", "ok*"], "leisure": ["fun"]}

    def test_file_entry_before_header(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("yes\n[assent]\n")
        with pytest.raises(DictionaryError):
            DictionarySpec.from_file(path)


class TestCorpus:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [
            {"user_id": "u1", "platform": "facebook", "text": "fun weekend"},
            {"user_id": "u1", "platform": "sms", "text": "ok yes"},
            {"user_id": "u1", "platform": "facebook", "text": "more fun"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        corpora = load_corpus_jsonl(path)
        assert corpora[("u1", "facebook")].documents == ["fun weekend", "more fun"]
        assert corpora[("u1", "sms")].documents == ["ok yes"]

    def test_text_may_hold_unicode_line_separators(self, tmp_path):
        # JSON allows U+2028, U+2029 and U+0085 raw in a string; only \n ends a record
        path = tmp_path / "corpus.jsonl"
        text = "one\u2028two\u2029three\u0085four"
        row = {"user_id": "u1", "platform": "sms", "text": text}
        path.write_text(json.dumps(row, ensure_ascii=False) + "\n", encoding="utf-8")
        assert load_corpus_jsonl(path)[("u1", "sms")].documents == [text]

    def test_bad_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"user_id": "u1"}\n')
        with pytest.raises(ValueError):
            load_corpus_jsonl(path)

    def test_documents_tokenized_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(features, "tokenize", lambda text: calls.append(text) or text.split())
        corpus = UserCorpus("u1", "sms", ["a b", "c"])
        assert corpus.word_count() == 3
        assert corpus.ngram_features((1,)) == {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}
        corpus.dictionary_features(DictionarySpec({"x": ["a"]}))
        assert calls == ["a b", "c"]

    def test_min_words_across_platforms(self):
        corpora = {
            ("u1", "facebook"): UserCorpus("u1", "facebook", ["w " * 300]),
            ("u1", "sms"): UserCorpus("u1", "sms", ["w " * 250]),
            ("u2", "facebook"): UserCorpus("u2", "facebook", ["w " * 100]),
        }
        kept, excluded = filter_min_words(corpora, 500)
        assert ("u1", "sms") in kept and ("u2", "facebook") not in kept
        assert excluded == {"u2": 100}

    def test_group_frequency_filter(self):
        # columns common, rare
        users = usage([[0, 1], [0], [0], [0]], 2)
        assert group_frequency_filter(*users, 0.5).tolist() == [0]
        assert group_frequency_filter(*users, 0.25).tolist() == [0, 1]
        assert group_frequency_filter(*usage([], 2), 0.25).tolist() == []

    def test_group_frequency_filter_keeps_a_feature_at_the_exact_fraction(self):
        # 0.28 * 25 is 7.000000000000001: 7 of 25 users is still 0.28 of them;
        # columns edge, other
        users = usage([[0] if i < 7 else [1] for i in range(25)], 2)
        assert group_frequency_filter(*users, 0.28).tolist() == [0, 1]
        for d in (3, 7, 10, 20, 25, 50, 100):
            for k in range(1, d):
                for n in range(1, 60):
                    at = -(-k * n // d)  # the fewest of n users that make k/d of them
                    # columns at, below
                    users = usage([[0, 1]] * (at - 1) + [[0]] + [[]] * (n - at), 2)
                    assert group_frequency_filter(*users, k / d).tolist() == [0], (k, d, n)

    def test_no_shared_users_keep_no_feature_and_divide_nothing(self):
        corpora = {(u, "facebook"): UserCorpus(u, "facebook", ["a b"]) for u in ("u1", "u2")}
        corpora[("u3", "sms")] = UserCorpus("u3", "sms", ["a"])
        table = count_table(corpora, orders=(1, 2))
        assert table.users == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fraction in (0.0, 0.5):
                assert table.paired_features((1, 2), fraction) == []
                assert group_frequency_filter(*usage([], 3), fraction).tolist() == []

    def test_count_table_rows_per_platform(self):
        corpora = {
            ("u1", "facebook"): UserCorpus("u1", "facebook", ["a b"]),
            ("u1", "sms"): UserCorpus("u1", "sms", ["c"]),
        }
        table = count_table(corpora, orders=(1,))
        assert table.rows == {("u1", "facebook"): 0, ("u1", "sms"): 1}
        assert table.vocabulary == ["a", "b", "c"]
        assert table.row(("u1", "facebook"), (1,)) == {"a": 0.5, "b": 0.5}
        assert table.row(("u1", "sms"), (1,)) == {"c": 1.0}
        assert table.freqs([("u1", "facebook")], ["a", "b", "c"]).tolist() == [[0.5, 0.5, 0.0]]
        # a feature asked for twice reads its column twice, as does every absent one
        freqs = table.freqs([("u1", "sms"), ("u1", "facebook")], ["c", "b", "zz", "c", "b", "zz"])
        assert freqs.tolist() == [[1.0, 0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0, 0.5, 0.0]]


def assert_equal_tables(got, want):
    """Two count tables are equal: rows, users, vocabulary, column orders,
    the stored cells (``indptr``, ``indices`` and ``counts``), and the totals;
    and each stores its cells in canonical form: each row's columns strictly
    increase, every count is above 0, and the last column is empty."""
    assert (got.rows, got.users, got.vocabulary) == (want.rows, want.users, want.vocabulary)
    for a, b in [(got.orders, want.orders), (got.totals, want.totals), (got.indptr, want.indptr),
                 (got.indices, want.indices), (got.counts, want.counts)]:
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for table in (got, want):
        assert table.indptr[0] == 0 and table.indptr[-1] == len(table.indices) == len(table.counts)
        cell_rows = np.repeat(np.arange(len(table.rows)), np.diff(table.indptr))
        assert np.all(np.diff(cell_rows * len(table.orders) + table.indices) > 0)
        assert np.all(table.counts > 0) and np.all(table.indices < len(table.vocabulary))


def dictionary_per_token(documents, spec: DictionarySpec) -> dict[str, float]:
    """Reference for ``CountTable.categories``: every token occurrence of the
    token ``documents`` scored against every category."""
    flat = [t for doc in documents for t in doc]
    total = len(flat)
    out = {cat: 0 for cat in spec.categories}
    for tok in flat:
        for cat in spec.categories:
            if spec.matches(tok, cat):
                out[cat] += 1
    return {cat: (c / total if total else 0.0) for cat, c in out.items()}


WORDS = ["ok", "okay", "you", "fun", "i’ll", "i'll", ":)", "<work of art>", "<email>", "a", "b"]
# emoticons that start like a placeholder, the pieces that end or join one,
# placeholders and words, for ids that several token sequences could spell
PIECES = ["<xd", "<x3", "<xod", ">", "|", "<a b>", "ok"]
SPECS = [
    DictionarySpec({}),
    DictionarySpec({"assent": ["ok*", "yes"]}),
    DictionarySpec({"you": ["you", "u"], "leisure": ["fun", "play*"], "will": ["i'll", "<work*"]}),
]


def assert_table_matches_dict_path(corpora, orders, spec):
    """``count_table`` reads every corpus as the per-corpus references'
    dicts do, bit for bit: n-gram frequencies (and a column of zeros for an
    n-gram no corpus holds), each corpus's own row, the group frequency
    filter and the dictionary categories."""
    keys = sorted(corpora)
    vectors = {key: logistic_oracle.corpus_ngrams(corpora[key], orders) for key in keys}
    names = sorted(set().union(*vectors.values())) + ["zz unseen"]
    table = count_table(corpora, orders)
    got = table.freqs(keys, names)
    assert np.array_equal(got, logistic_oracle.feature_matrix(vectors, keys, names))
    assert [table.row(key, orders) for key in keys] == [vectors[key] for key in keys]
    assert [corpora[key].ngram_features(orders) for key in keys] == [vectors[key] for key in keys]
    users, fb, sms = logistic_oracle.paired_vectors(corpora, orders)
    assert table.users == users
    wider = count_table(corpora, (1, 2, 3))  # counts the users of the asked orders only
    # and each k/n of the users, where a feature used by k of them sits at the bound
    for fraction in (0.0, 0.5, 1.0, *(k / len(users) for k in range(1, len(users)))):
        want = logistic_oracle.paired_features(fb, sms, fraction)
        assert table.paired_features(orders, fraction) == want
        assert wider.paired_features(orders, fraction) == want
    table = count_table(corpora, {1, *orders})
    cats = sorted(spec.categories)
    want = [[dictionary_per_token(corpora[k]._tokens, spec)[c] for c in cats] for k in keys]
    assert table.categories(keys, spec).tolist() == want
    assert [list(corpora[k].dictionary_features(spec).values()) for k in keys] == want


class TestCountTable:
    def test_group_filter_peak_stays_below_one_int64_per_column(self, tmp_path):
        # each user's two rows are merged on their own into a one-byte count
        # per column: 6.4 bytes per column traced here, at every asked order,
        # where summing every user's rows first took 61 on this table
        posts = load_corpus_jsonl(make_fixture(tmp_path, n_users=40, seed=1)["facebook_corpus"])
        corpora = {}
        for (user, _), corpus in posts.items():
            half = len(corpus.documents) // 2
            corpora[(user, "facebook")] = UserCorpus(user, "facebook", corpus.documents[:half])
            corpora[(user, "sms")] = UserCorpus(user, "sms", corpus.documents[half:])
        table = count_table(corpora, (1, 2, 3))
        for orders in [(1,), (1, 2), (1, 2, 3)]:
            tracemalloc.start()
            try:
                table.paired_features(orders, 0.25)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * len(table.orders), orders

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("orders", [(1,), (2, 3), (1, 2, 3)])
    def test_edge_cases_match_the_dict_path(self, orders, spec):
        docs = {
            ("u0", "facebook"): ["", "I’ll see <work of art> ok, you?"],  # empty document
            ("u0", "sms"): ["ok u"],  # fewer tokens than order 3
            ("u1", "facebook"): ["you play fun :) fun"],  # one platform only
            ("u2", "facebook"): ["okay yes yes", "playing"],
            ("u2", "sms"): [""],  # no n-gram of any order
        }
        corpora = {key: UserCorpus(*key, list(texts)) for key, texts in docs.items()}
        assert_table_matches_dict_path(corpora, orders, spec)

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from(["u0", "u1", "u2"]), st.sampled_from(features.PLATFORMS)),
            st.lists(st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join), max_size=3),
            max_size=8,
        ),
        st.sets(st.integers(1, 3), min_size=1),
        st.sampled_from(SPECS),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_corpora_match_the_dict_path(self, docs, orders, spec):
        corpora = {key: UserCorpus(*key, texts) for key, texts in docs.items()}
        assert_table_matches_dict_path(corpora, tuple(sorted(orders)), spec)

    @given(
        st.lists(
            st.lists(st.tuples(st.sampled_from(PIECES), st.sampled_from([" ", "\t", ""])),
                     min_size=1, max_size=20).map(lambda parts: "".join(map("".join, parts))),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    @example(["ok <xd > and <xd\t> again"])
    def test_no_id_names_two_columns(self, docs):
        """Each n-gram id is counted under one order: no placeholder token
        spells the id of several tokens, whatever separates the pieces."""
        corpora = {(f"u{i}", "sms"): UserCorpus(f"u{i}", "sms", [d]) for i, d in enumerate(docs)}
        vocabulary = count_table(corpora, (1, 2, 3)).vocabulary
        assert len(set(vocabulary)) == len(vocabulary)

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from(["u0", "u1", "u2"]), st.sampled_from(features.PLATFORMS)),
            st.lists(
                st.lists(st.sampled_from([*WORDS, "<xd >", "<xd\t>"]), max_size=8).map(" ".join),
                max_size=3,
            ),
            min_size=1,
            max_size=6,
        ),
        st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    @example({("u0", "facebook"): ["ok <xd > and <xd\t> again"]}, [2, 1])
    def test_ngram_features_is_the_table_row_in_any_order_of_orders(self, docs, orders):
        """A corpus's ``ngram_features`` is its row of the table of every
        corpus, the same for each permutation of ``orders``."""
        corpora = {key: UserCorpus(*key, texts) for key, texts in docs.items()}
        table = count_table(corpora, orders)
        for key, corpus in corpora.items():
            row = table.row(key, orders)
            for permuted in itertools.permutations(orders):
                assert corpus.ngram_features(permuted) == row

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from(["u0", "u1", "u2"]), st.sampled_from(features.PLATFORMS)),
            st.lists(
                st.lists(st.sampled_from([*WORDS, "<xd >", "<xd\t>"]), max_size=8).map(" ".join),
                max_size=3,
            ),
            min_size=1,
            max_size=6,
        ),
        st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    @example({("u0", "sms"): ["<xd > z ok"], ("u1", "sms"): ["<xd\t> z"]}, [2, 3])
    def test_freqs_reads_each_row_as_its_own_row(self, docs, orders):
        """Each cell of ``freqs`` is the row's ``row`` value, 0 where it has
        none: u1 counts no trigram "> z ok", and no row counts "absent"."""
        corpora = {key: UserCorpus(*key, texts) for key, texts in docs.items()}
        table = count_table(corpora, orders)
        keys, ids = sorted(corpora), [*table.vocabulary, "absent"]
        freqs = table.freqs(keys, ids)
        for key, cells in zip(keys, freqs.tolist()):
            row = table.row(key, orders)
            assert cells == [row.get(i, 0.0) for i in ids]


# tokens that spell ids with spaces, a placeholder that is one token, and words
ORACLE_WORDS = ["a", "b", "ok", "<work of art>", "<email>", ":)", "<xd", ">"]


class TestIntegerKeyBuild:
    """The build from int64 window keys, against the per-document reference
    at small and large vocabularies."""

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from(["u0", "u1", "u2"]), st.sampled_from(features.PLATFORMS)),
            # empty documents and documents shorter than every order included
            st.lists(st.lists(st.sampled_from(ORACLE_WORDS), max_size=6).map(" ".join),
                     max_size=4),
            max_size=6,
        ),
        st.sets(st.integers(1, 4), min_size=1),
    )
    @settings(max_examples=150, deadline=None)
    @example({("u0", "sms"): ["", "a", "a <work of art> b", "ok ok"]}, {4, 1})
    def test_matches_the_per_document_reference(self, docs, orders):
        """Each row is the reference's, the vocabulary strictly increases, and
        the (id, order) of the columns are exactly the windows inside the
        documents: no n-gram spans two documents."""
        corpora = {key: UserCorpus(*key, texts) for key, texts in docs.items()}
        table = count_table(corpora, orders)
        for key, corpus in corpora.items():
            assert table.row(key, orders) == logistic_oracle.corpus_ngrams(corpus, orders)
        assert all(a < b for a, b in zip(table.vocabulary, table.vocabulary[1:]))
        windows = {
            (" ".join(doc[i : i + n]), n)
            for corpus in corpora.values()
            for doc in map(tokenize, corpus.documents)
            for n in orders
            for i in range(len(doc) - n + 1)
        }
        assert set(zip(table.vocabulary, table.orders[:-1].tolist())) == windows
        for key, r in table.rows.items():
            tokens = list(map(tokenize, corpora[key].documents))
            for n in orders:
                assert table.totals[r, n] == sum(max(len(doc) - n + 1, 0) for doc in tokens)

    @pytest.mark.parametrize("vocab", [6**2, 6**3, 6**4])
    def test_overflow_path_builds_the_same_table(self, vocab):
        """Every order past 1 is keyed the way base-V digits past int64 once
        were, (rank of the first n - 1 ids) * V + last id: at 6**2, 6**3 and
        6**4 distinct tokens, orders 1-4 give the reference's rows, with
        n-grams repeated within and across rows and documents shorter than 4.
        Every token is followed by the first and by the last token in id
        order, so each prefix rank's largest key meets the next one's
        smallest."""
        seq = [f"w{i}" for i in np.random.default_rng(vocab).permutation(vocab)]
        chunks = [" ".join(seq[i : i + 7]) for i in range(0, vocab, 7)]
        shifted = [" ".join(seq[i : i + 7]) for i in range(3, vocab, 7)]
        first, last = min(seq), max(seq)
        ends = [f"{w} {last} {w} {first}" for w in seq]
        corpora = {
            ("u0", "facebook"): UserCorpus("u0", "facebook", chunks + ends + ["", seq[0]]),
            ("u0", "sms"): UserCorpus("u0", "sms", shifted + chunks[:2] + [" ".join(seq[:3] * 3)]),
            ("u1", "sms"): UserCorpus("u1", "sms", chunks[::-1]),
        }
        orders = (1, 2, 3, 4)
        table = count_table(corpora, orders)
        assert int((table.orders == 1).sum()) == vocab
        for key, corpus in corpora.items():
            assert table.row(key, orders) == logistic_oracle.corpus_ngrams(corpus, orders)

    def test_a_vocabulary_past_base_v_digits_builds_the_reference_rows(self):
        """56 000 distinct tokens: V**4 >= 2**63, so order 4's windows read as
        base-V digits would overflow int64, and the rank of the first n - 1
        ids times V plus the last id does not.  Every order repeats some
        n-grams within and across rows."""
        seq = [f"w{i}" for i in np.random.default_rng(4).permutation(56_000)]
        chunks = [" ".join(seq[i : i + 40]) for i in range(0, len(seq), 40)]
        shifted = [" ".join(seq[i : i + 40]) for i in range(20, len(seq), 40)]
        corpora = {
            ("u0", "facebook"): UserCorpus("u0", "facebook", chunks),
            ("u0", "sms"): UserCorpus("u0", "sms", shifted + chunks[:3] + ["w1 w2 w1 w2 w1"]),
        }
        orders = (1, 2, 3, 4)
        table = count_table(corpora, orders)
        assert int((table.orders == 1).sum()) ** 4 >= 2**63
        for key, corpus in corpora.items():
            assert table.row(key, orders) == logistic_oracle.corpus_ngrams(corpus, orders)

    def test_peak_memory_is_no_larger_than_the_string_counter(self, tmp_path):
        # The string-keyed build this replaced (one Counter per order and
        # corpus, over joined ids) peaked at 4.52 MB traced here, at orders
        # 1-3 of the 40-user fixture's posts; this build peaks at 4.03 MB
        corpora = load_corpus_jsonl(make_fixture(tmp_path, n_users=40, seed=1)["facebook_corpus"])
        for corpus in corpora.values():
            corpus.word_count()  # tokenized before tracing
        tracemalloc.start()
        try:
            table = count_table(corpora, (1, 2, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table.vocabulary) == 20_634
        assert peak < 4.52e6
