"""Tokenization, 1-to-3-gram frequencies, dictionary categories, and the
count table every analysis stage reads.

The tokenizer is tuned for informal message text: it lowercases, keeps
emoticons (":)") and contractions ("i'll") intact, treats redaction
placeholders ("<email>", "<date|phone>") as single tokens, and splits
ordinary punctuation into its own tokens.  It is fixture-tested rather than a
byte-exact clone of any particular social-media tokenizer.

N-gram frequencies are relative per order: each n-gram count is divided by
the total number of n-grams of that order, so the values for one user and one
order sum to 1.  An n-gram's order is the one it was counted under, never
inferred from the spaces in its id (placeholders such as "<work of art>"
contain spaces).  N-grams never cross document boundaries.

Dictionary categories count tokens matching category entries; an entry is a
literal token or a prefix wildcard ("happ*", star only in terminal position).
Each distinct token type is scored once against every category.

:func:`count_table` is the one counter: it counts every (user, platform)
corpus once into one :class:`CountTable`, a sparse users x vocabulary matrix
of integer n-gram counts, one column per n-gram id with the vocabulary sorted
by id, and each row's total per order.  It counts int64 keys, not strings:
each token has an int id, every document's ids are laid out in one array,
and an n-gram is a window of ids inside one document, so only each distinct
n-gram is joined into its string id.  Every frequency is read from it: one
corpus's n-grams (:meth:`CountTable.row`, which :meth:`UserCorpus.ngram_features`
reads from the table of that corpus alone), n-gram frequencies by id
(:meth:`CountTable.paired` pairs the two platforms) and dictionary categories
(the unigram columns times a 0/1 type x category matrix), with one
``count / total`` per cell.  So is the group filter: the users of an n-gram
are the stored cells of its column in the sum of each user's facebook and
sms rows, counted by one ``bincount`` (:func:`group_frequency_filter`).
"""

from __future__ import annotations

import bisect
import itertools
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .spans import PLACEHOLDER_RE, json_lines, json_record, numbered_lines, straight_apostrophes

if TYPE_CHECKING:
    from scipy import sparse

DEFAULT_MIN_WORDS = 500
DEFAULT_MIN_GROUP_FRACTION = 0.05
PLATFORMS = ("facebook", "sms")

# token grammar, tried in order: placeholder, emoticon, word w/ contractions,
# hashtag/mention, number, any other non-space char
_TOKEN_RE = re.compile(
    PLACEHOLDER_RE.pattern  # redaction placeholder
    + r"""
    | [<>]?[:;=8xX][\-o^']?[()\[\]dDpP/\\|*3{}] # emoticon, western style
    | <3                                        # heart
    | [#@][a-z0-9_]+                            # hashtag / mention
    | [a-z0-9]+(?:'[a-z0-9]+)*                  # word, contractions intact
    | \S                                        # any lone symbol
    """,
    re.VERBOSE,
)


class DictionaryError(ValueError):
    """Raised for malformed dictionary specs (e.g. internal wildcard)."""


def tokenize(text: str) -> list[str]:
    """Lowercased tokens; see module docstring for what stays intact."""
    return _TOKEN_RE.findall(straight_apostrophes(text.lower()))


def _dictionary_entry(entry: str) -> tuple[str, bool]:
    """(text, is_prefix) of one dictionary entry: a literal word, or a prefix
    followed by a terminal ``*``."""
    entry = entry.strip().lower()
    if not entry:
        raise DictionaryError("empty entry")
    star = entry.find("*")
    if star == -1:
        return entry, False
    if star == len(entry) - 1 and star > 0:
        return entry[:-1], True
    raise DictionaryError(f"wildcard must be terminal in {entry!r}")


@dataclass
class DictionarySpec:
    """A named category lexicon with literal and prefix-wildcard entries."""

    categories: dict[str, list[str]]
    _literals: dict[str, frozenset[str]] = field(init=False, repr=False)
    _prefixes: dict[str, tuple[str, ...]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._literals = {}
        self._prefixes = {}
        for cat, entries in self.categories.items():
            lits, prefs = set(), []
            for entry in entries:
                try:
                    text, is_prefix = _dictionary_entry(entry)
                except DictionaryError as exc:
                    raise DictionaryError(f"category {cat!r}: {exc}") from None
                if is_prefix:
                    prefs.append(text)
                else:
                    lits.add(text)
            self._literals[cat] = frozenset(lits)
            self._prefixes[cat] = tuple(sorted(prefs))

    @classmethod
    def from_file(cls, path: str | Path) -> "DictionarySpec":
        """Parse "[category]" header lines followed by one entry per line; a
        malformed line raises ``DictionaryError`` naming ``path:line``."""
        categories: dict[str, list[str]] = {}
        current: str | None = None
        for lineno, line in numbered_lines(path, comments=True):
            line = line.strip()
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                if not current:
                    raise DictionaryError(f"{path}:{lineno}: empty category name")
                categories.setdefault(current, [])
            elif current is None:
                raise DictionaryError(f"{path}:{lineno}: entry before any [category] header")
            else:
                try:
                    _dictionary_entry(line)
                except DictionaryError as exc:
                    raise DictionaryError(f"{path}:{lineno}: category {current!r}: {exc}") from None
                categories[current].append(line)
        return cls(categories)

    def matches(self, token: str, category: str) -> bool:
        if token in self._literals[category]:
            return True
        return any(token.startswith(p) for p in self._prefixes[category])


def _category_hits(types: Sequence[str], spec: DictionarySpec) -> np.ndarray:
    """The 0/1 ``types x sorted(spec.categories)`` matrix of
    :meth:`DictionarySpec.matches`, called once per (type, category)."""
    cats = sorted(spec.categories)
    hits = [[spec.matches(t, cat) for cat in cats] for t in types]
    return np.array(hits, dtype=np.int64).reshape(len(types), len(cats))


@dataclass
class UserCorpus:
    """Per-user, per-platform collection of sanitized documents.

    The documents are tokenized once, on first use, and every feature reads
    those tokens, so ``documents`` must not change after any feature (or the
    word count) has been read: build a new corpus instead, e.g. with
    ``dataclasses.replace``.
    """

    user_id: str
    platform: str
    documents: list[str] = field(default_factory=list)

    @cached_property
    def _tokens(self) -> list[list[str]]:
        # interned, because a corpus keeps its tokens and most of them repeat
        return [list(map(sys.intern, tokenize(doc))) for doc in self.documents]

    def word_count(self) -> int:
        return sum(map(len, self._tokens))

    def ngram_features(self, orders: Iterable[int] = (1, 2, 3)) -> dict[str, float]:
        """This corpus's :meth:`CountTable.row` in the table of it alone."""
        key, orders = (self.user_id, self.platform), tuple(orders)
        return count_table({key: self}, orders).row(key, orders)

    def dictionary_features(self, spec: DictionarySpec) -> dict[str, float]:
        """This corpus's :meth:`CountTable.categories`, by category."""
        key = (self.user_id, self.platform)
        freqs = count_table({key: self}, (1,)).categories([key], spec)[0]
        return dict(zip(sorted(spec.categories), freqs.tolist()))


_parse_corpus = json_record({"user_id": str, "platform": str, "text": str})


def load_corpus_jsonl(
    path: str | Path, platforms: Sequence[str] = PLATFORMS
) -> dict[tuple[str, str], UserCorpus]:
    """Load ``{user_id, platform, text}`` JSON lines into per-(user, platform)
    corpora; a platform other than ``platforms`` is a ``path:line`` error."""

    def record(line: str) -> tuple[str, str, str]:
        user, platform, text = _parse_corpus(line)
        if platform not in platforms:
            allowed = " or ".join(map(repr, platforms))
            raise ValueError(f"platform must be {allowed}, got {platform!r}")
        return user, platform, text

    corpora: dict[tuple[str, str], UserCorpus] = {}
    for _, (user, platform, text) in json_lines(path, "corpus record", record):
        corpus = corpora.get((user, platform))
        if corpus is None:
            corpus = corpora[(user, platform)] = UserCorpus(user_id=user, platform=platform)
        corpus.documents.append(text)
    return corpora


def filter_min_words(
    corpora: Mapping[tuple[str, str], UserCorpus], min_words: int = DEFAULT_MIN_WORDS
) -> tuple[dict[tuple[str, str], UserCorpus], dict[str, int]]:
    """Drop users whose total word count across platforms is below ``min_words``.

    Returns the retained corpora and an exclusion log of user -> word count.
    """
    totals: dict[str, int] = {}
    for (user, _), corpus in corpora.items():
        totals[user] = totals.get(user, 0) + corpus.word_count()
    excluded = {u: c for u, c in totals.items() if c < min_words}
    kept = {k: v for k, v in corpora.items() if k[0] not in excluded}
    return kept, excluded


def shared_users(corpora: Mapping[tuple[str, str], object]) -> list[str]:
    """The users of both platforms among the (user, platform) keys of
    ``corpora`` (corpora, or a :class:`CountTable`'s rows), sorted."""
    fb = {u for (u, plat) in corpora if plat == "facebook"}
    return sorted(fb & {u for (u, plat) in corpora if plat == "sms"})


def group_frequency_filter(
    usage: sparse.csr_array, min_fraction: float = DEFAULT_MIN_GROUP_FRACTION
) -> np.ndarray:
    """The columns of ``usage`` that at least one user and at least
    ``min_fraction`` of the users use, sorted.

    ``usage`` is a users x columns CSR matrix without duplicate entries, whose
    stored cells mark which user uses which column: a column's users are
    counted by one ``bincount`` of its indices.
    Standard differential-language practice: rare n-grams carry no stable
    signal and blow up the test count.
    """
    used_by = np.bincount(usage.indices, minlength=usage.shape[1])
    keep = used_by > 0  # only these are divided, so no users divide nothing by 0
    keep[keep] = used_by[keep] / usage.shape[0] >= min_fraction
    return np.flatnonzero(keep)


@dataclass(frozen=True)
class CountTable:
    """Integer n-gram counts of a set of corpora: one row per (user,
    platform) corpus, in sorted order, and one column per distinct n-gram id,
    sorted by id, plus a last, empty column that every n-gram outside the
    vocabulary reads.  Built by :func:`count_table`.
    """

    rows: dict[tuple[str, str], int]  # (user, platform) -> row
    users: list[str]  # the users with a row on both platforms, sorted
    vocabulary: list[str]  # each column's n-gram id
    orders: np.ndarray  # each column's order; 0 for the last column
    counts: sparse.csr_array  # rows x (columns + 1), int64; the last column is empty
    totals: np.ndarray  # rows x (1 + largest order): each row's n-gram total per order

    def paired(self, features: Sequence[str]) -> list[np.ndarray]:
        """The facebook and the sms :attr:`users` x ``features`` :meth:`freqs`."""
        return [self.freqs([(u, plat) for u in self.users], features) for plat in PLATFORMS]

    def row(self, key: tuple[str, str], orders: Iterable[int]) -> dict[str, float]:
        """Corpus ``key``'s relative frequency of each n-gram of ``orders`` it
        counts, by id in vocabulary order."""
        r = self.rows[key]
        cols = self.counts.indices[self.counts.indptr[r] : self.counts.indptr[r + 1]]  # sorted
        cols = cols[np.isin(self.orders[cols], list(orders))]
        freqs = self._cells(np.array([r]), cols)[0]
        return dict(zip([self.vocabulary[j] for j in cols], freqs.tolist()))

    def freqs(self, keys: Sequence[tuple[str, str]], features: Sequence[str]) -> np.ndarray:
        """The ``keys x features`` relative frequencies: each cell is its count
        over the row's total of that column's order, 0 where the row has no
        n-gram of that order or the feature is not in the vocabulary."""
        rows = np.array([self.rows[k] for k in keys], dtype=np.intp)
        return self._cells(rows, np.array([self._column(f) for f in features], dtype=np.intp))

    def _cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The dense ``rows x cols`` relative frequencies."""
        counts = self.counts[rows][:, cols].astype(np.float64)
        # only counted cells are divided, each by its row's total of its column's order
        cell_rows = rows[np.repeat(np.arange(len(rows)), np.diff(counts.indptr))]
        counts.data /= self.totals[cell_rows, self.orders[cols][counts.indices]]
        return counts.toarray()

    def categories(self, keys: Sequence[tuple[str, str]], spec: DictionarySpec) -> np.ndarray:
        """The ``keys x sorted(spec.categories)`` frequencies (matching tokens
        over all tokens, a token matching several categories counted in each,
        0 for a row without tokens), from a table that counts unigrams: the
        unigram counts times the 0/1 type x category matrix, over each row's
        unigram total."""
        rows = [self.rows[k] for k in keys]
        unigrams = np.flatnonzero(self.orders == 1)
        types = [self.vocabulary[j] for j in unigrams]
        hits = self.counts[rows][:, unigrams] @ _category_hits(types, spec)
        totals = self.totals[rows, 1:2]
        return np.divide(hits, totals, out=np.zeros(hits.shape), where=totals > 0)

    def paired_features(self, orders: Iterable[int], min_fraction: float) -> list[str]:
        """The n-grams of ``orders`` that :func:`group_frequency_filter` keeps
        among :attr:`users`, sorted: a user uses an n-gram counted on either
        platform, a stored cell of the sum of their facebook and sms rows."""
        fb, sms = (np.array([self.rows[(u, p)] for u in self.users], np.intp) for p in PLATFORMS)
        cols = group_frequency_filter(self.counts[fb] + self.counts[sms], min_fraction)
        return [self.vocabulary[j] for j in cols[np.isin(self.orders[cols], list(orders))]]

    def _column(self, gram: str) -> int:
        """The column of ``gram``; the last, empty column if the vocabulary
        does not hold it."""
        j = bisect.bisect_left(self.vocabulary, gram)
        return j if self.vocabulary[j : j + 1] == [gram] else len(self.vocabulary)


def count_table(
    corpora: Mapping[tuple[str, str], UserCorpus], orders: Iterable[int] = (1, 2, 3)
) -> CountTable:
    """The :class:`CountTable` of ``corpora`` over the n-grams of ``orders``.

    Each distinct token gets an int id once, in token order, and every
    corpus's documents are laid out in one id array, in row order, with a -1
    after each document.  An n-gram is a window of n ids that holds no -1, so
    none spans two documents.  One rule ranks every window among the distinct
    windows of its order, in id order: order 1's rank is the token id, and
    order n's is the rank of one int64 key per window of n ids, the rank of
    its first n - 1 ids times V (the number of distinct tokens) plus its last
    id.  Each order of ``orders`` is counted from its ranks
    (:func:`_order_counts`) into its own block of columns; an order below the
    largest that ``orders`` skips is ranked, not counted.  Only each distinct
    n-gram is joined into its id string, and the ids of every order are
    sorted once, at the end.  No token spells the id of several tokens
    (``spans.LABEL_RE``), so an id is one n-gram of one order.  Every order
    must be at least 1.
    """
    from scipy import sparse  # on first use, so that importing the CLI stays fast

    orders, keys = sorted(set(orders)), sorted(corpora)
    if orders and orders[0] < 1:
        raise ValueError(f"n-gram orders must be >= 1, got {tuple(orders)}")
    # every corpus's tokens in row order, each document followed by None
    laid_out = [t for key in keys for doc in corpora[key]._tokens for t in (*doc, None)]
    # each id's token, sorted: each order's n-grams then come out (nearly) sorted by id,
    # and the one sort of every id merges sorted runs
    words = np.array(sorted(set(laid_out) - {None}), dtype=object)
    type_id = {None: -1, **dict(zip(words, itertools.count()))}
    ids = np.fromiter(map(type_id.__getitem__, laid_out), np.int64, len(laid_out))
    del laid_out, type_id
    row_ends = np.cumsum([sum(len(doc) + 1 for doc in corpora[key]._tokens) for key in keys])

    totals = np.zeros((len(keys), 1 + max(orders, default=0)), dtype=np.int64)
    names: list[str] = []  # each provisional column's id
    blocks = []  # rows x provisional columns, one block per order
    starts = np.flatnonzero(ids >= 0)  # the windows of one id
    rank = ids[starts]  # each window's rank among the distinct windows of its order
    for n in range(1, totals.shape[1]):
        if n > 1:
            last = ids[starts + n - 1]
            extends = last >= 0  # the windows of n - 1 ids that extend to n ids
            starts, rank = starts[extends], rank[extends]
            # the key is below (distinct (n - 1)-grams) * V <= tokens**2, so
            # int64 holds it below about 3e9 tokens
            rank *= len(words)
            rank += last[extends]
            del last, extends
            rank = np.unique(rank, return_inverse=True)[1]
        if n in orders:
            grams, block, totals[:, n] = _order_counts(ids, starts, rank, row_ends, n, words)
            names += grams
            blocks.append(block)
    del ids, starts, rank
    order = sorted(range(len(names)), key=names.__getitem__)  # each column's provisional column
    vocabulary = list(map(names.__getitem__, order))
    order = np.array(order, dtype=np.intp)
    renumber = np.argsort(order)  # the inverse permutation: each provisional column's column
    col_orders = np.repeat(np.array(orders, np.int64), [block.shape[1] for block in blocks])
    empty = sparse.csr_array((len(keys), 1), dtype=np.int64)  # read by n-grams not counted
    counts = sparse.hstack([*blocks, empty], format="csr")
    counts.indices = renumber[counts.indices]
    counts.has_sorted_indices = False
    counts.sort_indices()
    return CountTable(
        rows={key: r for r, key in enumerate(keys)},
        users=shared_users(corpora),
        vocabulary=vocabulary,
        orders=np.append(col_orders[order], 0),
        counts=counts,
        totals=totals,
    )


def _order_counts(
    ids: np.ndarray,
    starts: np.ndarray,
    column: np.ndarray,
    row_ends: np.ndarray,
    n: int,
    words: np.ndarray,
) -> tuple[list[str], sparse.csr_array, np.ndarray]:
    """The n-grams in the windows of ``n`` of ``ids`` at ``starts``, a row's
    windows starting before its ``row_ends``, counted by ``column``, each
    window's rank among the distinct n-grams: each distinct n-gram's id, in
    rank order, the rows x n-grams counts, and each row's total."""
    from scipy import sparse

    n_grams = int(column.max(initial=-1)) + 1  # every rank below the largest is taken
    at = np.empty(n_grams, np.intp)
    at[column] = starts  # a window of each distinct n-gram
    names = list(map(" ".join, zip(*(words[ids[at + k]].tolist() for k in range(n)))))
    cells = np.searchsorted(row_ends, starts, side="right")  # each window's row
    totals = np.bincount(cells, minlength=len(row_ends))
    cells *= n_grams
    cells += column  # row * n-grams + column: each row's cells are one sorted run
    cells, counts = np.unique(cells, return_counts=True)
    indptr = np.searchsorted(cells, np.arange(len(row_ends) + 1) * n_grams)
    block = sparse.csr_array((counts, cells % n_grams, indptr), (len(row_ends), n_grams))
    return names, block, totals
