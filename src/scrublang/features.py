"""Tokenization, 1-to-3-gram frequencies, and dictionary-category extraction.

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

Dictionary extraction counts tokens matching category entries; an entry is a
literal token or a prefix wildcard ("happ*", star only in terminal position).
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .spans import PLACEHOLDER_RE, json_lines, json_record, numbered_lines, straight_apostrophes

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


def _as_documents(tokens: Sequence) -> Sequence[Sequence[str]]:
    return [tokens] if tokens and isinstance(tokens[0], str) else tokens


def ngram_counts(tokens: Sequence, orders: Iterable[int] = (1, 2, 3)) -> dict[int, Counter]:
    """Raw n-gram counts, one ``Counter`` per order, from one walk of the
    documents; an order's total is its ``Counter.total()``.

    ``tokens`` is either one document (sequence of str) or a sequence of
    documents; n-grams never span document boundaries.  N-gram feature ids are
    the tokens joined by single spaces.  Every order must be at least 1.
    """
    counts = {n: Counter() for n in orders}
    if any(n < 1 for n in counts):
        raise ValueError(f"n-gram orders must be >= 1, got {tuple(counts)}")
    for doc in _as_documents(tokens):
        for n, grams in counts.items():
            grams.update(" ".join(doc[i : i + n]) for i in range(len(doc) - n + 1))
    return counts


def extract_ngrams(tokens: Sequence, orders: Iterable[int] = (1, 2, 3)) -> dict[str, float]:
    """Relative n-gram frequencies (count / total n-grams of that order)."""
    out: dict[str, float] = {}
    for grams in ngram_counts(tokens, orders).values():
        total = grams.total()
        out.update((gram, c / total) for gram, c in grams.items())
    return out


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


def extract_dictionary(tokens: Sequence, spec: DictionarySpec) -> dict[str, float]:
    """Per-category relative frequencies (matching tokens / total tokens).

    A token matching several categories counts once in each; an empty token
    list yields 0 for every category.
    """
    docs = _as_documents(tokens)
    flat = [t for doc in docs for t in doc]
    total = len(flat)
    out = {cat: 0 for cat in spec.categories}
    for tok in flat:
        for cat in spec.categories:
            if spec.matches(tok, cat):
                out[cat] += 1
    return {cat: (c / total if total else 0.0) for cat, c in out.items()}


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
        return extract_ngrams(self._tokens, orders)

    def dictionary_features(self, spec: DictionarySpec) -> dict[str, float]:
        return extract_dictionary(self._tokens, spec)


_parse_corpus = json_record({"user_id": str, "platform": str, "text": str})


def _corpus_record(line: str) -> tuple[str, str, str]:
    user, platform, text = _parse_corpus(line)
    if platform not in PLATFORMS:
        raise ValueError(f"platform must be 'facebook' or 'sms', got {platform!r}")
    return user, platform, text


def load_corpus_jsonl(path: str | Path) -> dict[tuple[str, str], UserCorpus]:
    """Load ``{user_id, platform, text}`` JSON lines into per-(user, platform)
    corpora; a platform other than ``PLATFORMS`` is a ``path:line`` error."""
    corpora: dict[tuple[str, str], UserCorpus] = {}
    for _, (user, platform, text) in json_lines(path, "corpus record", _corpus_record):
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


def user_feature_table(
    corpora: Mapping[tuple[str, str], UserCorpus],
    platform: str,
    orders: Iterable[int] = (1, 2, 3),
) -> dict[str, dict[str, float]]:
    """user_id -> n-gram relative-frequency vector for one platform."""
    return {
        user: corpus.ngram_features(orders)
        for (user, plat), corpus in sorted(corpora.items())
        if plat == platform
    }


def feature_matrix(
    vectors: Mapping[str, Mapping[str, float]], users: Sequence[str], features: Sequence[str]
) -> np.ndarray:
    """Users x features matrix of ``vectors``; absent features are 0."""
    M = np.zeros((len(users), len(features)))
    index = {f: j for j, f in enumerate(features)}
    for i, u in enumerate(users):
        for feat, freq in vectors[u].items():
            j = index.get(feat)
            if j is not None:
                M[i, j] = freq
    return M


def group_frequency_filter(
    user_features: Iterable[Collection[str]],
    min_fraction: float = DEFAULT_MIN_GROUP_FRACTION,
) -> list[str]:
    """Features used by at least ``min_fraction`` of users, sorted.

    ``user_features`` holds each user's distinct features, one user at a time;
    it is read once, so a generator keeps only one user's set alive.
    Standard differential-language practice: rare n-grams carry no stable
    signal and blow up the test count.
    """
    used_by: Counter = Counter()
    n_users = 0
    for feats in user_features:
        used_by.update(feats)
        n_users += 1
    return sorted(f for f, c in used_by.items() if c / n_users >= min_fraction)
