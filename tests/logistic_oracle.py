"""Scalar reference for the batched per-n-gram statistics: the one-column
logistic fit and the per-feature loop that ``analysis.ngram_diffs`` replaced,
fed by per-user frequency dicts counted order by order, independently of
``features.count_table``.

The tests compare ``stats.logistic_slope_p``, ``analysis.diff_ngrams``,
``CountTable.freqs``, ``CountTable.paired_features`` (whose users this
reference counts in its own ``Counter``) and ``UserCorpus.ngram_features``
against these, feature by feature.
"""

from __future__ import annotations

import warnings
from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.special import ndtr

from scrublang.analysis import NgramDiff, shared_users
from scrublang.features import UserCorpus, tokenize
from scrublang.stats import (
    DegenerateDataError,
    _is_constant,
    bh_fdr,
    cohens_d_paired,
    paired_t_test,
)

# one column (class-1 values, class-0 values) per way the scalar fit fails
# without separation: exp overflows, the information matrix is singular, and
# the iteration does not converge
FAILED_FITS = [
    ([0.0, 0.0, 0.0, 2.0], [0.0, 2.0, 1e6, 1e6]),
    ([0.0, 1e-300, 0.0, 1e6], [1e-300, 0.0, 0.0, 0.0]),
    ([5e-324, 5e-324, 0.0, 5e-324], [5e-324, 0.0, 0.0, 1.0]),
]


def univariate_logistic_p(
    values: Sequence[float],
    labels: Sequence[int],
    tol: float = 1e-8,
    max_iter: int = 100,
) -> float:
    """Two-sided Wald p for the slope of intercept + one-feature logistic fit.

    Fit by iteratively reweighted least squares (Newton), no regularization.
    Separated data, where the classes' values overlap at most at one point
    (complete or quasi-complete separation), has no MLE: the fit is not tried,
    a warning flags it and the Wald p is reported at its limit (1.0, the
    Hauck-Donner limit).  Failure to converge otherwise is an error.
    """
    x = np.asarray(values, dtype=float)
    y = np.asarray(labels, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("values and labels must be 1-d and the same length")
    classes = np.unique(y)
    if classes.size != 2:
        raise ValueError("both classes must be present")
    y01 = (y == classes.max()).astype(float)

    if _is_constant(x):
        return 1.0  # constant feature carries no class information

    x1 = x[y01 == 1]
    x0 = x[y01 == 0]
    if x1.min() >= x0.max() or x0.min() >= x1.max():
        warnings.warn("separation: Wald p reported at its limit", RuntimeWarning, stacklevel=2)
        return 1.0

    X = np.column_stack([np.ones_like(x), x])
    beta = np.zeros(2)
    for _ in range(max_iter):
        eta = X @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        w = mu * (1.0 - mu)
        hess = X.T @ (X * w[:, None])
        grad = X.T @ (y01 - mu)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise DegenerateDataError(f"singular information matrix: {exc}") from exc
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            break
    else:
        raise RuntimeError(f"IRLS did not converge in {max_iter} iterations")

    mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
    w = mu * (1.0 - mu)
    cov = np.linalg.inv(X.T @ (X * w[:, None]))
    se = np.sqrt(cov[1, 1])
    if se == 0.0 or not np.isfinite(se):
        return 1.0
    z = beta[1] / se
    return float(2.0 * ndtr(-abs(z)))  # normal CDF at -|z|, i.e. its survival at |z|


def ngram_diffs_per_feature(
    features, X_fb, X_sms, alpha=0.05, logistic_p=univariate_logistic_p
) -> list[NgramDiff]:
    """``analysis.ngram_diffs`` one feature at a time, with ``logistic_p``
    fitting each feature's facebook-then-sms values."""
    n = X_fb.shape[0]
    labels = np.r_[np.ones(n), np.zeros(n)]
    rows = []
    for j, feat in enumerate(features):
        x, y = X_fb[:, j], X_sms[:, j]
        degenerate = False
        fallback = None
        try:
            d = cohens_d_paired(x, y)
        except DegenerateDataError:
            d, degenerate = float("nan"), True
        if degenerate:
            p = 1.0
        else:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    p = logistic_p(np.r_[x, y], labels)
            except (RuntimeWarning, RuntimeError, DegenerateDataError):
                # separated or non-converging feature: use the paired test
                try:
                    _, p = paired_t_test(x, y)
                    fallback = "paired_t"
                except DegenerateDataError:
                    p, degenerate = 1.0, True
        rows.append((feat, d, p, float(x.mean()), float(y.mean()), degenerate, fallback))

    flags = bh_fdr([r[2] for r in rows], alpha) if rows else []
    return [
        NgramDiff(
            ngram=feat,
            cohens_d=d,
            p_value=p,
            q_significant=flag and not degenerate,
            freq_facebook=fx,
            freq_sms=fy,
            degenerate=degenerate,
            p_fallback=fallback,
        )
        for (feat, d, p, fx, fy, degenerate, fallback), flag in zip(rows, flags)
    ]


def ngrams_order_by_order(
    documents: Iterable[Sequence[str]], orders: Iterable[int] = (1, 2, 3)
) -> dict[str, float]:
    """Relative n-gram frequencies of token ``documents``: one walk of the
    documents per order, lowest first, each order's counts and total kept by
    hand."""
    documents = list(documents)
    out: dict[str, float] = {}
    for n in sorted(set(orders)):
        counts: dict[str, int] = {}
        for doc in documents:
            for i in range(len(doc) - n + 1):
                gram = " ".join(doc[i : i + n])
                counts[gram] = counts.get(gram, 0) + 1
        total = sum(counts.values())
        out.update((gram, c / total) for gram, c in counts.items())
    return out


def corpus_ngrams(corpus: UserCorpus, orders: Iterable[int] = (1, 2, 3)) -> dict[str, float]:
    """:func:`ngrams_order_by_order` of ``corpus``'s documents, each tokenized afresh."""
    return ngrams_order_by_order(map(tokenize, corpus.documents), orders)


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


def paired_vectors(
    corpora: Mapping[tuple[str, str], UserCorpus], orders: Iterable[int]
) -> tuple[list[str], dict[str, dict[str, float]], dict[str, dict[str, float]]]:
    """(shared users, their facebook n-gram vectors, their sms n-gram vectors)."""
    users = shared_users(corpora)
    fb = {u: corpus_ngrams(corpora[(u, "facebook")], orders) for u in users}
    sms = {u: corpus_ngrams(corpora[(u, "sms")], orders) for u in users}
    return users, fb, sms


def paired_features(
    fb: Mapping[str, Mapping[str, float]],
    sms: Mapping[str, Mapping[str, float]],
    min_group_fraction: float,
) -> list[str]:
    """The n-grams used by at least ``min_group_fraction`` of the users of
    :func:`paired_vectors`, sorted; a user uses an n-gram present on either
    platform."""
    used_by = Counter(g for u in fb for g in fb[u].keys() | sms[u].keys())
    return sorted(g for g, c in used_by.items() if c / len(fb) >= min_group_fraction)


def diff_ngrams_per_feature(
    corpora, alpha=0.05, min_group_fraction=0.0, orders=(1, 2, 3), logistic_p=univariate_logistic_p
) -> list[NgramDiff]:
    """``analysis.diff_ngrams`` through :func:`ngram_diffs_per_feature`."""
    users, fb, sms = paired_vectors(corpora, orders)
    features = paired_features(fb, sms, min_group_fraction)
    X_fb, X_sms = (feature_matrix(v, users, features) for v in (fb, sms))
    return ngram_diffs_per_feature(features, X_fb, X_sms, alpha, logistic_p)
