"""Cross-platform language comparison: per-n-gram effect sizes, per-category
paired tests, FDR flags, word-cloud data, and corpus summary statistics.

Users must appear on both platforms to enter the paired comparisons.  Every
n-gram is tested at once: the paired statistics come from one column-wise
pass, and the per-n-gram p from one batched univariate logistic regression
of the platform indicator on the n-gram frequency (IRLS, each n-gram
converging or failing on its own).  Features that separate the platforms
(their values overlap at one point at most) or whose fit fails (a singular
information matrix, a non-finite value, no convergence) fall back to the
paired t-test p and are flagged as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .features import (
    DEFAULT_MIN_GROUP_FRACTION,
    PLATFORMS,
    CountTable,
    DictionarySpec,
    UserCorpus,
    shared_users,  # re-exported for corpus dicts; a CountTable has CountTable.users
)
from .spans import Record
from .stats import Fit, bh_fdr, logistic_slope_p, paired_stats


DIFF_ORDERS = (1, 2, 3)  # the n-gram orders diff_ngrams tests


class InsufficientUsersError(ValueError):
    pass


@dataclass(frozen=True)
class NgramDiff(Record):
    ngram: str
    cohens_d: float
    p_value: float
    q_significant: bool
    freq_facebook: float
    freq_sms: float
    degenerate: bool = False
    p_fallback: str | None = None  # "paired_t" when the logistic fit was unusable


@dataclass(frozen=True)
class CategoryDiff(Record):
    category: str
    t_statistic: float
    p_value: float
    q_significant: bool
    mean_facebook: float
    mean_sms: float
    degenerate: bool = False


@dataclass(frozen=True)
class CloudDatum(Record):
    """One word-cloud token: size scales with |d|, darkness with frequency."""

    ngram: str
    cohens_d: float
    frequency: float
    side: str
    size: float
    darkness: float


def _paired_users(table: CountTable) -> list[str]:
    if len(users := table.users) < 2:
        raise InsufficientUsersError(f"need >= 2 users on both platforms, have {len(users)}")
    return users


def diff_ngrams(
    table: CountTable,
    alpha: float = 0.05,
    min_group_fraction: float = DEFAULT_MIN_GROUP_FRACTION,
    orders: Iterable[int] = DIFF_ORDERS,
) -> list[NgramDiff]:
    """Per-n-gram Cohen's d (positive = more Facebook) with FDR-flagged p,
    for the users of both platforms in ``table``.

    N-grams must be used by at least ``min_group_fraction`` of the shared
    users (on either platform) to be tested: :meth:`CountTable.paired_features`
    counts each n-gram's users from the table's rows.
    """
    _paired_users(table)  # raises with fewer than two
    features = table.paired_features(orders, min_group_fraction)
    return ngram_diffs(features, *table.paired(features), alpha)


def ngram_diffs(
    features: Sequence[str], X_fb: np.ndarray, X_sms: np.ndarray, alpha: float = 0.05
) -> list[NgramDiff]:
    """:func:`diff_ngrams`' rows for the paired ``users x features``
    frequency matrices, every feature at once.

    The p of a feature is its logistic fit's, unless that fit had no result
    (separated, singular, non-finite or not converged): then it is the paired
    t-test's, flagged ``p_fallback``.  A degenerate feature gets p = 1.
    """
    paired = paired_stats(X_fb, X_sms)
    fits = logistic_slope_p(X_fb, X_sms)
    fitted = (fits.outcome == Fit.CONVERGED) | (fits.outcome == Fit.CONSTANT)
    fallback = ~paired.degenerate & ~fitted
    p = np.where(paired.degenerate, 1.0, np.where(fitted, fits.p, paired.p))
    flags = bh_fdr(p, alpha)
    return [
        NgramDiff(
            ngram=feat,
            cohens_d=d,
            p_value=pv,
            q_significant=flag and not degenerate,
            freq_facebook=fx,
            freq_sms=fy,
            degenerate=degenerate,
            p_fallback="paired_t" if fell_back else None,
        )
        for feat, d, pv, fx, fy, degenerate, fell_back, flag in zip(
            features,
            paired.d.tolist(),
            p.tolist(),
            paired.mean_x.tolist(),
            paired.mean_y.tolist(),
            paired.degenerate.tolist(),
            fallback.tolist(),
            flags,
        )
    ]


def diff_categories(
    table: CountTable,
    spec: DictionarySpec,
    alpha: float = 0.05,
) -> list[CategoryDiff]:
    """Paired t-test per dictionary category (positive t = more Facebook),
    for the users of both platforms in ``table``, which counts unigrams."""
    users = _paired_users(table)
    categories = sorted(spec.categories)
    X_fb, X_sms = (table.categories([(u, plat) for u in users], spec) for plat in PLATFORMS)
    paired = paired_stats(X_fb, X_sms)
    flags = bh_fdr(paired.p, alpha)
    return [
        CategoryDiff(
            category=cat,
            t_statistic=t,
            p_value=p,
            q_significant=flag and not degenerate,
            mean_facebook=mx,
            mean_sms=my,
            degenerate=degenerate,
        )
        for cat, t, p, mx, my, degenerate, flag in zip(
            categories,
            paired.t.tolist(),
            paired.p.tolist(),
            paired.mean_x.tolist(),
            paired.mean_y.tolist(),
            paired.degenerate.tolist(),
            flags,
        )
    ]


def cloud_data(diffs: list[NgramDiff]) -> list[CloudDatum]:
    """Word-cloud records for exactly the FDR-significant n-grams.

    ``size`` is |d| normalized to the largest significant effect; ``darkness``
    is the n-gram's frequency on its own side normalized within that side.
    Rendering is left to external plotting tools.
    """
    significant = [r for r in diffs if r.q_significant and np.isfinite(r.cohens_d)]
    if not significant:
        return []
    max_d = max(abs(r.cohens_d) for r in significant) or 1.0
    side_max: dict[str, float] = {"facebook": 0.0, "sms": 0.0}
    sided = []
    for r in significant:
        side = "facebook" if r.cohens_d > 0 else "sms"
        freq = r.freq_facebook if side == "facebook" else r.freq_sms
        sided.append((r, side, freq))
        side_max[side] = max(side_max[side], freq)
    return [
        CloudDatum(
            ngram=r.ngram,
            cohens_d=r.cohens_d,
            frequency=freq,
            side=side,
            size=abs(r.cohens_d) / max_d,
            darkness=freq / side_max[side] if side_max[side] > 0 else 0.0,
        )
        for r, side, freq in sided
    ]


def summary_stats(corpora: Mapping[tuple[str, str], UserCorpus]) -> dict[str, dict]:
    """Per-platform median/mean/SD of per-user word and post counts.

    SD uses the n-1 convention; with a single user it is undefined and
    reported as 0 with ``sd_defined: false``.
    """

    def _stats(values: list[int]) -> dict:
        arr = np.asarray(values, dtype=float)
        defined = arr.size > 1
        return {
            "median": float(np.median(arr)),
            "mean": float(arr.mean()),
            "sd": float(arr.std(ddof=1)) if defined else 0.0,
            "sd_defined": defined,
        }

    out: dict[str, dict] = {}
    platforms = sorted({plat for (_, plat) in corpora})
    for plat in platforms:
        words = []
        posts = []
        for (user, p), corpus in sorted(corpora.items()):
            if p != plat:
                continue
            words.append(corpus.word_count())
            posts.append(len(corpus.documents))
        if words:
            out[plat] = {"n_users": len(words), "words": _stats(words), "posts": _stats(posts)}
    return out
