"""Statistical kernel: paired effect sizes, significance tests, FDR control,
and the one bootstrap test for a difference between two estimates' scores
against the same truth (Pearson r, or sign accuracy for +/-1 outcomes).

The paired statistics and the logistic slope test work on matrices, one
column per feature; the scalar paired functions are their one-column case.

Sign convention for paired statistics: the first argument is the Facebook-side
vector, so positive d / t means "higher on Facebook".  All p-values are
two-sided.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from enum import IntEnum
from typing import NamedTuple, Sequence

import numpy as np


class DegenerateDataError(ValueError):
    """Raised when a statistic is undefined for the given data (e.g. zero
    variance with a nonzero mean difference)."""


# Ranges below this have squared deviations that underflow to 0, so no
# standardized statistic can be computed from them.
_MIN_RANGE = float(np.sqrt(np.finfo(float).tiny))


def _is_constant(v: np.ndarray, axis: int | None = None):
    """The one degeneracy test of this module: ``v`` (or each row along
    ``axis``) has no spread.

    Decided on the range, never on a variance: equal values have a range of
    exactly 0, while their squared deviations from a rounded mean sum to
    ~1e-30 rather than 0.  Ranges too small to square (below ``_MIN_RANGE``)
    count as no spread as well.
    """
    return np.ptp(v, axis=axis) < _MIN_RANGE


# Values per (columns x observations) work array of the logistic fit and of
# the paired sd.  Freeing a block above glibc's 128 KiB mmap threshold raises
# that threshold, and a later stage's peak RSS then read 4 MB higher
# (analysis-wide, 256 columns of 200 observations); blocks below it are reused.
_FIT_BLOCK = 15_000
_FIT_TOL = 1e-8  # a logistic fit converges once no coefficient moves by this much
_FIT_MAX_ITER = 100  # and ends NOT_CONVERGED if it still moves after this many steps


class PairedStats(NamedTuple):
    """:func:`paired_stats` of each column."""

    d: np.ndarray  # Cohen's d; NaN where degenerate
    t: np.ndarray  # paired t; NaN where degenerate
    p: np.ndarray  # two-sided t-test p with n-1 df; 1 where the differences are constant
    degenerate: np.ndarray  # constant nonzero differences
    mean_x: np.ndarray
    mean_y: np.ndarray


def paired_stats(x: np.ndarray, y: np.ndarray) -> PairedStats:
    """Paired statistics of each column of the ``pairs x columns`` matrices
    ``x`` and ``y``: Cohen's d, mean(x-y) / sd(x-y) with the sample (n-1)
    sd, the paired t-test, and both means.

    All-equal pairs give d = t = 0 and p = 1; constant nonzero differences
    are degenerate.  Each column is reduced as one contiguous row, so every
    value is bit-identical to that of the column taken on its own.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError("paired matrices must be 2-d and the same shape")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 pairs")
    rows = np.empty(x.shape[::-1])  # one columns x pairs buffer: the differences, then x, then y
    diffs = np.subtract(x.T, y.T, out=rows)
    constant = _is_constant(diffs, axis=1)
    zero = constant & ~diffs.any(axis=1)
    degenerate = constant & ~zero
    mean = diffs.mean(axis=1)
    sd = np.empty(len(diffs))
    width = max(1, _FIT_BLOCK // n)  # std's deviations take a block of rows at a time
    for lo in range(0, len(diffs), width):
        sd[lo : lo + width] = diffs[lo : lo + width].std(axis=1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = mean / sd
        t = mean / (sd / np.sqrt(n))
    d[zero] = t[zero] = 0.0
    d[degenerate] = t[degenerate] = np.nan
    # imported on first use: scipy.special is half of the CLI's import time,
    # and only p-values need it
    from scipy.special import stdtr

    p = 2.0 * stdtr(n - 1, -np.abs(t))  # Student t CDF at -|t|, i.e. its survival at |t|
    p[constant] = 1.0
    np.copyto(rows, x.T)
    mean_x = rows.mean(axis=1)
    np.copyto(rows, y.T)
    mean_y = rows.mean(axis=1)
    return PairedStats(d, t, p, degenerate, mean_x, mean_y)


def _finite(name: str, v) -> np.ndarray:
    """``v`` as a float array; a NaN or an infinity in it is a ``ValueError``."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite values")
    return v


def _paired_columns(x: Sequence[float], y: Sequence[float]) -> PairedStats:
    x, y = _finite("x", x), _finite("y", y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("paired vectors must be 1-d and the same length")
    stats = paired_stats(x[:, None], y[:, None])
    if stats.degenerate[0]:
        raise DegenerateDataError("zero sd of differences with nonzero mean")
    return stats


def cohens_d_paired(x: Sequence[float], y: Sequence[float]) -> float:
    """Standardized mean difference of paired values: :func:`paired_stats`'
    d of one column.  A non-finite value or constant nonzero differences raise."""
    return float(_paired_columns(x, y).d[0])


def paired_t_test(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Paired-sample t-test of one column; returns (t, two-sided p) with n-1
    df.  A non-finite value or constant nonzero differences raise."""
    stats = _paired_columns(x, y)
    return float(stats.t[0]), float(stats.p[0])


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson r of finite samples; degenerate if either side has zero variance."""
    x, y = _finite("x", x), _finite("y", y)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two equal-length vectors with n >= 2")
    if _is_constant(x) or _is_constant(y):
        raise DegenerateDataError("zero variance")
    # each side centered and scaled by an exact power of two (r is scale-free),
    # so that no product below under- or overflows
    xd, yd = (np.ldexp(d, -np.frexp(np.abs(d).max())[1]) for d in (x - x.mean(), y - y.mean()))
    r = float(xd @ yd) / np.sqrt(float(xd @ xd) * float(yd @ yd))
    return float(min(1.0, max(-1.0, r)))


def bh_fdr(p_values: Sequence[float], alpha: float = 0.05) -> list[bool]:
    """Benjamini-Hochberg step-up: reject all p <= p_(k*) where k* is the
    largest k with p_(k) <= k * alpha / m.  Order of the input is preserved.
    """
    p = np.asarray(p_values, dtype=float)
    if p.size == 0:
        return []
    if not np.all((p >= 0) & (p <= 1)):  # a NaN fails both
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order]
    below = np.nonzero(ranked <= (np.arange(1, m + 1) * alpha / m))[0]
    if below.size == 0:
        return [False] * m
    threshold = ranked[below[-1]]
    return [bool(v) for v in p <= threshold]


class Fit(IntEnum):
    """How the logistic fit of one column ended."""

    CONVERGED = 0
    CONSTANT = 1  # no spread: no class information, p = 1
    SEPARATED = 2  # no MLE exists: p at its limit of 1
    SINGULAR = 3  # an information matrix with a zero determinant
    NON_FINITE = 4  # exp overflowed, or the slope's variance is negative
    NOT_CONVERGED = 5


class LogisticFits(NamedTuple):
    p: np.ndarray  # Wald p of the slope: 1 if constant or separated, NaN if no fit
    outcome: np.ndarray  # a Fit per column


def logistic_slope_p(x1: np.ndarray, x0: np.ndarray) -> LogisticFits:
    """Two-sided Wald p for the slope of an intercept + one-feature logistic
    fit of each column, with class 1 for the rows of ``x1`` and class 0 for
    those of ``x0``.

    Fit by iteratively reweighted least squares (Newton, closed-form 2x2
    steps), no regularization, until no coefficient moves by ``_FIT_TOL``, a
    block of columns at a time.  Each column ends on its own :class:`Fit`,
    which no other column affects.
    Separated data, where the classes' values overlap at most at one point
    (complete or quasi-complete separation), has no MLE: the fit is not
    tried and the Wald p is reported at its limit (1.0, the Hauck-Donner
    limit).
    """
    x1 = np.asarray(x1, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x1.ndim != 2 or x0.ndim != 2 or x1.shape[1] != x0.shape[1]:
        raise ValueError("class matrices must be 2-d with the same columns")
    if not (len(x1) and len(x0)):
        raise ValueError("both classes must be present")
    y = np.r_[np.ones(len(x1)), np.zeros(len(x0))]
    m = x1.shape[1]
    p = np.full(m, np.nan)
    outcome = np.full(m, Fit.NOT_CONVERGED, dtype=np.int8)
    width = max(1, _FIT_BLOCK // len(y))
    for lo in range(0, m, width):
        cols = slice(lo, lo + width)
        v = np.concatenate([x1[:, cols], x0[:, cols]]).T.copy()  # one row per column
        p[cols], outcome[cols] = _fit_rows(v, y, len(x1))
    return LogisticFits(p, outcome)


def _information(v: np.ndarray, y: np.ndarray, b0: np.ndarray, b1: np.ndarray):
    """Per row of ``v`` at (b0, b1): the information matrix (h00, h01, h11)
    and its determinant, the score (g0, g1), and whether all are finite."""
    with np.errstate(all="ignore"):
        e = np.exp(-(b0[:, None] + b1[:, None] * v))
        mu = 1.0 / (1.0 + e)
        w = mu * (1.0 - mu)
        wv = w * v
        r = y - mu
        h00, h01, h11 = w.sum(axis=1), wv.sum(axis=1), (wv * v).sum(axis=1)
        terms = np.array([h00, h01, h11, h00 * h11 - h01 * h01, r.sum(axis=1), (r * v).sum(axis=1)])
    return terms, np.isfinite(e).all(axis=1) & np.isfinite(terms).all(axis=0)


def _fit_rows(v: np.ndarray, y: np.ndarray, n1: int):
    """:func:`logistic_slope_p` of each row of ``v``, whose first ``n1``
    values are class 1's."""
    k = len(v)
    p = np.full(k, np.nan)
    outcome = np.full(k, Fit.NOT_CONVERGED, dtype=np.int8)
    constant = _is_constant(v, axis=1)
    v1, v0 = v[:, :n1], v[:, n1:]
    separated = ~constant & ((v1.min(axis=1) >= v0.max(axis=1)) | (v0.min(axis=1) >= v1.max(axis=1)))
    outcome[constant], outcome[separated] = Fit.CONSTANT, Fit.SEPARATED
    p[constant | separated] = 1.0

    beta = np.zeros((2, k))
    active = np.flatnonzero(~(constant | separated))
    for _ in range(_FIT_MAX_ITER):
        if not active.size:
            break
        (h00, h01, h11, det, g0, g1), finite = _information(v[active], y, *beta[:, active])
        with np.errstate(all="ignore"):
            step = np.array([h11 * g0 - h01 * g1, h00 * g1 - h01 * g0]) / det
        singular = finite & (det == 0.0)
        moved = finite & ~singular
        beta[:, active[moved]] += step[:, moved]
        done = moved & (np.abs(step).max(axis=0) < _FIT_TOL)
        outcome[active[~finite]] = Fit.NON_FINITE
        outcome[active[singular]] = Fit.SINGULAR
        outcome[active[done]] = Fit.CONVERGED
        active = active[moved & ~done]

    from scipy.special import ndtr  # imported on first use, as in paired_stats

    fitted = np.flatnonzero(outcome == Fit.CONVERGED)
    (h00, _, _, det, _, _), finite = _information(v[fitted], y, *beta[:, fitted])
    with np.errstate(all="ignore"):
        var = h00 / det  # the slope's entry of the inverse information matrix
        se = np.sqrt(var)
        wald = np.where((se == 0.0) | ~np.isfinite(se), 1.0, 2.0 * ndtr(-np.abs(beta[1, fitted] / se)))
    failed = ~finite | (var < 0.0)
    outcome[fitted[failed]] = Fit.NON_FINITE
    p[fitted] = np.where(failed, np.nan, wald)
    return p, outcome


class BootstrapResult(NamedTuple):
    delta_r: float
    p_value: float
    skipped: int


MIN_BOOTSTRAP_ITERATIONS = 1000


def check_bootstrap_iterations(iterations: int) -> int:
    if iterations < MIN_BOOTSTRAP_ITERATIONS:
        raise ValueError(f"iterations must be >= {MIN_BOOTSTRAP_ITERATIONS}, got {iterations}")
    return iterations


def _sign_hits(estimates: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Whether each estimate's sign is its +/-1 truth; a zero estimate (a tie)
    takes the majority class of ``truth`` (+1 if the classes tie)."""
    majority = 1.0 if np.sum(truth > 0) >= np.sum(truth < 0) else -1.0
    return np.where(estimates > 0, 1.0, np.where(estimates < 0, -1.0, majority)) == truth


def sign_accuracy(predictions: Sequence[float], y: Sequence[float]) -> float:
    """Fraction of correct signs for +/-1 targets; ties go to y's majority class."""
    return float(np.mean(_sign_hits(_finite("predictions", predictions), _finite("y", y))))


def score(metric: str, estimates: Sequence[float], truth: Sequence[float]) -> float:
    """``metric`` of finite ``estimates`` against ``truth``: pearson_r or accuracy."""
    if metric not in ("pearson_r", "accuracy"):
        raise ValueError(f"unknown metric {metric!r}")
    return (pearson_r if metric == "pearson_r" else sign_accuracy)(estimates, truth)


_resamples: ContextVar[dict] = ContextVar("_resamples")  # (seed, n, iterations) -> _Resamples


@contextmanager
def shared_resamples():
    """Inside the block, bootstraps with the same (seed, n, iterations) draw
    their resamples once; the draws end with the block."""
    token = _resamples.set({})
    try:
        yield
    finally:
        _resamples.reset(token)


# Resamples counted and scored at a time.  Each row's score depends on that
# row alone, so the block size changes no value; it bounds the temporaries to
# this many rows instead of all the iterations.
_BOOTSTRAP_BLOCK = 1024


class _Resamples(NamedTuple):
    """Resamples of ``n`` users, one row each: the users drawn and their counts,
    both in an unsigned dtype that holds ``n``.  A Pearson score needs the
    users only for the few resamples gathered near the p-value's threshold."""

    users: np.ndarray  # the users each resample draws, in draw order
    counts: np.ndarray  # how often each resample draws each user


def _count(users: np.ndarray) -> _Resamples:
    """The resamples whose rows draw ``users``, an ``iterations x n`` matrix of
    user indices in an unsigned dtype that holds ``n``."""
    n = users.shape[1]
    counts = np.empty_like(users)
    for lo in range(0, len(users), _BOOTSTRAP_BLOCK):
        block = users[lo : lo + _BOOTSTRAP_BLOCK]
        cells = (block + np.arange(0, block.size, n)[:, None]).ravel()  # row i, user u: i * n + u
        counts[lo : lo + len(block)] = np.bincount(cells, minlength=cells.size).reshape(-1, n)
    return _Resamples(users, counts)


def _weighted_sums(draw: _Resamples, columns: np.ndarray) -> np.ndarray:
    """Each resample's sum of each column of the ``n x k`` ``columns`` over the
    users it draws, with multiplicity: ``counts @ columns``."""
    sums = np.empty((len(draw.counts), columns.shape[1]))
    for lo in range(0, len(sums), _BOOTSTRAP_BLOCK):
        rows = slice(lo, lo + _BOOTSTRAP_BLOCK)
        np.matmul(draw.counts[rows], columns, out=sums[rows])
    return sums


def _gathered_pearson(e: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Pearson r of each row pair of two gathered resample matrices, each row
    centered on its own mean."""
    e = e - e.mean(axis=1, keepdims=True)
    t = t - t.mean(axis=1, keepdims=True)
    et, ee, tt = (np.einsum("ij,ij->i", x, y) for x, y in ((e, t), (e, e), (t, t)))
    return et / np.sqrt(ee * tt)


# A bound on the rounding gap between a moment-based and a gathered delta, per
# user and per unit of their scale: about 16 eps by the standard dot-product
# error bounds, taken 4x over.  On random inputs the gap stays under 0.1 % of it.
_MOMENT_TOL = 64 * np.finfo(float).eps


def _pearson_deltas(a, b, t, draw: _Resamples, observed: float) -> tuple[np.ndarray, np.ndarray]:
    """r(a, t) - r(b, t) on each valid resample, on the same side of the
    p-value's threshold as :func:`_gathered_pearson` of its gathered rows, and
    the mask of the valid resamples.

    Each vector is scaled once by an exact power of two, as in
    :func:`pearson_r`.  Every resample's moments come from one ``counts @ V``
    product, where ``V`` holds the scaled values centered on their full-sample
    means, their squares and the cross products with the truth.  Both routes
    round; for each vector, their gap grows with the squared largest value
    over the resample's sum of squares about its mean.  Only the resamples
    whose delta lies within ``_MOMENT_TOL`` of that scale from the threshold
    are gathered: those whose unscaled values are constant are invalid, and
    the others are rescored from their gathered rows, each scaled by its own
    power of two."""
    n = t.size
    exps = [np.frexp(np.abs(v).max())[1] for v in (a, b, t)]
    scaled = [np.ldexp(v, -e) for v, e in zip((a, b, t), exps)]
    with np.errstate(all="ignore"):  # a sum of squares of 0 or a NaN makes a resample near
        xa, xb, xt = (v - v.mean() for v in scaled)
        V = np.column_stack([xa, xb, xt, xa * xa, xb * xb, xt * xt, xa * xt, xb * xt])
        sa, sb, st, saa, sbb, stt, sat, sbt = _weighted_sums(draw, V).T
        # A constant resample is always near.  Its sum of squares is rounding
        # residue, so its scale term pushes tol above any delta it can give.
        # Values too small to leave residue have an unscaled sum below
        # n * _MIN_RANGE**2, which reads as 0; tol is then infinite, and a
        # NaN delta counts as near.
        ss = [s2 - s * s / n for s, s2 in ((sa, saa), (sb, sbb), (st, stt))]
        ss = [np.where(np.ldexp(s, 2 * e) < n * _MIN_RANGE**2, 0.0, s) for s, e in zip(ss, exps)]
        na, nb, nt = (np.sqrt(s) for s in ss)  # norms as products of roots: no under- or overflow
        deltas = (sat - sa * st / n) / (na * nt) - (sbt - sb * st / n) / (nb * nt)
        scale = [n * np.max(v * v) / s for v, s in zip(scaled, ss)]
        tol = _MOMENT_TOL * (n * (scale[0] + scale[1] + 2 * scale[2] + 2) + 1)
        near = np.flatnonzero(~(np.abs(np.abs(deltas - observed) - abs(observed)) > tol))  # or NaN
        valid = np.ones(len(deltas), dtype=bool)
        for lo in range(0, near.size, _BOOTSTRAP_BLOCK):
            rows = near[lo : lo + _BOOTSTRAP_BLOCK]
            gathered = [v[draw.users[rows]] for v in (a, b, t)]
            valid[rows] = ~np.any([_is_constant(g, axis=1) for g in gathered], axis=0)
            # each row by its own power of two: a row far below its vector's
            # largest value underflows when scaled with the vector
            ga, gb, gt = (
                np.ldexp(g, -np.frexp(np.abs(g).max(axis=1, keepdims=True))[1]) for g in gathered
            )
            deltas[rows] = _gathered_pearson(ga, gt) - _gathered_pearson(gb, gt)
    return deltas[valid], valid


def bootstrap_score_diff(
    estimates_a: Sequence[float],
    estimates_b: Sequence[float],
    truth: Sequence[float],
    iterations: int = 10_000,
    seed: int = 0,
    metric: str = "pearson_r",
) -> BootstrapResult:
    """Bootstrap test for score(a, truth) - score(b, truth) on the same users,
    with :func:`score`'s ``metric``; ``delta_r`` holds that difference.

    Users are resampled with replacement.  The null distribution is the
    bootstrap distribution of the difference re-centered at zero, and the
    two-sided p is the fraction of it at least as extreme as the observed
    difference (with the +1 small-sample correction) — the null-centered
    bootstrap test (Hall & Wilson, Biometrics 1991).  Deterministic given
    ``seed``: the resamples are the rows of one ``default_rng(seed)`` draw of
    ``iterations x n`` user indices.  A score depends on a resample only
    through how often it draws each user (Efron & Tibshirani 1993), so each
    resample is scored from its row of counts, the same resample as its row
    of indices.  A correlation is taken on values scaled by powers of two, so
    scaling the inputs by powers of two changes no result.  Resamples where
    either score is undefined are skipped and counted; a resample's values
    are constant when their range over the users it draws is.  At least
    ``MIN_BOOTSTRAP_ITERATIONS`` resamples are required.
    """
    a = np.asarray(estimates_a, dtype=float)
    b = np.asarray(estimates_b, dtype=float)
    t = np.asarray(truth, dtype=float)
    if not (a.shape == b.shape == t.shape) or a.ndim != 1:
        raise ValueError("need three aligned 1-d vectors")
    check_bootstrap_iterations(iterations)
    n = a.size
    observed = score(metric, a, t) - score(metric, b, t)

    drawn, key = _resamples.get({}), (seed, n, iterations)  # {} outside a shared block
    if key not in drawn:
        indices = np.random.default_rng(seed).integers(0, n, size=(iterations, n))
        indices = indices.astype(np.min_scalar_type(n))  # the int64 draw is freed here
        drawn[key] = _count(indices)
    draw = drawn[key]
    if metric == "accuracy":  # a resampled user keeps their hit: ties go to the sample's majority
        hits = np.column_stack([_sign_hits(a, t), _sign_hits(b, t)]).astype(float)
        sa, sb = (_weighted_sums(draw, hits) / n).T  # sums of 0s and 1s: exact
        valid = np.ones(iterations, dtype=bool)
        deltas = sa - sb
    else:
        deltas, valid = _pearson_deltas(a, b, t, draw, observed)
    skipped = int(iterations - valid.sum())
    m = deltas.size
    if m == 0:
        raise DegenerateDataError("all bootstrap resamples were degenerate")
    centered = deltas - observed
    extreme = int(np.sum(np.abs(centered) >= abs(observed)))
    p = min(1.0, (1 + extreme) / (m + 1))
    return BootstrapResult(delta_r=float(observed), p_value=float(p), skipped=skipped)


def bootstrap_corr_diff(
    estimates_a: Sequence[float],
    estimates_b: Sequence[float],
    truth: Sequence[float],
    iterations: int = 10_000,
    seed: int = 0,
) -> BootstrapResult:
    """Bootstrap test for r(a, truth) - r(b, truth) on the same users:
    :func:`bootstrap_score_diff` with the Pearson r."""
    return bootstrap_score_diff(estimates_a, estimates_b, truth, iterations, seed)
