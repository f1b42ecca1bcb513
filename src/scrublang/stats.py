"""Statistical kernel: paired effect sizes, significance tests, FDR control,
and the one bootstrap test for a difference between two estimates' scores
against the same truth (Pearson r, or sign accuracy for +/-1 outcomes).

Sign convention for paired statistics: the first argument is the Facebook-side
vector, so positive d / t means "higher on Facebook".  All p-values are
two-sided.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import ndtr, stdtr


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


def _paired_diffs(x: Sequence[float], y: Sequence[float]) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("paired vectors must be 1-d and the same length")
    if x.size < 2:
        raise ValueError("need at least 2 pairs")
    return x - y


def cohens_d_paired(x: Sequence[float], y: Sequence[float]) -> float:
    """Standardized mean difference of paired values: mean(x-y) / sd(x-y).

    Sample (n-1) standard deviation.  All-equal pairs give d = 0; constant
    nonzero differences are degenerate.
    """
    d = _paired_diffs(x, y)
    if _is_constant(d):
        if not d.any():
            return 0.0
        raise DegenerateDataError("zero sd of differences with nonzero mean")
    return float(d.mean() / d.std(ddof=1))


def paired_t_test(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Paired-sample t-test; returns (t, two-sided p) with n-1 df."""
    d = _paired_diffs(x, y)
    n = d.size
    if _is_constant(d):
        if not d.any():
            return 0.0, 1.0
        raise DegenerateDataError("zero sd of differences with nonzero mean")
    t = d.mean() / (d.std(ddof=1) / np.sqrt(n))
    p = 2.0 * stdtr(n - 1, -abs(t))  # Student t CDF at -|t|, i.e. its survival at |t|
    return float(t), float(p)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson correlation; degenerate if either side has zero variance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two equal-length vectors with n >= 2")
    if _is_constant(x) or _is_constant(y):
        raise DegenerateDataError("zero variance")
    xd = x - x.mean()
    yd = y - y.mean()
    r = float(xd @ yd) / np.sqrt(float(xd @ xd) * float(yd @ yd))
    return float(min(1.0, max(-1.0, r)))


def bh_fdr(p_values: Sequence[float], alpha: float = 0.05) -> list[bool]:
    """Benjamini-Hochberg step-up: reject all p <= p_(k*) where k* is the
    largest k with p_(k) <= k * alpha / m.  Order of the input is preserved.
    """
    p = np.asarray(p_values, dtype=float)
    if p.size == 0:
        return []
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order]
    below = np.nonzero(ranked <= (np.arange(1, m + 1) * alpha / m))[0]
    if below.size == 0:
        return [False] * m
    threshold = ranked[below[-1]]
    return [bool(v) for v in p <= threshold]


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
    y = np.asarray(y, dtype=float)
    return float(np.mean(_sign_hits(np.asarray(predictions, dtype=float), y)))


def score(metric: str, estimates: Sequence[float], truth: Sequence[float]) -> float:
    """``metric`` of ``estimates`` against ``truth``: pearson_r or accuracy."""
    if metric not in ("pearson_r", "accuracy"):
        raise ValueError(f"unknown metric {metric!r}")
    return (pearson_r if metric == "pearson_r" else sign_accuracy)(estimates, truth)


def _rowwise_pearson(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson r along axis 1 plus a validity mask (constant rows fail)."""
    valid = ~_is_constant(a, axis=1) & ~_is_constant(b, axis=1)
    a = a - a.mean(axis=1, keepdims=True)
    b = b - b.mean(axis=1, keepdims=True)
    saa = np.einsum("ij,ij->i", a, a)
    sbb = np.einsum("ij,ij->i", b, b)
    sab = np.einsum("ij,ij->i", a, b)
    r = np.full(a.shape[0], np.nan)
    r[valid] = sab[valid] / np.sqrt(saa[valid] * sbb[valid])
    return r, valid


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
    ``seed``; resamples where either score is undefined are skipped and
    counted.  At least ``MIN_BOOTSTRAP_ITERATIONS`` resamples are required.
    """
    a = np.asarray(estimates_a, dtype=float)
    b = np.asarray(estimates_b, dtype=float)
    t = np.asarray(truth, dtype=float)
    if not (a.shape == b.shape == t.shape) or a.ndim != 1:
        raise ValueError("need three aligned 1-d vectors")
    check_bootstrap_iterations(iterations)
    n = a.size
    observed = score(metric, a, t) - score(metric, b, t)

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(iterations, n))
    if metric == "accuracy":  # a resampled user keeps their hit: ties go to the sample's majority
        sa, sb = (np.mean(_sign_hits(e, t)[idx], axis=1) for e in (a, b))
        valid = np.ones(iterations, dtype=bool)
    else:
        (sa, va), (sb, vb) = (_rowwise_pearson(e[idx], t[idx]) for e in (a, b))
        valid = va & vb
    deltas = sa[valid] - sb[valid]
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
