"""Reference for the shared-fold evaluation: the per-outcome LOOCV loop that
``modeling.cross_domain_matrix`` replaced, with one standardized ridge solve
per (outcome, source, fold), the whole-matrix bootstrap that
``stats.bootstrap_score_diff`` replaced with resample counts, and the explicit
intercept-augmented refits of one fixed design that
``loocv_predictions_hat`` reproduces without refitting.

The tests compare ``cross_domain_matrix``, ``loocv_predictions_naive`` and
``bootstrap_score_diff`` against these for exact equality, and
``loocv_predictions_hat`` against the fixed-design refits within a rounding
tolerance.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from logistic_oracle import feature_matrix
from scrublang.modeling import (
    CELL_ORDER,
    COMPARISONS,
    CellResult,
    EvalReport,
    OutcomeEval,
    labeled_users,
    loocv_folds,
    outcome_scoring,
)
from scrublang.stats import (
    BootstrapResult,
    DegenerateDataError,
    _is_constant,
    _sign_hits,
    check_bootstrap_iterations,
    score,
)


def ridge_solve(X: np.ndarray, y: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """Standardized ridge on one target: z-score X's columns, center y, solve
    the penalized normal equations (dual when features outnumber rows) and
    map the solution back; columns without spread get weight 0."""
    n, p = X.shape
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    live = ~_is_constant(X, axis=0)
    Z = np.zeros_like(X)
    Z[:, live] = (X[:, live] - mu[live]) / sigma[live]
    ybar = y.mean()
    yc = y - ybar
    if p <= n:
        w_std = np.linalg.solve(Z.T @ Z + alpha * np.eye(p), Z.T @ yc)
    else:
        w_std = Z.T @ np.linalg.solve(Z @ Z.T + alpha * np.eye(n), yc)
    w = np.zeros(p)
    w[live] = w_std[live] / sigma[live]
    return w, float(ybar - w @ mu)


def loocv_fold_predictions(
    X: np.ndarray, y: np.ndarray, alpha: float, tests: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Fold i fits ``y`` on every row of ``X`` but row i and predicts row i
    of each matrix in ``tests``."""
    preds = [np.empty(X.shape[0]) for _ in tests]
    for train, i in loocv_folds(X.shape[0]):
        w, b = ridge_solve(X[train], y[train], alpha)
        for p, T in zip(preds, tests):
            p[i] = T[i] @ w + b
    return preds


def loocv_fixed_design(X: np.ndarray, y: np.ndarray, alpha: float, standardize: str) -> np.ndarray:
    """LOOCV refits of one fixed design, z-scored over all rows
    (``"global"``; zero-variance columns only centered) or raw (``"none"``),
    with an intercept column left out of the penalty.  A constant column is
    collinear with the intercept, which absorbs it whatever its scale."""
    n = X.shape[0]
    if standardize == "global":
        sigma = X.std(axis=0)
        sigma[sigma == 0] = 1.0
        X = (X - X.mean(axis=0)) / sigma
    D = np.column_stack([np.ones(n), X])
    P = alpha * np.eye(D.shape[1])
    P[0, 0] = 0.0  # intercept unpenalized
    preds = np.empty(n)
    for train, i in loocv_folds(n):
        Dt = D[train]
        preds[i] = D[i] @ np.linalg.solve(Dt.T @ Dt + P, Dt.T @ y[train])
    return preds


def _rowwise_pearson(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    valid = ~_is_constant(a, axis=1) & ~_is_constant(b, axis=1)
    # each centered row scaled by its own power of two (r is scale-free), as
    # in stats.pearson_r, so that no sum of products below under- or overflows
    a, b = (x - x.mean(axis=1, keepdims=True) for x in (a, b))
    a, b = (np.ldexp(x, -np.frexp(np.abs(x).max(axis=1, keepdims=True))[1]) for x in (a, b))
    saa = np.einsum("ij,ij->i", a, a)
    sbb = np.einsum("ij,ij->i", b, b)
    sab = np.einsum("ij,ij->i", a, b)
    r = np.full(a.shape[0], np.nan)
    r[valid] = sab[valid] / np.sqrt(saa[valid] * sbb[valid])
    return r, valid


def bootstrap_score_diff(
    a: np.ndarray, b: np.ndarray, t: np.ndarray, iterations: int, seed: int, metric: str
) -> BootstrapResult:
    """The null-centered bootstrap test of score(a, t) - score(b, t), every
    resample gathered and scored in one ``iterations x n`` matrix."""
    a, b, t = (np.asarray(v, dtype=float) for v in (a, b, t))
    check_bootstrap_iterations(iterations)
    n = a.size
    observed = score(metric, a, t) - score(metric, b, t)
    idx = np.random.default_rng(seed).integers(0, n, size=(iterations, n))
    if metric == "accuracy":
        sa, sb = (np.mean(_sign_hits(e, t)[idx], axis=1) for e in (a, b))
        valid = np.ones(iterations, dtype=bool)
    else:
        (sa, va), (sb, vb) = (_rowwise_pearson(e[idx], t[idx]) for e in (a, b))
        valid = va & vb
    deltas = sa[valid] - sb[valid]
    m = deltas.size
    if m == 0:
        raise DegenerateDataError("all bootstrap resamples were degenerate")
    extreme = int(np.sum(np.abs(deltas - observed) >= abs(observed)))
    p = min(1.0, (1 + extreme) / (m + 1))
    return BootstrapResult(float(observed), float(p), int(iterations - valid.sum()))


def paired_matrices(
    features_fb: Mapping[str, Mapping[str, float]],
    features_sms: Mapping[str, Mapping[str, float]],
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(facebook matrix, sms matrix, users) of per-user feature dicts: one row
    per user, sorted, and one column per feature of either platform, sorted;
    the arguments ``cross_domain_matrix`` takes before the outcomes."""
    users = sorted(features_fb)
    names = sorted(set().union(*features_fb.values(), *features_sms.values()))
    X_fb, X_sms = (feature_matrix(f, users, names) for f in (features_fb, features_sms))
    return X_fb, X_sms, users


def cross_domain_matrix(
    X_fb: np.ndarray,
    X_sms: np.ndarray,
    users: Sequence[str],
    outcomes: Mapping[str, Mapping[str, float | None]],
    alpha: float = 1.0,
    bootstrap_iterations: int = 10_000,
    seed: int = 0,
) -> EvalReport:
    """The four cells and both bootstrap comparisons, one outcome at a time."""
    X = {"fb": X_fb, "sms": X_sms}
    report = EvalReport(
        outcomes={}, alpha=alpha, seed=seed, bootstrap_iterations=bootstrap_iterations
    )
    for name in sorted({name for u in users for name in outcomes[u]}):
        labeled = labeled_users(users, outcomes, name)
        if labeled is None:
            continue
        keep, y = labeled
        kind, metric = outcome_scoring(name)
        preds = {}
        for src, dst in (("fb", "sms"), ("sms", "fb")):
            Xs, Xd = X[src][keep], X[dst][keep]
            preds[f"{src}_{src}"], preds[f"{src}_{dst}"] = loocv_fold_predictions(
                Xs, y, alpha, [Xs, Xd]
            )
        ev = OutcomeEval(outcome=name, kind=kind)
        for cell in CELL_ORDER:
            try:
                value = score(metric, preds[cell], y)
            except DegenerateDataError:
                value = float("nan")
            ev.cells[cell] = CellResult(metric=metric, value=value, n=len(keep))
        for comp, (cell_a, cell_b) in COMPARISONS.items():
            sides = {"facebook_side": cell_a, "sms_side": cell_b}
            try:
                res = bootstrap_score_diff(
                    preds[cell_a], preds[cell_b], y, bootstrap_iterations, seed, metric
                )
                result = {"delta": res.delta_r, "p_value": res.p_value, "skipped": res.skipped}
            except DegenerateDataError:
                result = {"delta": None, "p_value": None, "skipped": bootstrap_iterations}
            ev.bootstrap[comp] = {**sides, **result}
        report.outcomes[name] = ev
    return report
