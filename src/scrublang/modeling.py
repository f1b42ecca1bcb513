"""Predictive modeling harness: lexicon scoring, ridge regression with LOOCV,
the four-cell cross-platform evaluation matrix, weight-times-frequency feature
importance, and NMF embedding reduction.

All fits are deterministic, and every ridge fit z-scores its columns on its
own training rows, so a held-out row never enters a fit.
Binary outcomes are modeled as +/-1 regression targets; every estimate is
scored and compared across platforms by :func:`outcome_scoring`'s metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .spans import Record
from .stats import DegenerateDataError, bootstrap_score_diff, check_bootstrap_iterations
from .stats import _finite, _is_constant, score, shared_resamples

CELL_ORDER = ("fb_fb", "fb_sms", "sms_sms", "sms_fb")
CELL_LABELS = {
    "fb_fb": "train facebook / test facebook",
    "fb_sms": "train facebook / test sms",
    "sms_sms": "train sms / test sms",
    "sms_fb": "train sms / test facebook",
}
# The cross-platform comparisons: the Facebook-side cell against the SMS-side one.
COMPARISONS = {"in_domain": ("fb_fb", "sms_sms"), "cross_domain": ("sms_fb", "fb_sms")}
BINARY_OUTCOMES = frozenset({"gender"})


def outcome_scoring(name: str) -> tuple[str, str]:
    """(kind, metric) of outcome ``name``: sign accuracy (ties to the majority)
    for the +/-1-coded ``BINARY_OUTCOMES``, Pearson r for the rest."""
    return ("binary", "accuracy") if name in BINARY_OUTCOMES else ("continuous", "pearson_r")


def compare_estimates(
    metric: str, est_fb: np.ndarray, est_sms: np.ndarray, y: np.ndarray, iterations: int, seed: int
) -> dict:
    """The bootstrap test of ``metric`` on the Facebook-side minus the SMS-side
    estimates of ``y``, as a report entry (``DegenerateDataError`` if undefined)."""
    res = bootstrap_score_diff(est_fb, est_sms, y, iterations, seed, metric)
    return {"delta": res.delta_r, "p_value": res.p_value, "skipped": res.skipped}


@dataclass(frozen=True)
class LexiconModel:
    """Linear model over relative term/category frequencies."""

    weights: dict[str, float]
    intercept: float = 0.0
    outcome: str = ""


def apply_lexicon(model: LexiconModel, features: Mapping[str, float]) -> float:
    """Dot product of model weights with relative frequencies plus intercept.

    Features absent from the model (and model terms absent from the features)
    contribute zero.  The terms are summed in the model's order, whatever the
    order of ``features``.
    """
    total = model.intercept
    for feat, w in model.weights.items():
        freq = features.get(feat)
        if freq is not None:
            total += w * freq
    return float(total)


MIN_LABELED = 3


def labeled_users(
    users: Sequence[str], outcomes: Mapping[str, Mapping[str, float | None]], name: str
) -> tuple[list[int], np.ndarray] | None:
    """The users labeled for outcome ``name``: indices into ``users`` of those
    whose value is present and finite, and those values.  None when fewer
    than ``MIN_LABELED`` are labeled, too few to fit or evaluate."""
    raw = [outcomes.get(u, {}).get(name) for u in users]
    keep = [i for i, v in enumerate(raw) if v is not None and np.isfinite(v)]
    if len(keep) < MIN_LABELED:
        return None
    return keep, np.array([float(raw[i]) for i in keep])


def ridge_solve(X: np.ndarray, y: np.ndarray, alpha: float = 1.0) -> tuple[np.ndarray, float]:
    """L2-regularized least squares with an unpenalized intercept; returns
    (weights, intercept).

    Columns of X are z-scored, y is centered, the penalized normal equations
    are solved in standardized space, and the solution is mapped back
    (intercept from the means).  Columns without spread (``stats``' range
    test) get weight 0.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_fit_inputs(X, [y], alpha)
    return _ridge_fits(X, [y], alpha)[0]


def _check_fit_inputs(X: np.ndarray, ys: Sequence[np.ndarray], alpha: float) -> None:
    if X.ndim != 2 or any(y.ndim != 1 or X.shape[0] != y.shape[0] for y in ys):
        raise ValueError("X must be 2-d with rows aligned to y")
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    _finite("X", X)
    for y in ys:
        _finite("y", y)


def _ridge_fits(
    X: np.ndarray, ys: Sequence[np.ndarray], alpha: float
) -> list[tuple[np.ndarray, float]]:
    """The ridge fit of ``X`` against each target in ``ys``, with an
    unpenalized intercept: X's columns are z-scored and each target is
    centered (Hastie et al., *ESL* §3.4.1).

    The targets share one centering and one Gram matrix, ``Z'Z + aI`` or,
    when features outnumber rows, the dual ``ZZ' + aI``; columns without
    spread get weight 0.  Each target is solved on its own, as a 1-d
    right-hand side, so every fit is bit-identical to that target's alone.
    """
    mu = X.mean(axis=0)
    Z = X - mu
    sigma = np.sqrt(np.add.reduce(Z * Z, 0) / len(X))  # X.std(axis=0), bit for bit
    live = ~_is_constant(X, axis=0)
    sigma[~live] = 1.0
    Z /= sigma
    Z[:, ~live] = 0.0
    n, p = Z.shape
    # the dual Z'(ZZ' + aI)^-1 y equals (Z'Z + aI)^-1 Z'y and turns a p x p solve into n x n
    dual = p > n
    K = Z @ Z.T + alpha * np.eye(n) if dual else Z.T @ Z + alpha * np.eye(p)
    fits = []
    for y in ys:
        ybar = y.mean()
        yc = y - ybar
        w_std = Z.T @ np.linalg.solve(K, yc) if dual else np.linalg.solve(K, Z.T @ yc)
        w = np.zeros(X.shape[1])
        w[live] = w_std[live] / sigma[live]
        fits.append((w, float(ybar - w @ mu)))
    return fits


def ridge_fit(
    X: np.ndarray,
    y: np.ndarray,
    alpha: float = 1.0,
    feature_names: Sequence[str] | None = None,
    outcome: str = "",
) -> LexiconModel:
    """Fit ridge regression and package it as a :class:`LexiconModel`."""
    w, intercept = ridge_solve(X, y, alpha)
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(len(w))]
    if len(feature_names) != len(w):
        raise ValueError("feature_names length must match X columns")
    return LexiconModel(
        weights={name: float(wj) for name, wj in zip(feature_names, w)},
        intercept=intercept,
        outcome=outcome,
    )


# -- leave-one-out cross-validation -------------------------------------


def loocv_folds(n: int) -> Iterable[tuple[np.ndarray, int]]:
    """(train indices, held-out index) pairs; train never contains the holdout."""
    idx = np.arange(n)
    for i in range(n):
        yield idx[idx != i], i


def _loocv_fold_predictions(
    X: np.ndarray, ys: Sequence[np.ndarray], alpha: float, tests: Sequence[np.ndarray]
) -> list[list[np.ndarray]]:
    """Leave-one-out predictions of ridge fits on ``X`` (``_ridge_fits``,
    standardized on each fold), one list per target in ``ys``.

    Fold i fits each target on every row of ``X`` but row i and predicts row
    i of each matrix in ``tests`` (row-aligned with ``X``), so the targets
    share each fold's standardization and Gram matrix, and the matrices
    sharing a source share each fold's fit.
    """
    _check_fit_inputs(X, ys, alpha)
    preds = [[np.empty(X.shape[0]) for _ in tests] for _ in ys]
    for train, i in loocv_folds(X.shape[0]):
        fits = _ridge_fits(X[train], [y[train] for y in ys], alpha)
        for pred, (w, b) in zip(preds, fits):
            for p, T in zip(pred, tests):
                p[i] = T[i] @ w + b
    return preds


def loocv_predictions_naive(X: np.ndarray, y: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """Per-user LOOCV predictions by explicit refits, each standardized on its
    own training fold (no leakage)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] < 3:
        raise ValueError("need n >= 3 for leave-one-out evaluation")
    return _loocv_fold_predictions(X, [y], alpha, [X])[0][0]


def loocv_predictions_hat(
    X: np.ndarray, y: np.ndarray, alpha: float = 1.0, standardize: str = "global"
) -> np.ndarray:
    """LOOCV predictions via the hat-matrix identity, no refits.

    For penalized least squares on a fixed design, removing row i gives
    ``pred_i = (fitted_i - h_ii * y_i) / (1 - h_ii)`` exactly, where ``h_ii``
    is the i-th leverage of the ridge hat matrix (Allen's PRESS).  The one
    design is X z-scored over all rows (``"global"``; a column without spread
    is only centered) or X as given (``"none"``), and the refits it stands
    for center it on each fold but never rescale it.  The fold-standardized
    estimate that the evaluation uses is :func:`loocv_predictions_naive`.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_fit_inputs(X, [y], alpha)
    if X.shape[0] < 3:
        raise ValueError("need n >= 3 for leave-one-out evaluation")
    if standardize == "global":
        sigma = X.std(axis=0)
        sigma[_is_constant(X, axis=0)] = 1.0
        X = (X - X.mean(axis=0)) / sigma
    elif standardize != "none":
        raise ValueError("loocv_predictions_hat supports standardize='global' or 'none'")
    # The hat matrix of a ridge with an unpenalized intercept: 1/n for the intercept
    # plus Z (Z'Z + aI)^-1 Z' on the centered design, whose columns without spread
    # are 0.  Primal even for p > n: there _ridge_fits' dual form loses 100-1000x
    # more precision where 1 - h is small.
    Z = np.where(_is_constant(X, axis=0), 0.0, X - X.mean(axis=0))
    H = 1.0 / len(Z) + Z @ np.linalg.solve(Z.T @ Z + alpha * np.eye(Z.shape[1]), Z.T)
    h = np.diag(H)
    if np.any(h >= 1.0):
        raise DegenerateDataError("leverage of 1: a point determines its own fit")
    fitted = H @ y
    return (fitted - h * y) / (1.0 - h)


# -- four-cell cross-platform evaluation ---------------------------------


@dataclass(frozen=True)
class CellResult(Record):
    metric: str
    value: float
    n: int


@dataclass
class OutcomeEval(Record):
    outcome: str
    kind: str  # "continuous" or "binary"
    cells: dict[str, CellResult] = field(default_factory=dict)
    bootstrap: dict[str, dict] = field(default_factory=dict)


@dataclass
class EvalReport(Record):
    """Per-outcome, per-train/test-cell evaluation with bootstrap comparisons."""

    outcomes: dict[str, OutcomeEval]
    alpha: float
    seed: int
    bootstrap_iterations: int
    cell_labels: dict[str, str] = field(default_factory=lambda: dict(CELL_LABELS))


def bootstrap_accuracy_diff(preds_a, preds_b, y, iterations: int, seed: int) -> dict:
    """:func:`compare_estimates` on sign accuracy (binary outcomes)."""
    return compare_estimates("accuracy", preds_a, preds_b, y, iterations, seed)


@shared_resamples()  # the comparisons on the same number of users share one draw
def cross_domain_matrix(
    X_fb: np.ndarray,
    X_sms: np.ndarray,
    users: Sequence[str],
    outcomes: Mapping[str, Mapping[str, float | None]],
    alpha: float = 1.0,
    bootstrap_iterations: int = 10_000,
    seed: int = 0,
) -> EvalReport:
    """Fill the four train/test cells per outcome for one shared user set:
    ``X_fb`` and ``X_sms`` hold the same features, one row per user of
    ``users`` on each platform.

    Every cell holds out the evaluated user, as a pre-trained model never saw
    the users it scores: in-domain cells are classic LOOCV, and cross-domain
    cells likewise train on the source platform minus the user being
    predicted, so a user never influences their own estimate.  A source
    platform's in-domain and cross-domain cells share each fold's fit.
    Outcomes labeled for the same users share each fold's standardization
    and Gram matrix; each outcome is then solved on its own, so its
    estimates equal those of a fit of that outcome alone.

    Cells are scored by :func:`outcome_scoring` (NaN where undefined), and
    each of ``COMPARISONS`` is tested with :func:`compare_estimates` (delta
    and p of None where undefined), which scores the bootstrap resamples in
    blocks of rows.
    """
    check_bootstrap_iterations(bootstrap_iterations)
    X = {"fb": np.asarray(X_fb, dtype=float), "sms": np.asarray(X_sms, dtype=float)}
    if X["fb"].ndim != 2 or X["fb"].shape != X["sms"].shape or len(users) != len(X["fb"]):
        raise ValueError(
            f"X_fb {X['fb'].shape} and X_sms {X['sms'].shape} need one row per user "
            f"({len(users)}) and the same columns"
        )
    unknown = sorted(u for u in users if u not in outcomes)
    if unknown:
        raise ValueError(f"users missing from outcomes: {unknown}")

    outcome_names = sorted({name for u in users for name in outcomes[u]})
    report = EvalReport(
        outcomes={},
        alpha=alpha,
        seed=seed,
        bootstrap_iterations=bootstrap_iterations,
    )

    labeled = {name: labeled_users(users, outcomes, name) for name in outcome_names}
    groups: dict[tuple[int, ...], list[str]] = {}  # outcomes by their labeled users
    for name, found in labeled.items():
        if found is not None:
            groups.setdefault(tuple(found[0]), []).append(name)
    preds: dict[str, dict[str, np.ndarray]] = {}  # outcome -> cell -> estimates
    for keep, names in groups.items():
        ys = [labeled[name][1] for name in names]
        for src, dst in (("fb", "sms"), ("sms", "fb")):
            Xs, Xd = X[src][list(keep)], X[dst][list(keep)]
            cells = _loocv_fold_predictions(Xs, ys, alpha, [Xs, Xd])
            for name, (p_src, p_dst) in zip(names, cells):
                preds.setdefault(name, {}).update({f"{src}_{src}": p_src, f"{src}_{dst}": p_dst})

    for name, est in sorted(preds.items()):
        keep, y = labeled[name]
        kind, metric = outcome_scoring(name)
        ev = OutcomeEval(outcome=name, kind=kind)
        for cell in CELL_ORDER:
            try:
                value = score(metric, est[cell], y)
            except DegenerateDataError:
                value = float("nan")
            ev.cells[cell] = CellResult(metric=metric, value=value, n=len(keep))
        for comp, (cell_a, cell_b) in COMPARISONS.items():
            sides = {"facebook_side": cell_a, "sms_side": cell_b}
            try:
                result = compare_estimates(
                    metric, est[cell_a], est[cell_b], y, bootstrap_iterations, seed
                )
            except DegenerateDataError:
                result = {"delta": None, "p_value": None, "skipped": bootstrap_iterations}
            ev.bootstrap[comp] = {**sides, **result}
        report.outcomes[name] = ev
    return report


# -- feature importance (weight x frequency difference) ------------------


@dataclass(frozen=True)
class ImportanceRow(Record):
    feature: str
    importance: float
    weight: float
    freq_diff: float
    quadrant: str | None


def feature_importance(
    model: LexiconModel,
    freq_fb: Mapping[str, float],
    freq_sms: Mapping[str, float],
) -> list[ImportanceRow]:
    """Rank features by weight times cross-platform frequency difference.

    ``importance = weight * (freq_facebook - freq_sms)``, computed over the
    model's features with corpus-level mean relative frequencies.  Quadrants
    follow the sign pair (weight, frequency difference): A/B positive weight,
    C/D negative; A/C more frequent on Facebook, B/D on SMS.
    """
    rows = []
    for feat, w in model.weights.items():
        diff = float(freq_fb.get(feat, 0.0)) - float(freq_sms.get(feat, 0.0))
        if w > 0:
            quadrant = "A" if diff > 0 else "B" if diff < 0 else None
        elif w < 0:
            quadrant = "C" if diff > 0 else "D" if diff < 0 else None
        else:
            quadrant = None
        rows.append(
            ImportanceRow(
                feature=feat,
                importance=float(w * diff),
                weight=float(w),
                freq_diff=diff,
                quadrant=quadrant,
            )
        )
    rows.sort(key=lambda r: (-r.importance, r.feature))
    return rows


# -- non-negative matrix factorization ------------------------------------


@dataclass
class NMFResult:
    W: np.ndarray
    H: np.ndarray
    objectives: list[float]
    column_shifts: np.ndarray

    @property
    def reconstruction_error(self) -> float:
        return self.objectives[-1]


def nmf_reduce(
    E: np.ndarray, k: int, iterations: int = 200, seed: int = 0
) -> NMFResult:
    """Frobenius-norm NMF by multiplicative updates: ``E ~ W @ H``.

    Columns containing negative entries are shifted up by their minimum first
    (the shifts are returned).  The objective ``||E - WH||_F`` is recorded
    after every iteration and is non-increasing.  Deterministic given ``seed``.
    """
    V = np.asarray(E, dtype=float)
    if V.ndim != 2:
        raise ValueError("E must be a 2-d matrix")
    _finite("E", V)
    n, d = V.shape
    if not (1 <= k <= min(n, d)):
        raise ValueError(f"k={k} out of range for a {n}x{d} matrix")
    mins = V.min(axis=0)
    shifts = np.where(mins < 0, -mins, 0.0)
    V = V + shifts

    rng = np.random.default_rng(seed)
    scale = np.sqrt(max(V.mean(), np.finfo(float).tiny) / k)
    W = scale * rng.uniform(0.1, 1.0, size=(n, k))
    H = scale * rng.uniform(0.1, 1.0, size=(k, d))

    eps = 1e-12
    objectives = [float(np.linalg.norm(V - W @ H))]
    for _ in range(iterations):
        W = W * (V @ H.T) / np.maximum(W @ (H @ H.T), eps)
        H = H * (W.T @ V) / np.maximum((W.T @ W) @ H, eps)
        objectives.append(float(np.linalg.norm(V - W @ H)))
    return NMFResult(W=W, H=H, objectives=objectives, column_shifts=shifts)
