"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Tolerances and runtime budgets are fixed here, not tuned elsewhere.
"""

from __future__ import annotations

import math
import shutil
import time

import numpy as np
import pytest

from evaluation_oracle import loocv_fixed_design, paired_matrices
from scrublang.cli import main
from scrublang.features import UserCorpus
from scrublang.modeling import (
    CELL_ORDER,
    LexiconModel,
    cross_domain_matrix,
    feature_importance,
    loocv_predictions_hat,
    loocv_predictions_naive,
    nmf_reduce,
)
from scrublang.redactor import StreamRedactor, redact_string
from scrublang.stats import bh_fdr, bootstrap_corr_diff, cohens_d_paired, paired_t_test, pearson_r
from scrublang.synth import make_fixture
from session_sim import leak_fragments, random_session, run_session
from test_stats import bh_bruteforce


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} PASS: {text}")


def test_01_redaction_leak_freedom():
    budget_s = 30.0
    n_sessions = 1000
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(n_sessions):
        session = random_session(rng)
        redactor = StreamRedactor(keep_snapshots=True)
        (entry,) = run_session(redactor, session)
        retained = [entry.final_text, *entry.snapshots]
        for pii in session.pii_in_final:
            checked += 1
            for fragment in leak_fragments(pii):
                for text in retained:
                    assert fragment not in text, (pii, fragment, text)
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"fuzz took {elapsed:.1f}s (budget {budget_s}s)"
    report(1, f"{n_sessions} fuzzed sessions, {checked} embedded PII strings, "
              f"zero leaked fragments in {elapsed:.1f}s")


def test_02_online_offline_equivalence():
    rng = np.random.default_rng(77)
    for _ in range(200):
        session = random_session(rng)
        redactor = StreamRedactor(keep_snapshots=True)
        (entry,) = run_session(redactor, session)
        offline = redact_string(session.final_raw).text
        assert entry.final_text == offline
    report(2, "200 sessions: streaming final text byte-equal to whole-string redaction")


def test_03_bh_fdr_matches_bruteforce():
    rng = np.random.default_rng(5)
    for trial in range(500):
        m = int(rng.integers(1, 51))
        p = rng.uniform(0, 1, size=m)
        if trial % 3 == 0:
            p = np.round(p, 2)  # provoke ties
        alpha = float(rng.choice([0.01, 0.05, 0.1, 0.25]))
        assert bh_fdr(list(p), alpha) == bh_bruteforce(list(p), alpha)
    report(3, "500 random p-vectors (m <= 50): step-up equals brute-force scan exactly")


def test_04_paired_t_and_cohens_d_hand_values():
    x, y = [3.0, 5.0, 7.0], [1.0, 1.0, 1.0]  # diffs [2, 4, 6]
    d = cohens_d_paired(x, y)
    t, _ = paired_t_test(x, y)
    assert d == 2.0
    assert abs(t - 2.0 * math.sqrt(3.0)) <= 1e-9
    assert cohens_d_paired(y, x) == -d
    t_swapped, _ = paired_t_test(y, x)
    assert t_swapped == -t
    report(4, f"diffs [2,4,6]: d = {d}, t = {t:.12f}; platform swap negates both exactly")


def test_05_ridge_loocv_and_hat_shortcut():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(30, 5))
    y = X @ np.array([2.0, -1.0, 0.5, 3.0, 1.0]) + 4.0
    r = pearson_r(loocv_predictions_naive(X, y, 1.0), y)
    assert r >= 0.999
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 51))
        Xs = rng.normal(size=(n, 4))
        ys = rng.normal(size=n)
        for standardize in ("global", "none"):
            refits = loocv_fixed_design(Xs, ys, 1.0, standardize)
            hat = loocv_predictions_hat(Xs, ys, 1.0, standardize=standardize)
            worst = max(worst, float(np.max(np.abs(refits - hat))))
    assert worst < 1e-9
    report(5, f"exact-linear LOOCV r = {r:.6f} >= 0.999; "
              f"hat shortcut vs explicit refits max |diff| = {worst:.2e} < 1e-9")


def test_06_bootstrap_calibration_and_reproducibility():
    budget_s = 300.0
    start = time.monotonic()
    trials = 500
    rejections = 0
    for trial in range(trials):
        rng = np.random.default_rng(50_000 + trial)
        truth = rng.normal(0, 1, 120)
        est_a = truth + rng.normal(0, 1, 120)
        est_b = truth + rng.normal(0, 1, 120)
        res = bootstrap_corr_diff(est_a, est_b, truth, iterations=1000, seed=trial)
        if res.p_value < 0.05:
            rejections += 1
    rate = rejections / trials
    assert 0.03 <= rate <= 0.07, f"null rejection rate {rate}"
    rng = np.random.default_rng(123)
    truth = rng.normal(0, 1, 120)
    a = truth + rng.normal(0, 1, 120)
    b = truth + rng.normal(0, 1.3, 120)
    r1 = bootstrap_corr_diff(a, b, truth, iterations=5000, seed=99)
    r2 = bootstrap_corr_diff(a, b, truth, iterations=5000, seed=99)
    assert r1 == r2  # bit-exact tuple equality
    elapsed = time.monotonic() - start
    assert elapsed < budget_s
    report(6, f"null rejection rate {rate:.3f} in [0.03, 0.07] over {trials} trials; "
              f"fixed seed reproduces (dr, p) bit-exactly; {elapsed:.1f}s")


def test_07_feature_importance_quadrants():
    # corpora with four planted features: positive/negative model weight
    # crossed with facebook/sms frequency skew
    fb_docs = ["amber amber cedar cedar filler words here"] * 3
    sms_docs = ["bolt bolt dusk dusk filler words here"] * 3
    users = [f"u{i}" for i in range(6)]
    fb_freq = {}
    sms_freq = {}
    for u in users:
        fb_vec = UserCorpus(u, "facebook", fb_docs).ngram_features((1,))
        sms_vec = UserCorpus(u, "sms", sms_docs).ngram_features((1,))
        for t, v in fb_vec.items():
            fb_freq[t] = fb_freq.get(t, 0.0) + v / len(users)
        for t, v in sms_vec.items():
            sms_freq[t] = sms_freq.get(t, 0.0) + v / len(users)
    model = LexiconModel(
        weights={"amber": 1.0, "bolt": 1.0, "cedar": -1.0, "dusk": -1.0},
        outcome="depression",
    )
    rows = {r.feature: r for r in feature_importance(model, fb_freq, sms_freq)}
    expected = {"amber": "A", "bolt": "B", "cedar": "C", "dusk": "D"}
    for feature, quadrant in expected.items():
        assert rows[feature].quadrant == quadrant, (feature, rows[feature])
    assert rows["amber"].importance > 0 and rows["dusk"].importance > 0
    assert rows["bolt"].importance < 0 and rows["cedar"].importance < 0
    report(7, "planted +/- weight x fb/sms skew features land in quadrants A/B/C/D")


def test_08_cross_domain_matrix_symmetry_and_planted_signal():
    rng = np.random.default_rng(88)
    users = [f"u{i}" for i in range(20)]
    feats = {
        u: {f"f{j}": float(rng.uniform(0, 1)) for j in range(4)} for u in users
    }
    outcomes = {u: {"score": feats[u]["f2"] * 2.0 + float(rng.normal(0, 0.05))} for u in users}
    X_fb, X_sms, users = paired_matrices(feats, feats)
    rep = cross_domain_matrix(X_fb, X_sms, users, outcomes, bootstrap_iterations=1000, seed=0)
    values = [rep.outcomes["score"].cells[c].value for c in CELL_ORDER]
    spread = max(values) - min(values)
    assert spread < 1e-9

    y = rng.normal(0, 1, 40)
    users40 = [f"v{i}" for i in range(40)]
    fb = {
        u: {"f0": float(y[i] + rng.normal(0, 0.05)), "f1": float(rng.uniform())}
        for i, u in enumerate(users40)
    }
    sms = {
        u: {"f0": float(rng.uniform()), "f1": float(rng.uniform())} for u in users40
    }
    outcomes40 = {u: {"score": float(y[i])} for i, u in enumerate(users40)}
    X_fb, X_sms, users40 = paired_matrices(fb, sms)
    rep2 = cross_domain_matrix(X_fb, X_sms, users40, outcomes40, bootstrap_iterations=1000, seed=0)
    cells = {c: rep2.outcomes["score"].cells[c].value for c in CELL_ORDER}
    others = [cells["fb_sms"], cells["sms_sms"], cells["sms_fb"]]
    assert cells["fb_fb"] > max(others)
    report(8, f"identical corpora: cell spread {spread:.2e} < 1e-9; "
              f"planted facebook signal: fb/fb = {cells['fb_fb']:.3f} strictly highest")


def test_09_nmf_monotone_and_identity():
    worst_uptick = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        d = int(rng.integers(3, 15))
        k = int(rng.integers(1, min(n, d) + 1))
        V = rng.uniform(0, 3, size=(n, d))
        res = nmf_reduce(V, k=k, iterations=120, seed=seed)
        obj = np.array(res.objectives)
        upticks = np.diff(obj) - 1e-10 * np.maximum(1.0, obj[:-1])
        worst_uptick = max(worst_uptick, float(upticks.max()))
        assert np.all(upticks <= 0), f"objective increased at seed {seed}"
    res = nmf_reduce(np.eye(2), k=2, iterations=500, seed=0)
    assert res.reconstruction_error < 1e-3
    report(9, f"50 random matrices: objective non-increasing every iteration; "
              f"2x2 identity error {res.reconstruction_error:.2e} < 1e-3 within 500 iterations")


def test_10_pipeline_determinism(tmp_path):
    budget_s = 60.0
    start = time.monotonic()
    fixture = tmp_path / "fixture"
    files = make_fixture(fixture, n_users=20, seed=0)
    assert main(["pipeline", "--config", str(files["config"])]) == 0
    out = fixture / "out"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    shutil.rmtree(out)
    assert main(["pipeline", "--config", str(files["config"])]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(first) == set(second)
    diffs = [name for name in first if first[name] != second[name]]
    assert diffs == []
    elapsed = time.monotonic() - start
    assert elapsed < budget_s
    report(10, f"pipeline rerun on the 20-user fixture: {len(first)} reports "
               f"byte-identical; two runs in {elapsed:.1f}s (budget {budget_s:.0f}s)")
