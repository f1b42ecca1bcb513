"""Command-line entry points.

Subcommands: redact, summary, features, diff, train, evaluate, importance,
pipeline.  ``pipeline`` chains everything deterministically: keystroke
redaction -> corpus assembly (the same cleaning applied to both platforms) ->
summary -> differential language analysis -> pretrained-lexicon estimates ->
cross-domain model evaluation -> feature importance, plus a manifest of
seeds, thresholds, and input digests.  Its diff, train, evaluate, and
importance stages run the same stage functions as the subcommands of those
names, so given the same settings they write byte-identical reports.

Every command carries its settings in one :class:`RunConfig`, set from its
flags by :func:`run_config`; ``pipeline`` reads a flat ``key = value`` config
file (# comments allowed; relative paths resolve against its directory) that
its flags override.  A failed command removes the reports it began to write.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    CategoryDiff,
    InsufficientUsersError,
    NgramDiff,
    cloud_data,
    diff_categories,
    diff_ngrams,
    paired_ngram_tables,
    shared_users,
    summary_stats,
)
from .detectors import DetectorSuite, Gazetteer, bundled_inputs, default_suite
from .features import (
    DEFAULT_MIN_GROUP_FRACTION,
    DEFAULT_MIN_WORDS,
    DictionarySpec,
    UserCorpus,
    feature_matrix,
    filter_min_words,
    group_frequency_filter,  # unused here; bench/tracing.py patches cli.group_frequency_filter
    load_corpus_jsonl,
    user_feature_table,
)
from .io import (
    load_embeddings,
    load_lexicon_csv,
    load_outcomes_csv,
    save_lexicon_csv,
    write_csv,
    write_json,
    write_manifest,
)
from .modeling import (
    CELL_ORDER,
    COMPARISONS,
    MIN_LABELED,
    EvalReport,
    ImportanceRow,
    apply_lexicon,
    bootstrap_accuracy_diff,  # unused here; bench/tracing.py patches cli.bootstrap_accuracy_diff
    compare_estimates,
    cross_domain_matrix,
    feature_importance,
    labeled_users,
    nmf_reduce,
    outcome_scoring,
    ridge_fit,
)
from .redactor import (
    DEFAULT_TIMEOUT_MS,
    KeystrokeEvent,
    OutOfOrderError,
    StreamRedactor,
    redact_string,
)
from .spans import PLACEHOLDER_RE, Record, numbered_lines
# cli calls neither bootstrap_corr_diff nor pearson_r; bench/tracing.py patches both here
from .stats import DegenerateDataError, bootstrap_corr_diff, pearson_r
from .stats import check_bootstrap_iterations, score


class PipelineError(RuntimeError):
    """A pipeline stage failed; partial outputs have been removed."""


def _int_tuple(value: str) -> tuple[int, ...]:
    """Comma-separated positive integers, e.g. n-gram orders ``1,2,3``."""
    orders = tuple(int(v) for v in value.split(",") if v.strip())
    if any(n < 1 for n in orders):
        raise argparse.ArgumentTypeError(f"n-gram orders must be >= 1, got {value!r}")
    return orders


def _iterations(value: str) -> int:
    """A bootstrap resample count, at least the floor that the test needs."""
    try:
        return check_bootstrap_iterations(int(value))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _str_tuple(value: str) -> tuple[str, ...]:
    """Comma-separated names, e.g. an app allow-list."""
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _bool(value: str) -> bool:
    """A switch: true/false, yes/no, on/off or 1/0, in any letter case."""
    spelling = value.lower()
    if spelling not in ("true", "yes", "on", "1", "false", "no", "off", "0"):
        raise ValueError(f"expected true/false, yes/no, on/off or 1/0, got {value!r}")
    return spelling in ("true", "yes", "on", "1")


# A RunConfig field's annotation says how a config file spells its value.
# Paths resolve against the config file's directory; an empty path is unset.
InputPath = str | None  # a file the run reads; its digest goes in the manifest
OutputPath = str
_PARSERS = {
    "int": int,
    "float": float,
    "bool": _bool,
    "tuple[int, ...]": _int_tuple,
    "tuple[str, ...]": _str_tuple,
}


@dataclass
class RunConfig(Record):
    keystroke_log: InputPath = None
    facebook_corpus: InputPath = None
    outcomes: InputPath = None
    dictionary: InputPath = None
    lexicon: InputPath = None
    embeddings_fb: InputPath = None
    embeddings_sms: InputPath = None
    gazetteer: InputPath = None
    catalogue: InputPath = None
    output_dir: OutputPath = "out"
    min_words: int = DEFAULT_MIN_WORDS
    min_group_fraction: float = DEFAULT_MIN_GROUP_FRACTION
    fdr_alpha: float = 0.05
    ridge_alpha: float = 1.0
    seed: int = 0
    bootstrap_iterations: int = 10_000
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    keep_snapshots: bool = False
    model_orders: tuple[int, ...] = (1, 2, 3)
    nmf_k: int = 128
    nmf_iterations: int = 200
    apps: tuple[str, ...] = ()

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """Parse ``key = value`` lines, each value by its field's annotation;
        a malformed line raises ``ValueError`` naming ``path:line``."""
        path = Path(path)
        values = {}
        for lineno, line in numbered_lines(path, comments=True):
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            if key not in _TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if _TYPES[key] in ("InputPath", "OutputPath"):
                values[key] = str((path.parent / value).resolve()) if value else None
                continue
            try:
                values[key] = _PARSERS[_TYPES[key]](value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad {key}: {exc}") from exc
        return cls(**values)

    def __post_init__(self) -> None:
        """Check every setting and input path, whether it came from a config
        file or from flags, before any work starts."""
        for key in _INPUT_KEYS:
            value = getattr(self, key)
            if value is not None and not Path(value).exists():
                raise FileNotFoundError(f"{key}: no such file {value}")
        limits = {  # setting -> (in range, the rule); NaN is never in range
            "fdr_alpha": (0.0 < self.fdr_alpha < 1.0, "lie in (0, 1)"),
            "min_group_fraction": (0.0 <= self.min_group_fraction <= 1.0, "lie in [0, 1]"),
            "timeout_ms": (self.timeout_ms >= 1, "be >= 1"),
            "ridge_alpha": (self.ridge_alpha > 0.0, "be > 0"),
            "nmf_k": (self.nmf_k >= 1, "be >= 1"),
        }
        for key, (ok, rule) in limits.items():
            if not ok:
                raise ValueError(f"{key} must {rule}, got {getattr(self, key)}")
        check_bootstrap_iterations(self.bootstrap_iterations)

    def manifest_inputs(self) -> dict[str, str | Path]:
        """Manifest key -> file for every input the run reads, including the
        bundled detector data that stands in for an unset catalogue or
        gazetteer (keyed by its package-relative name)."""
        paths = [getattr(self, key) for key in _INPUT_KEYS]
        return {**{p: p for p in paths if p}, **bundled_inputs(self.catalogue, self.gazetteer)}


_TYPES = {f.name: f.type for f in fields(RunConfig)}  # field -> annotation
_INPUT_KEYS = tuple(key for key, kind in _TYPES.items() if kind == "InputPath")
_SUITE = ("gazetteer", "catalogue")
_CORPUS = ("min_words", *_SUITE)
_MODEL = ("outcomes", "ridge_alpha", "model_orders", "min_group_fraction")
_SETTINGS = {  # the RunConfig fields each subcommand takes as flags
    "redact": ("keep_snapshots", "timeout_ms", "apps", *_SUITE),
    "summary": _SUITE,
    "features": (*_CORPUS, "dictionary", "model_orders"),
    "diff": (*_CORPUS, "dictionary", "fdr_alpha", "min_group_fraction"),
    "train": (*_CORPUS, *_MODEL),
    "evaluate": (*_CORPUS, *_MODEL, "bootstrap_iterations", "seed", "embeddings_fb",
                 "embeddings_sms", "nmf_k", "nmf_iterations"),
    "importance": (*_CORPUS, "lexicon"),
    "pipeline": ("seed", "fdr_alpha", "min_words"),
}
_FLAG_NAMES = {"model_orders": "orders", "fdr_alpha": "alpha", "ridge_alpha": "alpha"}
_FLAG_ARGS = {  # help texts and exceptions, by field or by (command, field)
    "gazetteer": dict(help="gazetteer TSV (label<TAB>surface form)"),
    "catalogue": dict(help="regex catalogue TSV override"),
    "outcomes": dict(required=True, help="outcomes CSV"),
    "lexicon": dict(required=True, help="lexicon weight CSV"),
    "fdr_alpha": dict(help="FDR level"),
    "ridge_alpha": dict(help="ridge penalty"),
    "model_orders": dict(help="n-gram orders"),
    "apps": dict(help="comma-separated app allow-list"),
    "bootstrap_iterations": dict(type=_iterations),  # below the floor: a usage error
    ("pipeline", "fdr_alpha"): dict(help="override FDR alpha"),
}


def run_config(args, command: str, base: RunConfig | None = None) -> RunConfig:
    """``command``'s settings: ``base`` (the defaults if None) with each of
    ``command``'s settings flags (``_SETTINGS``) set on its field; a flag left
    unset (None) keeps the base value."""
    flags = {name: getattr(args, _FLAG_NAMES.get(name, name)) for name in _SETTINGS[command]}
    return replace(base or RunConfig(), **{k: v for k, v in flags.items() if v is not None})


class OutputDir:
    """A report directory that records each path before writing its file.
    Used as a context manager, it removes every recorded file when its block
    raises, so a failed command leaves no partial reports."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.written: list[Path] = []

    def __enter__(self) -> "OutputDir":
        self.path.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for path in self.written:
                path.unlink(missing_ok=True)

    def claim(self, name: str) -> Path:
        path = self.path / name
        self.written.append(path)
        return path

    def json(self, obj, name: str) -> None:
        write_json(obj, self.claim(name))

    def csv(self, rows, fieldnames, name: str) -> None:
        write_csv(rows, fieldnames, self.claim(name))

    def jsonl(self, records, name: str) -> None:
        with open(self.claim(name), "w", encoding="utf-8") as fh:
            fh.writelines(r.to_json() + "\n" for r in records)

    def table(self, records, record_type, stem: str) -> None:
        """Dataclass records as ``stem.json`` plus a ``stem.csv`` mirror whose
        columns are the record fields."""
        rows = [r.to_dict() for r in records]
        self.json(rows, f"{stem}.json")
        self.csv(rows, [f.name for f in fields(record_type)], f"{stem}.csv")


def _build_suite(cfg: RunConfig) -> DetectorSuite:
    if cfg.gazetteer is None and cfg.catalogue is None:
        return default_suite()
    gaz = Gazetteer.from_file(cfg.gazetteer) if cfg.gazetteer else None
    return DetectorSuite.default(catalogue_path=cfg.catalogue, gazetteer=gaz)


def run_redaction(log_path: str | Path, suite: DetectorSuite, cfg: RunConfig):
    """Stream a keystroke log through the redactor with ``cfg``'s timeout,
    snapshot retention and app allow-list.

    Returns (entries, counters); events from non-allow-listed apps and events
    arriving out of order are skipped and counted, mirroring the ingestion
    exclusion funnel.  A line that is not a valid keystroke event aborts the
    run with a ``ValueError`` naming ``file:line``.
    """
    redactor = StreamRedactor(
        suite=suite, timeout_ms=cfg.timeout_ms, keep_snapshots=cfg.keep_snapshots
    )
    counters = {"events": 0, "apps_filtered": 0, "out_of_order": 0}
    entries = []
    for lineno, line in numbered_lines(log_path):
        try:
            event = KeystrokeEvent.from_json(line)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{log_path}:{lineno}: bad keystroke event: {exc}") from exc
        counters["events"] += 1
        if cfg.apps and event.app_id not in cfg.apps:
            counters["apps_filtered"] += 1
            continue
        try:
            entries.extend(redactor.ingest_event(event))
        except OutOfOrderError:
            counters["out_of_order"] += 1
    entries.extend(redactor.finish())
    return entries, counters


def _load_clean_corpora(
    corpus_path: str | Path, suite: DetectorSuite
) -> dict[tuple[str, str], UserCorpus]:
    """Load a corpus file and run every document through the cleaning pipeline
    (idempotent, so pre-redacted corpora pass through unchanged)."""
    return {
        key: replace(corpus, documents=[redact_string(doc, suite).text for doc in corpus.documents])
        for key, corpus in load_corpus_jsonl(corpus_path).items()
    }


def _sms_corpora_from_entries(entries) -> dict[tuple[str, str], UserCorpus]:
    ordered = sorted(entries, key=lambda e: (e.user_id, e.start_timestamp, e.app_id))
    return {
        (user, "sms"): UserCorpus(user, "sms", [e.final_text for e in group])
        for user, group in groupby(ordered, key=lambda e: e.user_id)
    }


def _unigram_vectors(corpora, users) -> dict[str, dict[str, dict[str, float]]]:
    """platform -> user -> unigram relative frequencies, for ``users``."""
    return {
        plat: {u: corpora[(u, plat)].ngram_features((1,)) for u in users}
        for plat in ("facebook", "sms")
    }


def _lexicon_estimates(models, unigrams, outcomes, cfg: RunConfig) -> dict:
    """Task-style evaluation of pretrained lexicon models on both platforms:
    per-user estimates scored against self-reports by :func:`outcome_scoring`,
    with a bootstrap test on the facebook-vs-sms difference.  ``unigrams``
    holds the users' vectors on each platform (see :func:`_unigram_vectors`)."""
    users = list(unigrams["facebook"])
    report: dict = {"n_users": len(users), "models": {}}
    for name, model in sorted(models.items()):
        labeled = labeled_users(users, outcomes, name)
        if labeled is None:
            continue
        keep, y = labeled
        metric = outcome_scoring(name)[1]
        entry = report["models"][name] = {"metric": metric}
        est = {}
        try:
            for plat, vectors in unigrams.items():
                est[plat] = np.array([apply_lexicon(model, vectors[users[i]]) for i in keep])
                entry[plat] = score(metric, est[plat], y)
            entry["bootstrap"] = compare_estimates(
                metric, est["facebook"], est["sms"], y, cfg.bootstrap_iterations, cfg.seed
            )
        except DegenerateDataError as exc:
            entry["degenerate"] = str(exc)
    return report


# ---------------------------------------------------------------------------
# stages shared by the subcommands and ``pipeline``
# ---------------------------------------------------------------------------


def _diff(corpora, out: OutputDir, cfg: RunConfig) -> list[NgramDiff]:
    """Differential n-gram (and, with a dictionary, category) analysis between
    the platforms; writes the diff tables and the word-cloud data."""
    alpha = cfg.fdr_alpha
    ngram_rows = diff_ngrams(corpora, alpha=alpha, min_group_fraction=cfg.min_group_fraction)
    category_rows = None
    if cfg.dictionary:
        spec = DictionarySpec.from_file(cfg.dictionary)
        category_rows = diff_categories(corpora, spec, alpha=alpha)
    out.table(ngram_rows, NgramDiff, "ngram_diff")
    out.json([c.to_dict() for c in cloud_data(ngram_rows)], "cloud.json")
    if category_rows is not None:
        out.table(category_rows, CategoryDiff, "category_diff")
    return ngram_rows


def _modeling_tables(corpora, cfg: RunConfig):
    users, fb, sms, names = paired_ngram_tables(corpora, cfg.model_orders, cfg.min_group_fraction)
    # n-grams holding a redaction placeholder are display only
    return users, fb, sms, [f for f in names if not PLACEHOLDER_RE.search(f)]


def _train(tables, outcomes, cfg: RunConfig, platform: str, wanted, dest) -> dict:
    """Fit one ridge lexicon model per outcome on ``platform``'s n-grams and
    save them to ``dest``; ``wanted`` of None means every outcome."""
    users, fb, sms, feature_names = tables
    vectors = fb if platform == "facebook" else sms
    models = {}
    for name in wanted or sorted({n for u in users for n in outcomes.get(u, {})}):
        labeled = labeled_users(users, outcomes, name)
        if labeled is None:
            sys.stderr.write(f"train: skipping {name}: fewer than {MIN_LABELED} labeled users\n")
            continue
        keep, y = labeled
        X = feature_matrix(vectors, [users[i] for i in keep], feature_names)
        models[name] = ridge_fit(X, y, cfg.ridge_alpha, feature_names=feature_names, outcome=name)
    save_lexicon_csv(models, dest)
    return models


_EVAL_COLUMNS = (
    "outcome", "cell", "metric", "value", "n",
    "bootstrap_comparison", "bootstrap_delta", "bootstrap_p",
)


def _evaluate(tables, outcomes, out: OutputDir, cfg: RunConfig, cross_fit: str) -> EvalReport:
    """Four-cell cross-platform evaluation on the n-gram tables.  When both
    embeddings files (facebook, sms) are set, the same evaluation, with the
    same ``cross_fit``, runs on both platforms' embeddings reduced in one
    shared NMF basis of ``cfg.nmf_k`` components."""
    users, fb, sms, feature_names = tables
    matrix_args = dict(alpha=cfg.ridge_alpha, bootstrap_iterations=cfg.bootstrap_iterations,
                       seed=cfg.seed, cross_fit=cross_fit)
    report = cross_domain_matrix(
        fb, sms, {u: outcomes.get(u, {}) for u in users}, feature_names=feature_names, **matrix_args
    )
    out.json(report.to_dict(), "eval_report.json")
    rows = []  # one _EVAL_COLUMNS row per (outcome, cell)
    for name, ev in sorted(report.outcomes.items()):
        for cell in CELL_ORDER:
            res = ev.cells[cell]
            comp = next(c for c, pair in COMPARISONS.items() if cell in pair)
            boot = ev.bootstrap.get(comp, {})
            row = (name, cell, res.metric, res.value, res.n, comp)
            row += (boot.get("delta"), boot.get("p_value"))
            rows.append(dict(zip(_EVAL_COLUMNS, row)))
    out.csv(rows, _EVAL_COLUMNS, "eval_report.csv")
    if not (cfg.embeddings_fb and cfg.embeddings_sms):
        return report
    fb_emb, sms_emb = map(load_embeddings, (cfg.embeddings_fb, cfg.embeddings_sms))
    usable = [u for u in users if u in fb_emb and u in sms_emb]
    if len(usable) < 3:
        raise ValueError("fewer than 3 users have embeddings on both platforms")
    stacked = np.vstack([fb_emb[u] for u in usable] + [sms_emb[u] for u in usable])
    k = min(cfg.nmf_k, min(stacked.shape))
    result = nmf_reduce(stacked, k=k, iterations=cfg.nmf_iterations, seed=cfg.seed)
    n = len(usable)
    names = [f"nmf{j}" for j in range(k)]
    emb_report = cross_domain_matrix(
        {u: dict(zip(names, result.W[i])) for i, u in enumerate(usable)},
        {u: dict(zip(names, result.W[n + i])) for i, u in enumerate(usable)},
        {u: outcomes.get(u, {}) for u in usable},
        feature_names=names,
        **matrix_args,
    )
    info = {"k": k, "iterations": cfg.nmf_iterations, "n_users": n}
    info["reconstruction_error"] = result.reconstruction_error
    out.json({"nmf": info, **emb_report.to_dict()}, "embedding_eval.json")
    return report


def _importance(unigrams, models, out: OutputDir) -> dict[str, list]:
    """Weight-times-frequency importance of each model's features, with the
    users' mean unigram frequencies on each platform (``unigrams``, see
    :func:`_unigram_vectors`); one table per model.  Only the models' terms
    are averaged; a term no user wrote averages 0."""
    terms = sorted({t for model in models.values() for t in model.weights})
    freq = {}
    for plat, vecs in unigrams.items():
        M = feature_matrix(vecs, list(vecs), terms)
        # each column's own mean: M.mean(axis=0) sums in another order
        freq[plat] = {t: float(M[:, j].mean()) for j, t in enumerate(terms)}
    ranked = {}
    for name in sorted(models):
        ranked[name] = feature_importance(models[name], freq["facebook"], freq["sms"])
        out.table(ranked[name], ImportanceRow, f"importance_{name}")
    return ranked


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _corpora_from_args(args, cfg: RunConfig):
    """The cleaned ``--corpus`` after the ``min_words`` exclusion: (corpora, excluded)."""
    corpora = _load_clean_corpora(args.corpus, _build_suite(cfg))
    return filter_min_words(corpora, cfg.min_words)


def cmd_redact(args) -> int:
    cfg = run_config(args, "redact")
    entries, counters = run_redaction(args.infile, _build_suite(cfg), cfg)
    dest = Path(args.outfile)
    with OutputDir(dest.parent) as out:
        out.jsonl(entries, dest.name)
    print(
        f"redact: {counters['events']} events -> {len(entries)} entries "
        f"({counters['apps_filtered']} filtered by app, "
        f"{counters['out_of_order']} out of order)"
    )
    return 0


def cmd_summary(args) -> int:
    corpora = _load_clean_corpora(args.corpus, _build_suite(run_config(args, "summary")))
    stats = summary_stats(corpora)
    for plat, block in sorted(stats.items()):
        w, p = block["words"], block["posts"]
        print(
            f"{plat}: n={block['n_users']} "
            f"words med/mean/sd = {w['median']:.0f}/{w['mean']:.1f}/{w['sd']:.1f} "
            f"posts med/mean/sd = {p['median']:.0f}/{p['mean']:.1f}/{p['sd']:.1f}"
        )
    if args.out_dir:
        rows = [
            {"platform": plat, "measure": measure, **block[measure]}
            for plat, block in sorted(stats.items())
            for measure in ("words", "posts")
        ]
        with OutputDir(args.out_dir) as out:
            out.json(stats, "summary.json")
            columns = ["platform", "measure", "median", "mean", "sd", "sd_defined"]
            out.csv(rows, columns, "summary.csv")
    return 0


def cmd_features(args) -> int:
    cfg = run_config(args, "features")
    corpora, excluded = _corpora_from_args(args, cfg)
    platforms = sorted({p for (_, p) in corpora})
    with OutputDir(args.out_dir) as out:
        out.json(
            {plat: user_feature_table(corpora, plat, cfg.model_orders) for plat in platforms},
            "ngram_features.json",
        )
        if cfg.dictionary:
            spec = DictionarySpec.from_file(cfg.dictionary)
            cats = {plat: {} for plat in platforms}
            for u, plat in sorted(corpora):
                cats[plat][u] = corpora[(u, plat)].dictionary_features(spec)
            out.json(cats, "dictionary_features.json")
        if excluded:
            out.json({"min_words": excluded}, "exclusions.json")
    n_excluded = len(excluded)
    print(f"features: wrote {out.path} (excluded {n_excluded} users below {cfg.min_words} words)")
    return 0


def cmd_diff(args) -> int:
    cfg = run_config(args, "diff")
    corpora, excluded = _corpora_from_args(args, cfg)
    with OutputDir(args.out_dir) as out:
        ngram_rows = _diff(corpora, out, cfg)
    n_sig = sum(r.q_significant for r in ngram_rows)
    print(
        f"diff: {len(ngram_rows)} n-grams tested, {n_sig} FDR-significant "
        f"at alpha={cfg.fdr_alpha} ({len(excluded)} users excluded)"
    )
    return 0


def cmd_train(args) -> int:
    cfg = run_config(args, "train")
    corpora, _ = _corpora_from_args(args, cfg)
    outcomes = load_outcomes_csv(cfg.outcomes)
    tables = _modeling_tables(corpora, cfg)
    dest = Path(args.out)
    with OutputDir(dest.parent) as out:
        models = _train(tables, outcomes, cfg, args.platform, args.outcome, out.claim(dest.name))
    print(f"train: wrote {len(models)} {args.platform} models to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = run_config(args, "evaluate")
    corpora, _ = _corpora_from_args(args, cfg)
    outcomes = load_outcomes_csv(cfg.outcomes)
    tables = _modeling_tables(corpora, cfg)
    with OutputDir(args.out_dir) as out:
        report = _evaluate(tables, outcomes, out, cfg, args.cross_fit)
    n_users = len(tables[0])
    print(f"evaluate: wrote {out.path} for {len(report.outcomes)} outcomes, n={n_users} users")
    return 0


def cmd_importance(args) -> int:
    cfg = run_config(args, "importance")
    corpora, _ = _corpora_from_args(args, cfg)
    models = load_lexicon_csv(cfg.lexicon)
    if args.outcome not in models:
        raise SystemExit(f"importance: outcome {args.outcome!r} not in {cfg.lexicon}")
    users = shared_users(corpora)
    if not users:
        raise SystemExit("importance: no users present on both platforms")
    model = {args.outcome: models[args.outcome]}
    with OutputDir(args.out_dir) as out:
        ranked = _importance(_unigram_vectors(corpora, users), model, out)
    print(f"importance: ranked {len(ranked[args.outcome])} features for {args.outcome}")
    return 0


def cmd_pipeline(args) -> int:
    stage = "config"
    try:
        cfg = run_config(args, "pipeline", RunConfig.from_file(args.config))
        if cfg.keystroke_log is None or cfg.facebook_corpus is None or cfg.outcomes is None:
            raise SystemExit("pipeline: config must set keystroke_log, facebook_corpus, outcomes")
        with OutputDir(cfg.output_dir) as out:
            stage = "redact"
            suite = _build_suite(cfg)
            entries, counters = run_redaction(cfg.keystroke_log, suite, cfg)
            out.jsonl(entries, "entries.jsonl")
            print(f"pipeline[{stage}]: {counters['events']} events -> {len(entries)} entries")

            stage = "corpora"
            corpora = _load_clean_corpora(cfg.facebook_corpus, suite)
            corpora.update(_sms_corpora_from_entries(entries))
            corpora, excluded = filter_min_words(corpora, cfg.min_words)
            out.json({"min_words": excluded, "counters": counters}, "exclusions.json")
            users = shared_users(corpora)
            if len(users) < 2:
                raise InsufficientUsersError(
                    f"need >= 2 users on both platforms after exclusions, have {len(users)}"
                )
            unigrams = _unigram_vectors(corpora, users)
            print(f"pipeline[{stage}]: {len(users)} users on both platforms")

            stage = "summary"
            out.json(summary_stats(corpora), "summary.json")

            stage = "diff"
            _diff(corpora, out, cfg)

            stage = "estimates"
            outcomes = load_outcomes_csv(cfg.outcomes)
            pretrained = load_lexicon_csv(cfg.lexicon) if cfg.lexicon else {}
            if pretrained:
                report = _lexicon_estimates(pretrained, unigrams, outcomes, cfg)
                out.json(report, "lexicon_eval.json")

            stage = "train"
            tables = _modeling_tables(corpora, cfg)
            lexicon_out = out.claim("trained_lexicon_facebook.csv")
            trained = _train(tables, outcomes, cfg, "facebook", None, lexicon_out)

            stage = "evaluate"
            _evaluate(tables, outcomes, out, cfg, "holdout")

            stage = "importance"
            _importance(unigrams, pretrained or trained, out)

            stage = "manifest"
            write_manifest(
                out.claim("manifest.json"), cfg.to_dict(), cfg.manifest_inputs(), __version__
            )
        print(f"pipeline: complete, reports in {out.path}")
        return 0
    except Exception as exc:
        raise PipelineError(f"stage {stage!r} failed: {exc}") from exc


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scrublang",
        description="Keystroke-log PII scrubbing and cross-platform language analysis",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    corpus = dict(required=True, help="JSONL corpus {user_id, platform, text}")

    p = sub.add_parser("redact", help="sanitize a keystroke log into entries")
    p.add_argument("--in", dest="infile", required=True, help="keystroke JSONL log")
    p.add_argument("--out", dest="outfile", required=True, help="sanitized entries JSONL")
    p.set_defaults(func=cmd_redact)

    p = sub.add_parser("summary", help="per-platform word/post statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_summary)

    p = sub.add_parser("features", help="extract n-gram and dictionary features")
    p.add_argument("--corpus", **corpus)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("diff", help="differential language analysis between platforms")
    p.add_argument("--corpus", **corpus)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("train", help="fit ridge lexicon models on one platform")
    p.add_argument("--corpus", **corpus)
    p.add_argument("--platform", choices=["facebook", "sms"], default="facebook")
    p.add_argument("--outcome", action="append", help="outcome name (repeatable; default all)")
    p.add_argument("--out", required=True, help="lexicon CSV to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="four-cell cross-platform model evaluation")
    p.add_argument("--corpus", **corpus)
    p.add_argument("--cross-fit", choices=["holdout", "full"], default="holdout")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("importance", help="weight-times-frequency feature importance")
    p.add_argument("--corpus", **corpus)
    p.add_argument("--outcome", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("pipeline", help="full deterministic run from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_pipeline)

    # Settings flags: --<field> with dashes (or its _FLAG_NAMES name), parsed as
    # the config file parses the field (a bool is a switch), with the field's
    # default; pipeline's default to None, which keeps its config file's value.
    for command, p in sub.choices.items():
        for name in _SETTINGS[command]:
            kind = _TYPES[name]
            kwargs = dict(action="store_true") if kind == "bool" else dict(type=_PARSERS.get(kind))
            kwargs["default"] = None if command == "pipeline" else getattr(RunConfig, name)
            kwargs.update(_FLAG_ARGS.get(name, {}), **_FLAG_ARGS.get((command, name), {}))
            p.add_argument("--" + _FLAG_NAMES.get(name, name).replace("_", "-"), **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PipelineError, FileNotFoundError, ValueError, InsufficientUsersError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, PipelineError) else 2


if __name__ == "__main__":
    sys.exit(main())
