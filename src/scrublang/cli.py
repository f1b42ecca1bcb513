"""Command-line entry points.

The study is one chain of stages, named in ``PIPELINE`` in order: redact the
keystroke log -> assemble both platforms' corpora (the same cleaning for both,
then the ``min_words`` exclusion) -> summary -> differential language analysis
(diff) -> pretrained-lexicon estimates -> train -> cross-domain evaluation ->
feature importance -> a manifest of seeds, thresholds and input digests.
``STAGES`` maps each name, and ``features``, to a method of :class:`Run`, which
builds each input two or more stages read on first use and only once.
:func:`run_command` runs the stage named like the subcommand (redact, summary,
features, diff, train, evaluate, importance), printing ``<command>: ...``, or
every ``pipeline`` stage in order, printing ``pipeline[<stage>]: ...`` after
each; given the same settings both write byte-identical reports.

Every command carries its settings in one :class:`RunConfig`, set from its
flags by :func:`run_config`; ``pipeline`` reads a flat ``key = value`` config
file (# comments allowed; relative paths resolve against its directory) that
its flags override.  A failed command removes the reports it began to write.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import groupby
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DIFF_ORDERS,
    CategoryDiff,
    InsufficientUsersError,
    NgramDiff,
    cloud_data,
    diff_categories,
    diff_ngrams,
    shared_users,
    summary_stats,
)
from .detectors import DetectorSuite, Gazetteer, bundled_inputs, default_suite
from .features import (
    DEFAULT_MIN_GROUP_FRACTION,
    DEFAULT_MIN_WORDS,
    PLATFORMS,
    CountTable,
    DictionarySpec,
    UserCorpus,
    count_table,
    filter_min_words,
    group_frequency_filter,  # unused here; bench/tracing.py patches cli.group_frequency_filter
    load_corpus_jsonl,
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
from .spans import PLACEHOLDER_RE, Record, json_lines, numbered_lines
# cli calls neither bootstrap_corr_diff nor pearson_r; bench/tracing.py patches both here
from .stats import DegenerateDataError, bootstrap_corr_diff, pearson_r
from .stats import MIN_BOOTSTRAP_ITERATIONS, score


class PipelineError(RuntimeError):
    """A pipeline stage failed; partial outputs have been removed."""


def _int_tuple(value: str) -> tuple[int, ...]:
    """One or more comma-separated positive integers, e.g. n-gram orders ``1,2,3``."""
    orders = tuple(int(v) for v in value.split(",") if v.strip())
    if not orders or any(n < 1 for n in orders):
        raise argparse.ArgumentTypeError(f"need one or more n-gram orders >= 1, got {value!r}")
    return orders


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
# Paths resolve against the config file's directory; an empty input path is
# unset, and an empty output path is an error.
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
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated config key {key!r}")
            if _TYPES[key] == "OutputPath" and not value:
                raise ValueError(f"{path}:{lineno}: {key} needs a directory")
            if _TYPES[key] in ("InputPath", "OutputPath"):
                values[key] = str((path.parent / value).resolve()) if value else None
                continue
            try:
                values[key] = _PARSERS[_TYPES[key]](value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad {key}: {exc}") from exc
            if problem := _out_of_range(key, values[key]):
                raise ValueError(f"{path}:{lineno}: {problem}")
        return cls(**values)

    def __post_init__(self) -> None:
        """Check every setting and input path, whether it came from a config
        file or from flags, before any work starts."""
        for key in _INPUT_KEYS:
            value = getattr(self, key)
            if value is not None and not Path(value).exists():
                raise FileNotFoundError(f"{key}: no such file {value}")
        for key in _LIMITS:
            if problem := _out_of_range(key, getattr(self, key)):
                raise ValueError(problem)

    def manifest_inputs(self) -> dict[str, str | Path]:
        """Manifest key -> file for every input the run reads, including the
        bundled detector data that stands in for an unset catalogue or
        gazetteer (keyed by its package-relative name)."""
        paths = [getattr(self, key) for key in _INPUT_KEYS]
        return {**{p: p for p in paths if p}, **bundled_inputs(self.catalogue, self.gazetteer)}


_LIMITS = {  # setting -> (in range, the rule); NaN is never in range
    "fdr_alpha": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "min_group_fraction": (lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    "timeout_ms": (lambda v: v >= 1, "be >= 1"),
    "ridge_alpha": (lambda v: 0.0 < v < float("inf"), "be finite and > 0"),
    "nmf_k": (lambda v: v >= 1, "be >= 1"),
    "nmf_iterations": (lambda v: v >= 1, "be >= 1"),
    "seed": (lambda v: v >= 0, "be >= 0"),
    "min_words": (lambda v: v >= 0, "be >= 0"),
    "bootstrap_iterations": (
        lambda v: v >= MIN_BOOTSTRAP_ITERATIONS, f"be >= {MIN_BOOTSTRAP_ITERATIONS}"
    ),
}


def _out_of_range(key: str, value) -> str | None:
    """Why ``value`` is out of range for setting ``key``; None if it is not."""
    in_range, rule = _LIMITS.get(key, (None, ""))
    return None if in_range is None or in_range(value) else f"{key} must {rule}, got {value}"


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


class Run:
    """One command's settings, arguments and report directory; its stages,
    each of which writes its reports and returns its progress line; and the
    inputs that two or more stages read, each built on first use and only once."""

    out: OutputDir  # opened by run_command

    def __init__(self, args) -> None:
        self.args, self.pipeline = args, args.command == "pipeline"
        base = RunConfig.from_file(args.config) if self.pipeline else None
        self.cfg = cfg = run_config(args, args.command, base)
        if self.pipeline and None in (cfg.keystroke_log, cfg.facebook_corpus, cfg.outcomes):
            raise ValueError("config must set keystroke_log, facebook_corpus, outcomes")
        out_file = vars(args).get("outfile") or vars(args).get("out")  # redact's, train's
        self.out_file = Path(out_file) if out_file else None
        if self.pipeline:
            self.out_dir = cfg.output_dir
        else:  # summary without --out-dir writes nothing
            self.out_dir = self.out_file.parent if self.out_file else args.out_dir or "."
        self.trained: dict = {}  # the train stage's models

    @cached_property
    def suite(self) -> DetectorSuite:
        cfg = self.cfg
        if cfg.gazetteer is None and cfg.catalogue is None:
            return default_suite()
        gaz = Gazetteer.from_file(cfg.gazetteer) if cfg.gazetteer else None
        return DetectorSuite.default(catalogue_path=cfg.catalogue, gazetteer=gaz)

    @cached_property
    def redaction(self) -> tuple[list, dict[str, int]]:
        """(entries, counters) of the keystroke log streamed through the
        redactor.  Events from apps off the allow-list and events out of
        order are skipped and counted; a line that is not a valid keystroke
        event raises ``ValueError`` naming ``file:line``."""
        cfg = self.cfg
        log = cfg.keystroke_log if self.pipeline else self.args.infile
        redactor = StreamRedactor(
            suite=self.suite, timeout_ms=cfg.timeout_ms, keep_snapshots=cfg.keep_snapshots
        )
        counters = {"events": 0, "apps_filtered": 0, "out_of_order": 0}
        entries = []
        for _, event in json_lines(log, "keystroke event", KeystrokeEvent.from_json):
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

    def cleaned(self) -> dict[tuple[str, str], UserCorpus]:
        """Every (user, platform) corpus before the ``min_words`` exclusion,
        each document run through the cleaning pipeline (idempotent, so
        pre-redacted corpora pass through unchanged).  The pipeline's
        ``facebook_corpus`` may hold only facebook records: its sms corpora
        come from the keystroke log."""
        path = self.cfg.facebook_corpus if self.pipeline else self.args.corpus
        platforms = ("facebook",) if self.pipeline else PLATFORMS
        corpora = {
            key: replace(c, documents=[redact_string(d, self.suite).text for d in c.documents])
            for key, c in load_corpus_jsonl(path, platforms).items()
        }
        if self.pipeline:  # one sms corpus per user, of its messages in typing order
            entries = self.redaction[0]
            entries = sorted(entries, key=lambda e: (e.user_id, e.start_timestamp, e.app_id))
            for user, group in groupby(entries, key=lambda e: e.user_id):
                corpora[(user, "sms")] = UserCorpus(user, "sms", [e.final_text for e in group])
        return corpora

    @cached_property
    def filtered(self) -> tuple[dict[tuple[str, str], UserCorpus], dict[str, int]]:
        """(corpora, excluded user -> word count) after the ``min_words`` exclusion."""
        return filter_min_words(self.cleaned(), self.cfg.min_words)

    @cached_property
    def outcomes(self) -> dict[str, dict[str, float]]:
        return load_outcomes_csv(self.cfg.outcomes)

    @cached_property
    def lexicon(self) -> dict:
        """The pretrained lexicon models; none when no lexicon is set."""
        return load_lexicon_csv(self.cfg.lexicon) if self.cfg.lexicon else {}

    @cached_property
    def table(self) -> CountTable:
        """The n-gram counts of every corpus left after the ``min_words``
        exclusion, counted once per command: the model orders, every order
        ``diff`` tests when the command runs it, and unigrams for the
        dictionary categories."""
        cfg = self.cfg
        orders = {*cfg.model_orders, *((1,) if cfg.dictionary else ())}
        if self.pipeline or self.args.command == "diff":
            orders.update(DIFF_ORDERS)
        return count_table(self.filtered[0], orders)

    @cached_property
    def model_tables(self) -> tuple[list[str], np.ndarray, np.ndarray, list[str]]:
        """(shared users, their facebook and sms frequency matrices, features)
        of the model orders; the features pass the group frequency filter
        and hold no redaction placeholder (those n-grams are display only)."""
        cfg, table = self.cfg, self.table
        names = table.paired_features(table.users, cfg.model_orders, cfg.min_group_fraction)
        features = [f for f in names if not PLACEHOLDER_RE.search(f)]
        return table.users, *table.paired(features), features

    def redact(self) -> str:
        entries, counters = self.redaction
        self.out.jsonl(entries, self.out_file.name if self.out_file else "entries.jsonl")
        return (
            "{events} events -> {n} entries ({apps_filtered} filtered by app, "
            "{out_of_order} out of order)"
        ).format(n=len(entries), **counters)

    def corpora(self) -> str:
        corpora, excluded = self.filtered
        self.out.json({"min_words": excluded, "counters": self.redaction[1]}, "exclusions.json")
        users = shared_users(corpora)
        if len(users) < 2:
            raise InsufficientUsersError(
                f"need >= 2 users on both platforms after exclusions, have {len(users)}"
            )
        return f"{len(users)} users on both platforms"

    def summary(self) -> str:
        """Per-platform word and post statistics, one progress line each.  The
        pipeline writes those of the corpora left after the ``min_words``
        exclusion; the subcommand, those of its whole cleaned corpus, and only
        with ``--out-dir``, where it also writes a CSV mirror."""
        stats = summary_stats(self.filtered[0] if self.pipeline else self.cleaned())
        if self.pipeline or self.args.out_dir:
            self.out.json(stats, "summary.json")
        if not self.pipeline and self.args.out_dir:
            rows = [
                {"platform": plat, "measure": measure, **block[measure]}
                for plat, block in sorted(stats.items())
                for measure in ("words", "posts")
            ]
            columns = ["platform", "measure", "median", "mean", "sd", "sd_defined"]
            self.out.csv(rows, columns, "summary.csv")
        spread = "{median:.0f}/{mean:.1f}/{sd:.1f}".format_map
        return "\n".join(
            f"{plat}: n={block['n_users']} words med/mean/sd = {spread(block['words'])} "
            f"posts med/mean/sd = {spread(block['posts'])}"
            for plat, block in sorted(stats.items())
        )

    def features(self) -> str:
        cfg, out = self.cfg, self.out
        excluded, table = self.filtered[1], self.table
        ngrams: dict = {}
        for key in table.rows:
            ngrams.setdefault(key[1], {})[key[0]] = table.row(key, cfg.model_orders)
        out.json(ngrams, "ngram_features.json")
        if cfg.dictionary:
            spec = DictionarySpec.from_file(cfg.dictionary)
            cats: dict = {}
            for key, row in zip(table.rows, table.categories(list(table.rows), spec).tolist()):
                cats.setdefault(key[1], {})[key[0]] = dict(zip(sorted(spec.categories), row))
            out.json(cats, "dictionary_features.json")
        if excluded:
            out.json({"min_words": excluded}, "exclusions.json")
        return f"wrote {out.path} (excluded {len(excluded)} users below {cfg.min_words} words)"

    def diff(self) -> str:
        """Differential n-gram (and, with a dictionary, category) analysis
        between the platforms: the diff tables and the word-cloud data."""
        cfg, out = self.cfg, self.out
        excluded, alpha = self.filtered[1], cfg.fdr_alpha
        ngram_rows = diff_ngrams(self.table, alpha=alpha, min_group_fraction=cfg.min_group_fraction)
        category_rows = None
        if cfg.dictionary:
            spec = DictionarySpec.from_file(cfg.dictionary)
            category_rows = diff_categories(self.table, spec, alpha=alpha)
        out.table(ngram_rows, NgramDiff, "ngram_diff")
        out.json([c.to_dict() for c in cloud_data(ngram_rows)], "cloud.json")
        if category_rows is not None:
            out.table(category_rows, CategoryDiff, "category_diff")
        n_sig = sum(r.q_significant for r in ngram_rows)
        return (
            f"{len(ngram_rows)} n-grams tested, {n_sig} FDR-significant "
            f"at alpha={alpha} ({len(excluded)} users excluded)"
        )

    def estimates(self) -> str:
        """Task-style evaluation of the pretrained lexicon models on both
        platforms: per-user estimates scored against self-reports by
        :func:`outcome_scoring`, with a bootstrap test on the facebook-vs-sms
        difference.  A model reads each of its terms at its own n-gram order
        from :attr:`table`; a term the table does not count reads 0."""
        outcomes, cfg = self.outcomes, self.cfg
        if not self.lexicon:
            return "no pretrained lexicon set"
        users = self.table.users
        report: dict = {"n_users": len(users), "models": {}}
        for name, model in sorted(self.lexicon.items()):
            labeled = labeled_users(users, outcomes, name)
            if labeled is None:
                continue
            keep, y = labeled
            metric = outcome_scoring(name)[1]
            entry = report["models"][name] = {"metric": metric}
            est, terms = {}, list(model.weights)
            try:
                for plat, M in zip(PLATFORMS, self.table.paired(terms)):
                    freqs = [dict(zip(terms, row)) for row in M[keep].tolist()]
                    est[plat] = np.array([apply_lexicon(model, f) for f in freqs])
                    entry[plat] = score(metric, est[plat], y)
                entry["bootstrap"] = compare_estimates(
                    metric, est["facebook"], est["sms"], y, cfg.bootstrap_iterations, cfg.seed
                )
            except DegenerateDataError as exc:
                entry["degenerate"] = str(exc)
        self.out.json(report, "lexicon_eval.json")
        return f"scored {len(report['models'])} pretrained models on {len(users)} users"

    def train(self) -> str:
        """One ridge lexicon model per outcome on one platform's n-grams: in
        the pipeline every outcome on facebook, in the subcommand the
        ``--outcome`` ones (default every one) on ``--platform``."""
        cfg, platform = self.cfg, "facebook" if self.pipeline else self.args.platform
        users, X_fb, X_sms, feature_names = self.model_tables
        outcomes, X = self.outcomes, X_fb if platform == "facebook" else X_sms
        models = self.trained
        wanted = None if self.pipeline else self.args.outcome
        columns = {n for row in outcomes.values() for n in row}
        if wanted and outcomes and (unknown := [n for n in wanted if n not in columns]):
            raise ValueError(f"train: outcome {unknown[0]!r} not in {cfg.outcomes}")
        for name in wanted or sorted({n for u in users for n in outcomes.get(u, {})}):
            labeled = labeled_users(users, outcomes, name)
            if labeled is None:
                skip = f"train: skipping {name}: fewer than {MIN_LABELED} labeled users\n"
                sys.stderr.write(skip)
                continue
            keep, y = labeled
            models[name] = ridge_fit(
                X[keep], y, cfg.ridge_alpha, feature_names=feature_names, outcome=name
            )
        file_name = self.out_file.name if self.out_file else f"trained_lexicon_{platform}.csv"
        dest = self.out.claim(file_name)
        save_lexicon_csv(models, dest)
        return f"wrote {len(models)} {platform} models to {dest}"

    def evaluate(self) -> str:
        """Four-cell cross-platform evaluation on the n-gram tables, every cell
        holding out the evaluated user.  When both embeddings files are set, the
        same evaluation runs on both platforms' embeddings reduced in one shared
        NMF basis of ``nmf_k`` components."""
        cfg, out, outcomes = self.cfg, self.out, self.outcomes
        users, X_fb, X_sms, _ = self.model_tables
        matrix_args = dict(alpha=cfg.ridge_alpha, bootstrap_iterations=cfg.bootstrap_iterations,
                           seed=cfg.seed)
        labels = {u: outcomes.get(u, {}) for u in users}
        report = cross_domain_matrix(X_fb, X_sms, users, labels, **matrix_args)
        out.json(report.to_dict(), "eval_report.json")
        columns = ("outcome", "cell", "metric", "value", "n", "bootstrap_comparison",
                   "bootstrap_delta", "bootstrap_p")
        rows = []  # one row per (outcome, cell)
        for name, ev in sorted(report.outcomes.items()):
            for cell in CELL_ORDER:
                res = ev.cells[cell]
                comp = next(c for c, pair in COMPARISONS.items() if cell in pair)
                boot = ev.bootstrap.get(comp, {})
                row = (name, cell, res.metric, res.value, res.n, comp)
                row += (boot.get("delta"), boot.get("p_value"))
                rows.append(dict(zip(columns, row)))
        out.csv(rows, columns, "eval_report.csv")
        progress = f"wrote {out.path} for {len(report.outcomes)} outcomes, n={len(users)} users"
        if not (cfg.embeddings_fb and cfg.embeddings_sms):
            return progress
        fb_emb, sms_emb = map(load_embeddings, (cfg.embeddings_fb, cfg.embeddings_sms))
        usable = [u for u in users if u in fb_emb and u in sms_emb]
        if len(usable) < 3:
            raise ValueError("fewer than 3 users have embeddings on both platforms")
        stacked = np.vstack([fb_emb[u] for u in usable] + [sms_emb[u] for u in usable])
        k = min(cfg.nmf_k, min(stacked.shape))
        result = nmf_reduce(stacked, k=k, iterations=cfg.nmf_iterations, seed=cfg.seed)
        n = len(usable)
        emb_report = cross_domain_matrix(
            result.W[:n], result.W[n:], usable, {u: outcomes.get(u, {}) for u in usable},
            **matrix_args,
        )
        info = {"k": k, "iterations": cfg.nmf_iterations, "n_users": n}
        info["reconstruction_error"] = result.reconstruction_error
        out.json({"nmf": info, **emb_report.to_dict()}, "embedding_eval.json")
        return progress

    def importance(self) -> str:
        """Weight-times-frequency importance of each model's features, with
        the shared users' mean frequencies on each platform, each term read
        at its own n-gram order from :attr:`table`; one table per model.  Only
        the models' terms are averaged; a term the table does not hold
        averages 0.  The pipeline ranks the pretrained models when a lexicon
        is set, else the trained ones; the subcommand, its ``--outcome``'s."""
        models = self.lexicon or self.trained
        if not self.pipeline:
            outcome = self.args.outcome
            if outcome not in models:
                raise ValueError(f"importance: outcome {outcome!r} not in {self.cfg.lexicon}")
            if not self.table.users:
                raise InsufficientUsersError("importance: no users present on both platforms")
            models = {outcome: models[outcome]}
        terms = sorted({t for model in models.values() for t in model.weights})
        freq = {}
        for plat, M in zip(PLATFORMS, self.table.paired(terms)):
            # each column's own mean: M.mean(axis=0) sums in another order
            freq[plat] = {t: float(M[:, j].mean()) for j, t in enumerate(terms)}
        progress = []
        for name in sorted(models):
            ranked = feature_importance(models[name], freq["facebook"], freq["sms"])
            self.out.table(ranked, ImportanceRow, f"importance_{name}")
            progress.append(f"ranked {len(ranked)} features for {name}")
        return ", ".join(progress)

    def manifest(self) -> str:
        path = self.out.claim("manifest.json")
        write_manifest(path, self.cfg.to_dict(), self.cfg.manifest_inputs(), __version__)
        return f"wrote {path}"


PIPELINE = ("redact", "corpora", "summary", "diff", "estimates", "train", "evaluate",
            "importance", "manifest")  # the pipeline's stages in order; not features
STAGES = {name: getattr(Run, name) for name in (*PIPELINE, "features")}  # name -> stage


def run_command(args) -> int:
    """Run ``args.command``: build its :class:`Run`, open its one report
    directory, and run the subcommand's stage, or every pipeline stage in
    order, printing each stage's progress line.  A pipeline failure is raised
    as :class:`PipelineError` naming the stage (``config`` before the first)."""
    pipeline = args.command == "pipeline"
    stage = "config"
    try:
        run = Run(args)
        with OutputDir(run.out_dir) as run.out:
            for stage in PIPELINE if pipeline else (args.command,):
                for line in STAGES[stage](run).splitlines():
                    print(f"pipeline[{stage}]: {line}" if pipeline else f"{stage}: {line}")
    except Exception as exc:
        if pipeline:
            raise PipelineError(f"stage {stage!r} failed: {exc}") from exc
        raise
    if pipeline:
        print(f"pipeline: complete, reports in {run.out.path}")
    return 0


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

    p = sub.add_parser("summary", help="per-platform word/post statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir")

    p = sub.add_parser("features", help="extract n-gram and dictionary features")
    p.add_argument("--corpus", **corpus)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("diff", help="differential language analysis between platforms")
    p.add_argument("--corpus", **corpus)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("train", help="fit ridge lexicon models on one platform")
    p.add_argument("--corpus", **corpus)
    p.add_argument("--platform", choices=["facebook", "sms"], default="facebook")
    p.add_argument("--outcome", action="append", help="outcome name (repeatable; default all)")
    p.add_argument("--out", required=True, help="lexicon CSV to write")

    p = sub.add_parser("evaluate", help="four-cell cross-platform model evaluation")
    p.add_argument("--corpus", **corpus)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("importance", help="weight-times-frequency feature importance")
    p.add_argument("--corpus", **corpus)
    p.add_argument("--outcome", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("pipeline", help="full deterministic run from a config file")
    p.add_argument("--config", required=True)

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
        return run_command(args)
    except (PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, PipelineError) else 2


if __name__ == "__main__":
    sys.exit(main())
