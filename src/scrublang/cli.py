"""Command-line entry points.

The study is one chain of stages, named in ``PIPELINE`` in order: redact the
keystroke log -> assemble both platforms' corpora (the same cleaning for both,
then the ``min_words`` exclusion) -> summary -> differential language analysis
(diff) -> pretrained-lexicon estimates -> train -> cross-domain evaluation ->
feature importance -> a manifest of seeds, thresholds and input digests.
``STAGES`` maps each name, and ``features``, to a method of :class:`Run`;
:func:`run_command` runs the subcommand's stage, or every ``pipeline`` stage
in order, and given the same settings both write byte-identical reports.

Every command carries its settings, every input it names among them, in one
:class:`RunConfig` checked before any work: set from its flags by
:func:`run_config`, or read by ``pipeline`` from a ``key = value`` config
file that its flags override.  A failed command leaves its output directory
as it found it, but for a report written through a symlink, pipe or device.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from contextlib import AbstractContextManager
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import groupby, takewhile
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
    """A pipeline stage failed; no staged report was published."""


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
        file or from flags, before any work starts.  An input must exist and
        not be a directory; a pipe may stand in for a file."""
        inputs = {key: Path(v) for key in _INPUT_KEYS if (v := getattr(self, key)) is not None}
        for key, path in inputs.items():
            if not path.exists():
                raise FileNotFoundError(f"{key}: no such file {path}")
            if path.is_dir():
                raise IsADirectoryError(f"{key}: {path} is a directory")
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
_OPTIONS = {  # each subcommand's options in --help order: RunConfig fields, and its own by flag
    "redact": ("keystroke_log", "--out", "keep_snapshots", "timeout_ms", "apps", *_SUITE),
    "summary": ("facebook_corpus", "output_dir", *_SUITE),
    "features": ("facebook_corpus", "output_dir", *_CORPUS, "dictionary", "model_orders"),
    "diff": ("facebook_corpus", "output_dir", *_CORPUS, "dictionary", "fdr_alpha",
             "min_group_fraction"),
    "train": ("facebook_corpus", "--platform", "--outcome", "--out", *_CORPUS, *_MODEL),
    "evaluate": ("facebook_corpus", "output_dir", *_CORPUS, *_MODEL, "bootstrap_iterations",
                 "seed", "embeddings_fb", "embeddings_sms", "nmf_k", "nmf_iterations"),
    "importance": ("facebook_corpus", "--outcome", "output_dir", *_CORPUS, "lexicon"),
    "pipeline": ("--config", "seed", "fdr_alpha", "min_words"),
}
_COMMANDS = {  # subcommand -> its help line, in --help order
    "redact": "sanitize a keystroke log into entries",
    "summary": "per-platform word/post statistics",
    "features": "extract n-gram and dictionary features",
    "diff": "differential language analysis between platforms",
    "train": "fit ridge lexicon models on one platform",
    "evaluate": "four-cell cross-platform model evaluation",
    "importance": "weight-times-frequency feature importance",
    "pipeline": "full deterministic run from a config file",
}
_FLAG_NAMES = {"keystroke_log": "in", "facebook_corpus": "corpus", "output_dir": "out_dir",
               "model_orders": "orders", "fdr_alpha": "alpha", "ridge_alpha": "alpha"}
_FLAG_ARGS = {  # help texts and exceptions, by field or by (command, field); own options' by flag
    "keystroke_log": dict(required=True, help="keystroke JSONL log", metavar="INFILE"),
    "facebook_corpus": dict(required=True, help="JSONL corpus {user_id, platform, text}"),
    ("summary", "facebook_corpus"): dict(help=None),
    "output_dir": dict(required=True, default=None),
    ("summary", "output_dir"): dict(required=False),  # without it, summary writes nothing
    "gazetteer": dict(help="gazetteer TSV (label<TAB>surface form)"),
    "catalogue": dict(help="regex catalogue TSV override"),
    "outcomes": dict(required=True, help="outcomes CSV"),
    "lexicon": dict(required=True, help="lexicon weight CSV"),
    "fdr_alpha": dict(help="FDR level"),
    "ridge_alpha": dict(help="ridge penalty"),
    "model_orders": dict(help="n-gram orders"),
    "apps": dict(help="comma-separated app allow-list"),
    ("pipeline", "fdr_alpha"): dict(help="override FDR alpha"),
    ("redact", "--out"): dict(required=True, help="sanitized entries JSONL", metavar="OUTFILE"),
    ("train", "--platform"): dict(choices=["facebook", "sms"], default="facebook"),
    ("train", "--outcome"): dict(action="append", help="outcome name (repeatable; default all)"),
    ("train", "--out"): dict(required=True, help="lexicon CSV to write"),
    ("importance", "--outcome"): dict(action="append", required=True),
    ("pipeline", "--config"): dict(required=True),
}


def run_config(args, command: str, base: RunConfig | None = None) -> RunConfig:
    """``command``'s settings: ``base`` (the defaults if None) with each of
    ``command``'s settings flags (the fields among its ``_OPTIONS``), its input
    paths among them, set on its field; a flag left unset (None) keeps the
    base value."""
    flags = {name: getattr(args, name) for name in _OPTIONS[command] if name in _TYPES}
    return replace(base or RunConfig(), **{k: v for k, v in flags.items() if v is not None})


class OutputDir(AbstractContextManager):
    """A report directory changed all at once or not at all: each report is
    written into a staging directory inside it, made on the first write, and
    on leaving its ``with`` block moved into place, or, if the block raised,
    not, and each directory it made is removed if empty.  A report whose name
    is a symlink, a pipe or a device is written straight through it."""

    def __init__(self, path: str | Path) -> None:
        self.path, self.stage, self.made = Path(path), None, []  # made: innermost first

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.stage is None:  # nothing staged, nothing made
            return
        try:
            for staged in self.stage.iterdir() if exc_type is None else ():
                os.replace(staged, self.path / staged.name)
        finally:
            shutil.rmtree(self.stage)
            for made in takewhile(lambda d: not any(d.iterdir()), self.made):
                made.rmdir()  # empty: no report was published

    def claim(self, name: str) -> Path:
        """Where to write report ``name``: staged, unless its name holds no regular file."""
        target = self.path / name
        if target.is_symlink() or target.exists() and not target.is_file():
            return target  # a directory there fails the write
        if self.stage is None:
            self.made = list(takewhile(lambda p: not p.exists(), (self.path, *self.path.parents)))
            self.path.mkdir(parents=True, exist_ok=True)
            self.stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=self.path))
        return self.stage / name

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
    """One command's settings, options and report directory; its stages, each
    of which writes its reports and returns its progress line; and the inputs
    that two or more stages read, each built on first use and only once."""

    def __init__(self, args) -> None:
        command = args.command
        base = RunConfig.from_file(args.config) if command == "pipeline" else None
        self.cfg = cfg = run_config(args, command, base)
        if command == "pipeline" and None in (cfg.keystroke_log, cfg.facebook_corpus, cfg.outcomes):
            raise ValueError("config must set keystroke_log, facebook_corpus, outcomes")
        self.stages = PIPELINE if command == "pipeline" else (command,)
        out_file = getattr(args, "out", None)  # redact's entries, train's lexicon
        self.out_name = out_file and Path(out_file).name
        self.out = OutputDir(Path(out_file).parent if out_file else cfg.output_dir)
        self.platform = getattr(args, "platform", "facebook")  # train's
        self.wanted = getattr(args, "outcome", None)  # train's (None: every one), importance's
        self.summary_csv = command == "summary" and args.output_dir is not None
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
        redactor = StreamRedactor(
            suite=self.suite, timeout_ms=cfg.timeout_ms, keep_snapshots=cfg.keep_snapshots
        )
        counters = {"events": 0, "apps_filtered": 0, "out_of_order": 0}
        entries = []
        for _, event in json_lines(cfg.keystroke_log, "keystroke event", KeystrokeEvent.from_json):
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
        pre-redacted corpora pass through unchanged).  When a keystroke log is
        set, the sms corpora come from it, and ``facebook_corpus`` may hold
        only facebook records."""
        cfg = self.cfg
        platforms = ("facebook",) if cfg.keystroke_log else PLATFORMS
        corpora = {
            key: replace(c, documents=[redact_string(d, self.suite).text for d in c.documents])
            for key, c in load_corpus_jsonl(cfg.facebook_corpus, platforms).items()
        }
        if cfg.keystroke_log:  # one sms corpus per user, of its messages in typing order
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
        diff_orders = DIFF_ORDERS if "diff" in self.stages else ()
        orders = {*self.cfg.model_orders, *((1,) if self.cfg.dictionary else ()), *diff_orders}
        return count_table(self.filtered[0], orders)

    @cached_property
    def model_tables(self) -> tuple[list[str], np.ndarray, np.ndarray, list[str]]:
        """(shared users, their facebook and sms frequency matrices, features)
        of the model orders; the features pass the group frequency filter
        and hold no redaction placeholder (those n-grams are display only)."""
        cfg, table = self.cfg, self.table
        names = table.paired_features(cfg.model_orders, cfg.min_group_fraction)
        features = [f for f in names if not PLACEHOLDER_RE.search(f)]
        return table.users, *table.paired(features), features

    def redact(self) -> str:
        entries, counters = self.redaction
        self.out.jsonl(entries, self.out_name or "entries.jsonl")
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
        """Per-platform word and post statistics, one progress line each.
        After the ``corpora`` stage they are those of the corpora it left,
        written as ``summary.json``; the subcommand's are those of its whole
        cleaned corpus, written only with ``--out-dir``, with a CSV mirror."""
        after_corpora = "corpora" in self.stages
        stats = summary_stats(self.filtered[0] if after_corpora else self.cleaned())
        if after_corpora or self.summary_csv:
            self.out.json(stats, "summary.json")
        if self.summary_csv:
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
        cfg, platform, wanted = self.cfg, self.platform, self.wanted
        users, X_fb, X_sms, feature_names = self.model_tables
        outcomes, X = self.outcomes, X_fb if platform == "facebook" else X_sms
        models = self.trained
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
        name = self.out_name or f"trained_lexicon_{platform}.csv"
        save_lexicon_csv(models, self.out.claim(name))
        return f"wrote {len(models)} {platform} models to {self.out.path / name}"

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
        is set, else the trained ones; the subcommand, its ``--outcome`` ones."""
        models = self.lexicon or self.trained
        if self.wanted:  # the subcommand's --outcome
            if unknown := [n for n in self.wanted if n not in models]:
                raise ValueError(f"importance: outcome {unknown[0]!r} not in {self.cfg.lexicon}")
            models = {n: models[n] for n in self.wanted}
        if not self.table.users:
            raise InsufficientUsersError("importance: no users present on both platforms")
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
        staged = self.out.claim("manifest.json")
        write_manifest(staged, self.cfg.to_dict(), self.cfg.manifest_inputs(), __version__)
        return f"wrote {self.out.path / staged.name}"


PIPELINE = ("redact", "corpora", "summary", "diff", "estimates", "train", "evaluate",
            "importance", "manifest")  # the pipeline's stages in order; not features
STAGES = {name: getattr(Run, name) for name in (*PIPELINE, "features")}  # name -> stage


def run_command(args) -> int:
    """Run ``args.command``'s stages in order, printing each one's progress
    line, then publish its reports; a pipeline failure is raised as
    :class:`PipelineError` naming the stage (``config`` before the first)."""
    pipeline = args.command == "pipeline"
    stage = "config"
    try:
        run = Run(args)
        with run.out:
            for stage in run.stages:
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
    # A settings flag is --<field> with dashes (or its _FLAG_NAMES name), stored
    # under the field's name and shown by the flag's, parsed as the config file
    # parses the field (a bool is a switch), with the field's default;
    # pipeline's default to None, which keeps its config file's value.
    for command, text in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name in _OPTIONS[command]:
            if name not in _TYPES:  # the command's own option
                p.add_argument(name, **_FLAG_ARGS[command, name])
                continue
            flag = _FLAG_NAMES.get(name, name)
            value = dict(type=_PARSERS.get(_TYPES[name]), metavar=flag.upper())
            kwargs = dict(action="store_true") if _TYPES[name] == "bool" else value
            kwargs["default"] = None if command == "pipeline" else getattr(RunConfig, name)
            kwargs.update(_FLAG_ARGS.get(name, {}), **_FLAG_ARGS.get((command, name), {}))
            p.add_argument("--" + flag.replace("_", "-"), dest=name, **kwargs)
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
