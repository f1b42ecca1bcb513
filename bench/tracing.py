"""Traced run: per-layer metrics timed from outside scrublang.

Spans are recorded by the benchmark around the public calls of each layer
(module), never inside the program:

* the CLI workloads run the real ``cli.main`` while the names ``cli`` calls
  (``redact_string``, ``diff_ngrams``, ``cross_domain_matrix``, ...) and the
  feature extractors it reaches (``features.tokenize``,
  ``UserCorpus.ngram_features``) are replaced by timing wrappers;
* detectors are timed by a ``DetectorSuite`` subclass whose regex and
  gazetteer matchers are wrapped, injected where the suite is chosen;
* the redactor is timed by a ``StreamRedactor`` subclass around its public
  ``ingest_event``, ``finish`` and ``finalize_entry``.

A span is ``[name, start_ns, end_ns, parent index, info]``; a parent index
lets nested calls (``provisional`` calling ``detect``, ``finalize_entry``
inside ``ingest_event``) count once.  Spans stay in memory and are written
out, gzipped JSON lines, when the run ends.  Each traced unit of work is
paired with an untraced one, which gives ``trace.overhead``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from unittest import mock

import regex

from scrublang import cli, features
from scrublang.detectors import PRIORITY_ENTITY, Detector, DetectorSuite, Gazetteer, default_suite
from scrublang.features import UserCorpus
from scrublang.redactor import StreamRedactor

import gen
import workloads
from speed import Speedometer

LAYERS = ("redactor", "detectors", "features", "analysis", "stats", "modeling", "io")
PER_LAYER = {
    "redactor.ingest_us_per_event": "us",
    "redactor.self_us_per_event": "us",
    "redactor.ingest_us_per_event_len_lt100": "us",
    "redactor.ingest_us_per_event_len_100_300": "us",
    "redactor.ingest_us_per_event_len_ge300": "us",
    "redactor.events_per_entry": "count",
    "redactor.snapshots_per_entry": "count",
    "redactor.entries_by_end.clear": "count",
    "redactor.entries_by_end.timeout": "count",
    "redactor.entries_by_end.end_of_stream": "count",
    "redactor.entries_by_end.structural": "count",
    "redactor.detector_calls_per_finalize": "count",
    "redactor.redact_string_chars_per_s": "char/s",
    "redactor.clean_corpus_s": "s",
    "detectors.detect_calls_per_event": "count",
    "detectors.partial_calls_per_event": "count",
    "detectors.detect_us_per_call": "us",
    "detectors.partial_us_per_call": "us",
    "detectors.regex_us_per_call": "us",
    "detectors.gazetteer_us_per_call": "us",
    "detectors.chars_scanned_per_event": "char",
    "detectors.nonempty_result_share": "ratio",
    "detectors.busy_share": "ratio",
    "detectors.gazetteer_us_per_call_at_30": "us",
    "detectors.gazetteer_us_per_call_at_300": "us",
    "detectors.gazetteer_us_per_call_at_3000": "us",
    "detectors.suite_build_ms": "ms",
    "features.load_corpus_s": "s",
    "features.filter_min_words_s": "s",
    "features.tokenize_us_per_doc": "us",
    "features.ngram_features_ms_per_user": "ms",
    "features.ngram_table_s": "s",
    "analysis.summary_s": "s",
    "analysis.diff_ngrams_s": "s",
    "analysis.diff_ngrams_ms_per_feature": "ms",
    "analysis.features_tested": "count",
    "analysis.p_fallback_share": "ratio",
    "analysis.degenerate_share": "ratio",
    "analysis.diff_categories_s": "s",
    "modeling.train_s": "s",
    "modeling.cross_domain_matrix_s": "s",
    "modeling.cross_domain_ms_per_user": "ms",
    "modeling.features_in_model": "count",
    "modeling.nmf_s": "s",
    "modeling.apply_lexicon_s": "s",
    "modeling.importance_s": "s",
    "io.load_inputs_s": "s",
    "io.write_reports_s": "s",
    "cli.unaccounted_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}
GAZETTEER_SIZES = (30, 300, 3000)
GAZETTEER_SAMPLE = 40


class Tracer:
    """In-memory spans of one traced unit of work, plus call counts and
    times of the individual detector matchers (too many for a span each)."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.matchers = {"regex": [0, 0], "gazetteer": [0, 0]}  # calls, ns
        self.stream_log: list[tuple] = []  # (event or None for finish(), entries)

    def call(self, name: str, fn, *args, note=None, **kwargs):
        """``fn(*args, **kwargs)`` inside a span; ``note(result, *args,
        **kwargs)`` may attach a dict of facts, computed after the span ends."""
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()
        if note is not None:
            rec[4] = note(result, *args, **kwargs)
        return result

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, note=note, **kwargs)

        return traced

    def timed_matcher(self, kind: str, fn):
        acc = self.matchers[kind]
        clock = time.perf_counter_ns

        def timed(text):
            start = clock()
            out = fn(text)
            acc[1] += clock() - start
            acc[0] += 1
            return out

        return timed

    def dump(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                rec = {"run": self.run_id, "id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent}
                fh.write(json.dumps({**rec, **(info or {})}) + "\n")


def _scan_note(spans, text):
    return {"chars": len(text), "hit": bool(spans)}


class TimingSuite(DetectorSuite):
    """``base``'s detectors with timed matchers, and a span per suite call."""

    def __init__(self, base: DetectorSuite, tracer: Tracer) -> None:
        def timed(det: Detector) -> Detector:
            kind = "gazetteer" if det.priority == PRIORITY_ENTITY else "regex"
            partial = det.partial_matcher and tracer.timed_matcher(kind, det.partial_matcher)
            return Detector(det.name, det.priority, tracer.timed_matcher(kind, det.matcher), partial)

        super().__init__(timed(d) for d in base.detectors)
        self.tracer = tracer

    def detect(self, text):
        return self.tracer.call("detectors.detect", super().detect, text, note=_scan_note)

    def partial_at_end(self, text):
        return self.tracer.call("detectors.partial_at_end", super().partial_at_end, text, note=_scan_note)

    def provisional(self, text):
        return self.tracer.call("detectors.provisional", super().provisional, text)


def traced_redactor(tracer: Tracer) -> type[StreamRedactor]:
    """A ``StreamRedactor`` whose public entry points record spans and log
    what they emitted."""

    def ingest_note(entries, event):
        tracer.stream_log.append((event, entries))
        return {"len": len(event.current_text), "emitted": len(entries)}

    def finish_note(entries):
        tracer.stream_log.append((None, entries))
        return {"emitted": len(entries)}

    class TracedRedactor(StreamRedactor):
        def ingest_event(self, event):
            return tracer.call("redactor.ingest", super().ingest_event, event, note=ingest_note)

        def finish(self):
            return tracer.call("redactor.finish", super().finish, note=finish_note)

        def finalize_entry(self, buf):
            return tracer.call("redactor.finalize", super().finalize_entry, buf)

    return TracedRedactor


# names cli calls, by layer; each is replaced by a timing wrapper
LAYER_CALLS = (
    (cli, "redact_string", "redactor.redact_string"),
    (cli, "load_corpus_jsonl", "features.load_corpus_jsonl"),
    (cli, "filter_min_words", "features.filter_min_words"),
    (cli, "group_frequency_filter", "features.group_frequency_filter"),
    (features, "tokenize", "features.tokenize"),
    (UserCorpus, "ngram_features", "features.ngram_features"),
    (UserCorpus, "dictionary_features", "features.dictionary_features"),
    (cli, "summary_stats", "analysis.summary_stats"),
    (cli, "diff_ngrams", "analysis.diff_ngrams"),
    (cli, "diff_categories", "analysis.diff_categories"),
    (cli, "cloud_data", "analysis.cloud_data"),
    (cli, "ridge_fit", "modeling.ridge_fit"),
    (cli, "cross_domain_matrix", "modeling.cross_domain_matrix"),
    (cli, "nmf_reduce", "modeling.nmf_reduce"),
    (cli, "apply_lexicon", "modeling.apply_lexicon"),
    (cli, "feature_importance", "modeling.feature_importance"),
    (cli, "bootstrap_accuracy_diff", "modeling.bootstrap_accuracy_diff"),
    (cli, "bootstrap_corr_diff", "stats.bootstrap_corr_diff"),
    (cli, "pearson_r", "stats.pearson_r"),
    (cli, "load_outcomes_csv", "io.load_outcomes_csv"),
    (cli, "load_lexicon_csv", "io.load_lexicon_csv"),
    (cli, "load_embeddings", "io.load_embeddings"),
    (cli, "write_json", "io.write_json"),
    (cli, "write_csv", "io.write_csv"),
    (cli, "save_lexicon_csv", "io.save_lexicon_csv"),
    (cli, "write_manifest", "io.write_manifest"),
)
NOTES = {
    "redactor.redact_string": lambda result, text, *a, **k: {"chars": len(text)},
    "analysis.diff_ngrams": lambda rows, *a, **k: {
        "rows": len(rows),
        "fallback": sum(r.p_fallback is not None for r in rows),
        "degenerate": sum(r.degenerate for r in rows),
    },
    "modeling.cross_domain_matrix": lambda report, fb, *a, **k: {
        "users": len(fb),
        "features": len(k.get("feature_names") or ()),
    },
}


@contextlib.contextmanager
def interpose(tracer: Tracer):
    """Route ``cli``'s layer calls, its detector suite and its redactor
    through ``tracer`` for the duration of the block."""
    suite = TimingSuite(default_suite(), tracer)
    with contextlib.ExitStack() as stack:
        for owner, attr, name in LAYER_CALLS:
            wrapper = tracer.wrap(name, getattr(owner, attr), NOTES.get(name))
            stack.enter_context(mock.patch.object(owner, attr, wrapper))
        stack.enter_context(mock.patch.object(cli, "default_suite", lambda: suite))
        stack.enter_context(mock.patch.object(cli, "StreamRedactor", traced_redactor(tracer)))
        yield


# -- per-layer metrics --------------------------------------------------------


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, wall_s: float, untraced_wall_s: float, timeout_ms: int) -> dict[str, float]:
    spans = tr.spans
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0] * len(spans)
    # ancestry flags, filled in index order because a parent precedes its children
    in_ingest = [False] * len(spans)
    in_stream = [False] * len(spans)
    in_finalize = [False] * len(spans)
    in_redactor = [False] * len(spans)
    det_nested = [False] * len(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, (name, _, _, parent, _) in enumerate(spans):
        by_name[name].append(i)
        if parent < 0:
            continue
        child[parent] += dur[i]
        pname = spans[parent][0]
        in_ingest[i] = in_ingest[parent] or pname == "redactor.ingest"
        in_stream[i] = in_stream[parent] or pname in ("redactor.ingest", "redactor.finish")
        in_finalize[i] = in_finalize[parent] or pname == "redactor.finalize"
        in_redactor[i] = in_redactor[parent] or pname in ("redactor.ingest", "redactor.finish", "redactor.redact_string")
        det_nested[i] = det_nested[parent] or pname.startswith("detectors.")

    def total_s(name: str) -> float:
        return sum(dur[i] for i in by_name[name]) / 1e9

    def mean_ns(name: str) -> float:
        return _ratio(sum(dur[i] for i in by_name[name]), len(by_name[name]))

    def info_sum(name: str, key: str) -> float:
        return sum(spans[i][4][key] for i in by_name[name])

    m: dict[str, float] = {}
    # redactor
    ingest = by_name["redactor.ingest"]
    n_events = len(ingest)
    ingest_ns = sum(dur[i] for i in ingest)
    det_calls = by_name["detectors.detect"] + by_name["detectors.partial_at_end"]
    det_top = [i for n in ("detectors.detect", "detectors.partial_at_end", "detectors.provisional") for i in by_name[n] if not det_nested[i]]
    m["redactor.ingest_us_per_event"] = _ratio(ingest_ns, n_events) / 1e3
    det_in_ingest = sum(dur[i] for i in det_top if in_ingest[i])
    m["redactor.self_us_per_event"] = _ratio(ingest_ns - det_in_ingest, n_events) / 1e3
    for label, lo, hi in (("lt100", 0, 100), ("100_300", 100, 300), ("ge300", 300, 1 << 30)):
        sel = [dur[i] for i in ingest if lo <= spans[i][4]["len"] < hi]
        m[f"redactor.ingest_us_per_event_len_{label}"] = _ratio(sum(sel), len(sel)) / 1e3
    events: list = []
    emitted: list = []
    for ev, out in tr.stream_log:
        if ev is None:
            emitted.append((None, out, 0))
        else:
            if out:
                emitted.append((len(events), out, 0))
            events.append(ev)
    kinds = workloads.end_kinds(events, emitted, timeout_ms)
    m["redactor.events_per_entry"] = _ratio(n_events, len(kinds))
    m["redactor.snapshots_per_entry"] = _ratio(sum(len(e.snapshots) for e, _ in kinds), len(kinds))
    for end in ("clear", "timeout", "end_of_stream", "structural"):
        m[f"redactor.entries_by_end.{end}"] = sum(k == end for _, k in kinds)
    m["redactor.detector_calls_per_finalize"] = _ratio(sum(in_finalize[i] for i in det_calls), len(by_name["redactor.finalize"]))
    clean_s = total_s("redactor.redact_string")
    m["redactor.redact_string_chars_per_s"] = _ratio(info_sum("redactor.redact_string", "chars"), clean_s)
    m["redactor.clean_corpus_s"] = clean_s
    # detectors
    for short, name in (("detect", "detectors.detect"), ("partial", "detectors.partial_at_end")):
        m[f"detectors.{short}_calls_per_event"] = _ratio(sum(in_stream[i] for i in by_name[name]), n_events)
        m[f"detectors.{short}_us_per_call"] = mean_ns(name) / 1e3
    for kind in ("regex", "gazetteer"):
        calls, ns = tr.matchers[kind]
        m[f"detectors.{kind}_us_per_call"] = _ratio(ns, calls) / 1e3
    m["detectors.chars_scanned_per_event"] = _ratio(sum(spans[i][4]["chars"] for i in det_calls if in_stream[i]), n_events)
    m["detectors.nonempty_result_share"] = _ratio(sum(spans[i][4]["hit"] for i in det_calls), len(det_calls))
    redactor_ns = sum(dur[i] for n in ("redactor.ingest", "redactor.finish", "redactor.redact_string") for i in by_name[n])
    m["detectors.busy_share"] = _ratio(sum(dur[i] for i in det_top if in_redactor[i]), redactor_ns)
    # features
    m["features.load_corpus_s"] = total_s("features.load_corpus_jsonl")
    m["features.filter_min_words_s"] = total_s("features.filter_min_words")
    m["features.tokenize_us_per_doc"] = mean_ns("features.tokenize") / 1e3
    m["features.ngram_features_ms_per_user"] = mean_ns("features.ngram_features") / 1e6
    m["features.ngram_table_s"] = total_s("features.ngram_features")
    # analysis
    rows = info_sum("analysis.diff_ngrams", "rows")
    m["analysis.summary_s"] = total_s("analysis.summary_stats")
    m["analysis.diff_ngrams_s"] = total_s("analysis.diff_ngrams")
    m["analysis.diff_ngrams_ms_per_feature"] = _ratio(m["analysis.diff_ngrams_s"] * 1e3, rows)
    m["analysis.features_tested"] = rows
    m["analysis.p_fallback_share"] = _ratio(info_sum("analysis.diff_ngrams", "fallback"), rows)
    m["analysis.degenerate_share"] = _ratio(info_sum("analysis.diff_ngrams", "degenerate"), rows)
    m["analysis.diff_categories_s"] = total_s("analysis.diff_categories")
    # modeling
    cdm = by_name["modeling.cross_domain_matrix"]
    m["modeling.train_s"] = total_s("modeling.ridge_fit")
    m["modeling.cross_domain_matrix_s"] = total_s("modeling.cross_domain_matrix")
    m["modeling.cross_domain_ms_per_user"] = _ratio(m["modeling.cross_domain_matrix_s"] * 1e3, info_sum("modeling.cross_domain_matrix", "users"))
    m["modeling.features_in_model"] = max((spans[i][4]["features"] for i in cdm), default=0)
    m["modeling.nmf_s"] = total_s("modeling.nmf_reduce")
    m["modeling.apply_lexicon_s"] = total_s("modeling.apply_lexicon")
    m["modeling.importance_s"] = total_s("modeling.feature_importance")
    # io
    m["io.load_inputs_s"] = sum(total_s(n) for n in by_name if n.startswith("io.load_"))
    m["io.write_reports_s"] = sum(total_s(n) for n in by_name if n.startswith(("io.write_", "io.save_")))
    # layer self time, and what the spans cover
    self_ns = dict.fromkeys(LAYERS, 0)
    for i, (name, *_rest) in enumerate(spans):
        self_ns[name.split(".", 1)[0]] += dur[i] - child[i]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_ns[layer] / 1e9
    covered_s = sum(dur[i] for i, s in enumerate(spans) if s[3] < 0) / 1e9
    m["cli.unaccounted_s"] = wall_s - covered_s
    m["trace.coverage"] = _ratio(covered_s, wall_s)
    m["trace.overhead"] = _ratio(wall_s, untraced_wall_s) - 1
    return m


# -- probes outside the traced units ------------------------------------------


def suite_build_ms(ctx: workloads.Context, repeats: int = 3) -> float:
    """Catalogue compile plus gazetteer load, with the regex cache cleared."""
    gaz = ctx.dir / "gazetteer.tsv" if ctx.workload == "keystroke-stream" else None
    times = []
    for _ in range(repeats):
        regex.purge()
        start = time.perf_counter_ns()
        DetectorSuite.default(gazetteer=Gazetteer.from_file(gaz) if gaz else None)
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1e6


def gazetteer_curve(ctx: workloads.Context) -> dict[str, float]:
    """``find_entities`` plus ``find_partial_entities`` on a fixed sample of
    the log's own snapshot texts, at each gazetteer size."""
    names = gen.person_names(max(GAZETTEER_SIZES), ctx.expect["seed"])
    texts = [ev.current_text for ev in ctx.events if ev.current_text and not (ev.is_password or ev.is_phone_field)]
    sample = texts[:: max(1, len(texts) // GAZETTEER_SAMPLE)][:GAZETTEER_SAMPLE]
    out = {}
    for n in GAZETTEER_SIZES:
        gaz = Gazetteer({"person": names[:n]})
        start = time.perf_counter_ns()
        for text in sample:
            gaz.find_entities(text)
            gaz.find_partial_entities(text)
        out[f"detectors.gazetteer_us_per_call_at_{n}"] = (time.perf_counter_ns() - start) / 1e3 / len(sample)
    return out


# -- traced measurement -------------------------------------------------------


def _units(ctx: workloads.Context, meter: Speedometer):
    """(untraced unit, traced unit) of the workload."""
    if ctx.workload == "keystroke-stream":
        def plain():
            return workloads.stream_unit(ctx, meter)[1]

        def traced(tr):
            return workloads.stream_unit(ctx, meter, traced_redactor(tr), TimingSuite(ctx.suite, tr))[1]

        return plain, traced
    unit = workloads.pipeline_unit if ctx.workload == "cohort-pipeline" else workloads.analysis_unit

    def traced_cli(tr):
        # no speed probe may land inside a span; measure() gives the unit the
        # factor of the untraced unit just before it
        meter.busy = True
        try:
            with interpose(tr):
                return unit(ctx, meter)
        finally:
            meter.busy = False
            meter.catch_up()

    return (lambda: unit(ctx, meter)), traced_cli


def _at_reference_speed(m: dict[str, float], factor: float) -> dict[str, float]:
    """Times divided by the unit's speed factor, rates multiplied."""
    scale = {"s": 1 / factor, "ms": 1 / factor, "us": 1 / factor, "char/s": factor}
    return {k: v * scale.get(PER_LAYER[k], 1.0) for k, v in m.items()}


def measure(ctx: workloads.Context, seconds: float, trace_file: Path) -> dict:
    """Alternate untraced and traced units for about ``seconds``; per-layer
    metrics are medians over the traced units."""
    start = time.perf_counter()
    probes = {f"detectors.gazetteer_us_per_call_at_{n}": 0.0 for n in GAZETTEER_SIZES}
    if ctx.workload == "keystroke-stream":
        probes = gazetteer_curve(ctx)
    probes["detectors.suite_build_ms"] = suite_build_ms(ctx)
    timeout_ms = ctx.config.timeout_ms if ctx.config else ctx.expect.get("timeout_ms", 0)
    run_ids = itertools.count()
    with Speedometer() as meter:
        plain, traced = _units(ctx, meter)

        def pair():
            tr = Tracer(run_id=next(run_ids))
            p, t = plain(), traced(tr)
            if ctx.workload != "keystroke-stream":
                t.factor = p.factor  # no probe ran inside the traced CLI unit
            return p, t, tr

        pairs = workloads.repeat(pair, seconds, 1, start)
    pairs[0][2].dump(trace_file)
    per_run = [
        _at_reference_speed(layer_metrics(tr, t.wall_s, p.wall_s * t.factor / p.factor, timeout_ms), t.factor)
        for p, t, tr in pairs
    ]
    metrics = {k: statistics.median(run[k] for run in per_run) for k in per_run[0]}
    metrics.update(probes)
    outcomes = [o for p, t, _ in pairs for o in (p, t)]
    problems = [x for o in outcomes for x in o.problems]
    failed = sum(o.failed for o in outcomes)
    if len({o.digest for o in outcomes}) != 1:
        problems.append("traced outputs differ from untraced outputs")
        failed += 1
    return {
        "metrics": {k: metrics[k] for k in PER_LAYER},
        "units": PER_LAYER,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "info": {
            "traced_units": len(pairs),
            "speed_factors": [[p.factor, t.factor] for p, t, _ in pairs],
            "spans": len(pairs[0][2].spans),
            "trace_file": str(trace_file.name),
            "versions": workloads.versions(),
            "problems": problems[:10],
        },
    }
