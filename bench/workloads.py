"""Set-up, untraced measurement and correctness checks of the three workloads.

Each workload has one *unit* of work whose wall time is ``wall_s``:

* ``cohort-pipeline``: one ``scrublang pipeline`` run through ``cli.main``;
* ``keystroke-stream``: one closed-loop pass of the whole keystroke log
  through ``StreamRedactor(keep_snapshots=True)``;
* ``analysis-wide``: ``scrublang diff`` followed by ``scrublang evaluate``.

The streaming metrics (``events_per_s``, ``event_latency_*``,
``entry_latency_*``) come from a closed loop over the workload's redaction
input: the keystroke log with snapshots on (keystroke-stream), the cohort's
own log with the shipped config, snapshots off (cohort-pipeline), and the
corpus documents through ``redact_string`` (analysis-wide, where an event is
one document and an entry is one user's documents on one platform).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import regex
import scipy

from scrublang import cli, synth
from scrublang.detectors import DetectorSuite, Gazetteer, default_suite
from scrublang.features import load_corpus_jsonl
from scrublang.modeling import CELL_ORDER
from scrublang.redactor import KeystrokeEvent, RedactionError, StreamRedactor, redact_string

from speed import Speedometer

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "event_latency_p50_us": "us",
    "event_latency_p99_us": "us",
    "entry_latency_p50_ms": "ms",
    "entry_latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# reports the shipped fixture config must produce (its lexicon models depression only)
PIPELINE_REPORTS = (
    "entries.jsonl",
    "exclusions.json",
    "summary.json",
    "ngram_diff.json",
    "ngram_diff.csv",
    "cloud.json",
    "category_diff.json",
    "category_diff.csv",
    "lexicon_eval.json",
    "trained_lexicon_facebook.csv",
    "eval_report.json",
    "eval_report.csv",
    "embedding_eval.json",
    "importance_depression.json",
    "importance_depression.csv",
    "manifest.json",
)
# the manifest records absolute input paths, so it differs between checkouts
UNDIGESTED = frozenset({"manifest.json"})
SYNTH_PII = synth.PHONE_POOL + synth.EMAIL_POOL + synth.SSN_POOL


@dataclass
class Context:
    """Everything set-up produces: the suite, the parsed inputs and the
    generator's expectation."""

    workload: str
    dir: Path
    suite: DetectorSuite
    expect: dict
    events: list[KeystrokeEvent] = field(default_factory=list)
    corpora: dict = field(default_factory=dict)
    config: cli.RunConfig | None = None


def read_events(path: Path) -> list[KeystrokeEvent]:
    with open(path, encoding="utf-8") as fh:
        return [KeystrokeEvent.from_json(line) for line in fh if line.strip()]


def setup(workload: str, d: Path) -> Context:
    """Build the detector suite and read the generated inputs."""
    expect = json.loads((d / "expect.json").read_text(encoding="utf-8"))
    if workload == "keystroke-stream":
        suite = DetectorSuite.default(gazetteer=Gazetteer.from_file(d / "gazetteer.tsv"))
        return Context(workload, d, suite, expect, events=read_events(d / "keystrokes.jsonl"))
    suite = default_suite()  # also warms the shared suite the CLI uses
    if workload == "cohort-pipeline":
        config = cli.RunConfig.from_file(d / expect["config"])
        return Context(workload, d, suite, expect, events=read_events(Path(config.keystroke_log)), config=config)
    if workload == "analysis-wide":
        return Context(workload, d, suite, expect, corpora=load_corpus_jsonl(d / "corpus.jsonl"))
    raise ValueError(f"unknown workload {workload!r}")


# -- closed-loop streaming ----------------------------------------------------


@dataclass
class Pass:
    """One closed-loop pass: per-event call latencies, the calls that emitted
    entries as (event index or None for finish(), entries, ns), the events
    the redactor refused, and the pass's speed factor (see ``speed.py``)."""

    wall_s: float
    event_ns: list[int]
    emitted: list[tuple[int | None, list, int]]
    errors: list[str] = field(default_factory=list)
    factor: float = 1.0
    event_factor: list[float] = field(default_factory=list)  # one per event_ns
    emit_factor: list[float] = field(default_factory=list)  # one per emitted

    @property
    def entries(self) -> list:
        return [e for _, entries, _ in self.emitted for e in entries]

    def entry_ns(self, scaled: bool = False) -> list[float]:
        # finish() flushes every open stream in one call, so only entries
        # emitted by ingest_event get a latency of their own
        return [
            ns / (f if scaled else 1.0)
            for (i, entries, ns), f in zip(self.emitted, self.emit_factor)
            if i is not None
            for _ in entries
        ]


def feed(
    redactor: StreamRedactor,
    events: list[KeystrokeEvent],
    meter: Speedometer,
    apps: tuple[str, ...] = (),
) -> Pass:
    """Push every event through ``redactor`` one call at a time (one feeder,
    closed loop), then flush with ``finish()``; skips apps outside ``apps``
    as ``run_redaction`` does.  Speed probes run between calls only."""
    clock = time.perf_counter_ns
    event_ns: list[int] = []
    emitted: list[tuple[int | None, list, int]] = []
    errors: list[str] = []
    marks: list[int] = []  # probes taken before each timed call
    emit_marks: list[int] = []
    mark = meter.mark()
    start = clock()
    for i, ev in enumerate(events):
        if apps and ev.app_id not in apps:
            continue
        meter.busy = True
        k = meter.mark()
        a = clock()
        try:
            done = redactor.ingest_event(ev)
        except RedactionError as exc:
            errors.append(f"event {i}: {exc!r}")
            continue
        finally:
            b = clock()
            meter.busy = False
            meter.catch_up()
        event_ns.append(b - a)
        marks.append(k)
        if done:
            emitted.append((i, done, b - a))
            emit_marks.append(k)
    meter.busy = True
    emit_marks.append(meter.mark())
    a = clock()
    tail = redactor.finish()
    b = clock()
    meter.busy = False
    emitted.append((None, tail, b - a))
    factor, wall_s = meter.unit(mark, meter.mark(), (b - start) / 1e9)
    meter.catch_up()
    return Pass(
        wall_s, event_ns, emitted, errors, factor, meter.local_factors(marks), meter.local_factors(emit_marks)
    )


def end_kinds(events: list[KeystrokeEvent], emitted, timeout_ms: int, apps=()) -> list[tuple[object, str]]:
    """(entry, how it ended) for every emitted entry, judged from the event
    that emitted it: a first entry after an idle gap above the timeout ended
    by timeout; else a password/phone field ended structurally; else the
    field was cleared; ``finish()`` ends the rest."""
    at = {i: entries for i, entries, _ in emitted if i is not None}
    last: dict[tuple[str, str], int] = {}
    out: list[tuple[object, str]] = []
    for i, ev in enumerate(events):
        if apps and ev.app_id not in apps:
            continue
        key = (ev.user_id, ev.app_id)
        if i in at:
            timed_out = key in last and ev.timestamp - last[key] > timeout_ms
            for j, entry in enumerate(at[i]):
                if j == 0 and timed_out:
                    out.append((entry, "timeout"))
                elif ev.is_password or ev.is_phone_field:
                    out.append((entry, "structural"))
                else:
                    out.append((entry, "clear"))
        last[key] = ev.timestamp
    out.extend((e, "end_of_stream") for i, entries, _ in emitted if i is None for e in entries)
    return out


def leak_fragments(pii: str, min_len: int = 3) -> list[str]:
    """Prefixes of a planted PII string long enough to count as a leak."""
    return [pii[:k] for k in range(min_len, len(pii) + 1)]


def check_stream(kinds, expect: dict, suite: DetectorSuite) -> tuple[int, int, list[str]]:
    """Check emitted entries against the generator: every planned entry is
    emitted once and ends the planned way, no planted PII fragment of three
    or more characters survives in ``final_text`` or a snapshot, and every
    non-structural ``final_text`` equals whole-string redaction of the raw
    final text.  Returns (attempted, failed, problems)."""
    planned = {(e["user_id"], e["app_id"], e["end_timestamp"]): e for e in expect["entries"]}
    seen: set = set()
    failed = 0
    problems: list[str] = []
    for entry, kind in kinds:
        key = (entry.user_id, entry.app_id, entry.end_timestamp)
        plan = planned.get(key)
        if plan is None or key in seen:
            problem = f"unplanned entry {key}"
        elif plan["end"] != kind:
            problem = f"{key} ended by {kind}, planned {plan['end']}"
        else:
            blob = "\n".join((entry.final_text, *entry.snapshots))
            leaked = [f for p in plan["pii"] for f in leak_fragments(p) if f in blob]
            if leaked:
                problem = f"{key} leaks {leaked[-1]!r}"
            elif plan["raw_final"] is not None and entry.final_text != redact_string(plan["raw_final"], suite).text:
                problem = f"{key} final_text differs from redact_string"
            else:
                problem = None
        seen.add(key)
        if problem:
            failed += 1
            problems.append(problem)
    missing = [k for k in planned if k not in seen]
    problems.extend(f"missing entry {k}" for k in missing)
    return len(kinds) + len(missing), failed + len(missing), problems


# -- output checks ------------------------------------------------------------


def digest_dir(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name not in UNDIGESTED:
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def digest_entries(entries) -> str:
    return hashlib.sha256("".join(e.to_json() + "\n" for e in entries).encode()).hexdigest()


def check_pipeline(rc: int, out: Path) -> list[str]:
    """Exit code 0, every expected report present, no synth PII in the entries."""
    if rc != 0:
        return [f"pipeline exit code {rc}"]
    problems = [f"missing report {n}" for n in PIPELINE_REPORTS if not (out / n).is_file()]
    if not problems:
        text = (out / "entries.jsonl").read_text(encoding="utf-8")
        problems = [f"entries.jsonl leaks {p!r}" for p in SYNTH_PII if p in text]
    return problems


def check_diff(rc: int, out: Path) -> list[str]:
    """Exit code 0 and the planted platform signal recovered: FDR-significant
    FB_WORDS have d > 0, SMS_WORDS d < 0, and each side has one at least."""
    if rc != 0:
        return [f"diff exit code {rc}"]
    rows = json.loads((out / "ngram_diff.json").read_text(encoding="utf-8"))
    sig = {r["ngram"]: r["cohens_d"] for r in rows if r["q_significant"]}
    fb = [w for w in synth.FB_WORDS if w in sig]
    sms = [w for w in synth.SMS_WORDS if w in sig]
    problems = [f"{w} has d={sig[w]:.3f}, planted > 0" for w in fb if not sig[w] > 0]
    problems += [f"{w} has d={sig[w]:.3f}, planted < 0" for w in sms if not sig[w] < 0]
    if not fb or not sms:
        problems.append("planted platform words not FDR-significant")
    return problems


def check_evaluate(rc: int, out: Path, n_outcomes: int) -> list[str]:
    """Exit code 0 and four cells for every outcome."""
    if rc != 0:
        return [f"evaluate exit code {rc}"]
    outcomes = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))["outcomes"]
    problems = [f"{n} cells {sorted(o['cells'])}" for n, o in outcomes.items() if sorted(o["cells"]) != sorted(CELL_ORDER)]
    if len(outcomes) != n_outcomes:
        problems.append(f"{len(outcomes)} outcomes evaluated, expected {n_outcomes}")
    return problems


# -- units of work ------------------------------------------------------------


@dataclass
class Outcome:
    """One unit of work: its wall time (probe time removed) and speed
    factor, its checked operations, its output digest."""

    wall_s: float
    factor: float
    attempted: int
    failed: int
    digest: str
    problems: list[str]


def run_cli(argv: list[str], meter: Speedometer) -> tuple[int, float, float]:
    """``cli.main(argv)`` with its console output discarded; (exit code, wall
    s, speed factor).  An exception escaping the command counts as exit code
    -1, so the run reports it as a failed operation; its traceback goes to
    stderr."""
    crash = None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        mark = meter.mark()
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark error
            rc, crash = -1, traceback.format_exc()
        wall = time.perf_counter() - start
        factor, wall = meter.unit(mark, meter.mark(), wall)
    if crash:
        print(crash, file=sys.stderr)
    return rc, wall, factor


def pipeline_unit(ctx: Context, meter: Speedometer) -> Outcome:
    out = Path(ctx.config.output_dir)
    shutil.rmtree(out, ignore_errors=True)
    rc, wall, factor = run_cli(["pipeline", "--config", str(ctx.dir / ctx.expect["config"])], meter)
    problems = check_pipeline(rc, out)
    return Outcome(wall, factor, 1, int(bool(problems)), digest_dir(out) if out.is_dir() else "", problems)


def analysis_unit(ctx: Context, meter: Speedometer) -> Outcome:
    d = ctx.dir
    diff_out, eval_out = d / "diff_out", d / "eval_out"
    shutil.rmtree(diff_out, ignore_errors=True)
    shutil.rmtree(eval_out, ignore_errors=True)
    corpus = str(d / "corpus.jsonl")
    rc1, t1, f1 = run_cli(["diff", "--corpus", corpus, "--dictionary", str(d / "dictionary.txt"), "--out-dir", str(diff_out)], meter)
    p1 = check_diff(rc1, diff_out)
    rc2, t2, f2 = run_cli([
        "evaluate", "--corpus", corpus, "--outcomes", str(d / "outcomes.csv"),
        "--orders", "1,2", "--min-group-fraction", "0.25", "--out-dir", str(eval_out),
    ], meter)
    p2 = check_evaluate(rc2, eval_out, ctx.expect["outcomes"])
    digest = hashlib.sha256(
        "".join(digest_dir(o) for o in (diff_out, eval_out) if o.is_dir()).encode()
    ).hexdigest()
    # one factor for the pair, so that wall / factor = t1 / f1 + t2 / f2
    factor = (t1 + t2) / (t1 / f1 + t2 / f2)
    return Outcome(t1 + t2, factor, 2, int(bool(p1)) + int(bool(p2)), digest, p1 + p2)


def stream_unit(
    ctx: Context, meter: Speedometer, redactor_cls=StreamRedactor, suite: DetectorSuite | None = None
) -> tuple[Pass, Outcome]:
    """One pass over the keystroke-stream log, checked against the generator."""
    timeout_ms = ctx.expect["timeout_ms"]
    redactor = redactor_cls(suite=suite or ctx.suite, keep_snapshots=True, timeout_ms=timeout_ms)
    p = feed(redactor, ctx.events, meter)
    kinds = end_kinds(ctx.events, p.emitted, timeout_ms)
    attempted, failed, problems = check_stream(kinds, ctx.expect, ctx.suite)
    outcome = Outcome(p.wall_s, p.factor, attempted, failed + len(p.errors), digest_entries(p.entries), p.errors + problems)
    return p, outcome


def clean_pass(ctx: Context, meter: Speedometer) -> tuple[Pass, int, list[str]]:
    """Closed loop of ``redact_string`` over every corpus document; an entry is
    one (user, platform) corpus.  The corpus is clean, so every document must
    come back unchanged.  Returns (pass, failed documents, problems)."""
    clock = time.perf_counter_ns
    event_ns: list[int] = []
    marks: list[int] = []
    spans: list[tuple[object, int, int]] = []  # (corpus key, first doc, end doc)
    problems: list[str] = []
    mark = meter.mark()
    start = clock()
    for key, corpus in sorted(ctx.corpora.items()):
        first = len(event_ns)
        for doc in corpus.documents:
            meter.busy = True
            marks.append(meter.mark())
            t = clock()
            cleaned = redact_string(doc, ctx.suite).text
            event_ns.append(clock() - t)
            meter.busy = False
            meter.catch_up()
            if cleaned != doc:
                problems.append(f"{key}: clean document changed to {cleaned!r}")
        spans.append((key, first, len(event_ns)))
    factor, wall_s = meter.unit(mark, meter.mark(), (clock() - start) / 1e9)
    event_factor = meter.local_factors(marks)
    emitted, emit_factor = [], []
    for n, (key, lo, hi) in enumerate(spans):
        raw = sum(event_ns[lo:hi])
        emitted.append((n, [key], raw))
        emit_factor.append(raw / sum(ns / f for ns, f in zip(event_ns[lo:hi], event_factor[lo:hi])))
    return Pass(wall_s, event_ns, emitted, [], factor, event_factor, emit_factor), len(problems), problems


# -- measurement --------------------------------------------------------------


def repeat(unit, seconds: float, min_runs: int, budget_start: float) -> list:
    """Run ``unit`` until ``seconds`` have passed since ``budget_start``, and
    at least ``min_runs`` times."""
    results = []
    while len(results) < min_runs or time.perf_counter() - budget_start < seconds:
        results.append(unit())
    return results


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def stream_metrics(passes: list[Pass], scaled: bool) -> dict[str, float]:
    """Streaming metrics pooled over passes; ``scaled`` divides every time by
    the speed factor it ran at."""
    event_ns = [ns / f if scaled else ns for p in passes for ns, f in zip(p.event_ns, p.event_factor)]
    entry_ns = [ns for p in passes for ns in p.entry_ns(scaled)]
    return {
        "events_per_s": statistics.median(len(p.event_ns) * (p.factor if scaled else 1.0) / p.wall_s for p in passes),
        "event_latency_p50_us": percentile(event_ns, 50) / 1e3,
        "event_latency_p99_us": percentile(event_ns, 99) / 1e3,
        "entry_latency_p50_ms": percentile(entry_ns, 50) / 1e6,
        "entry_latency_p90_ms": percentile(entry_ns, 90) / 1e6,
    }


def versions() -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "regex": regex.__version__,
    }


def measure_units(ctx: Context, meter: Speedometer):
    """The workload's measured unit: () -> (closed-loop passes, outcome).  On
    the CLI workloads each unit also makes closed-loop passes, so the
    streaming metrics sample the whole run, as ``wall_s`` does."""
    if ctx.workload == "keystroke-stream":
        def stream() -> tuple[list[Pass], Outcome]:
            p, o = stream_unit(ctx, meter)
            return [p], o

        return stream
    if ctx.workload == "cohort-pipeline":
        cfg = ctx.config

        def cohort() -> tuple[list[Pass], Outcome]:
            redactor = StreamRedactor(suite=ctx.suite, timeout_ms=cfg.timeout_ms, keep_snapshots=cfg.keep_snapshots)
            p = feed(redactor, ctx.events, meter, cfg.apps)
            o = pipeline_unit(ctx, meter)
            # the closed loop must reproduce the pipeline's own entries
            entries = Path(cfg.output_dir) / "entries.jsonl"
            o.attempted += len(p.entries)
            if not entries.is_file() or digest_entries(p.entries) != hashlib.sha256(entries.read_bytes()).hexdigest():
                o.failed += len(p.entries)
                o.problems.append("closed-loop entries differ from the pipeline's entries.jsonl")
            return [p], o

        return cohort

    def analysis() -> tuple[list[Pass], Outcome]:
        # a cleaning pass is short next to the commands: one on either side
        before, bad_before, problems_before = clean_pass(ctx, meter)
        o = analysis_unit(ctx, meter)
        after, bad_after, problems_after = clean_pass(ctx, meter)
        o.attempted += len(before.event_ns) + len(after.event_ns)
        o.failed += bad_before + bad_after
        o.problems += problems_before + problems_after
        return [before, after], o

    return analysis


def measure(ctx: Context, seconds: float) -> dict:
    """Untraced run of ``ctx.workload`` for about ``seconds``."""
    start = time.perf_counter()
    with Speedometer() as meter:
        runs = repeat(measure_units(ctx, meter), seconds, 2, start)
    passes = [p for ps, _ in runs for p in ps]
    outcomes = [o for _, o in runs]
    metrics = stream_metrics(passes, scaled=True)
    metrics["wall_s"] = statistics.median(o.wall_s / o.factor for o in outcomes)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = stream_metrics(passes, scaled=False)
    raw["wall_s"] = statistics.median(o.wall_s for o in outcomes)
    problems = [x for o in outcomes for x in o.problems]
    failed = sum(o.failed for o in outcomes)
    digests = {o.digest for o in outcomes}
    if len(digests) != 1:
        problems.append("outputs differ between runs of the same inputs")
        failed += 1
    return {
        "metrics": metrics,
        "units": END_TO_END,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "info": {
            "work_units": len(outcomes),
            "measured_s": time.perf_counter() - start,
            "speed_factors": {"units": [o.factor for o in outcomes], "passes": [p.factor for p in passes]},
            "raw_metrics": raw,
            "output_sha256": min(digests),
            "versions": versions(),
            "problems": problems[:10],
        },
    }
