"""Tests of the benchmark itself, at tiny sizes; about a minute.

    PYTHONPATH=src:bench python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

import gen
import run
import tracing
import workloads
from scrublang.redactor import StreamRedactor
from speed import Speedometer

TINY = {
    "cohort-pipeline": {"n_users": 6},
    "keystroke-stream": dict(
        gen.PARAMS["keystroke-stream"],
        n_streams=4,
        length_buckets=[(6, 10, 45), (1, 150, 150)],
        structural_entries=2,
        gazetteer_names=30,
        timeout_share=0.5,
        end_of_stream_share=1.0,
    ),
    "analysis-wide": dict(gen.PARAMS["analysis-wide"], n_users=30),
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def generate(workload: str, d: Path, seed: int) -> workloads.Context:
    d.mkdir(parents=True, exist_ok=True)
    gen.GENERATORS[workload](d, seed, TINY[workload])
    return workloads.setup(workload, d)


def tree_digest(d: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(d.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(d).as_posix().encode() + p.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generators_are_deterministic(workload, tmp_path):
    digests = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        d = tmp_path / name
        d.mkdir()
        gen.GENERATORS[workload](d, seed, TINY[workload])
        digests.append(tree_digest(d))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_keystroke_log_ends_entries_all_four_ways(tmp_path):
    ctx = generate("keystroke-stream", tmp_path, 1)
    ends = {e["end"] for e in ctx.expect["entries"]}
    assert ends == {"clear", "timeout", "end_of_stream", "structural"}
    _, outcome = workloads.stream_unit(ctx, Speedometer())
    assert outcome.failed == 0, outcome.problems


def emitted_kinds(ctx: workloads.Context) -> list:
    p = workloads.feed(StreamRedactor(suite=ctx.suite, keep_snapshots=True), ctx.events, Speedometer())
    return workloads.end_kinds(ctx.events, p.emitted, ctx.expect["timeout_ms"])


def test_stream_check_counts_a_planted_leak(tmp_path):
    ctx = generate("keystroke-stream", tmp_path, 4)
    kinds = emitted_kinds(ctx)
    plan = next(e for e in ctx.expect["entries"] if e["end"] == "clear")
    target = next(
        k for k, (e, _) in enumerate(kinds)
        if (e.user_id, e.app_id, e.end_timestamp) == (plan["user_id"], plan["app_id"], plan["end_timestamp"])
    )
    entry, kind = kinds[target]
    kinds[target] = (replace(entry, snapshots=entry.snapshots + (plan["pii"][0][:3],)), kind)
    _, failed, problems = workloads.check_stream(kinds, ctx.expect, ctx.suite)
    assert failed == 1 and "leaks" in problems[0]


def test_stream_check_counts_a_mismatched_final_text_and_a_missing_entry(tmp_path):
    ctx = generate("keystroke-stream", tmp_path, 4)
    kinds = emitted_kinds(ctx)
    target = next(k for k, (_, kind) in enumerate(kinds) if kind == "clear")
    entry, kind = kinds[target]
    wrong = kinds[:target] + [(replace(entry, final_text=entry.final_text + " extra"), kind)] + kinds[target + 1:]
    _, failed, problems = workloads.check_stream(wrong, ctx.expect, ctx.suite)
    assert failed == 1 and "redact_string" in problems[0]
    _, failed, problems = workloads.check_stream(kinds[1:], ctx.expect, ctx.suite)
    assert failed == 1 and "missing" in problems[0]


def test_pipeline_check_counts_a_missing_report(tmp_path):
    ctx = generate("cohort-pipeline", tmp_path, 2)
    outcome = workloads.pipeline_unit(ctx, Speedometer())
    assert outcome.failed == 0, outcome.problems
    out = Path(ctx.config.output_dir)
    (out / "cloud.json").unlink()
    assert workloads.check_pipeline(0, out) == ["missing report cloud.json"]
    assert workloads.check_pipeline(1, out) == ["pipeline exit code 1"]


def test_analysis_checks_count_a_lost_signal(tmp_path):
    ctx = generate("analysis-wide", tmp_path, 2)
    outcome = workloads.analysis_unit(ctx, Speedometer())
    assert outcome.failed == 0, outcome.problems
    diff = tmp_path / "diff_out" / "ngram_diff.json"
    rows = json.loads(diff.read_text())
    for r in rows:
        r["cohens_d"] = -r["cohens_d"]
    diff.write_text(json.dumps(rows))
    assert workloads.check_diff(0, tmp_path / "diff_out")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_end_to_end(workload, tmp_path):
    ctx = generate(workload, tmp_path, 1)
    res = workloads.measure(ctx, seconds=0.1)
    assert res["failed"] == 0, res["info"]["problems"]
    assert set(res["metrics"]) | {"setup_s"} == set(workloads.END_TO_END)
    assert all(v > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    ctx = generate(workload, tmp_path, 1)
    res = tracing.measure(ctx, 0.1, tmp_path / "trace.jsonl.gz")
    assert res["failed"] == 0, res["info"]["problems"]
    assert list(res["metrics"]) == list(tracing.PER_LAYER)
    assert 0.5 < res["metrics"]["trace.coverage"] <= 1.0
    assert (tmp_path / "trace.jsonl.gz").stat().st_size > 0


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "analysis-wide", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
