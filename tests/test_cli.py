"""CLI subcommands, configuration handling, and pipeline behavior."""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import json
import os
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import logistic_oracle
from scrublang import cli, features
from scrublang.analysis import shared_users
from scrublang.cli import RunConfig, main
from scrublang.io import load_lexicon_csv, sha256_file
from scrublang.modeling import CELL_ORDER, labeled_users
from scrublang.synth import ALLOWED_APPS, make_fixture


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fixture")
    make_fixture(root, n_users=10, seed=3)
    return root


def write_events(path: Path, rows) -> None:
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def event(user, t, app, text, **flags):
    return {
        "user_id": user,
        "timestamp": t,
        "app_id": app,
        "current_text": text,
        "is_password": False,
        "is_phone_field": False,
        **flags,
    }


def write_two_platform_corpus(facebook: Path, entries: Path, dest: Path) -> None:
    """A corpus file of the facebook posts plus one sms document per entry,
    whose text is written raw, as ``redact`` writes it: only \\n ends a line."""
    rows = facebook.read_text(encoding="utf-8").rstrip("\n").split("\n")
    for line in entries.read_text(encoding="utf-8").rstrip("\n").split("\n"):
        e = json.loads(line)
        row = {"user_id": e["user_id"], "platform": "sms", "text": e["final_text"]}
        rows.append(json.dumps(row, ensure_ascii=False))
    dest.write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_small_corpus(path: Path, extra: str = "") -> None:
    """One document per user (u0..u5) and platform: five words taken in
    rotation from a short list, then ``extra``."""
    words = "fun weekend party trip ok yes sure fine".split()
    rows = []
    for i in range(6):
        for j, platform in enumerate(("facebook", "sms")):
            text = " ".join(words[(i + j + k) % len(words)] for k in range(5)) + extra
            rows.append({"user_id": f"u{i}", "platform": platform, "text": text})
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def write_ages(path: Path) -> None:
    path.write_text("user_id,age\n" + "".join(f"u{i},{20 + 3 * i}\n" for i in range(6)))


class TestRedactCommand:
    def test_round_trip(self, tmp_path):
        log = tmp_path / "keys.jsonl"
        text = "call 555-123-4567 ok"
        rows = [event("u1", i * 100, "sms-app", text[: i + 1]) for i in range(len(text))]
        rows.append(event("u1", 9_999, "sms-app", ""))
        write_events(log, rows)
        out = tmp_path / "entries.jsonl"
        assert main(["redact", "--in", str(log), "--out", str(out)]) == 0
        (entry,) = [json.loads(l) for l in out.read_text().splitlines()]
        assert entry["final_text"] == "call <phone> ok"
        assert entry["snapshots"] == []

    def test_keep_snapshots_flag(self, tmp_path):
        log = tmp_path / "keys.jsonl"
        rows = [event("u1", 0, "a", "x"), event("u1", 100, "a", "xy"), event("u1", 200, "a", "")]
        write_events(log, rows)
        out = tmp_path / "entries.jsonl"
        main(["redact", "--in", str(log), "--out", str(out), "--keep-snapshots"])
        (entry,) = [json.loads(l) for l in out.read_text().splitlines()]
        assert entry["snapshots"] == ["x"]

    def test_app_allowlist(self, tmp_path):
        log = tmp_path / "keys.jsonl"
        rows = [
            event("u1", 0, "good", "hi"),
            event("u1", 100, "bad", "secret stuff"),
            event("u1", 200, "good", ""),
        ]
        write_events(log, rows)
        out = tmp_path / "entries.jsonl"
        main(["redact", "--in", str(log), "--out", str(out), "--apps", "good"])
        entries = [json.loads(l) for l in out.read_text().splitlines()]
        assert [e["final_text"] for e in entries] == ["hi"]

    def test_out_of_order_events_skipped(self, tmp_path):
        log = tmp_path / "keys.jsonl"
        rows = [
            event("u1", 1000, "a", "ab"),
            event("u1", 500, "a", "abc"),  # goes backwards: dropped
            event("u1", 1500, "a", ""),
        ]
        write_events(log, rows)
        out = tmp_path / "entries.jsonl"
        main(["redact", "--in", str(log), "--out", str(out)])
        (entry,) = [json.loads(l) for l in out.read_text().splitlines()]
        assert entry["final_text"] == "ab"

    @pytest.mark.parametrize(
        "bad_line",
        [
            json.dumps({"user_id": "u1", "timestamp": 100, "current_text": "ab"}),
            "{not json",
            json.dumps(event("u1", 100, "a", None)),
            json.dumps(event("u1", 100, "a", "ab", is_password="false")),
            json.dumps(event("u1", 100, "a", "ab", is_phone_field=0)),
            json.dumps(event("u1", 12.9, "a", "ab")),
            json.dumps(event("u1", True, "a", "ab")),
            json.dumps(event(7, 100, "a", "ab")),
        ],
        ids=["missing-key", "invalid-json", "null-text", "string-flag", "integer-flag",
             "float-timestamp", "boolean-timestamp", "integer-user"],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, capsys, bad_line):
        log = tmp_path / "keys.jsonl"
        log.write_text(json.dumps(event("u1", 0, "a", "a")) + "\n" + bad_line + "\n")
        rc = main(["redact", "--in", str(log), "--out", str(tmp_path / "entries.jsonl")])
        assert rc == 2
        assert "keys.jsonl:2: bad keystroke event" in capsys.readouterr().err


class TestSummaryCommand:
    def test_writes_reports(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        rows = [
            {"user_id": "u1", "platform": "sms", "text": "one two three"},
            {"user_id": "u2", "platform": "sms", "text": "one two"},
        ]
        corpus.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        out = tmp_path / "rep"
        assert main(["summary", "--corpus", str(corpus), "--out-dir", str(out)]) == 0
        stats = json.loads((out / "summary.json").read_text())
        assert stats["sms"]["n_users"] == 2
        assert (out / "summary.csv").exists()


class TestAnalysisCommands:
    def test_features_writes_dictionary_frequencies(self, tmp_path):
        corpus, spec, out = tmp_path / "c.jsonl", tmp_path / "dict.txt", tmp_path / "feat"
        write_small_corpus(corpus)
        spec.write_text("[leisure]\nfun\nparty\n[assent]\nok\nyes\n")
        argv = ["features", "--corpus", str(corpus), "--min-words", "1",
                "--dictionary", str(spec), "--out-dir", str(out)]
        assert main(argv) == 0
        cats = json.loads((out / "dictionary_features.json").read_text())
        assert {plat: sorted(users) for plat, users in cats.items()} == {
            plat: [f"u{i}" for i in range(6)] for plat in ("facebook", "sms")
        }
        # u0's post is "fun weekend party trip ok"
        assert cats["facebook"]["u0"] == {"leisure": 0.4, "assent": 0.2}

    def test_features_diff_train_evaluate_importance(self, fixture_dir, tmp_path):
        """Exercise all analysis subcommands on a prepared two-platform corpus."""
        # assemble a corpus file from the fixture: posts plus redacted sms
        out_entries = tmp_path / "entries.jsonl"
        main(
            [
                "redact",
                "--in",
                str(fixture_dir / "keystrokes.jsonl"),
                "--out",
                str(out_entries),
                "--apps",
                ",".join(ALLOWED_APPS),
            ]
        )
        corpus = tmp_path / "corpus.jsonl"
        write_two_platform_corpus(fixture_dir / "facebook.jsonl", out_entries, corpus)
        common = ["--corpus", str(corpus), "--min-words", "100"]

        feat_dir = tmp_path / "feat"
        assert main(["features", *common, "--orders", "1", "--out-dir", str(feat_dir)]) == 0
        ngrams = json.loads((feat_dir / "ngram_features.json").read_text())
        assert set(ngrams) == {"facebook", "sms"}

        diff_dir = tmp_path / "diff"
        rc = main(
            [
                "diff",
                *common,
                "--dictionary",
                str(fixture_dir / "dictionary.txt"),
                "--min-group-fraction",
                "0.3",
                "--out-dir",
                str(diff_dir),
            ]
        )
        assert rc == 0
        assert (diff_dir / "cloud.json").exists()
        cats = json.loads((diff_dir / "category_diff.json").read_text())
        assert {c["category"] for c in cats} >= {"leisure", "assent"}

        lex_out = tmp_path / "trained.csv"
        rc = main(
            [
                "train",
                *common,
                "--outcomes",
                str(fixture_dir / "outcomes.csv"),
                "--outcome",
                "depression",
                "--orders",
                "1",
                "--out",
                str(lex_out),
            ]
        )
        assert rc == 0
        assert "depression" in load_lexicon_csv(lex_out)

        eval_dir = tmp_path / "eval"
        rc = main(
            [
                "evaluate",
                *common,
                "--outcomes",
                str(fixture_dir / "outcomes.csv"),
                "--orders",
                "1",
                "--bootstrap-iterations",
                "1000",
                "--out-dir",
                str(eval_dir),
            ]
        )
        assert rc == 0
        report = json.loads((eval_dir / "eval_report.json").read_text())
        assert {"fb_fb", "fb_sms", "sms_sms", "sms_fb"} <= set(
            report["outcomes"]["depression"]["cells"]
        )

        imp_dir = tmp_path / "imp"
        rc = main(
            [
                "importance",
                *common,
                "--lexicon",
                str(fixture_dir / "lexicon.csv"),
                "--outcome",
                "depression",
                "--out-dir",
                str(imp_dir),
            ]
        )
        assert rc == 0
        rows = json.loads((imp_dir / "importance_depression.json").read_text())
        assert rows and all("quadrant" in r for r in rows)

    def test_importance_reads_each_term_at_its_own_order(self, tmp_path):
        """A model trained on unigrams and bigrams ranks its bigrams by their
        bigram frequencies: each term's freq_diff is the difference of its
        mean frequencies, as the order-by-order reference counts them."""
        corpus, ages, lexicon = (tmp_path / n for n in ("c.jsonl", "ages.csv", "lex.csv"))
        rows = []
        for i in range(6):
            fb = "fun weekend party trip ok" + " fun weekend" * (i % 3)
            for platform, text in (("facebook", fb), ("sms", "ok yes sure fine trip")):
                rows.append({"user_id": f"u{i}", "platform": platform, "text": text})
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
        write_ages(ages)
        common = ["--corpus", str(corpus), "--min-words", "1"]
        argv = ["train", *common, "--orders", "1,2", "--outcomes", str(ages), "--out", str(lexicon)]
        assert main(argv) == 0
        argv = ["importance", *common, "--lexicon", str(lexicon), "--outcome", "age"]
        assert main([*argv, "--out-dir", str(tmp_path / "imp")]) == 0
        ranked = json.loads((tmp_path / "imp" / "importance_age.json").read_text())
        corpora = features.load_corpus_jsonl(corpus)
        users = [f"u{i}" for i in range(6)]

        def mean(term, platform):
            own = [logistic_oracle.corpus_ngrams(corpora[(u, platform)], (1, 2)) for u in users]
            freqs = [vector.get(term, 0.0) for vector in own]
            return float(np.mean(freqs))

        assert {r["feature"] for r in ranked} >= {"fun weekend", "ok yes", "fun"}
        for row in ranked:
            term = row["feature"]
            assert row["freq_diff"] == pytest.approx(mean(term, "facebook") - mean(term, "sms"))
            assert row["importance"] == pytest.approx(row["weight"] * row["freq_diff"])
        by_term = {r["feature"]: r for r in ranked}
        assert by_term["fun weekend"]["freq_diff"] > 0 > by_term["ok yes"]["freq_diff"]

    def test_diff_with_a_placeholder_holding_spaces(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_small_corpus(corpus)
        with corpus.open("a") as fh:
            row = {"user_id": "u0", "platform": "sms", "text": "i read the great gatsby today"}
            fh.write(json.dumps(row) + "\n")
        argv = ["diff", "--corpus", str(corpus), "--min-words", "1"]
        assert main([*argv, "--out-dir", str(tmp_path / "diff")]) == 0
        diffs = json.loads((tmp_path / "diff" / "ngram_diff.json").read_text())
        assert "<work of art> today" in {r["ngram"] for r in diffs}

    def test_messages_may_hold_line_separators(self, tmp_path):
        """redact writes a message's U+2028 raw, and the posts plus those
        entries still load as one corpus."""
        names = ("k.jsonl", "e.jsonl", "p.jsonl", "c.jsonl")
        log, entries, posts, corpus = (tmp_path / n for n in names)
        write_small_corpus(posts)
        facebook = [line for line in posts.read_text().splitlines() if '"facebook"' in line]
        posts.write_text("\n".join(facebook) + "\n")
        words = "fun weekend party trip ok yes sure fine".split()
        messages = [" ".join(words[i : i + 3]) + "\u2028" + words[i + 4] for i in range(4)]
        events = [event(f"u{i}", 0, "sms", messages[i % 4]) for i in range(6)]
        write_events(log, events + [event(f"u{i}", 100, "sms", "") for i in range(6)])
        assert main(["redact", "--in", str(log), "--out", str(entries)]) == 0
        assert "\u2028" in entries.read_text(encoding="utf-8")
        write_two_platform_corpus(posts, entries, corpus)
        argv = ["diff", "--corpus", str(corpus), "--min-words", "1"]
        assert main([*argv, "--out-dir", str(tmp_path / "diff")]) == 0

    @pytest.mark.parametrize(
        "bad",
        [
            ["u1", "sms", "hi"],
            {"user_id": "u1", "platform": "sms", "text": None},
            {"user_id": "u1", "platform": "sms", "text": 42},
            {"user_id": 1, "platform": "sms", "text": "hi"},
            {"user_id": "u1", "platform": False, "text": "hi"},
        ],
        ids=["not-an-object", "null-text", "number-text", "number-user", "boolean-platform"],
    )
    def test_malformed_corpus_line_names_file_and_line(self, tmp_path, capsys, bad):
        corpus = tmp_path / "corpus.jsonl"
        good = {"user_id": "u1", "platform": "sms", "text": "hi"}
        corpus.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        assert main(["summary", "--corpus", str(corpus)]) == 2
        assert "corpus.jsonl:2: bad corpus record" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["summary --corpus {d}", "redact --in {d} --out {d}/o"])
    def test_a_directory_given_as_an_input_file_is_an_error(self, tmp_path, capsys, command):
        assert main(command.format(d=tmp_path).split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_may_stand_in_for_the_corpus(self, tmp_path, capsys):
        """A named pipe passes the input check and is read once, as a shell's
        process substitution (``--corpus <(cat c.jsonl)``) is."""
        corpus, fifo = tmp_path / "c.jsonl", tmp_path / "corpus.fifo"
        write_small_corpus(corpus)
        assert main(["summary", "--corpus", str(corpus)]) == 0
        from_file = capsys.readouterr().out
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(corpus.read_bytes(),))
        writer.start()
        try:
            assert main(["summary", "--corpus", str(fifo)]) == 0
        finally:
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))  # frees a writer still waiting
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert capsys.readouterr().out == from_file

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_may_stand_in_for_the_output_file(self, tmp_path):
        """``--out`` naming a pipe, as ``--out >(gzip > e.gz)`` does, is
        written straight through it: nothing is staged beside it."""
        log, entries, fifo = tmp_path / "keys.jsonl", tmp_path / "e.jsonl", tmp_path / "e.fifo"
        text = "call 555-123-4567 ok"
        write_events(log, [event("u1", i * 100, "a", text[: i + 1]) for i in range(len(text))])
        assert main(["redact", "--in", str(log), "--out", str(entries)]) == 0
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # open first: the write cannot block
        try:
            assert main(["redact", "--in", str(log), "--out", str(fifo)]) == 0
            received = os.read(reader, 1 << 16)  # less than a pipe holds
        finally:
            os.close(reader)
        assert received == entries.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.fifo", "e.jsonl", "keys.jsonl"]

    def test_models_keep_emoticons_and_drop_placeholders(self, tmp_path):
        corpus, outcomes, lexicon = (tmp_path / n for n in ("c.jsonl", "o.csv", "lex.csv"))
        write_small_corpus(corpus, extra=" <3 <email>")
        write_ages(outcomes)
        argv = ["train", "--corpus", str(corpus), "--min-words", "1", "--orders", "1"]
        assert main([*argv, "--outcomes", str(outcomes), "--out", str(lexicon)]) == 0
        terms = set(load_lexicon_csv(lexicon)["age"].weights)
        assert "<3" in terms and "<email>" not in terms

    def test_evaluate_holds_out_each_user_on_the_embeddings_too(self, tmp_path):
        corpus, outcomes = tmp_path / "c.jsonl", tmp_path / "o.csv"
        write_small_corpus(corpus)
        write_ages(outcomes)
        embeddings = []
        for platform in ("fb", "sms"):
            path = tmp_path / f"emb_{platform}.csv"
            rows = [f"u{i},{i + 1},{(3 * i) % 5 + 1},{len(platform) + i % 2}" for i in range(6)]
            path.write_text("user_id,e0,e1,e2\n" + "\n".join(rows) + "\n")
            embeddings += [f"--embeddings-{platform}", str(path)]
        out = tmp_path / "eval"
        argv = ["evaluate", "--corpus", str(corpus), "--min-words", "1", "--orders", "1"]
        argv += ["--outcomes", str(outcomes), "--bootstrap-iterations", "1000", "--nmf-k", "2"]
        argv += [*embeddings, "--out-dir", str(out)]
        assert main(argv) == 0
        reports = {name: json.loads((out / name).read_text())
                   for name in ("eval_report.json", "embedding_eval.json")}
        keys = {"alpha", "bootstrap_iterations", "cell_labels", "outcomes", "seed"}
        assert set(reports["eval_report.json"]) == keys
        assert set(reports["embedding_eval.json"]) == keys | {"nmf"}
        embedding_outcomes = reports["embedding_eval.json"]["outcomes"]
        assert embedding_outcomes
        for ev in embedding_outcomes.values():
            assert sorted(ev["cells"]) == sorted(CELL_ORDER)


SUITE_OPTIONS = {
    "gazetteer": (("--gazetteer",), None),
    "catalogue": (("--catalogue",), None),
}
CORPUS_OPTIONS = {
    "facebook_corpus": (("--corpus",), None),
    "min_words": (("--min-words",), 500),
    **SUITE_OPTIONS,
}
MODEL_OPTIONS = {
    "outcomes": (("--outcomes",), None),
    "ridge_alpha": (("--alpha",), 1.0),
    "model_orders": (("--orders",), (1, 2, 3)),
    "min_group_fraction": (("--min-group-fraction",), 0.05),
}
# every subcommand option: dest -> (option strings, parsed default)
SUBCOMMAND_OPTIONS = {
    "redact": {
        "keystroke_log": (("--in",), None),
        "out": (("--out",), None),
        "keep_snapshots": (("--keep-snapshots",), False),
        "timeout_ms": (("--timeout-ms",), 60000),
        "apps": (("--apps",), ()),
        **SUITE_OPTIONS,
    },
    "summary": {
        "facebook_corpus": (("--corpus",), None),
        "output_dir": (("--out-dir",), None),
        **SUITE_OPTIONS,
    },
    "features": {
        **CORPUS_OPTIONS,
        "dictionary": (("--dictionary",), None),
        "model_orders": (("--orders",), (1, 2, 3)),
        "output_dir": (("--out-dir",), None),
    },
    "diff": {
        **CORPUS_OPTIONS,
        "dictionary": (("--dictionary",), None),
        "fdr_alpha": (("--alpha",), 0.05),
        "min_group_fraction": (("--min-group-fraction",), 0.05),
        "output_dir": (("--out-dir",), None),
    },
    "train": {
        **CORPUS_OPTIONS,
        **MODEL_OPTIONS,
        "platform": (("--platform",), "facebook"),
        "outcome": (("--outcome",), None),
        "out": (("--out",), None),
    },
    "evaluate": {
        **CORPUS_OPTIONS,
        **MODEL_OPTIONS,
        "bootstrap_iterations": (("--bootstrap-iterations",), 10000),
        "seed": (("--seed",), 0),
        "embeddings_fb": (("--embeddings-fb",), None),
        "embeddings_sms": (("--embeddings-sms",), None),
        "nmf_k": (("--nmf-k",), 128),
        "nmf_iterations": (("--nmf-iterations",), 200),
        "output_dir": (("--out-dir",), None),
    },
    "importance": {
        **CORPUS_OPTIONS,
        "lexicon": (("--lexicon",), None),
        "outcome": (("--outcome",), None),
        "output_dir": (("--out-dir",), None),
    },
    "pipeline": {
        "config": (("--config",), None),
        "seed": (("--seed",), None),
        "fdr_alpha": (("--alpha",), None),
        "min_words": (("--min-words",), None),
    },
}
CONFIG_DEFAULTS = {
    "keystroke_log": None,
    "facebook_corpus": None,
    "outcomes": None,
    "dictionary": None,
    "lexicon": None,
    "embeddings_fb": None,
    "embeddings_sms": None,
    "gazetteer": None,
    "catalogue": None,
    "output_dir": "out",
    "min_words": 500,
    "min_group_fraction": 0.05,
    "fdr_alpha": 0.05,
    "ridge_alpha": 1.0,
    "seed": 0,
    "bootstrap_iterations": 10000,
    "timeout_ms": 60000,
    "keep_snapshots": False,
    "model_orders": (1, 2, 3),
    "nmf_k": 128,
    "nmf_iterations": 200,
    "apps": (),
}


class TestKnobInventory:
    """Every setting and option, with its default: a change that adds, drops
    or alters one has to change this inventory too."""

    def test_config_keys_and_defaults(self):
        cfg = RunConfig()
        assert {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)} == CONFIG_DEFAULTS

    def test_subcommand_options_and_defaults(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        found = {}
        for name, subparser in sub.choices.items():
            found[name] = {}
            for action in subparser._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                default = action.default
                if isinstance(default, str) and action.type is not None:
                    default = action.type(default)  # argparse converts string defaults
                found[name][action.dest] = (tuple(action.option_strings), default)
        assert found == SUBCOMMAND_OPTIONS

    def test_subcommand_options_in_help_order(self):
        """Each subcommand's --help lists its input first, then its output and
        own options, then its settings."""
        corpus = ["--min-words", "--gazetteer", "--catalogue"]
        model = ["--outcomes", "--alpha", "--orders", "--min-group-fraction"]
        expected = {
            "redact": ["--in", "--out", "--keep-snapshots", "--timeout-ms", "--apps",
                       "--gazetteer", "--catalogue"],
            "summary": ["--corpus", "--out-dir", "--gazetteer", "--catalogue"],
            "features": ["--corpus", "--out-dir", *corpus, "--dictionary", "--orders"],
            "diff": ["--corpus", "--out-dir", *corpus, "--dictionary", "--alpha",
                     "--min-group-fraction"],
            "train": ["--corpus", "--platform", "--outcome", "--out", *corpus, *model],
            "evaluate": ["--corpus", "--out-dir", *corpus, *model, "--bootstrap-iterations",
                         "--seed", "--embeddings-fb", "--embeddings-sms", "--nmf-k",
                         "--nmf-iterations"],
            "importance": ["--corpus", "--outcome", "--out-dir", *corpus, "--lexicon"],
            "pipeline": ["--config", "--seed", "--alpha", "--min-words"],
        }
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        found = {
            name: [a.option_strings[0] for a in p._actions if a.dest != "help"]
            for name, p in sub.choices.items()
        }
        assert found == expected and list(found) == list(expected)
        for name, flags in expected.items():
            listed = re.findall(r"^  (--[\w-]+)", sub.choices[name].format_help(), flags=re.M)
            assert listed == flags


class TestInputErrors:
    @pytest.mark.parametrize(
        "name,content,argv,where,rc",
        [
            ("emb.jsonl", '{"user_id": "u0", "embedding": [1]}\n{"embedding": [1]}\n',
             "evaluate {corpus} --outcomes {ages} --orders 1 --bootstrap-iterations 1000 "
             "--embeddings-fb {bad} --embeddings-sms {bad} --out-dir {out}", "emb.jsonl:2:", 2),
            ("o.csv", "user_id,age\nu0,20\nu1,abc\n",
             "train {corpus} --outcomes {bad} --orders 1 --out {out}.csv", "o.csv:3:", 2),
            ("lex.csv", "term,category,weight\nfun,age,abc\n",
             "importance {corpus} --lexicon {bad} --outcome age --out-dir {out}", "lex.csv:2:", 2),
            ("dict.txt", "yes\n[assent]\n",
             "diff {corpus} --dictionary {bad} --out-dir {out}", "dict.txt:1:", 2),
            ("dict.txt", "[assent]\no*k\n",
             "diff {corpus} --dictionary {bad} --out-dir {out}", "dict.txt:2:", 2),
            ("cat.tsv", "onlylabel\n",
             "summary --corpus {corpus_file} --catalogue {bad}", "cat.tsv:1:", 2),
            ("gaz.tsv", "person\tAda\nno-tab\n",
             "summary --corpus {corpus_file} --gazetteer {bad}", "gaz.tsv:2:", 2),
            ("run.cfg", "# settings\nseed = 1x\n", "pipeline --config {bad}", "run.cfg:2:", 1),
            ("run.cfg", "keep_snapshots = ture\n", "pipeline --config {bad}", "run.cfg:1:", 1),
            ("fx/outcomes.csv", "user_id,age\nuser00,abc\n",
             "pipeline --config {fixture}/pipeline.cfg", "outcomes.csv:2:", 1),
            ("run.cfg", "model_orders = 1,0\n", "pipeline --config {bad}", "run.cfg:1:", 1),
            ("o.csv", "user_id,age\nu0,20\nu1,23\nu0,30\n",
             "train {corpus} --outcomes {bad} --orders 1 --out {out}.csv",
             "o.csv:4: repeated user_id 'u0'", 2),
            ("emb.csv", "user_id,d0\nu0,1\nu1,2\nu1,3\n",
             "evaluate {corpus} --outcomes {ages} --orders 1 --bootstrap-iterations 1000 "
             "--embeddings-fb {bad} --embeddings-sms {bad} --out-dir {out}",
             "emb.csv:4: repeated user_id 'u1'", 2),
            ("emb.jsonl",
             '{"user_id": "u0", "embedding": [1]}\n{"user_id": "u0", "embedding": [2]}\n',
             "evaluate {corpus} --outcomes {ages} --orders 1 --bootstrap-iterations 1000 "
             "--embeddings-fb {bad} --embeddings-sms {bad} --out-dir {out}",
             "emb.jsonl:2: repeated user_id 'u0'", 2),
            ("fx/outcomes.csv", "user_id,age\nuser00,30\nuser00,31\n",
             "pipeline --config {fixture}/pipeline.cfg", "outcomes.csv:3: repeated user_id", 1),
            ("lex.csv", "term,category,weight\nfun,age,1.0\nfun,age,2.0\n",
             "importance {corpus} --lexicon {bad} --outcome age --out-dir {out}",
             "lex.csv:3: repeated term 'fun' in category 'age'", 2),
            ("lex.csv", "term,category,weight\nfun,age,1.0,9\n",
             "importance {corpus} --lexicon {bad} --outcome age --out-dir {out}",
             "lex.csv:2: bad lexicon row: more cells than header columns", 2),
            ("emb.csv", "",
             "evaluate {corpus} --outcomes {ages} --orders 1 --bootstrap-iterations 1000 "
             "--embeddings-fb {bad} --embeddings-sms {bad} --out-dir {out}",
             "emb.csv: empty embeddings file", 2),
            ("emb.jsonl", '{"user_id": 7, "embedding": [1.0]}\n',
             "evaluate {corpus} --outcomes {ages} --orders 1 --bootstrap-iterations 1000 "
             "--embeddings-fb {bad} --embeddings-sms {bad} --out-dir {out}",
             "emb.jsonl:1: bad embedding record", 2),
            ("emb.jsonl", '{"user_id": "u0", "embedding": [true, 2.5]}\n',
             "evaluate {corpus} --outcomes {ages} --orders 1 --bootstrap-iterations 1000 "
             "--embeddings-fb {bad} --embeddings-sms {bad} --out-dir {out}",
             "emb.jsonl:1: bad embedding record", 2),
            ("emb.jsonl", '{"user_id": "u0", "embedding": ["2.5"]}\n',
             "evaluate {corpus} --outcomes {ages} --orders 1 --bootstrap-iterations 1000 "
             "--embeddings-fb {bad} --embeddings-sms {bad} --out-dir {out}",
             "emb.jsonl:1: bad embedding record", 2),
            ("emb.jsonl", '{"user_id": "u0", "embedding": [1%s]}\n' % ("0" * 400),
             "evaluate {corpus} --outcomes {ages} --orders 1 --bootstrap-iterations 1000 "
             "--embeddings-fb {bad} --embeddings-sms {bad} --out-dir {out}",
             "emb.jsonl:1: bad embedding record", 2),
            ("dict.txt", "[assent]\nye\u0085s\no*k\n",
             "diff {corpus} --dictionary {bad} --out-dir {out}", "dict.txt:3:", 2),
        ],
        ids=[
            "embeddings-jsonl", "outcomes", "lexicon", "dictionary-header",
            "dictionary-wildcard", "catalogue", "gazetteer", "config-int",
            "config-bool", "pipeline-outcomes", "config-orders", "outcomes-repeated-user",
            "embeddings-csv-repeated-user", "embeddings-jsonl-repeated-user",
            "pipeline-outcomes-repeated-user", "lexicon-repeated-term", "lexicon-extra-cell",
            "embeddings-csv-empty", "embeddings-jsonl-number-user",
            "embeddings-jsonl-boolean-value", "embeddings-jsonl-string-value",
            "embeddings-jsonl-integer-beyond-float",
            "dictionary-line-after-u0085",
        ],
    )
    def test_error_names_file_and_line(self, tmp_path, capsys, name, content, argv, where, rc):
        corpus, ages = tmp_path / "c.jsonl", tmp_path / "ages.csv"
        write_small_corpus(corpus)
        write_ages(ages)
        make_fixture(tmp_path / "fx", n_users=6, seed=1)
        (tmp_path / name).write_text(content, encoding="utf-8")
        argv = argv.format(
            corpus=f"--corpus {corpus} --min-words 1",
            corpus_file=corpus,
            ages=ages,
            bad=tmp_path / name,
            out=tmp_path / "out",
            fixture=tmp_path / "fx",
        )
        assert main(argv.split()) == rc
        assert where in capsys.readouterr().err


class TestUsageErrors:
    """Values the analysis cannot use are refused before any work starts."""

    @pytest.mark.parametrize(
        "argv",
        [
            "features {corpus} --orders 0 --out-dir {out}",
            "train {corpus} --outcomes {ages} --orders 1,-2 --out {out}.csv",
            "train {corpus} --outcomes {ages} --orders , --out {out}.csv",
            "evaluate {corpus} --outcomes {ages} --orders , --out-dir {out}",
        ],
        ids=["features-orders-0", "train-negative-order", "train-no-orders", "evaluate-no-orders"],
    )
    def test_usage_error(self, tmp_path, capsys, argv):
        corpus, ages = tmp_path / "c.jsonl", tmp_path / "ages.csv"
        write_small_corpus(corpus)
        write_ages(ages)
        corpus_args = f"--corpus {corpus} --min-words 1"
        argv = argv.format(corpus=corpus_args, ages=ages, out=tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv,setting",
        [
            ("redact --in {log} --out {out}/entries.jsonl --timeout-ms -5", "timeout_ms"),
            ("redact --in {log} --out {out}/entries.jsonl --timeout-ms 0", "timeout_ms"),
            ("diff {corpus} --min-group-fraction 7 --out-dir {out}", "min_group_fraction"),
            ("diff {corpus} --min-group-fraction -0.1 --out-dir {out}", "min_group_fraction"),
            ("diff {corpus} --alpha 1.5 --out-dir {out}", "fdr_alpha"),
            ("evaluate {corpus} --outcomes {ages} --min-group-fraction 1.5 --out-dir {out}",
             "min_group_fraction"),
            ("evaluate {corpus} --outcomes {out}/ages.csv --out-dir {out}", "outcomes"),
            ("train {corpus} --outcomes {ages} --alpha -1 --out {out}/lex.csv", "ridge_alpha"),
            ("train {corpus} --outcomes {ages} --alpha inf --out {out}/lex.csv", "ridge_alpha"),
            ("evaluate {corpus} --outcomes {ages} --alpha inf --out-dir {out}", "ridge_alpha"),
            ("features {corpus} --min-words -5 --out-dir {out}", "min_words"),
            # ages.csv doubles as a one-dimensional embeddings file
            ("evaluate {corpus} --outcomes {ages} --orders 1 --bootstrap-iterations 1000 "
             "--embeddings-fb {ages} --embeddings-sms {ages} --nmf-k 0 --out-dir {out}", "nmf_k"),
            ("evaluate {corpus} --outcomes {ages} --bootstrap-iterations 0 --out-dir {out}",
             "bootstrap_iterations"),
            ("evaluate {corpus} --outcomes {ages} --bootstrap-iterations 999 --out-dir {out}",
             "bootstrap_iterations"),
            ("evaluate {corpus} --outcomes {ages} --seed -1 --out-dir {out}", "seed"),
            ("evaluate {corpus} --outcomes {ages} --nmf-iterations 0 --out-dir {out}",
             "nmf_iterations"),
            ("evaluate {corpus} --outcomes {ages} --nmf-iterations -3 --out-dir {out}",
             "nmf_iterations"),
        ],
        ids=["redact-negative-timeout", "redact-zero-timeout", "diff-fraction-above-1",
             "diff-negative-fraction", "diff-alpha-1.5", "evaluate-fraction-above-1",
             "evaluate-missing-outcomes", "train-negative-ridge-alpha",
             "train-infinite-ridge-alpha", "evaluate-infinite-ridge-alpha",
             "features-negative-min-words", "evaluate-nmf-k-0",
             "evaluate-0-resamples", "evaluate-999-resamples", "evaluate-negative-seed",
             "evaluate-0-nmf-iterations", "evaluate-negative-nmf-iterations"],
    )
    def test_setting_checked_before_any_work(self, tmp_path, capsys, argv, setting):
        """A flag sets the same RunConfig field as the config key, and is
        checked the same way before any work starts: exit 2, an error that
        names the setting, and no output directory."""
        corpus, ages, log = tmp_path / "c.jsonl", tmp_path / "ages.csv", tmp_path / "keys.jsonl"
        write_small_corpus(corpus)
        write_ages(ages)
        write_events(log, [event("u1", 0, "a", "hi"), event("u1", 100, "a", "")])
        corpus_args = f"--corpus {corpus} --min-words 1"
        argv = argv.format(corpus=corpus_args, ages=ages, log=log, out=tmp_path / "out")
        assert main(argv.split()) == 2
        assert f"error: {setting}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pipeline_alpha_flag_checked(self, tmp_path, capsys):
        files = make_fixture(tmp_path / "fx", n_users=6, seed=1)
        assert main(["pipeline", "--config", str(files["config"]), "--alpha", "1.5"]) == 1
        assert "stage 'config' failed: fdr_alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "fx" / "out").exists()

    def test_config_bootstrap_floor_fails_before_redaction(self, tmp_path, capsys):
        files = make_fixture(tmp_path / "fx", n_users=6, seed=1)
        cfg = files["config"]
        text = cfg.read_text().replace("bootstrap_iterations = 2000", "bootstrap_iterations = 500")
        cfg.write_text(text)
        assert main(["pipeline", "--config", str(cfg)]) == 1
        lineno = text.splitlines().index("bootstrap_iterations = 500") + 1
        where = f"stage 'config' failed: {cfg}:{lineno}: bootstrap_iterations must be >= 1000"
        assert where in capsys.readouterr().err
        assert not (tmp_path / "fx" / "out").exists()
        with pytest.raises(ValueError, match="iterations must be >= 1000"):
            RunConfig(bootstrap_iterations=999)

    @pytest.mark.parametrize(
        "old,new,problem",
        [
            ("seed = 17", "seed = -1", "seed must be >= 0, got -1"),
            ("nmf_iterations = 150", "nmf_iterations = -2", "nmf_iterations must be >= 1, got -2"),
            ("model_orders = 1", "model_orders =",
             "bad model_orders: need one or more n-gram orders >= 1, got ''"),
            ("model_orders = 1", "model_orders = ,",
             "bad model_orders: need one or more n-gram orders >= 1, got ','"),
            ("output_dir = out", "output_dir =", "output_dir needs a directory"),
        ],
        ids=["negative-seed", "negative-nmf-iterations", "empty-orders", "comma-orders",
             "empty-output-dir"],
    )
    def test_config_value_fails_at_its_line_before_redaction(
        self, tmp_path, capsys, old, new, problem
    ):
        """A seed below 0, fewer than one NMF update, no n-gram order or no
        output directory fails the config stage with the line's path:line,
        before any stage runs."""
        files = make_fixture(tmp_path / "fx", n_users=6, seed=1)
        cfg = files["config"]
        lines = cfg.read_text().splitlines()
        lineno = lines.index(old) + 1
        lines[lineno - 1] = new
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        assert f"stage 'config' failed: {cfg}:{lineno}: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "fx" / "out").exists()


class TestErrorPath:
    """Every bad input is an ``error:`` line on stderr with exit code 2, or 1
    from ``pipeline``, and leaves no report."""

    @pytest.mark.parametrize(
        "argv,rc,message",
        [
            ("importance --corpus {corpus} --min-words 1 --lexicon {lex} --outcome stress "
             "--out-dir {out}", 2, "error: importance: outcome 'stress' not in "),
            ("importance --corpus {posts} --min-words 1 --lexicon {lex} --outcome age "
             "--out-dir {out}", 2, "error: importance: no users present on both platforms"),
            ("pipeline --config {cfg}", 1,
             "error: stage 'config' failed: config must set keystroke_log, facebook_corpus, "
             "outcomes"),
            ("train --corpus {corpus} --min-words 1 --outcomes {ages} --outcome age "
             "--outcome nosuch --out {out}/lex.csv", 2, "error: train: outcome 'nosuch' not in "),
        ],
        ids=["importance-unknown-outcome", "importance-no-shared-users", "pipeline-no-inputs",
             "train-unknown-outcome"],
    )
    def test_bad_input(self, tmp_path, capsys, argv, rc, message):
        corpus, posts = tmp_path / "c.jsonl", tmp_path / "posts.jsonl"
        lex, cfg, ages = tmp_path / "lex.csv", tmp_path / "run.cfg", tmp_path / "ages.csv"
        write_small_corpus(corpus)
        write_ages(ages)
        facebook = [line for line in corpus.read_text().splitlines() if '"facebook"' in line]
        posts.write_text("\n".join(facebook) + "\n")
        lex.write_text("term,category,weight\n_intercept,age,20\nfun,age,1.0\n")
        cfg.write_text(f"seed = 1\noutput_dir = {tmp_path / 'out'}\n")
        argv = argv.format(
            corpus=corpus, posts=posts, lex=lex, cfg=cfg, ages=ages, out=tmp_path / "out"
        )
        assert main(argv.split()) == rc
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_train_skips_an_outcome_with_too_few_labels(self, tmp_path, capsys):
        """An outcomes column with fewer than 3 labeled users is skipped with
        a message, and train writes the lexicon of the other outcomes."""
        corpus, ages, lexicon = tmp_path / "c.jsonl", tmp_path / "ages.csv", tmp_path / "lex.csv"
        write_small_corpus(corpus)
        ages.write_text("user_id,age,stress\n" + "".join(
            f"u{i},{20 + 3 * i},{'' if i > 1 else i}\n" for i in range(6)
        ))
        argv = ["train", "--corpus", str(corpus), "--min-words", "1", "--outcomes", str(ages),
                "--outcome", "age", "--outcome", "stress", "--out", str(lexicon)]
        assert main(argv) == 0
        assert "train: skipping stress: fewer than 3 labeled users" in capsys.readouterr().err
        assert set(load_lexicon_csv(lexicon)) == {"age"}


class TestFailedCommandCleanup:
    """A subcommand that fails after it began writing removes what it wrote."""

    def test_features_bad_dictionary_leaves_no_reports(self, tmp_path, capsys):
        corpus, bad = tmp_path / "c.jsonl", tmp_path / "dict.txt"
        write_small_corpus(corpus)
        bad.write_text("fun\n[leisure]\nparty\n")  # an entry before any header
        out = tmp_path / "out"
        argv = ["features", "--corpus", str(corpus), "--min-words", "1"]
        assert main([*argv, "--dictionary", str(bad), "--out-dir", str(out)]) == 2
        assert "dict.txt:1:" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_bad_embeddings_leave_no_reports(self, tmp_path, capsys):
        corpus, ages, bad = tmp_path / "c.jsonl", tmp_path / "ages.csv", tmp_path / "emb.jsonl"
        write_small_corpus(corpus)
        write_ages(ages)
        bad.write_text('{"user_id": "u0", "embedding": [1]}\n{"embedding": [1]}\n')
        out = tmp_path / "out"
        argv = ["evaluate", "--corpus", str(corpus), "--min-words", "1", "--orders", "1",
                "--outcomes", str(ages), "--bootstrap-iterations", "1000",
                "--embeddings-fb", str(bad), "--embeddings-sms", str(bad), "--out-dir", str(out)]
        assert main(argv) == 2
        assert "emb.jsonl:2:" in capsys.readouterr().err
        assert not out.exists()

    def test_output_dir_keeps_files_it_did_not_write(self, tmp_path):
        """A failed block leaves every file as it was, an earlier report of
        the same name included, and removes the directories it made."""
        (tmp_path / "notes.txt").write_text("mine")
        (tmp_path / "a.json").write_text("earlier run")
        (tmp_path / "empty").mkdir()
        for where in (tmp_path, tmp_path / "new" / "deeper", tmp_path / "empty"):
            with pytest.raises(OSError):
                with cli.OutputDir(where) as out:
                    out.json({"a": 1}, "a.json")
                    raise OSError("disk full")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "empty", "notes.txt"]
        assert (tmp_path / "a.json").read_text() == "earlier run"
        assert list((tmp_path / "empty").iterdir()) == []

    def test_output_dir_publishes_every_report_on_success(self, tmp_path):
        """A block that succeeds replaces earlier reports, adds new ones and
        leaves no staging directory; a block that writes nothing makes nothing."""
        (tmp_path / "a.json").write_text("earlier run")
        with cli.OutputDir(tmp_path) as out:
            out.json({"a": 1}, "a.json")
            out.csv([{"x": 1}], ["x"], "b.csv")
            assert not (tmp_path / "b.csv").exists()  # staged until the block ends
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.csv"]
        assert json.loads((tmp_path / "a.json").read_text()) == {"a": 1}
        with cli.OutputDir(tmp_path / "unused"):
            pass
        assert not (tmp_path / "unused").exists()

    def test_output_dir_writes_through_what_is_no_regular_file(self, tmp_path):
        """A report whose name is a symlink is written through to its target,
        which stays a symlink; one whose name is a directory fails its write,
        and no report of that block is published."""
        target = tmp_path / "elsewhere.json"
        target.write_text("earlier run")
        (tmp_path / "a.json").symlink_to(target)
        with cli.OutputDir(tmp_path) as out:
            out.json({"a": 1}, "a.json")
        assert (tmp_path / "a.json").is_symlink()
        assert json.loads(target.read_text()) == {"a": 1}
        (tmp_path / "b.json").mkdir()
        with pytest.raises(IsADirectoryError):
            with cli.OutputDir(tmp_path) as out:
                out.json({"c": 1}, "c.json")
                out.json({"b": 1}, "b.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json", "elsewhere.json"]

    def test_failed_rerun_leaves_the_output_directory_as_it_was(self, tmp_path, capsys):
        """A rerun that fails mid-pipeline, after some stages have written
        their reports, changes no file of the earlier run, adds none and
        removes none."""
        files = make_fixture(tmp_path / "fx", n_users=10, seed=2)
        argv = ["pipeline", "--config", str(files["config"])]
        assert main(argv) == 0
        out = tmp_path / "fx" / "out"
        progress = capsys.readouterr().out  # names each report where it ends up
        assert f"facebook models to {out / 'trained_lexicon_facebook.csv'}\n" in progress
        assert f"pipeline[manifest]: wrote {out / 'manifest.json'}\n" in progress
        before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
        assert len(before) == 16 and out / "manifest.json" in before
        lexicon = files["lexicon"].read_text()
        files["lexicon"].write_text(lexicon.replace("term,", "word,", 1))
        assert main(argv) == 1
        assert "error: stage 'estimates' failed: " in capsys.readouterr().err
        assert {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")} == before

    @pytest.mark.parametrize(
        "argv,setting",
        [
            ("diff --corpus missing.jsonl --out-dir out", "facebook_corpus: no such file"),
            ("train --corpus posts.jsonl --outcomes a_directory --out out/l.csv",
             "outcomes: a_directory is a directory"),
            ("redact --in missing.jsonl --out sub/x.jsonl", "keystroke_log: no such file"),
        ],
        ids=["diff-missing-corpus", "train-directory-outcomes", "redact-missing-log"],
    )
    def test_bad_input_path_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv, setting
    ):
        """A missing input file, or a directory named as one, is refused
        before any input is read: exit 2, an error naming the setting, and
        no output directory."""
        monkeypatch.chdir(tmp_path)
        write_small_corpus(tmp_path / "posts.jsonl")
        (tmp_path / "a_directory").mkdir()
        for name in ("load_corpus_jsonl", "json_lines"):
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("an input was read"))
        assert main(argv.split()) == 2
        assert capsys.readouterr().err.startswith(f"error: {setting}")
        assert not (tmp_path / "out").exists() and not (tmp_path / "sub").exists()


class TestLabeledUsers:
    def test_non_finite_outcome_drops_the_user(self, tmp_path):
        """A ``nan`` outcome cell counts as unlabeled, like a blank one."""
        corpus = tmp_path / "c.jsonl"
        write_small_corpus(corpus)
        lexicons = []
        for cell in ("", "nan"):
            outcomes = tmp_path / f"o{cell}.csv"
            write_ages(outcomes)
            outcomes.write_text(outcomes.read_text().replace("u1,23", f"u1,{cell}"))
            lexicons.append(tmp_path / f"lex{cell}.csv")
            argv = ["train", "--corpus", str(corpus), "--min-words", "1", "--orders", "1"]
            assert main([*argv, "--outcomes", str(outcomes), "--out", str(lexicons[-1])]) == 0
        assert lexicons[0].read_bytes() == lexicons[1].read_bytes()
        assert "age" in load_lexicon_csv(lexicons[1])


class TestConfig:
    def test_flags_set_the_fields_of_their_names(self):
        """--orders sets model_orders; --alpha sets fdr_alpha in diff and
        pipeline, ridge_alpha in train and evaluate; other flags set the field
        of their own name, and an unset pipeline override keeps the file's."""
        parser = cli.build_parser()
        corpus = ["--corpus", __file__, "--min-words", "7"]
        diff = parser.parse_args(["diff", *corpus, "--alpha", "0.1", "--out-dir", "o"])
        cfg = cli.run_config(diff, "diff")
        assert (cfg.fdr_alpha, cfg.ridge_alpha, cfg.min_words) == (0.1, 1.0, 7)
        assert (cfg.facebook_corpus, cfg.output_dir) == (__file__, "o")
        train = parser.parse_args(["train", *corpus, "--outcomes", __file__, "--alpha", "3",
                                   "--orders", "1,2", "--out", "l.csv"])
        cfg = cli.run_config(train, "train")
        assert (cfg.fdr_alpha, cfg.ridge_alpha, cfg.model_orders) == (0.05, 3.0, (1, 2))
        assert cfg.outcomes == __file__
        base = RunConfig(seed=5, min_words=9)
        pipe = parser.parse_args(["pipeline", "--config", "x.cfg", "--alpha", "0.2"])
        cfg = cli.run_config(pipe, "pipeline", base)
        assert (cfg.seed, cfg.min_words, cfg.fdr_alpha) == (5, 9, 0.2)

    def test_parse_and_resolve(self, fixture_dir):
        cfg = RunConfig.from_file(fixture_dir / "pipeline.cfg")
        assert Path(cfg.keystroke_log).is_absolute()
        assert cfg.min_words == 500
        assert cfg.model_orders == (1,)
        assert cfg.apps == ALLOWED_APPS

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "c.cfg"
        bad.write_text("nonsense_key = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            RunConfig.from_file(bad)

    def test_missing_path_rejected(self, tmp_path):
        bad = tmp_path / "c.cfg"
        bad.write_text("keystroke_log = not_there.jsonl\n")
        with pytest.raises(FileNotFoundError):
            RunConfig.from_file(bad)

    def test_every_key_parses_by_its_type(self, tmp_path):
        """Each setting written as a config line reads back as its default."""
        lines = []
        for f in dataclasses.fields(RunConfig):
            value = getattr(RunConfig(), f.name)
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            lines.append(f"{f.name} = {'' if value is None else value}")
        cfg_path = tmp_path / "all.cfg"
        cfg_path.write_text("\n".join(lines) + "\n")
        cfg = RunConfig.from_file(cfg_path)
        assert cfg == dataclasses.replace(RunConfig(), output_dir=str(tmp_path / "out"))

    @pytest.mark.parametrize(
        "spelling,value",
        [("true", True), ("Yes", True), ("ON", True), ("1", True),
         ("false", False), ("no", False), ("Off", False), ("0", False)],
    )
    def test_boolean_spellings(self, tmp_path, spelling, value):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"keep_snapshots = {spelling}\n")
        assert RunConfig.from_file(cfg_path).keep_snapshots is value

    @pytest.mark.parametrize(
        "line,setting",
        [("timeout_ms = 0", "timeout_ms"), ("min_group_fraction = 1.01", "min_group_fraction"),
         ("min_group_fraction = nan", "min_group_fraction"), ("ridge_alpha = 0", "ridge_alpha"),
         ("ridge_alpha = inf", "ridge_alpha"), ("min_words = -1", "min_words"),
         ("nmf_k = 0", "nmf_k")],
    )
    def test_range_checked(self, tmp_path, line, setting):
        bad = tmp_path / "c.cfg"
        bad.write_text(line + "\n")
        with pytest.raises(ValueError, match=setting):
            RunConfig.from_file(bad)

    def test_missing_path_names_the_setting(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="^dictionary: "):
            RunConfig(dictionary=str(tmp_path / "nope.txt"))

    def test_repeated_key_names_its_second_line(self, tmp_path):
        bad = tmp_path / "c.cfg"
        bad.write_text("seed = 1\nmin_words = 5\n# again\nseed = 2\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}:4: repeated config key 'seed'")):
            RunConfig.from_file(bad)

    def test_alpha_range_checked(self, tmp_path):
        bad = tmp_path / "c.cfg"
        bad.write_text("fdr_alpha = 1.5\n")
        with pytest.raises(ValueError, match="fdr_alpha"):
            RunConfig.from_file(bad)


class TestPipeline:
    def test_full_run_outputs(self, fixture_dir):
        rc = main(["pipeline", "--config", str(fixture_dir / "pipeline.cfg")])
        assert rc == 0
        out = fixture_dir / "out"
        expected = {
            "entries.jsonl",
            "exclusions.json",
            "summary.json",
            "ngram_diff.json",
            "ngram_diff.csv",
            "category_diff.json",
            "cloud.json",
            "lexicon_eval.json",
            "trained_lexicon_facebook.csv",
            "eval_report.json",
            "eval_report.csv",
            "embedding_eval.json",
            "importance_depression.json",
            "manifest.json",
        }
        assert expected <= {p.name for p in out.iterdir()}
        exclusions = json.loads((out / "exclusions.json").read_text())
        assert "user_low" in exclusions["min_words"]
        trained = load_lexicon_csv(out / "trained_lexicon_facebook.csv")
        assert "depression" in trained
        cloud = json.loads((out / "cloud.json").read_text())
        diffs = json.loads((out / "ngram_diff.json").read_text())
        assert {c["ngram"] for c in cloud} == {
            r["ngram"] for r in diffs if r["q_significant"] and r["cohens_d"] == r["cohens_d"]
        }

    def test_each_document_tokenized_once(self, fixture_dir, monkeypatch):
        calls = []
        real = features.tokenize
        monkeypatch.setattr(features, "tokenize", lambda text: calls.append(text) or real(text))
        assert main(["pipeline", "--config", str(fixture_dir / "pipeline.cfg")]) == 0
        posts = (fixture_dir / "facebook.jsonl").read_text().splitlines()
        entries = (fixture_dir / "out" / "entries.jsonl").read_text().splitlines()
        assert 0 < len(calls) <= len(posts) + len(entries)

    def test_estimates_and_importance_share_unigram_counts(self, fixture_dir, monkeypatch):
        """The diff, the lexicon estimates, the model tables and importance
        read one count of each corpus: the pipeline walks each corpus's
        tokens through ``features.count_table`` once."""
        walks = []
        real = features.count_table

        def counting(corpora, orders=(1, 2, 3)):
            walks.extend(tuple(map(tuple, corpus._tokens)) for corpus in corpora.values())
            return real(corpora, orders)

        # the CLI's own name and the one that UserCorpus's features call
        monkeypatch.setattr(cli, "count_table", counting)
        monkeypatch.setattr(features, "count_table", counting)
        assert main(["pipeline", "--config", str(fixture_dir / "pipeline.cfg")]) == 0
        report = json.loads((fixture_dir / "out" / "lexicon_eval.json").read_text())
        assert report["models"]  # the estimates stage scored a model
        assert len(walks) >= 2 * report["n_users"] and len(set(walks)) == len(walks)

    def test_trained_bigram_lexicon_estimates_equal_its_predictions(self, tmp_path, monkeypatch):
        """A lexicon written by ``train --orders 1,2`` and fed back as the
        pipeline's ``lexicon`` is scored as it predicts: each estimate is
        ``X @ w + b`` of the user's own 1- and 2-gram frequencies, bigrams
        included."""
        files = make_fixture(tmp_path / "fx", n_users=10, seed=3)
        argv = ["pipeline", "--config", str(files["config"])]
        assert main(argv) == 0
        corpus = tmp_path / "roundtrip.jsonl"
        entries = tmp_path / "fx" / "out" / "entries.jsonl"
        write_two_platform_corpus(files["facebook_corpus"], entries, corpus)
        run = cli.Run(cli.build_parser().parse_args(argv))
        settings = ["--min-words", str(run.cfg.min_words),
                    "--min-group-fraction", str(run.cfg.min_group_fraction)]
        assert main(["train", "--corpus", str(corpus), "--outcomes", str(files["outcomes"]),
                     "--orders", "1,2", *settings, "--out", str(files["lexicon"])]) == 0
        models = load_lexicon_csv(files["lexicon"])
        assert any(" " in term for model in models.values() for term in model.weights)

        estimates: dict[str, list[float]] = {}
        real = cli.apply_lexicon

        def recording(model, freqs):
            estimates.setdefault(model.outcome, []).append(real(model, freqs))
            return estimates[model.outcome][-1]

        monkeypatch.setattr(cli, "apply_lexicon", recording)
        assert main(argv) == 0
        corpora = run.filtered[0]
        users = shared_users(corpora)
        assert set(estimates) == set(models)
        for name, model in models.items():
            keep, _ = labeled_users(users, run.outcomes, name)
            terms = sorted(model.weights)
            w = np.array([model.weights[t] for t in terms])
            want = []
            for platform in ("facebook", "sms"):
                for i in keep:
                    own = logistic_oracle.corpus_ngrams(corpora[(users[i], platform)], (1, 2))
                    want.append(np.array([own.get(t, 0.0) for t in terms]) @ w + model.intercept)
            np.testing.assert_allclose(estimates[name], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("user", ["user00", "ghost"])
    def test_facebook_corpus_holds_only_facebook_records(self, tmp_path, capsys, user):
        """The pipeline's sms corpora come from the keystroke log: an sms
        record in ``facebook_corpus`` is a path:line error, for a user who
        typed messages (user00) and for one who typed none (ghost)."""
        files = make_fixture(tmp_path / "fx", n_users=6, seed=1)
        posts = files["facebook_corpus"]
        n_lines = len(posts.read_text(encoding="utf-8").splitlines())
        with open(posts, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"user_id": user, "platform": "sms", "text": "hi there"}) + "\n")
        assert main(["pipeline", "--config", str(files["config"])]) == 1
        err = capsys.readouterr().err
        assert "error: stage 'corpora' failed: " in err
        where = f"facebook.jsonl:{n_lines + 1}: bad corpus record: "
        assert where + "platform must be 'facebook', got 'sms'" in err

    def test_lexicon_estimates_score_binary_and_degenerate_models(self, tmp_path):
        """A gender model is scored by sign accuracy; a model none of whose
        terms occurs gives constant estimates, reported as degenerate."""
        files = make_fixture(tmp_path / "fx", n_users=10, seed=3)
        with open(files["lexicon"], "a", encoding="utf-8") as fh:
            fh.write("_intercept,gender,-0.004\nhappy,gender,0.3\nfamily,gender,0.4\n")
            fh.write("ok,gender,-0.2\nyeah,gender,0.3\nzzqxvq,stress,1.0\n")
        assert main(["pipeline", "--config", str(files["config"])]) == 0
        report = json.loads((tmp_path / "fx" / "out" / "lexicon_eval.json").read_text())
        n = report["n_users"]
        gender = report["models"]["gender"]
        assert set(gender) == {"metric", "facebook", "sms", "bootstrap"}
        assert gender["metric"] == "accuracy"
        for plat in ("facebook", "sms"):
            assert 0 <= gender[plat] <= 1
            assert gender[plat] * n == pytest.approx(round(gender[plat] * n))  # hits / n
        assert gender["bootstrap"]["delta"] == gender["facebook"] - gender["sms"]
        assert 0 < gender["bootstrap"]["p_value"] <= 1 and gender["bootstrap"]["skipped"] == 0
        assert report["models"]["stress"] == {"metric": "pearson_r", "degenerate": "zero variance"}
        assert report["models"]["depression"]["metric"] == "pearson_r"

    def test_manifest_digest_tracks_input_bytes(self, fixture_dir):
        out = fixture_dir / "out"
        main(["pipeline", "--config", str(fixture_dir / "pipeline.cfg")])
        manifest1 = json.loads((out / "manifest.json").read_text())
        corpus = fixture_dir / "facebook.jsonl"
        original = corpus.read_bytes()
        digest_before = sha256_file(corpus)
        try:
            corpus.write_bytes(original + b"\n")  # blank line: content-neutral
            rc = main(["pipeline", "--config", str(fixture_dir / "pipeline.cfg")])
            assert rc == 0
            manifest2 = json.loads((out / "manifest.json").read_text())
        finally:
            corpus.write_bytes(original)
        key = str(corpus)
        assert manifest1["inputs"][key] == digest_before
        assert manifest2["inputs"][key] != digest_before
        others = [k for k in manifest1["inputs"] if k != key]
        assert all(manifest1["inputs"][k] == manifest2["inputs"][k] for k in others)

    def test_stage_failure_removes_partial_outputs(self, tmp_path):
        fixture = tmp_path / "fx"
        files = make_fixture(fixture, n_users=6, seed=1)
        # corrupt the outcomes file so a mid-pipeline stage fails
        files["outcomes"].write_text("user_id,age\nuser00,notanumber\n")
        rc = main(["pipeline", "--config", str(files["config"])])
        assert rc == 1
        out = fixture / "out"
        leftovers = [p.name for p in out.iterdir()] if out.exists() else []
        assert "eval_report.json" not in leftovers
        assert "entries.jsonl" not in leftovers

    @pytest.mark.parametrize("stage", cli.PIPELINE)
    def test_failed_stage_named_and_its_run_leaves_no_reports(
        self, tmp_path, capsys, monkeypatch, stage
    ):
        """Each stage fails after writing its own reports: the error names
        it, the exit code is 1, and no report of the run is left."""
        files = make_fixture(tmp_path / "fx", n_users=6, seed=1)
        real = cli.STAGES[stage]

        def failing(run):
            real(run)
            raise OSError("disk full")

        monkeypatch.setitem(cli.STAGES, stage, failing)
        assert main(["pipeline", "--config", str(files["config"])]) == 1
        assert f"error: stage {stage!r} failed: disk full" in capsys.readouterr().err
        assert not (tmp_path / "fx" / "out").exists()

    def test_pipeline_error_names_stage(self, tmp_path, capsys):
        fixture = tmp_path / "fx2"
        files = make_fixture(fixture, n_users=6, seed=2)
        files["outcomes"].write_text("user_id,age\nuser00,bad\n")
        assert main(["pipeline", "--config", str(files["config"])]) == 1
        assert "error: stage 'estimates' failed: " in capsys.readouterr().err

    def test_overrides(self, tmp_path):
        fixture = tmp_path / "fx3"
        files = make_fixture(fixture, n_users=6, seed=4)
        rc = main(
            [
                "pipeline",
                "--config",
                str(files["config"]),
                "--seed",
                "99",
                "--min-words",
                "5",
            ]
        )
        assert rc == 0
        manifest = json.loads((fixture / "out" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 99
        assert manifest["config"]["min_words"] == 5

    def test_manifest_digests_bundled_detector_data(self, tmp_path):
        fixture = tmp_path / "fx4"
        files = make_fixture(fixture, n_users=6, seed=5)
        assert main(["pipeline", "--config", str(files["config"])]) == 0
        inputs = json.loads((fixture / "out" / "manifest.json").read_text())["inputs"]
        data = importlib.resources.files("scrublang") / "data"
        for name in ("regex_catalogue.tsv", "sample_gazetteer.tsv"):
            assert inputs[f"scrublang/data/{name}"] == sha256_file(data / name)

    def test_diff_write_failure_removes_diff_reports(self, tmp_path, monkeypatch):
        fixture = tmp_path / "fx5"
        files = make_fixture(fixture, n_users=6, seed=1)
        real_write_csv = cli.write_csv

        def failing_write_csv(rows, fieldnames, path):
            if Path(path).name == "category_diff.csv":
                raise OSError("disk full")
            real_write_csv(rows, fieldnames, path)

        monkeypatch.setattr(cli, "write_csv", failing_write_csv)
        assert main(["pipeline", "--config", str(files["config"])]) == 1
        assert not (fixture / "out").exists()

    def test_reports_equal_subcommand_reports(self, tmp_path):
        """pipeline and the stand-alone subcommands, given the config's
        settings, write byte-identical reports."""
        fixture = tmp_path / "fx"
        files = make_fixture(fixture, n_users=10, seed=3)
        assert main(["pipeline", "--config", str(files["config"])]) == 0
        cfg = RunConfig.from_file(files["config"])
        piped = Path(cfg.output_dir)
        corpus = tmp_path / "corpus.jsonl"
        write_two_platform_corpus(files["facebook_corpus"], piped / "entries.jsonl", corpus)
        sub = tmp_path / "sub"
        common = ["--corpus", str(corpus), "--min-words", str(cfg.min_words)]
        model = [
            "--alpha", str(cfg.ridge_alpha),
            "--orders", ",".join(map(str, cfg.model_orders)),
            "--min-group-fraction", str(cfg.min_group_fraction),
            "--outcomes", cfg.outcomes,
        ]
        runs = [
            [
                "diff", *common,
                "--dictionary", cfg.dictionary,
                "--alpha", str(cfg.fdr_alpha),
                "--min-group-fraction", str(cfg.min_group_fraction),
                "--out-dir", str(sub),
            ],
            ["train", *common, *model, "--out", str(sub / "trained_lexicon_facebook.csv")],
            [
                "evaluate", *common, *model,
                "--bootstrap-iterations", str(cfg.bootstrap_iterations),
                "--seed", str(cfg.seed),
                "--embeddings-fb", cfg.embeddings_fb,
                "--embeddings-sms", cfg.embeddings_sms,
                "--nmf-k", str(cfg.nmf_k),
                "--nmf-iterations", str(cfg.nmf_iterations),
                "--out-dir", str(sub),
            ],
            [
                "importance", *common,
                "--lexicon", cfg.lexicon,
                "--outcome", "depression",
                "--out-dir", str(sub),
            ],
        ]
        for argv in runs:
            assert main(argv) == 0, argv[0]
        shared = sorted(p.name for p in sub.iterdir())
        assert len(shared) == 11
        for name in shared:
            assert (sub / name).read_bytes() == (piped / name).read_bytes(), name
