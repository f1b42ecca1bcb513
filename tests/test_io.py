"""Input readers: one JSON-lines and one CSV reader under every loader, so
each loader names a malformed record by ``path:line`` the same way; a
spreadsheet export may start with a byte-order mark."""

from __future__ import annotations

import json
import platform
import re
from importlib import metadata

import numpy as np
import pytest
import scipy

from scrublang import io, modeling
from scrublang.features import load_corpus_jsonl
from scrublang.io import load_embeddings, load_lexicon_csv, load_outcomes_csv
from scrublang.redactor import KeystrokeEvent
from scrublang.spans import json_lines

BOM = "\ufeff"


def write(path, text: str):
    """``text`` as UTF-8 after a byte-order mark; a lone surrogate U+DC80..U+DCFF
    in ``text`` writes the one byte 0x80..0xff that no UTF-8 character holds."""
    path.write_text(BOM + text, encoding="utf-8", errors="surrogateescape")
    return path


def test_outcomes_csv_with_byte_order_mark(tmp_path):
    path = write(tmp_path / "o.csv", "user_id,age\nu0,20\n")
    assert load_outcomes_csv(path) == {"u0": {"age": 20.0}}


def test_binary_outcomes_are_read_as_they_are_scored(tmp_path, monkeypatch):
    """``modeling.BINARY_OUTCOMES`` decides which columns read the +/-1 codes,
    and a value outside the codes is an error naming its column."""
    assert io.BINARY_OUTCOMES is modeling.BINARY_OUTCOMES
    monkeypatch.setattr(io, "BINARY_OUTCOMES", frozenset({"gender", "smoker"}))
    path = write(tmp_path / "o.csv", "user_id,smoker,age\nu0,f,20\nu1,-1,21\n")
    assert load_outcomes_csv(path) == {
        "u0": {"smoker": 1.0, "age": 20.0},
        "u1": {"smoker": -1.0, "age": 21.0},
    }
    write(path, "user_id,smoker\nu0,maybe\n")
    where = "o.csv:2: bad outcomes row: unrecognized smoker value 'maybe'"
    with pytest.raises(ValueError, match=re.escape(where)):
        load_outcomes_csv(path)


def test_lexicon_csv_with_byte_order_mark(tmp_path):
    path = write(tmp_path / "lex.csv", "term,category,weight\n_intercept,age,1.5\nfun,age,2\n")
    (model,) = load_lexicon_csv(path).values()
    assert (model.intercept, model.weights) == (1.5, {"fun": 2.0})


@pytest.mark.parametrize("weight", ["nan", "inf", "-Infinity", "1e999"])
def test_lexicon_weight_must_be_finite(tmp_path, weight):
    path = write(tmp_path / "lex.csv", f"term,category,weight\nfun,age,1\nok,age,{weight}\n")
    where = f"lex.csv:3: bad lexicon row: weight {weight!r} is not finite"
    with pytest.raises(ValueError, match=re.escape(where)):
        load_lexicon_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
def test_embedding_csv_value_must_be_finite(tmp_path, cell):
    path = write(tmp_path / "emb.csv", f"user_id,d0,d1\nu0,1,2\nu1,3,{cell}\n")
    where = f"emb.csv:3: bad embeddings row: embedding value {cell!r} is not finite"
    with pytest.raises(ValueError, match=re.escape(where)):
        load_embeddings(path)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_embedding_json_value_must_be_finite(tmp_path, value):
    path = tmp_path / "emb.jsonl"
    path.write_text(json.dumps(VECTOR) + f'\n{{"user_id": "u1", "embedding": [3, {value}]}}\n')
    where = f"emb.jsonl:2: bad embedding record: embedding value {float(value)!r} is not finite"
    with pytest.raises(ValueError, match=re.escape(where)):
        load_embeddings(path)


def test_embeddings_csv_with_byte_order_mark(tmp_path):
    path = write(tmp_path / "emb.csv", "user_id,d0,d1\nu0,1,2\n")
    ((user, vector),) = load_embeddings(path).items()
    assert user == "u0" and np.array_equal(vector, [1.0, 2.0])


def read_keystroke_log(path):
    """The keystroke log as ``scrublang redact`` reads it."""
    return [event for _, event in json_lines(path, "keystroke event", KeystrokeEvent.from_json)]


EVENT = {"user_id": "u0", "timestamp": 1, "app_id": "sms", "current_text": "hi"}
POST = {"user_id": "u0", "platform": "sms", "text": "hi"}
VECTOR = {"user_id": "u0", "embedding": [1.0, 2.0]}
JSON_LOADERS = {
    "keystrokes.jsonl": (read_keystroke_log, EVENT, "current_text", "JSON string"),
    "corpus.jsonl": (load_corpus_jsonl, POST, "text", "JSON string"),
    "emb.jsonl": (load_embeddings, VECTOR, "embedding", "JSON array"),
}
CSV_LOADERS = {  # loader, a valid file, a row with an extra cell, a repeated key and its name
    "o.csv": (load_outcomes_csv, "user_id,age\nu0,20\n", "u1,21,9\n", "u0,22\n", "user_id 'u0'"),
    "lex.csv": (load_lexicon_csv, "term,category,weight\nfun,age,1\n", "ok,age,2,9\n",
                "fun,age,3\n", "term 'fun' in category 'age'"),
    "emb.csv": (load_embeddings, "user_id,d0\nu0,1\n", "u1,2,9\n", "u0,3\n", "user_id 'u0'"),
}


def json_cases():
    for name, (_, good, field, kind) in JSON_LOADERS.items():
        missing = {k: v for k, v in good.items() if k != field}
        not_an_object = json.dumps(list(good.values()))
        yield name, "not-an-object", [not_an_object], "record must be a JSON object"
        yield name, "missing-field", [json.dumps(missing)], f"{field} must be a {kind}, got nothing"
        yield name, "wrong-type", [json.dumps({**good, field: True})], f"{field} must be a {kind}"
        if name == "emb.jsonl":
            yield name, "repeated-key", [json.dumps(good)], "repeated user_id 'u0'"
        bad_byte = json.dumps(good).replace("u0", "u\udcff0")
        yield name, "invalid-utf8", [bad_byte], "invalid UTF-8 byte 0xff"
        yield name, "nested-too-deep", ["[" * 200_000], "maximum recursion depth exceeded"


def csv_cases():
    for name, (_, text, extra_cell, repeated, key) in CSV_LOADERS.items():
        yield name, "extra-cell", text + extra_cell, "more cells than header columns"
        yield name, "repeated-key", text + repeated, f"repeated {key}"
        yield name, "invalid-utf8", text + "\udcc3(,1\n", "invalid UTF-8 byte 0xc3"
        # the bad byte's line, though the row it is in ends on the next one
        yield name, "invalid-utf8-in-a-quoted-cell", text + '"\udcff\nu9",1\n', "byte 0xff"
        yield name, "quote-left-open", text + '"u9,1', "unexpected end of data"
        yield name, "text-after-a-closing-quote", text + '"u9"x,1\n', "',' expected after '\"'"
        yield name, "cell-over-the-field-limit", text + "u" * 131_073 + ",1\n", "field larger"


@pytest.mark.parametrize(
    "name,case,lines,message", list(json_cases()), ids=[f"{c[0]}-{c[1]}" for c in json_cases()]
)
def test_json_lines_loaders_name_a_bad_record_by_path_and_line(
    tmp_path, name, case, lines, message
):
    loader, good = JSON_LOADERS[name][:2]
    path = tmp_path / name
    text = "\n".join([json.dumps(good), "", *lines]) + "\n"
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: ") + ".*" + re.escape(message)):
        loader(path)


@pytest.mark.parametrize("name", ["keystrokes.jsonl", "corpus.jsonl"])
def test_json_values_that_do_not_align_with_lines_fail_on_the_first_line(tmp_path, name):
    """Joined with commas into one JSON array, as a decode of many lines at
    once might join them, these three lines make three objects; read line by
    line, line 1 holds two values and fails."""
    lines = ['{"a":1}, {"b":2}', '{"c":[1', "2]}"]
    assert len(json.loads("[" + ",".join(lines) + "]")) == 3
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: ") + ".*Extra data"):
        JSON_LOADERS[name][0](path)


@pytest.mark.parametrize(
    "name,case,text,message", list(csv_cases()), ids=[f"{c[0]}-{c[1]}" for c in csv_cases()]
)
def test_csv_loaders_name_a_bad_row_by_path_and_line(tmp_path, name, case, text, message):
    path = write(tmp_path / name, text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: ") + ".*" + re.escape(message)):
        CSV_LOADERS[name][0](path)


@pytest.mark.parametrize("name", list(CSV_LOADERS))
def test_csv_header_that_names_a_column_twice_is_an_error(tmp_path, name):
    """Read by column name, a repeated name would merge two columns."""
    header, row = CSV_LOADERS[name][1].splitlines()
    last = header.split(",")[-1]
    path = write(tmp_path / name, f"{header},{last}\n{row},7\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: the header names {last!r} twice")):
        CSV_LOADERS[name][0](path)


@pytest.mark.parametrize("name", list(CSV_LOADERS))
def test_csv_header_that_breaks_the_quoting_rules_names_line_1(tmp_path, name):
    header, row = CSV_LOADERS[name][1].splitlines()
    path = write(tmp_path / name, f'"{header}"x\n{row}\n')
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: ") + ".*expected after"):
        CSV_LOADERS[name][0](path)


def test_csv_quote_inside_an_unquoted_cell_or_doubled_in_a_quoted_one_reads(tmp_path):
    path = write(tmp_path / "o.csv", 'user_id,age\nab"c,1\n"""",2\n')
    assert load_outcomes_csv(path) == {'ab"c': {"age": 1.0}, '"': {"age": 2.0}}


def test_corpus_platform_is_facebook_or_sms(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [POST, {**POST, "platform": "twitter"}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    expected = f"{path}:2: bad corpus record: platform must be 'facebook' or 'sms', got 'twitter'"
    with pytest.raises(ValueError, match=re.escape(expected)):
        load_corpus_jsonl(path)


def test_embedding_width_error_names_the_first_row_that_differs(tmp_path):
    path = tmp_path / "emb.jsonl"
    rows = [VECTOR, {"user_id": "u1", "embedding": [3, 4]}, {"user_id": "u2", "embedding": [5]}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    expected = f"{path}:3: 1 embedding values, the first row has 2"
    with pytest.raises(ValueError, match=re.escape(expected)):
        load_embeddings(path)


def test_manifest_records_the_library_versions(tmp_path):
    source = tmp_path / "in.txt"
    source.write_text("x\n")
    io.write_manifest(tmp_path / "manifest.json", {"seed": 1}, {"corpus": source}, "0.1.0")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"package_version", "versions", "config", "inputs"}
    assert manifest["versions"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "regex": metadata.version("regex"),
    }
