"""Input readers: a spreadsheet export may start with a byte-order mark."""

from __future__ import annotations

import numpy as np

from scrublang.io import load_embeddings, load_lexicon_csv, load_outcomes_csv

BOM = "\ufeff"


def write(path, text: str):
    path.write_text(BOM + text, encoding="utf-8")
    return path


def test_outcomes_csv_with_byte_order_mark(tmp_path):
    path = write(tmp_path / "o.csv", "user_id,age\nu0,20\n")
    assert load_outcomes_csv(path) == {"u0": {"age": 20.0}}


def test_lexicon_csv_with_byte_order_mark(tmp_path):
    path = write(tmp_path / "lex.csv", "term,category,weight\n_intercept,age,1.5\nfun,age,2\n")
    (model,) = load_lexicon_csv(path).values()
    assert (model.intercept, model.weights) == (1.5, {"fun": 2.0})


def test_embeddings_csv_with_byte_order_mark(tmp_path):
    path = write(tmp_path / "emb.csv", "user_id,d0,d1\nu0,1,2\n")
    ((user, vector),) = load_embeddings(path).items()
    assert user == "u0" and np.array_equal(vector, [1.0, 2.0])
