"""Input readers and report persistence.

Every CSV input is read by :func:`_csv_rows` and every JSON-lines input by
:func:`spans.json_lines`; README's File formats section states the formats
and the rules they enforce.  Reports are JSON written with sorted keys
(byte-reproducible) plus CSV mirrors of tabular data; a run manifest records
seeds, thresholds, and a SHA-256 digest per input file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
from itertools import zip_longest
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .modeling import BINARY_OUTCOMES, LexiconModel
from .spans import json_lines, json_record, utf8_lines, wrong_json_type

GENDER_CODES = {
    "f": 1.0,
    "female": 1.0,
    "1": 1.0,
    "+1": 1.0,
    "m": -1.0,
    "male": -1.0,
    "-1": -1.0,
}


def _outcome_value(column: str, raw: str | None) -> float | None:
    raw = (raw or "").strip()
    if not raw:
        return None
    if column not in BINARY_OUTCOMES:
        return float(raw)
    if raw.lower() not in GENDER_CODES:
        raise ValueError(f"unrecognized {column} value {raw!r}")
    return GENDER_CODES[raw.lower()]


def _csv_rows(
    path: str | Path, kind: str, required: Sequence[str], parse: Callable[[dict], Any]
) -> Iterator[tuple[int, Any]]:
    """``(line number, parse(row))`` for each non-empty row of the CSV file
    ``path``, read by :func:`spans.utf8_lines`, ``row`` mapping each header
    column to its cell (blank past the end of a short row).  An empty file, or
    a header that lacks a ``required`` column, is an error naming ``path``; a
    header that names a column twice, a row with more cells than the header or
    that breaks the quoting rules (``strict``), or one ``parse`` rejects,
    names ``path:line``."""
    reader = csv.reader((line for _, line in utf8_lines(path, newline="")), strict=True)
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty {kind} file")
        if missing := [c for c in required if c not in header]:
            raise ValueError(f"{path}: {kind} CSV needs a {missing[0]} column")
        if len(set(header)) < len(header):
            twice = next(c for c in header if header.count(c) > 1)
            raise ValueError(f"{path}:{reader.line_num}: the header names {twice!r} twice")
        for cells in filter(None, reader):
            try:
                if len(cells) > len(header):
                    raise ValueError("more cells than header columns")
                record = parse(dict(zip_longest(header, cells, fillvalue="")))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{reader.line_num}: bad {kind} row: {exc}") from exc
            yield reader.line_num, record
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: bad {kind} row: {exc}") from exc


def _put_once(rows: dict, key, value, where: str, label: str) -> None:
    """``rows[key] = value``; a key already read is an error at ``where``."""
    if key in rows:
        raise ValueError(f"{where}: repeated {label}")
    rows[key] = value


def _outcome_row(row: dict) -> tuple[str, dict[str, float | None]]:
    user = row.pop("user_id")
    return user, {col: _outcome_value(col, raw) for col, raw in row.items()}


def load_outcomes_csv(path: str | Path) -> dict[str, dict[str, float | None]]:
    """Outcome columns per user; missing cells map to None.  A malformed row,
    or a user's second row, raises ``ValueError`` naming ``path:line``."""
    out: dict[str, dict[str, float | None]] = {}
    for lineno, (user, values) in _csv_rows(path, "outcomes", ("user_id",), _outcome_row):
        _put_once(out, user, values, f"{path}:{lineno}", f"user_id {user!r}")
    return out


def _lexicon_row(row: dict) -> tuple[str, str, float]:
    term = "_intercept" if row["term"].lower() == "_intercept" else row["term"]
    if not np.isfinite(weight := float(row["weight"])):
        raise ValueError(f"weight {row['weight']!r} is not finite")
    return term, row["category"], weight


def load_lexicon_csv(path: str | Path) -> dict[str, LexiconModel]:
    """One LexiconModel per category from a ``term,category,weight`` CSV.  A row
    with a non-numeric or non-finite weight or more cells than the header, or a
    repeated (term, category) pair, raises ``ValueError`` naming ``path:line``."""
    weights: dict[str, dict[str, float]] = {}  # category -> term -> weight, intercept too
    rows = _csv_rows(path, "lexicon", ("term", "category", "weight"), _lexicon_row)
    for lineno, (term, cat, w) in rows:
        label = f"term {term!r} in category {cat!r}"
        _put_once(weights.setdefault(cat, {}), term, w, f"{path}:{lineno}", label)
    return {
        cat: LexiconModel(intercept=terms.pop("_intercept", 0.0), weights=terms, outcome=cat)
        for cat, terms in sorted(weights.items())
    }


def save_lexicon_csv(models: Mapping[str, LexiconModel], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["term", "category", "weight"])
        for cat in sorted(models):
            model = models[cat]
            writer.writerow(["_intercept", cat, repr(model.intercept)])
            for term in sorted(model.weights):
                writer.writerow([term, cat, repr(model.weights[term])])


_parse_embedding = json_record({"user_id": str, "embedding": list})


def _finite_vector(values: Iterable) -> list[float]:
    vector = [float(v) for v in values]
    if not np.isfinite(vector).all():
        bad = next(v for v, x in zip(values, vector) if not np.isfinite(x))
        raise ValueError(f"embedding value {bad!r} is not finite")
    return vector


def _embedding_record(line: str) -> tuple[str, list[float]]:
    user, values = _parse_embedding(line)
    if not all(type(v) in (int, float) for v in values):
        raise wrong_json_type("embedding", "array of numbers", values)
    return user, _finite_vector(values)


def _embedding_row(row: dict) -> tuple[str, list[float]]:
    user = row.pop("user_id")
    return user, _finite_vector(row.values())


def load_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """User id -> embedding vector, in file order.  A malformed row (a JSON
    line needs a string ``user_id`` and an array of numbers, not booleans), a
    NaN or infinite value, a row whose width differs from the first row's, or
    a second row for the same user, raises ``ValueError`` naming ``path:line``."""
    path = Path(path)
    if path.suffix in (".jsonl", ".ndjson"):
        records = json_lines(path, "embedding record", _embedding_record)
    else:
        records = _csv_rows(path, "embeddings", ("user_id",), _embedding_row)
    rows: dict[str, list[float]] = {}
    for lineno, (user, values) in records:
        where = f"{path}:{lineno}"
        if rows and len(values) != width:
            raise ValueError(f"{where}: {len(values)} embedding values, the first row has {width}")
        _put_once(rows, user, values, where, f"user_id {user!r}")
        width = len(values)
    if not rows:
        raise ValueError(f"{path}: no embedding rows")
    return {user: np.asarray(r, dtype=float) for user, r in rows.items()}


def write_json(obj, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def write_csv(rows: Iterable[Mapping], fieldnames: Sequence[str], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in fieldnames})


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    path: str | Path,
    config: Mapping,
    inputs: Mapping[str, str | Path],
    package_version: str,
) -> None:
    """Write the run manifest; ``inputs`` maps each input's manifest key to
    the file whose SHA-256 digest is recorded under it, and ``versions``
    holds the python, numpy and regex versions that ran."""
    from importlib import metadata

    versions = {"python": platform.python_version()}
    versions.update((name, metadata.version(name)) for name in ("numpy", "regex"))
    manifest = {
        "package_version": package_version,
        "versions": versions,
        "config": dict(sorted(config.items())),
        "inputs": {key: sha256_file(inputs[key]) for key in sorted(inputs)},
    }
    write_json(manifest, path)
