"""File formats and report persistence.

Formats supported:

* outcomes CSV — ``user_id`` column plus one column per outcome; gender is
  accepted as m/f/male/female/-1/1 and coded female=+1, male=-1; blank cells
  are missing values;
* lexicon weight CSV — header ``term,category,weight``; the term
  ``_intercept`` sets the model intercept for its category;
* embeddings — CSV (``user_id`` then one column per dimension) or JSON lines
  (``{"user_id": "...", "embedding": [...]}``);
* reports — JSON written with sorted keys (byte-reproducible) plus CSV mirrors
  of tabular data;
* run manifests — seeds, thresholds, and a SHA-256 digest per input file.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .modeling import LexiconModel
from .spans import numbered_lines

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
    if column != "gender":
        return float(raw)
    if raw.lower() not in GENDER_CODES:
        raise ValueError(f"unrecognized gender value {raw!r}")
    return GENDER_CODES[raw.lower()]


def load_outcomes_csv(path: str | Path) -> dict[str, dict[str, float | None]]:
    """Outcome columns per user; missing cells map to None.  A malformed row,
    or a user's second row, raises ``ValueError`` naming ``path:line``."""
    out: dict[str, dict[str, float | None]] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "user_id" not in reader.fieldnames:
            raise ValueError(f"{path}: outcomes CSV needs a user_id column")
        for row in reader:
            user = row.pop("user_id")
            if user in out:
                raise ValueError(f"{path}:{reader.line_num}: repeated user_id {user!r}")
            try:
                if None in row:
                    raise ValueError("more cells than header columns")
                out[user] = {col: _outcome_value(col, raw) for col, raw in row.items()}
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: bad outcomes row: {exc}") from exc
    return out


def load_lexicon_csv(path: str | Path) -> dict[str, LexiconModel]:
    """One LexiconModel per category from a ``term,category,weight`` CSV.  A row
    with a non-numeric weight or more cells than the header, or a repeated
    (term, category) pair, raises ``ValueError`` naming ``path:line``."""
    weights: dict[str, dict[str, float]] = {}  # category -> term -> weight, intercept too
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        required = {"term", "category", "weight"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: lexicon CSV needs term,category,weight columns")
        for row in reader:
            term, cat = row["term"], row["category"]
            where = f"{path}:{reader.line_num}"
            if None in row:
                raise ValueError(f"{where}: bad lexicon row: more cells than header columns")
            try:
                w = float(row["weight"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: bad lexicon weight: {exc}") from exc
            term = "_intercept" if term.lower() == "_intercept" else term
            terms = weights.setdefault(cat, {})
            if term in terms:
                raise ValueError(f"{where}: repeated term {term!r} in category {cat!r}")
            terms[term] = w
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


def load_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """User id -> embedding vector, in file order.  A malformed row (a JSON
    line needs a string ``user_id`` and an array of numbers, not booleans), or
    a second row for the same user, raises ``ValueError`` naming ``path:line``."""
    path = Path(path)
    rows: dict[str, list[float]] = {}
    if path.suffix in (".jsonl", ".ndjson"):
        for lineno, line in numbered_lines(path):
            try:
                d = json.loads(line)
                user, values = d["user_id"], d["embedding"]
                if type(user) is not str or type(values) is not list:
                    raise TypeError("user_id must be a JSON string and embedding a JSON array")
                if not all(type(v) in (int, float) for v in values):
                    raise TypeError("embedding values must be JSON numbers")
                values = [float(v) for v in values]
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: bad embedding record: {exc}") from exc
            if user in rows:
                raise ValueError(f"{path}:{lineno}: repeated user_id {user!r}")
            rows[user] = values
    else:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty embeddings file")
            if not header or header[0] != "user_id":
                raise ValueError(f"{path}: embeddings CSV must start with a user_id column")
            for row in reader:
                if not row:
                    continue
                if row[0] in rows:
                    raise ValueError(f"{path}:{reader.line_num}: repeated user_id {row[0]!r}")
                try:
                    rows[row[0]] = [float(v) for v in row[1:]]
                except ValueError as exc:
                    raise ValueError(f"{path}:{reader.line_num}: bad embedding row: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no embedding rows")
    widths = {len(r) for r in rows.values()}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent embedding widths {sorted(widths)}")
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
    the file whose SHA-256 digest is recorded under it."""
    manifest = {
        "package_version": package_version,
        "config": dict(sorted(config.items())),
        "inputs": {key: sha256_file(inputs[key]) for key in sorted(inputs)},
    }
    write_json(manifest, path)
