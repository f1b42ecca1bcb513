"""Character-range annotations, the span algebra and the line readers of text inputs.

A :class:`RedactionSpan` marks a half-open character range ``[start, end)`` of
some string together with one or more tag labels.  Spans carrying more than one
tag are *compound* (they arise when independently detected regions only partly
overlap and their labels are merged).  All functions here keep span lists in
canonical form: non-overlapping, sorted by ``start``.
"""

from __future__ import annotations

import functools
import json
import operator
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterator

# Placeholder grammar: lowercase labels joined by "|" inside one angle-bracket
# pair, e.g. "<phone>", "<work of art>" or "<date|phone>".  A label holds spaces
# and underscores only inside it: a placeholder ending in " >" would spell the
# bigram id of a "<"-emoticon and ">", so one id would name two table columns.
LABEL_RE = re.compile(r"[a-z](?:[a-z0-9_ ]*[a-z0-9_])?")
PLACEHOLDER_RE = re.compile(rf"<{LABEL_RE.pattern}(?:\|{LABEL_RE.pattern})*>")


_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _plain(value):
    if type(value) in _SCALARS:
        return value
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


class Record:
    """Mixin for dataclass records whose fields are their serialized layout.

    :meth:`to_dict` maps each field name to its value, writing nested records
    as dicts, tuples as lists and dict values the same way.  Unlike
    ``dataclasses.asdict`` it copies nothing else, which keeps it cheap on the
    per-row and per-entry paths.
    """

    def to_dict(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in _field_names(type(self))}


def straight_apostrophes(text: str) -> str:
    """``text`` with the typographic apostrophe ’ (U+2019) read as '.  One
    character stands for one, so offsets into ``text`` still hold."""
    return text.replace("’", "'")


# A byte that is no part of a UTF-8 character, as the "surrogateescape" error
# handler reads it: one lone surrogate U+DC80..U+DCFF per byte.
_UNDECODED = re.compile("[\udc80-\udcff]")


def utf8_lines(source, newline: str | None) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of the UTF-8 text file ``source``
    (a path or a bundled resource), read lazily with ``newline`` as
    :func:`open` takes it; a leading byte-order mark is dropped.  A byte that
    is not UTF-8 raises ``ValueError`` naming ``source:line``.  Only a line
    that is not ASCII is searched for one, so an ASCII line costs one test."""
    source = Path(source) if isinstance(source, str) else source
    with source.open(encoding="utf-8-sig", errors="surrogateescape", newline=newline) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.isascii() and (bad := _UNDECODED.search(line)):
                byte = ord(bad[0]) - 0xDC00
                raise ValueError(f"{source}:{lineno}: invalid UTF-8 byte 0x{byte:02x}")
            yield lineno, line


def numbered_lines(source, comments: bool = False) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each non-blank line of :func:`utf8_lines`,
    without its ending.  A line ends at ``\\n``, ``\\r`` or ``\\r\\n`` only, so
    a JSON string may hold U+2028, U+2029 or U+0085.  With ``comments``, lines
    whose first non-blank character is ``#`` are skipped too."""
    for lineno, line in utf8_lines(source, None):
        text = line.strip()
        if text and not (comments and text.startswith("#")):
            yield lineno, line.rstrip("\n")


_JSON_NAMES = {str: "string", int: "integer", bool: "boolean", list: "array"}
_MISSING = object()


def wrong_json_type(name: str, kind: str, value) -> TypeError:
    """The one error for a JSON value that is not of its field's type."""
    got = "nothing" if value is _MISSING else json.dumps(value, ensure_ascii=False)
    return TypeError(f"{name} must be a JSON {kind}, got {got}")


def json_record(types: dict[str, type], **optional) -> Callable[[str], tuple]:
    """A parser of one JSON-lines line into the values of ``types``' fields,
    each of its JSON type, never coerced (an ``optional`` field may be left
    out); a valid line costs one compare of its type tuple."""
    names, want = tuple(types), tuple(types.values())
    defaults = tuple(optional.get(name, _MISSING) for name in names)
    every_field = operator.itemgetter(*names)  # a tuple, as ``types`` has two or more

    def parse(line: str) -> tuple:
        record = json.loads(line)
        if type(record) is not dict:
            raise wrong_json_type("record", "object", record)
        try:
            values = every_field(record)
        except KeyError:
            values = tuple(map(record.get, names, defaults))
        if tuple(map(type, values)) != want:
            for name, kind, value in zip(names, want, values):
                if type(value) is not kind:
                    raise wrong_json_type(name, _JSON_NAMES[kind], value)
        return values

    return parse


def json_lines(path, what: str, parse: Callable[[str], Any]) -> Iterator[tuple[int, Any]]:
    """``(line number, parse(line))`` for each line of the JSON-lines file
    ``path``, read by :func:`numbered_lines`; a line that ``parse`` rejects
    raises ``ValueError`` naming ``path:line`` (``bad <what>: ...``)."""
    for lineno, line in numbered_lines(path):
        try:
            record = parse(line)
        except (TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ValueError(f"{path}:{lineno}: bad {what}: {exc}") from exc
        yield lineno, record


@dataclass(frozen=True)
class RedactionSpan(Record):
    """A tagged half-open character range ``[start, end)``.

    Attributes:
        start: Inclusive character index.
        end: Exclusive character index; ``start < end``.
        tags: Tag labels, sorted and deduplicated.  ``len(tags) > 1`` marks a
            compound tag.
    """

    start: int
    end: int
    tags: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid span range [{self.start}, {self.end})")
        if not self.tags:
            raise ValueError("span must carry at least one tag")
        canon = tuple(sorted(set(self.tags)))
        if canon != self.tags:
            object.__setattr__(self, "tags", canon)

    def overlaps(self, other: RedactionSpan) -> bool:
        return self.start < other.end and other.start < self.end

    def placeholder(self) -> str:
        """Render the span's tag placeholder, e.g. ``<date|phone>``."""
        return "<" + "|".join(self.tags) + ">"


def span(start: int, end: int, *tags: str) -> RedactionSpan:
    """Shorthand constructor used heavily in tests."""
    return RedactionSpan(start, end, tuple(tags))


def merge_spans(spans: list[RedactionSpan]) -> list[RedactionSpan]:
    """Merge overlapping spans into single spans with unioned tags.

    The union of two partially overlapping regions becomes one span covering
    ``[min(starts), max(ends))`` carrying both tag sets (a compound tag).
    Adjacent-but-disjoint spans are NOT merged.  Result is sorted by start.
    """
    if not spans:
        return []
    ordered = sorted(spans, key=lambda s: (s.start, s.end))
    merged: list[RedactionSpan] = [ordered[0]]
    for cur in ordered[1:]:
        prev = merged[-1]
        if cur.start < prev.end:  # overlap
            merged[-1] = RedactionSpan(
                prev.start, max(prev.end, cur.end), tuple(set(prev.tags) | set(cur.tags))
            )
        else:
            merged.append(cur)
    return merged


def clip_spans(spans: list[RedactionSpan], length: int) -> list[RedactionSpan]:
    """Clip spans to a string of ``length`` chars, dropping ones that fall out."""
    out = []
    for s in spans:
        if s.start >= length:
            continue
        out.append(RedactionSpan(s.start, min(s.end, length), s.tags))
    return out


def render_redacted(text: str, spans: list[RedactionSpan]) -> tuple[str, list[RedactionSpan]]:
    """Replace each span of ``text`` by its placeholder.

    ``spans`` must be canonical (non-overlapping, sorted).  Returns the
    redacted string plus the placeholder locations *on the redacted string*,
    so consumers can locate what was removed without seeing it.
    """
    parts: list[str] = []
    out_spans: list[RedactionSpan] = []
    cursor = 0
    out_len = 0
    for s in spans:
        parts.append(text[cursor : s.start])
        out_len += s.start - cursor
        ph = s.placeholder()
        parts.append(ph)
        out_spans.append(RedactionSpan(out_len, out_len + len(ph), s.tags))
        out_len += len(ph)
        cursor = s.end
    parts.append(text[cursor:])
    return "".join(parts), out_spans


def placeholder_regions(text: str) -> list[tuple[int, int]]:
    """Ranges of existing tag placeholders in ``text`` (not to be re-examined)."""
    return [m.span() for m in PLACEHOLDER_RE.finditer(text)]
