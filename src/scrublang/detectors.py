"""Pluggable PII detector suite.

Two kinds of detectors cooperate, mirrored by their priorities:

* common data formats (priority 10) are regular expressions loaded from a
  versioned catalogue file (phones, emails, URLs, IPs, addresses, ZIPs, SSNs,
  card numbers, dates, times, prices);
* entity recognition (priority 20) is an interface; the built-in implementation
  is a gazetteer with longest-match, case-insensitive lookup plus a
  capitalization requirement for person names.

Password and phone-number fields need no detector: the device itself flags
them, and the stream redactor drops their text structurally.

Every detector also supports *prefix awareness*: given a string that ends in
the middle of something that could still become a match (``"call 555-1"``),
the suite reports a provisional span reaching the end of the string.  This is
what lets the stream redactor tag half-typed PII before it is complete.

A catalogue detector carries *gates* (:func:`pattern_gates`): classes of ASCII
digits and punctuation, or ``\\d``, derived once from the standard library's
parse of the pattern, that every match holds a character of; equal classes are
one object.  A custom ``€\\d+`` keeps the gate ``\\d``, but ``€`` is never
one, so it is scanned on more texts and loses no match.  The matcher is a
plain scan; :meth:`DetectorSuite.detect` tests each distinct gate once per
text and skips the matcher of a detector whose gate the text lacks.  The
prefix matcher is never gated, as a half-typed match may not hold them yet,
and a pattern that parser cannot read has no gate and is always scanned.

Detectors only propose matches, which may overlap; :meth:`DetectorSuite.detect`
alone chooses among them by priority, then match length, then leftmost
position.  Regions already covered by a ``<tag>`` placeholder are never
re-examined.
"""

from __future__ import annotations

import functools
import importlib.resources
import re
import string
import unicodedata
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Protocol, Sequence

import regex

try:  # the standard library's regular-expression parser, read for catalogue gates
    from re import _parser as _sre
except ImportError:  # Python 3.10
    import sre_parse as _sre

from .spans import (
    LABEL_RE,
    RedactionSpan,
    merge_spans,
    numbered_lines,
    placeholder_regions,
)

PRIORITY_REGEX = 10
PRIORITY_ENTITY = 20


class CatalogueError(ValueError):
    """Raised for malformed catalogue or gazetteer files."""


@dataclass(frozen=True)
class Detector:
    """A named span matcher.

    Attributes:
        name: Tag label (entity recognizers may emit spans with other labels).
        priority: Lower priority wins overlap resolution.
        matcher: Complete-match function: string -> spans within the string.
        partial_matcher: Optional prefix matcher: string -> spans that reach
            the end of the string and could still grow into a complete match.
        gates: Characters (tested with ``in``) and ``regex`` classes
            (searched): every complete match holds a character of each, so
            :meth:`DetectorSuite.detect` does not call ``matcher`` on a text
            that lacks one.
    """

    name: str
    priority: int
    matcher: Callable[[str], list[RedactionSpan]]
    partial_matcher: Callable[[str], list[RedactionSpan]] | None = None
    gates: tuple = ()


class EntityRecognizer(Protocol):
    """Interface for the entity-recognition stage (swap in a real NER here)."""

    def find_entities(self, text: str) -> list[RedactionSpan]: ...

    def find_partial_entities(self, text: str) -> list[RedactionSpan]: ...


def _regex_full_matches(
    pattern: regex.Pattern, label: str, min_len: int, text: str
) -> list[RedactionSpan]:
    out = []
    for m in pattern.finditer(text):
        if m.end() - m.start() >= min_len:
            out.append(RedactionSpan(m.start(), m.end(), (label,)))
    return out


def _regex_partial_at_end(pattern: regex.Pattern, label: str, text: str) -> list[RedactionSpan]:
    # Scan past complete matches; a partial match always extends to the end of
    # the string, so the leftmost one is maximal and we can stop there.  A
    # complete match can shadow a longer in-progress one from the same region
    # ("a.b@x.co" inside a half-typed "a.b@x.com..."), so starts within a
    # complete match are re-probed with fullmatch, which only succeeds
    # partially if the suffix could still grow into a match.
    pos = 0
    n = len(text)
    while pos <= n:
        m = pattern.search(text, pos, partial=True)
        if m is None:
            break
        if m.partial:  # ignore zero-width partials
            return [RedactionSpan(m.start(), n, (label,))] if m.end() > m.start() else []
        for start in range(m.start(), min(m.end(), n)):
            fm = pattern.fullmatch(text, start, partial=True)
            if fm is not None and fm.partial:
                return [RedactionSpan(start, n, (label,))]
        pos = max(m.end(), m.start() + 1)
    return []


# -- catalogue gates ---------------------------------------------------
# A class is a frozenset of atoms: ``(first, last)`` ranges of ASCII digits and
# punctuation, and the category ``\d``.  None of these characters matches
# another code point under ``(?i)``, ``(?fi)`` or ``(?V1i)``, and ``\d`` is the
# same set under each, so no flag changes what such a class matches.
_GATE_CHARS = frozenset(map(ord, string.digits + string.punctuation))
_REPEATS = {_sre.MAX_REPEAT, _sre.MIN_REPEAT, getattr(_sre, "POSSESSIVE_REPEAT", _sre.MAX_REPEAT)}
_MAX_GATES = 2  # a third gate seldom rejects a text that the first two let through


def _class(op, av) -> frozenset | None:
    """The class of a literal or a non-negated class of ASCII digits and
    punctuation (literals and ranges) and ``\\d``; None for any other node."""
    if op not in (_sre.LITERAL, _sre.IN):
        return None
    atoms = set()
    for kind, value in [(op, av)] if op == _sre.LITERAL else av:
        if kind == _sre.LITERAL:
            atoms.add((value, value))
        elif kind == _sre.RANGE:
            atoms.add(value)
        elif kind == _sre.CATEGORY and value == _sre.CATEGORY_DIGIT:
            atoms.add(r"\d")
        else:
            return None
    if any(c not in _GATE_CHARS for a in atoms if a != r"\d" for c in range(a[0], a[1] + 1)):
        return None
    return frozenset(atoms)


def _rank(cls: frozenset) -> tuple[bool, int]:
    """How likely a text is to hold a character of ``cls``, least likely
    first: a class without a digit, then the smaller class."""
    ranges = [a for a in cls if a != r"\d"]
    digit = r"\d" in cls or any(first <= ord("9") and ord("0") <= last for first, last in ranges)
    return digit, sum(last - first + 1 for first, last in ranges) + 10 * (len(cls) - len(ranges))


def _walk(nodes) -> list[frozenset]:
    """The classes every match of the parsed sequence ``nodes`` holds a
    character of.  Anchors, lookarounds and other nodes contribute nothing."""
    classes = []
    for op, av in nodes:
        if op in _REPEATS:
            if av[0] >= 1:
                classes += _walk(av[2])
        elif op == _sre.SUBPATTERN:  # (group, flags set, flags cleared, nodes)
            classes += _walk(av[3])
        elif op == _sre.BRANCH:  # one class from each branch, or none
            picks = [min(_walk(branch), key=_rank, default=None) for branch in av[1]]
            if None not in picks:
                classes.append(frozenset().union(*picks))
        elif op == _sre.LITERAL and av == ord("{"):
            # regex reads ``{e<=1}`` after an item as a fuzzy-match constraint
            raise _sre.error("a literal { may be a fuzzy-match constraint")
        else:
            cls = _class(op, av)
            if cls is not None:
                classes.append(cls)
    return classes


def _necessary_classes(pattern: str) -> list[frozenset]:
    """The classes every match of ``pattern`` holds a character of, from the
    standard library's parse of it; none for a pattern that parser rejects
    or warns about (syntax only ``regex`` knows, such as ``\\p{L}``, ``(?V1)``
    or ``[[:digit:]]``)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return _walk(_sre.parse(pattern))
        except (_sre.error, RecursionError, Warning):
            return []


_compile_class = functools.cache(regex.compile)  # so that equal classes are one object


def _gate(cls: frozenset) -> str | regex.Pattern:
    """A one-character class as that character; any other as a ``regex``
    class, so that ``\\d`` means what it means in the pattern."""
    if len(cls) == 1 and isinstance(atom := next(iter(cls)), tuple) and atom[0] == atom[1]:
        return chr(atom[0])
    escape = functools.partial(regex.escape, special_only=False)
    pieces = sorted(
        a if isinstance(a, str) else "-".join(escape(chr(c)) for c in dict.fromkeys(a)) for a in cls
    )
    return _compile_class("[" + "".join(pieces) + "]")


def pattern_gates(pattern: str) -> tuple[str | regex.Pattern, ...]:
    """The gates of a catalogue pattern, most selective first: each a
    character (tested with ``in``) or a ``regex`` class (searched), and every
    match of the pattern holds a character of each.  Only a class of ASCII
    digits and punctuation, or ``\\d``, is a gate."""
    classes = sorted(dict.fromkeys(_necessary_classes(pattern)), key=_rank)
    return tuple(map(_gate, classes[:_MAX_GATES]))


def _check_label(label: str) -> None:
    """A ``CatalogueError`` unless ``spans.LABEL_RE`` reads all of ``label``."""
    if not LABEL_RE.fullmatch(label):
        raise CatalogueError(f"label {label!r} must be a-z, then a-z, 0-9, '_' or inner spaces")


def regex_detector(label: str, pattern: str, min_len: int = 1) -> Detector:
    """Build a common-format detector from one catalogue entry, gated by
    :func:`pattern_gates`.  Both matchers scan every text they are given."""
    _check_label(label)
    if min_len < 1:
        raise ValueError(f"min_len must be at least 1, got {min_len}")
    compiled = regex.compile(pattern)
    return Detector(
        name=label,
        priority=PRIORITY_REGEX,
        matcher=lambda text: _regex_full_matches(compiled, label, min_len, text),
        partial_matcher=lambda text: _regex_partial_at_end(compiled, label, text),
        gates=pattern_gates(pattern),
    )


_BUNDLED_CATALOGUE = "data/regex_catalogue.tsv"
_BUNDLED_GAZETTEER = "data/sample_gazetteer.tsv"


def _bundled(name: str):
    return importlib.resources.files("scrublang").joinpath(name)


def bundled_inputs(catalogue_path=None, gazetteer_path=None) -> dict:
    """The bundled data files that :meth:`DetectorSuite.default` reads in place
    of an unset catalogue or gazetteer path, keyed ``scrublang/data/<file>``."""
    paths = {_BUNDLED_CATALOGUE: catalogue_path, _BUNDLED_GAZETTEER: gazetteer_path}
    return {f"scrublang/{name}": _bundled(name) for name, path in paths.items() if path is None}


def load_catalogue(path: str | Path | None = None) -> list[Detector]:
    """Load regex detectors from a TSV catalogue (``label<TAB>pattern[<TAB>min_len]``).

    ``None`` loads the bundled default catalogue.  A malformed line raises
    ``CatalogueError`` naming ``path:line``.
    """
    source = _bundled(_BUNDLED_CATALOGUE) if path is None else Path(path)
    detectors = []
    for lineno, line in numbered_lines(source, comments=True):
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise CatalogueError(f"{source}:{lineno}: expected 2 or 3 tab-separated fields")
        try:
            min_len = int(parts[2]) if len(parts) == 3 else 1
            detectors.append(regex_detector(parts[0].strip(), parts[1], min_len))
        except (ValueError, regex.error) as exc:
            raise CatalogueError(f"{source}:{lineno}: bad catalogue entry: {exc}") from exc
    return detectors


# a word for the capitalization rule; ’ joins a word as ' does, and a
# default-ignorable character (soft hyphen, zero-width space) does not end one
_WORD_RUN = regex.compile(r"[\w'’][\w'’.\p{Default_Ignorable_Code_Point}-]*")
_IGNORABLE = regex.compile(r"\p{Default_Ignorable_Code_Point}+")
_CLUSTER = regex.compile(r"\X")
_ODD_SPACE = re.compile(r"[^\S ]| {2}")  # whitespace that normalization rewrites


def _is_word_char(c: str) -> bool:
    """A word character of both boundary rules: ``_``, or ``isalnum()`` and
    not of category No (², ½, ①), which ASCII does not hold."""
    return c == "_" or c.isalnum() and (c.isascii() or unicodedata.category(c) != "No")


def _word_starts(text: str) -> list[int]:
    """Where an occurrence may start: each non-blank character that no word
    character precedes."""
    return [
        i for i, c in enumerate(text)
        if not c.isspace() and (i == 0 or not _is_word_char(text[i - 1]))
    ]


def _normalize(text: str) -> tuple[str, Sequence[int], Sequence[int]]:
    """What the gazetteer compares, built one grapheme cluster at a time: NFKC,
    ’ read as ', İ read as I (so a name listed in ASCII matches its Turkish
    spelling), default-ignorable code points (U+00AD, U+200B-U+200D, ...) read
    as nothing, ``casefold``, and each whitespace run read as one space.  Also
    the normalized offset of each offset of ``text``, and the offset in
    ``text`` where the clusters read before each normalized offset end (so an
    occurrence ends before an ignorable, as it starts after one); -1 inside a
    cluster or a run and at a cluster read as nothing."""
    if text.isascii() and not _ODD_SPACE.search(text):
        same = range(len(text) + 1)
        return text.lower(), same, same
    norm_at = [-1] * (len(text) + 1)
    text_at: list[int] = []
    pieces: list[str] = []
    read_to = 0  # where the last cluster not read as nothing ends
    for m in _CLUSTER.finditer(text):
        piece = unicodedata.normalize("NFKC", m.group()).replace("’", "'").replace("İ", "I")
        if not piece.isascii():
            piece = _IGNORABLE.sub("", piece)
            if not piece:
                continue  # a default-ignorable cluster reads as nothing
        if not (piece.isspace() and pieces and pieces[-1] == " "):  # else a run goes on
            piece = " " if piece.isspace() else piece.casefold()  # never empty
            norm_at[m.start()] = len(text_at)
            text_at += [read_to] + [-1] * (len(piece) - 1)
            pieces.append(piece)
        read_to = m.end()
    norm_at[-1] = len(text_at)
    text_at.append(read_to)
    return "".join(pieces), norm_at, text_at


class Gazetteer:
    """Label -> surface forms as ``_normalize`` reads them, with longest-match
    lookup.

    Surface forms may span several words.  A ``person`` entry only matches
    when every word of the occurrence is capitalized in the original text,
    which keeps common nouns from being swallowed just because they appear in
    a name list.
    """

    def __init__(self, entries: dict[str, Iterable[str]] | None = None) -> None:
        self.entries: dict[str, set[str]] = {}
        self._index: tuple[list[tuple[str, str]], re.Pattern, set[str]] | None = None  # see _scan
        for label, forms in (entries or {}).items():
            for form in forms:
                self.add(label, form)

    def add(self, label: str, surface: str) -> None:
        _check_label(label)
        surface = _normalize(surface)[0].strip()
        if not surface:
            raise CatalogueError(f"empty gazetteer surface form for label {label!r}")
        self.entries.setdefault(label, set()).add(surface)
        self._index = None

    @classmethod
    def from_file(cls, path) -> "Gazetteer":
        """Parse ``label<TAB>surface form`` lines from a path or a bundled
        resource; a malformed line raises ``CatalogueError`` naming ``path:line``."""
        gaz = cls()
        for lineno, line in numbered_lines(path, comments=True):
            parts = line.split("\t")
            if len(parts) != 2:
                raise CatalogueError(f"{path}:{lineno}: expected label<TAB>surface form")
            try:
                gaz.add(parts[0].strip(), parts[1])
            except CatalogueError as exc:
                raise CatalogueError(f"{path}:{lineno}: {exc}") from None
        return gaz

    @classmethod
    def bundled_sample(cls) -> "Gazetteer":
        return cls.from_file(_bundled(_BUNDLED_GAZETTEER))

    # -- matching ------------------------------------------------------

    def _scan(self) -> tuple[list[tuple[str, str]], re.Pattern, set[str]]:
        """Every ``(label, form)``, labels in sorted order; the starts of
        ASCII text: a character that no word character precedes and whose
        lower case is an initial (there stdlib ``re``'s ``\\w``, ``isalnum()``
        or ``_``, is the word rule, and it runs faster than a loop); and the
        initials, the first character of every form.  Built on the first
        match after an ``add``."""
        index = self._index
        if index is None:
            order = [(label, f) for label, forms in sorted(self.entries.items()) for f in forms]
            initials = {f[0] for _, f in order}
            firsts = {c for i in initials for c in i + i.upper() if c.isascii()}
            chars = "".join(map(re.escape, sorted(firsts)))
            finder = re.compile(rf"(?<!\w)[{chars}]" if chars else "(?!)")
            index = self._index = (order, finder, initials)
        return index

    def _starts(self, text: str) -> tuple[str, Sequence[int], list[tuple[int, int]]]:
        """``_normalize(text)``'s form and map back to ``text``, and the
        ``(offset, normalized offset)`` of each ``_word_starts`` offset that
        begins a cluster whose normalized form begins some entry."""
        norm, norm_at, text_at = _normalize(text)
        if text.isascii():  # a non-blank ASCII character is a cluster of its own
            firsts = self._scan()[1].finditer(text)
            return norm, text_at, [(m.start(), norm_at[m.start()]) for m in firsts]
        starts, initials = [], self._scan()[2]
        for start in _word_starts(text):
            at = norm_at[start]
            if at >= 0 and norm[at] in initials:
                starts.append((start, at))
        return norm, text_at, starts

    def _capitalized_ok(self, label: str, text: str, start: int) -> bool:
        if label != "person":
            return True
        # every word of the occurrence must start uppercase
        occ_words = _WORD_RUN.finditer(text, start)
        return all(w.group()[0].isupper() for w in occ_words)

    def find_entities(self, text: str) -> list[RedactionSpan]:
        """At each start, the longest entry found there that no word
        character follows; among entries of that length, the label that sorts
        first.  The spans may overlap: :meth:`DetectorSuite.detect` chooses
        among them."""
        norm, text_at, starts = self._starts(text)
        order = self._scan()[0]
        spans: list[RedactionSpan] = []
        for start, at in starts:
            best: tuple[int, str] | None = None
            for label, form in order:
                if not norm.startswith(form, at):
                    continue
                end = text_at[at + len(form)]
                if end < 0 or end < len(text) and _is_word_char(text[end]):
                    continue  # ends inside a cluster, or a word character follows
                if not self._capitalized_ok(label, text[:end], start):
                    continue
                if best is None or end > best[0]:
                    best = (end, label)
            if best is not None:
                spans.append(RedactionSpan(start, best[0], (best[1],)))
        return spans

    def find_partial_entities(self, text: str) -> list[RedactionSpan]:
        """For each entry, the longest tail of ``text`` from a start whose
        normalized form is a proper prefix of it."""
        norm, _, starts = self._starts(text)
        spans: list[RedactionSpan] = []
        proposed: set[tuple[str, str]] = set()
        order = self._scan()[0]
        for start, at in starts:
            rest = norm[at:]
            for label, form in order:
                if len(rest) >= len(form) or not form.startswith(rest):
                    continue
                if (label, form) in proposed or not self._capitalized_ok(label, text, start):
                    continue
                proposed.add((label, form))
                spans.append(RedactionSpan(start, len(text), (label,)))
        return spans


def entity_detector(recognizer: EntityRecognizer) -> Detector:
    return Detector(
        name="entity",
        priority=PRIORITY_ENTITY,
        matcher=recognizer.find_entities,
        partial_matcher=recognizer.find_partial_entities,
    )


class DetectorSuite:
    """An ordered collection of detectors with overlap resolution.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, detectors: Iterable[Detector]):
        self.detectors = tuple(detectors)

    @classmethod
    def default(
        cls,
        catalogue_path: str | Path | None = None,
        gazetteer: Gazetteer | None = None,
    ) -> "DetectorSuite":
        dets = load_catalogue(catalogue_path)
        gaz = gazetteer if gazetteer is not None else Gazetteer.bundled_sample()
        dets.append(entity_detector(gaz))
        return cls(dets)

    def detect(self, text: str) -> list[RedactionSpan]:
        """All complete matches, resolved to a non-overlapping sorted list;
        the one place where a candidate is dropped for overlapping another.

        Resolution order: detector priority, then longest match, then leftmost,
        then tag name (so permuting same-priority detectors cannot change the
        result).  Existing placeholders in the text are masked out first.
        A detector whose gate the text lacks is not called, and each
        distinct gate is tested once.
        """
        if not text:
            return []
        masked = placeholder_regions(text)
        held: dict = {}  # gate -> whether the text holds it
        candidates: list[tuple[int, int, int, str, RedactionSpan]] = []
        for det in self.detectors:
            for gate in det.gates:  # a text that lacks a gate holds no match
                if gate not in held:
                    held[gate] = gate in text if isinstance(gate, str) else bool(gate.search(text))
                if not held[gate]:
                    break
            else:
                for s in det.matcher(text):
                    if any(s.start < mend and mstart < s.end for mstart, mend in masked):
                        continue
                    candidates.append((det.priority, -(s.end - s.start), s.start, det.name, s))
        candidates.sort(key=lambda c: c[:4])
        accepted: list[RedactionSpan] = []
        for _, _, _, _, s in candidates:
            if not any(s.overlaps(a) for a in accepted):
                accepted.append(s)
        return sorted(accepted, key=lambda s: s.start)

    def partial_at_end(self, text: str) -> list[RedactionSpan]:
        """Spans whose text could still grow into a complete match."""
        if not text:
            return []
        spans: list[RedactionSpan] = []
        for det in self.detectors:
            if det.partial_matcher is not None:
                spans.extend(det.partial_matcher(text))
        return merge_spans(spans)


_default_suite: DetectorSuite | None = None


def default_suite() -> DetectorSuite:
    """Shared default suite (bundled catalogue + sample gazetteer)."""
    global _default_suite
    if _default_suite is None:
        _default_suite = DetectorSuite.default()
    return _default_suite
