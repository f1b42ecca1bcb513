"""Detector suite: catalogue formats, overlap resolution, gazetteer matching,
and the prefix-awareness guarantee the stream redactor depends on."""

from __future__ import annotations

import dataclasses
import functools
import re
import sys
import threading
import unicodedata
from dataclasses import astuple

import pytest
import regex
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scrublang import detectors
from scrublang.detectors import (
    PRIORITY_ENTITY,
    PRIORITY_REGEX,
    CatalogueError,
    Detector,
    DetectorSuite,
    Gazetteer,
    entity_detector,
    load_catalogue,
    pattern_gates,
    regex_detector,
    default_suite,
    _normalize,
)
from scrublang.redactor import redact_string
from scrublang.spans import RedactionSpan, merge_spans, numbered_lines, render_redacted, span

# one complete matchable string per label, used for prefix-awareness checks
LABEL_SAMPLES = {
    "phone": ["555-123-4567", "(215) 555-0100", "+1 610 555 0199", "5551234567"],
    "email": ["bob@example.com", "a.b-c+d@mail.example.org"],
    "url": ["http://a.b/c", "https://example.com/x?q=1", "www.example.org"],
    "ip": ["10.0.0.1", "192.168.1.100", "fe80:1:2:3:4:5", "abcd:1234:5678:9abc:def0"],
    "ssn": ["123-45-6789"],
    "credit_card": ["4111 1111 1111 1111", "4111111111111111"],
    "zip": ["19104", "19104-2612"],
    "date": ["5/6", "5/6/2021", "12-31-99", "january 5, 2021", "5th of may"],
    "time": ["5:30pm", "12:45", "23:59:59"],
    "price": ["$19.99", "$1,250", "$5"],
    "street_address": ["123 main street", "1 elm rd", "4528 n point blvd"],
}


@pytest.fixture(scope="module")
def suite() -> DetectorSuite:
    return default_suite()


def possible_prefix(suite: DetectorSuite, text: str) -> bool:
    """True when ``text`` could be a prefix of (or already end in) something
    the suite matches; never False for a true prefix of a matchable string."""
    return not text or any(s.end == len(text) for s in suite.detect(text) + suite.partial_at_end(text))


def match_common_formats(text: str) -> list[RedactionSpan]:
    """Matches of the bundled regex catalogue alone, without entity recognition."""
    return DetectorSuite(load_catalogue()).detect(text)


class TestCommonFormats:
    @pytest.mark.parametrize(
        "label,text", [(label, t) for label, ts in LABEL_SAMPLES.items() for t in ts]
    )
    def test_catalogue_sample_matches_whole_string(self, suite, label, text):
        spans = suite.detect(text)
        assert spans, f"{label}: no match for {text!r}"
        assert spans[0].start == 0 and spans[-1].end == len(text)
        assert label in spans[0].tags

    def test_full_phone_span(self, suite):
        (s,) = suite.detect("(215) 555-0100")
        assert (s.start, s.end) == (0, 14)

    def test_price(self, suite):
        (s,) = suite.detect("$19.99")
        assert s.tags == ("price",)

    def test_short_digit_run_not_a_phone(self, suite):
        assert suite.detect("555") == []
        assert suite.detect("only 555 here") == []

    def test_embedded_digits_not_matched(self, suite):
        assert suite.detect("ref x555123456789y") == []

    def test_ip_and_surroundings(self, suite):
        (s,) = suite.detect("ip 10.0.0.1 port")
        assert s.tags == ("ip",) and (s.start, s.end) == (3, 11)

    def test_url_and_date_disjoint(self, suite):
        spans = suite.detect("visit http://a.b/c on 5/6/2021")
        assert [s.tags for s in spans] == [("url",), ("date",)]
        assert spans[0].end <= spans[1].start

    def test_min_length_column_filters_matches(self, tmp_path):
        path = tmp_path / "cat.tsv"
        path.write_text("num\t\\d{2,}\t4\n")
        (det,) = load_catalogue(path)
        assert det.matcher("ab 12345 cd") == [span(3, 8, "num")]
        assert det.matcher("ab 123 cd") == []

    def test_match_common_formats_is_regex_only(self):
        spans = match_common_formats("(215) 555-0100 and Anna Karenina")
        assert [s.tags for s in spans] == [("phone",)]

    def test_catalogue_rejects_bad_lines(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("onlylabel\n")
        with pytest.raises(CatalogueError):
            load_catalogue(bad)
        bad.write_text("x\t(unclosed\n")
        with pytest.raises(CatalogueError):
            load_catalogue(bad)

    @pytest.mark.parametrize("min_len", ["0", "-1"])
    def test_min_len_below_one_names_its_line(self, tmp_path, min_len):
        # a zero-length match would pass a min_len of 0, and fail later as an
        # empty span that names no file
        bad = tmp_path / "cat.tsv"
        bad.write_text(f"num\t\\d+\t2\nx\ta*\t{min_len}\n")
        with pytest.raises(CatalogueError, match=rf"cat\.tsv:2: .*min_len must be at least 1"):
            load_catalogue(bad)

    # "e-mail" wrote "<e-mail>", which tokenizes as "<", "e", "-", "mail" and
    # ">"; "Phone" wrote "<Phone>", which placeholder_regions does not mask
    @pytest.mark.parametrize("label", ["e-mail", "Phone", "date|phone", "_id", "9x", ""])
    def test_label_that_no_placeholder_can_spell_names_its_line(self, tmp_path, label):
        bad = tmp_path / "cat.tsv"
        bad.write_text(f"num\t\\d+\n{label}\tx+\n")
        with pytest.raises(CatalogueError, match=rf"cat\.tsv:2: .*label {re.escape(repr(label))}"):
            load_catalogue(bad)

    @pytest.mark.parametrize("label", ["phone ", " phone", "work of |art", "e-mail"])
    def test_regex_detector_refuses_a_label_that_no_placeholder_can_spell(self, label):
        with pytest.raises(CatalogueError, match="label"):
            regex_detector(label, r"\d+")


class TestPrefixAwareness:
    @pytest.mark.parametrize(
        "label,text", [(label, t) for label, ts in LABEL_SAMPLES.items() for t in ts]
    )
    def test_every_prefix_is_possible(self, suite, label, text):
        for k in range(1, len(text) + 1):
            assert possible_prefix(suite, text[:k]), (label, text[:k])

    def test_prefix_in_context(self, suite):
        spans = suite.partial_at_end("see you at 555-1")
        assert any(s.end == len("see you at 555-1") and "phone" in s.tags for s in spans)

    def test_gazetteer_prefix(self, suite):
        assert possible_prefix(suite, "reading Anna Kar")

    def test_word_tail_is_a_possible_email_prefix(self, suite):
        # over-approximation is the safe direction: any trailing word could
        # still grow into an email local part
        spans = suite.partial_at_end("hello there x")
        assert any("email" in s.tags for s in spans)

    def test_unmatchable_tail_has_no_span(self, suite):
        assert suite.partial_at_end("hello there !") == []


class TestOverlapResolution:
    def test_priority_beats_length(self):
        a = regex_detector("aa", r"ab", min_len=1)
        b = Detector("bb", priority=5, matcher=lambda t: [span(0, 4, "bb")] if len(t) >= 4 else [])
        out = DetectorSuite([a, b]).detect("abcd")
        assert out == [span(0, 4, "bb")]

    def test_longest_match_wins_within_priority(self, suite):
        (s,) = suite.detect("4111 1111 1111 1111")
        assert s.tags == ("credit_card",)
        assert (s.start, s.end) == (0, 19)

    def test_same_priority_permutation_invariant(self):
        d1 = regex_detector("left", r"ab+", min_len=1)
        d2 = regex_detector("right", r"cd+", min_len=1)
        text = "abb x cdd"
        out1 = DetectorSuite([d1, d2]).detect(text)
        out2 = DetectorSuite([d2, d1]).detect(text)
        assert out1 == out2

    def test_placeholders_not_reexamined(self, suite):
        assert suite.detect("mail <email> and <date|phone> ok") == []

    def test_candidate_inside_a_placeholder_is_skipped(self):
        gaz = Gazetteer({"org": ["work"]})
        out = redact_string("<work of art> at work", DetectorSuite.default(gazetteer=gaz))
        assert out.text == "<work of art> at <org>"

    def test_result_sorted_nonoverlapping(self, suite):
        spans = suite.detect("a 5/6 b 123-45-6789 c $9.99 d 10.0.0.1")
        for s1, s2 in zip(spans, spans[1:]):
            assert s1.end <= s2.start


class TestGazetteer:
    def test_longest_match(self):
        gaz = Gazetteer({"person": ["anna", "anna karenina lee"], "work of art": ["anna karenina"]})
        spans = gaz.find_entities("Anna Karenina Lee wrote")
        assert spans == [span(0, 17, "person")]

    def test_case_insensitive(self):
        gaz = Gazetteer({"work of art": ["war and peace"]})
        (s,) = gaz.find_entities("finished WAR AND PEACE yesterday")
        assert (s.start, s.end) == (9, 22)

    def test_person_requires_capitalization(self):
        gaz = Gazetteer({"person": ["june smith"]})
        assert gaz.find_entities("met june smith today") == []
        assert gaz.find_entities("met June Smith today") == [span(4, 14, "person")]

    def test_word_boundaries(self):
        gaz = Gazetteer({"work of art": ["anna karenina"]})
        assert gaz.find_entities("susanna karenina") == []
        assert gaz.find_entities("anna kareninas") == []

    def test_partial_needs_word_start(self):
        gaz = Gazetteer({"work of art": ["anna karenina"]})
        assert gaz.find_partial_entities("reading anna kar") == [span(8, 16, "work of art")]
        assert gaz.find_partial_entities("susanna kar") == []

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("person\tAda Lovelace\n# comment\nwork of art\tthe iliad\n")
        gaz = Gazetteer.from_file(path)
        assert gaz.entries == {"person": {"ada lovelace"}, "work of art": {"the iliad"}}

    def test_surface_form_may_hold_a_line_separator(self, tmp_path):
        # only \n and \r end a line; U+2028 is whitespace inside a form
        path = tmp_path / "gaz.tsv"
        path.write_text("person\tAda\u2028Lovelace\nperson\tGrace Hopper\n", encoding="utf-8")
        gaz = Gazetteer.from_file(path)
        assert gaz.entries == {"person": {"ada lovelace", "grace hopper"}}

    def test_byte_order_mark_is_not_part_of_the_label(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_bytes("\ufeffperson\tAda Lovelace\n".encode("utf-8"))
        assert Gazetteer.from_file(path).entries == {"person": {"ada lovelace"}}

    def test_bad_file(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("no-tab-here\n")
        with pytest.raises(CatalogueError):
            Gazetteer.from_file(path)

    # "Person" or "person " used to skip the capitalization rule of "person"
    @pytest.mark.parametrize("label", ["Person", "person ", "work-of-art", ""])
    def test_label_that_no_placeholder_can_spell_is_refused(self, label):
        with pytest.raises(CatalogueError, match="label"):
            Gazetteer({label: ["ada lovelace"]})

    def test_bad_label_names_its_line(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("person\tAda Lovelace\nPerson\tGrace Hopper\n")
        with pytest.raises(CatalogueError, match=r"gaz\.tsv:2: label 'Person'"):
            Gazetteer.from_file(path)

    def test_bad_bundled_line_names_its_line(self, tmp_path, monkeypatch):
        path = tmp_path / "gaz.tsv"
        path.write_text("person\tAda Lovelace\nperson\tAda\tLovelace\n")
        monkeypatch.setattr(detectors, "_bundled", lambda name: path)
        with pytest.raises(CatalogueError, match=r"gaz\.tsv:2: "):
            Gazetteer.bundled_sample()

    def test_entity_detector_multilabel(self):
        gaz = Gazetteer({"person": ["jane doe"], "org": ["acme corp"]})
        det = entity_detector(gaz)
        spans = det.matcher("Jane Doe joined acme corp")
        assert {s.tags[0] for s in spans} == {"person", "org"}


# person names that overlap each other and a date, one with an apostrophe
LEAK_NAMES = {"person": ["june lee", "lee ho", "john smith", "Conan O'Brien"]}


@functools.cache
def leak_suite() -> DetectorSuite:
    return DetectorSuite.default(gazetteer=Gazetteer(LEAK_NAMES))


class TestSuiteChooses:
    """The gazetteer proposes its longest entry at each word start, and only
    the suite chooses among overlapping proposals."""

    def test_gazetteer_proposes_overlapping_names(self):
        gaz = Gazetteer(LEAK_NAMES)
        assert gaz.find_entities("June Lee Ho") == [span(0, 8, "person"), span(5, 11, "person")]

    def test_name_that_loses_only_to_a_rejected_name_is_kept(self):
        out = redact_string("see you 12 June Lee Ho", leak_suite())
        assert out.text == "see you <date> <person>"
        assert redact_string("see you Lee Ho", leak_suite()).text == "see you <person>"

    def test_every_entry_proposes_its_tail(self):
        gaz = Gazetteer(LEAK_NAMES)
        tails = [span(4, 10, "person"), span(9, 10, "person")]
        assert set(gaz.find_partial_entities("see June L")) == set(tails)
        assert DetectorSuite([entity_detector(gaz)]).partial_at_end("see June L") == tails[:1]


class TestTypographicApostrophe:
    def test_text_apostrophe_matches_a_straight_entry(self):
        out = redact_string("met Conan O\u2019Brien today", leak_suite())
        assert out.text == "met <person> today"
        gaz = Gazetteer(LEAK_NAMES)
        assert gaz.find_partial_entities("met Conan O\u2019Bri") == [span(4, 15, "person")]

    @pytest.mark.parametrize("quote", ["\u2019", "'"])
    def test_name_after_a_leading_apostrophe(self, quote):
        out = redact_string(f"he said {quote}John Smith{quote}", leak_suite())
        assert out.text == f"he said {quote}<person>{quote}"

    @pytest.mark.parametrize("typed", ["O\u2019Brien", "O'Brien"])
    def test_entry_apostrophe_from_a_file(self, tmp_path, typed):
        path = tmp_path / "gaz.tsv"
        path.write_text("person\tConan O\u2019Brien\n", encoding="utf-8")
        gaz = Gazetteer.from_file(path)
        suite = DetectorSuite.default(gazetteer=gaz)
        assert redact_string(f"met Conan {typed} today", suite).text == "met <person> today"
        assert gaz.find_partial_entities(f"met Conan {typed[:5]}") == [span(4, 15, "person")]


class TestLengtheningCaseFold:
    @pytest.mark.parametrize("word", ["Straße", "STRAẞE", "ﬁne", "İzmir"])
    def test_offsets_after_a_lengthening_character(self, word):
        text = f"{word} John Smith"
        assert redact_string(text, leak_suite()).text == f"{word} <person>"
        tail = len(word) + 1
        assert Gazetteer(LEAK_NAMES).find_partial_entities(text[:-2]) == [
            span(tail, len(text) - 2, "person")
        ]

    def test_entry_that_spans_the_lengthened_character(self):
        gaz = Gazetteer({"org": ["weiss"]})
        assert gaz.find_entities("Herr Weiß") == [span(5, 9, "org")]
        assert gaz.find_entities("Herr Weiß sagt") == [span(5, 9, "org")]
        assert gaz.find_partial_entities("Herr Wei") == [span(5, 8, "org")]

    def test_dotted_capital_i_reads_as_i(self):
        """İ folds to i plus a combining dot; the gazetteer reads it as I, so
        a name listed in ASCII matches its Turkish spelling, and İ still
        counts as a capital for a person's name."""
        gaz = Gazetteer({"person": ["ilkay demir"]})
        assert gaz.find_entities("met İlkay Demir") == [span(4, 15, "person")]
        assert gaz.find_partial_entities("met İlk") == [span(4, 7, "person")]
        assert Gazetteer({"person": ["İlkay Demir"]}).find_entities("met Ilkay Demir") == [
            span(4, 15, "person")
        ]

    def test_entry_may_not_end_inside_one_character_fold(self):
        gaz = Gazetteer({"org": ["weis"]})
        assert gaz.find_entities("Herr Weiß") == []
        assert Gazetteer({"org": ["weisse"]}).find_partial_entities("Herr Weiß") == [
            span(5, 9, "org")
        ]


# a name with a composed accent next to one in ASCII
RULE_NAMES = {"person": ["john smith", "jos\u00e9 lopez"]}


class TestOneMatchingRule:
    """Entries and text are read through one normalization, and both lookups
    start where no word character precedes."""

    @pytest.mark.parametrize(
        "text,redacted",
        [
            ("met re.John Smith", "met re.<person>"),
            ("hi-John Smith", "hi-<person>"),
            ("met John  Smith", "met <person>"),
            ("met John\u00a0Smith", "met <person>"),
            ("met Jose\u0301 Lopez", "met <person>"),
            ("met \uff2a\uff2f\uff28\uff2e Smith", "met <person>"),
            ("met x\u00b2John Smith", "met x\u00b2<person>"),
            ("\u00bdJohn Smith", "\u00bd<person>"),
            ("a\u2460John Smith", "a\u2460<person>"),
            ("met John Smith\u00b2 ok", "met <person>\u00b2 ok"),
        ],
        ids=["after-dot", "after-hyphen", "double-space", "no-break-space",
             "decomposed-accent", "fullwidth", "after-superscript", "after-fraction",
             "after-circled-digit", "before-superscript"],
    )
    def test_name_is_redacted(self, text, redacted):
        suite = DetectorSuite.default(gazetteer=Gazetteer(RULE_NAMES))
        assert redact_string(text, suite).text == redacted

    @pytest.mark.parametrize(
        ("text", "redacted"),
        [
            ("met Jo\u00adhn Smith", "met <person>"),
            ("met John Smi\u200bth", "met <person>"),
            ("met J\u200dohn Smith", "met <person>"),
            ("met John Smith\u200bok", "met <person>\u200bok"),
            ("met John Smith\ufeffok", "met <person>\ufeffok"),
            ("met John Smith\u2060ok", "met <person>\u2060ok"),
            ("met John Smith\u00adok", "met <person>\u00adok"),
            ("x\u200bJohn Smith\u200b", "x\u200b<person>\u200b"),
        ],
        ids=["soft-hyphen", "zero-width-space", "zero-width-joiner",
             "before-zero-width-space", "before-bom", "before-word-joiner",
             "before-soft-hyphen", "between-zero-width-spaces"],
    )
    def test_default_ignorable_code_point_reads_as_nothing(self, text, redacted):
        # inside an occurrence an ignorable reads as nothing; at either edge it
        # is no word character, so the occurrence ends before it
        suite = DetectorSuite.default(gazetteer=Gazetteer(RULE_NAMES))
        assert redact_string(text, suite).text == redacted

    @pytest.mark.parametrize("text", ["x2John Smith", "met John Smith2", "met John Smith_"])
    def test_name_glued_to_a_word_character_is_not_an_occurrence(self, text):
        suite = DetectorSuite.default(gazetteer=Gazetteer(RULE_NAMES))
        assert redact_string(text, suite).text == text

    def test_word_characters_are_alphanumerics_but_other_numbers(self):
        """``_is_word_char``, which skips ``unicodedata`` on ASCII, agrees with
        this Python's ``unicodedata`` on every code point."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        matched = [i for i, c in enumerate(every) if detectors._is_word_char(c)]
        assert matched == [i for i, c in enumerate(every) if is_word_char(c)]

    def test_a_proposed_tail_can_complete(self):
        gaz = Gazetteer(RULE_NAMES)
        assert gaz.find_partial_entities("x.Joh") == [span(2, 5, "person")]
        assert gaz.find_entities("x.John Smith") == [span(2, 12, "person")]

    def test_entry_reads_as_the_text_does(self):
        gaz = Gazetteer({"person": ["\uff2a\uff2f\uff28\uff2e\u00a0 Smith", "Jose\u0301 Lopez"]})
        assert gaz.entries == {"person": {"john smith", "jos\u00e9 lopez"}}

    def test_decomposed_accent_reads_as_composed(self):
        gaz = Gazetteer({"org": ["jose"]})
        assert gaz.find_entities("Jose\u0301 Lopez") == gaz.find_entities("Jos\u00e9 Lopez") == []
        assert Gazetteer(RULE_NAMES).find_partial_entities("met Jose\u0301 Lo") == [
            span(4, 12, "person")
        ]


def is_word_char(c: str) -> bool:
    """A word character of the boundary rules: ``_``, or alphanumeric and
    no other number (², ½, ①)."""
    return c == "_" or c.isalnum() and unicodedata.category(c) != "No"


def cluster_starts(text: str) -> list[int]:
    """Offsets where an occurrence may start: a non-blank character that no
    word character precedes, at the start of a grapheme cluster."""
    clusters = [m.start() for m in regex.finditer(r"\X", text)]
    return [i for i in clusters if not text[i].isspace() and not (i and is_word_char(text[i - 1]))]


def capitalized(piece: str) -> bool:
    """Every word starts uppercase: a word starts at a word character or an
    apostrophe and goes on over word characters, apostrophes, dots and
    hyphens."""
    firsts, in_word = [], False
    for c in piece.replace("\u2019", "'"):
        if in_word:
            in_word = is_word_char(c) or c in "'.-"
        elif is_word_char(c) or c == "'":
            firsts.append(c)
            in_word = True
    return all(c.isupper() for c in firsts)


def normalized_forms(entries: dict[str, list[str]]) -> list[tuple[str, str]]:
    return sorted({(label, _normalize(form)[0].strip()) for label, fs in entries.items() for form in fs})


def longest_at_starts(entries: dict[str, list[str]], text: str) -> list[tuple]:
    """Independent scan: at each start, the longest entry that matches the
    normalized text slice, ends after a whole cluster that no word character
    follows and, for a person, has every word capitalized; ties go to the
    label that sorts first."""
    forms = normalized_forms(entries)
    ends = sorted(m.end() for m in regex.finditer(r"\X", text))
    found = []
    for start in cluster_starts(text):
        best = None
        for end in ends:
            if end <= start or end < len(text) and is_word_char(text[end]):
                continue
            piece = text[start:end]
            for label, form in forms:
                if _normalize(piece)[0] != form:
                    continue
                if label == "person" and not capitalized(piece):
                    continue
                if best is None or end > best[0]:
                    best = (end, label)
        if best is not None:
            found.append((PRIORITY_ENTITY, start, best[0], best[1]))
    return found


def longest_tails(entries: dict[str, list[str]], text: str) -> list[RedactionSpan]:
    """Independent scan: for each entry, the longest tail of ``text`` from a
    start whose normalized form is a proper prefix of the entry and, for a
    person, has every word capitalized."""
    found = []
    for label, form in normalized_forms(entries):
        for start in cluster_starts(text):
            tail = _normalize(text[start:])[0]
            if len(tail) < len(form) and form.startswith(tail):
                if label != "person" or capitalized(text[start:]):
                    found.append(span(start, len(text), label))
                    break
    return found


@functools.cache
def catalogue() -> list[Detector]:
    return load_catalogue()


_WORDS = [
    "June", "june", "Lee", "Ho", "May", "O'Brien", "O\u2019Brien", "\u2019John", "'Lee",
    "Straße", "12", "9:30", "re.June", "x-Lee", "June\u00a0Lee", "Lee  Ho", "Jose\u0301",
    "\uff2a\uff55\uff4e\uff45", "x\u00b2June", "\u00bdLee", "Ho\u2460", "a2Lee",
]


# words that keep a text on the ASCII path of the gazetteer's start finder
_ASCII_WORDS = [
    *(w for w in _WORDS if w.isascii() and "  " not in w), "_Lee", "Ho-June", "Lee.", "ivy",
]


@st.composite
def entries_and_text(draw, pool: list[str] = _WORDS) -> tuple[dict[str, list[str]], str]:
    """A text, and entries cut from runs of its words so that they overlap
    each other and the dates and times around them."""
    words = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    entries: dict[str, list[str]] = {}
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, len(words) - 1))
        end = start + draw(st.integers(1, 3))
        label = draw(st.sampled_from(["org", "person"]))
        entries.setdefault(label, []).append(" ".join(words[start:end]))
    return entries, " ".join(words)


class TestChoiceProperty:
    @given(entries_and_text())
    @settings(max_examples=200, deadline=None)
    @example(({"person": ["june lee", "lee ho"]}, "see you 12 June Lee Ho"))
    @example(({"person": ["john smith"]}, "he said \u2019John Smith\u2019"))
    def test_every_candidate_is_kept_or_loses_to_an_earlier_kept_span(self, case):
        entries, text = case
        candidates = set(longest_at_starts(entries, text)) | {
            (PRIORITY_REGEX, s.start, s.end, s.tags[0])
            for det in catalogue()
            for s in det.matcher(text)
        }
        order = {c: (c[0], -(c[2] - c[1]), c[1], c[3]) for c in candidates}
        detected = DetectorSuite([*catalogue(), entity_detector(Gazetteer(entries))]).detect(text)
        kept = [c for c in candidates if span(c[1], c[2], c[3]) in detected]
        assert len(kept) == len(detected)
        for c in candidates - set(kept):
            assert any(
                k[1] < c[2] and c[1] < k[2] and order[k] < order[c] for k in kept
            ), f"{c} dropped without an earlier overlapping kept span"


class TestGazetteerScan:
    """The scan order, the ASCII start finder and the initials are built on
    the first match after an ``add``; none changes what the gazetteer finds."""

    @given(st.one_of(entries_and_text(), entries_and_text(_ASCII_WORDS)))
    @settings(max_examples=200, deadline=None)
    @example(({"person": ["june lee"], "org": ["lee"]}, "x-Lee re.June Lee a2Lee _Lee"))
    def test_find_entities_is_the_longest_at_each_start(self, case):
        entries, text = case
        found = Gazetteer(entries).find_entities(text)
        assert sorted((PRIORITY_ENTITY, s.start, s.end, s.tags[0]) for s in found) == sorted(
            longest_at_starts(entries, text)
        )

    @given(
        # ı and ſ: forms whose initial's upper case is ASCII
        st.lists(st.sampled_from(["kim", "Sam", "\u0131ris", "\u017fam", "_x", "'lee", "9 a", ".n"])),
        st.text(alphabet="aiksxIKSX019_'.- \n", max_size=30),
    )
    @settings(max_examples=300, deadline=None)
    @example(["\u0131ris", "\u017fam"], "IRIS SAM iris sam")
    def test_ascii_start_finder_misses_no_start(self, forms, text):
        """Every start that ``_word_starts`` yields and the initials admit
        is found; an extra candidate is allowed, as no form matches there."""
        gaz = Gazetteer({"org": forms})
        fast = {m.start() for m in gaz._scan()[1].finditer(text)}
        lower = text.lower()
        initials = gaz._scan()[2]
        assert {i for i in detectors._word_starts(text) if lower[i] in initials} <= fast

    def test_form_added_after_a_match_is_found(self):
        gaz = Gazetteer({"org": ["acme"]})
        text = "Acme met Zeta"
        assert gaz.find_entities(text) == [span(0, 4, "org")]
        assert gaz.find_partial_entities("Acme met Ze") == []
        gaz.add("org", "zeta")
        assert gaz.find_entities(text) == [span(0, 4, "org"), span(9, 13, "org")]
        assert gaz.find_partial_entities("Acme met Ze") == [span(9, 11, "org")]

    def test_label_added_later_still_wins_a_tie_if_it_sorts_first(self):
        gaz = Gazetteer()
        for label in ["place", "org", "location"]:
            gaz.add(label, "jordan")
            assert gaz.find_entities("in Jordan") == [span(3, 9, label)]

    def test_threads_sharing_a_fresh_gazetteer_agree_with_a_serial_run(self):
        entries = {"person": ["june lee", "lee ho"], "org": ["acme", "o'brien"], "at": ["straße"]}
        texts = ["see June Lee Ho", "O'Brien at ACME", "x-Lee re.June", "Straße", "Jos\u00e9 Lee"]
        texts *= 20
        serial = [Gazetteer(entries).find_entities(t) for t in texts]
        gaz, start = Gazetteer(entries), threading.Barrier(4)
        results: list = [None] * 4

        def run(k: int) -> None:
            start.wait()  # all four reach the first match together
            results[k] = [gaz.find_entities(t) for t in texts]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [serial] * 4


class TestPartialProperty:
    @given(entries_and_text(), st.integers(1, 200))
    @settings(max_examples=200, deadline=None)
    @example(({"person": ["john smith"]}, "x.John Smith"), 4)
    @example(({"person": ["June Lee", "Lee Ho"]}, "see June\u00a0Lee Ho"), 10)
    def test_each_entry_proposes_its_longest_tail(self, case, cut):
        entries, text = case
        text = text[: min(cut, len(text))]
        found = Gazetteer(entries).find_partial_entities(text)
        assert sorted(found, key=astuple) == sorted(longest_tails(entries, text), key=astuple)


class TestSpanAlgebra:
    def test_merge_partial_overlap_makes_compound(self):
        merged = merge_spans([span(0, 5, "time"), span(3, 9, "ip")])
        assert merged == [span(0, 9, "ip", "time")]

    def test_merge_keeps_disjoint(self):
        spans = [span(5, 8, "date"), span(0, 3, "zip")]
        assert merge_spans(spans) == [span(0, 3, "zip"), span(5, 8, "date")]

    def test_render_and_locate(self):
        text = "meet 5/6 at noon"
        out, out_spans = render_redacted(text, [span(5, 8, "date")])
        assert out == "meet <date> at noon"
        assert out_spans == [span(5, 11, "date")]

    def test_span_validation(self):
        with pytest.raises(ValueError):
            RedactionSpan(3, 3, ("x",))
        with pytest.raises(ValueError):
            RedactionSpan(0, 1, ())

    def test_tags_canonicalized(self):
        s = RedactionSpan(0, 1, ("phone", "date", "phone"))
        assert s.tags == ("date", "phone")
        assert s.placeholder() == "<date|phone>"


@functools.cache
def bundled_entries() -> list[tuple[str, str, int]]:
    """Each bundled catalogue line as ``(label, pattern, min_len)``."""
    lines = numbered_lines(detectors._bundled(detectors._BUNDLED_CATALOGUE), comments=True)
    return [(f[0], f[1], int(f[2])) for f in (line.split("\t") for _, line in lines)]


def holds(gate, text: str) -> bool:
    return gate in text if isinstance(gate, str) else bool(gate.search(text))


def scanned(pattern: str, min_len: int, text: str) -> list[RedactionSpan]:
    """A catalogue matcher's spans: a scan of the text."""
    return [
        span(m.start(), m.end(), "x")
        for m in regex.finditer(pattern, text)
        if m.end() - m.start() >= min_len
    ]


# gate characters, their case variants (the Kelvin sign, long s), digits of
# other scripts (fullwidth, Arabic-Indic) and the catalogue's own samples
_GATE_CHARS = [
    *"aAbBkKsS@.-:$/,+ 0159\n", "\u212a", "\u017f", "\u00b5", "\u039c", "\uff11", "\u0661",
]
_PIECES = [*_GATE_CHARS, *(t for ts in LABEL_SAMPLES.values() for t in ts), "may 5", "5th", "pm"]
gate_texts = st.lists(st.sampled_from(_PIECES), max_size=12).map("".join)

_ATOMS = [
    "a", "b", "k", "s", "K", "@", r"\.", "-", ":", r"\$", "1", "5", "[a-c]", "[0-5]", r"\d", r"\s",
    "[.:@]", "[^a]", ".", "[a1]", "\u212a", "\u017f", r"\b", "^",
]


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["?", "*", "+", "{2,3}", "{0,2}", "??"])).map(
            lambda t: f"(?:{t[0]}){t[1]}"
        ),
        st.lists(inner, min_size=2, max_size=3).map("".join),
        st.lists(inner, min_size=2, max_size=3).map(lambda bs: "(?:" + "|".join(bs) + ")"),
        st.tuples(st.sampled_from(["(", "(?=", "(?!", "(?<=", "(?<!", "(?i:", "(?-i:"]), inner).map(
            lambda t: f"{t[0]}{t[1]})"
        ),
    )


def ungated(dets: list[Detector]) -> DetectorSuite:
    """A suite of ``dets`` with every gate emptied: each scans every text."""
    return DetectorSuite(dataclasses.replace(d, gates=()) for d in dets)


class CountingGate:
    """A stub gate, a class of the digit 5 that counts its searches."""

    pattern, flags = "[5]", 0

    def __init__(self) -> None:
        self.searches = 0

    def search(self, text: str):
        self.searches += 1
        return regex.search(self.pattern, text)


gate_patterns = st.tuples(
    st.sampled_from(["", "(?i)"]), st.recursive(st.sampled_from(_ATOMS), _extend, max_leaves=8)
).map("".join)


# each bundled catalogue line's gates, in catalogue order: a character, or a
# class's source
BUNDLED_GATES = [
    ("url", [r"[\.\:]"]),
    ("email", ["@", "."]),
    ("ip", [".", r"[12\d]"]),
    ("ip", [":"]),
    ("ip", [":"]),
    ("ssn", ["-", r"[\d]"]),
    ("credit_card", [r"[\d]"]),
    ("credit_card", [r"[\d]"]),
    ("phone", [r"[\d]"]),
    ("street_address", [r"[\d]"]),
    ("zip", [r"[\d]"]),
    ("date", [r"[\-\/]", r"[\d]"]),
    ("date", [r"[\d]"]),
    ("date", [r"[\d]"]),
    ("time", [":", "[0-5]"]),
    ("price", ["$", r"[\d]"]),
]


def gate_source(gate) -> str:
    return gate if isinstance(gate, str) else gate.pattern


class TestCatalogueGates:
    def test_every_bundled_pattern_has_a_gate(self):
        ungated = [(label, p) for label, p, _ in bundled_entries() if not pattern_gates(p)]
        assert not ungated

    def test_bundled_gates_line_by_line(self):
        found = [(label, pattern_gates(p)) for label, p, _ in bundled_entries()]
        assert [(label, [gate_source(g) for g in gates]) for label, gates in found] == BUNDLED_GATES

    def test_default_suite_tests_ten_distinct_gate_objects(self):
        gates = [g for det in default_suite().detectors for g in det.gates]
        assert len(gates) == 22
        assert len({id(g) for g in gates}) == 10

    @given(gate_texts)
    @settings(max_examples=300, deadline=None)
    @example("call 555-123-4567 or mail bob@example.com at 5:30pm for $19.99")
    @example("\uff15\uff15\uff15-\uff11\uff12\uff13\uff14 \u0661\u0662:\u0663\u0664")
    def test_gated_detect_equals_an_ungated_detect(self, text):
        """The default suite, and each bundled pattern alone, detect with
        their gates what they detect with none, on texts holding gate
        characters, case variants of letters and digits of other scripts;
        a matcher is a plain scan."""
        suite = default_suite()
        assert suite.detect(text) == ungated(suite.detectors).detect(text)
        for (label, pattern, min_len), det in zip(bundled_entries(), catalogue()):
            assert det.matcher(text) == [
                RedactionSpan(s.start, s.end, (label,)) for s in scanned(pattern, min_len, text)
            ], pattern
            assert DetectorSuite([det]).detect(text) == ungated([det]).detect(text), pattern

    def test_a_shared_gate_is_searched_once_per_text(self):
        gate, called = CountingGate(), []

        def matcher(text):
            called.append(text)
            return [span(0, 1, "x")]

        suite = DetectorSuite(Detector(n, PRIORITY_REGEX, matcher, gates=(gate,)) for n in "abc")
        assert suite.detect("5 and 5") == [span(0, 1, "x")]
        assert (gate.searches, len(called)) == (1, 3)
        assert suite.detect("no digit") == []
        assert (gate.searches, len(called)) == (2, 3)

    def test_patterns_sharing_a_class_share_one_gate(self):
        """Equal classes are one object, even when ``regex``'s own cache is
        emptied between two patterns, so a text searches that class once."""
        first = regex_detector("a", r"\d+-")
        regex.purge()
        second = regex_detector("b", r"[\d]{2}")
        digit = first.gates[1]
        uses = [g for det in [*catalogue(), second] for g in det.gates if gate_source(g) == r"[\d]"]
        assert len(uses) == 11 and all(g is digit for g in uses)

    @given(gate_patterns, st.lists(st.sampled_from(_GATE_CHARS), max_size=16).map("".join))
    @settings(max_examples=400, deadline=None)
    @example("(?i:ab)", "AB")
    @example("x(?i:k)", "xK")
    @example("(?i)x(?-i:k)", "Xk")
    @example("(?i)(?:s|1)", "\u017f")
    def test_every_match_holds_each_derived_class(self, pattern, text):
        """Every match holds a character of each class the derivation finds,
        and the gated matcher finds what a scan finds.  The atoms include
        cased letters and their case variants (the Kelvin sign, long s, µ)
        under scoped flags; only ASCII digit and punctuation classes and
        ``\\d`` are derived, which no flag widens."""
        try:
            compiled = regex.compile(pattern)
        except regex.error:
            return
        gates = [detectors._gate(c) for c in detectors._necessary_classes(pattern)]
        for m in compiled.finditer(text):
            assert all(holds(g, m.group()) for g in gates), (pattern, m)
        det = regex_detector("x", pattern)
        assert DetectorSuite([det]).detect(text) == ungated([det]).detect(text)

    @pytest.mark.parametrize(
        "pattern",
        [
            r"\p{L}\d",  # syntax only regex knows
            r"(?V1)\d",
            r"[[:digit:]]x",
            r"[\d--5]",
            r"(?:\d:){e<=1}",  # a fuzzy-match constraint, literal text to re
            r"\d*",  # can match the empty string
            r"(?:\d|)-?",
            r"(?=\d)",
            r"[^\d]\D",  # negated classes
            r"(?i)[a-z]",  # cased letters under (?i)
            "\u20ac[a-z]",  # classes of neither ASCII digits nor punctuation
        ],
    )
    def test_pattern_without_a_gate_is_always_scanned(self, pattern):
        assert pattern_gates(pattern) == regex_detector("x", pattern).gates == ()
        text = "abc 5 1:2 \u0665 ab"
        suite = DetectorSuite([regex_detector("x", pattern)])
        assert suite.detect(text) == scanned(pattern, 1, text)

    def test_gates_most_selective_first(self):
        assert pattern_gates(r"\d+@\d") == ("@", pattern_gates(r"\d")[0])
        assert [g.pattern for g in pattern_gates(r"(?:https?://|www\.)x")] == [r"[\.\:]"]

    def test_partial_matching_is_not_gated(self):
        (det,) = [d for d in catalogue() if d.name == "email"]
        assert det.gates == ("@", ".")
        assert DetectorSuite([det]).detect("write to bob") == []
        assert det.partial_matcher("write to bob") == [span(9, 12, "email")]

    @pytest.mark.parametrize("flags", ["(?i)", "(?fi)", "(?V1i)"])
    def test_gate_characters_have_no_case_variant(self, flags):
        """The premise of the derivation: no gate character (an ASCII digit
        or punctuation character) and no ``\\d`` character matches another
        code point under a case-insensitive flag, and ``\\d`` is the same set."""
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        digits = regex.findall(r"\d", every)
        assert regex.findall(flags + r"\d", every) == digits
        for chars in ("".join(map(chr, sorted(detectors._GATE_CHARS))), "".join(digits)):
            cls = "[" + regex.escape(chars, special_only=False) + "]"
            assert regex.findall(flags + cls, every) == sorted(chars)
