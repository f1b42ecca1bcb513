"""Detector suite: catalogue formats, overlap resolution, gazetteer matching,
and the prefix-awareness guarantee the stream redactor depends on."""

from __future__ import annotations

import pytest

from scrublang import detectors
from scrublang.detectors import (
    CatalogueError,
    Detector,
    DetectorSuite,
    Gazetteer,
    entity_detector,
    load_catalogue,
    regex_detector,
    default_suite,
)
from scrublang.spans import RedactionSpan, merge_spans, render_redacted, span

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
    return not text or any(s.end == len(text) for s in suite.provisional(text))


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
