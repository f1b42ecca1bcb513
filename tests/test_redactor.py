"""Streaming redaction: token completion, the two rollback stages, entry
finalization triggers, and the module-level safety properties."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scrublang.detectors import (
    DetectorSuite,
    Gazetteer,
    default_suite,
    entity_detector,
    load_catalogue,
)
from scrublang.redactor import (
    BOUNDARY_CHARS,
    EmptyBufferError,
    EntryBuffer,
    KeystrokeEvent,
    OutOfOrderError,
    StreamRedactor,
    _Snapshot,
    detect_token_completion,
    redact_string,
)
from scrublang.spans import RedactionSpan, clip_spans, render_redacted
from redactor_oracle import prefix_overlay, token_completion
from session_sim import leak_fragments, random_session, run_session
from test_detectors import leak_suite


def ev(text: str, t: int, user: str = "u1", app: str = "sms", **flags) -> KeystrokeEvent:
    return KeystrokeEvent(user_id=user, timestamp=t, app_id=app, current_text=text, **flags)


def type_text(redactor: StreamRedactor, text: str, clear: bool = True, t0: int = 0):
    entries = []
    t = t0
    for i in range(1, len(text) + 1):
        t += 100
        entries += redactor.ingest_event(ev(text[:i], t))
    if clear:
        entries += redactor.ingest_event(ev("", t + 100))
    return entries


class TestTokenCompletion:
    def test_boundary_append(self):
        assert detect_token_completion("hello", "hello ") == (0, 5)

    def test_replacement_without_boundary(self):
        assert detect_token_completion("hello", "hellp") is None

    def test_punctuation_boundary(self):
        assert detect_token_completion("hi bob", "hi bob!") == (3, 6)

    def test_pure_deletion_is_not_completion(self):
        assert detect_token_completion("hi bob!", "hi bob") is None
        assert detect_token_completion("hi bob! friend", "hi bob!") is None

    def test_boundary_after_boundary(self):
        assert detect_token_completion("hello ", "hello  ") is None
        assert detect_token_completion("hi bob! ", "hi bob! !") is None

    def test_multichar_append_with_boundary(self):
        assert detect_token_completion("hel", "hello ") == (0, 5)
        assert detect_token_completion("hello", "hello!! ") == (0, 5)

    def test_autocorrect_replacement(self):
        # delete-then-append semantics: "Tal" -> "Taylor " completes "Taylor"
        assert detect_token_completion("Tal", "Taylor ") == (0, 6)
        assert detect_token_completion("hi bob?x", "hi bob!") == (3, 6)

    def test_empty_strings(self):
        assert detect_token_completion("", "") is None
        assert detect_token_completion("", " ") is None
        assert detect_token_completion("a", "") is None

    @given(st.data())
    @settings(max_examples=1000, deadline=None)
    def test_matches_character_loops(self, data):
        # an append, a deletion or a replacement of any range, on texts over
        # two letters and every boundary character
        text = st.text(alphabet="ab" + BOUNDARY_CHARS, max_size=12)
        previous = data.draw(text)
        i = data.draw(st.integers(0, len(previous)))
        j = data.draw(st.integers(i, len(previous)))
        edit = data.draw(st.sampled_from(["append", "delete", "replace"]))
        if edit == "append":
            current = previous + data.draw(text)
        else:
            current = previous[:i] + (data.draw(text) if edit == "replace" else "") + previous[j:]
        assert detect_token_completion(previous, current) == token_completion(previous, current)


class TestIngest:
    def test_backspace_stream_buffers_without_emitting(self):
        r = StreamRedactor()
        entries = []
        for i, snap in enumerate(["T", "Ta", "Tai", "Ta", "Tal"]):
            entries += r.ingest_event(ev(snap, i * 100))
        assert entries == []
        (entry,) = r.finish()
        assert entry.final_text == "Tal"
        assert (entry.start_timestamp, entry.end_timestamp) == (0, 400)

    def test_snapshots_off_buffer_is_bounded(self):
        # a long entry keeps only its newest snapshot
        r = StreamRedactor()
        text = ("call 555-123-4567 or mail xq9w@zmail.net " * 20)[:500]
        type_text(r, text, clear=False)
        assert len(r._buffers[("u1", "sms")].history) == 1
        (entry,) = r.finish()
        assert entry.final_text == redact_string(text).text
        assert (entry.start_timestamp, entry.end_timestamp) == (100, 50_000)

    def test_password_field_is_structural(self):
        r = StreamRedactor(keep_snapshots=True)
        r.ingest_event(ev("hunter2", 0, is_password=True))
        (entry,) = r.ingest_event(ev("", 100, is_password=True))
        assert entry.final_text == "<password>"
        assert entry.snapshots == ()
        assert "hunter2" not in entry.to_json()

    def test_phone_field_is_structural(self):
        r = StreamRedactor(keep_snapshots=True)
        r.ingest_event(ev("6105550123", 0, is_phone_field=True))
        (entry,) = r.ingest_event(ev("", 100))
        assert entry.final_text == "<phone>"
        assert entry.snapshots == ()

    def test_stage1_rewrites_digit_prefixes(self):
        r = StreamRedactor(keep_snapshots=True)
        text = "call 555-123-4567 "
        t = 0
        for i in range(1, len(text) + 1):
            t += 100
            r.ingest_event(ev(text[:i], t))
        buf = r._buffers[("u1", "sms")]
        # every snapshot extending into the number now carries a phone span
        for snap in buf.history:
            if len(snap.text) > 5:
                assert any(
                    s.start == 5 and "phone" in s.tags for s in snap.confirmed
                ), snap.text
        (entry,) = r.ingest_event(ev("", t + 100))
        assert entry.final_text == "call <phone> "
        assert set(entry.snapshots[5:]) <= {"call <phone>", "call <phone> "}

    def test_out_of_order_timestamp_rejected(self):
        r = StreamRedactor()
        r.ingest_event(ev("a", 1000))
        with pytest.raises(OutOfOrderError):
            r.ingest_event(ev("ab", 900))

    def test_unknown_stream_creates_buffer(self):
        r = StreamRedactor()
        assert r.ingest_event(ev("x", 0, user="new-user", app="new-app")) == []
        assert ("new-user", "new-app") in r._buffers

    def test_timeout_finalizes_previous_entry(self):
        r = StreamRedactor(timeout_ms=60_000)
        type_text(r, "first message", clear=False)
        entries = r.ingest_event(ev("n", 10_000_000))
        assert len(entries) == 1
        assert entries[0].final_text == "first message"
        (second,) = r.ingest_event(ev("", 10_000_100))
        assert second.final_text == "n"

    def test_distinct_streams_are_independent(self):
        r = StreamRedactor()
        r.ingest_event(ev("hello a", 0, app="app1"))
        r.ingest_event(ev("other", 0, app="app2"))
        entries = r.finish()
        assert sorted(e.final_text for e in entries) == ["hello a", "other"]


@pytest.mark.parametrize("keep_snapshots", [False, True])
class TestStructuralTimes:
    """A password or phone-field entry starts at its first non-empty event
    and ends at its last event; its text is never retained."""

    def test_password_typed_then_cleared(self, keep_snapshots):
        r = StreamRedactor(keep_snapshots=keep_snapshots)
        for t, text in [(1000, "h"), (2000, "hu"), (3000, "hun")]:
            assert r.ingest_event(ev(text, t, is_password=True)) == []
        (entry,) = r.ingest_event(ev("", 4000, is_password=True))
        assert (entry.final_text, entry.start_timestamp, entry.end_timestamp) == ("<password>", 1000, 4000)

    def test_phone_field_ended_by_timeout(self, keep_snapshots):
        r = StreamRedactor(timeout_ms=60_000, keep_snapshots=keep_snapshots)
        r.ingest_event(ev("610", 1000, is_phone_field=True))
        r.ingest_event(ev("6105550", 2000, is_phone_field=True))
        (entry,) = r.ingest_event(ev("hi", 100_000))
        assert (entry.final_text, entry.start_timestamp, entry.end_timestamp) == ("<phone>", 1000, 2000)
        (second,) = r.finish()
        assert (second.final_text, second.start_timestamp) == ("hi", 100_000)

    def test_phone_field_ended_by_finish(self, keep_snapshots):
        r = StreamRedactor(keep_snapshots=keep_snapshots)
        r.ingest_event(ev("610", 1000, is_phone_field=True))
        r.ingest_event(ev("6105550", 2000, is_phone_field=True))
        (entry,) = r.finish()
        assert (entry.final_text, entry.start_timestamp, entry.end_timestamp) == ("<phone>", 1000, 2000)

    def test_empty_structural_event_then_typing(self, keep_snapshots):
        # focusing the empty field is no content: the entry starts at typing
        r = StreamRedactor(keep_snapshots=keep_snapshots)
        assert r.ingest_event(ev("", 500, is_password=True)) == []
        r.ingest_event(ev("p", 1000, is_password=True))
        r.ingest_event(ev("pw", 2000, is_password=True))
        (entry,) = r.ingest_event(ev("", 3000, is_password=True))
        assert (entry.final_text, entry.start_timestamp, entry.end_timestamp) == ("<password>", 1000, 3000)

    def test_text_before_password_keeps_its_start(self, keep_snapshots):
        r = StreamRedactor(keep_snapshots=keep_snapshots)
        r.ingest_event(ev("my pin", 1000))
        r.ingest_event(ev("1234", 2000, is_password=True))
        (entry,) = r.ingest_event(ev("", 3000, is_password=True))
        assert (entry.final_text, entry.start_timestamp) == ("<password>", 1000)
        assert "pin" not in entry.to_json() and "1234" not in entry.to_json()

    @pytest.mark.parametrize("ending", ["clear", "timeout", "finish"])
    def test_password_after_text_ends_at_its_last_event(self, keep_snapshots, ending):
        r = StreamRedactor(timeout_ms=60_000, keep_snapshots=keep_snapshots)
        r.ingest_event(ev("my pin", 1000))
        r.ingest_event(ev("1234", 2000, is_password=True))
        if ending == "clear":
            (entry,) = r.ingest_event(ev("", 3000, is_password=True))
        elif ending == "timeout":
            (entry,) = r.ingest_event(ev("hi", 100_000))
        else:
            (entry,) = r.finish()
        end = 3000 if ending == "clear" else 2000
        assert (entry.final_text, entry.start_timestamp, entry.end_timestamp) == ("<password>", 1000, end)


class TestRollbackStage1:
    def _suite_with_taylor(self) -> DetectorSuite:
        gaz = Gazetteer({"person": ["taylor swift"]})
        return DetectorSuite(load_catalogue() + [entity_detector(gaz)])

    def test_disproved_token_clears_hypotheses(self):
        # "Tay" could be the start of a gazetteer person; completing "Taylor "
        # without a match must clear the provisional tail ("or lack thereof")
        r = StreamRedactor(suite=self._suite_with_taylor(), keep_snapshots=True)
        for i, n in enumerate(range(1, len("Taylor ") + 1)):
            r.ingest_event(ev("Taylor "[:n], i * 100))
        buf = r._buffers[("u1", "sms")]
        assert all(not s.confirmed for s in buf.history)
        (entry,) = r.finish()
        assert entry.snapshots == tuple("Taylor "[:n] for n in range(1, len("Taylor ")))

    def test_later_completion_restores_entity_span(self):
        r = StreamRedactor(suite=self._suite_with_taylor(), keep_snapshots=True)
        entries = type_text(r, "Taylor Swift rocks")
        assert entries[0].final_text == "<person> rocks"
        # snapshots from before the full name completed are covered too
        assert entries[0].snapshots[len("Taylor ") - 1] == "<person>"

    def test_deleted_digits_never_resurface(self):
        # part of a number is typed, deleted, and another number completes
        seq = ["call 5", "call 55", "call 555", "call 555-", "call 555-1", "call 555-", "call 555",
               "call 55", "call 5", "call ", "call o", "call ok", "call ok ",
               "call ok 555-867-5309"]
        full = ["c", "ca", "cal", "call", "call "] + seq
        r = StreamRedactor(keep_snapshots=True)
        t = 0
        entries = []
        for snap in full:
            t += 100
            entries += r.ingest_event(ev(snap, t))
        entries += r.ingest_event(ev("", t + 100))
        (entry,) = entries
        assert entry.final_text == "call ok <phone>"
        for retained in entry.snapshots:
            for fragment in leak_fragments("555-867-5309"):
                assert fragment not in retained
            # digits of the abandoned attempt stay covered as well
            assert "555-1" not in retained


class TestFinalize:
    def test_zero_detections_verbatim(self):
        r = StreamRedactor()
        entries = type_text(r, "plain words only")
        assert entries[0].final_text == "plain words only"
        assert entries[0].spans == ()

    def test_empty_buffer_is_an_error(self):
        r = StreamRedactor()
        r.ingest_event(ev("a", 0))
        buf = r._buffers[("u1", "sms")]
        buf.reset()
        with pytest.raises(EmptyBufferError):
            r.finalize_entry(buf)

    def test_compound_tag_on_partially_overlapping_spans(self):
        # "12:34" is a complete time at its moment; the final string turns out
        # to be an IPv6 address, so the snapshot keeps both labels
        r = StreamRedactor(keep_snapshots=True)
        entries = type_text(r, "12:34:5678:9abc:def0 ok")
        (entry,) = entries
        assert entry.final_text == "<ip> ok"
        assert "<ip|time>" in entry.snapshots

    def test_snapshots_off_by_default(self):
        r = StreamRedactor()
        entries = type_text(r, "call 555-123-4567 now")
        assert entries[0].snapshots == ()

    def test_spans_locate_placeholders_in_final_text(self):
        r = StreamRedactor()
        (entry,) = type_text(r, "email xq9w@zmail.net ok")
        (span,) = entry.spans
        assert entry.final_text[span.start : span.end] == "<email>"

    def test_finish_flushes_open_streams_sorted(self):
        r = StreamRedactor()
        r.ingest_event(ev("beta", 0, app="b"))
        r.ingest_event(ev("alpha", 0, app="a"))
        entries = r.finish()
        assert [e.final_text for e in entries] == ["alpha", "beta"]

    def test_edited_away_snapshot_is_not_detected_again(self):
        """A snapshot's confirmed spans already hold its complete matches, so
        finalization runs no ``detect`` at all (the newest snapshot's spans
        are the final text's) and adds just the in-progress tails of a
        snapshot whose content was edited away."""

        class CountingSuite(DetectorSuite):
            detect_calls = 0

            def detect(self, text):
                self.detect_calls += 1
                return super().detect(text)

        suite = CountingSuite(default_suite().detectors)
        r = StreamRedactor(suite=suite, keep_snapshots=True)
        r.ingest_event(ev("call 555-12", 0))
        r.ingest_event(ev("ok", 100))
        suite.detect_calls = 0
        entry = r.finalize_entry(r._buffers[("u1", "sms")])
        assert suite.detect_calls == 0
        assert entry.final_text == "ok"
        (snapshot,) = entry.snapshots
        assert snapshot.startswith("call <") and "555" not in snapshot


@st.composite
def canonical_spans(draw, length: int) -> list[RedactionSpan]:
    """Sorted, non-overlapping spans within ``length`` characters, some of
    them adjacent, each with one or two of three tags."""
    spans, pos = [], 0
    pieces = st.tuples(st.integers(0, 3), st.integers(1, 6), st.lists(st.sampled_from("abc"), min_size=1, max_size=2))
    for gap, width, tags in draw(st.lists(pieces, max_size=6)):
        if pos + gap + width > length:
            break
        spans.append(RedactionSpan(pos + gap, pos + gap + width, tuple(tags)))
        pos += gap + width
    return spans


class TestPrefixOverlay:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_pieces(self, data):
        # a snapshot that is a prefix of the final text, with random final
        # and confirmed spans; "x" text makes the rendering show every span
        length = data.draw(st.integers(1, 30))
        prefix = data.draw(st.integers(1, length))
        final = data.draw(canonical_spans(length))
        confirmed = data.draw(canonical_spans(prefix))
        raw = "x" * length
        buf = EntryBuffer("u1", "sms", [_Snapshot(0, raw[:prefix], confirmed), _Snapshot(1, raw, final)])
        buf.start_timestamp = 0
        (snapshot,) = StreamRedactor(keep_snapshots=True).finalize_entry(buf).snapshots
        expected = prefix_overlay(clip_spans(final, prefix), confirmed)
        assert snapshot == render_redacted(raw[:prefix], expected)[0]


class TestOverlappingNames:
    """A typed name whose only conflict is a longer name that a date beats is
    still redacted."""

    @pytest.mark.parametrize("keep_snapshots", [False, True])
    def test_typed(self, keep_snapshots):
        r = StreamRedactor(suite=leak_suite(), keep_snapshots=keep_snapshots)
        (entry,) = type_text(r, "see you 12 June Lee Ho")
        assert entry.final_text == "see you <date> <person>"


class TestRedactString:
    def test_email(self):
        assert redact_string("email me at bob@example.com").text == "email me at <email>"

    def test_empty(self):
        assert redact_string("").text == ""

    def test_gazetteer_entity(self):
        assert (
            redact_string("reading Anna Karenina tonight").text
            == "reading <work of art> tonight"
        )

    def test_spans_are_on_redacted_text(self):
        result = redact_string("ssn 123-45-6789 end")
        (span,) = result.spans
        assert result.text[span.start : span.end] == "<ssn>"

    @given(
        st.text(
            alphabet="abc 0123456789-@.$:/xyz",
            max_size=60,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, text):
        once = redact_string(text).text
        assert redact_string(once).text == once


class TestProperties:
    def test_determinism(self):
        rng = np.random.default_rng(7)
        session = random_session(rng)
        outs = []
        for _ in range(2):
            r = StreamRedactor(keep_snapshots=True)
            outs.append([e.to_json() for e in run_session(r, session)])
        assert outs[0] == outs[1]

    def test_online_offline_equivalence_sample(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            session = random_session(rng)
            r = StreamRedactor(keep_snapshots=True)
            entries = run_session(r, session)
            assert len(entries) == 1
            assert entries[0].final_text == redact_string(session.final_raw).text

    def test_monotone_snapshots(self):
        # redacted snapshots only replace regions; what is left must be a
        # subsequence of some raw snapshot (no characters invented)
        import re as _re

        rng = np.random.default_rng(13)
        for _ in range(10):
            session = random_session(rng)
            r = StreamRedactor(keep_snapshots=True)
            (entry,) = run_session(r, session)
            raws = [e.current_text for e in session.events]
            for snap in entry.snapshots:
                visible = _re.sub(r"<[a-z][a-z0-9_ ]*(\|[a-z][a-z0-9_ ]*)*>", "\x00", snap)
                chunks = [c for c in visible.split("\x00") if c]
                assert any(
                    all(chunk in raw for chunk in chunks) for raw in raws
                ), (snap, chunks)

    def test_leak_freedom_sample(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            session = random_session(rng)
            r = StreamRedactor(keep_snapshots=True)
            (entry,) = run_session(r, session)
            retained = [entry.final_text, *entry.snapshots]
            for pii in session.pii_in_final:
                for fragment in leak_fragments(pii):
                    for text in retained:
                        assert fragment not in text, (pii, fragment, text)


class TestGoldenOutput:
    """Entries emitted for fixed-seed typing sessions are pinned by digest, so
    any change to ingest or finalization that alters a single byte of output
    (final text, spans, timestamps or redacted snapshots) fails here."""

    N_SESSIONS = 200
    DIGEST = {
        True: "52c9f7c34bc6c4bcb927587ffbe4a96d406f1625bd19d96552eb80f35c7c6e72",
        False: "8c7f4512487144dcf0708058221770ca9348349da3e0e70b3027fd886d8929a7",
    }

    @staticmethod
    def _run(sessions, keep_snapshots: bool):
        suite = default_suite()
        return [
            entry
            for session in sessions
            for entry in run_session(StreamRedactor(suite=suite, keep_snapshots=keep_snapshots), session)
        ]

    def test_digest_and_mode_agreement(self):
        rng = np.random.default_rng(2024)
        sessions = [random_session(rng, t0=1_000_000 + i) for i in range(self.N_SESSIONS)]
        outputs = {keep: self._run(sessions, keep) for keep in (True, False)}
        for keep, entries in outputs.items():
            digest = hashlib.sha256("".join(e.to_json() + "\n" for e in entries).encode())
            assert digest.hexdigest() == self.DIGEST[keep], f"keep_snapshots={keep}"
        on, off = outputs[True], outputs[False]
        assert len(on) == len(off) == self.N_SESSIONS
        for a, b in zip(on, off):
            assert (a.final_text, a.spans, a.start_timestamp, a.end_timestamp) == (
                b.final_text, b.spans, b.start_timestamp, b.end_timestamp
            )
            assert b.snapshots == ()
