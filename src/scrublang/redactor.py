"""Streaming keystroke-log redaction with two-stage rollback.

Keystroke loggers store a text field one snapshot per keystroke, including
deletions and autocorrect replacements, so sensitive strings exist in the log
as partial fragments long before they are complete enough to match any known
PII format.  This module consumes those snapshots and produces sanitized
entries in which no retained string leaks a fragment of detectable PII.

With snapshot retention on, every snapshot is kept and annotated:

* on every snapshot, the complete detector matches on its text are recorded;
* stage 1 — whenever a token is completed at the end of the string, the real
  detection outcome for that token (a confirmed span, or nothing) is rolled
  back through every earlier snapshot sharing the text before the token;
* stage 2 — when the whole entry is complete, the full-string detections are
  overlaid onto every retained snapshot; where a snapshot's own confirmed span
  only partially overlaps a final span, the labels merge into a compound tag
  such as ``<date|phone>``.  Snapshots whose content was edited away get
  their in-progress tails tagged provisionally too (via the detector suite's
  prefix awareness), since the final string cannot vouch for them.

With retention off, an entry carries only its final text and its start and
end times, so ingestion runs no detector at all and a stream's buffer holds
just its newest snapshot: memory per stream is bounded by the length of the
text, not by the number of keystrokes.

An entry starts at its first non-empty event.  It ends at its newest retained
snapshot, or at its last event when it holds a password or phone field.

Entries from password or phone-number fields are dropped structurally: only a
single ``<password>`` / ``<phone>`` placeholder survives.

State is per stream (one ``(user_id, app_id)`` pair); distinct streams may be
fed from different threads, a single stream must not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .detectors import DetectorSuite, default_suite
from .spans import Record, RedactionSpan, clip_spans, json_record, merge_spans, render_redacted

BOUNDARY_CHARS = " \t\n\r.,!?;:"
DEFAULT_TIMEOUT_MS = 60_000

# each KeystrokeEvent field's JSON type, in field order; the two flags may be left out
_parse_event = json_record(
    {"user_id": str, "timestamp": int, "app_id": str, "current_text": str,
     "is_password": bool, "is_phone_field": bool},
    is_password=False, is_phone_field=False,
)

STRUCTURAL_PASSWORD = "password"
STRUCTURAL_PHONE = "phone"


class RedactionError(Exception):
    pass


class OutOfOrderError(RedactionError):
    """Event timestamp precedes the stream's last seen timestamp."""


class EmptyBufferError(RedactionError):
    """Finalization was requested for a buffer holding no content."""


@dataclass(frozen=True)
class KeystrokeEvent(Record):
    """One logged snapshot of a text field (after one keystroke/edit).

    ``current_text`` is the full field contents, not a delta; successive
    events for a stream may differ by an arbitrary edit.
    """

    user_id: str
    timestamp: int
    app_id: str
    current_text: str
    is_password: bool = False
    is_phone_field: bool = False

    @classmethod
    def from_json(cls, line: str) -> "KeystrokeEvent":
        """Parse one log line; a value whose JSON type is not its field's
        (see ``_parse_event``) raises ``TypeError`` instead of being coerced."""
        return cls(*_parse_event(line))


@dataclass
class _Snapshot:
    """One retained partial string with its annotation.

    ``confirmed`` spans are complete detector matches on this text, extended
    by stage-1 rollback with the detections of tokens completed later.  They
    stay empty when snapshot retention is off.
    """

    timestamp: int
    text: str
    confirmed: list[RedactionSpan]


@dataclass
class EntryBuffer:
    """Accumulates one in-progress entry for a stream.

    With snapshot retention on, ``history`` is append-only until
    finalization empties it; with it off, it holds at most the newest
    snapshot.  ``start_timestamp`` is the time of the entry's first non-empty
    event (a structural field's text is never retained), and ``None`` while
    the entry has no content.
    """

    user_id: str
    app_id: str
    history: list[_Snapshot] = field(default_factory=list)
    structural_tag: str | None = None
    start_timestamp: int | None = None
    last_timestamp: int | None = None

    @property
    def has_content(self) -> bool:
        return self.start_timestamp is not None

    def reset(self) -> None:
        self.history.clear()
        self.structural_tag = None
        self.start_timestamp = None


@dataclass(frozen=True)
class SanitizedEntry(Record):
    """A completed, redacted entry.

    ``snapshots`` (present only when snapshot retention is on) are the
    redacted partial strings; for password/phone fields both the text and the
    snapshots are replaced by a single structural placeholder.
    ``spans`` locate the placeholders within ``final_text``.
    """

    user_id: str
    app_id: str
    start_timestamp: int
    end_timestamp: int
    final_text: str
    spans: tuple[RedactionSpan, ...]
    snapshots: tuple[str, ...] = ()

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, sort_keys=True)


@dataclass(frozen=True)
class RedactionResult:
    """Output of whole-string redaction: text with placeholders, and where
    the placeholders sit within it."""

    text: str
    spans: tuple[RedactionSpan, ...]


def detect_token_completion(previous_text: str, current_text: str) -> tuple[int, int] | None:
    """Range of the token newly completed at the end of ``current_text``.

    A token completes when the edit leaves the string ending in one or more
    of ``BOUNDARY_CHARS`` directly after non-boundary characters, and that
    token/boundary pair was not already present in ``previous_text``.
    Replacement edits (autocorrect) count as delete-then-append.  Returns the
    half-open character range of the completed token, or ``None``.
    """
    end = len(current_text.rstrip(BOUNDARY_CHARS))  # the token's end
    if not 0 < end < len(current_text):
        return None  # no boundary at the end, or nothing but boundaries
    # newly completed iff the edit touched the token or its boundary
    if previous_text[: end + 1] == current_text[: end + 1]:
        return None
    return max(current_text.rfind(c, 0, end) for c in BOUNDARY_CHARS) + 1, end


class StreamRedactor:
    """Incremental keystroke redactor (see module docstring for the protocol).

    Args:
        suite: Detector suite; defaults to the bundled catalogue + gazetteer.
        timeout_ms: Inactivity gap that finalizes the open entry.
        keep_snapshots: Retain redacted partial snapshots on emitted entries.
    """

    def __init__(
        self,
        suite: DetectorSuite | None = None,
        timeout_ms: int = DEFAULT_TIMEOUT_MS,
        keep_snapshots: bool = False,
    ) -> None:
        self.suite = suite if suite is not None else default_suite()
        self.timeout_ms = timeout_ms
        self.keep_snapshots = keep_snapshots
        self._buffers: dict[tuple[str, str], EntryBuffer] = {}

    # -- event ingestion -------------------------------------------------

    def ingest_event(self, event: KeystrokeEvent) -> list[SanitizedEntry]:
        """Feed one event; return any entries this event completed."""
        key = (event.user_id, event.app_id)
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._buffers[key] = EntryBuffer(event.user_id, event.app_id)
        if buf.last_timestamp is not None and event.timestamp < buf.last_timestamp:
            raise OutOfOrderError(
                f"stream {key}: timestamp {event.timestamp} precedes {buf.last_timestamp}"
            )

        completed: list[SanitizedEntry] = []
        if (
            buf.last_timestamp is not None
            and event.timestamp - buf.last_timestamp > self.timeout_ms
            and buf.has_content
        ):
            completed.append(self._finalize(buf))

        buf.last_timestamp = event.timestamp
        structural = event.is_password or event.is_phone_field
        if structural:  # remember the field kind; its text is never retained
            buf.structural_tag = STRUCTURAL_PASSWORD if event.is_password else STRUCTURAL_PHONE

        if event.current_text == "":
            if buf.has_content:  # field cleared -> entry complete
                completed.append(self._finalize(buf))
            return completed
        if buf.start_timestamp is None:
            buf.start_timestamp = event.timestamp
        if structural:
            return completed

        prev_text = buf.history[-1].text if buf.history else ""
        if event.current_text == prev_text:
            return completed  # cursor movement etc.; nothing new to record

        if not self.keep_snapshots:
            # Only the newest text reaches the entry: keep it alone and skip
            # all per-keystroke detection.
            buf.history[:] = [_Snapshot(event.timestamp, event.current_text, [])]
            return completed

        snapshot = _Snapshot(
            timestamp=event.timestamp,
            text=event.current_text,
            confirmed=self.suite.detect(event.current_text),
        )
        buf.history.append(snapshot)

        token = detect_token_completion(prev_text, event.current_text)
        if token is not None:
            detections = [
                s for s in snapshot.confirmed if s.start < token[1] and s.end > token[0]
            ]
            self.rollback_stage1(buf, token, detections)
        return completed

    def finish(self) -> list[SanitizedEntry]:
        """Finalize all open buffers (end of stream)."""
        entries = []
        for key in sorted(self._buffers):
            buf = self._buffers[key]
            if buf.has_content:
                entries.append(self._finalize(buf))
        return entries

    # -- stage 1: token-completion rollback -------------------------------

    def rollback_stage1(
        self,
        buf: EntryBuffer,
        token: tuple[int, int],
        detections: list[RedactionSpan],
    ) -> None:
        """Roll a completed token's detection outcome back through the buffer.

        Runs only with snapshot retention on, on the event that completed the
        token.  Every retained snapshot that shares the text up to the token
        start receives the real detections, clipped to its own length, so any
        prefix of a detected region it contains is covered by the same tag.
        A token the detectors did not confirm adds nothing (the "or lack
        thereof" branch): no snapshot carries a provisional tail tag, since
        in-progress tails are tagged only at finalization and only on
        snapshots whose content was edited away.
        """
        start = token[0]
        cur = buf.history[-1].text
        for snap in buf.history:
            n = len(snap.text)
            if n <= start or snap.text[:start] != cur[:start]:
                continue
            snap.confirmed = merge_spans(snap.confirmed + clip_spans(detections, n))

    # -- stage 2: entry finalization --------------------------------------

    def _finalize(self, buf: EntryBuffer) -> SanitizedEntry:
        entry = self.finalize_entry(buf)
        buf.reset()
        return entry

    def finalize_entry(self, buf: EntryBuffer) -> SanitizedEntry:
        """Finalize the buffer's entry (stage-2 rollback) without resetting it.

        Full-string detections become placeholders in the final text and are
        overlaid on every retained snapshot.  Snapshots that are prefixes of
        the final string are adjudicated by it: final spans apply clipped, and
        where a snapshot's own confirmed span partially overlaps a final span
        the tags merge into a compound tag; everything the final string proves
        clean is left readable.  Diverged snapshots keep their confirmed spans
        (every complete match on their text) plus their in-progress tails,
        because the final string cannot vouch for content that was edited away
        (this can over-redact deleted fragments; that is the safe direction).
        """
        if not buf.has_content:
            raise EmptyBufferError(f"stream ({buf.user_id}, {buf.app_id}): nothing to finalize")
        snapshots_out: list[str] = []
        if buf.structural_tag is not None:
            # one placeholder stands for the field, whose text was never
            # retained, so the entry ends at its last event
            end_ts = buf.last_timestamp
            tags = (buf.structural_tag,)
            final_text = RedactionSpan(0, 1, tags).placeholder()
            final_spans = [RedactionSpan(0, len(final_text), tags)]
        else:
            newest = buf.history[-1]
            end_ts, raw = newest.timestamp, newest.text
            # with retention on, the newest snapshot's confirmed spans are exactly
            # detect(raw): its own rollback merges each of them into itself
            detections = newest.confirmed if self.keep_snapshots else self.suite.detect(raw)
            final_text, final_spans = render_redacted(raw, detections)
            for snap in buf.history[:-1]:  # none with retention off
                clipped = clip_spans(detections, len(snap.text))
                if snap.text == raw[: len(snap.text)]:
                    # each final span also takes the tags of the confirmed
                    # spans that overlap it
                    spans = []
                    for f in clipped:
                        theirs = [t for c in snap.confirmed if c.overlaps(f) for t in c.tags]
                        spans.append(RedactionSpan(f.start, f.end, f.tags + tuple(theirs)))
                else:
                    tails = self.suite.partial_at_end(snap.text)
                    spans = merge_spans(snap.confirmed + clipped + tails)
                snapshots_out.append(render_redacted(snap.text, spans)[0])

        return SanitizedEntry(
            user_id=buf.user_id,
            app_id=buf.app_id,
            start_timestamp=buf.start_timestamp,
            end_timestamp=end_ts,
            final_text=final_text,
            spans=tuple(final_spans),
            snapshots=tuple(snapshots_out),
        )


def redact_string(text: str, suite: DetectorSuite | None = None) -> RedactionResult:
    """Redact a complete document (no streaming context).

    Runs the detector suite and replaces each maximal detected span with its
    tag placeholder.  Existing placeholders are left untouched, so the
    operation is idempotent.
    """
    suite = suite if suite is not None else default_suite()
    redacted, spans = render_redacted(text, suite.detect(text))
    return RedactionResult(text=redacted, spans=tuple(spans))
