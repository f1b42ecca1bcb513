"""Character-loop references for two rewrites in the stream redactor: the
token-completion test and the stage-2 overlay of a snapshot that is a prefix
of the final text, as written before ``redactor`` replaced them by string
slices and one span per final span.

``test_redactor`` compares ``detect_token_completion`` and
``StreamRedactor.finalize_entry`` against these on random inputs.
"""

from __future__ import annotations

from scrublang.redactor import BOUNDARY_CHARS
from scrublang.spans import RedactionSpan, merge_spans


def token_completion(previous_text: str, current_text: str) -> tuple[int, int] | None:
    """``detect_token_completion`` by three character loops: back over the
    trailing boundaries, back over the token, and forward over the common
    prefix of the two texts."""
    if not current_text or current_text[-1] not in BOUNDARY_CHARS:
        return None
    # last non-boundary character
    p = len(current_text) - 1
    while p >= 0 and current_text[p] in BOUNDARY_CHARS:
        p -= 1
    if p < 0:
        return None
    start = p
    while start > 0 and current_text[start - 1] not in BOUNDARY_CHARS:
        start -= 1
    # newly completed iff the edit touched the token or its boundary
    lcp = 0
    limit = min(len(previous_text), len(current_text))
    while lcp < limit and previous_text[lcp] == current_text[lcp]:
        lcp += 1
    if lcp >= p + 2:
        return None  # token + boundary already existed before this edit
    return (start, p + 1)


def prefix_overlay(clipped: list[RedactionSpan], confirmed: list[RedactionSpan]) -> list[RedactionSpan]:
    """The spans of a snapshot that is a prefix of the final text: the final
    spans ``clipped`` to it, merged with the piece of each of its
    ``confirmed`` spans that overlaps a clipped span."""
    pieces = [
        RedactionSpan(max(c.start, f.start), min(c.end, f.end), c.tags)
        for c in confirmed
        for f in clipped
        if c.overlaps(f)
    ]
    return merge_spans(clipped + pieces)
