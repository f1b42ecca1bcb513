"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed and parameters: it writes the
input files scrublang reads plus ``expect.json``, the ground truth the
correctness checks compare against.  scrublang itself only ever sees the
generated files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from scrublang import synth

# Sizes are chosen so one unit of work fits three times into a 20 s run on
# a 2-core machine (see README.md); they are fixed here, not tuned per run.
PARAMS = {
    "cohort-pipeline": {"n_users": 40},
    "keystroke-stream": {
        "n_streams": 24,
        # (entries, min chars, max chars), spread evenly over each range: every
        # seed carries the same length mix and so nearly the same work
        "length_buckets": [(92, 10, 30), (5, 150, 250), (1, 490, 490)],
        "structural_entries": 12,
        "timeout_share": 0.2,
        "end_of_stream_share": 0.5,
        "gazetteer_names": 300,
        "typo_every": 40,
        "timeout_ms": 60_000,
    },
    "analysis-wide": {"n_users": 100, "fb_posts": 10, "fb_words": 45, "sms_msgs": 30, "sms_words": 13},
}

FILLER = (
    "hello meet me later today plans see you there coffee when are we going "
    "lunch movie sounds great sure thanks call back tonight send the address "
    "dinner at six bring snacks running late almost home what time works"
).split()
_ONSETS = "b br c d dr f g gr h j k l m n p pr r s st t tr v w z".split()
_VOWELS = "a e i o u ai ea io".split()
_CODAS = ["", "", "n", "r", "s", "l", "th", "nd", "rk"]


# -- gazetteer ----------------------------------------------------------------


def person_names(n: int, seed: int) -> list[str]:
    """``n`` distinct capitalized two-word pseudo-names.

    Names are built from syllables, so no name is an English filler word and
    every three-letter prefix of a name is capitalized: a capitalized fragment
    in a redacted string can only come from a planted name.
    """
    rng = np.random.default_rng([seed, 7])
    names: list[str] = []
    seen: set[str] = set()

    def word() -> str:
        parts = []
        for _ in range(int(rng.integers(2, 4))):
            parts.append(
                _ONSETS[rng.integers(len(_ONSETS))]
                + _VOWELS[rng.integers(len(_VOWELS))]
                + _CODAS[rng.integers(len(_CODAS))]
            )
        return "".join(parts).capitalize()

    while len(names) < n:
        name = f"{word()} {word()}"
        if name.casefold() not in seen:
            seen.add(name.casefold())
            names.append(name)
    return names


def write_gazetteer(path: Path, names: list[str]) -> None:
    path.write_text("".join(f"person\t{n}\n" for n in names), encoding="utf-8")


# -- keystroke-stream ---------------------------------------------------------


def _pii(rng: np.random.Generator, kind: str, names: list[str]) -> str:
    """One planted PII string; non-name kinds hit a digit or symbol within
    their first three characters, names start with a capital."""

    def d(k: int) -> str:
        return "".join(str(int(x)) for x in rng.integers(0, 10, size=k))

    if kind == "phone":
        return f"555-{d(3)}-{d(4)}" if rng.uniform() < 0.5 else f"({d(3)}) 555-{d(4)}"
    if kind == "email":
        letters = "".join(chr(97 + int(x)) for x in rng.integers(0, 26, size=5))
        return f"{letters[:2]}{d(1)}{letters[2:]}@{letters[3:]}mail.net"
    if kind == "ssn":
        return f"{d(3)}-{d(2)}-{d(4)}"
    return names[rng.integers(len(names))]


PII_KINDS = ("phone", "email", "ssn", "name")


def _message(rng: np.random.Generator, target_len: int, names: list[str], first_kind: int) -> tuple[list[str], list[str]]:
    """Tokens of one message of about ``target_len`` characters, with one
    planted PII string per 60 characters (at least one); kinds rotate from
    ``first_kind`` so every log carries the same mix."""
    n_pii = max(1, target_len // 60)
    pii = [_pii(rng, PII_KINDS[(first_kind + j) % len(PII_KINDS)], names) for j in range(n_pii)]
    tokens: list[str] = []
    length = sum(len(p) + 1 for p in pii)
    while length < target_len:
        w = FILLER[rng.integers(len(FILLER))]
        tokens.append(w)
        length += len(w) + 1
    for p in pii:
        tokens.insert(int(rng.integers(0, len(tokens) + 1)), p)
    return tokens, pii


def _type_message(tokens: list[str], abandon: dict[str, bool], counter: list[int], typo_every: int):
    """Snapshots of typing ``tokens``: per-character appends, a typo-plus-
    backspace detour before every ``typo_every``-th filler letter (``counter``
    carries the letter count across messages), and, for PII marked in
    ``abandon``, an abandoned attempt first: four characters typed, deleted,
    and a filler word typed.  PII itself is typed without typos.  Typos and
    abandoned attempts are what finalization pays for, so their number is
    fixed by the text rather than drawn at random."""
    snaps: list[str] = []
    text = ""

    def type_chars(chunk: str, typos: bool) -> None:
        nonlocal text
        for ch in chunk:
            if typos and text and ch.isalpha():
                counter[0] += 1
                if counter[0] % typo_every == 0:
                    snaps.append(text + "zqx"[counter[0] % 3])
                    snaps.append(text)
            text += ch
            snaps.append(text)

    for i, tok in enumerate(tokens):
        is_pii = tok in abandon
        if abandon.get(tok):
            # deleting back to an empty field would end the entry
            if not text:
                type_chars(FILLER[len(tok) % len(FILLER)] + " ", typos=False)
            type_chars(tok[:4], typos=False)
            for _ in range(4):
                text = text[:-1]
                snaps.append(text)
            type_chars(FILLER[len(tok) % len(FILLER)] + " ", typos=False)
        type_chars(tok, typos=not is_pii)
        if i < len(tokens) - 1:
            type_chars(" ", typos=False)
    return snaps, text


def keystroke_stream(outdir: Path, seed: int, p: dict | None = None) -> dict:
    """Interleaved keystroke log over many ``(user, app)`` streams.

    Entries end in all four ways: field clear, inactivity timeout, end of
    stream and structural (password or phone-number field).  Returns the
    expectation written to ``expect.json``.
    """
    p = p or PARAMS["keystroke-stream"]
    rng = np.random.default_rng([seed, 1])
    names = person_names(p["gazetteer_names"], seed)
    write_gazetteer(outdir / "gazetteer.tsv", names)

    lengths = [
        int(x) for count, lo, hi in p["length_buckets"] for x in np.linspace(lo, hi, count)
    ]
    rng.shuffle(lengths)
    n_streams = p["n_streams"]
    # per stream: a list of planned entries, structural ones mixed in
    plans: list[list[tuple[str, int]]] = [[] for _ in range(n_streams)]
    for i, length in enumerate(lengths):
        plans[i % n_streams].append(("text", length))
    for i in range(p["structural_entries"]):
        s = plans[int(rng.integers(n_streams))]
        s.insert(int(rng.integers(0, len(s) + 1)), ("password" if i % 2 else "phone_field", 0))

    events: list[tuple[int, int, int, dict]] = []
    expected: list[dict] = []
    n_pii = 0
    letters = [0]
    for s_idx, plan in enumerate(plans):
        user, app = f"user{s_idx // 3:02d}", synth.ALLOWED_APPS[s_idx % 3]
        t = 1_700_000_000_000 + int(rng.integers(0, 10_000))
        seq = 0

        def emit(text: str, **flags) -> None:
            nonlocal t, seq
            t += int(rng.integers(60, 220))
            events.append(
                (t, s_idx, seq, {
                    "user_id": user, "timestamp": t, "app_id": app, "current_text": text,
                    "is_password": bool(flags.get("is_password")),
                    "is_phone_field": bool(flags.get("is_phone_field")),
                })
            )
            seq += 1

        for e_idx, (kind, length) in enumerate(plan):
            last = e_idx == len(plan) - 1
            if kind != "text":
                flag = {"is_password": True} if kind == "password" else {"is_phone_field": True}
                secret = (
                    "pw" + str(int(rng.integers(10**6, 10**7)))
                    if kind == "password"
                    else _pii(rng, "phone", names)
                )
                typed = ""
                for ch in secret:
                    typed += ch
                    emit(typed, **flag)
                emit("", **flag)
                expected.append({
                    "user_id": user, "app_id": app, "end_timestamp": t, "end": "structural",
                    "raw_final": None, "pii": [secret],
                })
                t += int(rng.integers(2_000, 10_000))
                continue
            tokens, pii = _message(rng, length, names, n_pii)
            # every fifth planted string gets an abandoned attempt first
            abandon = {x: (n_pii + j) % 5 == 2 for j, x in enumerate(pii)}
            n_pii += len(pii)
            snaps, final = _type_message(tokens, abandon, letters, p["typo_every"])
            for snap in snaps:
                emit(snap)
            end_ts = t
            next_is_text = not last and plan[e_idx + 1][0] == "text"
            u = rng.uniform()
            # long entries end by clear or timeout, so their finalize cost
            # always lands in the timed entry latencies
            if last and length < 100 and u < p["end_of_stream_share"]:
                end = "end_of_stream"
            elif next_is_text and u < p["timeout_share"]:
                end = "timeout"
            else:
                end = "clear"
                emit("")
            expected.append({
                "user_id": user, "app_id": app, "end_timestamp": end_ts, "end": end,
                "raw_final": final, "pii": [x for x in pii if x in final],
            })
            gap = p["timeout_ms"] + int(rng.integers(10_000, 60_000)) if end == "timeout" else int(rng.integers(2_000, 10_000))
            t += gap

    events.sort(key=lambda e: e[:3])
    with open(outdir / "keystrokes.jsonl", "w", encoding="utf-8") as fh:
        for *_, ev in events:
            fh.write(json.dumps(ev) + "\n")
    expect = {"entries": expected, "n_events": len(events), "timeout_ms": p["timeout_ms"], "seed": seed}
    (outdir / "expect.json").write_text(json.dumps(expect), encoding="utf-8")
    return expect


# -- analysis-wide ------------------------------------------------------------


def _outcomes(rng: np.random.Generator) -> dict:
    dep = float(np.clip(rng.normal(9, 5), 0, 27))
    return {
        "age": int(np.clip(rng.normal(36, 10), 18, 65)),
        "gender": "female" if rng.uniform() < 0.6 else "male",
        "depression": round(dep, 1),
        "stress": round(float(np.clip(rng.normal(16, 6) + 0.4 * dep, 0, 40)), 1),
        "life_satisfaction": round(float(np.clip(rng.normal(7, 1.5) - 0.12 * dep, 0, 10)), 1),
    }


def _compose(rng: np.random.Generator, o: dict, platform: str, n_words: int) -> str:
    """Words drawn with a planted platform signal (FB_WORDS vs SMS_WORDS) and
    an outcome signal (mood words track depression, common words track age)."""
    dep, age = o["depression"] / 27.0, (o["age"] - 18) / 47.0
    fb = platform == "facebook"
    pools = [
        (synth.FB_WORDS, 4.0 if fb else 0.8),
        (synth.COMMON_WORDS, (3.0 if fb else 2.0) + 2.0 * age),
        (synth.SMS_WORDS, 0.8 if fb else 4.5),
        (synth.SAD_WORDS, 0.3 + 2.5 * dep),
        (synth.CALM_WORDS, 0.3 + 2.0 * (1 - dep)),
    ]
    weights = np.array([w for _, w in pools])
    picks = rng.choice(len(pools), size=n_words, p=weights / weights.sum())
    return " ".join(pools[k][0][rng.integers(len(pools[k][0]))] for k in picks)


def analysis_wide(outdir: Path, seed: int, p: dict | None = None) -> dict:
    """A clean two-platform corpus with outcomes and a dictionary; no keystroke log."""
    p = p or PARAMS["analysis-wide"]
    rng = np.random.default_rng([seed, 2])
    users = [f"u{i:03d}" for i in range(p["n_users"])]
    outcomes = {u: _outcomes(rng) for u in users}
    with open(outdir / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for u in users:
            for platform, n_docs, n_words in (
                ("facebook", p["fb_posts"], p["fb_words"]),
                ("sms", p["sms_msgs"], p["sms_words"]),
            ):
                for _ in range(n_docs):
                    text = _compose(rng, outcomes[u], platform, n_words)
                    fh.write(json.dumps({"user_id": u, "platform": platform, "text": text}) + "\n")
    with open(outdir / "outcomes.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        cols = ["age", "gender", "depression", "stress", "life_satisfaction"]
        w.writerow(["user_id", *cols])
        for u in users:
            w.writerow([u, *(outcomes[u][c] for c in cols)])
    (outdir / "dictionary.txt").write_text(
        "[leisure]\nfun\nweekend\nplay*\nparty\ntrip\nbeach\n"
        "[assent]\nyes\nok*\nyeah\n[second_person]\nyou\nyour\nu\n"
        "[negative_mood]\n" + "\n".join(synth.SAD_WORDS) + "\n"
        "[positive_mood]\n" + "\n".join(synth.CALM_WORDS) + "\n",
        encoding="utf-8",
    )
    expect = {"n_users": len(users), "outcomes": 5}
    (outdir / "expect.json").write_text(json.dumps(expect), encoding="utf-8")
    return expect


# -- cohort-pipeline ----------------------------------------------------------


def cohort_pipeline(outdir: Path, seed: int, p: dict | None = None) -> dict:
    """The synth fixture with its shipped pipeline config."""
    p = p or PARAMS["cohort-pipeline"]
    files = synth.make_fixture(outdir, n_users=p["n_users"], seed=seed)
    with open(files["keystroke_log"], encoding="utf-8") as fh:
        n_events = sum(1 for line in fh if line.strip())
    expect = {"n_events": n_events, "config": files["config"].name}
    (outdir / "expect.json").write_text(json.dumps(expect), encoding="utf-8")
    return expect


GENERATORS = {
    "cohort-pipeline": cohort_pipeline,
    "keystroke-stream": keystroke_stream,
    "analysis-wide": analysis_wide,
}
