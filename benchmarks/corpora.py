"""Workload inputs: synthetic corpora, and the chat noise the screening
corpus carries.

The conversations come from the program's own generator
(`chatscreen.synthgen`), which plants the predator pattern and returns the
truth: predator ids and positive conversation ids. A screening corpus is
then roughened with noise drawn from a seeded `random.Random`, so the same
seed always gives the same bytes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from chatscreen import corpus_io, synthgen
# Bound at import, before a traced worker wraps corpus_io's functions, so
# writing the benchmark's own inputs is not charged to the program.
from chatscreen.corpus_io import write_pan_corpus

# Every entry is removed by the packaged emoticon patterns.
EMOTICONS = (":)", ":-)", ":(", ";D", ":P", "<3", "xD", "^_^", "o.O", ":'(")
STOCK_LINES = ("lol", "brb", "ok", "k", "haha", "lmao", "gtg", ":)", "u there?",
               "lol :P")
ABBREVIATIONS = ("u", "ur", "r", "plz", "thx", "gr8", "b4", "l8r", "im",
                 "dont", "wanna", "cuz")
URLS = ("http://example.com/a{n}", "https://chat.example.org/room?id={n}",
        "www.example.net/{n}")
NON_ASCII = ("é", "ñ", "ü", "’", "ç")
NON_ASCII_TOKENS = ("日本", "¿¿", "☃")

# Probability that one kind of noise strikes a message. It is no estimate of
# real chat traffic: no measured rate is available to the benchmark, so
# every kind gets the same rate and no normalization rule weighs more than
# another. At 10%, each kind strikes over a thousand messages of a
# screening corpus, enough for its cost to show and its checks to bite.
# Replace with measured per-kind rates once a real corpus is at hand.
NOISE_RATE = 0.10
LONG_EXTRA = (40, 60)        # tokens appended to a long message


def _elongate(token: str, rng: random.Random) -> str:
    return token + token[-1] * rng.randint(3, 6)


def _noisy_text(text: str, rng: random.Random, background) -> str:
    tokens = text.split()

    def insert(tok):
        tokens.insert(rng.randint(0, len(tokens)), tok)

    if rng.random() < NOISE_RATE:
        i = rng.randrange(len(tokens))
        tokens[i] = _elongate(tokens[i], rng)
    if rng.random() < NOISE_RATE:
        if rng.random() < 0.5:
            i = rng.randrange(len(tokens))
            j = rng.randint(1, len(tokens[i]))
            tokens[i] = tokens[i][:j] + rng.choice(NON_ASCII) + tokens[i][j:]
        else:
            insert(rng.choice(NON_ASCII_TOKENS))
    if rng.random() < NOISE_RATE:
        insert(rng.choice(ABBREVIATIONS))
    if rng.random() < NOISE_RATE:
        insert(rng.choice(("{n}", "{n}.5", "-{n}", "+{n}")).format(
            n=rng.randint(0, 9999)))
    if rng.random() < NOISE_RATE:
        insert(rng.choice(URLS).format(n=rng.randint(0, 99999)))
    if rng.random() < NOISE_RATE:
        insert(rng.choice(EMOTICONS))
    if rng.random() < NOISE_RATE:
        start = rng.randrange(len(background))
        extra = rng.randint(*LONG_EXTRA)
        tokens.extend(background[(start + k) % len(background)]
                      for k in range(extra))
    return " ".join(tokens)


def add_noise(conversations, seed: int, background):
    """Copy conversations with noisy texts and inserted stock lines;
    line numbers are renumbered 1..n in each conversation."""
    rng = random.Random(seed)
    noisy = []
    for conv in conversations:
        authors = conv.authors()
        messages = []
        for m in conv.messages:
            messages.append((m.author, m.time,
                             _noisy_text(m.text, rng, background)))
            if rng.random() < NOISE_RATE:
                messages.append((rng.choice(authors), m.time,
                                 rng.choice(STOCK_LINES)))
        noisy.append(corpus_io.Conversation(conv.id, [
            corpus_io.Message(author, i, time, text)
            for i, (author, time, text) in enumerate(messages, start=1)]))
    return noisy


def write_corpus(out_dir: Path, spec: synthgen.SynthSpec,
                 noise_seed: int | None) -> dict:
    """Generate one corpus into out_dir: corpus.xml and truth.txt for the
    program, bench_truth.json (positive conversation ids) for the checks."""
    result = synthgen.generate(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    conversations = result.conversations
    xml = result.xml_bytes
    if noise_seed is not None:
        conversations = add_noise(conversations, noise_seed,
                                  spec.background_pool)
        xml = write_pan_corpus(conversations)
    (out_dir / "corpus.xml").write_bytes(xml)
    corpus_io.write_ground_truth(result.predator_ids, out_dir / "truth.txt")
    truth = {"predators": result.predator_ids,
             "positive_conversations": sorted(result.positive_conversation_ids),
             "conversations": len(conversations),
             "messages": sum(len(c.messages) for c in conversations)}
    (out_dir / "bench_truth.json").write_text(json.dumps(truth),
                                              encoding="utf-8")
    return truth
