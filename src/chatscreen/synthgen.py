"""Deterministic synthetic chat-corpus generator.

Emits the same XML and ground-truth formats the corpus reader consumes,
with a planted predator pattern: in each positive conversation one
participant (the predator, listed in the ground truth) salts their lines
with tokens from a marker pool, and the other participant draws from a
separate victim-marker pool.

Token pools are rings and every line is a walk: each token is, with high
probability, the ring successor of the previous token from the same pool.
That gives the corpus real sequential structure, so a language model
trained on it must keep ring position (including marker-ring position) in
its hidden state, which is what makes the sentence vectors carry class
signal. Everything is driven by one seeded generator; a fixed seed
reproduces the corpus byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import PipelineConfig
from .core_math import Rng
from .corpus_io import Conversation, Message, write_pan_corpus

_SYLLABLES = tuple(c + v for c in "bcdfghklmnprstv" for v in "aeiou")

MAX_MESSAGES = 500            # cap on a conversation's message count
VICTIM_MARKER_DENSITY = 0.2   # marker share of each victim line


@dataclass
class SynthSpec:
    """A corpus to generate; the defaults are the config's [synth] ones."""

    seed: int
    n_conversations: int = PipelineConfig.synth_n_conversations
    predator_fraction: float = PipelineConfig.synth_predator_fraction
    # message-count distribution over 1..500
    geometric_p: float = PipelineConfig.synth_geometric_p
    # marker share of each predator line
    marker_density: float = PipelineConfig.synth_marker_density

    # Fixed token rings, class attributes rather than settings. 'z'/'j' are
    # not background consonants, so the three rings are disjoint.
    background_pool = tuple(a + b for a in _SYLLABLES
                            for b in _SYLLABLES)[:240]
    predator_pool = tuple("zu" + s for s in _SYLLABLES[:8])
    victim_pool = tuple("ju" + s for s in _SYLLABLES[:8])


@dataclass
class SynthResult:
    xml_bytes: bytes
    predator_ids: list[str]        # sorted
    conversations: list[Conversation]
    positive_conversation_ids: list[str]


RING_ADVANCE = 0.85  # chance the next token from a ring is the successor


class _RingWalk:
    """Seeded walk over a token ring: successor with RING_ADVANCE
    probability, otherwise a jump to a fresh position."""

    def __init__(self, pool, rng: Rng):
        self.pool = pool
        self.rng = rng
        self.pos = int(rng.integers(0, len(pool)))

    def emit(self) -> str:
        if self.rng.random() < RING_ADVANCE:
            self.pos = (self.pos + 1) % len(self.pool)
        else:
            self.pos = int(self.rng.integers(0, len(self.pool)))
        return self.pool[self.pos]


def generate(spec: SynthSpec) -> SynthResult:
    """Build the corpus; round(n * fraction) conversations are positive
    (round half to even, matching Python's round)."""
    rng = Rng(spec.seed)
    n_positive = round(spec.n_conversations * spec.predator_fraction)
    positive_slots = set(int(i) for i in
                         rng.permutation(spec.n_conversations)[:n_positive])
    predators: list[str] = []
    positive_ids: list[str] = []
    conversations: list[Conversation] = []
    for slot in range(spec.n_conversations):
        conv_id = rng.hex_id()
        author_a = rng.hex_id()
        author_b = rng.hex_id()
        positive = slot in positive_slots
        if positive:
            predators.append(author_a)
            positive_ids.append(conv_id)
        n_messages = min(rng.geometric(spec.geometric_p), MAX_MESSAGES)
        minute = int(rng.integers(0, 1440))
        background = _RingWalk(spec.background_pool, rng)
        predator_walk = _RingWalk(spec.predator_pool, rng)
        victim_walk = _RingWalk(spec.victim_pool, rng)
        messages = []
        for line_no in range(1, n_messages + 1):
            if line_no == 1:
                author = author_a
            else:
                author = author_a if rng.random() < 0.5 else author_b
            n_tokens = 3 + int(rng.integers(0, 8))
            tokens = []
            for _ in range(n_tokens):
                roll = rng.random()
                if positive and author == author_a and roll < spec.marker_density:
                    walk = predator_walk
                elif (positive and author == author_b
                      and roll < VICTIM_MARKER_DENSITY):
                    walk = victim_walk
                else:
                    walk = background
                tokens.append(walk.emit())
            stamp = (minute + line_no - 1) % 1440
            messages.append(Message(author=author, line_no=line_no,
                                    time=f"{stamp // 60:02d}:{stamp % 60:02d}",
                                    text=" ".join(tokens)))
        conversations.append(Conversation(id=conv_id, messages=messages))
    xml_bytes = write_pan_corpus(conversations)
    return SynthResult(xml_bytes=xml_bytes, predator_ids=sorted(predators),
                       conversations=conversations,
                       positive_conversation_ids=positive_ids)
