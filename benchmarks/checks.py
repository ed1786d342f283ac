"""Output checks for one pipeline or screening run.

Each check recomputes what the program reports from the generator's own
truth, from required properties, or from the float64 reference in
`reference.py`; none compares against a stored copy of earlier output.
A check returns None when it holds and a one-line reason when it does not.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from pathlib import Path

from chatscreen import model_store
from chatscreen.corpus_io import parse_pan_corpus
from chatscreen.preprocessing import normalize_text

import reference
from corpora import EMOTICONS

CONV_F1_GATE = 0.95          # criterion 7 of the acceptance suite
PREDATOR_RECALL_GATE = 0.80
SCORE_SUM_TOL = 1e-9
VECTOR_SAMPLE = 40           # messages re-encoded by the reference
SCD_SAMPLE = 6               # conversations re-scored by the reference
PRINTED_PROB_STEP = 5e-7     # scd_verdicts.tsv prints six decimals


class RunView:
    """The artifacts of one run, parsed once and shared by the checks."""

    def __init__(self, out: Path, truth: dict, threshold: float,
                 chunk_len: int):
        self.out = out
        self.threshold = threshold
        self.chunk_len = chunk_len
        self.predators = set(truth["predators"])
        self.positive_ids = set(truth["positive_conversations"])
        self.conversations = parse_pan_corpus(out / "normalized.xml") \
            .conversations
        self.authors = {a for c in self.conversations for a in c.authors()}

    def lines(self, name: str) -> list[str]:
        return (self.out / name).read_text(encoding="utf-8").splitlines()

    def verdicts(self) -> list[tuple[str, float, str]]:
        rows = []
        for line in self.lines("scd_verdicts.tsv"):
            conv_id, prob, verdict = line.split("\t")
            rows.append((conv_id, float(prob), verdict))
        return rows

    def scores(self) -> dict[str, tuple[float, float, float, str]]:
        rows = {}
        for line in self.lines("author_scores.tsv"):
            author, p, v, n, cls = line.split("\t")
            rows[author] = (float(p), float(v), float(n), cls)
        return rows

    def flagged(self) -> set[str]:
        return {l.strip() for l in self.lines("predators.txt") if l.strip()}


def _prf(tp: int, fp: int, fn: int, beta: float):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    b2 = beta * beta
    denom = b2 * precision + recall
    f = (1 + b2) * precision * recall / denom if denom else 0.0
    return precision, recall, f


def conversation_counts(view: RunView) -> dict[str, int]:
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for conv_id, _prob, verdict in view.verdicts():
        flagged = verdict == "positive"
        actual = conv_id in view.positive_ids
        key = ("t" if flagged == actual else "f") + ("p" if flagged else "n")
        counts[key] += 1
    return counts


def predator_counts(view: RunView) -> dict[str, int]:
    flagged = view.flagged()
    universe = view.authors | view.predators
    tp = len(flagged & view.predators)
    fp = len(flagged - view.predators)
    fn = len(view.predators - flagged)
    return {"tp": tp, "fp": fp, "fn": fn, "tn": len(universe) - tp - fp - fn}


def quality(views: list[RunView]) -> dict[str, float]:
    """The end-to-end quality metrics of a run, from the confusion counts
    summed over its outputs (one, or one per screened batch)."""
    c = Counter()
    a = Counter()
    for view in views:
        c.update(conversation_counts(view))
        a.update(predator_counts(view))
    _, _, conv_f1 = _prf(c["tp"], c["fp"], c["fn"], 1.0)
    precision, recall, f05 = _prf(a["tp"], a["fp"], a["fn"], 0.5)
    return {"conv_f1": conv_f1, "predator_precision": precision,
            "predator_recall": recall, "predator_f05": f05}


# --- the checks -----------------------------------------------------------

def check_verdict_rows(view: RunView):
    """Every kept conversation has exactly one well-formed verdict row."""
    rows = view.verdicts()
    ids = [r[0] for r in rows]
    kept = {c.id for c in view.conversations}
    if len(ids) != len(set(ids)):
        return "duplicate verdict rows"
    if set(ids) != kept:
        return (f"{len(kept - set(ids))} kept conversations without a verdict, "
                f"{len(set(ids) - kept)} verdicts for unknown ids")
    for conv_id, prob, verdict in rows:
        if verdict not in ("positive", "negative") or not 0.0 <= prob <= 1.0:
            return f"malformed verdict row for {conv_id}"
        if (verdict == "positive") != (prob >= view.threshold):
            return f"verdict of {conv_id} disagrees with its probability"
    return None


def check_conversation_counts(view: RunView):
    """scd_metrics.txt counts equal those recomputed from the verdicts."""
    c = conversation_counts(view)
    expected = f"tp={c['tp']} fp={c['fp']} tn={c['tn']} fn={c['fn']}"
    first = view.lines("scd_metrics.txt")[0]
    return None if first == expected else f"{first!r} != {expected!r}"


def check_predator_counts(view: RunView):
    """report.txt's row equals the counts recomputed from predators.txt."""
    a = predator_counts(view)
    p, r, f1 = _prf(a["tp"], a["fp"], a["fn"], 1.0)
    _, _, f05 = _prf(a["tp"], a["fp"], a["fn"], 0.5)

    def fmt(value, defined):
        return f"{value:.4f}" if defined else "—"

    has_p, has_r = a["tp"] + a["fp"] > 0, a["tp"] + a["fn"] > 0
    has_f = has_p and has_r and (p > 0 or r > 0)
    expected = ["chatscreen", str(a["tp"] + a["fp"]), str(a["tp"]),
                fmt(p, has_p), fmt(r, has_r), fmt(f1, has_f), fmt(f05, has_f)]
    row = next((l.split() for l in view.lines("report.txt")
                if l.startswith("chatscreen")), None)
    if row != expected:
        return f"report row {row} != recomputed {expected}"
    accuracy = (a["tp"] + a["tn"]) / sum(a.values())
    if f"accuracy={accuracy:.6f}" not in view.lines("report.txt"):
        return "report accuracy differs from recomputed"
    return None


def _argmax_class(p: float, v: float, n: float) -> str:
    best = max(p, v, n)
    return "N" if n == best else "V" if v == best else "P"


def check_score_rows(view: RunView):
    """One score row per author; each triple sums to 1 and names its
    argmax class."""
    scores = view.scores()
    if set(scores) != view.authors:
        return (f"{len(view.authors - set(scores))} authors without a score "
                f"row, {len(set(scores) - view.authors)} unknown")
    for author, (p, v, n, cls) in scores.items():
        if abs(p + v + n - 1.0) > SCORE_SUM_TOL or min(p, v, n) < 0.0:
            return f"scores of {author} do not form a distribution"
        if cls != _argmax_class(p, v, n):
            return f"class of {author} is {cls}, argmax is not"
    return None


def check_flagged(view: RunView):
    """predators.txt is exactly the unique top-P participants of positive
    conversations whose own class is P."""
    scores = view.scores()
    positive = {cid for cid, _p, verdict in view.verdicts()
                if verdict == "positive"}
    expected = set()
    for conv in view.conversations:
        if conv.id not in positive:
            continue
        scored = [a for a in conv.authors() if a in scores]
        if not scored:
            continue
        top = max(scores[a][0] for a in scored)
        leaders = [a for a in scored if scores[a][0] == top]
        if len(leaders) == 1 and scores[leaders[0]][3] == "P":
            expected.add(leaders[0])
    flagged = view.flagged()
    if flagged != expected:
        return (f"{len(flagged - expected)} flagged without cause, "
                f"{len(expected - flagged)} not flagged")
    return None


_EMOTICON_TOKENS = set(EMOTICONS)


def check_normalized_text(view: RunView):
    """Normalized text is ASCII, a fixed point of normalize_text and free
    of whole-token emoticons."""
    for conv in view.conversations:
        for m in conv.messages:
            if not m.text.isascii():
                return f"non-ASCII text in {conv.id} line {m.line_no}"
            if normalize_text(m.text) != m.text:
                return f"normalization not idempotent on {m.text!r}"
            if _EMOTICON_TOKENS.intersection(m.text.split()):
                return f"emoticon left in {m.text!r}"
    return None


def _sample(seed: int, k: int, items):
    items = list(items)
    rng = random.Random(seed)
    return rng.sample(items, min(k, len(items)))


def check_vectors(view: RunView, seed: int):
    """Sampled sentence vectors match the float64 reference."""
    lm = model_store.load(view.out / "lm.model")
    bundle = model_store.load(view.out / "vectors.bin")
    by_id = dict(zip(bundle.conversation_ids, bundle.matrices))
    index = {tok: i for i, tok in enumerate(lm.vocab.tokens)}
    messages = [(conv.id, row, m.text) for conv in view.conversations
                for row, m in enumerate(conv.messages)]
    for conv_id, row, text in _sample(seed, VECTOR_SAMPLE, messages):
        matrix = by_id.get(conv_id)
        if matrix is None or row >= matrix.shape[0]:
            return f"no vector for {conv_id} message {row}"
        want = reference.sentence_vector(lm, index, text)
        err = float(abs(matrix[row].astype("float64") - want).max())
        if not err <= reference.TOLERANCE:
            return f"vector of {conv_id} message {row} off by {err:.2e}"
    return None


def check_chunk_probabilities(view: RunView, seed: int):
    """Sampled conversations' max chunk probabilities match the float64
    reference, and verdicts agree wherever the reference is clear of the
    threshold."""
    scd = model_store.load(view.out / "scd.model")
    bundle = model_store.load(view.out / "vectors.bin")
    by_id = dict(zip(bundle.conversation_ids, bundle.matrices))
    rows = {cid: (prob, verdict) for cid, prob, verdict in view.verdicts()}
    # positives are rare; sample them apart so both verdicts are exercised
    pos = [c for c in sorted(rows) if rows[c][1] == "positive"]
    neg = [c for c in sorted(rows) if rows[c][1] == "negative"]
    picked = (_sample(seed, SCD_SAMPLE // 2, pos)
              + _sample(seed + 1, SCD_SAMPLE - SCD_SAMPLE // 2, neg))
    tol = reference.TOLERANCE + PRINTED_PROB_STEP
    for conv_id in picked:
        probs = reference.chunk_probabilities(scd, by_id[conv_id],
                                              view.chunk_len)
        want = max(probs)
        prob, verdict = rows[conv_id]
        if not abs(prob - want) <= tol:
            return f"{conv_id}: probability {prob} vs reference {want:.7f}"
        if abs(want - view.threshold) > tol and \
                (verdict == "positive") != (want >= view.threshold):
            return f"{conv_id}: verdict {verdict} vs reference {want:.7f}"
    return None


def check_perplexity(view: RunView):
    """eval-lm's perplexity is finite and below the vocabulary size."""
    text = view.lines("eval_lm.txt")[0]
    match = re.fullmatch(r"perplexity=(\S+)", text)
    vocab = len([l for l in view.lines("vocab.txt")
                 if l and not l.startswith("#")])
    ppl = float(match.group(1)) if match else math.nan
    if not (math.isfinite(ppl) and 1.0 <= ppl < vocab):
        return f"perplexity {text!r} with vocabulary {vocab}"
    return None


def quality_gate(q: dict[str, float]):
    """Criterion 7 on the quality metrics `q`: conversation F1 >= 0.95,
    predator P = 1, R >= 0.8. Reported, not counted as an operation: it
    holds at run seed 2026 but not at every run seed (see README.md)."""
    if q["conv_f1"] >= CONV_F1_GATE and q["predator_precision"] == 1.0 \
            and q["predator_recall"] >= PREDATOR_RECALL_GATE:
        return None
    return ("conv F1 {conv_f1:.4f}, predator P {predator_precision:.4f} "
            "R {predator_recall:.4f}").format(**q)


def run_checks(view: RunView, seed: int, *, lm_eval: bool):
    """Run every check that applies; returns [(name, reason or None)]."""
    checks = [
        ("verdict_rows", lambda: check_verdict_rows(view)),
        ("conversation_counts", lambda: check_conversation_counts(view)),
        ("predator_counts", lambda: check_predator_counts(view)),
        ("score_rows", lambda: check_score_rows(view)),
        ("flagged", lambda: check_flagged(view)),
        ("normalized_text", lambda: check_normalized_text(view)),
        ("vectors_reference", lambda: check_vectors(view, seed)),
        ("chunk_reference", lambda: check_chunk_probabilities(view, seed)),
    ]
    if lm_eval:
        checks.append(("perplexity", lambda: check_perplexity(view)))
    results = []
    for name, check in checks:
        try:
            reason = check()
        except Exception as exc:  # a malformed artifact fails its check
            reason = f"{type(exc).__name__}: {exc}"
        results.append((name, reason))
    return results
