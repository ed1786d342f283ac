"""Shallow averaged-bag-of-features author scorer.

Each (author, conversation) unit is the mean embedding of its unigram and
adjacent-bigram features, mapped linearly to three classes: P (predator),
V (victim), N (normal). Per-conversation softmax scores are averaged per
author; the decision rule flags, for each suspicious conversation, the
participant with the highest averaged P score, and only when that author's
own predicted class is P. Ties break conservatively (N over V over P, and
no flag on an exact P-score tie), so equality never creates a predator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .core_math import LOG_EPS, init_uniform, make_optimizer, row_softmax
from .errors import NumericError, UsageError

CLASSES = ("P", "V", "N")


def argmax_classes(probs: np.ndarray) -> np.ndarray:
    """Index into CLASSES of the most probable class along the last axis,
    with the conservative tie order: N, then V, then P."""
    best = probs.max(axis=-1)
    return np.where(probs[..., 2] == best, 2,
                    np.where(probs[..., 1] == best, 1, 0))


@dataclass
class SentimentScore:
    """Probability triple over (predator, victim, normal)."""

    p: float
    v: float
    n: float

    def __post_init__(self):
        total = self.p + self.v + self.n
        if not (np.isfinite(total) and abs(total - 1.0) <= 1e-9):
            raise UsageError(f"sentiment score does not sum to 1: {self}")
        for value in (self.p, self.v, self.n):
            if not 0.0 <= value <= 1.0:
                raise UsageError(f"sentiment score outside [0, 1]: {self}")

    def argmax_class(self) -> str:
        probs = np.array([self.p, self.v, self.n], dtype=np.float64)
        return CLASSES[int(argmax_classes(probs))]


@dataclass
class AuthorUnit:
    """One author's lines within one conversation, the training unit."""

    author: str
    lines: list[list[str]]
    label: str | None = None


def unit_features(lines) -> list[str]:
    """Unigrams plus adjacent bigrams (within a line), with multiplicity."""
    feats: list[str] = []
    for line in lines:
        feats.extend(line)
        feats.extend(f"{a} {b}" for a, b in zip(line, line[1:]))
    return feats


def build_feature_vocab(units, min_freq: int) -> list[str]:
    """Features seen at least min_freq times across units, ordered by count
    descending then lexicographically."""
    counts: Counter = Counter()
    for unit in units:
        counts.update(unit_features(unit.lines))
    kept = [f for f, c in counts.items() if c >= min_freq]
    return sorted(kept, key=lambda f: (-counts[f], f))


class ShallowModel:
    def __init__(self, features: list[str], embedding: np.ndarray,
                 class_w: np.ndarray, class_b: np.ndarray):
        self.features = list(features)
        self.feature_index = {f: i for i, f in enumerate(self.features)}
        self.embedding = embedding
        self.class_w = class_w
        self.class_b = class_b
        self.validate()

    @classmethod
    def create(cls, rng, features, k: int) -> "ShallowModel":
        embedding = init_uniform(rng, len(features), k, fan_in=k)
        class_w = init_uniform(rng, k, len(CLASSES), fan_in=k)
        class_b = np.zeros(len(CLASSES), dtype=np.float32)
        return cls(features, embedding, class_w, class_b)

    def validate(self) -> None:
        if self.embedding.shape[0] != len(self.features):
            raise UsageError(f"embedding rows {self.embedding.shape[0]} != "
                             f"feature count {len(self.features)}")
        k = self.embedding.shape[1]
        if self.class_w.shape != (k, len(CLASSES)):
            raise UsageError(f"class_w shape {self.class_w.shape}, expected "
                             f"{(k, len(CLASSES))}")
        if self.class_b.shape != (len(CLASSES),):
            raise UsageError(f"class_b shape {self.class_b.shape}, expected "
                             f"{(len(CLASSES),)}")

    @property
    def k(self) -> int:
        return self.embedding.shape[1]

    @property
    def dtype(self):
        return self.embedding.dtype

    def param_list(self) -> list[np.ndarray]:
        return [self.embedding, self.class_w, self.class_b]

    def astype(self, dtype) -> "ShallowModel":
        return ShallowModel(self.features, self.embedding.astype(dtype),
                            self.class_w.astype(dtype),
                            self.class_b.astype(dtype))

    def feature_ids(self, lines) -> list[int]:
        idx = self.feature_index
        return [idx[f] for f in unit_features(lines) if f in idx]


def _flat_ids(id_lists):
    """Every list's feature ids back to back, and each list's length."""
    return (np.array([i for ids in id_lists for i in ids], dtype=np.intp),
            np.array([len(ids) for ids in id_lists], dtype=np.intp))


def pooled(model: ShallowModel, id_lists) -> np.ndarray:
    """Mean embedding of each list of feature ids, (n, k) in the model
    dtype; the zero vector for an empty list. The gather ends in a spare
    row so that every segment start is a row; reduceat gives an empty
    segment the row at its start, which is zeroed."""
    ids, counts = _flat_ids(id_lists)
    starts = np.append(np.cumsum(counts) - counts, len(ids))
    sums = np.add.reduceat(model.embedding[np.append(ids, 0)], starts,
                           axis=0)[:-1]
    sums[counts == 0] = 0
    return sums / np.maximum(counts, 1).astype(model.dtype)[:, None]


def featurize(model: ShallowModel, lines) -> np.ndarray:
    """Mean embedding over in-vocabulary feature occurrences; the zero
    vector when there are none."""
    return pooled(model, [model.feature_ids(lines)])[0]


def class_probabilities(model: ShallowModel, rows) -> np.ndarray:
    """P/V/N probabilities (n, 3), in float64, of n >= 1 pooled rows: an
    (n, k) array or a list of n vectors."""
    x = np.asarray(rows, dtype=np.float64)
    return row_softmax(x @ model.class_w.astype(np.float64)
                       + model.class_b.astype(np.float64))


def _unit_loss_and_grads(model: ShallowModel, units, cached_ids):
    """Mean 3-class cross-entropy over units and grads for
    [embedding, class_w, class_b], in one pass of array operations."""
    x = pooled(model, cached_ids)
    probs = row_softmax(x @ model.class_w + model.class_b)
    rows = np.arange(len(units))
    target = np.array([CLASSES.index(u.label) for u in units])
    nll = -np.log(np.maximum(probs[rows, target].astype(np.float64), LOG_EPS))
    d_logits = probs
    d_logits[rows, target] -= 1.0
    d_logits /= len(units)
    ids, counts = _flat_ids(cached_ids)
    dx = (d_logits @ model.class_w.T
          / np.maximum(counts, 1).astype(model.dtype)[:, None])
    d_emb = np.zeros_like(model.embedding)
    # one index per element, not per row: ufunc.at's fast path
    flat = (ids[:, None] * model.k + np.arange(model.k)).ravel()
    np.add.at(d_emb.reshape(-1), flat,
              np.repeat(dx, counts, axis=0).reshape(-1))
    return float(nll.mean()), [d_emb, x.T @ d_logits, d_logits.sum(axis=0)]


def training_loss_and_grads(model: ShallowModel, units):
    """Gradient-check entry point over labeled units."""
    units = list(units)
    cached = [model.feature_ids(u.lines) for u in units]
    return _unit_loss_and_grads(model, units, cached)


@dataclass
class AuthorEpochRecord:
    epoch: int
    loss: float
    train_accuracy: float

    def format_line(self) -> str:
        return (f"epoch={self.epoch} loss={self.loss:.6f} "
                f"acc={self.train_accuracy:.4f}")


def train_author(model: ShallowModel, units, cfg: PipelineConfig, rng):
    """Minimize 3-class cross-entropy over (author, conversation) units with
    cfg's [author] recipe.

    All three classes must be present. Each epoch oversamples every class
    to the majority count. Trains model in place and returns one record per
    epoch.
    """
    units = list(units)
    present = {u.label for u in units}
    missing = [c for c in CLASSES if c not in present]
    if missing:
        raise UsageError(f"train_author: classes missing from training data: "
                         f"{missing}")
    cached = [model.feature_ids(u.lines) for u in units]
    records: list[AuthorEpochRecord] = []
    optimizer = make_optimizer(cfg.author_optimizer, cfg.author_lr)
    params = model.param_list()
    by_class = {c: [i for i, u in enumerate(units) if u.label == c]
                for c in CLASSES}
    majority = max(len(v) for v in by_class.values())
    target = np.array([CLASSES.index(u.label) for u in units])
    for epoch in range(1, cfg.author_epochs + 1):
        pool: list[int] = []
        for members in by_class.values():
            picks = rng.integers(0, len(members), size=majority)
            pool.extend(members[int(i)] for i in picks)
        order = rng.permutation(len(pool))
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, len(order), cfg.author_batch_size):
            idx = [pool[i] for i in order[start:start + cfg.author_batch_size]]
            loss, grads = _unit_loss_and_grads(model, [units[i] for i in idx],
                                               [cached[i] for i in idx])
            if not np.isfinite(loss):
                raise NumericError(f"train_author: non-finite loss at epoch "
                                   f"{epoch}")
            optimizer.step(params, grads)
            epoch_loss += loss
            n_batches += 1
        correct = 0
        for start in range(0, len(units), cfg.author_batch_size):
            stop = start + cfg.author_batch_size
            probs = class_probabilities(model, pooled(model,
                                                      cached[start:stop]))
            correct += int(np.sum(argmax_classes(probs) == target[start:stop]))
        records.append(AuthorEpochRecord(epoch, epoch_loss / n_batches,
                                         correct / len(units)))
    return records


def average_author_scores(rows) -> SentimentScore:
    """Component-wise mean of one author's (m, 3) P/V/N rows, renormalized
    to absorb rounding."""
    if not len(rows):
        raise UsageError("average_author_scores: no scores")
    mean = np.mean(rows, axis=0)
    mean = mean / mean.sum()
    return SentimentScore(*mean.tolist())


def identify_predators(suspicious_conversation_ids, scores,
                       conversations) -> set[str]:
    """Flag, per suspicious conversation, the participant with the highest
    averaged P score, and only when that author's predicted class is P
    (both classifiers must agree). At most one author per conversation; an
    exact top-P tie flags nobody.

    Every suspicious id must name one of `conversations`, each of which has
    a participant, and `scores` must score each of them; run_identify checks
    all three against normalized.xml, whose parser refuses an empty one."""
    conv_by_id = {c.id: c for c in conversations}
    flagged: set[str] = set()
    for conv_id in suspicious_conversation_ids:
        authors = conv_by_id[conv_id].authors()
        top_p = max(scores[a].p for a in authors)
        top_authors = [a for a in authors if scores[a].p == top_p]
        if (len(top_authors) == 1
                and scores[top_authors[0]].argmax_class() == "P"):
            flagged.add(top_authors[0])
    return flagged
