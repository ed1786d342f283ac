"""Suspicious-conversation detection: sentence-vector sequences through two
LSTM layers into a sigmoid head.

Conversations become sequences of sentence vectors (one per message), split
into fixed-length chunks. A chunk is a view of its conversation's rows, not
a padded copy: the zero rows past each chunk's valid length are made once
per training batch or scoring bucket, when its chunks are stacked. The
head reads the hidden state at the last valid timestep, so padding rows
cannot dilute the state. A conversation is positive when any of its chunks
scores at or above the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .core_math import LOG_EPS, init_uniform, make_optimizer, sigmoid
from .errors import NumericError, UsageError
from .lstm import LstmLayerParams, backward_stack, forward_stack, top_states
from .metrics import accuracy, confusion, precision_recall_f
from .language_model import LanguageModel, sentence_vector
from .preprocessing import tokenize


@dataclass
class ConversationSequence:
    conversation_id: str
    matrix: np.ndarray        # (n_messages, H): one sentence vector per row
    label: bool | None = None


@dataclass
class Chunk:
    conversation_id: str
    part_index: int
    # (n, H), n >= valid_len; only the first valid_len rows are read
    matrix: np.ndarray
    valid_len: int
    label: bool | None = None


class ScdModel:
    # The head reads each chunk's last real row; a constant because the
    # benchmark's float64 reference (benchmarks/reference.py) reads it.
    masked = True

    def __init__(self, layer1: LstmLayerParams, layer2: LstmLayerParams,
                 head_w: np.ndarray, head_b: np.ndarray):
        self.layer1 = layer1
        self.layer2 = layer2
        self.head_w = head_w
        self.head_b = head_b
        self.validate()

    @classmethod
    def create(cls, rng, input_dim: int, hidden_dim: int) -> "ScdModel":
        layer1 = LstmLayerParams.init(rng, input_dim, hidden_dim)
        layer2 = LstmLayerParams.init(rng, hidden_dim, hidden_dim)
        head_w = init_uniform(rng, hidden_dim, 1, fan_in=hidden_dim)[:, 0]
        head_b = np.zeros(1, dtype=np.float32)
        return cls(layer1, layer2, head_w, head_b)

    def validate(self) -> None:
        h = self.layer2.hidden_dim
        if self.layer2.input_dim != self.layer1.hidden_dim:
            raise UsageError("layer2 input dim does not match layer1 hidden dim")
        if self.head_w.shape != (h,):
            raise UsageError(f"head_w shape {self.head_w.shape}, expected {(h,)}")
        if self.head_b.shape != (1,):
            raise UsageError(f"head_b shape {self.head_b.shape}, expected (1,)")

    @property
    def input_dim(self) -> int:
        return self.layer1.input_dim

    @property
    def hidden_dim(self) -> int:
        return self.layer2.hidden_dim

    @property
    def dtype(self):
        return self.head_w.dtype

    def param_list(self) -> list[np.ndarray]:
        return (self.layer1.param_list() + self.layer2.param_list()
                + [self.head_w, self.head_b])

    def astype(self, dtype) -> "ScdModel":
        return ScdModel(self.layer1.astype(dtype), self.layer2.astype(dtype),
                        self.head_w.astype(dtype), self.head_b.astype(dtype))


def vectorize_conversation(conv, lm: LanguageModel,
                           memo: dict) -> np.ndarray:
    """One sentence vector per message, in message order, as an (n, H)
    matrix; the conversation must have a message.

    memo maps a message's normalized text to its vector; a caller that
    passes the same dict for every conversation of a run encodes each
    distinct message once."""
    vectors = []
    for m in conv.messages:
        vector = memo.get(m.text)
        if vector is None:
            vector = memo[m.text] = sentence_vector(lm, tokenize(m.text))
        vectors.append(vector)
    return np.stack(vectors)


def chunk_and_pad(seq: ConversationSequence, chunk_len: int) -> list[Chunk]:
    """Split into ceil(n/chunk_len) parts, each a view of its rows of
    seq.matrix (zero rows follow the last one only when chunks are
    stacked); every chunk inherits the conversation label."""
    chunks = []
    for part in range(math.ceil(len(seq.matrix) / chunk_len)):
        rows = seq.matrix[part * chunk_len:(part + 1) * chunk_len]
        chunks.append(Chunk(conversation_id=seq.conversation_id,
                            part_index=part, matrix=rows,
                            valid_len=len(rows), label=seq.label))
    return chunks


# The largest scoring bucket, when chunks are only scored, not trained on:
# at most 64 chunks, and at most 64 x 24 cells (chunks x steps run).
SCORE_BUCKET = (64, 64 * 24)


def _read_rows(chunks) -> np.ndarray:
    """The timestep whose top-layer state the head reads, per chunk: its
    last valid row."""
    return np.array([c.valid_len - 1 for c in chunks])


def _stacked_inputs(model: ScdModel, chunks, rows) -> np.ndarray:
    """The (T, B, I) input of a batch or bucket, T = one past the last of
    its rows read: each chunk's valid rows, then zeros. Steps past the last
    row read are never run."""
    xs = np.zeros((rows.max() + 1, len(chunks), model.input_dim),
                  dtype=model.dtype)
    for b, c in enumerate(chunks):
        xs[:c.valid_len, b] = c.matrix[:c.valid_len]
    return xs


def _buckets(order: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
    """Split chunk indices sorted by read row into consecutive buckets of
    at most SCORE_BUCKET chunks and cells; a bucket runs as many steps as
    its last (longest) chunk reads, and one chunk alone always fits."""
    max_chunks, max_cells = SCORE_BUCKET
    starts, start = [], 0
    for i, row in enumerate(rows[order]):
        n = i - start + 1
        if n > 1 and (n > max_chunks or n * (row + 1) > max_cells):
            starts.append(i)
            start = i
    return np.split(order, starts)


def _chunk_probabilities(model: ScdModel, chunks) -> np.ndarray:
    """Sigmoid probability per chunk, in input order. Chunks sorted by read
    row are scored in buckets (_buckets), each run only as far as its own
    longest chunk, so the cost follows the real steps; a bucket keeps only
    the top layer's states it reads (top_states). Each layer's gate weights
    are scaled once per call (lstm.ScaledGates), so a call made after an
    optimizer step reads the new weights."""
    rows = _read_rows(chunks)
    order = np.argsort(rows, kind="stable")
    finals = np.empty((len(chunks), model.hidden_dim), dtype=model.dtype)
    layers = [model.layer1.scaled(), model.layer2.scaled()]
    for bucket in _buckets(order, rows):
        states = top_states(
            _stacked_inputs(model, [chunks[i] for i in bucket], rows[bucket]),
            layers)
        finals[bucket] = states[rows[bucket], np.arange(len(bucket))]
    logits = finals.astype(np.float64) @ model.head_w.astype(np.float64) \
        + float(model.head_b[0])
    probs = sigmoid(logits)
    # keep reported probabilities strictly inside (0, 1)
    return np.clip(probs, LOG_EPS, 1.0 - LOG_EPS)


def predict_scd(model: ScdModel, sequences, chunk_len: int) -> np.ndarray:
    """The highest chunk probability of each sequence, in input order, all
    chunks scored in one bucketed pass; `sequences` must not be empty."""
    parts = [chunk_and_pad(seq, chunk_len) for seq in sequences]
    if not all(parts):
        raise UsageError("predict_scd: a sequence has no rows")
    starts = np.cumsum([0] + [len(p) for p in parts[:-1]])
    probs = _chunk_probabilities(model, [c for p in parts for c in p])
    return np.maximum.reduceat(probs, starts)


@dataclass
class ScdEpochRecord:
    epoch: int
    train: tuple
    val: tuple | None = None

    def format_line(self) -> str:
        acc, p, r, f1 = self.train
        line = (f"epoch={self.epoch} acc={acc:.4f} prec={_fmt(p)} "
                f"rec={_fmt(r)} f1={_fmt(f1)}")
        if self.val is not None:
            acc, p, r, f1 = self.val
            line += (f" val_acc={acc:.4f} val_prec={_fmt(p)} "
                     f"val_rec={_fmt(r)} val_f1={_fmt(f1)}")
        return line


def _fmt(x) -> str:
    return "nan" if x is None else f"{x:.4f}"


def _chunk_metrics(model, chunks, threshold):
    probs = _chunk_probabilities(model, chunks)
    counts = confusion(np.flatnonzero(probs >= threshold).tolist(),
                       [i for i, c in enumerate(chunks) if c.label],
                       range(len(chunks)))
    prf = precision_recall_f(counts, 1.0)
    return (accuracy(counts), prf.precision, prf.recall, prf.f_beta)


def training_loss_and_grads(model: ScdModel, chunks):
    """Mean binary cross-entropy over a list of chunks and gradients in
    model.param_list() order; also the gradient-check entry point."""
    rows = _read_rows(chunks)
    traces = forward_stack(_stacked_inputs(model, chunks, rows),
                           [model.layer1, model.layer2])
    finals = traces[1].S[rows, np.arange(len(chunks))]
    labels = np.array([1.0 if c.label else 0.0 for c in chunks],
                      dtype=model.dtype)
    logits = finals @ model.head_w + model.head_b[0]
    probs = sigmoid(logits)
    p64 = np.clip(probs.astype(np.float64), LOG_EPS, 1.0 - LOG_EPS)
    loss = float(-np.mean(np.where(labels > 0.5, np.log(p64),
                                   np.log1p(-p64))))
    d_logit = (probs - labels) / len(chunks)
    d_head_w = finals.T @ d_logit
    d_head_b = np.array([d_logit.sum()], dtype=model.dtype)
    d_finals = d_logit[:, None] * model.head_w[None, :]
    d_s = np.zeros_like(traces[1].S)
    d_s[rows, np.arange(len(chunks)), :] = d_finals
    layer_grads, _ = backward_stack(traces, d_s)
    grads = layer_grads[0] + layer_grads[1] + [d_head_w, d_head_b]
    return loss, grads


def train_scd(chunks, cfg: PipelineConfig, rng, val_chunks=None):
    """Train on labeled chunks with cfg's [scd] recipe, resampling negatives
    each epoch to the configured ratio; keeps the parameters from the
    first best-F1 epoch (validation F1 when val_chunks given, else training
    F1). cfg.scd_epochs is an upper bound: training stops after the first
    epoch whose F1 is 1.0, since no later epoch can replace it.

    Returns (model, list of ScdEpochRecord), one record per epoch run.
    """
    chunks = list(chunks)
    pos = [c for c in chunks if c.label]
    neg = [c for c in chunks if not c.label]
    if not pos or not neg:
        raise UsageError("train_scd: need at least one positive and one "
                         "negative chunk")
    input_dim = chunks[0].matrix.shape[1]
    model = ScdModel.create(rng, input_dim, cfg.scd_hidden_dim)
    records: list[ScdEpochRecord] = []
    optimizer = make_optimizer(cfg.scd_optimizer, cfg.scd_lr)
    params = model.param_list()
    best_f1 = -1.0
    best_params = None
    for epoch in range(1, cfg.scd_epochs + 1):
        n_neg = min(len(neg), int(round(cfg.scd_neg_ratio * len(pos))))
        neg_pick = [neg[i] for i in rng.permutation(len(neg))[:n_neg]]
        epoch_set = pos + neg_pick
        order = rng.permutation(len(epoch_set))
        for start in range(0, len(order), cfg.scd_batch_size):
            batch = [epoch_set[i]
                     for i in order[start:start + cfg.scd_batch_size]]
            loss, grads = training_loss_and_grads(model, batch)
            if not np.isfinite(loss):
                raise NumericError(f"train_scd: non-finite loss at epoch "
                                   f"{epoch} (lr={cfg.scd_lr})")
            optimizer.step(params, grads)
        train_m = _chunk_metrics(model, chunks, cfg.scd_threshold)
        val_m = None
        if val_chunks:
            val_m = _chunk_metrics(model, val_chunks, cfg.scd_threshold)
        records.append(ScdEpochRecord(epoch, train_m, val_m))
        select = val_m if val_m is not None else train_m
        f1 = select[3] if select[3] is not None else -1.0
        if f1 > best_f1:
            best_f1 = f1
            best_params = [p.copy() for p in params]
        if best_f1 == 1.0:
            break
    if best_params is not None:
        for p, best in zip(params, best_params):
            p[...] = best
    return model, records
