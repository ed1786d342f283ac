"""Two-layer LSTM language model: embedding -> LSTM -> LSTM -> softmax.

Training minimizes mean next-token cross-entropy with truncated
backpropagation through time: gradients flow inside one fixed window,
hidden/cell states carry across windows within a document and reset
between documents. The top layer's hidden state at a sentence's final
token doubles as the sentence vector consumed by the conversation
classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_math import LOG_EPS, init_uniform, make_optimizer, row_softmax
from .config import PipelineConfig
from .errors import NumericError, UsageError
from .lstm import LstmLayerParams, backward_stack, forward_stack, top_states
from .preprocessing import Vocabulary, encode


@dataclass
class LmEpochRecord:
    epoch: int
    train_ppl: float

    def format_line(self) -> str:
        return f"epoch={self.epoch} train_ppl={self.train_ppl:.6f}"


class LanguageModel:
    def __init__(self, vocab: Vocabulary, embedding: np.ndarray,
                 layer1: LstmLayerParams, layer2: LstmLayerParams,
                 out_w: np.ndarray, out_b: np.ndarray, window: int):
        self.vocab = vocab
        self.embedding = embedding
        self.layer1 = layer1
        self.layer2 = layer2
        self.out_w = out_w
        self.out_b = out_b
        self.window = window
        self.validate()

    @classmethod
    def create(cls, vocab: Vocabulary, embedding_dim: int, hidden_dim: int,
               window: int, rng) -> "LanguageModel":
        v = len(vocab)
        embedding = init_uniform(rng, v, embedding_dim, fan_in=embedding_dim)
        layer1 = LstmLayerParams.init(rng, embedding_dim, hidden_dim)
        layer2 = LstmLayerParams.init(rng, hidden_dim, hidden_dim)
        out_w = init_uniform(rng, hidden_dim, v, fan_in=hidden_dim)
        out_b = np.zeros(v, dtype=np.float32)
        return cls(vocab, embedding, layer1, layer2, out_w, out_b, window)

    def validate(self) -> None:
        v = len(self.vocab)
        if self.embedding.shape[0] != v:
            raise UsageError(f"embedding rows {self.embedding.shape[0]} != "
                             f"vocabulary size {v}")
        if self.layer1.input_dim != self.embedding_dim:
            raise UsageError("layer1 input dim does not match embedding dim")
        if self.layer2.input_dim != self.layer1.hidden_dim:
            raise UsageError("layer2 input dim does not match layer1 hidden dim")
        if self.out_w.shape != (self.hidden_dim, v):
            raise UsageError(f"out_w shape {self.out_w.shape}, expected "
                             f"{(self.hidden_dim, v)}")
        if self.out_b.shape != (v,):
            raise UsageError(f"out_b shape {self.out_b.shape}, expected {(v,)}")
        if self.window < 1:
            raise UsageError(f"window must be >= 1, got {self.window}")

    @property
    def embedding_dim(self) -> int:
        return self.embedding.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.layer2.hidden_dim

    def param_list(self) -> list[np.ndarray]:
        return ([self.embedding] + self.layer1.param_list()
                + self.layer2.param_list() + [self.out_w, self.out_b])

    def astype(self, dtype) -> "LanguageModel":
        return LanguageModel(self.vocab, self.embedding.astype(dtype),
                             self.layer1.astype(dtype),
                             self.layer2.astype(dtype),
                             self.out_w.astype(dtype),
                             self.out_b.astype(dtype), self.window)

    def read_only(self) -> "LanguageModel":
        """The model for a pass that only reads it: the same arrays, with
        each LSTM layer's gate weights scaled once (lstm.ScaledGates)
        instead of on every forward call. The pass makes its own copy and
        drops it at its end, so no weight update can leave it stale. It
        must only be read: param_list, astype and model_store.save raise
        AttributeError on it."""
        return LanguageModel(self.vocab, self.embedding, self.layer1.scaled(),
                             self.layer2.scaled(), self.out_w, self.out_b,
                             self.window)


def sentence_vector(model: LanguageModel, tokens) -> np.ndarray:
    """Encode tokens (unknowns to UNK, EOS appended, truncated to the
    model's window) and return the top-layer hidden state at the last
    consumed token."""
    ids = encode(tokens, model.vocab, model.window)
    xs = model.embedding[np.asarray(ids)][:, None, :]
    return top_states(xs, [model.layer1, model.layer2])[-1, 0].copy()


def _windows(model: LanguageModel, documents, batch_size: int):
    """Forward passes over truncated windows of encoded documents.

    Documents run in the order given, batch_size lanes at a time; each lane
    starts from zero states, which then carry from one window of model.window
    steps to the next. Yields (window_start, inputs, targets, mask, traces)
    with inputs, targets and mask flattened time-major to match the rows of
    the stacked (T, B, H) states. The next window's forward runs only when
    the consumer asks for it, so a parameter update made in between applies.
    Only the carried states outlive a window here, so a consumer that drops
    its traces before asking for the next window holds one window at a time.
    """
    vocab_size = len(model.vocab)
    for start in range(0, len(documents), batch_size):
        batch = documents[start:start + batch_size]
        lens = np.array([len(d) for d in batch], dtype=np.int64)
        ids = np.zeros((len(batch), int(lens.max())), dtype=np.int64)
        for b, doc in enumerate(batch):
            ids[b, :len(doc)] = doc
        bad = ids[(ids < 0) | (ids >= vocab_size)]
        if bad.size:
            raise UsageError(f"token index {bad[0]} out of range for "
                             f"vocabulary size {vocab_size}")
        states = None
        for k in range(0, ids.shape[1] - 1, model.window):
            tw = min(model.window, ids.shape[1] - 1 - k)
            X = ids[:, k:k + tw]
            mask = (k + 1 + np.arange(tw))[None, :] < lens[:, None]
            xs = model.embedding[X].transpose(1, 0, 2)
            traces = forward_stack(np.ascontiguousarray(xs),
                                   [model.layer1, model.layer2],
                                   init_states=states)
            states = [(t.S[-1].copy(), t.C[-1].copy()) for t in traces]
            yield (k, X.T.reshape(-1), ids[:, k + 1:k + 1 + tw].T.reshape(-1),
                   mask.T.reshape(-1), traces)
            del traces


def _window_grads(model: LanguageModel, x, y, mask, traces):
    """Masked next-token NLL sum, target count, and the gradients of the
    mean NLL in model.param_list() order, for one window. The output layer
    runs only on the rows that have a target; the other rows get zero
    gradient, which leaves their inputs' gradient zero too."""
    valid = np.flatnonzero(mask)
    count = len(valid)
    s2 = traces[1].S.reshape(len(y), model.hidden_dim)[valid]
    probs = row_softmax(s2 @ model.out_w + model.out_b)
    rows, targets = np.arange(count), y[valid]
    target_p = np.maximum(probs[rows, targets].astype(np.float64), LOG_EPS)
    nll_sum = float(-np.log(target_p).sum())
    dlogits = probs
    dlogits[rows, targets] -= 1.0
    dlogits /= count
    d_out_w = s2.T @ dlogits
    d_out_b = dlogits.sum(axis=0)
    d_s2 = np.zeros_like(traces[1].S)
    d_s2.reshape(len(y), model.hidden_dim)[valid] = dlogits @ model.out_w.T
    layer_grads, d_xs = backward_stack(traces, d_s2)
    d_emb = np.zeros_like(model.embedding)
    np.add.at(d_emb, x[valid],
              d_xs.reshape(len(x), model.embedding_dim)[valid])
    grads = [d_emb] + layer_grads[0] + layer_grads[1] + [d_out_w, d_out_b]
    return nll_sum, count, grads


def train_lm(documents, model: LanguageModel, cfg: PipelineConfig,
             rng) -> list[LmEpochRecord]:
    """Truncated-BPTT training over encoded documents with cfg's [lm]
    recipe and the model's window; returns one LmEpochRecord per epoch."""
    documents = [list(d) for d in documents]
    if all(len(d) < 2 for d in documents):
        raise UsageError("train_lm: corpus has no next-token targets")
    optimizer = make_optimizer(cfg.lm_optimizer, cfg.lm_lr)
    params = model.param_list()
    records: list[LmEpochRecord] = []
    for epoch in range(1, cfg.lm_epochs + 1):
        epoch_docs = [documents[i] for i in rng.permutation(len(documents))]
        epoch_nll, epoch_count = 0.0, 0
        for k, x, y, mask, traces in _windows(model, epoch_docs,
                                              cfg.lm_batch_size):
            nll, count, grads = _window_grads(model, x, y, mask, traces)
            del traces
            if not np.isfinite(nll):
                raise NumericError(
                    f"train_lm: non-finite loss (lr={cfg.lm_lr}, "
                    f"epoch={epoch}, window_start={k})")
            optimizer.step(params, grads)
            epoch_nll += nll
            epoch_count += count
        records.append(LmEpochRecord(epoch,
                                     float(np.exp(epoch_nll / epoch_count))))
    return records


def _target_nll(logits: np.ndarray, targets: np.ndarray) -> float:
    """Summed float64 cross-entropy of each row's target. The logits are
    cast to float64 once and worked in place: the row maximum subtracted,
    the target entries picked, exp taken, and the log of the row sums
    subtracted from the picked entries only. The copy lives in this frame,
    so it is freed before perplexity runs the next window."""
    z = logits.astype(np.float64)
    z -= z.max(axis=-1, keepdims=True)
    picked = z[np.arange(len(z)), targets]
    np.exp(z, out=z)
    return float(-(picked - np.log(z.sum(axis=-1))).sum())


def perplexity(model: LanguageModel, documents) -> float:
    """exp(mean next-token cross-entropy) over batches of 32 documents,
    shortest first so the batches pad the least; log-probabilities taken
    in float64 so anchor values hold tightly. A non-finite result, from
    diverged weights, is a NumericError."""
    documents = sorted((list(d) for d in documents if len(d) >= 2), key=len)
    if not documents:
        raise UsageError("perplexity: corpus has no next-token predictions")
    total_nll, total = 0.0, 0
    for _, _, y, mask, traces in _windows(model.read_only(), documents, 32):
        valid = np.flatnonzero(mask)
        s2 = traces[1].S.reshape(len(y), model.hidden_dim)[valid]
        del traces
        total_nll += _target_nll(s2 @ model.out_w + model.out_b, y[valid])
        total += len(valid)
    with np.errstate(over="ignore"):
        ppl = float(np.exp(total_nll / total))
    if not np.isfinite(ppl):
        raise NumericError(f"perplexity: non-finite result {ppl}")
    return ppl


def training_loss_and_grads(model: LanguageModel, documents):
    """Single-window loss and analytic gradients for gradient checking.

    Every document must fit one window (length <= window + 1) so the
    truncation boundary cannot split the finite-difference dependency.
    """
    documents = [list(d) for d in documents]
    for doc in documents:
        if len(doc) > model.window + 1:
            raise UsageError("training_loss_and_grads: document longer than "
                             "one window")
    for _, x, y, mask, traces in _windows(model, documents, len(documents)):
        nll, count, grads = _window_grads(model, x, y, mask, traces)
        return nll / count, grads
    raise UsageError("training_loss_and_grads: no next-token targets")
