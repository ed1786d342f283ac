"""Float64 reference for the two LSTM read-outs the checks sample.

Written from the equations, not from the program's kernels: one gate at a
time with its own matrices, one timestep at a time, one sequence at a
time, no fused weights and no batching. The program computes in float32,
so agreement is judged within TOLERANCE.
"""

from __future__ import annotations

import math
import re

import numpy as np

TOLERANCE = 1e-4        # absolute, on values in [-1, 1]
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|[^A-Za-z0-9\s]")
UNK, EOS = 1, 2


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gate(x, s, U, W, b):
    a = x @ U.astype(np.float64) + s @ W.astype(np.float64)
    return a if b is None else a + b.astype(np.float64)


def _layer(xs, p):
    """Hidden states (T, H) of one layer run over xs (T, I) from zeros."""
    h = p.Wi.shape[0]
    s = np.zeros(h)
    c = np.zeros(h)
    out = np.empty((len(xs), h))
    for t, x in enumerate(xs):
        i = _sigmoid(_gate(x, s, p.Ui, p.Wi, p.bi))
        f = _sigmoid(_gate(x, s, p.Uf, p.Wf, p.bf))
        o = _sigmoid(_gate(x, s, p.Uo, p.Wo, p.bo))
        g = np.tanh(_gate(x, s, p.Ug, p.Wg, p.bg))
        c = f * c + i * g
        s = o * np.tanh(c)
        out[t] = s
    return out


def encode(text: str, index: dict[str, int], window: int) -> list[int]:
    """Token ids of a normalized message: unknown words to <unk>, <eos>
    appended, cut to the LM window."""
    ids = [index.get(tok, UNK) for tok in _TOKEN_RE.findall(text)] + [EOS]
    return ids[:window]


def sentence_vector(lm, index: dict[str, int], text: str) -> np.ndarray:
    """Top-layer hidden state after the last encoded token; index maps
    each vocabulary token to its id."""
    ids = encode(text, index, lm.window)
    xs = lm.embedding.astype(np.float64)[ids]
    return _layer(_layer(xs, lm.layer1), lm.layer2)[-1]


def chunk_probabilities(scd, matrix: np.ndarray, chunk_len: int) -> list[float]:
    """Sigmoid-head probability of each chunk of a conversation's vectors.

    Masked models read the state at the chunk's last real row; unmasked
    ones read it after the zero padding that fills the chunk.
    """
    rows = matrix.astype(np.float64)
    probs = []
    for part in range(math.ceil(len(rows) / chunk_len)):
        chunk = rows[part * chunk_len:(part + 1) * chunk_len]
        if not scd.masked:
            pad = np.zeros((chunk_len - len(chunk), rows.shape[1]))
            chunk = np.vstack([chunk, pad])
        final = _layer(_layer(chunk, scd.layer1), scd.layer2)[-1]
        logit = final @ scd.head_w.astype(np.float64) + float(scd.head_b[0])
        probs.append(float(_sigmoid(logit)))
    return probs
