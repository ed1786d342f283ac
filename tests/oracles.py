"""Independent oracles used by the unit and acceptance tests.

The scalar oracles are written with plain Python loops and math functions
so they share no code path with the package's vectorized implementations;
masked_sigmoid is the textbook numpy form the package's one-pass sigmoid
must match bit for bit; step_loop_forward / step_loop_backward are
step-by-step LSTM forms, run in float64 as references that the float32
kernels must match within a tolerance, and tanh_gate_step_loop is the
float32 forward step loop that lstm.forward_steps must match bit for bit,
tanh_gate_step_loop_backward the float32 backward step loop that
lstm.backward_steps must match bit for bit;
masked_head_window_grads is the language model's window loss and gradients
with the output layer run on every row and the rows without a target
masked out afterwards; out_of_place_head_window_grads is the same window
with the head on the target rows only and every softmax step in a new
array, the form the in-place head must match bit for bit;
log_softmax_perplexity is the language model's
perplexity as a full float64 log-softmax per window, the formula that
perplexity's in-place form must match bit for bit;
per_unit_author_loss_and_grads is the author
scorer's batch loss and gradients as a loop over the units, run in float64
as the reference that the batched form must match within a tolerance;
score is the author scorer's one-unit float64 scoring, which each row of
class_probabilities must match within a tolerance.
"""

import math

import numpy as np

from chatscreen.author_classifier import CLASSES, SentimentScore, ShallowModel
from chatscreen.core_math import LOG_EPS, row_softmax
from chatscreen.language_model import _windows
from chatscreen.lstm import backward_stack


def scalar_sigmoid(a: float) -> float:
    if a >= 0:
        return 1.0 / (1.0 + math.exp(-a))
    e = math.exp(a)
    return e / (1.0 + e)


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function as two boolean-masked branches: 1/(1+exp(-x))
    where x >= 0, exp(x)/(1+exp(x)) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def scalar_cell_step(x, s_prev, c_prev, params):
    """Loop-per-scalar evaluation of the gate equations.

    x, s_prev, c_prev are Python lists; params is any object exposing the
    eight matrices and four biases as indexable 2-D/1-D arrays.
    """
    input_dim = len(x)
    hidden_dim = len(s_prev)

    def gate(u, w, b, act):
        out = []
        for j in range(hidden_dim):
            a = 0.0
            for k in range(input_dim):
                a += x[k] * u[k][j]
            for k in range(hidden_dim):
                a += s_prev[k] * w[k][j]
            a += b[j]
            out.append(act(a))
        return out

    i = gate(params.Ui, params.Wi, params.bi, scalar_sigmoid)
    f = gate(params.Uf, params.Wf, params.bf, scalar_sigmoid)
    o = gate(params.Uo, params.Wo, params.bo, scalar_sigmoid)
    g = gate(params.Ug, params.Wg, params.bg, math.tanh)
    c = [f[j] * c_prev[j] + i[j] * g[j] for j in range(hidden_dim)]
    s = [o[j] * math.tanh(c[j]) for j in range(hidden_dim)]
    return s, c


def scalar_softmax(values):
    top = max(values)
    exps = [math.exp(v - top) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


def scalar_lm_steps(model, ids):
    """Top-layer hidden state and next-token distribution after each index
    of `ids`, for a two-layer LSTM language model run from zero states."""
    h1, h2 = len(model.layer1.Wi), len(model.layer2.Wi)
    s1, c1, s2, c2 = [0.0] * h1, [0.0] * h1, [0.0] * h2, [0.0] * h2
    steps = []
    for idx in ids:
        s1, c1 = scalar_cell_step(model.embedding[idx].tolist(), s1, c1,
                                  model.layer1)
        s2, c2 = scalar_cell_step(s1, s2, c2, model.layer2)
        logits = [sum(s2[j] * model.out_w[j][k] for j in range(h2))
                  + model.out_b[k] for k in range(len(model.out_b))]
        steps.append((s2, scalar_softmax(logits)))
    return steps


def step_loop_forward(xs, s0, c0, params):
    """A layer's unroll the step-by-step way: at every step the input
    product x @ U, then s @ W, then the bias, each in a fresh array, and
    each gate through its own textbook function. Returns the (S, C, Z, TC)
    arrays of an LstmTrace in the dtype of its inputs; the tests give it
    float64 ones."""
    T, B, _ = xs.shape
    H = params.hidden_dim
    S = np.empty((T, B, H), dtype=xs.dtype)
    C = np.empty_like(S)
    TC = np.empty_like(S)
    Z = np.empty((T, B, 4 * H), dtype=xs.dtype)
    s, c = s0, c0
    for t in range(T):
        a = xs[t] @ params.U + s @ params.W + params.b
        z = Z[t]
        z[:, :3 * H] = masked_sigmoid(a[:, :3 * H])
        z[:, 3 * H:] = np.tanh(a[:, 3 * H:])
        i, f, o, g = z[:, :H], z[:, H:2 * H], z[:, 2 * H:3 * H], z[:, 3 * H:]
        c = f * c + i * g
        tc = np.tanh(c)
        s = o * tc
        C[t], TC[t], S[t] = c, tc, s
    return S, C, Z, TC


def tanh_gate_step_loop(xs, s0, c0, params):
    """forward_steps' arithmetic the step-by-step way, each value in a fresh
    array: every gate is m + k * tanh(k * a), with k 1/2 on the i, f, o
    lanes and 1 on the g lanes, and m = 1 - k; a step adds the scaled bias,
    then s @ (W*k), to its input rows. The input rows come from one flat
    (T*B, I) @ (I, 4H) product, since BLAS rounds a per-step product of
    one row differently. Returns the (S, C, Z, TC) arrays of an LstmTrace."""
    T, B, I = xs.shape
    H = params.hidden_dim
    k = np.full(4 * H, 0.5, dtype=params.U.dtype)
    k[3 * H:] = 1.0
    m = 1.0 - k
    Wk = params.W * k
    xU = (xs.reshape(T * B, I) @ (params.U * k)).reshape(T, B, 4 * H)
    S = np.empty((T, B, H), dtype=xs.dtype)
    C = np.empty_like(S)
    TC = np.empty_like(S)
    Z = np.empty((T, B, 4 * H), dtype=xs.dtype)
    s, c = s0, c0
    for t in range(T):
        a = xU[t] + params.b * k
        a = a + s @ Wk
        z = np.tanh(a) * k + m
        i, f, o, g = z[:, :H], z[:, H:2 * H], z[:, 2 * H:3 * H], z[:, 3 * H:]
        c = f * c + i * g
        tc = np.tanh(c)
        s = o * tc
        Z[t], C[t], TC[t], S[t] = z, c, tc, s
    return S, C, Z, TC



def tanh_gate_step_loop_backward(trace, d_states):
    """backward_steps' arithmetic the step-by-step way, each value in a
    fresh array: every step makes its own factors K, each product rounded
    in the order backward_steps' docstring gives, multiplies each gate
    block by its upstream factor and takes ds_next = dA @ W.T. The weight
    and input gradients come from the dA of all steps as the same flat
    (T*B, .) products, since BLAS rounds a sum of per-step products
    differently. Returns (grads, d_inputs) as lstm.backward_steps does."""
    p = trace.params
    T, B, H = trace.S.shape
    DA = np.empty((T, B, 4 * H), dtype=p.U.dtype)
    ds_next = np.zeros((B, H), dtype=p.U.dtype)
    dc_next = np.zeros((B, H), dtype=p.U.dtype)
    for t in range(T - 1, -1, -1):
        z = trace.Z[t]
        i, f, o, g = z[:, :H], z[:, H:2 * H], z[:, 2 * H:3 * H], z[:, 3 * H:]
        tc = trace.TC[t]
        c_prev = trace.C[t - 1] if t > 0 else trace.c0
        ds = d_states[t] + ds_next
        dc = ds * ((1.0 - tc * tc) * o) + dc_next
        DA[t, :, :H] = (1.0 - i) * i * g * dc
        DA[t, :, H:2 * H] = (1.0 - f) * f * c_prev * dc
        DA[t, :, 2 * H:3 * H] = (1.0 - o) * o * tc * ds
        DA[t, :, 3 * H:] = (1.0 - g * g) * i * dc
        dc_next = dc * f
        ds_next = DA[t] @ p.W.T
    DA = DA.reshape(T * B, 4 * H)
    s_prev = np.concatenate((trace.s0[None], trace.S[:-1]))
    grads = [trace.xs.reshape(T * B, -1).T @ DA,
             s_prev.reshape(T * B, H).T @ DA, DA.sum(axis=0)]
    return grads, (DA @ p.U.T).reshape(T, B, -1)


def step_loop_backward(trace, d_states):
    """BPTT through one layer the step-by-step way: every product and
    derivative factor made inside the time loop, one step at a time, and
    the weight gradients summed over the steps. Returns (grads, d_inputs)
    as lstm.backward_steps does, in the trace's dtype; the tests give it a
    float64 trace from step_loop_forward."""
    p = trace.params
    T, B, H = trace.S.shape
    grads = [np.zeros_like(m) for m in p.param_list()]
    dU, dW, db = grads
    d_xs = np.empty_like(trace.xs)
    ds_next = np.zeros((B, H), dtype=p.U.dtype)
    dc_next = np.zeros((B, H), dtype=p.U.dtype)
    dA = np.empty((B, 4 * H), dtype=p.U.dtype)
    for t in range(T - 1, -1, -1):
        z = trace.Z[t]
        i, f, o, g = z[:, :H], z[:, H:2 * H], z[:, 2 * H:3 * H], z[:, 3 * H:]
        tc = trace.TC[t]
        c_prev = trace.C[t - 1] if t > 0 else trace.c0
        s_prev = trace.S[t - 1] if t > 0 else trace.s0
        ds = d_states[t] + ds_next
        do = ds * tc
        dc = ds * o * (1.0 - tc * tc) + dc_next
        dA[:, :H] = (dc * g) * i * (1.0 - i)
        dA[:, H:2 * H] = (dc * c_prev) * f * (1.0 - f)
        dA[:, 2 * H:3 * H] = do * o * (1.0 - o)
        dA[:, 3 * H:] = (dc * i) * (1.0 - g * g)
        dc_next = dc * f
        dU += trace.xs[t].T @ dA
        dW += s_prev.T @ dA
        db += dA.sum(axis=0)
        d_xs[t] = dA @ p.U.T
        ds_next = dA @ p.W.T
    return grads, d_xs


def masked_head_window_grads(model, x, y, mask, traces):
    """One window's next-token NLL sum, target count and mean-NLL gradients
    (model.param_list() order), with the softmax head run on all T*B rows
    of the window and the rows without a target zeroed by the mask."""
    s2 = traces[1].S.reshape(len(y), model.hidden_dim)
    logits = s2 @ model.out_w + model.out_b
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(len(y))
    count = int(mask.sum())
    nll_sum = float(-np.log(probs[rows, y][mask].astype(np.float64)).sum())
    dlogits = probs
    dlogits[rows, y] -= 1.0
    dlogits *= (mask.astype(dlogits.dtype) / count)[:, None]
    d_out_w = s2.T @ dlogits
    d_out_b = dlogits.sum(axis=0)
    d_s2 = (dlogits @ model.out_w.T).reshape(traces[1].S.shape)
    layer_grads, d_xs = backward_stack(traces, d_s2)
    d_emb = np.zeros_like(model.embedding)
    np.add.at(d_emb, x, d_xs.reshape(len(x), model.embedding_dim))
    return nll_sum, count, ([d_emb] + layer_grads[0] + layer_grads[1]
                            + [d_out_w, d_out_b])


def out_of_place_head_window_grads(model, x, y, mask, traces):
    """One window's next-token NLL sum, target count and mean-NLL gradients
    (model.param_list() order) with the head run on the rows that have a
    target, as language_model._window_grads does, but with the logits, the
    biased logits, the shifted logits, their exp and the probabilities
    each a new (rows, V) array: row_softmax(s2 @ out_w + out_b) in its
    out-of-place form."""
    valid = np.flatnonzero(mask)
    count = len(valid)
    s2 = traces[1].S.reshape(len(y), model.hidden_dim)[valid]
    logits = s2 @ model.out_w + model.out_b
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
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
    return nll_sum, count, ([d_emb] + layer_grads[0] + layer_grads[1]
                            + [d_out_w, d_out_b])


def row_log_softmax64(x: np.ndarray) -> np.ndarray:
    """Float64 log-softmax over the last axis."""
    z = np.asarray(x, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax_perplexity(model, documents) -> float:
    """exp(mean next-token cross-entropy) over batches of 32 documents,
    shortest first, each window's log-probabilities taken as a whole
    float64 log-softmax and the target entries read from it."""
    documents = sorted((list(d) for d in documents if len(d) >= 2), key=len)
    total_nll, total = 0.0, 0
    for _, _, y, mask, traces in _windows(model, documents, 32):
        valid = np.flatnonzero(mask)
        s2 = traces[1].S.reshape(len(y), model.hidden_dim)[valid]
        logp = row_log_softmax64(s2 @ model.out_w + model.out_b)
        total_nll += float(-logp[np.arange(len(valid)), y[valid]].sum())
        total += len(valid)
    return float(np.exp(total_nll / total))


def per_unit_author_loss_and_grads(model, units, cached_ids):
    """Mean 3-class cross-entropy over units and grads for [embedding,
    class_w, class_b], one unit at a time: pooled vector, logits, softmax,
    loss and gradients per unit, each added to the running totals in unit
    order."""
    d_emb = np.zeros_like(model.embedding)
    d_w = np.zeros_like(model.class_w)
    d_b = np.zeros_like(model.class_b)
    total = 0.0
    scale = 1.0 / len(units)
    for unit, ids in zip(units, cached_ids):
        x = (model.embedding[ids].mean(axis=0) if ids else
             np.zeros(model.embedding.shape[1], dtype=model.embedding.dtype))
        logits = x @ model.class_w + model.class_b
        probs = row_softmax(logits[None, :])[0]
        target = CLASSES.index(unit.label)
        total += -float(np.log(max(float(probs[target]), LOG_EPS)))
        d_logits = probs.copy()
        d_logits[target] -= 1.0
        d_logits *= scale
        d_w += np.outer(x, d_logits)
        d_b += d_logits
        if ids:
            dx = model.class_w @ d_logits
            np.add.at(d_emb, ids, dx / len(ids))
    return total * scale, [d_emb, d_w, d_b]


def score(model: ShallowModel, features: np.ndarray) -> SentimentScore:
    logits = (features.astype(np.float64) @ model.class_w.astype(np.float64)
              + model.class_b.astype(np.float64))
    probs = row_softmax(logits[None, :])[0]
    return SentimentScore(p=float(probs[0]), v=float(probs[1]),
                          n=float(probs[2]))
