"""LSTM cell, sequence unrolling, and backpropagation through time.

Row-vector convention throughout: inputs multiply U matrices on the left
(x @ U), previous hidden states multiply W matrices (s @ W). Gates:

    i = sigmoid(x U_i + s W_i + b_i)      input gate
    f = sigmoid(x U_f + s W_f + b_f)      forget gate
    o = sigmoid(x U_o + s W_o + b_o)      output gate
    g = tanh   (x U_g + s W_g + b_g)      candidate state
    c_t = f * c_{t-1} + i * g
    s_t = o * tanh(c_t)

Each layer stores its weights fused, once: U (I, 4H), W (H, 4H) and b (4H,)
hold the gate blocks side by side in the order i, f, o, g, so one product
per side gives all four gate pre-activations, and U_i ... b_g are views of
the blocks. The paper's bias-free equations are the case b = 0. The
forward trace keeps the gate activations in one (T, B, 4H) tensor in the
same layout; gradients come back as fused dU, dW, db, are hand-derived and
verified by finite differences. Forward and backward never mutate
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_math import init_uniform
from .errors import UsageError


def _gate_view(side: str, j: int) -> property:
    """Read-only property: gate block j of the fused array `side`."""
    def block(self):
        fused = getattr(self, side)
        h = self.hidden_dim
        return fused[..., j * h:(j + 1) * h]
    return property(block)


@dataclass
class LstmLayerParams:
    """One layer in the fused gate layout: U (I, 4H), W (H, 4H) and the
    bias b (4H,), gate blocks side by side in the order i, f, o, g.

    Ui ... bg are views of those blocks, not copies. The default
    initialization sets the biases to zero with a +1 forget-gate bias so
    the cell starts out remembering.
    """

    U: np.ndarray
    W: np.ndarray
    b: np.ndarray

    Ui, Uf, Uo, Ug = (_gate_view("U", j) for j in range(4))
    Wi, Wf, Wo, Wg = (_gate_view("W", j) for j in range(4))
    bi, bf, bo, bg = (_gate_view("b", j) for j in range(4))

    @classmethod
    def init(cls, rng, input_dim: int, hidden_dim: int,
             dtype=np.float32) -> "LstmLayerParams":
        u = [init_uniform(rng, input_dim, hidden_dim, fan_in=input_dim,
                          dtype=dtype) for _ in range(4)]
        w = [init_uniform(rng, hidden_dim, hidden_dim, fan_in=hidden_dim,
                          dtype=dtype) for _ in range(4)]
        b = np.zeros(4 * hidden_dim, dtype=dtype)
        b[hidden_dim:2 * hidden_dim] = 1.0     # forget gate
        return cls(np.concatenate(u, axis=1), np.concatenate(w, axis=1), b)

    def __post_init__(self):
        self.validate()

    @property
    def input_dim(self) -> int:
        return self.U.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.W.shape[0]

    def validate(self) -> None:
        h4 = 4 * self.hidden_dim   # W first: H is read from its rows
        for name, shape in (("W", (self.hidden_dim, h4)),
                            ("U", (self.input_dim, h4)), ("b", (h4,))):
            m = getattr(self, name)
            if m.shape != shape:
                raise UsageError(f"{name} shape {m.shape}, expected {shape}")

    def param_list(self) -> list[np.ndarray]:
        return [self.U, self.W, self.b]

    def astype(self, dtype) -> "LstmLayerParams":
        return LstmLayerParams(*(m.astype(dtype) for m in self.param_list()))

    def scaled(self) -> "ScaledGates":
        """U, W and b times the gate constants k, made fresh on each call."""
        k = gate_constants(4 * self.hidden_dim, self.U.dtype, 1)[0][0]
        return ScaledGates(self.U * k, self.W * k, self.b * k)


_GATE_ROWS: dict = {}


def gate_constants(width: int, dtype,
                   rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(k, m) as read-only (rows, width) arrays over width = 4H gate lanes:
    k is 1/2 on the i, f, o lanes and 1 on the g lanes, m = 1 - k (see
    forward_steps). Rows, so that a step scales and shifts its gates
    without broadcasting. One buffer per (width, dtype) is shared by every
    call; it is remade only for more rows than it holds, and a call gets
    its first `rows` rows."""
    key = (width, np.dtype(dtype))
    km = _GATE_ROWS.get(key)
    if km is None or len(km[0]) < rows:
        k = np.full((rows, width), 0.5, dtype=dtype)
        k[:, 3 * width // 4:] = 1.0
        m = 1.0 - k
        k.flags.writeable = m.flags.writeable = False
        _GATE_ROWS[key] = km = (k, m)
    return km[0][:rows], km[1][:rows]


class StepBuffers:
    """forward_steps' working arrays for one batch width B and up to T
    steps: the trace arrays Z (T, B, 4H), S, C and TC (T, B, H), the step
    scratch sW and ig, zero initial states (read-only), the gate constant
    rows k and m, and the per-step views the loop walks, each a tuple
    (z, i, f, o, g, c_t, tc, s_t) of step t. A call over T' <= T steps
    runs in the first T' steps of each."""

    def __init__(self, steps: int, batch: int, hidden: int, dtype,
                 weight_dtype):
        gate_dtype = np.result_type(dtype, weight_dtype)
        self.Z = np.empty((steps, batch, 4 * hidden), dtype=gate_dtype)
        self.S = np.empty((steps, batch, hidden), dtype=dtype)
        self.C = np.empty_like(self.S)
        self.TC = np.empty_like(self.S)
        self.sW = np.empty((batch, 4 * hidden), dtype=gate_dtype)
        self.ig = np.empty((batch, hidden), dtype=dtype)
        self.zeros = np.zeros((batch, hidden), dtype=dtype)
        self.zeros.flags.writeable = False
        self.k, self.m = gate_constants(4 * hidden, weight_dtype, batch)
        gates = self.Z.reshape(steps, batch, 4, hidden)
        blocks = gates.transpose(2, 0, 1, 3)   # i, f, o, g
        self.step_views = list(zip(self.Z, *blocks, self.C, self.TC, self.S))


class ScaledGates:
    """A layer's U, W and b times the gate constants k, the form
    forward_steps runs on, with the one StepBuffers set its calls run in.
    A pass that only reads the layer makes it once and hands it to each of
    its forward_steps calls; it is never kept on the layer, where an
    optimizer step would leave it stale. Its fields are not named U, W and
    b, so backward_steps cannot take it for the weights it was made from.

    The buffer set is made on first use, grows when a call runs more
    steps than it holds, and is replaced, never added to, when the batch
    width or the input dtype changes. So the trace of a call is valid only
    until the next call on the same ScaledGates."""

    def __init__(self, Uk: np.ndarray, Wk: np.ndarray, bk: np.ndarray):
        self.Uk, self.Wk, self.bk = Uk, Wk, bk
        self._buffers = None

    @property
    def input_dim(self) -> int:
        return self.Uk.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.Wk.shape[0]

    def scaled(self) -> "ScaledGates":
        """Itself: already scaled, as LstmLayerParams.scaled makes it."""
        return self

    def buffers(self, steps: int, batch: int, dtype) -> StepBuffers:
        """The buffer set for a call over `steps` steps of `batch` rows of
        inputs in `dtype`, remade only when the held one cannot take it."""
        buf = self._buffers
        if (buf is None or buf.S.shape[0] < steps or buf.S.shape[1] != batch
                or buf.S.dtype != dtype):
            buf = self._buffers = StepBuffers(
                steps, batch, self.hidden_dim, dtype, self.Uk.dtype)
        return buf


@dataclass
class LstmTrace:
    """Forward-pass cache for one layer over one (T, B, ...) unroll."""

    params: LstmLayerParams | ScaledGates   # ScaledGates: no backward
    xs: np.ndarray          # (T, B, I)
    s0: np.ndarray          # (B, H)
    c0: np.ndarray          # (B, H)
    S: np.ndarray           # (T, B, H) hidden states
    C: np.ndarray           # (T, B, H) cell states
    Z: np.ndarray           # (T, B, 4H) gate activations i | f | o | g
    TC: np.ndarray          # tanh(C)


def forward_steps(xs: np.ndarray, s0: np.ndarray, c0: np.ndarray,
                  params: LstmLayerParams | ScaledGates) -> LstmTrace:
    """Unroll the cell over xs (T, B, I) from initial states (B, H).

    All four gates go through one tanh per step, by sigmoid(a) =
    1/2 tanh(a/2) + 1/2: with k 1/2 on the i, f, o lanes and 1 on the g
    lanes, and m = 1 - k, the gates are m + k * tanh(k * a). U, W and b
    are scaled by k, which is exact: a layer's LstmLayerParams is scaled on
    each call (LstmLayerParams.scaled), its ScaledGates (made once by a
    pass that only reads the layer) are used as they are. The call runs in
    the ScaledGates' StepBuffers: fresh arrays when the layer was scaled
    for this call, the ones its previous call ran in otherwise. The input
    projection and the bias are made for all T steps before the
    recurrence, as one flat (T*B, I) @ (I, 4H) product written into the
    gate tensor Z; each step adds s @ (W*k) to Z[t] in place, runs tanh
    over it, maps it by z*k + m, and writes c, tanh(c) and s into the
    trace through out=. The loop walks the buffers' per-step views of Z,
    of its four gate blocks, and of C, TC and S.
    """
    T, B, I = xs.shape
    sg = params.scaled()
    buf = sg.buffers(T, B, xs.dtype)
    Z = buf.Z[:T]
    np.matmul(xs.reshape(T * B, I), sg.Uk, out=Z.reshape(T * B, -1))
    Z += sg.bk
    Wk, k, m, sW, ig = sg.Wk, buf.k, buf.m, buf.sW, buf.ig
    s, c = s0, c0
    for z, i, f, o, g, c_t, tc, s_t in buf.step_views[:T]:
        np.dot(s, Wk, out=sW)
        z += sW
        np.tanh(z, out=z)
        z *= k
        z += m
        np.multiply(f, c, out=c_t)
        np.multiply(i, g, out=ig)
        c_t += ig
        np.tanh(c_t, out=tc)
        np.multiply(o, tc, out=s_t)
        s, c = s_t, c_t
    return LstmTrace(params=params, xs=xs, s0=s0, c0=c0, S=buf.S[:T],
                     C=buf.C[:T], Z=Z, TC=buf.TC[:T])


def backward_steps(trace: LstmTrace, d_states: np.ndarray):
    """BPTT through one layer.

    d_states (T, B, H) holds the upstream gradient flowing into each
    timestep's hidden state. Returns (grads, d_inputs (T, B, I)), grads
    being [dU, dW, db] in LstmLayerParams.param_list() order.

    Only the recurrence runs per step: ds, dc, the gate gradients dA,
    dc_next and ds_next = dA @ W.T. Each gate block of dA is one upstream
    factor times one factor K that comes from the trace alone, each
    product rounded left to right:

        block   upstream   K
        i       dc         (1 - i) * i * g
        f       dc         (1 - f) * f * c_{t-1}
        o       ds         (1 - o) * o * tanh(c)
        g       dc         (1 - g * g) * i

    and dc = ds * OT + dc_next with OT = (1 - tanh(c)^2) * o. K and OT are
    made before the loop for all T steps at once: K starts as (1 - Z) * Z
    over the whole contiguous gate tensor, and its g block is then
    overwritten. Step t turns K[t] into dA in place. After the loop, dU,
    dW, db and d_inputs come from the dA of all steps, as flat (T*B, .)
    products and one sum.
    """
    p = trace.params
    T, B, H = trace.S.shape
    if d_states.shape != trace.S.shape:
        raise UsageError(f"backward_steps: gradient shape {d_states.shape} "
                         f"does not match cached states {trace.S.shape}")
    gates = trace.Z.reshape(T, B, 4, H)
    i, g = gates[:, :, 0], gates[:, :, 3]
    K = np.subtract(1.0, gates)
    K *= gates
    K[:, :, 0] *= g
    K[0, :, 1] *= trace.c0
    K[1:, :, 1] *= trace.C[:-1]
    K[:, :, 2] *= trace.TC
    np.multiply(g, g, out=K[:, :, 3])
    np.subtract(1.0, K[:, :, 3], out=K[:, :, 3])
    K[:, :, 3] *= i
    K = K.reshape(T, B, 4 * H)
    OT = trace.TC * trace.TC
    np.subtract(1.0, OT, out=OT)
    OT *= gates[:, :, 2]
    X = np.empty((B, 4, H), dtype=p.U.dtype)
    ds_next = np.zeros((B, H), dtype=p.U.dtype)
    dc_next = np.zeros((B, H), dtype=p.U.dtype)
    for t in range(T - 1, -1, -1):
        ds = d_states[t] + ds_next
        dc = ds * OT[t]
        dc += dc_next
        np.copyto(X, dc[:, None, :])
        X[:, 2] = ds
        dA = K[t]
        dA *= X.reshape(B, 4 * H)
        dc_next = dc * gates[t, :, 1]
        ds_next = np.dot(dA, p.W.T)
    DA = K.reshape(T * B, 4 * H)
    s_prev = np.concatenate((trace.s0[None], trace.S[:-1]))
    grads = [trace.xs.reshape(T * B, -1).T @ DA,
             s_prev.reshape(T * B, H).T @ DA, DA.sum(axis=0)]
    return grads, (DA @ p.U.T).reshape(T, B, -1)


def forward_stack(xs: np.ndarray, layers, init_states=None):
    """Unroll a stack of layers; layer k consumes layer k-1's hidden states.

    xs is (T, B, I). init_states is a list of (s0, c0) pairs per layer or
    None for zeros. Returns the list of per-layer traces; the top layer's
    hidden states are traces[-1].S.
    """
    T, B, _ = xs.shape
    traces = []
    inputs = xs
    for k, layer in enumerate(layers):
        if init_states is None:
            s0 = np.zeros((B, layer.hidden_dim), dtype=xs.dtype)
            c0 = np.zeros_like(s0)
        else:
            s0, c0 = init_states[k]
        trace = forward_steps(inputs, s0, c0, layer)
        traces.append(trace)
        inputs = trace.S
    return traces


def top_states(xs: np.ndarray, layers, rows: np.ndarray) -> np.ndarray:
    """The top layer's hidden state (B, H) at step rows[b] of each
    sequence b of xs (T, B, I), the stack run from zero states as
    forward_stack runs it; for passes that are only read, not
    backpropagated. Each layer runs in its ScaledGates' buffer set (a
    LstmLayerParams is scaled for this call), so the gates and cell states
    of one layer are overwritten by its next call, and only the rows
    returned, a copy, outlive this one."""
    for layer in layers:
        sg = layer.scaled()
        zeros = sg.buffers(*xs.shape[:2], xs.dtype).zeros
        xs = forward_steps(xs, zeros, zeros, sg).S
    return xs[rows, np.arange(xs.shape[1])]


def backward_stack(traces, d_top: np.ndarray):
    """BPTT through a layer stack given upstream gradients on the top
    layer's hidden states. Returns (per-layer grad lists, gradient on xs)."""
    d_states = d_top
    grads = [None] * len(traces)
    for k in range(len(traces) - 1, -1, -1):
        grads[k], d_states = backward_steps(traces[k], d_states)
    return grads, d_states
