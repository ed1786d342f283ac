"""LSTM cell, sequence unrolling, and backpropagation through time.

Row-vector convention throughout: inputs multiply U matrices on the left
(x @ U), previous hidden states multiply W matrices (s @ W). Gates:

    i = sigmoid(x U_i + s W_i [+ b_i])      input gate
    f = sigmoid(x U_f + s W_f [+ b_f])      forget gate
    o = sigmoid(x U_o + s W_o [+ b_o])      output gate
    g = tanh   (x U_g + s W_g [+ b_g])      candidate state
    c_t = f * c_{t-1} + i * g
    s_t = o * tanh(c_t)

Each layer stores its weights fused, once: U (I, 4H), W (H, 4H) and b (4H,)
hold the gate blocks side by side in the order i, f, o, g, so one product
per side gives all four gate pre-activations, and U_i ... b_g are views of
the blocks. The forward trace keeps the gate activations in one (T, B, 4H)
tensor in the same layout; gradients come back as fused dU, dW, db, are
hand-derived and verified by finite differences. Forward and backward never
mutate parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core_math import init_uniform
from .errors import UsageError


def _gate_view(side: str, j: int) -> property:
    """Read-only property: gate block j of the fused array `side`."""
    def block(self):
        fused = getattr(self, side)
        h = self.hidden_dim
        return None if fused is None else fused[..., j * h:(j + 1) * h]
    return property(block)


@dataclass
class LstmLayerParams:
    """One layer in the fused gate layout: U (I, 4H), W (H, 4H) and an
    optional bias b (4H,), gate blocks side by side in the order i, f, o, g.

    Ui ... bg are views of those blocks, not copies. The default
    initialization sets the biases to zero with a +1 forget-gate bias so
    the cell starts out remembering. Every model the pipeline trains has
    biases; `init(use_bias=False)` and the `b is None` branches stay for
    the bias-free cells of the paper's literal equations, which the
    acceptance suite's single-cell oracle check (criterion 2) builds.
    """

    U: np.ndarray
    W: np.ndarray
    b: np.ndarray | None = None

    Ui, Uf, Uo, Ug = (_gate_view("U", j) for j in range(4))
    Wi, Wf, Wo, Wg = (_gate_view("W", j) for j in range(4))
    bi, bf, bo, bg = (_gate_view("b", j) for j in range(4))

    @classmethod
    def init(cls, rng, input_dim: int, hidden_dim: int, use_bias: bool = True,
             dtype=np.float32) -> "LstmLayerParams":
        u = [init_uniform(rng, input_dim, hidden_dim, fan_in=input_dim,
                          dtype=dtype) for _ in range(4)]
        w = [init_uniform(rng, hidden_dim, hidden_dim, fan_in=hidden_dim,
                          dtype=dtype) for _ in range(4)]
        b = None
        if use_bias:
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
            if m is not None and m.shape != shape:
                raise UsageError(f"{name} shape {m.shape}, expected {shape}")

    def param_list(self) -> list[np.ndarray]:
        return [self.U, self.W] + ([] if self.b is None else [self.b])

    def astype(self, dtype) -> "LstmLayerParams":
        return LstmLayerParams(*(m.astype(dtype) for m in self.param_list()))

    def scaled(self) -> "ScaledGates":
        """U, W and b times the gate constants k, made fresh on each call."""
        k = gate_constants(4 * self.hidden_dim, self.U.dtype, 1)[0][0]
        return ScaledGates(self.U * k, self.W * k,
                           None if self.b is None else self.b * k)


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


class ScaledGates(NamedTuple):
    """A layer's U, W and b times the gate constants k, the form
    forward_steps runs on. A pass that only reads the layer makes it once
    and hands it to each of its forward_steps calls; it is never kept on
    the layer, where an optimizer step would leave it stale. Its fields
    are not named U, W and b, so backward_steps cannot take it for the
    weights it was made from."""

    Uk: np.ndarray
    Wk: np.ndarray
    bk: np.ndarray | None

    @property
    def input_dim(self) -> int:
        return self.Uk.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.Wk.shape[0]


@dataclass
class LstmState:
    """Hidden state s and cell state c of one layer at one timestep."""

    s: np.ndarray
    c: np.ndarray


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
    pass that only reads the layer) are used as they are. The input
    projection and the bias are made for all T steps before the
    recurrence, as one flat (T*B, I) @ (I, 4H) product written into the
    gate tensor Z; each step adds s @ (W*k) to Z[t] in place, runs tanh
    over it, maps it by z*k + m, and writes c, tanh(c) and s into the
    trace through out=. The loop walks per-step views of Z, of its four
    gate blocks, and of C, TC and S.
    """
    T, B, I = xs.shape
    H = params.hidden_dim
    sg = params if isinstance(params, ScaledGates) else params.scaled()
    k, m = gate_constants(4 * H, sg.Uk.dtype, B)
    Z = (xs.reshape(T * B, I) @ sg.Uk).reshape(T, B, 4 * H)
    if sg.bk is not None:
        Z += sg.bk
    Wk = sg.Wk
    S = np.empty((T, B, H), dtype=xs.dtype)
    C = np.empty_like(S)
    TC = np.empty_like(S)
    sW = np.empty((B, 4 * H), dtype=Z.dtype)
    ig = np.empty((B, H), dtype=xs.dtype)
    blocks = Z.reshape(T, B, 4, H).transpose(2, 0, 1, 3)   # i, f, o, g
    s, c = s0, c0
    for z, i, f, o, g, c_t, tc, s_t in zip(Z, *blocks, C, TC, S):
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
    return LstmTrace(params=params, xs=xs, s0=s0, c0=c0, S=S, C=C, Z=Z,
                     TC=TC)


def backward_steps(trace: LstmTrace, d_states: np.ndarray):
    """BPTT through one layer.

    d_states (T, B, H) holds the upstream gradient flowing into each
    timestep's hidden state. Returns (grads, d_inputs (T, B, I)), grads
    being [dU, dW(, db)] in LstmLayerParams.param_list() order.

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
             s_prev.reshape(T * B, H).T @ DA]
    if p.b is not None:
        grads.append(DA.sum(axis=0))
    return grads, (DA @ p.U.T).reshape(T, B, -1)


def cell_step(x: np.ndarray, prev: LstmState,
              params: LstmLayerParams) -> LstmState:
    """One gate update from a single input vector and previous state."""
    x = np.asarray(x, dtype=params.U.dtype)
    if x.ndim != 1 or x.shape[0] != params.input_dim:
        raise UsageError(f"cell_step: input shape {x.shape}, expected "
                         f"({params.input_dim},)")
    h = params.hidden_dim
    if prev.s.shape != (h,) or prev.c.shape != (h,):
        raise UsageError(f"cell_step: state shapes {prev.s.shape}/{prev.c.shape},"
                         f" expected ({h},)")
    trace = forward_steps(x[None, None, :], prev.s[None, :], prev.c[None, :],
                          params)
    return LstmState(trace.S[0, 0].copy(), trace.C[0, 0].copy())


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


def top_states(xs: np.ndarray, layers) -> np.ndarray:
    """The top layer's hidden states (T, B, H) of a stack run from zero
    states, as forward_stack computes them. Only each layer's S outlives
    its own pass, so the gates and cell states of one layer are gone
    before the next layer runs; for passes that are only read, not
    backpropagated."""
    for layer in layers:
        s0 = np.zeros((xs.shape[1], layer.hidden_dim), dtype=xs.dtype)
        xs = forward_steps(xs, s0, np.zeros_like(s0), layer).S
    return xs


def backward_stack(traces, d_top: np.ndarray):
    """BPTT through a layer stack given upstream gradients on the top
    layer's hidden states. Returns (per-layer grad lists, gradient on xs)."""
    d_states = d_top
    grads = [None] * len(traces)
    for k in range(len(traces) - 1, -1, -1):
        grads[k], d_states = backward_steps(traces[k], d_states)
    return grads, d_states
