"""LSTM cell, sequence unrolling, and backpropagation through time.

Row-vector convention throughout: inputs multiply U matrices on the left
(x @ U), previous hidden states multiply W matrices (s @ W). Gates:

    i = sigmoid(x U_i + s W_i [+ b_i])      input gate
    f = sigmoid(x U_f + s W_f [+ b_f])      forget gate
    o = sigmoid(x U_o + s W_o [+ b_o])      output gate
    g = tanh   (x U_g + s W_g [+ b_g])      candidate state
    c_t = f * c_{t-1} + i * g
    s_t = o * tanh(c_t)

The batched kernels fuse the four gate products into one (I, 4H) matrix
per side; gradients are hand-derived and verified by finite differences.
Forward and backward never mutate parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_math import init_uniform, sigmoid
from .errors import ShapeError, UsageError

@dataclass
class LstmLayerParams:
    """The eight gate matrices of one layer, plus optional biases.

    Biases are all present or all absent; the default initialization sets
    them to zero with a +1 forget-gate bias so the cell starts out
    remembering.
    """

    Ui: np.ndarray
    Uf: np.ndarray
    Uo: np.ndarray
    Ug: np.ndarray
    Wi: np.ndarray
    Wf: np.ndarray
    Wo: np.ndarray
    Wg: np.ndarray
    bi: np.ndarray | None = None
    bf: np.ndarray | None = None
    bo: np.ndarray | None = None
    bg: np.ndarray | None = None

    @classmethod
    def init(cls, rng, input_dim: int, hidden_dim: int, use_bias: bool = True,
             dtype=np.float32, forget_bias: float = 1.0) -> "LstmLayerParams":
        def u():
            return init_uniform(rng, input_dim, hidden_dim, fan_in=input_dim,
                                dtype=dtype)

        def w():
            return init_uniform(rng, hidden_dim, hidden_dim, fan_in=hidden_dim,
                                dtype=dtype)

        params = cls(Ui=u(), Uf=u(), Uo=u(), Ug=u(),
                     Wi=w(), Wf=w(), Wo=w(), Wg=w())
        if use_bias:
            params.bi = np.zeros(hidden_dim, dtype=dtype)
            params.bf = np.full(hidden_dim, forget_bias, dtype=dtype)
            params.bo = np.zeros(hidden_dim, dtype=dtype)
            params.bg = np.zeros(hidden_dim, dtype=dtype)
        params.validate()
        return params

    @property
    def input_dim(self) -> int:
        return self.Ui.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.Ui.shape[1]

    @property
    def has_bias(self) -> bool:
        return self.bi is not None

    def validate(self) -> None:
        i, h = self.Ui.shape
        for name in ("Ui", "Uf", "Uo", "Ug"):
            m = getattr(self, name)
            if m.shape != (i, h):
                raise ShapeError(f"{name} shape {m.shape}, expected {(i, h)}")
        for name in ("Wi", "Wf", "Wo", "Wg"):
            m = getattr(self, name)
            if m.shape != (h, h):
                raise ShapeError(f"{name} shape {m.shape}, expected {(h, h)}")
        biases = [self.bi, self.bf, self.bo, self.bg]
        present = [b is not None for b in biases]
        if any(present) != all(present):
            raise ShapeError("LSTM biases must be all present or all absent")
        if all(present):
            for name in ("bi", "bf", "bo", "bg"):
                b = getattr(self, name)
                if b.shape != (h,):
                    raise ShapeError(f"{name} shape {b.shape}, expected {(h,)}")

    def param_names(self) -> list[str]:
        names = ["Ui", "Uf", "Uo", "Ug", "Wi", "Wf", "Wo", "Wg"]
        if self.has_bias:
            names += ["bi", "bf", "bo", "bg"]
        return names

    def param_list(self) -> list[np.ndarray]:
        return [getattr(self, n) for n in self.param_names()]

    def astype(self, dtype) -> "LstmLayerParams":
        kwargs = {n: getattr(self, n).astype(dtype) for n in self.param_names()}
        return LstmLayerParams(**kwargs)

    def copy(self) -> "LstmLayerParams":
        kwargs = {n: getattr(self, n).copy() for n in self.param_names()}
        return LstmLayerParams(**kwargs)

    def fused(self):
        """(I,4H), (H,4H) and optional (4H,) views used by the kernels."""
        u = np.concatenate([self.Ui, self.Uf, self.Uo, self.Ug], axis=1)
        w = np.concatenate([self.Wi, self.Wf, self.Wo, self.Wg], axis=1)
        b = None
        if self.has_bias:
            b = np.concatenate([self.bi, self.bf, self.bo, self.bg])
        return u, w, b


@dataclass
class LstmState:
    """Hidden state s and cell state c of one layer at one timestep."""

    s: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_dim: int, dtype=np.float32) -> "LstmState":
        return cls(np.zeros(hidden_dim, dtype=dtype),
                   np.zeros(hidden_dim, dtype=dtype))


@dataclass
class LstmTrace:
    """Forward-pass cache for one layer over one (T, B, ...) unroll."""

    params: LstmLayerParams
    xs: np.ndarray          # (T, B, I)
    s0: np.ndarray          # (B, H)
    c0: np.ndarray          # (B, H)
    S: np.ndarray           # (T, B, H) hidden states
    C: np.ndarray           # (T, B, H) cell states
    I: np.ndarray
    F: np.ndarray
    O: np.ndarray
    G: np.ndarray
    TC: np.ndarray          # tanh(C)
    fused_u: np.ndarray = field(repr=False, default=None)
    fused_w: np.ndarray = field(repr=False, default=None)


def forward_steps(xs: np.ndarray, s0: np.ndarray, c0: np.ndarray,
                  params: LstmLayerParams) -> LstmTrace:
    """Unroll the cell over xs (T, B, I) from initial states (B, H)."""
    T, B, _ = xs.shape
    H = params.hidden_dim
    u, w, b = params.fused()
    S = np.empty((T, B, H), dtype=xs.dtype)
    C = np.empty_like(S)
    I = np.empty_like(S)
    F = np.empty_like(S)
    O = np.empty_like(S)
    G = np.empty_like(S)
    TC = np.empty_like(S)
    s, c = s0, c0
    for t in range(T):
        a = xs[t] @ u + s @ w
        if b is not None:
            a = a + b
        i = sigmoid(a[:, :H])
        f = sigmoid(a[:, H:2 * H])
        o = sigmoid(a[:, 2 * H:3 * H])
        g = np.tanh(a[:, 3 * H:])
        c = f * c + i * g
        tc = np.tanh(c)
        s = o * tc
        I[t], F[t], O[t], G[t] = i, f, o, g
        C[t], TC[t], S[t] = c, tc, s
    return LstmTrace(params=params, xs=xs, s0=s0, c0=c0, S=S, C=C,
                     I=I, F=F, O=O, G=G, TC=TC, fused_u=u, fused_w=w)


def backward_steps(trace: LstmTrace, d_states: np.ndarray,
                   d_c_final: np.ndarray | None = None):
    """BPTT through one layer.

    d_states (T, B, H) holds the upstream gradient flowing into each
    timestep's hidden state. Returns (grads, d_inputs (T, B, I), d_s0, d_c0),
    grads being contiguous arrays in LstmLayerParams.param_list() order.
    """
    p = trace.params
    T, B, H = trace.S.shape
    if d_states.shape != trace.S.shape:
        raise UsageError(f"backward_steps: gradient shape {d_states.shape} "
                         f"does not match cached states {trace.S.shape}")
    u, w = trace.fused_u, trace.fused_w
    dU = np.zeros_like(u)
    dW = np.zeros_like(w)
    db = np.zeros(4 * H, dtype=u.dtype) if p.has_bias else None
    d_xs = np.empty_like(trace.xs)
    ds_next = np.zeros((B, H), dtype=u.dtype)
    dc_next = np.zeros((B, H), dtype=u.dtype)
    if d_c_final is not None:
        dc_next = dc_next + d_c_final
    dA = np.empty((B, 4 * H), dtype=u.dtype)
    for t in range(T - 1, -1, -1):
        i, f, o, g = trace.I[t], trace.F[t], trace.O[t], trace.G[t]
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
        if db is not None:
            db += dA.sum(axis=0)
        d_xs[t] = dA @ u.T
        ds_next = dA @ w.T
    fused = (dU, dW) if db is None else (dU, dW, db)
    grads = [g[..., j * H:(j + 1) * H].copy() for g in fused for j in range(4)]
    return grads, d_xs, ds_next, dc_next


def cell_step(x: np.ndarray, prev: LstmState,
              params: LstmLayerParams) -> LstmState:
    """One gate update from a single input vector and previous state."""
    x = np.asarray(x, dtype=params.Ui.dtype)
    if x.ndim != 1 or x.shape[0] != params.input_dim:
        raise ShapeError(f"cell_step: input shape {x.shape}, expected "
                         f"({params.input_dim},)")
    h = params.hidden_dim
    if prev.s.shape != (h,) or prev.c.shape != (h,):
        raise ShapeError(f"cell_step: state shapes {prev.s.shape}/{prev.c.shape},"
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


def backward_stack(traces, d_top: np.ndarray):
    """BPTT through a layer stack given upstream gradients on the top
    layer's hidden states. Returns (per-layer grad lists, gradient on xs)."""
    d_states = d_top
    grads = [None] * len(traces)
    for k in range(len(traces) - 1, -1, -1):
        layer_grads, d_inputs, _, _ = backward_steps(traces[k], d_states)
        grads[k] = layer_grads
        d_states = d_inputs
    return grads, d_states
