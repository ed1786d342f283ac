"""Dense numeric substrate: activations, losses, optimizer steps, seeded
initialization, and a finite-difference gradient verifier.

Matrices are plain 2-D numpy arrays (row-major). Training defaults to
float32; verification (gradient checks) requires float64 because central
differences drown in float32 rounding noise.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import NumericError, UsageError

LOG_EPS = 1e-12  # clamp under the log so a confident-wrong model stays finite
CLIP_NORM = 5.0  # every optimizer step caps the global gradient norm here


class Rng(np.random.Generator):
    """Deterministic random source: a numpy Generator over PCG64 seeded
    with a 64-bit integer.

    The same seed yields the same draw sequence on every platform numpy
    supports. Stage-local streams come from derive(), which hashes a name
    into the seed so stages cannot steal each other's draws.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        super().__init__(np.random.PCG64(self.seed))

    def derive(self, name: str) -> "Rng":
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        return Rng(int.from_bytes(digest[:8], "little"))

    def uniform(self, low, high, shape, dtype=np.float32):
        return super().uniform(low, high, shape).astype(dtype)

    def hex_id(self) -> str:
        return self.bytes(16).hex()


def init_uniform(rng: Rng, rows: int, cols: int, fan_in: int,
                 dtype=np.float32) -> np.ndarray:
    """Weight matrix drawn uniformly from [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    limit = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-limit, limit, (rows, cols), dtype=dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Element-wise logistic function, stable for large |x|.

    One exp(-|x|) per element: 1/(1+e) where x >= 0, e/(1+e) elsewhere, so
    neither branch can overflow. Since e <= 1, max(e, x >= 0) is that
    numerator (1 or e), and NaN passes through; one division, no select.
    """
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def row_softmax(x: np.ndarray) -> np.ndarray:
    """OVERWRITES x with its softmax over the last axis and returns it.

    Pass only a 2-D array the caller owns and no longer needs, never a
    view of a parameter or a cached array. The row maximum is subtracted,
    exp taken and the row sums divided out, each in place and in x's
    dtype, so a caller that passes its own logits holds one array, not
    four."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _clip_scale(params, grads) -> float:
    """Check that grads match params one for one in shape, then return the
    factor that brings the global gradient norm down to CLIP_NORM (1.0
    when the norm is within it)."""
    if len(params) != len(grads):
        raise UsageError(f"optimizer: {len(params)} params vs {len(grads)} "
                         "grads")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise UsageError(f"optimizer: param shape {p.shape} vs grad "
                             f"shape {g.shape}")
    norm = float(np.sqrt(sum(float(np.sum(np.asarray(g, np.float64) ** 2))
                             for g in grads)))
    return CLIP_NORM / norm if norm > CLIP_NORM else 1.0


class SgdOptimizer:
    """In-place p <- p - lr*g after global gradient-norm clipping."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params, grads):
        scale = _clip_scale(params, grads)
        for p, g in zip(params, grads):
            p -= (self.lr * scale) * g.astype(p.dtype, copy=False)


class AdamOptimizer:
    """Adaptive-moment optimizer, available behind the `optimizer` config key.

    Applies the same global-norm clip as SGD before the moment update.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self._m = None
        self._v = None
        self._t = 0

    def step(self, params, grads):
        scale = _clip_scale(params, grads)
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self._t += 1
        b1, b2 = 0.9, 0.999
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            gs = (scale * g).astype(p.dtype, copy=False)
            m *= b1
            m += (1 - b1) * gs
            v *= b2
            v += (1 - b2) * gs * gs
            p -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + 1e-8)


def make_optimizer(name: str, lr: float):
    if name == "sgd":
        return SgdOptimizer(lr)
    if name == "adam":
        return AdamOptimizer(lr)
    raise UsageError(f"unknown optimizer {name!r} (expected sgd or adam)")


def gradient_check(loss_and_grads, params, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_and_grads() -> (loss, grads) evaluates the loss at the current
    parameter values and its analytic gradients, in the same order as
    `params`, which it must read through (the check perturbs them in place).
    Only meaningful in float64: float32 params are rejected.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise UsageError(f"gradient_check: epsilon {epsilon} outside [1e-6, 1e-3]")
    for p in params:
        if p.dtype != np.float64:
            raise UsageError("gradient_check requires float64 parameters, got "
                             f"{p.dtype}")
    loss0, grads = loss_and_grads()
    if not np.isfinite(loss0):
        raise NumericError(f"gradient_check: non-finite loss {loss0}")
    grads = [np.array(g, dtype=np.float64, copy=True) for g in grads]
    if len(grads) != len(params):
        raise UsageError(f"gradient_check: {len(params)} params vs "
                         f"{len(grads)} grads")
    max_err = 0.0
    for p, g in zip(params, grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + epsilon
            loss_plus, _ = loss_and_grads()
            flat_p[i] = orig - epsilon
            loss_minus, _ = loss_and_grads()
            flat_p[i] = orig
            if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
                raise NumericError("gradient_check: non-finite loss during "
                                   "perturbation")
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            analytic = flat_g[i]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            if err > max_err:
                max_err = err
    return max_err
