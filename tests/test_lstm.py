import gc

import numpy as np
import pytest

from chatscreen.core_math import Rng, gradient_check, init_uniform
from chatscreen.errors import UsageError
from chatscreen.lstm import (LstmLayerParams, LstmTrace, backward_stack,
                             backward_steps, forward_stack, forward_steps,
                             gate_constants)

from oracles import (scalar_cell_step, step_loop_backward, step_loop_forward,
                     tanh_gate_step_loop, tanh_gate_step_loop_backward)

# frozen from the scalar oracle: sigmoid(1), tanh(1), and their combination
SIG1 = 0.7310585786300049
TANH1 = 0.7615941559557649
C_ONE_UNIT = 0.5567699411459397
S_ONE_UNIT = 0.36960635293570576


def make_params(rng, input_dim, hidden_dim, zero_bias=False,
                dtype=np.float64):
    """A layer as LstmLayerParams.init draws it; zero_bias sets b = 0, the
    paper's bias-free equations, without changing the draws of U and W."""
    params = LstmLayerParams.init(rng, input_dim, hidden_dim, dtype=dtype)
    if zero_bias:
        params.b[:] = 0.0
    return params


def all_value_params(value, input_dim, hidden_dim, dtype=np.float64):
    return LstmLayerParams(
        U=np.full((input_dim, 4 * hidden_dim), value, dtype=dtype),
        W=np.full((hidden_dim, 4 * hidden_dim), value, dtype=dtype),
        b=np.zeros(4 * hidden_dim, dtype=dtype))


def one_step(x, s, c, params):
    """forward_steps over a single input vector x (I,) from states s, c
    (H,); returns the new (s, c)."""
    trace = forward_steps(np.asarray(x)[None, None], np.asarray(s)[None],
                          np.asarray(c)[None], params)
    return trace.S[0, 0], trace.C[0, 0]


def zero_state(hidden_dim):
    return np.zeros(hidden_dim), np.zeros(hidden_dim)


# The float32 kernels against float64 step loops, at I = 64 for B = 1, 3
# and 16, and at I = H = 200, where a B = 1 product takes its own BLAS
# path. Bias 0 is the paper's bias-free cell; bias 20 and 100 set every
# other gate lane's bias to +-20 or +-100, so those gates saturate. Forward
# arrays must agree within TOL, gradients within TOL of the largest
# reference gradient.
CASES = [(1, 64, 24, 9), (3, 64, 24, 9), (16, 64, 24, 9), (1, 200, 200, 3),
         (16, 200, 200, 3)]
BIASES = [0.0, 1.0, 20.0, 100.0]
BIAS_IDS = ["zerobias", "bias", "bias20", "bias100"]
TOL = 2e-6


def float32_case(batch, width, hidden, steps, bias):
    """Float32 params, inputs and nonzero initial states; one input step
    holds zero lanes and the last one -0.0 lanes."""
    rng = Rng(60 + batch + width)
    params = make_params(rng, width, hidden, zero_bias=not bias,
                         dtype=np.float32)
    if bias:
        params.b[:] = rng.uniform(-1, 1, params.b.shape)
        if bias > 1:
            params.b[::2] = bias * np.sign(params.b[::2])
    xs = rng.uniform(-1, 1, (steps, batch, width))
    xs[steps // 2, :, ::3] = 0.0
    xs[-1, :, 1::3] = -0.0
    s0 = rng.uniform(-0.9, 0.9, (batch, hidden))
    c0 = rng.uniform(-1.5, 1.5, (batch, hidden))
    return params, xs, s0, c0


def float64_trace(params, xs, s0, c0):
    """A float32 case unrolled by the float64 step-loop oracle."""
    p = params.astype(np.float64)
    xs, s0, c0 = (a.astype(np.float64) for a in (xs, s0, c0))
    return LstmTrace(p, xs, s0, c0, *step_loop_forward(xs, s0, c0, p))


class TestOneStep:
    """One step of forward_steps, a (1, 1, I) input, against the gate
    equations."""

    def test_all_zero_weights_give_zero_state(self):
        params = all_value_params(0.0, 2, 3)
        s, c = one_step(np.zeros(2), *zero_state(3), params)
        assert np.array_equal(s, np.zeros(3))
        assert np.array_equal(c, np.zeros(3))

    def test_one_unit_all_ones_hand_values(self):
        params = all_value_params(1.0, 1, 1)
        s, c = one_step(np.array([1.0]), *zero_state(1), params)
        assert abs(c[0] - C_ONE_UNIT) < 1e-12
        assert abs(s[0] - S_ONE_UNIT) < 1e-12

    @pytest.mark.parametrize("zero_bias", [True, False],
                             ids=["zerobias", "bias"])
    def test_matches_scalar_oracle(self, zero_bias):
        rng = Rng(21)
        for _ in range(25):
            params = make_params(rng, 4, 3, zero_bias)
            x = rng.uniform(-2, 2, (4,), dtype=np.float64)
            s_prev = rng.uniform(-0.9, 0.9, (3,), dtype=np.float64)
            c_prev = rng.uniform(-1.5, 1.5, (3,), dtype=np.float64)
            got_s, got_c = one_step(x, s_prev, c_prev, params)
            s, c = scalar_cell_step(x.tolist(), s_prev.tolist(),
                                    c_prev.tolist(), params)
            assert np.abs(got_s - s).max() < 1e-12
            assert np.abs(got_c - c).max() < 1e-12

    def test_hidden_state_inside_open_interval(self):
        rng = Rng(8)
        for _ in range(20):
            params = make_params(rng, 3, 5)
            x = rng.uniform(-5, 5, (3,), dtype=np.float64)
            s_prev = rng.uniform(-0.9, 0.9, (5,), dtype=np.float64)
            c_prev = rng.uniform(-3, 3, (5,), dtype=np.float64)
            s, c = one_step(x, s_prev, c_prev, params)
            assert np.all(s > -1) and np.all(s < 1)
            assert np.all(np.abs(c) <= np.abs(c_prev) + 1 + 1e-12)


class TestLayout:
    """U, W and b hold the gate blocks i, f, o, g side by side; Ui ... bg
    are views of those blocks."""

    def test_init_concatenates_the_eight_draws_in_order(self):
        params = LstmLayerParams.init(Rng(5), 3, 4)
        rng = Rng(5)
        u = [init_uniform(rng, 3, 4, fan_in=3) for _ in range(4)]
        w = [init_uniform(rng, 4, 4, fan_in=4) for _ in range(4)]
        assert np.array_equal(params.U, np.concatenate(u, axis=1))
        assert np.array_equal(params.W, np.concatenate(w, axis=1))
        assert np.array_equal(params.b, np.repeat([0.0, 1.0, 0.0, 0.0], 4))
        assert all(a is b for a, b in zip(
            params.param_list(), [params.U, params.W, params.b], strict=True))

    def test_gate_views_are_blocks_sharing_memory(self):
        params = make_params(Rng(6), 3, 4)
        assert len(params.param_list()) == 3
        for side in "UWb":
            fused = getattr(params, side)
            for j, gate in enumerate("ifog"):
                view = getattr(params, side + gate)
                assert np.array_equal(view, fused[..., 4 * j:4 * j + 4])
                assert np.shares_memory(view, fused)
        with pytest.raises(AttributeError):
            params.Ui = np.zeros((3, 4))

    @pytest.mark.parametrize("side,shape", [
        ("U", (3, 12)), ("U", (16,)), ("W", (4, 12)), ("W", (3, 16)),
        ("b", (12,)), ("b", (4,))], ids=["U-width", "U-rank", "W-width",
                                         "W-rows", "b-length", "b-one-gate"])
    def test_validate_rejects_wrong_shape(self, side, shape):
        params = make_params(Rng(7), 3, 4)
        setattr(params, side, np.zeros(shape))
        with pytest.raises(UsageError, match=f"^{side} shape"):
            params.validate()


def unroll(xs, params):
    """forward_steps over one sequence (B=1) from zero states."""
    h = params.hidden_dim
    return forward_steps(np.asarray(xs)[:, None, :], np.zeros((1, h)),
                         np.zeros((1, h)), params)


def upstream(trace, last_only=False):
    """(T, 1, H) upstream gradient: ones at every step or at the last."""
    d = np.zeros_like(trace.S) if last_only else np.ones_like(trace.S)
    d[-1] = 1.0
    return d


class TestSequenceForward:
    def test_zero_weights_zero_states(self):
        params = all_value_params(0.0, 2, 3)
        trace = unroll(np.zeros((4, 2)), params)
        assert np.array_equal(trace.S, np.zeros((4, 1, 3)))

    def test_final_state_equals_manual_fold(self):
        rng = Rng(31)
        params = make_params(rng, 3, 4)
        xs = rng.uniform(-1, 1, (5, 3), dtype=np.float64)
        trace = unroll(xs, params)
        s, c = zero_state(4)
        for t in range(5):
            s, c = one_step(xs[t], s, c, params)
        assert np.abs(trace.S[-1, 0] - s).max() < 1e-12
        assert np.abs(trace.C[-1, 0] - c).max() < 1e-12

    @pytest.mark.parametrize("batch,width,hidden,steps", CASES)
    @pytest.mark.parametrize("bias", BIASES, ids=BIAS_IDS)
    def test_forward_matches_float64_step_loop(self, batch, width, hidden,
                                               steps, bias):
        params, xs, s0, c0 = float32_case(batch, width, hidden, steps, bias)
        trace = forward_steps(xs, s0, c0, params)
        ref = float64_trace(params, xs, s0, c0)
        for name in ("S", "C", "Z", "TC"):
            got, want = getattr(trace, name), getattr(ref, name)
            assert got.dtype == np.float32
            assert np.abs(got - want).max() <= TOL, name

    # the in-place recurrence over the hoisted projection against fresh
    # arrays per step, at 4, 64 and 200 wide and with I != H (the first call
    # at 64 x 24 is the original case), from the layer itself and from its
    # ScaledGates made once and reused over several calls; tobytes() also
    # tells -0.0 from +0.0
    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("zero_bias", [True, False],
                             ids=["zerobias", "bias"])
    def test_hoisted_projection_matches_step_loop_bit_for_bit(self, batch,
                                                              zero_bias):
        rng = Rng(50 + batch)
        for width, hidden in ((64, 24), (4, 4), (64, 64), (200, 200)):
            params = make_params(rng, width, hidden, zero_bias, np.float32)
            if not zero_bias:
                params.b[:] = rng.uniform(-1, 1, params.b.shape)
            gates = params.scaled()
            for _ in range(3):
                xs = rng.uniform(-1, 1, (9, batch, width))
                s0 = rng.uniform(-0.9, 0.9, (batch, hidden))
                c0 = rng.uniform(-1.5, 1.5, (batch, hidden))
                want = tanh_gate_step_loop(xs, s0, c0, params)
                for layer in (params, gates):
                    trace = forward_steps(xs, s0, c0, layer)
                    got = (trace.S, trace.C, trace.Z, trace.TC)
                    for name, array, ref in zip(("S", "C", "Z", "TC"), got,
                                                want):
                        assert array.dtype == np.float32
                        assert array.tobytes() == ref.tobytes(), \
                            (width, name)

    # one row per batch row, so that no step broadcasts; the rows of a
    # smaller batch are a slice of the buffer a larger one made
    def test_gate_constants_are_shared_and_read_only(self):
        k1 = np.array([0.5] * 6 + [1.0] * 2, dtype=np.float32)
        for rows in (1, 3, 16):
            k, m = gate_constants(8, np.dtype(np.float32), rows)
            assert k.dtype == m.dtype == np.float32
            assert np.array_equal(k, np.broadcast_to(k1, (rows, 8)))
            assert np.array_equal(m, np.broadcast_to(1 - k1, (rows, 8)))
            assert not k.flags.writeable and not m.flags.writeable
        k16, m16 = gate_constants(8, np.float32, 16)
        k3, m3 = gate_constants(8, np.float32, 3)
        assert np.shares_memory(k3, k16) and np.shares_memory(m3, m16)


def held_bytes(obj):
    """Bytes of the distinct array buffers reachable from obj through the
    attributes of chatscreen objects, dicts, lists and tuples; a view
    counts as the array that owns its memory."""
    owners, seen, todo = {}, set(), [obj]
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            owners[id(x)] = x.nbytes
        elif isinstance(x, (dict, list, tuple)) or \
                type(x).__module__.startswith("chatscreen."):
            todo.extend(gc.get_referents(x))
    return sum(owners.values())


class TestReadOnlyStepBuffers:
    """A ScaledGates runs every call in one set of step buffers, grown for
    more steps and replaced for another batch width."""

    # (T, B): T grows and shrinks at one width, B goes 1 -> 3 -> 1 -> 16 -> 1
    CALLS = [(5, 1), (9, 1), (3, 1), (7, 3), (12, 3), (2, 3), (4, 1),
             (6, 16), (11, 16), (1, 16), (8, 1)]

    @pytest.mark.parametrize("width,hidden", [(32, 32), (200, 200)])
    def test_reused_buffers_match_fresh_layers_bit_for_bit(self, width,
                                                           hidden):
        rng = Rng(width)
        params = make_params(rng, width, hidden, dtype=np.float32)
        params.b[:] = rng.uniform(-1, 1, params.b.shape)
        gates = params.scaled()
        for steps, batch in self.CALLS:
            xs = rng.uniform(-1, 1, (steps, batch, width))
            s0 = rng.uniform(-0.9, 0.9, (batch, hidden))
            c0 = rng.uniform(-1.5, 1.5, (batch, hidden))
            got = forward_steps(xs, s0, c0, gates)
            fresh = forward_steps(xs, s0, c0, params)
            want = tanh_gate_step_loop(xs, s0, c0, params)
            for name, ref in zip(("S", "C", "Z", "TC"), want):
                array = getattr(got, name)
                assert array.shape == ref.shape, (steps, batch, name)
                assert array.tobytes() == ref.tobytes(), (steps, batch, name)
                assert array.tobytes() == getattr(fresh, name).tobytes()

    def test_one_buffer_set_after_several_widths(self):
        # a layer that kept one set per width would hold the B = 3 and
        # B = 16 sets as well as the last one
        rng = Rng(5)
        params = make_params(rng, 32, 32, dtype=np.float32)
        gates, last = params.scaled(), params.scaled()
        for steps, batch in self.CALLS:
            zeros = np.zeros((batch, 32), dtype=np.float32)
            forward_steps(rng.uniform(-1, 1, (steps, batch, 32)), zeros,
                          zeros, gates)
        forward_steps(np.zeros((steps, batch, 32), dtype=np.float32), zeros,
                      zeros, last)
        assert held_bytes(gates) == held_bytes(last) > held_bytes(
            params.scaled())


class TestSequenceBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = Rng(12)
        params = make_params(rng, 3, 4)
        trace = unroll(rng.uniform(-1, 1, (6, 3), dtype=np.float64), params)
        grads, d_inputs = backward_steps(trace, np.zeros_like(trace.S))
        assert len(grads) == len(params.param_list())
        for g, p in zip(grads, params.param_list()):
            assert g.shape == p.shape and g.flags.c_contiguous
            assert np.array_equal(g, np.zeros_like(g))
        assert np.array_equal(d_inputs, np.zeros((6, 1, 3)))

    def test_gradient_mismatch_rejected(self):
        rng = Rng(12)
        params = make_params(rng, 3, 4)
        trace = unroll(np.zeros((6, 3)), params)
        with pytest.raises(UsageError):
            backward_steps(trace, np.zeros((5, 1, 4)))
        with pytest.raises(UsageError):
            backward_steps(trace, np.zeros((6, 1, 3)))

    @pytest.mark.parametrize("zero_bias", [True, False],
                             ids=["zerobias", "bias"])
    def test_bptt_matches_finite_differences(self, zero_bias):
        rng = Rng(77)
        params = make_params(rng, 3, 4, zero_bias)
        xs = rng.uniform(-1, 1, (6, 3), dtype=np.float64)

        def loss_and_grads():
            trace = unroll(xs, params)
            grads, _ = backward_steps(trace, upstream(trace, True))
            return float(trace.S[-1].sum()), grads

        err = gradient_check(loss_and_grads, params.param_list(), 1e-4)
        assert err < 1e-4

    def test_input_gradients_match_finite_differences(self):
        rng = Rng(78)
        params = make_params(rng, 3, 4)
        xs = rng.uniform(-1, 1, (5, 3), dtype=np.float64)

        def loss_and_grads():
            trace = unroll(xs, params)
            _, d_inputs = backward_steps(trace, upstream(trace, True))
            return float(trace.S[-1].sum()), [d_inputs[:, 0]]

        err = gradient_check(loss_and_grads, [xs], 1e-4)
        assert err < 1e-4

    def test_two_layer_stack_matches_finite_differences(self):
        rng = Rng(99)
        layer1 = make_params(rng, 3, 4)
        layer2 = make_params(rng, 4, 4)
        xs = rng.uniform(-1, 1, (6, 1, 3), dtype=np.float64)

        def loss_and_grads():
            traces = forward_stack(xs, [layer1, layer2])
            grads, _ = backward_stack(traces, upstream(traces[1], True))
            return float(traces[1].S[-1].sum()), grads[0] + grads[1]

        params = layer1.param_list() + layer2.param_list()
        assert gradient_check(loss_and_grads, params, 1e-4) < 1e-4

    @pytest.mark.parametrize("batch,width,hidden,steps", CASES)
    @pytest.mark.parametrize("bias", BIASES, ids=BIAS_IDS)
    def test_backward_matches_float64_step_loop(self, batch, width, hidden,
                                                steps, bias):
        params, xs, s0, c0 = float32_case(batch, width, hidden, steps, bias)
        trace = forward_steps(xs, s0, c0, params)
        # masked LM/SCD gradients: a whole step, one row's padded tail and
        # single lanes are zero
        d_states = Rng(batch + width).uniform(-1, 1, trace.S.shape)
        d_states[steps // 2] = 0.0
        d_states[steps // 2 + 1:, batch // 2] = 0.0
        d_states[-1, :, : hidden // 2] = -0.0
        grads, d_xs = backward_steps(trace, d_states)
        want_grads, want_d_xs = step_loop_backward(
            float64_trace(params, xs, s0, c0), d_states.astype(np.float64))
        for got, want in zip(grads + [d_xs], want_grads + [want_d_xs],
                             strict=True):
            assert got.dtype == np.float32
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= TOL * np.abs(want).max()

    # the K prelude and the in-place recurrence against fresh arrays per
    # step, at the widths of the forward's bit-for-bit test, with the zero
    # and -0.0 upstream patterns above; the float64 comparison cannot see
    # a reordered product, this one can
    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("zero_bias", [True, False],
                             ids=["zerobias", "bias"])
    def test_backward_matches_step_loop_bit_for_bit(self, batch, zero_bias):
        rng = Rng(60 + batch)
        steps = 9
        for width, hidden in ((64, 24), (4, 4), (64, 64), (200, 200)):
            params = make_params(rng, width, hidden, zero_bias, np.float32)
            if not zero_bias:
                params.b[:] = rng.uniform(-1, 1, params.b.shape)
            xs = rng.uniform(-1, 1, (steps, batch, width))
            s0 = rng.uniform(-0.9, 0.9, (batch, hidden))
            c0 = rng.uniform(-1.5, 1.5, (batch, hidden))
            trace = forward_steps(xs, s0, c0, params)
            d_states = rng.uniform(-1, 1, trace.S.shape)
            d_states[steps // 2] = 0.0
            d_states[steps // 2 + 1:, batch // 2] = 0.0
            d_states[-1, :, : hidden // 2] = -0.0
            grads, d_xs = backward_steps(trace, d_states)
            want_grads, want_d_xs = tanh_gate_step_loop_backward(trace,
                                                                 d_states)
            for got, want in zip(grads + [d_xs], want_grads + [want_d_xs],
                                 strict=True):
                assert got.dtype == np.float32
                assert got.tobytes() == want.tobytes(), (width, got.shape)

    def test_forward_backward_leave_params_unmodified(self):
        rng = Rng(13)
        params = make_params(rng, 3, 4)
        before = [p.copy() for p in params.param_list()]
        trace = unroll(rng.uniform(-1, 1, (5, 3), dtype=np.float64), params)
        backward_steps(trace, upstream(trace))
        for old, new in zip(before, params.param_list()):
            assert np.array_equal(old, new)
