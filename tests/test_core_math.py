import math

import numpy as np
import pytest

from chatscreen.core_math import (CLIP_NORM, AdamOptimizer, Rng,
                                  SgdOptimizer, gradient_check,
                                  make_optimizer, row_softmax, sigmoid)
from chatscreen.errors import NumericError, UsageError
from chatscreen.language_model import LanguageModel, perplexity
from chatscreen.preprocessing import RESERVED_TOKENS, Vocabulary

from oracles import masked_sigmoid, scalar_softmax


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_saturates_without_overflow(self):
        value = sigmoid(np.array([50.0]))[0]
        assert abs(value - 1.0) < 1e-15
        assert sigmoid(np.array([-745.0]))[0] >= 0.0  # no overflow warning

    def test_scalar_oracle(self):
        assert abs(sigmoid(np.array([1.0]))[0]
                   - 0.7310585786300049) < 1e-15

    def test_monotone_on_grid(self):
        grid = sigmoid(np.linspace(-6, 6, 101))
        assert np.all(np.diff(grid) > 0)

    def test_complement_identity(self):
        xs = np.linspace(-20, 20, 41)
        total = sigmoid(xs) + sigmoid(-xs)
        assert np.abs(total - 1.0).max() < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_equal_masked_branches(self, dtype):
        # the one-pass exp(-|x|) form makes the same exp call and division
        # per element as the two masked branches, so the bits agree
        rng = Rng(17)
        h = 32
        edges = np.array([0.0, -0.0, np.inf, -np.inf, 88.7, -88.7, 745.0,
                          -745.0], dtype=dtype)
        cases = [edges]
        for scale in (1.0, 12.0, 100.0):
            gates = rng.uniform(-scale, scale, (16, 4 * h), dtype=dtype)
            cases += [gates, gates[:, :3 * h], gates[::2, h:]]
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for x in cases:
                got = sigmoid(x)
                want = masked_sigmoid(x)
                assert got.dtype == want.dtype == dtype
                assert got.shape == x.shape
                assert got.tobytes() == want.tobytes()
            # only the sign bit of a NaN output may differ
            assert np.isnan(sigmoid(np.array([np.nan], dtype=dtype)))[0]


class TestSoftmax:
    """row_softmax on float64 rows, the form the author scorer uses."""

    def test_uniform(self):
        out = row_softmax(np.zeros((1, 3)))
        assert out.dtype == np.float64
        assert np.allclose(out, [[1 / 3] * 3])

    def test_analytically_forced(self):
        out = row_softmax(np.array([[math.log(2), 0.0]]))
        assert np.abs(out - [[2 / 3, 1 / 3]]).max() < 1e-12

    def test_large_input_stable(self):
        out = row_softmax(np.array([[1000.0, 0.0], [0.0, 1000.0]]))
        assert np.isfinite(out).all()
        assert abs(out[0, 0] - 1.0) < 1e-12 and out[0, 1] < 1e-300
        assert abs(out[1, 1] - 1.0) < 1e-12 and out[1, 0] < 1e-300

    def test_sums_to_one(self):
        rows = Rng(5).uniform(-30, 30, (20, 7), dtype=np.float64)
        assert np.abs(row_softmax(rows).sum(axis=1) - 1.0).max() < 1e-9

    def test_shift_invariance(self):
        v = np.array([[0.3, -1.2, 2.0, 0.0]])
        shifted = row_softmax(v + 11.5)
        assert np.abs(row_softmax(v) - shifted).max() < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_equals_out_of_place_form(self, dtype):
        # the softmax is written over its argument, with the bits of the
        # textbook form that allocates a shifted copy, its exp and a quotient
        x = Rng(6).uniform(-30, 30, (17, 263), dtype=np.float64).astype(dtype)
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        out = row_softmax(x)
        assert out is x
        assert out.tobytes() == want.tobytes()


def bias_only_lm(out_b):
    """A language model whose logits are out_b at every step (out_w = 0),
    one vocabulary entry per logit."""
    words = [f"w{i}" for i in range(len(out_b) - len(RESERVED_TOKENS))]
    vocab = Vocabulary(list(RESERVED_TOKENS) + words, min_term_frequency=1)
    model = LanguageModel.create(vocab, 3, 4, 5, Rng(1))
    model.out_w[:] = 0
    model.out_b[:] = out_b
    return model


class TestCrossEntropy:
    """The float64 next-token cross-entropy that perplexity averages, seen
    through log(perplexity) of a model whose logits are fixed."""

    def test_uniform_eight_classes(self):
        ppl = perplexity(bias_only_lm(np.zeros(8)), [[6, 7, 3, 6, 7, 6]])
        assert abs(math.log(ppl) - 2.0794415416798357) < 1e-12

    def test_certain_prediction(self):
        out_b = np.zeros(8)
        out_b[7] = 1000.0
        assert perplexity(bias_only_lm(out_b), [[7, 7, 7], [6, 7]]) == 1.0

    def test_scalar_oracle(self):
        logits = np.array([0.3, -1.2, 2.0, 0.0, -0.5, 1.1, 0.7, -2.4],
                          dtype=np.float32)
        doc = [6, 0, 2, 5, 7, 1, 3, 4]
        costs = [-math.log(scalar_softmax([float(v) for v in logits])[t])
                 for t in doc[1:]]
        ppl = perplexity(bias_only_lm(logits), [doc])
        assert abs(math.log(ppl) - sum(costs) / len(costs)) < 1e-12

    def test_out_of_range_index(self):
        # numpy would wrap -1 to the last class; perplexity must refuse it
        vocab = Vocabulary(list(RESERVED_TOKENS) + ["w0", "w1"],
                           min_term_frequency=1)
        model = LanguageModel.create(vocab, 3, 4, 5, Rng(1))
        with pytest.raises(UsageError):
            perplexity(model, [[3, len(vocab)]])
        with pytest.raises(UsageError):
            perplexity(model, [[3, -1]])

    def test_zero_probability_clamped(self):
        # a target the model rules out still costs a finite loss: 1e4 +
        # ln 7 here, among 99 targets that cost ln 7 each (exp of the one
        # cost alone would overflow the perplexity)
        out_b = np.zeros(8)
        out_b[7] = -1e4
        ppl = perplexity(bias_only_lm(out_b), [[6] * 100 + [7]])
        assert math.isfinite(ppl)
        loss = 100 * (math.log(ppl) - math.log(7.0))
        assert abs(loss - 1e4) < 1e-8


class TestSgdStep:
    def test_zero_lr_no_change(self):
        p = np.array([1.0, 2.0])
        SgdOptimizer(lr=0.0).step([p], [np.array([5.0, 5.0])])
        assert np.array_equal(p, [1.0, 2.0])

    def test_basic_step(self):
        p = np.array([1.0])
        SgdOptimizer(lr=0.5).step([p], [np.array([2.0])])
        assert np.array_equal(p, [0.0])

    # Three steps whose gradient direction changes each time, each split
    # over two parameters so only their global norm is CLIP_NORM. A single
    # Adam step barely depends on the gradient's scale, so the clip shows
    # in Adam only over steps whose norms differ.
    STEPS_AT_BOUND = [(np.array([3.0]), np.array([4.0, 0.0])),
                      (np.array([-4.0]), np.array([0.0, 3.0])),
                      (np.array([0.0]), np.array([3.0, -4.0]))]

    @staticmethod
    def _run(name, steps):
        params = [np.array([1.0]), np.array([-1.0, 2.0])]
        opt = make_optimizer(name, 0.1)
        for grads in steps:
            opt.step(params, grads)
        return params

    def test_global_norm_clip_scales_gradient(self):
        assert CLIP_NORM == 5.0  # the global norm of each STEPS_AT_BOUND
        # global norms 20, 10 and 40 clip to exactly the norm-5 steps
        over = [[g * f for g in grads]
                for grads, f in zip(self.STEPS_AT_BOUND, (4.0, 2.0, 8.0))]
        for name in ("sgd", "adam"):
            clipped = self._run(name, over)
            at_bound = self._run(name, self.STEPS_AT_BOUND)
            assert all(np.array_equal(a, b)
                       for a, b in zip(clipped, at_bound)), name

    def test_clip_inactive_below_threshold(self):
        # global norms 4, 1 and 2 pass unscaled: the parameters follow
        # plain SGD and Adam (Kingma & Ba 2015) on the raw gradients
        under = [[g * f for g in grads]
                 for grads, f in zip(self.STEPS_AT_BOUND, (0.8, 0.2, 0.4))]
        for name in ("sgd", "adam"):
            p = np.array([1.0, -1.0, 2.0])
            m = v = np.zeros(3)
            for t, grads in enumerate(under, start=1):
                g = np.concatenate(grads)
                if name == "sgd":
                    p = p - 0.1 * g
                    continue
                m = 0.9 * m + 0.1 * g
                v = 0.999 * v + 0.001 * g * g
                p = p - 0.1 * (m / (1 - 0.9 ** t)) / (
                    np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            got = np.concatenate(self._run(name, under))
            np.testing.assert_allclose(got, p, rtol=1e-12, err_msg=name)

    def test_shape_mismatch(self):
        opt = SgdOptimizer(lr=0.1)
        with pytest.raises(UsageError, match="optimizer: param shape"):
            opt.step([np.zeros(2)], [np.zeros(3)])
        with pytest.raises(UsageError, match="optimizer: 1 params vs 0"):
            opt.step([np.zeros(2)], [])

    @pytest.mark.parametrize("name", ["sgd", "adam"])
    def test_shape_mismatch_changes_nothing(self, name):
        # the second gradient is misshapen: the first parameter and Adam's
        # moments must not move before the error
        params = [np.array([1.0, -2.0]), np.array([0.5, 0.5, 0.5])]
        opt = make_optimizer(name, 0.1)
        opt.step(params, [np.ones(2), np.ones(3)])

        def state():
            arrays = params + getattr(opt, "_m", []) + getattr(opt, "_v", [])
            return [a.copy() for a in arrays], getattr(opt, "_t", None)

        arrays, t = state()
        with pytest.raises(UsageError, match="optimizer: param shape"):
            opt.step(params, [np.ones(2), np.ones(4)])
        arrays_after, t_after = state()
        assert t_after == t
        assert len(arrays_after) == (6 if name == "adam" else 2)
        assert all(np.array_equal(x, y) for x, y in zip(arrays_after, arrays))


class TestAdam:
    def test_deterministic(self):
        def run():
            p = np.array([1.0, -2.0], dtype=np.float32)
            opt = AdamOptimizer(lr=0.1)
            for _ in range(5):
                opt.step([p], [2 * p])
            return p

        assert np.array_equal(run(), run())

    def test_descends_quadratic(self):
        p = np.array([3.0], dtype=np.float64)
        opt = AdamOptimizer(lr=0.2)
        for _ in range(100):
            opt.step([p], [2 * p])
        assert abs(p[0]) < 0.5

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(UsageError):
            make_optimizer("adagrad", 0.1)


class TestGradientCheck:
    def test_quadratic_loss(self):
        p = Rng(9).uniform(-1, 1, (4, 3), dtype=np.float64)

        def loss_and_grads():
            return 0.5 * float(np.sum(p * p)), [p.copy()]

        assert gradient_check(loss_and_grads, [p], 1e-4) < 1e-8

    def test_detects_corrupted_gradient(self):
        p = Rng(9).uniform(0.5, 1.5, (3,), dtype=np.float64)

        def loss_and_grads():
            return 0.5 * float(np.sum(p * p)), [2.0 * p]

        err = gradient_check(loss_and_grads, [p], 1e-4)
        assert 0.4 < err < 0.6

    def test_epsilon_range_enforced(self):
        p = np.zeros(2, dtype=np.float64)
        fn = lambda: (0.0, [np.zeros(2)])
        with pytest.raises(UsageError):
            gradient_check(fn, [p], 1e-7)
        with pytest.raises(UsageError):
            gradient_check(fn, [p], 1e-2)

    def test_float32_rejected(self):
        p = np.zeros(2, dtype=np.float32)
        with pytest.raises(UsageError):
            gradient_check(lambda: (0.0, [np.zeros(2)]), [p], 1e-4)

    def test_non_finite_loss(self):
        p = np.ones(1, dtype=np.float64)
        with pytest.raises(NumericError):
            gradient_check(lambda: (float("nan"), [np.zeros(1)]), [p], 1e-4)


class TestRng:
    def test_same_seed_same_sequence(self):
        a = Rng(123).uniform(-1, 1, (10,), dtype=np.float64)
        b = Rng(123).uniform(-1, 1, (10,), dtype=np.float64)
        assert np.array_equal(a, b)

    def test_derived_streams_differ_by_name(self):
        base = Rng(7)
        a = base.derive("lm").uniform(0, 1, (5,), dtype=np.float64)
        b = base.derive("scd").uniform(0, 1, (5,), dtype=np.float64)
        assert not np.array_equal(a, b)

    def test_derivation_is_stable(self):
        assert Rng(7).derive("stage").seed == Rng(7).derive("stage").seed
