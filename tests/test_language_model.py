import math
import tracemalloc
import weakref

import numpy as np
import pytest

from chatscreen import language_model
from chatscreen.config import PipelineConfig
from chatscreen.core_math import Rng, gradient_check
from chatscreen.errors import NumericError, UsageError
from chatscreen.language_model import (BLOCK_ROWS, LanguageModel,
                                       _window_grads, _windows, perplexity,
                                       sentence_vector, train_lm,
                                       training_loss_and_grads)
from chatscreen.preprocessing import (RESERVED_TOKENS, Vocabulary,
                                      build_vocabulary)

from oracles import (log_softmax_perplexity, masked_head_window_grads,
                     out_of_place_head_window_grads, scalar_lm_steps)


def make_vocab(n_words):
    return Vocabulary(list(RESERVED_TOKENS)
                      + [f"w{i}" for i in range(n_words)],
                      min_term_frequency=1)


def tiny_model(vocab, d=6, h=8, window=5, seed=11, dtype=np.float32):
    model = LanguageModel.create(vocab, d, h, window, Rng(seed))
    return model.astype(dtype) if dtype != np.float32 else model


def valid_rows_per_window(model, docs):
    """The valid row count of each window perplexity scores for docs."""
    docs = sorted((d for d in docs if len(d) >= 2), key=len)
    return [int(mask.sum()) for _, _, _, mask, _ in _windows(model, docs, 32)]


def oracle_perplexity(model, doc):
    steps = scalar_lm_steps(model, doc[:-1])
    nll = -sum(math.log(probs[target])
               for (_, probs), target in zip(steps, doc[1:]))
    return math.exp(nll / (len(doc) - 1))


class TestLmForward:
    def test_zero_output_weights_give_uniform(self):
        # uniform at every position, across window boundaries too
        vocab = make_vocab(4)
        model = tiny_model(vocab, window=5)
        model.out_w[:] = 0
        model.out_b[:] = 0
        ppl = perplexity(model, [[3, 6, 7, 8, 9, 6, 7, 8, 9, 3, 4, 5]])
        assert abs(ppl - len(vocab)) < 1e-6

    def test_diverged_weights_are_numeric_error(self):
        # logits of +-inf: the perplexity used to come back as inf
        model = tiny_model(make_vocab(4))
        model.out_w[:] = 3e38
        model.out_w[:, ::2] = -3e38
        with pytest.raises(NumericError, match="perplexity"):
            perplexity(model, [[3, 6, 7, 8, 9]])

    def test_single_token_one_distribution(self):
        model = tiny_model(make_vocab(4), seed=23, dtype=np.float64)
        _, probs = scalar_lm_steps(model, [3])[0]
        assert abs(perplexity(model, [[3, 8]]) - 1.0 / probs[8]) < 1e-10

    def test_distributions_sum_to_one(self):
        # a one-prediction document scores 1 / p(next); summed over every
        # possible next token the probabilities make one
        vocab = make_vocab(10)
        model = tiny_model(vocab)
        total = sum(1.0 / perplexity(model, [[3, v]])
                    for v in range(len(vocab)))
        assert abs(total - 1.0) < 1e-5

    def test_matches_scalar_unroll_oracle(self):
        vocab = make_vocab(2)  # 2 content words on top of the reserved six
        model = tiny_model(vocab, d=3, h=2, window=3, seed=5,
                           dtype=np.float64)
        doc = [6, 7, 6, 6, 7, 7, 6]
        # three windows with the state carried across them; the oracle
        # runs the whole document at once
        assert abs(perplexity(model, [doc])
                   - oracle_perplexity(model, doc)) < 1e-10
        s2, _ = scalar_lm_steps(model, [6, 7, Vocabulary.EOS])[-1]
        assert np.abs(sentence_vector(model, ["w0", "w1"]) - s2).max() < 1e-12

    def test_out_of_range_index_rejected(self):
        model = tiny_model(make_vocab(2))
        with pytest.raises(UsageError):
            perplexity(model, [[3, 99]])
        with pytest.raises(UsageError):
            train_lm([[-1, 3]], model, PipelineConfig(lm_epochs=1), Rng(1))


class TestPerplexity:
    def test_uniform_model_scores_vocab_size(self):
        vocab = make_vocab(94)  # |V| = 100
        model = tiny_model(vocab)
        model.out_w[:] = 0
        model.out_b[:] = 0
        ppl = perplexity(model, [[7, 8, 9, 10, 11]])
        assert abs(ppl - 100.0) < 1e-6

    def test_perfect_predictor_scores_one(self):
        vocab = make_vocab(2)
        model = tiny_model(vocab)
        target = vocab.index_of["w0"]
        model.out_w[:] = 0
        model.out_b[:] = 0
        model.out_b[target] = 60.0
        ppl = perplexity(model, [[target, target, target, target]])
        assert abs(ppl - 1.0) < 1e-9

    def test_matches_closed_form(self):
        # a batch of unequal documents: exp of the prediction-weighted mean
        # of each document's own log-perplexity
        model = tiny_model(make_vocab(4), seed=23, dtype=np.float64)
        docs = [[3, 6, 8], [4, 7, 8, 9, 6, 3, 5], [9, 9]]
        log_sum = sum((len(d) - 1) * math.log(oracle_perplexity(model, d))
                      for d in docs)
        want = math.exp(log_sum / sum(len(d) - 1 for d in docs))
        assert abs(perplexity(model, docs) - want) < 1e-10
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_full_log_softmax(self, dtype):
        # 70 documents of 1-30 tokens: three batches, windows whose rows
        # past a short document's end are masked out, and single-token
        # documents that perplexity drops
        rng = Rng(41)
        model = tiny_model(make_vocab(40), seed=41, dtype=dtype)
        model.out_w *= 8.0    # logits far apart, as in a trained model
        docs = [rng.integers(0, 46, int(rng.integers(1, 31))).tolist()
                for _ in range(70)]
        assert perplexity(model, docs) == log_softmax_perplexity(model, docs)
        # 60 documents of 20-40 tokens: windows of up to 160 valid rows,
        # more than one block and ending in a part block, each added up
        # once in row order, not block by block
        docs = [rng.integers(0, 46, int(rng.integers(20, 41))).tolist()
                for _ in range(60)]
        counts = valid_rows_per_window(model, docs)
        assert any(c > BLOCK_ROWS and c % BLOCK_ROWS for c in counts)
        assert perplexity(model, docs) == log_softmax_perplexity(model, docs)

    def test_bit_equal_at_the_acceptance_shape(self):
        # 32 wide, V = 262, 35-step float32 windows of up to 1,120 valid
        # rows: a last block of fewer rows than a full one would run in
        # another BLAS kernel than the whole-window product, and round
        # differently
        rng = Rng(43)
        model = LanguageModel.create(make_vocab(256), 32, 32, 35, Rng(43))
        model.out_w *= 8.0
        docs = [rng.integers(0, 262, int(rng.integers(2, 120))).tolist()
                for _ in range(64)]
        counts = valid_rows_per_window(model, docs)
        assert {c % BLOCK_ROWS for c in counts if c > BLOCK_ROWS} - {0}
        assert perplexity(model, docs) == log_softmax_perplexity(model, docs)

    @pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
        "32 wide with V = 200 in float32, a 128-row block stays under "
        "OpenBLAS's small-matrix size and a whole window does not, so the "
        "two products round differently; the README's LM numerics name "
        "this shape. An XPASS means the BLAS now rounds both alike."))
    def test_bits_move_where_a_block_runs_another_kernel(self):
        rng = Rng(43)
        model = LanguageModel.create(make_vocab(194), 32, 32, 35, Rng(43))
        model.out_w *= 8.0
        docs = [rng.integers(0, 200, int(rng.integers(2, 120))).tolist()
                for _ in range(64)]
        assert perplexity(model, docs) == log_softmax_perplexity(model, docs)

    def test_documents_run_in_the_order_given(self):
        # _windows keeps the caller's order; perplexity sorts its own, so
        # any order of documents with distinct lengths gives the same bits
        model = tiny_model(make_vocab(8), window=12)
        docs = [[3, 4, 5, 6, 7, 8], [9, 10, 3, 4], [5, 6, 7]]
        _, x, _, _, _ = next(_windows(model, docs, len(docs)))
        assert x.reshape(-1, len(docs)).T.tolist() == \
            [[3, 4, 5, 6, 7], [9, 10, 3, 4, 0], [5, 6, 7, 0, 0]]
        rng = np.random.default_rng(5)
        docs = [rng.integers(0, 12, n).tolist()
                for n in rng.permutation(np.arange(2, 82))]
        assert perplexity(model, docs) == perplexity(model, docs[::-1])

    def test_no_predictions_rejected(self):
        model = tiny_model(make_vocab(2))
        with pytest.raises(UsageError):
            perplexity(model, [[3]])

    def test_at_least_one(self):
        model = tiny_model(make_vocab(6), seed=2)
        assert perplexity(model, [[3, 4, 5, 6]]) >= 1.0


class TestTrainLm:
    def test_zero_epochs_leaves_model_unchanged(self):
        model = tiny_model(make_vocab(4))
        before = [p.copy() for p in model.param_list()]
        cfg = PipelineConfig(lm_epochs=0)
        records = train_lm([[3, 4, 5]], model, cfg, Rng(1))
        assert records == []
        for old, new in zip(before, model.param_list()):
            assert np.array_equal(old, new)

    def test_loss_decreases_over_first_epochs(self):
        rng = Rng(40)
        docs = [[6, 7, 8, 9, 6, 7, 8, 9, 6, 7] for _ in range(8)]
        model = tiny_model(make_vocab(8), seed=3)
        cfg = PipelineConfig(lm_epochs=3, lm_lr=0.5, lm_batch_size=4)
        records = train_lm(docs, model, cfg, rng)
        assert records[2].train_ppl < records[0].train_ppl

    def test_cyclic_corpus_memorized(self):
        corpus = [["a", "b", "c", "d", "e"] * 30]
        vocab = build_vocabulary(corpus, min_tf=1)
        doc = [vocab.index_of[t] for t in corpus[0]]
        model = LanguageModel.create(vocab, 8, 8, 35, Rng(5))
        cfg = PipelineConfig(lm_epochs=200, lm_lr=0.5, lm_batch_size=4)
        train_lm([doc], model, cfg, Rng(6))
        assert perplexity(model, [doc]) < 1.05

    def test_log_line_format(self):
        model = tiny_model(make_vocab(4))
        cfg = PipelineConfig(lm_epochs=2, lm_lr=0.1)
        records = train_lm([[3, 4, 5, 6]], model, cfg, Rng(1))
        assert len(records) == 2
        assert records[0].format_line().startswith("epoch=1 train_ppl=")

    def test_empty_corpus_rejected(self):
        model = tiny_model(make_vocab(4))
        with pytest.raises(UsageError):
            train_lm([], model, PipelineConfig(), Rng(1))

    def test_corpus_without_targets_rejected(self):
        # no document has a next token, so no window and no loss exist
        model = tiny_model(make_vocab(4))
        with pytest.raises(UsageError, match="no next-token targets"):
            train_lm([[2], [2]], model, PipelineConfig(lm_epochs=1), Rng(1))

    def test_state_carries_across_windows(self):
        # a document longer than the window still contributes predictions
        # for every position
        model = tiny_model(make_vocab(6), window=4)
        doc = [3, 4, 5, 6, 7, 8, 3, 4, 5]
        cfg = PipelineConfig(lm_epochs=1, lm_lr=0.0)
        records = train_lm([doc], model, cfg, Rng(1))
        # lr 0: logged perplexity equals evaluation perplexity exactly
        assert abs(records[0].train_ppl - perplexity(model, [doc])) < 1e-3


class TestOneWindowAtATime:
    """Each window's forward pass runs after every earlier window's traces
    are freed: a consumer holds one window at a time."""

    @pytest.mark.parametrize("run", [
        lambda model, docs: train_lm(docs, model, PipelineConfig(
            lm_epochs=2, lm_batch_size=2), Rng(1)),
        lambda model, docs: perplexity(model, docs)],
        ids=["train_lm", "perplexity"])
    def test_earlier_traces_freed_before_each_forward(self, monkeypatch, run):
        model = tiny_model(make_vocab(6), window=3)
        docs = [[3, 4, 5, 6, 7, 8, 3, 4, 5, 6], [4, 5, 6],
                [7, 8, 3, 4, 5, 6, 7, 8]]
        forward = language_model.forward_stack
        refs, alive = [], []

        def spy(*args, **kwargs):
            alive.append(sum(r() is not None for r in refs))
            traces = forward(*args, **kwargs)
            refs.extend(weakref.ref(a) for t in traces
                        for a in (t, t.S, t.C, t.Z, t.TC))
            return traces

        monkeypatch.setattr(language_model, "forward_stack", spy)
        run(model, docs)
        assert len(alive) >= 3
        assert alive == [0] * len(alive)


class TestGradientFidelity:
    def test_tiny_lm_gradient_check(self):
        vocab = make_vocab(14)  # |V| = 20
        model = tiny_model(vocab, d=6, h=8, window=5, dtype=np.float64)
        docs = [[3, 7, 9, 2, 13, 5], [6, 6, 10]]

        def loss_and_grads():
            return training_loss_and_grads(model, docs)

        err = gradient_check(loss_and_grads, model.param_list(), 1e-3)
        assert err < 1e-4

    def test_document_longer_than_window_rejected(self):
        model = tiny_model(make_vocab(4), window=3, dtype=np.float64)
        with pytest.raises(UsageError):
            training_loss_and_grads(model, [[3, 4, 5, 6, 7]])


# (documents, window, (targets, rows) per window): a lane that ends
# mid-window and has no rows in the next; a last window whose one valid
# row makes one-row products; a window without padding
HEAD_CASES = [
    ([[3, 4, 5, 6, 7, 8, 9, 3], [5, 6, 7], [8, 9, 3, 4]], 5,
     [(10, 15), (2, 6)]),
    ([[3, 4, 5, 6, 7, 8, 9, 3], [5, 6]], 6, [(7, 12), (1, 2)]),
    ([[3, 4, 5, 6, 7, 8], [6, 5, 4, 3, 8, 9]], 5, [(10, 10)]),
]


class TestPackedHead:
    @pytest.mark.parametrize("docs,window,shape", HEAD_CASES)
    def test_window_grads_match_all_rows_head(self, docs, window, shape):
        model = tiny_model(make_vocab(8), window=window, dtype=np.float64)
        seen = []
        for _, x, y, mask, traces in _windows(model, docs, len(docs)):
            nll, count, grads = _window_grads(model, x, y, mask, traces)
            want_nll, want_count, want = masked_head_window_grads(
                model, x, y, mask, traces)
            assert count == want_count
            assert abs(nll - want_nll) < 1e-10
            assert len(grads) == len(want) == 9
            for got, ref in zip(grads, want):
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) < 1e-10
            seen.append((count, len(mask)))
        assert seen == shape

    @pytest.mark.parametrize("docs,window", [c[:2] for c in HEAD_CASES])
    def test_perplexity_matches_all_rows_head(self, docs, window):
        model = tiny_model(make_vocab(8), window=window, dtype=np.float64)
        nll, count = 0.0, 0
        for _, x, y, mask, traces in _windows(model, docs, 32):
            window_nll, window_count, _ = masked_head_window_grads(
                model, x, y, mask, traces)
            nll += window_nll
            count += window_count
        assert abs(perplexity(model, docs) - math.exp(nll / count)) < 1e-10


class TestInPlaceHead:
    @pytest.mark.parametrize("width", [32, 200])
    @pytest.mark.parametrize("n_words", [256, 257])    # V = 262 and 263
    def test_window_grads_equal_out_of_place_head(self, width, n_words):
        # 16 documents of 2-80 tokens in 35-step windows: rows past the
        # shorter documents' ends are masked out
        rng = Rng(width + n_words)
        model = LanguageModel.create(make_vocab(n_words), width, width, 35,
                                     rng)
        docs = [rng.integers(0, n_words + 6, int(rng.integers(2, 81))).tolist()
                for _ in range(16)]
        masked = 0
        for _, x, y, mask, traces in _windows(model, docs, 16):
            nll, count, grads = _window_grads(model, x, y, mask, traces)
            want_nll, want_count, want = out_of_place_head_window_grads(
                model, x, y, mask, traces)
            assert (nll, count) == (want_nll, want_count)
            assert len(grads) == len(want) == 9
            for got, ref in zip(grads, want):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()
            masked += count < len(mask)
        assert masked


def traced_peak(fn, *args) -> int:
    """Peak traced bytes (numpy's buffers included) of one call of fn."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHeadMemory:
    """The LM head at V = 2,000 and 8 wide, over 32 documents of 71 tokens:
    two 35-step windows of 1,120 valid rows each, so one (rows, V) float32
    array takes 8.96 MB, against 0.5 MB for the LSTM traces and weights."""

    V, ROWS = 2000, 32 * 35

    def model_and_docs(self):
        model = LanguageModel.create(make_vocab(self.V - 6), 8, 8, 35, Rng(7))
        rng = Rng(8)
        return model, [rng.integers(0, self.V, 71).tolist()
                       for _ in range(32)]

    def test_perplexity_holds_one_block(self):
        model, docs = self.model_and_docs()
        assert valid_rows_per_window(model, docs) == [self.ROWS] * 2
        # one block's float32 logits and float64 copy (3.1 MB), and half
        # as much again for the rest; two blocks live at once exceed it,
        # and a window's pair, scored whole, takes 26.9 MB
        bound = 3 * BLOCK_ROWS * self.V * (4 + 8) // 2
        assert self.ROWS * self.V * (4 + 8) > bound
        assert traced_peak(perplexity, model, docs) < bound

    def test_window_grads_hold_at_most_two_logit_arrays(self):
        model, docs = self.model_and_docs()
        _, x, y, mask, traces = next(_windows(model, docs, 32))
        assert mask.all() and len(mask) == self.ROWS
        bound = 2 * self.ROWS * self.V * 4
        assert traced_peak(_window_grads, model, x, y, mask, traces) <= bound


class TestSentenceVector:
    def test_identical_sentences_bit_equal(self):
        model = tiny_model(make_vocab(6))
        a = sentence_vector(model, ["w0", "w1", "w2"])
        b = sentence_vector(model, ["w0", "w1", "w2"])
        assert np.array_equal(a, b)
        # one read_only model, whose layers reuse their step buffers, over
        # messages A, B (longer), A, C (shorter) and D (as long as B)
        # against a fresh read_only model per message; D overwrites every
        # step B ran in, so a vector still read from the buffers would change
        reader = model.read_only()
        messages = [["w0", "w1"], ["w3", "w1", "w0", "w2"], ["w0", "w1"], [],
                    ["w2", "w2", "w4", "w5"]]
        got = [sentence_vector(reader, m) for m in messages]
        assert got[0].tobytes() == got[2].tobytes()
        for m, vector in zip(messages, got):
            assert vector.tobytes() == sentence_vector(model.read_only(),
                                                       m).tobytes()

    def test_unseen_words_map_to_unk(self):
        model = tiny_model(make_vocab(6))
        vec = sentence_vector(model, ["never", "seen", "before"])
        assert vec.shape == (8,)
        assert np.isfinite(vec).all()
        unk_vec = sentence_vector(model, ["also", "novel", "words"])
        assert np.array_equal(vec, unk_vec)

    def test_empty_text_yields_eos_vector(self):
        model = tiny_model(make_vocab(6), dtype=np.float64)
        s2, _ = scalar_lm_steps(model, [Vocabulary.EOS])[0]
        assert np.abs(sentence_vector(model, []) - s2).max() < 1e-12

    def test_matches_forward_final_state(self):
        model = tiny_model(make_vocab(6), dtype=np.float64)
        tokens = ["w0", "w3", "w1"]
        ids = [model.vocab.index_of[t] for t in tokens] + [Vocabulary.EOS]
        s2, _ = scalar_lm_steps(model, ids)[-1]
        assert np.abs(sentence_vector(model, tokens) - s2).max() < 1e-12

    def test_prefix_differs_from_full_sentence(self):
        rng = Rng(55)
        model = tiny_model(make_vocab(20), window=20, seed=9)
        words = [f"w{i}" for i in range(20)]
        for _ in range(10):
            n = 3 + int(rng.integers(0, 5))
            sentence = [words[int(rng.integers(0, 20))] for _ in range(n)]
            full = sentence_vector(model, sentence)
            prefix = sentence_vector(model, sentence[:-1])
            assert not np.array_equal(full, prefix)

    def test_truncated_to_window(self):
        # 40 tokens plus EOS keep only the first 5 ids: EOS is cut too
        model = tiny_model(make_vocab(6), window=5)
        assert np.array_equal(sentence_vector(model, ["w0"] * 40),
                              sentence_vector(model, ["w0"] * 5))
        assert not np.array_equal(sentence_vector(model, ["w0"] * 40),
                                  sentence_vector(model, ["w0"] * 4))
