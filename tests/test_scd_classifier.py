from dataclasses import replace

import numpy as np
import pytest

from chatscreen import scd_classifier
from chatscreen.config import PipelineConfig
from chatscreen.core_math import (LOG_EPS, Rng, gradient_check,
                                  make_optimizer, sigmoid)
from chatscreen.corpus_io import Conversation, Message
from chatscreen.errors import UsageError
from chatscreen.language_model import LanguageModel, sentence_vector
from chatscreen.lstm import forward_stack
from chatscreen.preprocessing import RESERVED_TOKENS, Vocabulary, tokenize
from chatscreen.scd_classifier import (ConversationSequence, ScdModel,
                                       chunk_and_pad, predict_scd, train_scd,
                                       training_loss_and_grads,
                                       vectorize_conversation)


def make_sequence(n, dim=4, seed=1, label=None):
    matrix = Rng(seed).uniform(-1, 1, (n, dim), dtype=np.float32)
    return ConversationSequence("conv", matrix, label)


def make_chunks(rng, n_pos, n_neg, dim=8, length=6):
    """Separable fixture: positive chunks carry a fixed vector pattern."""
    pattern = np.full(dim, 0.8, dtype=np.float32)
    chunks = []
    for i in range(n_pos + n_neg):
        positive = i < n_pos
        rows = 2 + int(rng.integers(0, length - 2))
        noise = rng.uniform(-0.3, 0.3, (rows, dim), dtype=np.float32)
        chunks.append(ConversationSequence(
            f"c{i}", noise + (pattern if positive else 0.0), positive))
    return chunks


class TestChunkAndPad:
    def test_short_sequence_single_padded_chunk(self):
        seq = make_sequence(5)
        chunks = chunk_and_pad(seq, chunk_len=100)
        assert len(chunks) == 1
        # the zero rows are not stored: they are made when chunks stack
        assert chunks[0].matrix.shape == (5, 4)

    def test_chunks_are_views_of_the_sequence(self):
        seq = make_sequence(237, seed=9)
        for c in chunk_and_pad(seq, chunk_len=100):
            assert np.shares_memory(c.matrix, seq.matrix)
            assert len(c.matrix) <= 100

    def test_exact_boundary_no_padding(self):
        chunks = chunk_and_pad(make_sequence(100), chunk_len=100)
        assert len(chunks) == 1
        assert len(chunks[0].matrix) == 100

    def test_three_way_split(self):
        chunks = chunk_and_pad(make_sequence(250), chunk_len=100)
        assert [len(c.matrix) for c in chunks] == [100, 100, 50]
        assert [c.conversation_id for c in chunks] == ["conv"] * 3

    @pytest.mark.parametrize("n,parts", [(1, 1), (99, 1), (100, 1), (101, 2),
                                         (250, 3), (501, 6)])
    def test_part_counts(self, n, parts):
        chunks = chunk_and_pad(make_sequence(n), chunk_len=100)
        assert len(chunks) == parts

    def test_labels_inherited(self):
        chunks = chunk_and_pad(make_sequence(150, label=True), chunk_len=100)
        assert all(c.label for c in chunks)

    def test_concatenated_valid_rows_reconstruct_sequence(self):
        seq = make_sequence(237, seed=9)
        chunks = chunk_and_pad(seq, chunk_len=100)
        rebuilt = np.concatenate([c.matrix for c in chunks])
        assert np.array_equal(rebuilt, seq.matrix)


def tiny_lm(seed=4):
    vocab = Vocabulary(list(RESERVED_TOKENS) + ["hi", "there", "friend"],
                       min_term_frequency=1)
    return LanguageModel.create(vocab, 4, 4, 10, Rng(seed))


def make_conv(texts):
    msgs = [Message("a", i + 1, "00:00", t) for i, t in enumerate(texts)]
    return Conversation("conv-1", msgs)


class TestVectorizeConversation:
    def test_one_vector_per_message(self):
        lm = tiny_lm()
        matrix = vectorize_conversation(
            make_conv(["hi there", "friend", "hi"]), lm, {})
        assert matrix.shape == (3, 4)

    def test_identical_messages_identical_vectors(self):
        lm = tiny_lm()
        matrix = vectorize_conversation(make_conv(["hi there", "hi there"]),
                                        lm, {})
        assert np.array_equal(matrix[0], matrix[1])

    def test_matches_per_message_oracle(self):
        lm = tiny_lm()
        conv = make_conv(["hi there friend", "there hi"])
        matrix = vectorize_conversation(conv, lm, {})
        for message, vec in zip(conv.messages, matrix):
            solo = sentence_vector(lm, tokenize(message.text))
            assert np.array_equal(vec, solo)


class TestPredict:
    def test_zero_head_gives_half(self):
        model = ScdModel.create(Rng(3), input_dim=4, hidden_dim=4)
        model.head_w[:] = 0
        model.head_b[:] = 0
        seq = make_sequence(5)
        chunks = chunk_and_pad(seq, chunk_len=10)
        probs = scd_classifier._chunk_probabilities(model, chunks)
        assert all(abs(p - 0.5) < 1e-9 for p in probs)
        assert abs(predict_scd(model, [seq], 10)[0] - 0.5) < 1e-9

    def test_max_rule_and_threshold(self):
        model = ScdModel.create(Rng(3), input_dim=4, hidden_dim=4)
        seq = make_sequence(25, seed=12)
        chunks = chunk_and_pad(seq, chunk_len=10)
        [max_prob] = predict_scd(model, [seq], 10)
        assert max_prob == max(
            scd_classifier._chunk_probabilities(model, chunks))
        # eval-scd's rule: positive iff the maximum reaches the threshold
        assert max_prob >= float(max_prob)
        assert not max_prob >= min(float(max_prob) + 1e-6, 1.0)

    def test_verdict_monotone_in_threshold(self):
        model = ScdModel.create(Rng(3), input_dim=4, hidden_dim=4)
        seqs = [make_sequence(12, seed=8), make_sequence(3, seed=9)]
        max_probs = predict_scd(model, seqs, 5)
        verdicts = [max_probs >= t for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        # once negative, raising the threshold keeps it negative
        for earlier, later in zip(verdicts, verdicts[1:]):
            assert (earlier | ~later).all()

    def test_probabilities_strictly_inside_unit_interval(self):
        model = ScdModel.create(Rng(3), input_dim=4, hidden_dim=4)
        chunks = chunk_and_pad(make_sequence(40, seed=5), chunk_len=10)
        probs = scd_classifier._chunk_probabilities(model, chunks)
        assert all(0.0 < p < 1.0 for p in probs)

    def test_masked_padding_does_not_change_verdict(self):
        # same sequence evaluated padded to 100 and at its true length
        model = ScdModel.create(Rng(3), input_dim=4, hidden_dim=4)
        seq = make_sequence(7, seed=31)
        padded = chunk_and_pad(seq, chunk_len=100)
        exact = chunk_and_pad(seq, chunk_len=7)
        assert np.array_equal(
            scd_classifier._chunk_probabilities(model, padded),
            scd_classifier._chunk_probabilities(model, exact))
        assert np.array_equal(predict_scd(model, [seq], 100),
                              predict_scd(model, [seq], 7))

    # 4 and 32 wide: the acceptance recipe's width. At 64 wide and more a
    # bucket's BLAS shape can move the last bits (README, SCD scoring).
    @pytest.mark.parametrize("width", [4, 32])
    def test_one_pass_equals_per_conversation_maxima(self, width):
        model = ScdModel.create(Rng(width), input_dim=width,
                                hidden_dim=width)
        rng = Rng(5)
        seqs = []
        for n_chunks in [*range(1, 71), 1, 1, 2, 1]:
            n_rows = int(rng.integers((n_chunks - 1) * 10 + 1,
                                      n_chunks * 10 + 1))
            seqs.append(ConversationSequence(
                f"c{len(seqs)}", rng.uniform(-1, 1, (n_rows, width),
                                             dtype=np.float32)))
        want = [scd_classifier._chunk_probabilities(
                    model, chunk_and_pad(seq, 10)).max() for seq in seqs]
        assert [len(chunk_and_pad(s, 10)) for s in seqs[:70]] == \
            list(range(1, 71))
        got = predict_scd(model, seqs, 10)
        assert got.tobytes() == np.array(want).tobytes()

    def test_sequence_without_rows_rejected(self):
        model = ScdModel.create(Rng(3), input_dim=4, hidden_dim=4)
        empty = ConversationSequence("e", np.zeros((0, 4), np.float32))
        with pytest.raises(UsageError):
            predict_scd(model, [make_sequence(3), empty], 10)


def mixed_length_chunks(n, dim=64, chunk_len=20, seed=6):
    """n one-chunk conversations whose row count runs over 1..chunk_len in
    shuffled order; every row is nonzero."""
    rng = Rng(seed)
    chunks = []
    for i in range(n):
        valid = 1 + int(rng.integers(0, chunk_len))
        seq = ConversationSequence(f"c{i}", rng.uniform(0.1, 1.0,
                                                        (valid, dim)))
        chunks += chunk_and_pad(seq, chunk_len)
    return chunks


def spy_inputs(monkeypatch, name):
    """Record the xs passed to scd_classifier's `name` (forward_stack or
    top_states), one array per call, before the call runs."""
    seen = []
    run = getattr(scd_classifier, name)

    def spy(xs, layers, *args):
        seen.append(xs.copy())
        return run(xs, layers, *args)

    monkeypatch.setattr(scd_classifier, name, spy)
    return seen


def assert_rows_then_zeros(xs, chunks):
    """Column b of a stacked (T, B, I) input is chunk b's rows and zeros
    after them."""
    assert xs.shape[1] == len(chunks)
    for b, c in enumerate(chunks):
        assert np.array_equal(xs[:len(c.matrix), b], c.matrix)
        assert not xs[len(c.matrix):, b].any()


def one_pass_probabilities(model, chunks):
    """Every chunk in one forward pass as long as the longest read row."""
    rows = scd_classifier._read_rows(chunks)
    traces = forward_stack(scd_classifier._stacked_inputs(model, chunks, rows),
                           [model.layer1, model.layer2])
    finals = traces[1].S[rows, np.arange(len(chunks))]
    logits = finals.astype(np.float64) @ model.head_w.astype(np.float64) \
        + float(model.head_b[0])
    return np.clip(sigmoid(logits), LOG_EPS, 1.0 - LOG_EPS)


class TestBucketedScoring:
    # 65 = one bucket and a lone leftover row; 129 = two buckets and one
    @pytest.mark.parametrize("n", [65, 129])
    def test_equal_to_one_pass_within_tolerance(self, n):
        model = ScdModel.create(Rng(n), input_dim=64, hidden_dim=16)
        chunks = mixed_length_chunks(n)
        wide = model.astype(np.float64)
        want = one_pass_probabilities(wide, chunks)
        assert np.allclose(scd_classifier._chunk_probabilities(wide, chunks),
                           want, rtol=0, atol=1e-12)
        assert np.allclose(scd_classifier._chunk_probabilities(model, chunks),
                           want, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("n,sizes", [(65, [64, 1]), (129, [64, 64, 1]),
                                         (130, [64, 64, 2])])
    def test_buckets_trimmed_to_their_longest_chunk(self, monkeypatch, n,
                                                    sizes):
        model = ScdModel.create(Rng(2), input_dim=64, hidden_dim=16)
        seen = spy_inputs(monkeypatch, "top_states")
        chunks = mixed_length_chunks(n)
        scd_classifier._chunk_probabilities(model, chunks)
        assert [xs.shape[1] for xs in seen] == sizes
        # buckets take the chunks in order of length
        by_length = sorted(chunks, key=lambda c: len(c.matrix))
        for xs in seen:
            size = xs.shape[1]
            bucket, by_length = by_length[:size], by_length[size:]
            assert xs.shape[0] == max(len(c.matrix) for c in bucket)
            assert_rows_then_zeros(xs, bucket)

    # chunks x steps stays within 64 x 24 = 1,536 cells: 30 x 50 fits,
    # 31 x 50 does not, 64 x 24 does, and a chunk alone always fits
    @pytest.mark.parametrize("lengths,sizes", [
        ([50] * 40, [30, 10]), ([24] * 65, [64, 1]), ([2000, 2000], [1, 1]),
        ([1] * 10 + [100] * 20, [15, 15])])
    def test_buckets_bounded_by_cells(self, monkeypatch, lengths, sizes):
        model = ScdModel.create(Rng(2), input_dim=4, hidden_dim=3)
        seen = spy_inputs(monkeypatch, "top_states")
        chunks = [c for i, n in enumerate(lengths) for c in chunk_and_pad(
            ConversationSequence(f"c{i}", np.ones((n, 4), np.float32)),
            max(lengths))]
        scd_classifier._chunk_probabilities(model, chunks)
        assert [xs.shape[1] for xs in seen] == sizes

    def test_scores_read_the_weights_of_the_last_optimizer_step(self):
        # each call scales the gate weights afresh, so scores after an
        # update are those of a new model holding the updated weights
        model = ScdModel.create(Rng(3), input_dim=8, hidden_dim=6)
        chunks = make_chunks(Rng(4), 4, 4)
        before = scd_classifier._chunk_probabilities(model, chunks)
        optimizer = make_optimizer("adam", 0.05)
        for _ in range(2):
            _, grads = training_loss_and_grads(model, chunks)
            optimizer.step(model.param_list(), grads)
            got = scd_classifier._chunk_probabilities(model, chunks)
            fresh = model.astype(model.dtype)   # copies of every array
            assert got.tobytes() == scd_classifier._chunk_probabilities(
                fresh, chunks).tobytes()
            assert got.tobytes() != before.tobytes()
            before = got


class TestTrainingBatchInput:
    """A training batch stacks its chunks' rows and pads them with zeros
    to the last row read."""

    def batch(self):
        rng = Rng(8)
        return [c for name, n, label in (("a", 25, True), ("b", 3, False),
                                         ("c", 2, False))
                for c in chunk_and_pad(ConversationSequence(
                    name, rng.uniform(0.1, 1.0, (n, 4)), label), 10)]

    # from the third chunk on, the lengths are 5, 3 and 2
    @pytest.mark.parametrize("first,steps", [(0, 10), (2, 5)])
    def test_rows_then_zeros_to_the_last_row_read(self, monkeypatch, first,
                                                  steps):
        model = ScdModel.create(Rng(2), input_dim=4, hidden_dim=3)
        seen = spy_inputs(monkeypatch, "forward_stack")
        chunks = self.batch()[first:]
        training_loss_and_grads(model, chunks)
        assert [xs.shape for xs in seen] == [(steps, len(chunks), 4)]
        assert_rows_then_zeros(seen[0], chunks)


def scripted_f1(monkeypatch, f1s, val=None, val_f1s=()):
    """Make train_scd's per-epoch metrics report the given F1s in turn, on
    the training chunks and on `val`; returns the list that receives the
    model's parameters after each epoch."""
    train_f1, val_f1 = iter(f1s), iter(val_f1s)
    after_epoch = []

    def metrics(model, chunks, threshold):
        if chunks is val:
            return (0.0, None, None, next(val_f1))
        after_epoch.append([p.copy() for p in model.param_list()])
        return (0.0, None, None, next(train_f1))

    monkeypatch.setattr(scd_classifier, "_chunk_metrics", metrics)
    return after_epoch


class TestTrainScd:
    def test_zero_epochs_returns_untrained_model_empty_log(self):
        chunks = make_chunks(Rng(2), 2, 2)
        cfg = PipelineConfig(scd_hidden_dim=4, scd_epochs=0)
        model, records = train_scd(chunks, cfg, Rng(3))
        assert records == []
        assert model.hidden_dim == 4

    def test_single_class_rejected(self):
        chunks = make_chunks(Rng(2), 3, 0)
        with pytest.raises(UsageError):
            train_scd(chunks, PipelineConfig(scd_hidden_dim=4, scd_epochs=1),
                      Rng(3))

    def test_separable_fixture_reaches_high_f1(self):
        rng = Rng(20)
        chunks = make_chunks(rng, 20, 60)
        cfg = PipelineConfig(scd_hidden_dim=8, scd_epochs=30, scd_lr=0.2,
                             scd_batch_size=16, scd_neg_ratio=5.0)
        _, records = train_scd(chunks, cfg, Rng(21))
        best_f1 = max(r.train[3] for r in records if r.train[3] is not None)
        assert best_f1 >= 0.99

    def test_best_epoch_parameters_retained(self):
        rng = Rng(20)
        chunks = make_chunks(rng, 8, 24)
        val = make_chunks(Rng(77), 4, 12)
        cfg = PipelineConfig(scd_hidden_dim=6, scd_epochs=5, scd_lr=0.2,
                             scd_batch_size=8)
        model, records = train_scd(chunks, cfg, Rng(21), val_chunks=val)
        from chatscreen.scd_classifier import _chunk_metrics
        best = max((r.val[3] for r in records if r.val[3] is not None),
                   default=None)
        final = _chunk_metrics(model, val, cfg.scd_threshold)
        assert final[3] == best

    def test_separable_fixture_stops_at_first_f1_of_one(self):
        chunks = make_chunks(Rng(20), 20, 60)
        cfg = PipelineConfig(scd_hidden_dim=8, scd_epochs=30, scd_lr=0.2,
                             scd_batch_size=16, scd_neg_ratio=5.0)
        model, records = train_scd(chunks, cfg, Rng(21))
        stop = len(records)
        assert stop < cfg.scd_epochs
        assert [r.train[3] == 1.0 for r in records] == \
            [False] * (stop - 1) + [True]
        # an epoch bound at the stopping epoch trains the same model
        short, short_records = train_scd(
            chunks, replace(cfg, scd_epochs=stop), Rng(21))
        assert short_records == records
        for got, want in zip(model.param_list(), short.param_list()):
            assert got.tobytes() == want.tobytes()

    def test_fixture_below_f1_of_one_runs_every_epoch(self):
        chunks = make_chunks(Rng(2), 6, 18)
        for i, chunk in enumerate(chunks):
            chunk.label = i % 2 == 0      # labels unrelated to the pattern
        cfg = PipelineConfig(scd_hidden_dim=4, scd_epochs=3, scd_lr=0.1)
        _, records = train_scd(chunks, cfg, Rng(3))
        assert len(records) == 3
        assert all(r.train[3] != 1.0 for r in records)

    @pytest.mark.parametrize("f1s,run,kept", [
        ([0.5, 0.995, 0.8, 1.0, 0.9, 1.0], 4, 4),
        ([1.0, 0.5, 1.0], 1, 1),
        ([None, 0.5, 0.7, 0.6], 4, 3),
        ([None, None, None], 3, 3),
    ], ids=["late", "first", "never", "undefined"])
    def test_stop_and_kept_epoch(self, monkeypatch, f1s, run, kept):
        after_epoch = scripted_f1(monkeypatch, f1s)
        cfg = PipelineConfig(scd_hidden_dim=4, scd_epochs=len(f1s),
                             scd_lr=0.1)
        model, records = train_scd(make_chunks(Rng(2), 4, 8), cfg, Rng(3))
        assert len(records) == len(after_epoch) == run
        for got, want in zip(model.param_list(), after_epoch[kept - 1]):
            assert got.tobytes() == want.tobytes()

    def test_validation_f1_decides_the_stop(self, monkeypatch):
        val = make_chunks(Rng(5), 2, 4)
        after_epoch = scripted_f1(monkeypatch, [1.0, 1.0, 1.0], val,
                                  [0.5, 1.0, 0.7])
        cfg = PipelineConfig(scd_hidden_dim=4, scd_epochs=3, scd_lr=0.1)
        model, records = train_scd(make_chunks(Rng(2), 4, 8), cfg, Rng(3),
                                   val_chunks=val)
        assert len(records) == 2
        for got, want in zip(model.param_list(), after_epoch[1]):
            assert got.tobytes() == want.tobytes()

    def test_epoch_log_format(self):
        chunks = make_chunks(Rng(2), 2, 6)
        cfg = PipelineConfig(scd_hidden_dim=4, scd_epochs=2, scd_lr=0.1)
        _, records = train_scd(chunks, cfg, Rng(3))
        assert records[0].format_line().startswith("epoch=1 acc=")


class TestGradients:
    def test_tiny_scd_gradient_check(self):
        # hidden 4, chunk length 6
        rng = Rng(41)
        model = ScdModel.create(rng, input_dim=3,
                                hidden_dim=4).astype(np.float64)
        chunks = []
        for i in range(3):
            matrix = rng.uniform(-1, 1, (3 + i, 3), dtype=np.float64)
            chunks.append(ConversationSequence(f"c{i}", matrix, i % 2 == 0))

        def loss_and_grads():
            return training_loss_and_grads(model, chunks)

        err = gradient_check(loss_and_grads, model.param_list(), 1e-3)
        assert err < 1e-4

    def test_loss_does_not_mutate_params(self):
        rng = Rng(42)
        model = ScdModel.create(rng, input_dim=3, hidden_dim=4)
        before = [p.copy() for p in model.param_list()]
        chunks = make_chunks(Rng(2), 2, 2, dim=3, length=6)
        training_loss_and_grads(model, chunks)
        for old, new in zip(before, model.param_list()):
            assert np.array_equal(old, new)
