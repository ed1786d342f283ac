import itertools
import math

import numpy as np
import pytest

from chatscreen import author_classifier
from chatscreen.author_classifier import (CLASSES, AuthorUnit, SentimentScore, ShallowModel,
                                          _unit_loss_and_grads,
                                          average_author_scores,
                                          build_feature_vocab,
                                          class_probabilities, featurize,
                                          identify_predators, pooled,
                                          train_author,
                                          training_loss_and_grads,
                                          unit_features)
from chatscreen.config import PipelineConfig
from chatscreen.core_math import Rng, gradient_check
from chatscreen.corpus_io import Conversation, Message
from chatscreen.errors import UsageError

from oracles import per_unit_author_loss_and_grads, scalar_softmax, score


def model_with_features(features, k=4, seed=3):
    return ShallowModel.create(Rng(seed), features, k)


def one_row(model, features):
    """class_probabilities of one pooled row, as a SentimentScore."""
    p, v, n = class_probabilities(model, features[None, :])[0]
    return SentimentScore(float(p), float(v), float(n))


class TestSentimentScore:
    def test_simplex_enforced(self):
        with pytest.raises(UsageError):
            SentimentScore(0.5, 0.5, 0.5)
        with pytest.raises(UsageError):
            SentimentScore(1.5, -0.5, 0.0)

    def test_tie_order_is_conservative(self):
        third = 1 / 3
        assert SentimentScore(third, third, 1 - 2 * third).argmax_class() == "N"
        assert SentimentScore(0.4, 0.4, 0.2).argmax_class() == "V"
        assert SentimentScore(0.4, 0.2, 0.4).argmax_class() == "N"
        assert SentimentScore(0.5, 0.5, 0.0).argmax_class() == "V"
        assert SentimentScore(0.6, 0.3, 0.1).argmax_class() == "P"


class TestFeaturize:
    def test_single_known_token_exact_embedding(self):
        model = model_with_features(["hello"])
        out = featurize(model, [["hello"]])
        assert np.array_equal(out, model.embedding[0])

    def test_equal_embeddings_mean_to_same_vector(self):
        model = model_with_features(["a", "b", "a b"])
        model.embedding[:] = 0.25
        out = featurize(model, [["a", "b"]])
        assert np.allclose(out, np.full(model.k, 0.25))

    def test_hand_computed_mean_with_bigrams(self):
        feats = ["a", "b", "c", "a b", "b c"]
        model = model_with_features(feats, k=3)
        out = featurize(model, [["a", "b", "c"]])
        rows = [model.embedding[model.feature_index[f]]
                for f in ("a", "b", "c", "a b", "b c")]
        expect = np.mean(rows, axis=0)
        assert np.allclose(out, expect, atol=1e-7)

    def test_out_of_vocabulary_features_skipped(self):
        model = model_with_features(["known"])
        out = featurize(model, [["known", "mystery"]])
        assert np.array_equal(out, model.embedding[0])  # "mystery" skipped

    def test_all_oov_gives_zero_vector(self):
        model = model_with_features(["known"])
        out = featurize(model, [["mystery", "tokens"]])
        assert np.array_equal(out, np.zeros(model.k, dtype=np.float32))

    def test_no_tokens_give_zero_vector(self):
        # as train_author pools a unit without features
        model = model_with_features(["known"])
        for lines in ([[]], [[], []], []):
            out = featurize(model, lines)
            assert np.array_equal(out, np.zeros(model.k, dtype=np.float32))

    def test_pooled_empty_list_is_the_zero_row(self):
        model = model_with_features(["a", "b", "c"])
        out = pooled(model, [[], [2], []])
        assert out.dtype == model.dtype
        assert np.array_equal(out, np.stack([np.zeros(model.k),
                                             model.embedding[2],
                                             np.zeros(model.k)]))

    def test_pooled_repeated_ids_weigh_each_occurrence(self):
        model = model_with_features(["a", "b", "c"], k=5)
        out = pooled(model, [[1, 1, 1], [0, 2, 2, 0, 2]])
        assert np.allclose(out[0], model.embedding[1], rtol=0, atol=1e-7)
        want = (2 * model.embedding[0] + 3 * model.embedding[2]) / 5
        assert np.allclose(out[1], want, rtol=0, atol=1e-7)

    def test_pooled_out_of_vocabulary_features_add_nothing(self):
        model = model_with_features(["a", "b", "a b"])
        unheard = model.feature_ids([["x", "y"], ["zz"]])
        mixed = model.feature_ids([["a", "x", "b"], ["y"]])
        assert unheard == [] and mixed == [0, 1]
        out = pooled(model, [unheard, mixed])
        assert np.array_equal(out[0], np.zeros(model.k))
        assert np.array_equal(out[1], pooled(model, [[0, 1]])[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pooled_rows_are_means_whatever_the_batch(self, dtype):
        # a list's row is the same bits alone or among others
        model = model_with_features([f"f{i}" for i in range(40)], k=16,
                                    seed=7).astype(dtype)
        lists = random_batch(60)
        out = pooled(model, lists)
        for ids, row in zip(lists, out):
            assert row.tobytes() == pooled(model, [ids])[0].tobytes()
            want = (model.embedding[ids].astype(np.float64).mean(axis=0)
                    if ids else np.zeros(model.k))
            assert np.allclose(row, want, rtol=0,
                               atol=1e-6 if dtype == np.float32 else 1e-14)

    def test_unit_features_multiplicity(self):
        feats = unit_features([["x", "x"], ["y"]])
        assert feats == ["x", "x", "x x", "y"]


class TestScore:
    def test_zero_model_gives_thirds(self):
        model = model_with_features(["a"])
        model.class_w[:] = 0
        model.class_b[:] = 0
        result = one_row(model, np.zeros(model.k, dtype=np.float32))
        assert abs(result.p - 1 / 3) < 1e-12
        assert abs(result.v - 1 / 3) < 1e-12

    def test_log_two_bias_is_analytically_forced(self):
        model = model_with_features(["a"]).astype(np.float64)
        model.class_w[:] = 0
        model.class_b[:] = [math.log(2), 0.0, 0.0]
        result = one_row(model, np.zeros(model.k, dtype=np.float64))
        assert abs(result.p - 0.5) < 1e-12
        assert abs(result.v - 0.25) < 1e-12
        assert abs(result.n - 0.25) < 1e-12

    def test_matches_direct_softmax_oracle(self):
        model = model_with_features(["a", "b"], k=5, seed=9)
        feats = Rng(10).uniform(-1, 1, (5,), dtype=np.float32)
        result = one_row(model, feats)
        logits = (feats.astype(np.float64) @ model.class_w.astype(np.float64)
                  + model.class_b.astype(np.float64))
        expect = scalar_softmax(logits.tolist())
        assert abs(result.p - expect[0]) < 1e-12
        assert abs(result.v - expect[1]) < 1e-12

    def test_simplex_within_tolerance(self):
        model = model_with_features(["a", "b"], k=5, seed=9)
        rng = Rng(11)
        for _ in range(20):
            result = one_row(model, rng.uniform(-9, 9, (5,), dtype=np.float32))
            assert abs(result.p + result.v + result.n - 1.0) <= 1e-9

    def test_argmax_invariant_under_logit_shift(self):
        model = model_with_features(["a"], k=3, seed=4)
        feats = Rng(5).uniform(-1, 1, (3,), dtype=np.float32)
        before = one_row(model, feats).argmax_class()
        model.class_b += 7.25
        assert one_row(model, feats).argmax_class() == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [4, 16, 64])
    def test_each_row_equals_the_one_unit_oracle(self, dtype, k):
        # one row at a time and all rows stacked, the zero vector included
        model = model_with_features(["a"], k=k, seed=k).astype(dtype)
        model.class_b[:] = Rng(k + 1).uniform(-1, 1, (3,), dtype=dtype)
        x = Rng(k + 2).uniform(-3, 3, (50, k), dtype=dtype)
        x[7] = 0
        stacked = class_probabilities(model, x)
        assert stacked.dtype == np.float64
        for i, row in enumerate(x):
            s = score(model, row)
            want = np.array([s.p, s.v, s.n])
            assert np.allclose(class_probabilities(model, row[None, :])[0],
                               want, rtol=0, atol=1e-14)
            assert np.allclose(stacked[i], want, rtol=0, atol=1e-14)


def make_units(rng, n_per_class, marker):
    units = []
    for label in ("P", "V", "N"):
        for i in range(n_per_class):
            line = [marker[label]] * 3 + ["filler", "words"]
            units.append(AuthorUnit(f"{label.lower()}{i}", [line], label))
    return units


MARKERS = {"P": "wolf", "V": "lamb", "N": "noise"}


class TestTrainAuthor:
    def test_zero_epochs_unchanged(self):
        units = make_units(Rng(1), 2, MARKERS)
        features = build_feature_vocab(units, min_freq=1)
        model = ShallowModel.create(Rng(2), features, 4)
        before = [p.copy() for p in model.param_list()]
        records = train_author(model, units, PipelineConfig(author_epochs=0),
                               Rng(3))
        assert records == []
        for old, new in zip(before, model.param_list()):
            assert np.array_equal(old, new)

    def test_missing_class_rejected(self):
        units = [u for u in make_units(Rng(1), 2, MARKERS) if u.label != "V"]
        features = build_feature_vocab(units, min_freq=1)
        model = ShallowModel.create(Rng(2), features, 4)
        with pytest.raises(UsageError):
            train_author(model, units, PipelineConfig(author_epochs=1),
                         Rng(3))

    def test_separable_corpus_learned(self):
        units = make_units(Rng(1), 12, MARKERS)
        features = build_feature_vocab(units, min_freq=1)
        model = ShallowModel.create(Rng(2), features, 8)
        cfg = PipelineConfig(author_epochs=25, author_lr=0.5,
                             author_batch_size=8)
        records = train_author(model, units, cfg, Rng(3))
        assert records[-1].train_accuracy >= 0.99

    def test_feature_vocab_min_frequency(self):
        units = [AuthorUnit("a", [["common"] * 5 + ["rare"]], "N")]
        # "common common" occurs 4 times, "common rare" once
        features = build_feature_vocab(units, min_freq=5)
        assert features == ["common"]

    def test_tiny_model_gradient_check(self):
        # |F| = 10, k = 4
        features = [f"f{i}" for i in range(10)]
        model = ShallowModel.create(Rng(6), features, 4).astype(np.float64)
        rng = Rng(7)
        units = []
        for i, label in enumerate(("P", "V", "N", "P", "V")):
            line = [features[int(rng.integers(0, 10))] for _ in range(4)]
            units.append(AuthorUnit(f"a{i}", [line], label))

        def loss_and_grads():
            return training_loss_and_grads(model, units)

        err = gradient_check(loss_and_grads, model.param_list(), 1e-3)
        assert err < 1e-4


def id_units(ids_per_unit, seed=8):
    """Labeled units given by their feature ids (their lines are unused)."""
    rng = Rng(seed)
    units = [AuthorUnit(f"a{i}", [], CLASSES[int(rng.integers(0, 3))])
             for i in range(len(ids_per_unit))]
    return units, [list(ids) for ids in ids_per_unit]


def random_batch(n, n_features=40, seed=9):
    rng = Rng(seed)
    return [[int(f) for f in rng.integers(0, n_features,
                                          size=int(rng.integers(0, 12)))]
            for _ in range(n)]


BATCHES = {
    "no-feature-unit": [[0, 1, 2], [], [3], [4, 5]],
    "repeated-feature": [[3, 3, 3, 7], [7, 1], [2, 2]],
    "shared-feature": [[5, 1], [5, 2], [5], [9, 5, 5]],
    "one-unit": [[1, 4, 6]],
    "one-unit-no-feature": [[]],
    "mixed-32": random_batch(32),
    "mixed-100": random_batch(100, seed=10),
}


class TestBatchedUnits:
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6),
                                           (np.float64, 1e-10)])
    @pytest.mark.parametrize("batch", list(BATCHES))
    def test_equals_the_per_unit_loop(self, dtype, tol, batch):
        # the float64 loop is the reference for both dtypes
        features = [f"f{i}" for i in range(40)]
        model = ShallowModel.create(Rng(4), features, 16).astype(dtype)
        model.class_b[:] = Rng(5).uniform(-1, 1, (3,), dtype=dtype)
        units, cached = id_units(BATCHES[batch])
        loss, grads = _unit_loss_and_grads(model, units, cached)
        want_loss, want = per_unit_author_loss_and_grads(
            model.astype(np.float64), units, cached)
        assert abs(loss - want_loss) <= tol
        for got, expect in zip(grads, want, strict=True):
            assert got.dtype == dtype
            assert np.allclose(got, expect, rtol=0, atol=tol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_predicted_classes_match_score_with_exact_ties(self, dtype):
        # class_w the identity, class_b zero and lr 0: the logits are the
        # pooled vector and stay so, and these embedding rows give exact
        # P/V, V/N, P/N and three-way ties, and the zero vector of a unit
        # without features another three-way tie
        rows = [[1, 1, 0], [0, 2, 2], [1, 1, 1], [3, 0, 1], [2, 0, 2],
                [0, 3, 1], [0.5, 0.25, 0.125]]
        features = [f"f{i}" for i in range(len(rows))]
        lines = [[["f0"]], [["f1"]], [["f2"]], [["f3"]], [["f4"]], [["f5"]],
                 [["f6"]], [["unheard"]], [["f0", "f1"]], [["f3", "f5"]],
                 [["f0", "f0", "f2"]]]

        def fresh():
            return ShallowModel(features, np.array(rows, dtype=dtype),
                                np.eye(3, dtype=dtype),
                                np.zeros(3, dtype=dtype))

        model = fresh()
        want = [score(model, pooled(model, [model.feature_ids(unit_lines)])[0])
                .argmax_class() for unit_lines in lines]
        assert want[:6] == ["V", "N", "N", "P", "N", "V"]
        # the accuracy pass in batches of 4 (the last one short) and in one
        for batch_size, labels in itertools.product(
                (4, 32), (want, ["P"] * 4 + ["V"] * 4 + ["N"] * 3)):
            cfg = PipelineConfig(author_epochs=1, author_lr=0.0,
                                 author_batch_size=batch_size)
            units = [AuthorUnit(f"a{i}", unit_lines, label)
                     for i, (unit_lines, label) in enumerate(zip(lines,
                                                                 labels))]
            records = train_author(fresh(), units, cfg, Rng(3))
            hits = sum(w == label for w, label in zip(want, labels))
            assert records[0].train_accuracy == hits / len(units)

    def test_predicted_classes_match_score_on_a_trained_model(self):
        units = make_units(Rng(1), 12, MARKERS)
        features = build_feature_vocab(units, min_freq=1)
        units += [AuthorUnit("x", [["unheard"]], "N")]
        units[3] = AuthorUnit("y", units[3].lines, "N")
        model = ShallowModel.create(Rng(2), features, 8)
        records = train_author(model, units,
                               PipelineConfig(author_epochs=3, author_lr=0.5),
                               Rng(3))
        hits = sum(score(model, featurize(model, u.lines)).argmax_class()
                   == u.label for u in units)
        assert records[-1].train_accuracy == hits / len(units)

    def test_training_equals_the_per_unit_loop(self, monkeypatch):
        units = make_units(Rng(1), 9, MARKERS)
        features = build_feature_vocab(units, min_freq=1)
        units[4] = AuthorUnit("y", [["unheard", "tokens"]], "P")
        cfg = PipelineConfig(author_epochs=4, author_lr=0.05,
                             author_batch_size=8, author_optimizer="adam")

        def fresh():
            return ShallowModel.create(Rng(2), features, 8).astype(np.float64)

        model = fresh()
        records = train_author(model, units, cfg, Rng(3))
        monkeypatch.setattr(author_classifier, "_unit_loss_and_grads",
                            per_unit_author_loss_and_grads)
        monkeypatch.setattr(author_classifier, "class_probabilities",
                            lambda model, x: np.array([
                                [s.p, s.v, s.n] for s in (score(model, row)
                                                          for row in x)]))
        loop_model = fresh()
        loop_records = train_author(loop_model, units, cfg, Rng(3))
        assert ([(r.epoch, r.train_accuracy) for r in records]
                == [(r.epoch, r.train_accuracy) for r in loop_records])
        for got, want in zip(records, loop_records):
            assert abs(got.loss - want.loss) <= 1e-10
        for got, want in zip(model.param_list(), loop_model.param_list()):
            assert np.allclose(got, want, rtol=0, atol=1e-10)


class TestAverageScores:
    def test_single_score_identity(self):
        out = average_author_scores(np.array([[0.2, 0.3, 0.5]]))
        assert (out.p, out.v, out.n) == (0.2, 0.3, 0.5)

    def test_two_pure_scores(self):
        out = average_author_scores(np.array([[1.0, 0.0, 0.0],
                                              [0.0, 1.0, 0.0]]))
        assert (out.p, out.v, out.n) == (0.5, 0.5, 0.0)

    def test_three_fixture_scores_hand_mean(self):
        out = average_author_scores(np.array([[0.6, 0.3, 0.1],
                                              [0.2, 0.5, 0.3],
                                              [0.1, 0.1, 0.8]]))
        assert abs(out.p - 0.3) < 1e-12
        assert abs(out.v - 0.3) < 1e-12
        assert abs(out.n - 0.4) < 1e-12

    def test_rows_of_a_larger_array(self):
        # the rows one author's units take in score-authors' array
        probs = np.array([[0.6, 0.3, 0.1], [0.0, 0.0, 1.0],
                          [0.2, 0.5, 0.3]])
        out = average_author_scores(probs[[0, 2]])
        assert np.allclose([out.p, out.v, out.n], [0.4, 0.4, 0.2],
                           rtol=0, atol=1e-12)
        assert out.argmax_class() == "V"

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            average_author_scores(np.empty((0, 3)))


def conversation(conv_id, authors):
    msgs = [Message(a, i + 1, "0", "text") for i, a in enumerate(authors)]
    return Conversation(conv_id, msgs)


class TestIdentifyPredators:
    def test_top_p_author_with_p_class_flagged(self):
        scores = {"hunter": SentimentScore(0.9, 0.05, 0.05),
                  "target": SentimentScore(0.1, 0.8, 0.1)}
        convs = [conversation("c1", ["hunter", "target"])]
        flagged = identify_predators(["c1"], scores, convs)
        assert flagged == {"hunter"}

    def test_top_p_author_with_other_class_blocks_flag(self):
        # intersection rule: highest P score but argmax class V -> no flag
        scores = {"a": SentimentScore(0.4, 0.5, 0.1),
                  "b": SentimentScore(0.1, 0.1, 0.8)}
        convs = [conversation("c1", ["a", "b"])]
        flagged = identify_predators(["c1"], scores, convs)
        assert flagged == set()

    def test_shared_predator_flagged_once(self):
        scores = {"p": SentimentScore(0.9, 0.05, 0.05),
                  "x": SentimentScore(0.05, 0.05, 0.9),
                  "y": SentimentScore(0.05, 0.05, 0.9)}
        convs = [conversation("c1", ["p", "x"]),
                 conversation("c2", ["p", "y"])]
        flagged = identify_predators(["c1", "c2"], scores, convs)
        assert flagged == {"p"}

    def test_flagged_subset_of_suspicious_participants(self):
        scores = {"p": SentimentScore(0.9, 0.05, 0.05),
                  "q": SentimentScore(0.8, 0.1, 0.1)}
        convs = [conversation("c1", ["p"]), conversation("c2", ["q"])]
        flagged = identify_predators(["c1"], scores, convs)
        assert flagged <= {"p"}

    def test_exact_tie_flags_nobody(self):
        scores = {"a": SentimentScore(0.6, 0.2, 0.2),
                  "b": SentimentScore(0.6, 0.3, 0.1)}
        convs = [conversation("c1", ["a", "b"])]
        flagged = identify_predators(["c1"], scores, convs)
        assert flagged == set()

    def test_at_most_one_flag_per_conversation(self):
        scores = {"a": SentimentScore(0.9, 0.05, 0.05),
                  "b": SentimentScore(0.8, 0.1, 0.1)}
        convs = [conversation("c1", ["a", "b"])]
        flagged = identify_predators(["c1"], scores, convs)
        assert len(flagged) == 1
