import pytest

from chatscreen.errors import UsageError
from chatscreen.metrics import (ConfusionCounts, accuracy, confusion,
                                f_beta_from_pr, format_metric, format_report,
                                precision_recall_f)


class TestConfusion:
    def test_perfect_prediction(self):
        counts = confusion({"a", "b"}, {"a", "b"}, {"a", "b", "c"})
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (2, 0, 1, 0)

    def test_empty_prediction(self):
        counts = confusion(set(), {"a"}, {"a", "b"})
        assert counts.tp == 0 and counts.fp == 0
        assert counts.fn == 1 and counts.tn == 1

    def test_flagging_206_of_254_predators(self):
        universe = {f"u{i}" for i in range(1000)}
        truth = {f"u{i}" for i in range(254)}
        predicted = {f"u{i}" for i in range(206)}
        counts = confusion(predicted, truth, universe)
        assert counts.tp == 206 and counts.fp == 0 and counts.fn == 48
        assert counts.retrieved == 206

    def test_membership_violations_rejected(self):
        with pytest.raises(UsageError):
            confusion({"x"}, set(), {"a"})
        with pytest.raises(UsageError):
            confusion(set(), {"x"}, {"a"})


class TestPrecisionRecallF:
    def test_high_precision_reference_row(self):
        # retrieved 204, relevant retrieved 200, 254 relevant overall
        counts = ConfusionCounts(tp=200, fp=4, tn=0, fn=54)
        f1 = precision_recall_f(counts, 1.0)
        f05 = precision_recall_f(counts, 0.5)
        assert f"{f1.precision:.4f}" == "0.9804"
        assert f"{f1.recall:.4f}" == "0.7874"
        assert f"{f1.f_beta:.4f}" == "0.8734"
        assert f"{f05.f_beta:.4f}" == "0.9346"

    def test_perfect_precision_row(self):
        # 206 flagged, all correct, 254 relevant overall
        counts = ConfusionCounts(tp=206, fp=0, tn=500, fn=48)
        f1 = precision_recall_f(counts, 1.0)
        assert f1.precision == 1.0
        assert f"{f1.recall:.4f}" == "0.8110"
        # F computed from the already-rounded 4-decimal P/R pair
        assert f"{f_beta_from_pr(1.0, 0.8110, 1.0):.4f}" == "0.8956"
        assert f"{f_beta_from_pr(1.0, 0.8110, 0.5):.4f}" == "0.9555"

    def test_f_scores_from_rounded_pr_pair(self):
        assert f"{f_beta_from_pr(0.9804, 0.7874, 1.0):.4f}" == "0.8734"
        assert f"{f_beta_from_pr(0.9804, 0.7874, 0.5):.4f}" == "0.9346"

    def test_perfect_scores_for_any_beta(self):
        counts = ConfusionCounts(tp=5, fp=0, tn=5, fn=0)
        for beta in (0.25, 0.5, 1.0, 2.0, 10.0):
            assert precision_recall_f(counts, beta).f_beta == 1.0

    def test_absent_precision_when_nothing_retrieved(self):
        counts = ConfusionCounts(tp=0, fp=0, tn=5, fn=3)
        result = precision_recall_f(counts, 1.0)
        assert result.precision is None
        assert result.recall == 0.0
        assert result.f_beta is None

    def test_absent_recall_when_no_relevant(self):
        counts = ConfusionCounts(tp=0, fp=2, tn=5, fn=0)
        result = precision_recall_f(counts, 1.0)
        assert result.recall is None
        assert result.f_beta is None

    def test_zero_precision_and_recall_leaves_f_absent(self):
        counts = ConfusionCounts(tp=0, fp=2, tn=5, fn=3)
        result = precision_recall_f(counts, 1.0)
        assert result.precision == 0.0 and result.recall == 0.0
        assert result.f_beta is None

    def test_f_between_min_and_max(self):
        counts = ConfusionCounts(tp=30, fp=10, tn=40, fn=20)
        for beta in (0.3, 0.5, 1.0, 2.0):
            r = precision_recall_f(counts, beta)
            assert min(r.precision, r.recall) <= r.f_beta <= max(r.precision,
                                                                 r.recall)

    def test_monotone_in_precision_and_recall(self):
        base = precision_recall_f(ConfusionCounts(30, 10, 40, 20), 0.5)
        better_p = precision_recall_f(ConfusionCounts(30, 5, 45, 20), 0.5)
        better_r = precision_recall_f(ConfusionCounts(35, 10, 40, 15), 0.5)
        assert better_p.f_beta > base.f_beta
        assert better_r.f_beta > base.f_beta

    def test_beta_limits(self):
        counts = ConfusionCounts(tp=30, fp=10, tn=40, fn=20)
        near_p = precision_recall_f(counts, 0.01)
        near_r = precision_recall_f(counts, 100.0)
        assert abs(near_p.f_beta - near_p.precision) < 1e-2
        assert abs(near_r.f_beta - near_r.recall) < 1e-2


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(ConfusionCounts(tp=3, fp=0, tn=7, fn=0)) == 1.0

    def test_all_wrong(self):
        assert accuracy(ConfusionCounts(tp=0, fp=4, tn=0, fn=6)) == 0.0

    def test_author_universe_case(self):
        universe_size = 218488
        counts = ConfusionCounts(tp=206, fp=0, fn=48,
                                 tn=universe_size - 206 - 48)
        prf = precision_recall_f(counts, 1.0)
        assert prf.precision == 1.0
        assert f"{prf.recall:.4f}" == "0.8110"
        assert accuracy(counts) == (206 + counts.tn) / universe_size

    def test_empty_universe_rejected(self):
        with pytest.raises(UsageError):
            accuracy(ConfusionCounts(0, 0, 0, 0))


class TestReport:
    def test_absent_marker(self):
        assert format_metric(None) == "—"
        assert format_metric(0.98765) == "0.9877"

    def test_report_layout(self):
        text = format_report("chatscreen",
                             ConfusionCounts(tp=200, fp=4, tn=0, fn=54))
        assert text == (
            "run         RETR.  REL.       P       R      F1    F0.5\n"
            "chatscreen    204   200  0.9804  0.7874  0.8734  0.9346\n")

    def test_report_layout_with_every_metric_absent(self):
        text = format_report("chatscreen",
                             ConfusionCounts(tp=0, fp=0, tn=10, fn=5))
        assert text == ("run         RETR.  REL.  P       R  F1  F0.5\n"
                        "chatscreen      0     0  —  0.0000   —     —\n")
