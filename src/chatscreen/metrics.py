"""Set-based binary classification metrics and the F-beta report table.

Undefined metrics (zero denominators) are reported as absent, never as
zero, so an empty prediction set cannot masquerade as perfect precision.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError

ABSENT_MARK = "—"  # em dash in report layouts


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def retrieved(self) -> int:
        return self.tp + self.fp


def confusion(predicted, truth, universe) -> ConfusionCounts:
    predicted = set(predicted)
    truth = set(truth)
    universe = set(universe)
    if not predicted <= universe:
        raise UsageError("predicted set contains ids outside the universe: "
                         f"{sorted(predicted - universe)[:5]}")
    if not truth <= universe:
        raise UsageError("truth set contains ids outside the universe: "
                         f"{sorted(truth - universe)[:5]}")
    tp = len(predicted & truth)
    fp = len(predicted - truth)
    fn = len(truth - predicted)
    tn = len(universe) - tp - fp - fn
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


@dataclass
class PrfResult:
    precision: float | None
    recall: float | None
    f_beta: float | None


def f_beta_from_pr(precision: float | None, recall: float | None,
                   beta: float) -> float | None:
    """F_beta = (1+beta^2)PR / (beta^2 P + R); None when either input is
    absent or both are zero."""
    if precision is None or recall is None or not (precision or recall):
        return None
    b2 = beta * beta
    return (1 + b2) * precision * recall / (b2 * precision + recall)


def precision_recall_f(counts: ConfusionCounts, beta: float) -> PrfResult:
    """P, R, and F_beta from set counts; each is None when its denominator
    vanishes."""
    precision = counts.tp / counts.retrieved if counts.retrieved else None
    actual_pos = counts.tp + counts.fn
    recall = counts.tp / actual_pos if actual_pos else None
    return PrfResult(precision, recall,
                     f_beta_from_pr(precision, recall, beta))


def accuracy(counts: ConfusionCounts) -> float:
    if counts.total == 0:
        raise UsageError("accuracy over an empty universe")
    return (counts.tp + counts.tn) / counts.total


def format_metric(value: float | None) -> str:
    """Four decimals (round-half-even via float formatting), absent -> em
    dash; matches the report tables' precision."""
    return ABSENT_MARK if value is None else f"{value:.4f}"


def format_report(name: str, counts: ConfusionCounts) -> str:
    """Aligned text table of one run: RETR., REL., P, R, F1, F0.5."""
    f1 = precision_recall_f(counts, 1.0)
    f05 = precision_recall_f(counts, 0.5)
    header = ["run", "RETR.", "REL.", "P", "R", "F1", "F0.5"]
    row = [name, str(counts.retrieved), str(counts.tp),
           format_metric(f1.precision), format_metric(f1.recall),
           format_metric(f1.f_beta), format_metric(f05.f_beta)]
    widths = [max(len(a), len(b)) for a, b in zip(header, row)]
    lines = []
    for r in (header, row):
        cells = [r[0].ljust(widths[0])]
        cells += [c.rjust(w) for c, w in zip(r[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"
