"""Per-layer tracing from outside the program.

A traced run replaces selected chatscreen functions, at the module
attribute through which their callers look them up, with wrappers that
time each call and count the work it was given. Nothing in the package
changes; the wrappers are installed only in a worker process started with
tracing on.

Each span records inclusive time (`s`) and self time (`self_s`, inclusive
time minus the time spent in wrapped callees).
"""

from __future__ import annotations

import functools
import math
from pathlib import Path
from time import perf_counter

# The pipeline's ten stages, as `pipeline.run_<stage>` names them.
STAGES = ("preprocess", "build_vocab", "train_lm", "eval_lm", "vectorize",
          "train_scd", "eval_scd", "train_author", "score_authors", "identify")


class _Stat:
    __slots__ = ("calls", "total", "self_time", "count", "samples")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.count = 0            # work units (cell steps, bytes)
        self.samples = None       # per-call durations, when kept


class Tracer:
    """Span accounting for wrapped functions, kept in memory until dumped."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._child_time: list[float] = []   # per open span
        self._open: dict[str, int] = {}       # span name -> nesting depth
        self.pair_counts = {"forward": 0, "backward": 0}
        self.distinct: set = set()

    def stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = _Stat()
        return st

    def inside(self, name: str) -> bool:
        return self._open.get(name, 0) > 0

    def wrap(self, name: str, fn, before=None, after=None,
             keep_samples: bool = False):
        """Return fn wrapped in a span called `name`.

        before(args, kwargs) runs ahead of the clock (its cost is charged
        to the caller's span); after(stat, args, result) runs after it.
        """
        tracer = self
        st = self.stat(name)
        if keep_samples:
            st.samples = []

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer._child_time.append(0.0)
            tracer._open[name] = tracer._open.get(name, 0) + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._open[name] -= 1
                child = tracer._child_time.pop()
                if tracer._child_time:
                    tracer._child_time[-1] += dt
                st.calls += 1
                st.total += dt
                st.self_time += dt - child
                if st.samples is not None:
                    st.samples.append(dt)
            if after is not None:
                after(st, args, result)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, **kw) -> None:
        fn = getattr(module, attr)
        setattr(module, attr, self.wrap(name, fn, **kw))

    def dump(self) -> dict:
        """Raw per-span numbers of this process. The distinct sentences
        go with the sentence_vector span and the forward/backward counts
        with train_scd's, so each travels with the span it describes."""
        out = {}
        for name, st in self.stats.items():
            out[name] = {"calls": st.calls, "s": st.total,
                         "self_s": st.self_time, "count": st.count,
                         "samples": st.samples}
        if "language_model.sentence_vector" in out:
            out["language_model.sentence_vector"]["distinct"] = len(
                self.distinct)
        if "scd_classifier.train_scd" in out:
            out["scd_classifier.train_scd"].update(self.pair_counts)
        return out


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every chatscreen layer where the
    pipeline and the layers themselves look them up."""
    from chatscreen import (author_classifier, core_math, corpus_io,
                            language_model, lstm, model_store, pipeline,
                            preprocessing, scd_classifier)

    for stage in STAGES:
        tracer.patch(pipeline, f"run_{stage}", f"pipeline.{stage}")

    def add_steps(index):
        # T * B of the (T, B, ...) array passed at this position
        def after(st, args, _result):
            shape = args[index].shape
            st.count += shape[0] * shape[1]
        return after

    tracer.patch(lstm, "forward_steps", "lstm.forward_steps",
                 after=add_steps(0))
    tracer.patch(lstm, "backward_steps", "lstm.backward_steps",
                 after=add_steps(1))

    sigmoid = tracer.wrap("core_math.sigmoid", core_math.sigmoid)
    for module in (lstm, scd_classifier):
        module.sigmoid = sigmoid
    row_softmax = tracer.wrap("core_math.row_softmax", core_math.row_softmax)
    for module in (language_model, author_classifier):
        module.row_softmax = row_softmax
    for cls in (core_math.SgdOptimizer, core_math.AdamOptimizer):
        cls.step = tracer.wrap("core_math.optimizer_step", cls.step)

    tracer.patch(pipeline, "train_lm", "language_model.train_lm")
    tracer.patch(pipeline, "perplexity", "language_model.perplexity")

    def sentence_key(args, _kwargs):
        model, tokens = args
        ids = preprocessing.encode(tokens, model.vocab, model.window)
        tracer.distinct.add(tuple(ids))

    tracer.patch(scd_classifier, "sentence_vector",
                 "language_model.sentence_vector", before=sentence_key,
                 keep_samples=True)

    def count_pass(kind):
        def before(_args, _kwargs):
            if tracer.inside("scd_classifier.train_scd"):
                tracer.pair_counts[kind] += 1
        return before

    # counted, not timed: only the ratio of the two calls is reported
    scd_classifier.forward_stack = _counting(scd_classifier.forward_stack,
                                             count_pass("forward"))
    scd_classifier.backward_stack = _counting(scd_classifier.backward_stack,
                                              count_pass("backward"))
    tracer.patch(pipeline, "train_scd", "scd_classifier.train_scd")
    tracer.patch(pipeline, "predict_scd", "scd_classifier.predict_scd")

    tracer.patch(author_classifier, "train_author",
                 "author_classifier.train_author")
    tracer.patch(author_classifier, "featurize", "author_classifier.featurize")
    tracer.patch(author_classifier, "identify_predators",
                 "author_classifier.identify_predators")

    tracer.patch(pipeline, "normalize_text", "preprocessing.normalize_text")
    tracer.patch(pipeline, "build_vocabulary",
                 "preprocessing.build_vocabulary")

    tracer.patch(corpus_io, "parse_pan_corpus", "corpus_io.parse_pan_corpus")
    tracer.patch(corpus_io, "write_pan_corpus", "corpus_io.write_pan_corpus")

    def saved_bytes(st, _args, result):
        st.count += int(result)

    def loaded_bytes(st, args, _result):
        st.count += Path(args[0]).stat().st_size

    tracer.patch(model_store, "save", "model_store.save", after=saved_bytes)
    tracer.patch(model_store, "load", "model_store.load", after=loaded_bytes)


def _counting(fn, before):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before(args, kwargs)
        return fn(*args, **kwargs)
    return wrapper


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def pick(dumps) -> dict:
    """Each span's figures from the last of the dumps (in process order)
    whose process called it. Figures of different processes are never
    added up: on screen-heldout the forward path is the screening round's
    alone, and the layers only training runs come from set-up."""
    spans: dict = {}
    for dump in dumps:
        for name, raw in dump.items():
            if raw["calls"]:
                spans[name] = raw
    return spans


# Per-layer metrics read straight off one span: "<span>.<field>".
SPAN_METRICS = [f"pipeline.{stage}.s" for stage in STAGES] + [
    "lstm.forward_steps.calls", "lstm.forward_steps.cell_steps",
    "lstm.forward_steps.self_s",
    "lstm.backward_steps.calls", "lstm.backward_steps.cell_steps",
    "lstm.backward_steps.self_s",
    "core_math.sigmoid.calls", "core_math.sigmoid.self_s",
    "core_math.optimizer_step.calls", "core_math.optimizer_step.s",
    "core_math.row_softmax.s",
    "language_model.train_lm.s", "language_model.perplexity.s",
    "language_model.sentence_vector.calls", "language_model.sentence_vector.s",
    "scd_classifier.train_scd.s",
    "scd_classifier.predict_scd.calls", "scd_classifier.predict_scd.s",
    "author_classifier.train_author.s",
    "author_classifier.featurize.calls", "author_classifier.featurize.s",
    "author_classifier.identify_predators.s",
    "preprocessing.normalize_text.calls", "preprocessing.normalize_text.s",
    "preprocessing.build_vocabulary.s",
    "corpus_io.parse_pan_corpus.calls", "corpus_io.parse_pan_corpus.s",
    "corpus_io.write_pan_corpus.s",
    "model_store.save.s", "model_store.load.s",
]
_FIELDS = {"calls": ("calls", "count"), "cell_steps": ("count", "count"),
           "s": ("s", "s"), "self_s": ("self_s", "s")}
_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "samples": None}


def layer_metrics(raw: dict) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""
    m: dict[str, tuple[float, str]] = {}
    for name in SPAN_METRICS:
        span, field = name.rsplit(".", 1)
        key, unit = _FIELDS[field]
        m[name] = ((raw.get(span) or _EMPTY)[key], unit)
    vectors = raw.get("language_model.sentence_vector") or _EMPTY
    samples = sorted(vectors["samples"] or [])
    m["language_model.sentence_vector.p50_us"] = (
        _quantile(samples, 0.50) * 1e6, "us")
    m["language_model.sentence_vector.p99_us"] = (
        _quantile(samples, 0.99) * 1e6, "us")
    m["language_model.sentence_vector.distinct_ratio"] = (
        vectors.get("distinct", 0) / vectors["calls"]
        if vectors["calls"] else 0.0, "ratio")
    train_scd = raw.get("scd_classifier.train_scd") or _EMPTY
    m["scd_classifier.train_forward_per_backward"] = (
        train_scd["forward"] / train_scd["backward"]
        if train_scd.get("backward") else 0.0, "ratio")
    m["model_store.bytes"] = (
        sum((raw.get(span) or _EMPTY)["count"]
            for span in ("model_store.save", "model_store.load")), "B")
    return m
