"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s`.

The end-to-end criteria (7 and 8) drive the real CLI over a synthetic
500-conversation corpus with a fixed seed; the numeric criteria pin their
tolerances here, straight from the contract.
"""

import math
import time

import numpy as np
import pytest

from chatscreen import model_store
from chatscreen.author_classifier import AuthorUnit, ShallowModel
from chatscreen.author_classifier import \
    training_loss_and_grads as author_loss_and_grads
from chatscreen.cli import main
from chatscreen.core_math import Rng, gradient_check
from chatscreen.errors import (ContainerCorruptionError, ContainerFormatError,
                               ContainerVersionError)
from chatscreen.config import PipelineConfig
from chatscreen.language_model import LanguageModel, perplexity, train_lm
from chatscreen.language_model import \
    training_loss_and_grads as lm_loss_and_grads
from chatscreen.lstm import LstmLayerParams, forward_steps
from chatscreen.metrics import f_beta_from_pr
from chatscreen.model_store import FORMAT_VERSION
from chatscreen.preprocessing import (RESERVED_TOKENS, Vocabulary,
                                      build_vocabulary, normalize_text)
from chatscreen.scd_classifier import (ConversationSequence, ScdModel,
                                       chunk_and_pad)
from chatscreen.scd_classifier import \
    training_loss_and_grads as scd_loss_and_grads
from chatscreen.corpus_io import parse_ground_truth, parse_pan_corpus

from norm_fixtures import NORMALIZATION_FIXTURES
from oracles import scalar_cell_step
from test_scd_classifier import make_sequence


def gate(num, name, condition, detail):
    status = "PASS" if condition else "FAIL"
    print(f"\n[ACCEPTANCE] criterion {num} ({name}): {status} [{detail}]",
          flush=True)
    assert condition, f"criterion {num} ({name}): {detail}"


def make_vocab(n_words):
    return Vocabulary(list(RESERVED_TOKENS) + [f"w{i}" for i in range(n_words)],
                      min_term_frequency=1)


class TestCriterion1GradientFidelity:
    def test_gradients_within_1e4(self):
        start = time.monotonic()
        # language model: vocab 20, embedding 6, hidden 8, window 5
        lm = LanguageModel.create(make_vocab(14), 6, 8, 5,
                                  Rng(11)).astype(np.float64)
        docs = [[3, 7, 9, 2, 13, 5], [6, 6, 10]]
        lm_err = gradient_check(lambda: lm_loss_and_grads(lm, docs),
                                lm.param_list(), 1e-3)
        # conversation classifier: hidden 4, chunk length 6
        rng = Rng(41)
        scd = ScdModel.create(rng, input_dim=3, hidden_dim=4).astype(np.float64)
        chunks = []
        for i in range(3):
            matrix = rng.uniform(-1, 1, (3 + i, 3), dtype=np.float64)
            chunks.append(ConversationSequence(f"c{i}", matrix, i % 2 == 0))
        scd_err = gradient_check(lambda: scd_loss_and_grads(scd, chunks),
                                 scd.param_list(), 1e-3)
        # author model: 10 features, embedding size 4
        features = [f"f{i}" for i in range(10)]
        author = ShallowModel.create(Rng(6), features, 4).astype(np.float64)
        unit_rng = Rng(7)
        units = []
        for i, label in enumerate(("P", "V", "N", "P", "V")):
            line = [features[int(unit_rng.integers(0, 10))] for _ in range(4)]
            units.append(AuthorUnit(f"a{i}", [line], label))
        author_err = gradient_check(
            lambda: author_loss_and_grads(author, units),
            author.param_list(), 1e-3)
        elapsed = time.monotonic() - start
        detail = (f"lm={lm_err:.2e} scd={scd_err:.2e} author={author_err:.2e} "
                  f"in {elapsed:.1f}s")
        gate(1, "gradient fidelity",
             lm_err < 1e-4 and scd_err < 1e-4 and author_err < 1e-4
             and elapsed < 30.0, detail)


class TestCriterion2CellOracle:
    def test_thousand_randomized_cells(self):
        # one step of the sequence kernel, a (1, 1, 3) input; every other
        # cell has b = 0, the paper's bias-free equations
        start = time.monotonic()
        rng = Rng(2024)
        worst = 0.0
        for i in range(1000):
            params = LstmLayerParams.init(rng, 3, 3, dtype=np.float64)
            if i % 2:
                params.b[:] = 0.0
            x = rng.uniform(-2, 2, (3,), dtype=np.float64)
            s_prev = rng.uniform(-0.95, 0.95, (3,), dtype=np.float64)
            c_prev = rng.uniform(-2, 2, (3,), dtype=np.float64)
            trace = forward_steps(x[None, None], s_prev[None], c_prev[None],
                                  params)
            s, c = scalar_cell_step(x.tolist(), s_prev.tolist(),
                                    c_prev.tolist(), params)
            worst = max(worst, float(np.abs(trace.S[0, 0] - s).max()),
                        float(np.abs(trace.C[0, 0] - c).max()))
        elapsed = time.monotonic() - start
        gate(2, "cell-equation oracle", worst <= 1e-12 and elapsed < 5.0,
             f"max deviation {worst:.2e} over 1000 instances in {elapsed:.1f}s")


class TestCriterion3PerplexityAnchors:
    def test_uniform_and_cyclic_anchors(self):
        start = time.monotonic()
        uniform = LanguageModel.create(make_vocab(94), 6, 8, 35, Rng(3))
        uniform.out_w[:] = 0
        uniform.out_b[:] = 0
        uniform_ppl = perplexity(uniform, [[7, 8, 9, 10, 11, 12]])

        corpus = [["a", "b", "c", "d", "e"] * 30]
        vocab = build_vocabulary(corpus, min_tf=1)
        doc = [vocab.index_of[t] for t in corpus[0]]
        cyclic = LanguageModel.create(vocab, 8, 8, 35, Rng(5))
        train_lm([doc], cyclic, PipelineConfig(lm_epochs=200, lm_lr=0.5),
                 Rng(6))
        cyclic_ppl = perplexity(cyclic, [doc])
        elapsed = time.monotonic() - start
        gate(3, "perplexity anchors",
             abs(uniform_ppl - 100.0) < 1e-6 and cyclic_ppl < 1.05
             and elapsed < 120.0,
             f"uniform={uniform_ppl:.8f} cyclic={cyclic_ppl:.4f} "
             f"in {elapsed:.1f}s")


class TestCriterion4MetricReproduction:
    def test_reference_rows_to_four_decimals(self):
        rows = [
            (0.9804, 0.7874, "0.8734", "0.9346"),
            (1.0, 0.8110, "0.8956", "0.9555"),
        ]
        results = []
        for p, r, f1_want, f05_want in rows:
            f1 = f"{f_beta_from_pr(p, r, 1.0):.4f}"
            f05 = f"{f_beta_from_pr(p, r, 0.5):.4f}"
            results.append((f1, f05, f1 == f1_want and f05 == f05_want))
        gate(4, "metric reproduction", all(ok for _, _, ok in results),
             "; ".join(f"F1={f1} F0.5={f05}" for f1, f05, _ in results))


class TestCriterion5PreprocessingFixtures:
    def test_rule_suite_bit_exact(self):
        failures = [(raw, want, normalize_text(raw))
                    for raw, want in NORMALIZATION_FIXTURES
                    if normalize_text(raw) != want]
        gate(5, "preprocessing fixtures",
             len(NORMALIZATION_FIXTURES) >= 20 and not failures,
             f"{len(NORMALIZATION_FIXTURES)} fixtures, "
             f"{len(failures)} mismatches")


class TestCriterion6Chunking:
    def test_part_counts_and_padding(self):
        expectations = {1: 1, 99: 1, 100: 1, 101: 2, 250: 3, 501: 6}
        observed = {}
        clean = True
        for n, want_parts in expectations.items():
            chunks = chunk_and_pad(make_sequence(n, dim=3, seed=n), 100)
            observed[n] = len(chunks)
            rows_total = sum(len(c.matrix) for c in chunks)
            clean &= len(chunks) == want_parts and rows_total == n
            clean &= all(len(c.matrix) <= 100 for c in chunks)
        gate(6, "chunking",
             clean and [observed[k] for k in sorted(observed)] ==
             [expectations[k] for k in sorted(expectations)],
             f"part counts {observed}")


ACCEPT_SEED = 2026


def write_accept_config(path, out_dir):
    path.write_text(f"""[paths]
corpus = {out_dir}/corpus.xml
ground_truth = {out_dir}/truth.txt
out = {out_dir}

[lm]
embedding_dim = 32
hidden_dim = 32
window = 35
epochs = 5
lr = 0.003
optimizer = adam
batch_size = 16

[scd]
hidden_dim = 32
epochs = 80
lr = 0.003
optimizer = adam
batch_size = 16
neg_ratio = 5.0
val_fraction = 0.0

[author]
k = 16
epochs = 8
lr = 0.02
optimizer = adam

[run]
seed = {ACCEPT_SEED}

[synth]
n_conversations = 500
predator_fraction = 0.05
""", encoding="utf-8")
    return path


PIPELINE_ARTIFACTS = ["lm.model", "scd.model", "author.model", "vectors.bin",
                      "vocab.txt", "scd_verdicts.tsv", "author_scores.tsv",
                      "predators.txt", "report.txt", "scd_metrics.txt",
                      "eval_lm.txt", "lm_train.log", "scd_train.log",
                      "author_train.log"]


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """Two full CLI pipeline runs with the same config and seed."""
    runs = []
    for name in ("first", "second"):
        base = tmp_path_factory.mktemp(name)
        out = base / "out"
        out.mkdir()
        cfg = write_accept_config(base / "accept.cfg", out)
        started = time.monotonic()
        assert main(["synth", "--config", str(cfg)]) == 0
        assert main(["pipeline", "--config", str(cfg)]) == 0
        runs.append({"out": out, "seconds": time.monotonic() - started})
    return runs


class TestCriterion7EndToEnd:
    def test_synthetic_run_quality(self, pipeline_runs):
        run = pipeline_runs[0]
        out = run["out"]
        truth = parse_ground_truth(out / "truth.txt")
        parsed = parse_pan_corpus(out / "normalized.xml")
        labels = {c.id: any(m.author in truth for m in c.messages)
                  for c in parsed.conversations}
        tp = fp = tn = fn = 0
        for line in (out / "scd_verdicts.tsv").read_text().splitlines():
            conv_id, _prob, verdict = line.split("\t")
            positive = verdict == "positive"
            if positive and labels[conv_id]:
                tp += 1
            elif positive:
                fp += 1
            elif labels[conv_id]:
                fn += 1
            else:
                tn += 1
        conv_f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        flagged = parse_ground_truth(out / "predators.txt")
        spi_tp = len(flagged & truth)
        spi_fp = len(flagged - truth)
        spi_fn = len(truth - flagged)
        precision = spi_tp / (spi_tp + spi_fp) if flagged else 0.0
        recall = spi_tp / (spi_tp + spi_fn)
        ok = (conv_f1 >= 0.95 and precision == 1.0 and recall >= 0.80
              and run["seconds"] < 600.0)
        gate(7, "end-to-end synthetic run", ok,
             f"conversation F1={conv_f1:.4f}, identification "
             f"P={precision:.4f} R={recall:.4f}, {run['seconds']:.0f}s")


class TestCriterion8Determinism:
    def test_two_runs_byte_identical(self, pipeline_runs):
        first, second = pipeline_runs
        different = [name for name in PIPELINE_ARTIFACTS
                     if (first["out"] / name).read_bytes()
                     != (second["out"] / name).read_bytes()]
        gate(8, "determinism", not different,
             f"{len(PIPELINE_ARTIFACTS)} artifacts compared, "
             f"differing: {different or 'none'}")


class TestCriterion9Persistence:
    def test_round_trip_and_rejection(self, tmp_path):
        vocab = Vocabulary(list(RESERVED_TOKENS) + ["alpha", "beta"],
                           min_term_frequency=2)
        models = {
            "lm": LanguageModel.create(vocab, 4, 5, 7, Rng(2)),
            "scd": ScdModel.create(Rng(3), input_dim=5, hidden_dim=6),
            "author": ShallowModel.create(Rng(4), ["alpha", "beta",
                                                   "alpha beta"], 3),
        }
        bit_equal = True
        for name, model in models.items():
            path = tmp_path / f"{name}.model"
            model_store.save(model, path)
            again = model_store.load(path)
            for a, b in zip(model.param_list(), again.param_list()):
                bit_equal &= bool(np.array_equal(a, b))

        path = tmp_path / "victim.model"
        model_store.save(models["scd"], path)
        raw = bytearray(path.read_bytes())
        rejected = {}
        # corrupted payload
        flipped = bytearray(raw)
        flipped[-8] ^= 0x55
        (tmp_path / "corrupt.model").write_bytes(bytes(flipped))
        try:
            model_store.load(tmp_path / "corrupt.model")
            rejected["corruption"] = False
        except ContainerCorruptionError:
            rejected["corruption"] = True
        except Exception:
            rejected["corruption"] = False
        # version from the future
        newer = bytearray(raw)
        newer[8:12] = (FORMAT_VERSION + 1).to_bytes(4, "little")
        (tmp_path / "newer.model").write_bytes(bytes(newer))
        try:
            model_store.load(tmp_path / "newer.model")
            rejected["version"] = False
        except ContainerVersionError:
            rejected["version"] = True
        except Exception:
            rejected["version"] = False
        # foreign magic
        foreign = bytearray(raw)
        foreign[:8] = b"ZZZZZZZZ"
        (tmp_path / "foreign.model").write_bytes(bytes(foreign))
        try:
            model_store.load(tmp_path / "foreign.model")
            rejected["magic"] = False
        except ContainerFormatError:
            rejected["magic"] = True
        except Exception:
            rejected["magic"] = False
        # truncation
        (tmp_path / "short.model").write_bytes(bytes(raw[:-5]))
        try:
            model_store.load(tmp_path / "short.model")
            rejected["truncation"] = False
        except ContainerCorruptionError:
            rejected["truncation"] = True
        except Exception:
            rejected["truncation"] = False
        ok = bit_equal and all(rejected.values())
        gate(9, "persistence", ok,
             f"round-trip bit-equal={bit_equal}, rejections={rejected}")


class TestCriterion10OptionalExtended:
    def test_extended_targets_need_restricted_corpus(self):
        print("\n[ACCEPTANCE] criterion 10 (optional extended run): SKIP "
              "[requires the access-restricted chat corpus / full review "
              "dataset; stretch targets, not gates]", flush=True)
        pytest.skip("optional extended run needs user-supplied corpora")
