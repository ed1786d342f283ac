"""The package names that benchmarks/ looks up must exist.

The benchmark worker calls `pipeline.run_<stage>` by name, and a traced run
wraps package functions by module attribute. A rename under src/chatscreen
would break every benchmark run, or every traced one, without failing
another test. The tracer also keeps its own list of the stages, which must
match `pipeline.STAGES` in order, so a stage added to the table is traced
too. A sentence vector made after the tracer is installed must land in
the spans that the per-layer metrics read. The benchmark's correctness
check compares sampled outputs with a float64 reference that reads model
members by name (`ScdModel.masked`, the gate views `Ui` ... `bg`), so the
reference must agree with the package on a small model of each kind. The
check runs in its own process because installing the tracer replaces
package functions for the rest of that process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]

CHECK = """
import tracer
import worker
from chatscreen import pipeline

names = [f"run_{stage}" for stage in tracer.STAGES] + ["run_pipeline"]
missing = [n for n in names if not callable(getattr(pipeline, n, None))]
assert not missing, f"pipeline lacks {missing}"
assert set(worker.STAGE_FUNCTIONS.values()) == set(names)
commands = [pipeline.command_name(fn) for fn, _writes in pipeline.STAGES]
assert [c.replace("-", "_") for c in commands] == list(tracer.STAGES), \
    f"pipeline.STAGES {commands} != tracer.STAGES {tracer.STAGES}"
spans = tracer.Tracer()
tracer.install(spans)

# one sentence vector, passed the way vectorize passes its model, lands in
# the spans that the per-layer metrics read
from chatscreen import scd_classifier
from chatscreen.core_math import Rng
from chatscreen.language_model import LanguageModel
from chatscreen.preprocessing import RESERVED_TOKENS, Vocabulary, encode
vocab = Vocabulary(list(RESERVED_TOKENS) + ["hi"], min_term_frequency=1)
lm = LanguageModel.create(vocab, 4, 4, 10, Rng(1))
tokens = ["hi", "there"]
scd_classifier.sentence_vector(lm.read_only(), tokens)
raw = spans.dump()
assert raw["language_model.sentence_vector"]["calls"] == 1, raw
assert raw["language_model.sentence_vector"]["distinct"] == 1, raw
assert raw["lstm.forward_steps"]["calls"] == 2, raw
steps = len(encode(tokens, vocab, lm.window))
assert raw["lstm.forward_steps"]["count"] == 2 * steps, raw

# the benchmark's float64 reference re-derives the sentence vector and the
# SCD read-out of a chunk that ends before chunk_len, and of one that fills it
import numpy as np
import reference
from chatscreen.preprocessing import tokenize
index = {tok: i for i, tok in enumerate(vocab.tokens)}
for text in ["hi", "hi there !", " ".join(["hi"] * 12)]:
    got = scd_classifier.sentence_vector(lm.read_only(), tokenize(text))
    err = np.abs(got - reference.sentence_vector(lm, index, text)).max()
    assert err <= reference.TOLERANCE, (text, err)
scd = scd_classifier.ScdModel.create(Rng(2), input_dim=4, hidden_dim=3)
# at the initial scale, reading a chunk after zero padding instead of at its
# last real row moves a probability by less than TOLERANCE; at 4x, by 3e-3
for param in scd.param_list():
    param *= 4
rng = Rng(3)
sequences = [scd_classifier.ConversationSequence(
                 f"c{n}", rng.uniform(-1, 1, (n, 4))) for n in (1, 3, 5, 12)]
got = scd_classifier.predict_scd(scd, sequences, 5)
want = [max(reference.chunk_probabilities(scd, seq.matrix, 5))
        for seq in sequences]
assert np.abs(got - want).max() <= reference.TOLERANCE, (got, want)
"""


def test_tracer_installs_and_every_stage_function_exists():
    path = [str(ROOT / "benchmarks"), str(ROOT / "src"),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
