"""The package names that benchmarks/ looks up must exist.

The benchmark worker calls `pipeline.run_<stage>` by name, and a traced run
wraps package functions by module attribute. A rename under src/chatscreen
would break every benchmark run, or every traced one, without failing
another test. The tracer also keeps its own list of the stages, which must
match `pipeline.STAGES` in order, so a stage added to the table is traced
too. A sentence vector made after the tracer is installed must land in
the spans that the per-layer metrics read. The check runs in its own
process because installing the tracer replaces package functions for the
rest of that process.
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
"""


def test_tracer_installs_and_every_stage_function_exists():
    path = [str(ROOT / "benchmarks"), str(ROOT / "src"),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
