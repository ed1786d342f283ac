"""The package names that benchmarks/ looks up must exist.

The benchmark worker calls `pipeline.run_<stage>` by name, and a traced run
wraps package functions by module attribute. A rename under src/chatscreen
would break every benchmark run, or every traced one, without failing
another test. The tracer also keeps its own list of the stages, which must
match `pipeline.STAGES` in order, so a stage added to the table is traced
too. The check runs in its own process because installing the
tracer replaces package functions for the rest of that process.
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
tracer.install(tracer.Tracer())
"""


def test_tracer_installs_and_every_stage_function_exists():
    path = [str(ROOT / "benchmarks"), str(ROOT / "src"),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
