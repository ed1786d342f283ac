#!/usr/bin/env python3
"""Check that the working tree writes the same artifacts as a base revision.

    python3 tools/same_artifacts.py --base <rev>

Extracts `src/` and `configs/` of <rev> with `git archive`, then runs
`chatscreen synth` + `chatscreen pipeline --config configs/synth-accept.cfg`
for that revision and for the working tree, at seeds 2026 and 7, with the
BLAS pinned to one thread (artifacts depend on the thread count). A third
pass runs the acceptance recipe at the default LSTM width (embedding and
hidden size 200) on 60 conversations, 1 LM epoch and 2 SCD epochs, seed
2026, from a config the tool writes into its temp directory, so both
sides read the same file: at 32 wide the acceptance shape never reaches
the BLAS paths that a B = 1 product takes at 64 wide and more. Every file
of the two output directories (18 for these configs: the corpus, its
truth file, the normalized corpus, the filter report and the 14 stage
artifacts) is compared byte for byte. Each pass also runs the working
tree's ten stages one process each, `synth` + `preprocess` ...
`identify`, and compares their outputs with the working tree's `pipeline`
outputs, which checks that in-process reuse inside `pipeline` changes
nothing. Prints two lines per pass and exits 1 naming each file that
differs or exists on one side only.

The stagewise command list comes from the working tree's
`pipeline.STAGES`, so the tool imports the working tree's package (and
numpy with it). The three runs of a pass go side by side, each one
process at a time. A run takes a few minutes.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
from chatscreen import pipeline  # noqa: E402  (the working tree's package)

CONFIG = Path("configs") / "synth-accept.cfg"
SEEDS = (2026, 7)
WIDE_CONFIG = """\
[paths]
corpus = out-synth/corpus.xml
ground_truth = out-synth/truth.txt
out = out-synth

[lm]
embedding_dim = 200
hidden_dim = 200
epochs = 1
lr = 0.003
optimizer = adam
batch_size = 16

[scd]
hidden_dim = 200
epochs = 2
lr = 0.003
optimizer = adam
batch_size = 16
val_fraction = 0.0

[author]
lr = 0.02
optimizer = adam

[synth]
n_conversations = 60
predator_fraction = 0.05
"""


def extract(rev: str, dest: Path) -> None:
    """src/ and configs/ of `rev` into dest."""
    git = subprocess.run(["git", "archive", "--format=tar", rev, "src",
                          "configs"], cwd=REPO, capture_output=True)
    if git.returncode != 0:
        sys.exit(f"git archive {rev}: {git.stderr.decode(errors='replace')}")
    with tarfile.open(fileobj=io.BytesIO(git.stdout)) as archive:
        archive.extractall(dest, filter="data")


def run_chain(tree: Path, config: Path, run_dir: Path, stages,
              seed: int) -> str | None:
    """chatscreen stages from one source tree, one process each, run in
    run_dir, where the config's relative paths put the outputs
    (run_dir/out-synth). Returns None, or how the first failing stage
    failed."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    run_dir.mkdir()
    for stage in stages:
        done = subprocess.run(
            [sys.executable, "-m", "chatscreen.cli", stage,
             "--config", str(config), "--seed", str(seed)],
            cwd=run_dir, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            return f"{stage} failed (exit {done.returncode}):\n{done.stderr}"
    return None


def compare(a: Path, b: Path) -> tuple[list[str], list[str]]:
    """(names identical on both sides, names that differ or are one-sided)."""
    names = sorted({p.name for p in a.iterdir()}
                   | {p.name for p in b.iterdir()})
    same, differ = [], []
    for name in names:
        fa, fb = a / name, b / name
        ok = (fa.is_file() and fb.is_file()
              and filecmp.cmp(fa, fb, shallow=False))
        (same if ok else differ).append(name)
    return same, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory(prefix="same-artifacts-") as tmp:
        tmp = Path(tmp)
        extract(args.base, tmp / "base")
        wide = tmp / "wide.cfg"
        wide.write_text(WIDE_CONFIG)
        passes = [(f"seed {seed}", seed, None) for seed in SEEDS]
        passes.append((f"200-wide, seed {SEEDS[0]}", SEEDS[0], wide))
        stagewise = tuple(pipeline.command_name(fn)
                          for fn, _writes in pipeline.STAGES)
        for n, (label, seed, config) in enumerate(passes):
            chains = {"base": (tmp / "base", ("synth", "pipeline")),
                      "work": (REPO, ("synth", "pipeline")),
                      "stages": (REPO, ("synth",) + stagewise)}
            runs = {run: tmp / f"{run}-{n}" for run in chains}
            with ThreadPoolExecutor(len(chains)) as pool:
                futures = {run: pool.submit(run_chain, tree,
                                            config or tree / CONFIG,
                                            runs[run], stages, seed)
                           for run, (tree, stages) in chains.items()}
            for run, future in futures.items():
                error = future.result()
                if error is not None:
                    print(f"{label}: the {run} run's {error}",
                          file=sys.stderr)
                    return 1
            out = {run: run_dir / "out-synth" for run, run_dir in runs.items()}
            for what, a, b in [("base vs working tree", "base", "work"),
                               ("stagewise vs pipeline", "stages", "work")]:
                same, differ = compare(out[a], out[b])
                if differ:
                    failed = True
                    print(f"{label}, {what}: {len(differ)} of "
                          f"{len(same) + len(differ)} files differ: "
                          f"{', '.join(differ)}")
                else:
                    print(f"{label}, {what}: all {len(same)} files "
                          "identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
