#!/usr/bin/env python3
"""Check that the working tree writes the same artifacts as a base revision.

    python3 tools/same_artifacts.py --base <rev>

Extracts `src/` and `configs/` of <rev> with `git archive`, then runs
`chatscreen synth` + `chatscreen pipeline --config configs/synth-accept.cfg`
for that revision and for the working tree, at seeds 2026 and 7, with the
BLAS pinned to one thread (artifacts depend on the thread count). Every
file of the two output directories (18 for this config: the corpus, its
truth file, the normalized corpus, the filter report and the 14 stage
artifacts) is compared byte for byte. Prints one line per seed and exits 1
naming each file that differs or exists on one side only.

Standard library only; the two sides of a seed run side by side, one
process each. A run takes a few minutes.
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
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CONFIG = Path("configs") / "synth-accept.cfg"
SEEDS = (2026, 7)


def extract(rev: str, dest: Path) -> None:
    """src/ and configs/ of `rev` into dest."""
    git = subprocess.run(["git", "archive", "--format=tar", rev, "src",
                          "configs"], cwd=REPO, capture_output=True)
    if git.returncode != 0:
        sys.exit(f"git archive {rev}: {git.stderr.decode(errors='replace')}")
    with tarfile.open(fileobj=io.BytesIO(git.stdout)) as archive:
        archive.extractall(dest, filter="data")


def start(tree: Path, run_dir: Path, stage: str,
          seed: int) -> subprocess.Popen:
    """One chatscreen stage from one source tree, run in run_dir, where the
    config's relative paths put the outputs (run_dir/out-synth)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(
        [sys.executable, "-m", "chatscreen.cli", stage,
         "--config", str(tree / CONFIG), "--seed", str(seed)],
        cwd=run_dir, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)


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
        for seed in SEEDS:
            trees = {"base": tmp / "base", "work": REPO}
            runs = {side: tmp / f"{side}-{seed}" for side in trees}
            for run_dir in runs.values():
                run_dir.mkdir()
            for stage in ("synth", "pipeline"):
                procs = {side: start(tree, runs[side], stage, seed)
                         for side, tree in trees.items()}
                errors = {side: proc.communicate()[1]
                          for side, proc in procs.items()}
                for side, proc in procs.items():
                    if proc.returncode != 0:
                        print(f"seed {seed}: {stage} of the {side} tree "
                              f"failed (exit {proc.returncode}):\n"
                              f"{errors[side]}", file=sys.stderr)
                        return 1
            same, differ = compare(runs["base"] / "out-synth",
                                   runs["work"] / "out-synth")
            if differ:
                failed = True
                print(f"seed {seed}: {len(differ)} of {len(same) + len(differ)}"
                      f" files differ: {', '.join(differ)}")
            else:
                print(f"seed {seed}: all {len(same)} files identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
