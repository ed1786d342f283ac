#!/usr/bin/env python3
"""Measure the memory peak of the stages that hold the whole corpus.

    python3 tools/corpus_memory.py --conversations 4000
    python3 tools/corpus_memory.py --conversations 4000 --src <checkout>/src

Writes a config into a temp directory that is configs/synth-accept.cfg
with its paths moved there and `[synth] n_conversations` set to
--conversations, and runs `chatscreen synth` on it, so the corpus comes
from the acceptance recipe's generator settings and seed. Then
`preprocess`, `build-vocab`, `train-author` and `score-authors` run in
turn, each in a fresh Python process with the BLAS pinned to one thread.
For each stage it prints the stage's wall time, the process's peak
resident set when the stage returns (VmHWM in /proc/self/status, so Linux
only) and the first 16 hex digits of a SHA-256 of the files the stage
writes. Equal hashes from two checkouts mean equal outputs.

--src picks the package source tree to measure (default: this checkout's
`src/`), so another revision runs under the same script. Standard library
and the package only; outside the test suite.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CONFIG = REPO / "configs" / "synth-accept.cfg"
STAGES = ("preprocess", "build-vocab", "train-author", "score-authors")


def vm_kb(field: str) -> int:
    """A size field of /proc/self/status, in kB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def run_stage(stage: str, config: Path) -> str:
    """Run one stage in this process; return its report line."""
    from chatscreen import pipeline
    from chatscreen.cli import main
    from chatscreen.config import load_config

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([stage, "--config", str(config)])
    wall = time.perf_counter() - start
    peak = vm_kb("VmHWM")
    if code != 0:
        raise SystemExit(f"{stage} exited {code}")
    cfg = load_config(str(config))
    if stage == "synth":
        return (f"corpus: {cfg.synth_n_conversations} conversations, "
                f"{Path(cfg.corpus).stat().st_size / 1024 ** 2:.1f} MB "
                "of XML")
    out = Path(cfg.out)
    writes = next(w for fn, w in pipeline.STAGES
                  if pipeline.command_name(fn) == stage)
    digest = hashlib.sha256()
    for name in writes:
        digest.update(name.encode() + b"\0" + (out / name).read_bytes())
    return (f"{stage:<14} wall {wall:7.2f} s  VmHWM {peak / 1024:7.1f} MB  "
            f"outputs sha256 {digest.hexdigest()[:16]}")


def write_config(path: Path, conversations: int) -> None:
    cfg = configparser.ConfigParser()
    cfg.read(CONFIG, encoding="utf-8")
    cfg["paths"] = {"corpus": str(path.parent / "corpus.xml"),
                    "ground_truth": str(path.parent / "truth.txt"),
                    "out": str(path.parent)}
    cfg["synth"]["n_conversations"] = str(conversations)
    with open(path, "w", encoding="utf-8") as fh:
        cfg.write(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--conversations", type=int, required=True,
                        help="size of the synthetic corpus")
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="package source tree to measure")
    parser.add_argument("--stage", help=argparse.SUPPRESS)  # set in a child
    parser.add_argument("--config", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.conversations < 1:
        parser.error("need --conversations >= 1")
    if args.stage:
        sys.path.insert(0, str(args.src))
        print(run_stage(args.stage, args.config), flush=True)
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        write_config(config, args.conversations)
        for stage in ("synth",) + STAGES:
            done = subprocess.run(
                [sys.executable, __file__, "--conversations",
                 str(args.conversations), "--src", str(args.src.resolve()),
                 "--stage", stage, "--config", str(config)],
                env=env)
            if done.returncode != 0:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
