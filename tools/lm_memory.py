#!/usr/bin/env python3
"""Measure the language model's memory peak at a given vocabulary and width.

    python3 tools/lm_memory.py --vocab 10000 --width 200
    python3 tools/lm_memory.py --vocab 262 --width 32     # acceptance shape
    python3 tools/lm_memory.py --vocab 262 --width 32 --src <checkout>/src

Builds a model of --vocab tokens (the six reserved ones included), with
embedding and hidden size --width and 35-step windows, on 96 documents
of 2 to 120 random tokens drawn from seed 1 (module constants). Then two
measurements run, each in a fresh Python process with the BLAS pinned to
one thread: one `perplexity` pass over the documents, and one `train_lm`
epoch over them with the [lm] recipe of configs/synth-accept.cfg (Adam,
lr 0.003, batches of 16). Each prints how far the call raised the
process's peak resident set (VmHWM in /proc/self/status, so Linux only),
that peak, and the first 16 hex digits of a SHA-256 of its result: the
perplexity's repr, or the bytes of the trained parameters. Equal hashes
from two checkouts mean equal results.

--src picks the package source tree to measure (default: this checkout's
`src/`), so another revision runs under the same script. Standard library
and the package only; outside the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WINDOW = 35
N_DOCS = 96
MAX_LEN = 120
SEED = 1
PASSES = ("perplexity", "train_lm")


def vm_kb(field: str) -> int:
    """A size field of /proc/self/status, in kB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def measure(what: str, vocab_size: int, width: int) -> str:
    """Run one pass in this process; return its report line."""
    from chatscreen.config import PipelineConfig
    from chatscreen.core_math import Rng
    from chatscreen.language_model import LanguageModel, perplexity, train_lm
    from chatscreen.preprocessing import RESERVED_TOKENS, Vocabulary

    n_reserved = len(RESERVED_TOKENS)
    vocab = Vocabulary(list(RESERVED_TOKENS) + [
        f"w{i}" for i in range(vocab_size - n_reserved)], min_term_frequency=1)
    model = LanguageModel.create(vocab, width, width, WINDOW, Rng(SEED))
    draw = random.Random(SEED)
    docs = [[draw.randrange(n_reserved, vocab_size)
             for _ in range(draw.randint(2, MAX_LEN))] for _ in range(N_DOCS)]
    before = vm_kb("VmHWM")
    if what == "perplexity":
        result = repr(perplexity(model, docs)).encode()
    else:
        cfg = PipelineConfig(lm_epochs=1, lm_lr=0.003, lm_optimizer="adam",
                             lm_batch_size=16, lm_window=WINDOW)
        train_lm(docs, model, cfg, Rng(SEED + 1))
        result = b"".join(p.tobytes() for p in model.param_list())
    after = vm_kb("VmHWM")
    digest = hashlib.sha256(result).hexdigest()[:16]
    return (f"{what:<10} V={vocab_size} width={width}: VmHWM "
            f"+{(after - before) / 1024:.1f} MB (peak {after / 1024:.1f} MB), "
            f"result sha256 {digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--vocab", type=int, required=True,
                        help="vocabulary size, reserved tokens included")
    parser.add_argument("--width", type=int, required=True,
                        help="embedding and hidden size")
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="package source tree to measure")
    parser.add_argument("--pass", dest="only", choices=PASSES,
                        help=argparse.SUPPRESS)    # the child's one pass
    args = parser.parse_args(argv)
    if args.vocab < 7 or args.width < 1:
        parser.error("need --vocab >= 7 and --width >= 1")
    if args.only:
        sys.path.insert(0, str(args.src))
        print(measure(args.only, args.vocab, args.width), flush=True)
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    failed = 0
    for what in PASSES:
        done = subprocess.run(
            [sys.executable, __file__, "--vocab", str(args.vocab),
             "--width", str(args.width), "--src", str(args.src.resolve()),
             "--pass", what], env=env)
        failed |= done.returncode != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
