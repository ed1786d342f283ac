#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 benchmarks/selftest.py

Runs the pipeline once on a small noisy corpus with a short recipe (about
ten seconds), requires every check to pass on its outputs, then corrupts
one output at a time in a copy and requires the named check to report a
failed operation:

  flipped verdict    one row of scd_verdicts.tsv says the opposite
  perturbed vector   one element of a sampled sentence vector moves by 1e-2
  dropped score row  one line of author_scores.tsv is missing

Exits 0 when the pristine run passes and every corruption is caught.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from pathlib import Path

import run

SEED = 7
CORPUS = {"n_conversations": 60, "predator_fraction": 0.2}
RECIPE = {"lm_epochs": 1, "scd_epochs": 4, "author_epochs": 2}


def flip_verdict(out: Path) -> None:
    path = out / "scd_verdicts.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    conv_id, prob, verdict = lines[0].split("\t")
    flipped = "negative" if verdict == "positive" else "positive"
    lines[0] = f"{conv_id}\t{prob}\t{flipped}"
    path.write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")


def perturb_vector(out: Path) -> None:
    import checks
    from chatscreen import model_store
    view = run._view(out, out.parent / "corpus")
    # the first message the vector check will sample
    messages = [(conv.id, row, m.text) for conv in view.conversations
                for row, m in enumerate(conv.messages)]
    conv_id, row, _ = checks._sample(SEED, checks.VECTOR_SAMPLE,
                                     messages)[0]
    bundle = model_store.load(out / "vectors.bin")
    matrix = bundle.matrices[bundle.conversation_ids.index(conv_id)]
    matrix[row, 0] += 1e-2
    model_store.save(bundle, out / "vectors.bin")


def drop_score_row(out: Path) -> None:
    path = out / "author_scores.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    del lines[len(lines) // 2]
    path.write_text("".join(f"{l}\n" for l in lines), encoding="utf-8")


CORRUPTIONS = [("flipped verdict", flip_verdict, "verdict_rows"),
               ("perturbed vector", perturb_vector, "vectors_reference"),
               ("dropped score row", drop_score_row, "score_rows")]


def failed_checks(out: Path) -> list[str]:
    import checks
    view = run._view(out, out.parent / "corpus")
    return [name for name, reason in checks.run_checks(
        view, SEED, lm_eval=True) if reason is not None]


def main() -> int:
    run.bootstrap()
    workdir = run.OUT_ROOT / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        corpus, out = workdir / "corpus", workdir / "pristine"
        spec = dict(run._synth_spec(SEED), **CORPUS)
        worker = run.Worker(workdir, time.monotonic() + run.RUN_DEADLINE_S)
        result, error = worker.run([
            run._corpus_task(corpus, spec, noise_seed=SEED),
            run._stages_task(["pipeline"], corpus, out, SEED, RECIPE)],
            trace=False)
        errors = [error] if result is None else [
            t["error"] for t in result["tasks"] if not t["ok"]]
        if errors:
            print(f"selftest: pipeline failed: {errors}")
            return 1
        ok = True
        pristine = failed_checks(out)
        print(f"pristine outputs: failed checks {pristine or 'none'}")
        ok &= not pristine
        for label, corrupt, expected in CORRUPTIONS:
            copy = workdir / label.replace(" ", "-")
            shutil.copytree(out, copy)
            corrupt(copy)
            failed = failed_checks(copy)
            caught = expected in failed
            ok &= caught
            print(f"{label}: failed checks {failed or 'none'} -> "
                  f"{'caught' if caught else 'MISSED'} by {expected}")
        print("selftest: " + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
