#!/usr/bin/env python3
"""chatscreen benchmark: training and held-out screening, end to end.

    python3 benchmarks/run.py --workload train-accept --seed 2026 \
        --seconds 10 --trace 0

Workloads (see README.md in this directory):

  train-accept    set-up synthesizes the acceptance corpus; the timed part
                  is the full ten-stage `pipeline`.
  screen-heldout  set-up trains the three models on one corpus; the timed
                  part screens fresh, noisier batches of chats they never
                  saw, one batch after another.

Every program process runs in a worker (`worker.py`) with the BLAS pinned
to one thread. The timed part is repeated in whole rounds until --seconds
have passed (at least one round); a round is one timed task (train-accept)
or one per batch (screen-heldout), and times are medians over the timed
tasks of all rounds, each scaled to the reference host's speed
(`speed.py`). The first round's outputs are checked (`checks.py`),
later rounds must repeat them byte for byte. With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of the first round, and of
set-up for the layers that round never called.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASE_CONFIG = ROOT / "configs" / "synth-accept.cfg"
OUT_ROOT = ROOT / ".bench_out"

# One BLAS thread everywhere: a second thread doubles CPU time without
# lowering wall time, and changes the bytes of the trained models.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

SETUP_REPEATS = 9            # corpus generations per train-accept set-up
CORPUS_SEED = 2026           # configs/synth-accept.cfg's seed
RUN_DEADLINE_S = 170.0       # no new round starts past this point

# screen-heldout: the models' training recipe, applied over
# configs/synth-accept.cfg, and the screening corpus.
SCREEN_TRAIN_CORPUS = {"n_conversations": 200, "predator_fraction": 0.25}
SCREEN_TRAIN_RECIPE = {"scd_epochs": 40}
# Ten batches of 100 conversations: the median over ten timed batches
# rides out the host's changes of pace better than one long screening,
# and quality is counted over all 1,000 conversations.
SCREEN_BATCHES = 10
SCREEN_BATCH = {"n_conversations": 100, "predator_fraction": 0.5}
SCREEN_STAGES = ["preprocess", "vectorize", "eval-scd", "score-authors",
                 "identify"]
MODEL_FILES = ("lm.model", "scd.model", "author.model")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "msgs_per_s": "msg/s",
    "peak_rss_mb": "MB", "conv_f1": "ratio", "predator_precision": "ratio",
    "predator_recall": "ratio", "predator_f05": "ratio",
}


def bootstrap() -> None:
    """Pin the BLAS and put the program's sources on the path. Must run
    before anything imports numpy."""
    if not (SRC / "chatscreen" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: program sources not found at {SRC}")
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))


class Worker:
    """Starts worker.py processes in one working directory and collects
    their results with the kernel's accounting of each."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def run(self, tasks: list[dict], trace: bool) -> tuple[dict | None,
                                                           str | None]:
        """(result, None), or (None, why) for a worker killed at the run
        deadline or dead without writing its result."""
        self.count += 1
        stem = self.workdir / f"worker{self.count}"
        result_path = stem.with_suffix(".result.json")
        stem.with_suffix(".spec.json").write_text(json.dumps(
            {"tasks": tasks, "trace": trace, "result": str(result_path)}),
            encoding="utf-8")
        env = dict(os.environ, **PINNED_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with open(stem.with_suffix(".log"), "wb") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"),
                 str(stem.with_suffix(".spec.json"))],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not result_path.is_file():
            tail = stem.with_suffix(".log").read_text(errors="replace")[-2000:]
            print(f"benchmark: {stem.name} log tail:\n{tail}", file=sys.stderr)
            why = f"exited with {proc.returncode}"
            if time.monotonic() >= self.deadline:
                why += " (killed at the run deadline)"
            return None, why
        result = json.loads(result_path.read_text(encoding="utf-8"))
        # ru_maxrss is in KiB on Linux; the speed probe's arrays stay
        # resident throughout, so their bytes come off the peak whole
        result["peak_rss_mb"] = (usage.ru_maxrss * 1024.0
                                 - result["probe_bytes"]) / 2**20
        return result, None


class Ledger:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{name}: {reason}")

    def worker(self, name: str, result: dict | None,
               error: str | None) -> None:
        """One operation per stage a worker ran (or failed to run), and one
        for its BLAS running on a single thread; a worker that died is one
        failed operation."""
        if result is None:
            self.record(f"{name}.worker", error)
            return
        threads = result["blas_threads"]
        self.record(f"{name}.blas_one_thread",
                    None if threads in (1, None) else f"{threads} threads")
        for task in result["tasks"]:
            for stage in task["done"]:
                self.record(f"{name}.{stage}", None)
            if not task["ok"]:
                self.record(f"{name}.{task['op']}", task["error"])


def _synth_spec(seed: int) -> dict:
    """The generator settings `chatscreen synth` derives from the config."""
    from chatscreen.config import load_config
    from chatscreen.core_math import Rng
    cfg = load_config(BASE_CONFIG)
    return {"seed": Rng(seed).derive("synth").seed,
            "n_conversations": cfg.synth_n_conversations,
            "predator_fraction": cfg.synth_predator_fraction,
            "geometric_p": cfg.synth_geometric_p,
            "marker_density": cfg.synth_marker_density}


def _stages_task(stages, corpus_dir: Path, out: Path, seed: int,
                 recipe: dict | None = None) -> dict:
    overrides = {"corpus": str(corpus_dir / "corpus.xml"),
                 "ground_truth": str(corpus_dir / "truth.txt"),
                 "out": str(out), "seed": seed, **(recipe or {})}
    return {"op": "stages", "stages": list(stages),
            "base_config": str(BASE_CONFIG), "overrides": overrides}


def _corpus_task(out: Path, spec: dict, noise_seed: int | None) -> dict:
    return {"op": "corpus", "out": str(out), "spec": spec,
            "noise_seed": noise_seed}


class TrainAccept:
    """Set-up: the acceptance corpus (always the one of seed 2026, the
    ROADMAP's reference run), generated SETUP_REPEATS times. Timed:
    `chatscreen pipeline` over it, with --seed as the run seed that
    initializes and shuffles the training."""

    lm_eval = True
    gate = True          # criterion 7's gate is reported

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.corpus = workdir / "corpus0"
        self.batches = [self.corpus]     # the input of each timed task

    def setup_tasks(self) -> list[dict]:
        spec = _synth_spec(CORPUS_SEED)
        return [_corpus_task(self.workdir / f"corpus{i}", spec, None)
                for i in range(SETUP_REPEATS)]

    def setup_seconds(self, result: dict) -> float:
        return statistics.median(t["wall_s"] for t in result["tasks"])

    def setup_checks(self, ledger: Ledger) -> None:
        first = (self.corpus / "corpus.xml").read_bytes()
        same = all((self.workdir / f"corpus{i}" / "corpus.xml").read_bytes()
                   == first for i in range(1, SETUP_REPEATS))
        ledger.record("setup.corpus_deterministic",
                      None if same else "corpus bytes differ between "
                                        "generations from one seed")

    def round_tasks(self, out: Path) -> list[dict]:
        return [_stages_task(["pipeline"], self.corpus, out, self.seed)]

    def round_outputs(self, out: Path) -> list[Path]:
        return [out]


class ScreenHeldout:
    """Set-up: a training corpus, `pipeline` over it with the screening
    recipe, and SCREEN_BATCHES fresh noisy corpora. Timed, once per batch:
    preprocess, vectorize, eval-scd, score-authors and identify."""

    lm_eval = False
    gate = False

    def __init__(self, seed: int, workdir: Path):
        from chatscreen.core_math import Rng
        self.seed = seed
        self.workdir = workdir
        self.train_corpus = workdir / "train-corpus"
        self.train_out = workdir / "train-out"
        self.batches = [workdir / "screen-corpus" / f"batch{k}"
                        for k in range(SCREEN_BATCHES)]
        rng = Rng(seed)
        self.seeds = [(rng.derive(f"bench-screen-{k}").seed,
                       rng.derive(f"bench-noise-{k}").seed)
                      for k in range(SCREEN_BATCHES)]

    def setup_tasks(self) -> list[dict]:
        # the models are fixed, as deployed ones are; --seed draws the
        # traffic they screen
        train_spec = dict(_synth_spec(CORPUS_SEED), **SCREEN_TRAIN_CORPUS)
        return [
            _corpus_task(self.train_corpus, train_spec, None),
            _stages_task(["pipeline"], self.train_corpus, self.train_out,
                         CORPUS_SEED, SCREEN_TRAIN_RECIPE),
        ] + [_corpus_task(batch, dict(SCREEN_BATCH, seed=seed), noise_seed)
             for batch, (seed, noise_seed) in zip(self.batches, self.seeds)]

    def setup_seconds(self, result: dict) -> float:
        return sum(t["wall_s"] for t in result["tasks"])

    def setup_checks(self, ledger: Ledger) -> None:
        import checks
        view = _view(self.train_out, self.train_corpus)
        for name, reason in checks.run_checks(view, self.seed, lm_eval=True):
            ledger.record(f"setup.{name}", reason)

    def round_tasks(self, out: Path) -> list[dict]:
        tasks = []
        for batch_out, batch in zip(self.round_outputs(out), self.batches):
            batch_out.mkdir(parents=True)
            for name in MODEL_FILES:
                shutil.copyfile(self.train_out / name, batch_out / name)
            tasks.append(_stages_task(SCREEN_STAGES, batch, batch_out,
                                      self.seed))
        return tasks

    def round_outputs(self, out: Path) -> list[Path]:
        return [out / batch.name for batch in self.batches]


WORKLOADS = {"train-accept": TrainAccept, "screen-heldout": ScreenHeldout}


def _view(out: Path, corpus_dir: Path):
    import checks
    from chatscreen.config import load_config
    cfg = load_config(BASE_CONFIG)
    truth = json.loads((corpus_dir / "bench_truth.json").read_text())
    return checks.RunView(out, truth, cfg.scd_threshold, cfg.scd_chunk_len)


def _artifact_bytes(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> dict:
    import checks
    import tracer as tracing

    start = time.monotonic()
    workers = Worker(workdir, start + RUN_DEADLINE_S)
    workload = WORKLOADS[workload_name](seed, workdir)
    ledger = Ledger()

    setup, error = workers.run(workload.setup_tasks(), trace)
    ledger.worker("setup", setup, error)
    setup_ok = not ledger.failures
    if setup_ok:
        workload.setup_checks(ledger)

    rounds = []      # per round: duration, peak RSS, trace
    timed = []       # per timed task of every round: wall, CPU, messages
    checked = False
    gate_note = None
    timed_start = time.monotonic()
    while setup_ok and (not rounds
                        or time.monotonic() - timed_start < seconds):
        if rounds and (time.monotonic() - start
                       + rounds[-1]["wall_s"] * 1.5 > RUN_DEADLINE_S):
            break
        out = workdir / f"round{len(rounds)}"
        result, error = workers.run(workload.round_tasks(out),
                                    trace and not rounds)
        ledger.worker("timed", result, error)
        if result is None:
            break
        tasks = result["tasks"]
        rounds.append({"wall_s": sum(t["raw_wall_s"] for t in tasks),
                       "peak_rss_mb": result["peak_rss_mb"],
                       "trace": result["trace"]})
        if not all(t["ok"] for t in tasks):
            break
        for task, batch in zip(tasks, workload.batches):
            truth = json.loads((batch / "bench_truth.json").read_text())
            timed.append({"wall_s": task["wall_s"], "cpu_s": task["cpu_s"],
                          "raw_wall_s": task["raw_wall_s"],
                          "speed": task.get("speed"),
                          "messages": truth["messages"]})
        if not checked:
            checked = True
            views = []
            for batch_out, batch in zip(workload.round_outputs(out),
                                        workload.batches):
                prefix = "" if batch_out == out else f"{batch_out.name}."
                views.append(_view(batch_out, batch))
                for name, reason in checks.run_checks(
                        views[-1], seed, lm_eval=workload.lm_eval):
                    ledger.record(prefix + name, reason)
            quality = checks.quality(views)
            if workload.gate:
                miss = checks.quality_gate(quality)
                gate_note = "met" if miss is None else f"missed: {miss}"
            reference_bytes = _artifact_bytes(out)
        else:
            same = _artifact_bytes(out) == reference_bytes
            ledger.record("rerun_identical",
                          None if same else f"{out.name} differs from round0")
            shutil.rmtree(out)

    correct = not ledger.failures and checked
    metrics = {}
    if trace and checked:
        dumps = [setup["trace"], rounds[0]["trace"]]
        for name, (value, unit) in tracing.layer_metrics(
                tracing.pick(dumps)).items():
            metrics[name] = {"value": value, "unit": unit}
    elif checked:
        values = {
            "setup_s": workload.setup_seconds(setup),
            "wall_s": statistics.median(t["wall_s"] for t in timed),
            "cpu_s": statistics.median(t["cpu_s"] for t in timed),
            "msgs_per_s": statistics.median(t["messages"] / t["wall_s"]
                                            for t in timed),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            **quality,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": correct, "attempted": ledger.attempted,
            "failed": len(ledger.failures), "metrics": metrics,
            "_failures": ledger.failures,
            "_tasks": timed,
            "_gate": gate_note,
            "_rounds": len(rounds),
            "_blas_threads": setup["blas_threads"] if setup else None}


def environment(blas_threads) -> dict:
    """numpy, BLAS and thread settings, recorded with every result."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": blas_threads,
            "threads": {k: os.environ.get(k) for k in PINNED_ENV},
            "nproc": os.cpu_count(), "python": sys.version.split()[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()

    workdir = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = result.pop("_failures")
    tasks = result.pop("_tasks")
    gate_note = result.pop("_gate")
    n_rounds = result.pop("_rounds")
    blas_threads = result.pop("_blas_threads")
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"# {args.workload} seed={args.seed} rounds={n_rounds} "
          f"attempted={result['attempted']} failed={result['failed']}")
    if tasks:
        print("# timed tasks, raw wall_s: "
              + " ".join(f"{t['raw_wall_s']:.3f}" for t in tasks))
    if tasks and tasks[0]["speed"] is not None:
        print("# timed tasks, host speed: "
              + " ".join(f"{t['speed']:.3f}" for t in tasks))
    if gate_note:
        print(f"# criterion 7 gate (reported, not counted): {gate_note}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print("# env " + json.dumps(environment(blas_threads)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
