"""One benchmark process: runs a list of tasks against the program and
writes their timings to a JSON file. Untraced, each task's times are also
given scaled to the reference host's speed (see `speed.py`).

    python3 benchmarks/worker.py <spec.json>

The spec names the tasks ("corpus" generates a workload input, "stages"
runs chatscreen pipeline stages in this process), whether to trace, and
where to write the result. `run.py` starts this with the BLAS pinned to one
thread and `src` on the path; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import corpora
import speed
import tracer as tracing
from chatscreen import pipeline, synthgen
from chatscreen.config import load_config

# CLI stage name (`train-lm`) -> pipeline function (`run_train_lm`)
STAGE_FUNCTIONS = {stage.replace("_", "-"): f"run_{stage}"
                   for stage in tracing.STAGES + ("pipeline",)}


def _cpu_seconds() -> float:
    """CPU time of this process (all threads) and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when it cannot be
    asked (another BLAS, or no OpenBLAS symbol found)."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _config(task: dict):
    cfg = load_config(task["base_config"])
    for key, value in task["overrides"].items():
        if not hasattr(cfg, key):
            raise KeyError(f"unknown config field {key}")
        setattr(cfg, key, value)
    return cfg


def _run_stages(task: dict, done: list[str]) -> None:
    """Run the named stages in order, appending each one that completes."""
    cfg = _config(task)
    for stage in task["stages"]:
        # looked up at call time, so traced runs reach the wrappers
        getattr(pipeline, STAGE_FUNCTIONS[stage])(cfg)
        done.append(stage)


def _run_corpus(task: dict) -> dict:
    spec = synthgen.SynthSpec(**task["spec"])
    return corpora.write_corpus(Path(task["out"]), spec, task["noise_seed"])


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = probe = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:       # untraced times are scaled to the reference host's speed
        probe = speed.Probe()
        probe.start()
    results = []
    for task in spec["tasks"]:
        entry = {"op": task["op"], "ok": True, "done": []}
        window = speed.Window(probe) if probe else None
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            if task["op"] == "corpus":
                entry["truth"] = _run_corpus(task)
                entry["done"].append("corpus")
            else:
                _run_stages(task, entry["done"])
        except Exception as exc:  # reported to run.py as a failed operation
            entry["ok"] = False
            entry["error"] = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        entry["raw_wall_s"] = wall
        if window:
            spent, entry["speed"] = window.close()
            wall = (wall - spent) * entry["speed"]
            cpu = (cpu - spent) * entry["speed"]
        entry["wall_s"], entry["cpu_s"] = wall, cpu
        results.append(entry)
        if not entry["ok"]:
            break
    if probe:
        probe.stop()
    out = {"tasks": results, "blas_threads": blas_threads(),
           "trace": tracer.dump() if tracer else None,
           "probe_bytes": probe.footprint if probe else 0}
    Path(spec["result"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
