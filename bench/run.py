#!/usr/bin/env python3
"""trimfit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke          # every workload at toy size, once

Run from the repository root (or any checkout of it). trimfit is imported
from ./src, never from an installed copy. Every pass is checked for
correctness and its output fingerprint must equal the warm-up pass's.

With --trace 0 the run reports the end-to-end metrics. It starts WORKERS
fresh processes one after another; each imports trimfit, sets the workload
up (the median over processes is `setup_s`), runs one untimed warm-up pass,
then repeats passes for its share of S seconds. The metrics are medians over
the passes of all processes: how fast one process runs a pass depends on
where its memory landed, by up to a quarter on a shared host, and pooling
several processes averages that out.

With --trace 1 one process alternates untraced and traced passes for S
seconds and reports per-pass span and counter metrics from the traced ones,
plus tracing.overhead_s, the median over pairs of traced minus untraced pass
time.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. BLAS runs
single-threaded unless OPENBLAS_NUM_THREADS is already set, and
TRIMFIT_THREADS is removed from the environment, so every workload runs on
one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

WORKLOAD_NAMES = ("sweep", "fit-wide", "cli-io", "experiment")
WORKERS = 4
MIN_PASSES = 2
# A timed run must end within this many seconds, workers included.
RUN_LIMIT_S = 170
# Tails are reported at the highest percentile with TAIL_BEYOND samples
# beyond it; below MIN_TAIL_SAMPLES that percentile would not be above the
# median.
TAIL_BEYOND = 10
MIN_TAIL_SAMPLES = 2 * TAIL_BEYOND

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_threads() -> dict:
    """Single-threaded BLAS and sequential experiments, recorded as found."""
    found = {var: os.environ.get(var) for var in _BLAS_VARS + ("TRIMFIT_THREADS",)}
    for var in _BLAS_VARS:
        os.environ.setdefault(var, "1")
    os.environ.pop("TRIMFIT_THREADS", None)
    return found


def _import_trimfit() -> None:
    """Import trimfit from ./src, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "trimfit", "__init__.py")):
        raise SystemExit(f"error: no trimfit sources under {SRC}")
    sys.path.insert(0, SRC)
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import trimfit
    if not os.path.abspath(trimfit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: trimfit imported from {trimfit.__file__}, not {SRC}")


def machine_block(found: dict) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": found["OPENBLAS_NUM_THREADS"] or "default (benchmark sets 1)",
        "TRIMFIT_THREADS": (found["TRIMFIT_THREADS"] or "unset") + " (benchmark unsets it)",
    }


def tail(values: list) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with TAIL_BEYOND samples
    beyond it: the (TAIL_BEYOND + 1)-th largest value. With fewer samples
    than MIN_TAIL_SAMPLES that percentile is not a tail; the maximum is
    returned as p100 instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < MIN_TAIL_SAMPLES:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


class Run:
    """Passes of one workload with their results and pass times."""

    def __init__(self, workload, state, probe, reference: str | None):
        self.workload, self.state, self.probe = workload, state, probe
        self.reference = reference
        self.results = []
        self.walls: list[float] = []

    def one_pass(self):
        from workloads import PassResult
        self.probe.reset()
        began = time.perf_counter()
        try:
            raw = self.workload.run(self.state, self.probe)
            wall = time.perf_counter() - began
            result = self.workload.check(self.state, raw, self.probe)
        except Exception:  # a pass that raises counts as one failed operation
            wall = time.perf_counter() - began
            traceback.print_exc()
            result = PassResult([wall], 1, 1, 0, 0.0, 0, 0, "error", problems=["pass raised"])
        if self.reference is None:
            self.reference = result.fingerprint
        elif result.fingerprint != self.reference:
            result.failed += 1
            result.problems.append("fingerprint differs from the warm-up pass")
        self.results.append(result)
        self.walls.append(wall)
        return result

    def until(self, seconds: float, min_passes: int) -> None:
        deadline = time.perf_counter() + seconds
        done = 0
        while done < min_passes or time.perf_counter() < deadline:
            self.one_pass()
            done += 1


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str,
                 began: float, spans_path: str | None = None) -> dict:
    """One process's share of a run. `began` is when the process started
    importing trimfit; the set-up time runs from there to the end of making
    the inputs. With trace off the result holds raw samples for
    _end_to_end, with trace on the per-layer metrics."""
    from tracer import Probe, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    probe = Probe()
    try:
        state = workload.setup(seed, workdir, scale)
        setup_s = time.perf_counter() - began

        workload.instrument(probe)
        warm = Run(workload, state, probe, None)
        warm.one_pass()
        run = Run(workload, state, probe, warm.reference)
        min_passes = MIN_PASSES if scale == "full" else 1
        if not trace:
            run.until(seconds, min_passes)
            out = _samples(run)
        else:
            traced = Run(workload, state, probe, warm.reference)
            tracer = Tracer()
            _paired_passes(run, traced, tracer, seconds, min_passes)
            out = _per_layer(run, traced, tracer)
            if spans_path:
                with open(spans_path, "w", encoding="ascii") as fh:
                    for span in tracer.spans:
                        fh.write(json.dumps(span) + "\n")
            run.results += traced.results
        results = warm.results + run.results
    finally:
        probe.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only when no other run is using it
        except OSError:
            pass

    out["attempted"] = sum(r.attempted for r in results)
    out["failed"] = sum(r.failed for r in results)
    out["problems"] = sorted({p for r in results for p in r.problems})
    out["fingerprint"] = warm.reference
    out["work"] = results[-1].work
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def _samples(run: Run) -> dict:
    """The timed passes of one process, as JSON-ready lists and sums."""
    results = run.results
    return {
        "walls": run.walls,
        "rates": [r.rounds / r.solver_s for r in results if r.solver_s > 0],
        "ops": [t for r in results for t in r.op_latencies],
        **{key: sum(getattr(r, key) for r in results)
           for key in ("rounds", "solver_s", "tasks", "solved", "io_s", "io_bytes")},
    }


def timed_run(name: str, seed: int, seconds: float) -> dict:
    """WORKERS fresh processes, one after another, each timing its share of
    `seconds`; their samples pooled by _end_to_end."""
    deadline = time.monotonic() + RUN_LIMIT_S
    argv = [sys.executable, os.path.abspath(__file__), "--worker", "--workload", name,
            "--seed", str(seed), "--seconds", repr(seconds / WORKERS)]
    parts = []
    for _ in range(WORKERS):
        # subprocess.run kills and reaps the worker if it runs out of time.
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"error: worker for {name} exited {done.returncode}")
        parts.append(json.loads(done.stdout.splitlines()[-1]))
    return _end_to_end(parts)


def _paired_passes(untraced: Run, traced: Run, tracer, seconds: float, min_pairs: int) -> None:
    """Alternate untraced and traced passes, switching which goes first, so
    both halves of each pair see the same machine conditions."""

    def traced_pass():
        # The tracer finds sites by the original functions, so the probe
        # comes off first and goes back on over the tracer's wrappers.
        untraced.probe.restore()
        tracer.install()
        untraced.workload.instrument(untraced.probe)
        try:
            traced.one_pass()
        finally:
            untraced.probe.restore()
            tracer.restore()
            untraced.workload.instrument(untraced.probe)

    deadline = time.perf_counter() + seconds
    pairs = 0
    while pairs < min_pairs or time.perf_counter() < deadline:
        first, second = (untraced.one_pass, traced_pass)[::1 if pairs % 2 == 0 else -1]
        first()
        second()
        pairs += 1


def _end_to_end(parts: list) -> dict:
    """Pool the samples of one or more processes into the end-to-end metrics."""
    def pooled(key):
        return [v for part in parts for v in part[key]]

    def total(key):
        return sum(part[key] for part in parts)

    walls, ops, rates = pooled("walls"), pooled("ops"), pooled("rates")
    setup_times = [part["setup_s"] for part in parts]
    tasks, solved = total("tasks"), total("solved")
    wall_pct, wall_tail = tail(walls)
    op_pct, op_tail = tail(ops)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "rounds_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_tail_ms": (op_tail * 1e3, "ms"),
        "solved_ratio": (solved / tasks if tasks else 0.0, "ratio"),
        "peak_rss_mb": (max(part["peak_rss_mb"] for part in parts), "MB"),
    }
    notes = {
        "wall_s": (f"median of {len(walls)} passes in {len(parts)} processes "
                   f"(per process {' '.join(_fmt(statistics.median(p['walls'])) for p in parts)}); "
                   f"p{wall_pct:.3g} {_fmt(wall_tail)} s"),
        "op_tail_ms": f"p{op_pct:.3g} of {len(ops)} operations",
        "op_p50_ms": f"median of {len(ops)} operations",
        "solved_ratio": f"{solved} of {tasks} solver tasks",
        "rounds_per_s": (f"median over passes of rounds per second inside solver runs; "
                         f"{total('rounds')} rounds in {_fmt(total('solver_s'))} s"),
        "setup_s": f"median of {len(setup_times)} set-ups, one per process",
        "peak_rss_mb": f"largest of {len(parts)} processes",
    }
    # Printed but not in the result line: every workload must report each
    # end-to-end metric there, and these are 0 or absent on some workloads.
    extra = {}
    if total("io_s") > 0:
        extra["io_mb_per_s"] = (total("io_bytes") / 1e6 / total("io_s"), "MB/s")
    fingerprints = {part["fingerprint"] for part in parts}
    problems = sorted({p for part in parts for p in part["problems"]})
    failed = total("failed")
    if len(fingerprints) > 1:
        failed += 1
        problems.append("fingerprints differ between processes")
    return {"metrics": metrics, "notes": notes, "extra": extra,
            "attempted": total("attempted"), "failed": failed, "problems": problems,
            "fingerprint": parts[0]["fingerprint"], "work": parts[-1]["work"]}


def _per_layer(untraced: Run, traced: Run, tracer) -> dict:
    metrics = tracer.summary(len(traced.walls), sum(traced.walls))
    extra = statistics.median(t - u for t, u in zip(traced.walls, untraced.walls))
    metrics["tracing.overhead_s"] = (extra, "s")
    notes = {"tracing.overhead_s": (f"median over {len(traced.walls)} pairs of traced minus "
                                    f"untraced pass; untraced median "
                                    f"{_fmt(statistics.median(untraced.walls))} s")}
    return {"metrics": metrics, "notes": notes, "extra": {}}


def report(name: str, seed: int, out: dict, trace: bool) -> None:
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    print(f"  fingerprint sha256 {out['fingerprint']}")
    print(f"  work per pass {json.dumps(out['work'])}")
    rows = list(out["metrics"].items()) + list(out["extra"].items())
    rows.append(("fail_ratio", (out["failed"] / out["attempted"], "ratio")))
    span_s = sum(v for k, (v, _) in rows if k.endswith(".self_s"))
    for key, (value, unit) in rows:
        note = out["notes"].get(key, "")
        if key.endswith(".self_s") and span_s > 0:
            note = f"{100 * value / span_s:.1f}% of span time"
        print(f"  {key:28s} {_fmt(value):>12s} {unit:6s} {note}")
    for problem in out["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at toy size and exit")
    parser.add_argument("--spans", help="with --trace 1, write every span here as JSON lines")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    began = time.perf_counter()
    found = _pin_threads()
    _import_trimfit()
    if args.worker:
        out = run_workload(args.workload, args.seed, args.seconds, False, "full", began)
        print(json.dumps(out))
        return 0
    print("machine " + json.dumps(machine_block(found)))

    if args.smoke:
        bad = 0
        for name in WORKLOAD_NAMES:
            out = run_workload(name, args.seed, 0.0, bool(args.trace), "toy", began)
            if not args.trace:
                out = _end_to_end([out])
            report(name, args.seed, out, bool(args.trace))
            bad += out["failed"]
        return 1 if bad else 0

    if args.trace:
        out = run_workload(args.workload, args.seed, args.seconds, True, "full", began,
                           args.spans)
    else:
        out = timed_run(args.workload, args.seed, args.seconds)
    report(args.workload, args.seed, out, bool(args.trace))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
