"""Outside-in instrumentation of the trimfit package.

Nothing here edits trimfit itself. Both classes replace module attributes
with timing wrappers and put the originals back on `restore()`:

- `Probe` wraps only the few call sites where a workload's operations begin
  and end (one clock read pair per operation), so the timed runs can report
  per-operation latency and I/O throughput with tracing off.
- `Tracer` wraps every import site of the public functions listed in SPANS
  and records one span per call in memory: name, start, end, parent and self
  time. It also collects the counters in COUNTERS from arguments, return
  values and exceptions at the same boundaries.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

from trimfit.ilts import RankDeficientError

# Span name -> (defining module, function). The tracer wraps the function at
# every module attribute that refers to it, so calls through names imported
# into other modules (pipeline.ilts_run, gd.select_trimmed_set,
# cli.validate_document, trimfit.global_ilts, ...) are recorded too.
SPANS = {
    "ilts.select": ("trimfit.ilts", "select_trimmed_set"),
    "ilts.refit": ("trimfit.ilts", "least_squares"),
    "ilts.loss": ("trimfit.ilts", "trimmed_loss"),
    "ilts.run": ("trimfit.ilts", "ilts_run"),
    "gd.run": ("trimfit.gd", "gd_ilts_run"),
    "gd.inner": ("trimfit.gd", "gd_inner_loop"),
    "gd.curvature": ("trimfit.gd", "largest_curvature"),
    "pipeline.global": ("trimfit.pipeline", "global_ilts"),
    "pipeline.subspace": ("trimfit.pipeline", "estimate_subspace"),
    "pipeline.radius": ("trimfit.pipeline", "default_radius"),
    "pipeline.candidates": ("trimfit.pipeline", "generate_candidates"),
    "pipeline.accept": ("trimfit.pipeline", "accept_component"),
    "pipeline.match": ("trimfit.pipeline", "epsilon_recovery"),
    "model.generate": ("trimfit.model", "generate_mlrc"),
    "model.save": ("trimfit.model", "save_dataset"),
    "model.load": ("trimfit.model", "load_dataset"),
    "model.save_truth": ("trimfit.model", "save_truth"),
    "model.load_truth": ("trimfit.model", "load_truth"),
    "schemas.validate": ("trimfit.schemas", "validate_document"),
    "cli.generate": ("trimfit.cli", "cmd_generate"),
    "cli.fit": ("trimfit.cli", "cmd_fit"),
    "cli.global": ("trimfit.cli", "cmd_global"),
    "cli.experiment": ("trimfit.cli", "cmd_experiment"),
}

COUNTERS = (
    "ilts.rounds",
    "ilts.max_rounds_hits",
    "ilts.rank_deficient",
    "ilts.select.rows",
    "ilts.refit.rows",
    "gd.inner.steps",
    "pipeline.candidates_tried",
    "pipeline.accepted",
    "model.save.bytes",
    "model.load.bytes",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_ilts_run(counts, args, kwargs, result, exc):
    if isinstance(exc, RankDeficientError):
        counts["ilts.rank_deficient"] += 1
    if result is not None:
        counts["ilts.rounds"] += result.rounds_used
        # ilts_run returns unconverged only after running max_rounds rounds.
        counts["ilts.max_rounds_hits"] += int(not result.converged)


def _count_global(counts, args, kwargs, result, exc):
    if result is not None:
        counts["pipeline.candidates_tried"] += sum(result.candidates_tried)
        counts["pipeline.accepted"] += sum(result.recovered)


def _count_file(key, index, name):
    def hook(counts, args, kwargs, result, exc):
        if exc is None:
            counts[key] += os.path.getsize(_arg(args, kwargs, index, name))
    return hook


COUNT_HOOKS = {
    "ilts.run": _count_ilts_run,
    "ilts.select": lambda c, a, k, r, e: c.update(
        {"ilts.select.rows": _arg(a, k, 0, "dataset").n}),
    "ilts.refit": lambda c, a, k, r, e: c.update(
        {"ilts.refit.rows": len(_arg(a, k, 1, "subset"))}),
    "gd.inner": lambda c, a, k, r, e: c.update(
        {"gd.inner.steps": int(_arg(a, k, 4, "m_steps"))}),
    "pipeline.global": _count_global,
    "model.save": _count_file("model.save.bytes", 1, "path"),
    "model.load": _count_file("model.load.bytes", 0, "path"),
}


def _trimfit_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "trimfit" or name.startswith("trimfit."))]


class _Patches:
    """Module attributes replaced by wrappers, restorable in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Probe(_Patches):
    """Per-operation clocks at a workload's operation boundaries.

    `time_ops(module, name)` makes each call of module.name one operation;
    `extend_ops(module, name)` adds a call's duration to the latest operation
    (the acceptance test that finishes a candidate). `time_solver` sums the
    seconds spent inside solver runs. `time_io` accumulates the seconds spent
    in a file reader or writer and the bytes of its file, and keeps what a
    reader returned so the workload can check it.
    """

    def __init__(self):
        super().__init__()
        self.reset()

    def reset(self) -> None:
        self.ops: list[float] = []
        self.solver_s = 0.0
        self.io_s = 0.0
        self.io_bytes = 0
        self.loaded: list = []

    def _timed(self, module, name: str, record) -> None:
        func = getattr(module, name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                record(time.perf_counter() - start)

        self.replace(module, name, wrapper)

    def time_ops(self, module, name: str) -> None:
        self._timed(module, name, lambda s: self.ops.append(s))

    def extend_ops(self, module, name: str) -> None:
        def record(s):
            self.ops[-1] += s
        self._timed(module, name, record)

    def time_solver(self, module, name: str) -> None:
        def record(s):
            self.solver_s += s
        self._timed(module, name, record)

    def time_io(self, module, name: str, path_index: int, keep_result: bool) -> None:
        func = getattr(module, name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = func(*args, **kwargs)
            self.io_s += time.perf_counter() - start
            self.io_bytes += os.path.getsize(args[path_index])
            if keep_result:
                self.loaded.append(result)
            return result

        self.replace(module, name, wrapper)


class Tracer(_Patches):
    """In-memory span recorder over every import site of SPANS."""

    def __init__(self):
        super().__init__()
        # Closed spans: (name, start, end, parent index or -1, self seconds).
        self.spans: list[tuple[str, float, float, int, float]] = []
        self.counts: Counter = Counter()
        # Open spans: [span index, start, seconds covered by children].
        self._stack: list[list] = []

    def install(self) -> None:
        modules = _trimfit_modules()
        for span, (mod_name, func_name) in SPANS.items():
            func = getattr(sys.modules[mod_name], func_name)
            wrapper = self._wrap(span, func)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        self.replace(mod, attr, wrapper)

    def _wrap(self, span: str, func):
        hook = COUNT_HOOKS.get(span)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)  # reserve the slot so children can name it
            frame = [index, time.perf_counter(), 0.0]
            stack.append(frame)
            result = exc = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                spans[index] = (span, frame[1], end, parent, duration - frame[2])
                if stack:
                    stack[-1][2] += duration
                if hook is not None:
                    hook(counts, args, kwargs, result, exc)

        return wrapper

    def summary(self, passes: int, traced_wall_s: float) -> dict:
        """Per-pass calls, self seconds and counters, plus span coverage,
        as name -> (value, unit)."""
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        root_s = 0.0
        for name, start, end, parent, own in self.spans:
            calls[name] += 1
            self_s[name] += own
            if parent < 0:
                root_s += end - start
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = (calls[span] / passes, "count")
            out[f"{span}.self_s"] = (self_s[span] / passes, "s")
        for key in COUNTERS:
            out[key] = (self.counts[key] / passes, "bytes" if key.endswith(".bytes") else "count")
        tried = self.counts["pipeline.candidates_tried"]
        accepted = self.counts["pipeline.accepted"]
        out["pipeline.accept_ratio"] = (accepted / tried if tried else 0.0, "ratio")
        io_s = self_s["model.save"] + self_s["model.load"]
        io_bytes = self.counts["model.save.bytes"] + self.counts["model.load.bytes"]
        out["io_mb_per_s"] = (io_bytes / 1e6 / io_s if io_s > 0 else 0.0, "MB/s")
        out["tracing.coverage"] = (root_s / traced_wall_s, "ratio")
        return out
