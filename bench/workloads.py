"""The four benchmark workloads.

Each workload makes its inputs from the seed in `setup`, runs one pass of
user-facing trimfit calls in `run` (the timed part), and turns what the pass
returned into operation counts, correctness checks and a fingerprint in
`check` (untimed). All inputs and outputs live in the run's work directory.

Sizes come in two scales: "full" for timed runs, "toy" for the smoke test.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import trimfit as tf
from trimfit import cli, model, pipeline

from tracer import Probe

# Distance to the nearest true component under which a finished fit counts
# as correct. An accepted component is held to the acceptance threshold
# delta instead (see _check_recovery).
ACCURACY_TOL = 1e-6


@dataclass
class PassResult:
    """What one pass did and whether its outputs were right."""

    op_latencies: list      # seconds per operation
    attempted: int          # operations attempted
    failed: int             # operations that raised, exited wrongly or checked wrong
    rounds: int             # outer solver rounds (sum of rounds_used)
    solver_s: float         # seconds spent inside ilts_run / gd_ilts_run
    tasks: int              # solver tasks attempted
    solved: int             # solver tasks that reached the truth within tolerance
    fingerprint: str        # sha256 of the deterministic outputs
    work: dict = field(default_factory=dict)   # per-pass work counts, for the log
    io_bytes: int = 0
    io_s: float = 0.0
    problems: list = field(default_factory=list)  # failed checks, for the log


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def _file_sha(path: str) -> bytes:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).digest()


def _orthonormal_components(rng: np.random.Generator, d: int, m: int) -> list:
    """m orthonormal parameter vectors in R^d, a well-separated mixture."""
    q, _ = np.linalg.qr(rng.standard_normal((d, m)))
    return [q[:, j].copy() for j in range(m)]


def _nearest_distance(theta: np.ndarray, theta_star: np.ndarray) -> float:
    return float(np.min(np.linalg.norm(theta_star - theta[:, None], axis=0)))


def _check_recovery(report, theta_star: np.ndarray, delta: float, problems: list,
                    label: str):
    """(solved, wrong) for one global report.

    global_ilts accepts a column once floor(tau * n) working rows have
    residuals below delta, and a start stopped by max_rounds can pass that
    test short of the exact component: on these Gaussian designs the rows
    pin it within about delta / 2 (the largest seen is 0.55 delta). So a
    truth column is solved when the bottleneck matching pairs it with an
    accepted column within delta, and an accepted column farther than delta
    from every truth column is a wrong acceptance, which is a failure.
    """
    wrong = 0
    for j, ok in enumerate(report.recovered):
        if ok and _nearest_distance(report.theta_hat[:, j], theta_star) > delta:
            wrong += 1
            problems.append(f"{label}: accepted slot {j} is not a true component")
    solved = sum(1 for e in report.per_component_errors if e <= delta)
    return solved, wrong


def _quiet(func, *args):
    """Call func with the CLI's stdout and stderr captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return func(*args)


# ---------------------------------------------------------------------------
# sweep

class Sweep:
    """global_ilts in the regime where rejected candidates dominate.

    One pass makes two calls. The first runs the ROADMAP stress recipe
    (d=20, m=5 random Gaussian components of weight 0.2, 5% oblivious-random
    corruption, data-driven radius, epsilon_net=0.5) with every slot asking
    for tau=0.25, more than any component holds: no candidate can be
    accepted, so each slot spends its whole capped budget on starts that
    crawl toward max_rounds, a fixed amount of work per seed. The second
    recovers a three-component instance whose slots accept within a few
    candidates; its components are the pass's solver tasks.
    """

    name = "sweep"
    SIZES = {
        "full": dict(n=10_000, reject_budget=5, recover_budget=40),
        "toy": dict(n=1_500, reject_budget=2, recover_budget=40),
    }

    def setup(self, seed: int, workdir: str, scale: str) -> dict:
        size = self.SIZES[scale]
        rng = np.random.default_rng(seed)
        stress = tf.MixtureSpec(d=20, m=5, components=list(rng.standard_normal((5, 20))),
                                weights=[0.2] * 5)
        easy = tf.MixtureSpec(d=20, m=3, components=_orthonormal_components(rng, 20, 3),
                              weights=[1 / 3] * 3)
        corruption = tf.CorruptionSpec(0.05, "oblivious-random", 2.0)
        reject = tf.generate_mlrc(stress, corruption, n=size["n"], seed=seed)
        recover = tf.generate_mlrc(easy, corruption, n=size["n"], seed=seed + 1)
        return {
            "reject": reject,
            "reject_config": tf.GlobalConfig(
                m=5, tau_list=(0.25,) * 5, delta=1e-4,
                candidate_budget=size["reject_budget"], epsilon_net=0.5, seed=seed),
            "recover": recover,
            "recover_config": tf.GlobalConfig(
                m=3, tau_list=(0.3,) * 3, delta=1e-4,
                candidate_budget=size["recover_budget"], epsilon_net=0.5, seed=seed),
        }

    def instrument(self, probe: Probe) -> None:
        # A candidate is its ILTS run plus its acceptance test.
        probe.time_solver(pipeline, "ilts_run")
        probe.time_ops(pipeline, "ilts_run")
        probe.extend_ops(pipeline, "accept_component")

    def run(self, state: dict, probe: Probe):
        reports = []
        for key in ("reject", "recover"):
            dataset, truth = state[key]
            reports.append(tf.global_ilts(dataset, state[key + "_config"], truth=truth))
        return reports

    def check(self, state: dict, reports, probe: Probe) -> PassResult:
        reject, recover = reports
        problems: list = []
        _, wrong_reject = _check_recovery(reject, state["reject"][1].theta_star,
                                          state["reject_config"].delta, problems, "reject")
        solved, wrong = _check_recovery(recover, state["recover"][1].theta_star,
                                        state["recover_config"].delta, problems, "recover")
        outcomes = reject.candidate_outcomes + recover.candidate_outcomes
        return PassResult(
            op_latencies=list(probe.ops),
            attempted=len(outcomes),
            failed=wrong_reject + wrong,
            rounds=sum(row[2] for row in outcomes),
            solver_s=probe.solver_s,
            tasks=recover.theta_hat.shape[1],
            solved=solved,
            fingerprint=_sha(reject.theta_hat.tobytes(), reject.candidate_outcomes,
                             recover.theta_hat.tobytes(), recover.candidate_outcomes),
            work={"reject_candidates_per_slot": list(reject.candidates_tried),
                  "recover_candidates_per_slot": list(recover.candidates_tried),
                  "max_rounds_runs": sum(1 for row in outcomes
                                         if row[2] == state["reject_config"].ilts_max_rounds)},
            problems=problems,
        )


# ---------------------------------------------------------------------------
# fit-wide

class FitWide:
    """Exact and gradient-descent fits on a tall, wide instance.

    n x d = 30000 x 100, two orthonormal components of weight 0.5, 5%
    oblivious-random corruption, tau=0.4. From one start near each
    component a pass runs one exact ilts_run and one gd_ilts_run (fixed
    schedule, m_steps=20). Refit and the GD kernels dominate; selection is a
    small share, so this is the counter-workload for selection work.
    """

    name = "fit-wide"
    SIZES = {"full": dict(n=30_000, d=100), "toy": dict(n=2_000, d=10)}
    ILTS = dict(tau=0.4, max_rounds=30, tol=1e-11)
    GD = dict(tau=0.4, schedule="fixed", m_steps=20, max_rounds=50, tol=1e-10)

    def setup(self, seed: int, workdir: str, scale: str) -> dict:
        size = self.SIZES[scale]
        d = size["d"]
        rng = np.random.default_rng(seed)
        comps = _orthonormal_components(rng, d, 2)
        spec = tf.MixtureSpec(d=d, m=2, components=comps, weights=[0.5, 0.5])
        dataset, truth = tf.generate_mlrc(
            spec, tf.CorruptionSpec(0.05, "oblivious-random", 2.0), n=size["n"], seed=seed)
        starts = [c + 0.3 * rng.standard_normal(d) / np.sqrt(d) for c in comps]
        return {"dataset": dataset, "truth": truth, "starts": starts}

    def instrument(self, probe: Probe) -> None:
        pass  # each fit is timed in run()

    def run(self, state: dict, probe: Probe):
        dataset, truth = state["dataset"], state["truth"]
        ilts_config = tf.IltsConfig(**self.ILTS)
        gd_config = tf.GdConfig(**self.GD)
        traces = []
        for start in state["starts"]:
            for solve, config in ((tf.ilts_run, ilts_config), (tf.gd_ilts_run, gd_config)):
                began = time.perf_counter()
                traces.append(solve(dataset, start, config, truth=truth))
                probe.ops.append(time.perf_counter() - began)
                probe.solver_s += probe.ops[-1]
        return traces

    def check(self, state: dict, traces, probe: Probe) -> PassResult:
        solved = sum(1 for t in traces
                     if t.converged and t.dist_to_nearest[-1] <= ACCURACY_TOL)
        return PassResult(
            op_latencies=list(probe.ops),
            attempted=len(traces),
            failed=0,
            rounds=sum(t.rounds_used for t in traces),
            solver_s=probe.solver_s,
            tasks=len(traces),
            solved=solved,
            fingerprint=_sha(*[(t.final.tobytes(), t.rounds_used, t.converged,
                                t.trimmed_losses.tobytes()) for t in traces]),
            work={"fits": len(traces), "rounds_per_fit": [t.rounds_used for t in traces]},
        )


# ---------------------------------------------------------------------------
# cli-io

class CliIo:
    """The file path users run, through trimfit.cli.main in-process.

    A pass runs `generate` (6000 x 20, m=3, corrupted: a CSV and a truth
    JSON), then `fit` on that CSV from a start near each component, then
    `global` on it with budget 50. It is the workload that exercises model
    I/O and schema validation.

    One fit per component keeps the operation median on `fit`, whose work
    barely changes with the seed; with a single fit the median command is
    `global`, which needs one to three candidates for its first slot
    depending on the seed, and its latency with them.
    """

    name = "cli-io"
    SIZES = {"full": dict(n=6_000), "toy": dict(n=1_000)}
    M = 3

    def setup(self, seed: int, workdir: str, scale: str) -> dict:
        n = self.SIZES[scale]["n"]
        rng = np.random.default_rng(seed)
        comps = _orthonormal_components(rng, 20, self.M)
        doc = {
            "version": 1,
            "name": "cli-io",
            "model": {"d": 20, "m": self.M, "components": [c.tolist() for c in comps],
                      "weights": [1 / self.M] * self.M, "n": n, "seed": seed},
            "corruption": {"gamma_star": 0.05, "adversary": "oblivious-random",
                           "magnitude": 2.0},
        }
        config_path = os.path.join(workdir, "cli-io.generate.json")
        with open(config_path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)
        base = os.path.join(workdir, "cli-io")
        theta0_paths = []
        for j, comp in enumerate(comps):
            start = comp + 0.3 * rng.standard_normal(20) / np.sqrt(20)
            theta0_paths.append(f"{base}.theta0-{j}.txt")
            with open(theta0_paths[-1], "w", encoding="ascii") as fh:
                fh.write(" ".join(format(v, ".17g") for v in start) + "\n")
        # The dataset generate must write, for the save/load round-trip check.
        spec = tf.MixtureSpec(d=20, m=self.M, components=comps, weights=[1 / self.M] * self.M)
        expected, truth = tf.generate_mlrc(
            spec, tf.CorruptionSpec(0.05, "oblivious-random", 2.0), n=n, seed=seed)
        return {
            "seed": seed, "workdir": workdir, "config": config_path,
            # The acceptance threshold `global` sets when --delta is absent.
            "delta": 10.0 * 1e-6 * math.sqrt(math.log(n)),
            "theta0": theta0_paths, "expected": expected, "truth": truth,
            "csv": base + ".csv", "truth_path": base + ".truth.json",
            "fit_prefixes": [f"{base}.fit-{j}" for j in range(self.M)],
            "global_prefix": base + ".global",
        }

    def instrument(self, probe: Probe) -> None:
        # cli calls these through the module object, so this is its call site.
        probe.time_io(model, "save_dataset", 1, keep_result=False)
        probe.time_io(model, "load_dataset", 0, keep_result=True)
        probe.time_solver(cli, "ilts_run")
        probe.time_solver(pipeline, "ilts_run")

    def run(self, state: dict, probe: Probe):
        commands = [["generate", "--config", state["config"], "--output-dir", state["workdir"]]]
        for theta0, prefix in zip(state["theta0"], state["fit_prefixes"]):
            commands.append(["fit", state["csv"], "--tau", "0.3", "--theta0-file", theta0,
                             "--max-rounds", "30", "--tol", "1e-11",
                             "--truth", state["truth_path"], "--out-prefix", prefix])
        commands.append(["global", state["csv"], "--m", str(self.M), "--tau", "0.3",
                         "--budget", "50", "--seed", str(state["seed"]),
                         "--truth", state["truth_path"], "--out-prefix", state["global_prefix"]])
        codes = []
        for argv in commands:
            began = time.perf_counter()
            codes.append(_quiet(cli.main, argv))
            probe.ops.append(time.perf_counter() - began)
        return codes

    def check(self, state: dict, codes, probe: Probe) -> PassResult:
        problems: list = []
        failed = 0
        gen_code, *fit_codes, global_code = codes
        if gen_code != cli.EXIT_OK:
            failed += 1
            problems.append(f"generate exited {gen_code}")

        fit_rounds = []
        fit_solved = 0
        for fit_code, prefix in zip(fit_codes, state["fit_prefixes"]):
            with open(prefix + ".summary.json", encoding="ascii") as fh:
                summary = json.load(fh)
            fit_expected = cli.EXIT_OK if summary["converged"] else cli.EXIT_NO_CONVERGENCE
            if fit_code != fit_expected:
                failed += 1
                problems.append(f"fit exited {fit_code}, documented {fit_expected}")
            fit_solved += int(summary["converged"]
                              and summary["final_dist_to_nearest"] <= ACCURACY_TOL)
            fit_rounds.append(summary["rounds_used"])

        with open(state["global_prefix"] + ".report.json", encoding="ascii") as fh:
            report = json.load(fh)
        global_expected = cli.EXIT_PARTIAL if report["partial"] else cli.EXIT_OK
        theta_star = state["truth"].theta_star
        wrong = sum(1 for col in report["theta_hat"]
                    if col is not None
                    and _nearest_distance(np.asarray(col), theta_star) > state["delta"])
        if global_code != global_expected or wrong:
            failed += 1
            problems.append(f"global exited {global_code} (documented "
                            f"{global_expected}) with {wrong} wrong components")
        global_solved = sum(1 for e in report["per_component_errors"]
                            if e is not None and e <= state["delta"])

        expected = state["expected"]
        for loaded in probe.loaded:
            if not (np.array_equal(loaded.X.view(np.int64), expected.X.view(np.int64))
                    and np.array_equal(loaded.y.view(np.int64), expected.y.view(np.int64))):
                failed += 1
                problems.append("load_dataset(save_dataset(ds)) is not bit-exact")

        with open(state["global_prefix"] + ".candidates.csv", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        outputs = [state["csv"], state["truth_path"], state["global_prefix"] + ".report.json",
                   state["global_prefix"] + ".candidates.csv"]
        outputs += [prefix + suffix for prefix in state["fit_prefixes"]
                    for suffix in (".trace.csv", ".summary.json")]
        return PassResult(
            op_latencies=list(probe.ops),
            attempted=len(codes),
            failed=failed,
            rounds=sum(fit_rounds) + sum(int(r["rounds"]) for r in rows),
            solver_s=probe.solver_s,
            tasks=len(fit_codes) + theta_star.shape[1],
            solved=fit_solved + global_solved,
            fingerprint=_sha(*[_file_sha(p) for p in outputs]),
            work={"fit_rounds": fit_rounds,
                  "global_candidates_per_slot": report["candidates_tried"],
                  "csv_bytes": os.path.getsize(state["csv"])},
            io_bytes=probe.io_bytes,
            io_s=probe.io_s,
            problems=problems,
        )


# ---------------------------------------------------------------------------
# experiment

class Experiment:
    """`trimfit experiment` with many small repeats.

    The shipped two-component-corrupted shape (d=20, components +-e1,
    n=4000, 5% oblivious-random corruption, tau=0.4, start 0.6 e1, both
    diagnostics), run once with kind ilts and once with kind gd-ilts. Each
    repeat generates its own instance, so per-call overhead and
    model.generate_mlrc matter here.

    An ilts repeat takes about half as long as a gd-ilts one, and with equal
    repeat counts the median repeat sits on the gap between the two kinds,
    moving with whichever repeat lands there. Three ilts repeats per gd-ilts
    one put it inside the ilts repeats.
    """

    name = "experiment"
    SIZES = {"full": {"ilts": 90, "gd-ilts": 30}, "toy": {"ilts": 3, "gd-ilts": 3}}
    SOLVERS = {
        "ilts": {"kind": "ilts", "tau": 0.4, "max_rounds": 30, "tol": 1e-11},
        "gd-ilts": {"kind": "gd-ilts", "tau": 0.4, "schedule": "fixed", "m_steps": 100,
                    "max_rounds": 30, "tol": 1e-11},
    }

    def setup(self, seed: int, workdir: str, scale: str) -> dict:
        e1 = [1.0] + [0.0] * 19
        configs = []
        for kind, solver in self.SOLVERS.items():
            doc = {
                "version": 1,
                "name": f"experiment-{kind}",
                "model": {"d": 20, "m": 2, "components": [e1, [-v for v in e1]],
                          "weights": [0.5, 0.5], "n": 4000, "seed": seed},
                "corruption": {"gamma_star": 0.05, "adversary": "oblivious-random",
                               "magnitude": 2.0},
                "solver": dict(solver, theta0=[0.6] + [0.0] * 19),
                "diagnostics": ["q_separation", "gamma_star"],
                "repeats": self.SIZES[scale][kind],
                "output_dir": workdir,
            }
            path = os.path.join(workdir, f"experiment-{kind}.json")
            with open(path, "w", encoding="ascii") as fh:
                json.dump(doc, fh)
            configs.append((path, os.path.join(workdir, doc["name"])))
        return {"configs": configs}

    def instrument(self, probe: Probe) -> None:
        probe.time_ops(cli, "_run_repeat")
        probe.time_solver(cli, "ilts_run")
        probe.time_solver(cli, "gd_ilts_run")

    def run(self, state: dict, probe: Probe):
        return [_quiet(cli.main, ["experiment", "--config", path])
                for path, _ in state["configs"]]

    def check(self, state: dict, codes, probe: Probe) -> PassResult:
        problems: list = []
        failed = rounds = solved = tasks = 0
        digests = []
        for code, (_, base) in zip(codes, state["configs"]):
            with open(base + ".rows.csv", encoding="ascii") as fh:
                rows = list(csv.DictReader(fh))
            errors = sum(1 for r in rows if r["error"])
            if errors or code != cli.EXIT_OK:
                failed += max(errors, 1)
                problems.append(f"{base}: exit {code}, {errors} repeat errors")
            for r in rows:
                if r["error"]:
                    continue
                rounds += int(r["rounds_used"])
                solved += int(r["converged"] == "1" and float(r["final_dist"]) <= ACCURACY_TOL)
            tasks += len(rows)
            digests += [_file_sha(base + ".rows.csv"), _file_sha(base + ".aggregate.csv")]
        return PassResult(
            op_latencies=list(probe.ops),
            attempted=tasks,
            failed=failed,
            rounds=rounds,
            solver_s=probe.solver_s,
            tasks=tasks,
            solved=solved,
            fingerprint=_sha(*digests),
            work={"repeats": tasks, "rounds": rounds},
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (Sweep(), FitWide(), CliIo(), Experiment())}
