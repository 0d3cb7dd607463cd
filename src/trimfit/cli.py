"""Command-line harness.

Subcommands: generate, fit, global, diagnose, experiment. Exit codes are 0
for success, 1 for configuration or runtime errors, 2 when a solver exhausts
its rounds without meeting tol, and 3 for a partial recovery.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import statistics
import sys

import numpy as np

from . import diagnostics as diag
from . import model as model_mod
from . import pipeline as pipe
from .gd import SCHEDULES, GdConfig, gd_ilts_run
from .ilts import RANK_POLICIES, IltsConfig, SolverTrace, ilts_run, selection_size, start_vector
from .schemas import (EXPERIMENT_CONFIG_SCHEMA, GENERATE_CONFIG_SCHEMA,
                      SUBSPACE_FILE_SCHEMA, validate_document)
from .util import check_integer

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_CONVERGENCE = 2
EXIT_PARTIAL = 3


def _load_document(path: str, schema: dict) -> dict:
    """A JSON input file, validated against schema; every error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not a JSON document: {exc}") from None
    validate_document(doc, schema, path)
    return doc


@contextlib.contextmanager
def _config_errors(path: str):
    """Put the config file path in front of any ValueError raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@contextlib.contextmanager
def _named_errors(names: dict):
    """Give a ValueError whose message starts with a key of names, then a space,
    that key's value instead: a range error names the setting it rejects."""
    try:
        yield
    except ValueError as exc:
        message = str(exc)
        for name, label in names.items():
            if message.startswith(name + " "):
                raise ValueError(label + message[len(name):]) from None
        raise


def _mixture_specs(doc: dict):
    """MixtureSpec and CorruptionSpec of a config's "model" and optional "corruption"."""
    model = doc["model"]
    spec = model_mod.MixtureSpec(d=model["d"], m=model["m"], components=model["components"],
                                 weights=model["weights"], covariance=model.get("covariance"))
    # The schema admits only CorruptionSpec's fields, so its defaults apply.
    return spec, model_mod.CorruptionSpec(**doc.get("corruption", {}))


def _build_config(kind: str, params: dict, flags: dict | None = None):
    """Solver config of the given kind ("ilts", "gd-ilts" or "global").

    Keys of params that name no solver setting, or hold None, are ignored,
    so the dataclass defaults are the only defaults. For "global",
    max_rounds and tol set the inner solver's ilts_max_rounds and ilts_tol.
    Errors name a setting as the user wrote it: by the flag that flags maps
    its key to, or by its config key when flags is None. A setting of another
    kind fails; seed is exempt, as dataset-mode experiments read it.
    """
    classes = {"ilts": IltsConfig, "gd-ilts": GdConfig, "global": pipe.GlobalConfig}
    given = {key: value for key, value in params.items() if value is not None}
    inner = {"max_rounds": "ilts_max_rounds", "tol": "ilts_tol"} if kind == "global" else {}
    given = {inner.get(key, key): value for key, value in given.items()}
    fields = dataclasses.fields(classes[kind])
    foreign = ({f.name for cls in classes.values() for f in dataclasses.fields(cls)}
               - {f.name for f in fields} - {"seed"}).intersection(given)
    if foreign:
        key = min(foreign)
        name = flags[key] if flags else f"solver key {key!r}"
        raise ValueError(f"{name} is not a setting of the {kind} solver")
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and f.name not in given]
    if missing:
        raise ValueError(f"{kind} solver needs {', '.join(missing)}")
    written = {field: key for key, field in inner.items()}
    keys = {f.name: written.get(f.name, f.name) for f in fields if f.name in given}
    with _named_errors({field: flags[key] if flags else key for field, key in keys.items()}):
        return classes[kind](**{field: given[field] for field in keys})


def _run_solver(dataset, theta0, config, truth):
    run = gd_ilts_run if isinstance(config, GdConfig) else ilts_run
    return run(dataset, theta0, config, truth=truth)


def _load_inputs(dataset_path: str, truth_path: str | None):
    """Dataset and optional truth sidecar, checked to describe the same samples."""
    dataset = model_mod.load_dataset(dataset_path)
    if not truth_path:
        return dataset, None
    truth = model_mod.load_truth(truth_path)
    with _config_errors(dataset_path), _named_errors({"truth": truth_path}):
        model_mod.check_truth(dataset, truth)
    return dataset, truth


def _write_document(doc: dict, path: str | None) -> None:
    """doc as JSON indented by one space and ended by LF, to path, or to stdout
    when path is None."""
    text = json.dumps(doc, indent=1) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _write_csv(rows: list[dict], columns: list[str], path: str) -> None:
    """Rows as CSV, quoting wherever a value needs it (error text may)."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _parse_floats(text: str, source: str) -> list[float]:
    """Numbers separated by commas or whitespace; errors name the source."""
    try:
        return [float(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _theta0_from_args(args, d: int) -> np.ndarray:
    if args.theta0 is not None and args.theta0_file is not None:
        raise ValueError("give only one of --theta0 and --theta0-file")
    if args.theta0 is not None:
        with _named_errors({"theta0": "--theta0"}):
            return start_vector(_parse_floats(args.theta0, "--theta0"), d)
    if args.theta0_file is not None:
        with open(args.theta0_file, "r", encoding="ascii") as fh:
            theta0 = _parse_floats(fh.read(), args.theta0_file)
        with _config_errors(args.theta0_file):
            return start_vector(theta0, d)
    return np.zeros(d)


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args) -> int:
    doc = _load_document(args.config, GENERATE_CONFIG_SCHEMA)
    with _config_errors(args.config):
        dataset, truth = model_mod.generate_mlrc(
            *_mixture_specs(doc), n=doc["model"]["n"], seed=doc["model"]["seed"])
    out_dir = args.output_dir or doc.get("output_dir", ".")
    os.makedirs(out_dir, exist_ok=True)

    base = os.path.join(out_dir, doc["name"])
    data_path = base + ".csv"
    truth_path = base + ".truth.json"
    model_mod.save_dataset(dataset, data_path)
    model_mod.save_truth(truth, truth_path)

    tau_text = ", ".join(f"{t:.6g}" for t in truth.tau_star)
    print(f"dataset: {data_path}")
    print(f"truth:   {truth_path}")
    print(f"realized tau_star: [{tau_text}]")
    print(f"realized gamma_star: {model_mod.realized_gamma_star(truth):.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit

def trace_summary(trace: SolverTrace, config) -> dict:
    """JSON-shaped run summary with the configuration echoed back."""
    summary = {
        "final_theta": [float(v) for v in trace.final],
        "rounds_used": trace.rounds_used,
        "converged": trace.converged,
        "final_step_norm": float(trace.step_norms[-1]),
        "final_trimmed_loss": float(trace.trimmed_losses[-1]),
        "config": dataclasses.asdict(config),
    }
    if trace.dist_to_nearest is not None:
        summary["final_dist_to_nearest"] = float(trace.dist_to_nearest[-1])
    if trace.inner_steps is not None:
        summary["inner_steps"] = [int(v) for v in trace.inner_steps]
    return summary


def write_trace_csv(trace: SolverTrace, path: str) -> None:
    """Per-round trace table, floats at 17 significant digits (round-trip exact).

    Row t describes iterate t; step_norm is the move into that iterate and is
    blank on the starting row, as is inner_steps when recorded.
    """
    columns = ["round", "step_norm", "trimmed_loss", "dist_to_nearest"]
    if trace.inner_steps is not None:
        columns.append("inner_steps")
    rows = []
    for t in range(trace.rounds_used + 1):
        row = {"round": t, "trimmed_loss": format(trace.trimmed_losses[t], ".17g")}
        if t > 0:
            row["step_norm"] = format(trace.step_norms[t - 1], ".17g")
            if trace.inner_steps is not None:
                row["inner_steps"] = trace.inner_steps[t - 1]
        if trace.dist_to_nearest is not None:
            row["dist_to_nearest"] = format(trace.dist_to_nearest[t], ".17g")
        rows.append(row)
    _write_csv(rows, columns, path)


def cmd_fit(args) -> int:
    dataset, truth = _load_inputs(args.dataset, args.truth)
    theta0 = _theta0_from_args(args, dataset.d)
    config = _build_config("gd-ilts" if args.gd else "ilts", vars(args), args.flags)
    trace = _run_solver(dataset, theta0, config, truth)

    prefix = args.out_prefix or os.path.splitext(args.dataset)[0]
    _write_document(trace_summary(trace, config), prefix + ".summary.json")
    write_trace_csv(trace, prefix + ".trace.csv")

    print(f"trace:   {prefix}.trace.csv")
    print(f"summary: {prefix}.summary.json")
    print(f"converged: {trace.converged} after {trace.rounds_used} rounds")
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# global

def report_to_dict(report: pipe.RecoveryReport) -> dict:
    """JSON-shaped report; unrecovered columns and infinite errors are null."""
    def finite(x):
        return None if x is None or math.isinf(x) else float(x)

    errors = report.per_component_errors
    return {
        "format": "trimfit-recovery",
        "format_version": 1,
        "theta_hat": [[float(v) for v in report.theta_hat[:, j]] if recovered else None
                      for j, recovered in enumerate(report.recovered)],
        "recovered": list(report.recovered),
        "accepted_counts": list(report.accepted_counts),
        "candidates_tried": list(report.candidates_tried),
        "partial": report.partial,
        "radius": report.radius,
        "radius_source": report.radius_source,
        "delta": report.delta,
        "delta_source": report.delta_source,
        "matching": None if report.matching is None else list(report.matching),
        "per_component_errors": None if errors is None else [finite(e) for e in errors],
        "epsilon_recovery": finite(report.epsilon_recovery),
    }


def write_candidate_csv(report: pipe.RecoveryReport, path: str) -> None:
    columns = ["component", "candidate", "rounds", "accepted", "support"]
    rows = [dict(zip(columns, (comp, cand, rounds, int(accepted), support)))
            for comp, cand, rounds, accepted, support in report.candidate_outcomes]
    _write_csv(rows, columns, path)


def _load_subspace(path: str, d: int) -> pipe.SubspaceEstimate:
    doc = _load_document(path, SUBSPACE_FILE_SCHEMA)
    with _config_errors(path):
        basis = np.column_stack([np.asarray(c, dtype=float) for c in doc["basis"]])
        if basis.shape[0] != d:
            raise ValueError(f"basis columns have {basis.shape[0]} entries, expected d = {d}")
        return pipe.SubspaceEstimate(basis=basis)


def cmd_global(args) -> int:
    dataset, truth = _load_inputs(args.dataset, args.truth)
    taus = _parse_floats(args.tau_list, "--tau")
    subspace = _load_subspace(args.subspace, dataset.d) if args.subspace else None
    config = _build_config("global", dict(vars(args), tau_list=taus), args.flags)
    report = pipe.global_ilts(dataset, config, subspace=subspace, truth=truth)

    prefix = args.out_prefix or os.path.splitext(args.dataset)[0]
    _write_document(report_to_dict(report), prefix + ".report.json")
    write_candidate_csv(report, prefix + ".candidates.csv")

    print(f"report:     {prefix}.report.json")
    print(f"candidates: {prefix}.candidates.csv")
    print(f"recovered {sum(report.recovered)} of {config.m} components")
    if report.epsilon_recovery is not None and math.isfinite(report.epsilon_recovery):
        print(f"epsilon_recovery: {report.epsilon_recovery:.6g}")
    return EXIT_PARTIAL if report.partial else EXIT_OK


# ---------------------------------------------------------------------------
# diagnose

def cmd_diagnose(args) -> int:
    # The report records the seed whichever diagnostics read it.
    check_integer(args.seed, "--seed", 0)
    dataset, truth = _load_inputs(args.dataset, args.truth)
    doc: dict = {"format": "trimfit-diagnostics", "format_version": 1,
                 "seed": args.seed}

    if args.q_separation:
        if truth is None:
            raise ValueError("--q-separation needs --truth")
        q, per = diag.q_separation(truth.theta_star)
        doc["q_separation"] = {"q": q, "per_component": list(per)}

    # The diagnostics' range errors name their parameters; these take flags. The
    # component's tau is derived from --tau-fraction, so its error names both.
    j = args.component
    flags = {"k": "--regularity", "trials": "--trials", "delta": "--delta-grid",
             "directions": "--directions", "j": "--component",
             f"tau[{j}]": f"--tau-fraction {args.tau_fraction:g}: tau[{j}]"}
    with _named_errors(flags):
        if args.regularity is not None:
            k = args.regularity
            if args.mode == "exact":
                est = diag.feature_regularity_exact(dataset.X, k)
            else:
                est = diag.feature_regularity_sampled(dataset.X, k, args.trials, args.seed)
            doc["feature_regularity"] = dataclasses.asdict(est)

        if args.affine_error:
            if truth is None:
                raise ValueError("--affine-error needs --truth")
            counts = [int(np.count_nonzero(truth.partition == j)) for j in range(truth.m)]
            tau = [args.tau_fraction * c / dataset.n for c in counts]
            entries = []
            for delta in _parse_floats(args.delta_grid, "--delta-grid"):
                est = diag.affine_error_estimate(
                    dataset.X, truth.partition, tau, args.component, delta,
                    args.directions, args.seed)
                entries.append(dataclasses.asdict(est))
            doc["affine_error"] = entries

    _write_document(doc, args.out)
    if args.out:
        print(f"report: {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment

def _repeat_seed(doc: dict, repeat: int) -> int:
    base = doc["model"]["seed"] if "model" in doc else doc["solver"].get("seed", 0)
    return base + repeat


def _experiment_setup(doc: dict, inputs):
    """Objects of an experiment config, each checked once before the first
    repeat: the mixture specs (None in dataset mode, else checked to fit n
    samples), the solver config and theta0 (None for a random start per
    repeat). A solver key that no repeat would read is an error."""
    specs = _mixture_specs(doc) if inputs is None else None
    solver = doc["solver"]
    if specs is not None:
        model_mod.component_counts(specs[0], doc["model"]["n"])
        if "seed" in solver:
            raise ValueError("solver key 'seed' is not read in model mode, where "
                             "repeat r runs with model seed + r")
    config = _build_config(solver["kind"], dict(solver, seed=_repeat_seed(doc, 0)))
    n, d = (doc["model"]["n"], doc["model"]["d"]) if inputs is None else inputs[0].X.shape
    if not isinstance(config, pipe.GlobalConfig):
        selection_size(config, n, d)
    elif "theta0" in solver:
        raise ValueError("solver key 'theta0' is not a setting of the global solver")
    theta0 = solver.get("theta0", "random")
    theta0 = None if theta0 == "random" else start_vector(theta0, d)
    diagnostics = doc.get("diagnostics", [])
    if inputs is not None and inputs[1] is None and diagnostics:
        raise ValueError(f"{diagnostics[0]} diagnostic needs ground truth")
    if "q_separation" in diagnostics:
        m = doc["model"]["m"] if inputs is None else inputs[1].m
        if m < 2:
            raise ValueError(f"q_separation diagnostic needs at least two components, m = {m}")
    return specs, config, theta0


def _run_repeat(doc: dict, repeat: int, inputs, specs, config, theta0) -> dict:
    """One row of an experiment. inputs is the loaded (dataset, truth) in
    dataset mode and None in model mode, where each repeat generates its own
    instance from specs; specs, config and theta0 come from _experiment_setup."""
    seed = _repeat_seed(doc, repeat)
    dataset, truth = inputs or model_mod.generate_mlrc(*specs, n=doc["model"]["n"], seed=seed)
    row: dict = {"repeat": repeat, "seed": seed}

    if isinstance(config, pipe.GlobalConfig):
        report = pipe.global_ilts(dataset, dataclasses.replace(config, seed=seed),
                                  truth=truth)
        row["partial"] = int(report.partial)
        row["recovered"] = sum(report.recovered)
        row["candidates_total"] = sum(report.candidates_tried)
        eps = report.epsilon_recovery
        row["epsilon_recovery"] = (float(eps) if eps is not None
                                   and math.isfinite(eps) else "")
    else:
        if theta0 is None:
            theta0 = np.random.default_rng(seed).standard_normal(dataset.d)
        trace = _run_solver(dataset, theta0, config, truth)
        row["converged"] = int(trace.converged)
        row["rounds_used"] = trace.rounds_used
        row["final_step_norm"] = float(trace.step_norms[-1])
        row["final_trimmed_loss"] = float(trace.trimmed_losses[-1])
        row["final_dist"] = (float(trace.dist_to_nearest[-1])
                             if trace.dist_to_nearest is not None else "")

    for quantity in doc.get("diagnostics", []):
        if quantity == "q_separation":
            row["q_separation"] = diag.q_separation(truth.theta_star)[0]
        else:  # gamma_star, the only other quantity the schema admits
            row["gamma_star"] = model_mod.realized_gamma_star(truth)
    return row


def _aggregate_rows(rows: list[dict]) -> list[dict]:
    numeric: dict[str, list[float]] = {}
    for row in rows:
        if row.get("error"):
            continue
        for key, value in row.items():
            if key not in ("repeat", "seed") and isinstance(value, (int, float)):
                numeric.setdefault(key, []).append(float(value))
    out = []
    for key in sorted(numeric):
        values = sorted(numeric[key])
        q1, q3 = np.percentile(values, [25, 75])
        out.append({"metric": key, "median": statistics.median(values),
                    "iqr": float(q3 - q1), "count": len(values)})
    return out


def cmd_experiment(args) -> int:
    doc = _load_document(args.config, EXPERIMENT_CONFIG_SCHEMA)
    if ("model" in doc) == ("dataset" in doc):
        raise ValueError(f"{args.config}: config must carry exactly one of 'model' and 'dataset'")
    inputs = None if "model" in doc else _load_inputs(doc["dataset"], doc.get("truth"))
    with _config_errors(args.config):
        specs, config, theta0 = _experiment_setup(doc, inputs)
    os.makedirs(doc["output_dir"], exist_ok=True)
    repeats = doc["repeats"]

    rows: list[dict] = []
    for r in range(repeats):
        try:
            rows.append(_run_repeat(doc, r, inputs, specs, config, theta0))
        except Exception as exc:  # recorded per repeat, not fatal here
            rows.append({"repeat": r, "seed": "", "error": str(exc)})

    columns = list(dict.fromkeys([key for row in rows for key in row] + ["error"]))

    base = os.path.join(doc["output_dir"], doc["name"])
    rows_path = base + ".rows.csv"
    _write_csv(rows, columns, rows_path)
    agg_path = base + ".aggregate.csv"
    _write_csv(_aggregate_rows(rows), ["metric", "median", "iqr", "count"], agg_path)

    failures = sum(1 for row in rows if row.get("error"))
    print(f"rows:      {rows_path}")
    print(f"aggregate: {agg_path}")
    print(f"repeats: {repeats}, failures: {failures}")
    return EXIT_ERROR if failures else EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trimfit",
        description="Robust mixed linear regression via iterative trimming")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic instance")
    p.add_argument("--config", required=True, help="generation config JSON")
    p.add_argument("--output-dir", help="override the config output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="fit one component from a starting point")
    p.add_argument("dataset", help="dataset CSV")
    p.add_argument("--tau", type=float, required=True, help="trimming fraction")
    p.add_argument("--theta0", help="comma-separated starting point")
    p.add_argument("--theta0-file", help="file with the starting point")
    p.add_argument("--max-rounds", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--rank-policy", choices=RANK_POLICIES)
    p.add_argument("--truth", help="truth sidecar JSON for distance tracking")
    p.add_argument("--out-prefix", help="output path prefix")
    p.add_argument("--gd", action="store_true", help="gradient-descent inner solves")
    p.add_argument("--eta", type=float, help="inner step size (default 1/L per round)")
    p.add_argument("--schedule", choices=SCHEDULES)
    p.add_argument("--m-steps", type=int, help="fixed inner step count")
    p.add_argument("--w", type=float, help="adaptive schedule weight")
    p.add_argument("--c-u", type=float, help="adaptive schedule scale")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("global", help="recover all components")
    p.add_argument("dataset", help="dataset CSV")
    p.add_argument("--m", type=int, required=True, help="number of components")
    p.add_argument("--tau", dest="tau_list", required=True,
                   help="per-component fractions, or one for every component")
    p.add_argument("--budget", dest="candidate_budget", type=int, required=True,
                   help="candidates per component")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--delta", type=float,
                   help="acceptance residual threshold (default GlobalConfig's "
                   "10 * 1e-6 * sqrt(log n))")
    p.add_argument("--radius", type=float, help="candidate sphere radius")
    p.add_argument("--epsilon", dest="epsilon_net", type=float,
                   help="net granularity (default 0.2 * radius)")
    p.add_argument("--truth", help="truth sidecar JSON for recovery metrics")
    p.add_argument("--subspace", help="external subspace basis JSON")
    p.add_argument("--max-rounds", type=int, help="inner solver rounds")
    p.add_argument("--tol", type=float, help="inner solver tolerance")
    p.add_argument("--out-prefix", help="output path prefix")
    p.set_defaults(func=cmd_global)

    p = sub.add_parser("diagnose", help="structural diagnostics")
    p.add_argument("dataset", help="dataset CSV")
    p.add_argument("--truth", help="truth sidecar JSON")
    p.add_argument("--q-separation", action="store_true")
    p.add_argument("--regularity", type=int, metavar="K",
                   help="subset size for psi_plus / psi_minus")
    p.add_argument("--mode", choices=["exact", "sampled"], default="sampled")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--affine-error", action="store_true")
    p.add_argument("--component", type=int, default=0)
    p.add_argument("--delta-grid", default="0.05,0.1,0.2,0.4")
    p.add_argument("--tau-fraction", type=float, default=0.8,
                   help="tau_j = fraction * n_j / n, n_j counting corrupted rows too")
    p.add_argument("--directions", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("experiment", help="run a repeated experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.set_defaults(func=cmd_experiment)

    # Errors name a setting by the flag whose dest is its key.
    for p in sub.choices.values():
        p.set_defaults(flags={a.dest: a.option_strings[-1] for a in p._actions
                              if a.option_strings})

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
