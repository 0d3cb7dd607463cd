"""Command-line harness.

Subcommands: generate, fit, global, diagnose, experiment. Exit codes are 0
for success, 1 for configuration or runtime errors, 2 when a solver exhausts
its rounds without meeting tol, and 3 for a partial recovery.
"""

from __future__ import annotations

import argparse
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
from .ilts import (RANK_POLICIES, IltsConfig, ilts_run, selection_size, trace_summary,
                   write_trace_csv)
from .schemas import (EXPERIMENT_CONFIG_SCHEMA, GENERATE_CONFIG_SCHEMA,
                      SUBSPACE_FILE_SCHEMA, validate_document)

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


def _generate_instance(doc: dict, seed: int):
    """Dataset and truth from a config's "model" and optional "corruption"."""
    model = doc["model"]
    spec = model_mod.MixtureSpec(d=model["d"], m=model["m"], components=model["components"],
                                 weights=model["weights"], covariance=model.get("covariance"))
    # The schema admits only CorruptionSpec's fields, so its defaults apply.
    corruption = model_mod.CorruptionSpec(**doc.get("corruption", {}))
    return model_mod.generate_mlrc(spec, corruption, n=model["n"], seed=seed)


def _build_config(kind: str, params: dict, source: str | None = None):
    """Solver config of the given kind ("ilts", "gd-ilts" or "global").

    Keys of params that name no solver setting, or hold None, are ignored,
    so the dataclass defaults are the only defaults. For "global",
    max_rounds and tol set the inner solver's ilts_max_rounds and ilts_tol.
    A setting of another kind only fails, naming the flag, or the key and
    the config file source; seed is exempt, as experiments read it.
    """
    classes = {"ilts": IltsConfig, "gd-ilts": GdConfig, "global": pipe.GlobalConfig}
    if kind not in classes:
        raise ValueError(f"unknown solver kind {kind!r}")
    given = {key: value for key, value in params.items() if value is not None}
    if kind == "global":
        inner = {"max_rounds": "ilts_max_rounds", "tol": "ilts_tol"}
        given = {inner.get(key, key): value for key, value in given.items()}
    fields = dataclasses.fields(classes[kind])
    foreign = ({f.name for cls in classes.values() for f in dataclasses.fields(cls)}
               - {f.name for f in fields} - {"seed"}).intersection(given)
    if foreign:
        key = min(foreign)
        name = f"--{key.replace('_', '-')}" if source is None else f"{source}: solver key {key!r}"
        raise ValueError(f"{name} is not a setting of the {kind} solver")
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and f.name not in given]
    if missing:
        raise ValueError(f"{kind} solver needs {', '.join(missing)}")
    return classes[kind](**{f.name: given[f.name] for f in fields if f.name in given})


def _run_solver(dataset, theta0, config, truth):
    run = gd_ilts_run if isinstance(config, GdConfig) else ilts_run
    return run(dataset, theta0, config, truth=truth)


def _load_inputs(dataset_path: str, truth_path: str | None):
    """Dataset and optional truth sidecar, checked to describe the same samples."""
    dataset = model_mod.load_dataset(dataset_path)
    if not truth_path:
        return dataset, None
    truth = model_mod.load_truth(truth_path)
    if (truth.n, truth.theta_star.shape[0]) != (dataset.n, dataset.d):
        raise ValueError(
            f"{truth_path} has n = {truth.n}, d = {truth.theta_star.shape[0]} but "
            f"{dataset_path} has n = {dataset.n}, d = {dataset.d}")
    return dataset, truth


def _write_document(doc: dict, path: str | None) -> None:
    """Write a document as indented JSON, to stdout when path is None."""
    text = json.dumps(doc, indent=1) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _parse_floats(text: str, source: str) -> list[float]:
    """Numbers separated by commas or whitespace; errors name the source."""
    try:
        return [float(p) for p in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _checked_theta0(values, d: int) -> np.ndarray:
    theta0 = np.asarray(values, dtype=float)
    if theta0.shape != (d,):
        raise ValueError(f"theta0 has {theta0.size} entries, expected d = {d}")
    return theta0


def _theta0_from_args(args, d: int) -> np.ndarray:
    if args.theta0 is not None and args.theta0_file is not None:
        raise ValueError("give only one of --theta0 and --theta0-file")
    if args.theta0 is not None:
        return _checked_theta0(_parse_floats(args.theta0, "--theta0"), d)
    if args.theta0_file is not None:
        with open(args.theta0_file, "r", encoding="ascii") as fh:
            return _checked_theta0(_parse_floats(fh.read(), args.theta0_file), d)
    return np.zeros(d)


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args) -> int:
    doc = _load_document(args.config, GENERATE_CONFIG_SCHEMA)
    dataset, truth = _generate_instance(doc, doc["model"]["seed"])
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

def cmd_fit(args) -> int:
    dataset, truth = _load_inputs(args.dataset, args.truth)
    theta0 = _theta0_from_args(args, dataset.d)
    config = _build_config("gd-ilts" if args.gd else "ilts", vars(args))
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

def _load_subspace(path: str) -> pipe.SubspaceEstimate:
    doc = _load_document(path, SUBSPACE_FILE_SCHEMA)
    basis = np.column_stack([np.asarray(c, dtype=float) for c in doc["basis"]])
    return pipe.SubspaceEstimate(basis=basis, provenance="external")


def cmd_global(args) -> int:
    dataset, truth = _load_inputs(args.dataset, args.truth)
    taus = _parse_floats(args.tau_list, "--tau")
    if len(taus) == 1:
        taus = taus * args.m
    subspace = _load_subspace(args.subspace) if args.subspace else None

    delta = args.delta
    if delta is None:
        delta = 10.0 * args.target_accuracy * math.sqrt(math.log(dataset.n))

    config = _build_config("global", dict(
        vars(args), tau_list=tuple(taus), delta=delta,
        candidate_budget=args.budget, epsilon_net=args.epsilon))
    report = pipe.global_ilts(dataset, config, subspace=subspace, truth=truth)

    prefix = args.out_prefix or os.path.splitext(args.dataset)[0]
    _write_document(pipe.report_to_dict(report), prefix + ".report.json")
    pipe.write_candidate_csv(report, prefix + ".candidates.csv")

    print(f"report:     {prefix}.report.json")
    print(f"candidates: {prefix}.candidates.csv")
    print(f"recovered {sum(report.recovered)} of {config.m} components")
    if report.epsilon_recovery is not None and math.isfinite(report.epsilon_recovery):
        print(f"epsilon_recovery: {report.epsilon_recovery:.6g}")
    return EXIT_PARTIAL if report.partial else EXIT_OK


# ---------------------------------------------------------------------------
# diagnose

def cmd_diagnose(args) -> int:
    dataset, truth = _load_inputs(args.dataset, args.truth)
    doc: dict = {"format": "trimfit-diagnostics", "format_version": 1,
                 "seed": args.seed}

    if args.q_separation:
        if truth is None:
            raise ValueError("--q-separation needs --truth")
        q, per = diag.q_separation(truth.theta_star)
        doc["q_separation"] = {"q": q, "per_component": list(per)}

    if args.regularity is not None:
        k = args.regularity
        if args.mode == "exact":
            est = diag.feature_regularity_exact(dataset.X, k)
        else:
            est = diag.feature_regularity_sampled(dataset.X, k, args.trials, args.seed)
        doc["feature_regularity"] = est.to_dict()

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
            entries.append(est.to_dict())
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


def _experiment_solver(doc: dict, inputs, path: str):
    """Solver config and start of the experiment config at path, checked once
    before the first repeat; theta0 is None for a random start per repeat."""
    solver = doc["solver"]
    config = _build_config(solver["kind"], dict(solver, seed=_repeat_seed(doc, 0)), path)
    n, d = (doc["model"]["n"], doc["model"]["d"]) if inputs is None else inputs[0].X.shape
    if isinstance(config, IltsConfig):
        selection_size(config, n, d)
    theta0 = solver.get("theta0", "random")
    theta0 = None if theta0 == "random" else _checked_theta0(theta0, d)
    if inputs is not None and inputs[1] is None and doc.get("diagnostics"):
        raise ValueError(f"{doc['diagnostics'][0]} diagnostic needs ground truth")
    return config, theta0


def _run_repeat(doc: dict, repeat: int, inputs, config, theta0) -> dict:
    """One row of an experiment. inputs is the loaded (dataset, truth) in
    dataset mode and None in model mode, where each repeat generates its own
    instance; config and theta0 come from _experiment_solver."""
    seed = _repeat_seed(doc, repeat)
    dataset, truth = _generate_instance(doc, seed) if inputs is None else inputs
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
        raise ValueError("config must carry exactly one of 'model' and 'dataset'")
    inputs = None if "model" in doc else _load_inputs(doc["dataset"], doc.get("truth"))
    config, theta0 = _experiment_solver(doc, inputs, args.config)
    os.makedirs(doc["output_dir"], exist_ok=True)
    repeats = doc["repeats"]

    rows: list[dict] = []
    for r in range(repeats):
        try:
            rows.append(_run_repeat(doc, r, inputs, config, theta0))
        except Exception as exc:  # recorded per repeat, not fatal here
            rows.append({"repeat": r, "seed": "", "error": str(exc)})

    columns = list(dict.fromkeys([key for row in rows for key in row] + ["error"]))

    base = os.path.join(doc["output_dir"], doc["name"])
    rows_path = base + ".rows.csv"
    with open(rows_path, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    agg_path = base + ".aggregate.csv"
    with open(agg_path, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, ["metric", "median", "iqr", "count"], lineterminator="\n")
        writer.writeheader()
        writer.writerows(_aggregate_rows(rows))

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
                   help="per-component fractions (single value broadcasts)")
    p.add_argument("--budget", type=int, required=True, help="candidates per component")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--delta", type=float, help="acceptance residual threshold")
    p.add_argument("--target-accuracy", type=float, default=1e-6,
                   help="sets delta = 10 * accuracy * sqrt(log n) when --delta absent")
    p.add_argument("--radius", type=float, help="candidate sphere radius")
    p.add_argument("--epsilon", type=float, help="net granularity (default 0.2 * radius)")
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
