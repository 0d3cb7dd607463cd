"""Command-line harness tests.

Commands run in-process through main(argv), which returns the exit code.
"""

import ast
import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from reference import reference_global

import trimfit
from trimfit import model, pipeline
from trimfit.cli import _experiment_setup, main
from trimfit.gd import GdConfig
from trimfit.ilts import IltsConfig, ilts_run
from trimfit.model import CorruptionSpec, MixtureSpec, generate_mlrc

GEN_CONFIG = {
    "version": 1,
    "name": "inst",
    "model": {
        "d": 3,
        "m": 2,
        "components": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        "weights": [0.5, 0.5],
        "n": 300,
        "seed": 21,
    },
    "corruption": {"gamma_star": 0.05, "adversary": "oblivious-random",
                   "magnitude": 2.0},
}


def write_config(tmp_path, doc, name="gen.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def generate(tmp_path):
    cfg = write_config(tmp_path, GEN_CONFIG)
    code = main(["generate", "--config", cfg, "--output-dir", str(tmp_path)])
    assert code == 0
    return str(tmp_path / "inst.csv"), str(tmp_path / "inst.truth.json")


def test_generate_writes_dataset_and_truth(tmp_path):
    data, truth = generate(tmp_path)
    doc = json.loads((tmp_path / "inst.truth.json").read_text())
    assert doc["format"] == "trimfit-truth"
    assert doc["seed"] == 21
    assert sum(doc["corrupted"]) == 7  # floor(0.05 * 0.5 * 300)
    n_lines = (tmp_path / "inst.csv").read_text().count("\n")
    assert n_lines == 301  # header plus one row per sample


def test_generate_rejects_missing_seed(tmp_path, capsys):
    doc = json.loads(json.dumps(GEN_CONFIG))
    del doc["model"]["seed"]
    cfg = write_config(tmp_path, doc)
    code = main(["generate", "--config", cfg, "--output-dir", str(tmp_path)])
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_generate_is_byte_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    cfg = write_config(tmp_path, GEN_CONFIG)
    assert main(["generate", "--config", cfg, "--output-dir", str(a)]) == 0
    assert main(["generate", "--config", cfg, "--output-dir", str(b)]) == 0
    assert (a / "inst.csv").read_bytes() == (b / "inst.csv").read_bytes()
    assert (a / "inst.truth.json").read_bytes() == (b / "inst.truth.json").read_bytes()


def test_fit_round_trip(tmp_path):
    data, truth = generate(tmp_path)
    prefix = str(tmp_path / "run")
    code = main(["fit", data, "--tau", "0.4", "--theta0", "0.6,0,0",
                 "--truth", truth, "--out-prefix", prefix])
    assert code == 0
    summary = json.loads((tmp_path / "run.summary.json").read_text())
    assert summary["converged"]
    assert summary["final_dist_to_nearest"] <= 1e-8
    trace = (tmp_path / "run.trace.csv").read_text().strip().split("\n")
    assert trace[0] == "round,step_norm,trimmed_loss,dist_to_nearest"
    assert len(trace) == summary["rounds_used"] + 2


def test_fit_rerun_is_byte_identical(tmp_path):
    data, truth = generate(tmp_path)
    for prefix in ("r1", "r2"):
        code = main(["fit", data, "--tau", "0.4", "--theta0", "0.6,0,0",
                     "--truth", truth, "--out-prefix", str(tmp_path / prefix)])
        assert code == 0
    assert ((tmp_path / "r1.trace.csv").read_bytes()
            == (tmp_path / "r2.trace.csv").read_bytes())
    assert ((tmp_path / "r1.summary.json").read_bytes()
            == (tmp_path / "r2.summary.json").read_bytes())


def test_fit_nonconvergence_exit_code(tmp_path):
    data, _ = generate(tmp_path)
    code = main(["fit", data, "--tau", "0.4", "--theta0", "0.6,0,0",
                 "--max-rounds", "1", "--tol", "1e-18",
                 "--out-prefix", str(tmp_path / "nc")])
    assert code == 2
    # outputs are still written for inspection
    assert (tmp_path / "nc.summary.json").exists()
    assert not json.loads((tmp_path / "nc.summary.json").read_text())["converged"]


def test_fit_gd_variant(tmp_path):
    data, truth = generate(tmp_path)
    code = main(["fit", data, "--tau", "0.4", "--theta0", "0.6,0,0", "--gd",
                 "--m-steps", "300", "--truth", truth,
                 "--out-prefix", str(tmp_path / "gd")])
    assert code == 0
    summary = json.loads((tmp_path / "gd.summary.json").read_text())
    assert summary["final_dist_to_nearest"] <= 1e-6
    assert "inner_steps" in summary
    trace = (tmp_path / "gd.trace.csv").read_text().strip().split("\n")
    assert trace[0].endswith(",inner_steps")


def test_fit_bad_theta0_length(tmp_path, capsys):
    data, _ = generate(tmp_path)
    code = main(["fit", data, "--tau", "0.4", "--theta0", "1,2"])
    assert code == 1
    assert "expected d = 3" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--m-steps", "5"], "--m-steps is not a setting of the ilts solver"),
    (["--gd", "--rank-policy", "min-norm"], "--rank-policy is not a setting of the gd-ilts solver"),
], ids=["m-steps-without-gd", "rank-policy-with-gd"])
def test_fit_rejects_a_setting_of_the_other_solver(tmp_path, capsys, flags, message):
    data, _ = generate(tmp_path)
    prefix = tmp_path / "fit"
    assert main(["fit", data, "--tau", "0.4", "--out-prefix", str(prefix)] + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "fit.summary.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--gd", "--eta", "nan"], "--eta must be positive and finite"),
    (["--gd", "--eta", "inf"], "--eta must be positive and finite"),
    (["--gd", "--schedule", "adaptive", "--w", "nan"], "--w must be positive and finite"),
    (["--gd", "--schedule", "adaptive", "--c-u", "inf"], "--c-u must be positive and finite"),
    (["--tol", "nan"], "--tol must be nonnegative"),
    (["--gd", "--schedule", "adaptive", "--w", "1e308"],
     "w = 1e+308 and c_u = 1.0 give a non-finite inner step count"),
], ids=["eta-nan", "eta-inf", "w-nan", "c-u-inf", "tol-nan", "w-overflows-the-step-count"])
def test_fit_rejects_non_finite_settings(tmp_path, capsys, flags, message):
    data, _ = generate(tmp_path)
    prefix = tmp_path / "fit"
    assert main(["fit", data, "--tau", "0.4", "--out-prefix", str(prefix)] + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "fit.summary.json").exists()


GLOBAL_ARGS = ["--m", "2", "--tau", "0.4", "--budget", "5", "--seed", "0"]


@pytest.mark.parametrize("argv, message", [
    (["fit", "--tau", "0"], "--tau must lie in (0, 1]"),
    (["fit", "--tau", "0.4", "--max-rounds", "0"], "--max-rounds must be at least 1"),
    (["fit", "--tau", "0.4", "--gd", "--m-steps", "0"], "--m-steps must be at least 1"),
    (["fit", "--tau", "0.4", "--gd", "--eta", "-1"], "--eta must be positive and finite"),
    (["fit", "--tau", "0.4", "--theta0", "1,0"], "--theta0 has 2 entries, expected d = 3"),
    (["global"] + GLOBAL_ARGS + ["--m", "0"], "--m must be at least 1"),
    (["global"] + GLOBAL_ARGS + ["--tau", "0.3,0.3,0.3"],
     "--tau must carry one fraction per component"),
    (["global"] + GLOBAL_ARGS + ["--tau", "0"], "--tau entries must lie in (0, 1]"),
    (["global"] + GLOBAL_ARGS + ["--budget", "0"], "--budget must be at least 1"),
    (["global"] + GLOBAL_ARGS + ["--epsilon", "-1"],
     "--epsilon must be positive and finite when given"),
    (["global"] + GLOBAL_ARGS + ["--epsilon", "inf"],
     "--epsilon must be positive and finite when given"),
    (["global"] + GLOBAL_ARGS + ["--delta", "-1"], "--delta must be positive and finite"),
    (["global"] + GLOBAL_ARGS + ["--radius", "0"],
     "--radius must be positive and finite when given"),
    (["global"] + GLOBAL_ARGS + ["--seed", "-1"], "--seed must be at least 0"),
], ids=["fit-tau", "fit-max-rounds", "fit-m-steps", "fit-eta", "fit-theta0", "global-m",
        "global-tau", "global-tau-zero", "global-budget", "global-epsilon",
        "global-epsilon-inf", "global-delta", "global-radius", "global-seed"])
def test_range_errors_name_the_flag_that_was_typed(tmp_path, capsys, argv, message):
    data, _ = generate(tmp_path)
    capsys.readouterr()
    prefix = tmp_path / "out"
    assert main(argv[:1] + [data] + argv[1:] + ["--out-prefix", str(prefix)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("flags, message", [
    (["--regularity", "0"], "--regularity = 0 must lie in [1, 300]"),
    (["--regularity", "10", "--trials", "0"], "--trials must be at least 1"),
    (["--affine-error", "--directions", "0"], "--directions must be at least 1"),
    (["--affine-error", "--delta-grid", "0.1,0"], "--delta-grid must lie in (0, 1]"),
    (["--affine-error", "--tau-fraction", "2"],
     "--tau-fraction 2: tau[0] = 1.0 must lie in (0, 0.5)"),
    (["--affine-error", "--component", "5"], "--component = 5 must lie in [0, 2)"),
    (["--affine-error", "--component", "-1"], "--component = -1 must lie in [0, 2)"),
    (["--regularity", "10", "--seed", "-1"], "--seed must be at least 0"),
    (["--affine-error", "--seed", "-1"], "--seed must be at least 0"),
    # The report records the seed even when no diagnostic that ran reads it.
    (["--q-separation", "--seed", "-1"], "--seed must be at least 0"),
], ids=["regularity", "trials", "directions", "delta-grid", "tau-fraction", "component-5",
        "component-minus-1", "regularity-seed", "affine-error-seed", "q-separation-seed"])
def test_diagnose_range_errors_name_the_flag_that_was_typed(tmp_path, capsys, flags, message):
    data, truth = generate(tmp_path)
    capsys.readouterr()
    out = tmp_path / "diag.json"
    assert main(["diagnose", data, "--truth", truth, "--out", str(out)] + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_fit_rejects_both_theta0_sources(tmp_path, capsys):
    data, _ = generate(tmp_path)
    start = tmp_path / "start.txt"
    start.write_text("1 0 0\n")
    code = main(["fit", data, "--tau", "0.4", "--theta0", "1,0,0", "--theta0-file", str(start),
                 "--out-prefix", str(tmp_path / "fit")])
    assert code == 1
    assert capsys.readouterr().err == "error: give only one of --theta0 and --theta0-file\n"
    assert not (tmp_path / "fit.summary.json").exists()


def test_unknown_flag_maps_to_error(tmp_path, capsys):
    assert main(["fit", "nowhere.csv", "--tau", "0.4", "--bogus"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_global_round_trip(tmp_path):
    data, truth = generate(tmp_path)
    prefix = str(tmp_path / "glob")
    code = main(["global", data, "--m", "2", "--tau", "0.35", "--budget", "400",
                 "--seed", "5", "--truth", truth, "--out-prefix", prefix])
    assert code == 0
    report = json.loads((tmp_path / "glob.report.json").read_text())
    assert report["recovered"] == [True, True]
    assert report["epsilon_recovery"] <= 1e-6
    lines = (tmp_path / "glob.candidates.csv").read_text().strip().split("\n")
    assert lines[0] == "component,candidate,rounds,accepted,support"
    assert len(lines) >= 3


def test_global_partial_exit_code(tmp_path):
    data, _ = generate(tmp_path)
    code = main(["global", data, "--m", "2", "--tau", "0.9", "--budget", "3",
                 "--seed", "5", "--out-prefix", str(tmp_path / "part")])
    assert code == 3
    report = json.loads((tmp_path / "part.report.json").read_text())
    assert report["partial"]


def test_global_skips_a_slot_with_too_few_rows_left(tmp_path):
    # y = x1 on ten rows; the first slot takes them and leaves three off the
    # line, too few for floor(0.5 * 3) = 1 >= d = 2
    data = tmp_path / "line.csv"
    data.write_text("y,x1,x2\n" + "".join(f"{i},{i},{i * i % 7 + 1}\n" for i in range(1, 11))
                    + "".join(f"{i + 50},{i},{i + 1}\n" for i in range(1, 4)))
    code = main(["global", str(data), "--m", "2", "--tau", "0.5", "--budget", "3",
                 "--seed", "0", "--delta", "1e-6", "--radius", "1",
                 "--out-prefix", str(tmp_path / "line")])
    assert code == 3
    report = json.loads((tmp_path / "line.report.json").read_text())
    assert report["recovered"] == [True, False]
    # The span has two dimensions, so the budget of 3 draws 3 starts; start 0
    # converges in its first round, is tested at once and claims the slot, so
    # starts 1 and 2 never run.
    assert report["candidates_tried"] == [1, 0]
    assert report["accepted_counts"] == [10, 0]
    assert (tmp_path / "line.candidates.csv").read_text() == (
        "component,candidate,rounds,accepted,support\n0,0,1,1,10\n")


def test_global_records_a_rank_deficient_candidate(tmp_path):
    # x2 is zero on every row, so every trimmed refit is rank deficient
    data = tmp_path / "flat.csv"
    data.write_text("y,x1,x2\n" + "".join(f"{i},{i},0\n" for i in range(1, 11)))
    code = main(["global", str(data), "--m", "1", "--tau", "0.5", "--budget", "3",
                 "--seed", "0", "--delta", "1e-6", "--radius", "1",
                 "--out-prefix", str(tmp_path / "flat")])
    assert code == 3
    report = json.loads((tmp_path / "flat.report.json").read_text())
    assert report["recovered"] == [False]
    # a one-dimensional span has only its two poles as candidates
    assert report["candidates_tried"] == [2]
    assert (tmp_path / "flat.candidates.csv").read_text() == (
        "component,candidate,rounds,accepted,support\n0,0,0,0,0\n0,1,0,0,0\n")


def test_global_external_subspace(tmp_path):
    data, truth = generate(tmp_path)
    sub = {"basis": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
    sub_path = tmp_path / "basis.json"
    sub_path.write_text(json.dumps(sub))
    code = main(["global", data, "--m", "2", "--tau", "0.35", "--budget", "400",
                 "--seed", "5", "--subspace", str(sub_path), "--truth", truth,
                 "--out-prefix", str(tmp_path / "ext")])
    assert code == 0
    report = json.loads((tmp_path / "ext.report.json").read_text())
    assert report["epsilon_recovery"] <= 1e-6


def test_bad_external_subspace_names_the_file(tmp_path, capsys):
    data, _ = generate(tmp_path)
    sub_path = tmp_path / "basis.json"
    for basis, message in (
            ([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], "basis columns are not orthonormal"),
            ([[1.0, 0.0], [0.0, 1.0]], "basis columns have 2 entries, expected d = 3")):
        sub_path.write_text(json.dumps({"basis": basis}))
        capsys.readouterr()
        assert main(["global", data, "--m", "2", "--tau", "0.4", "--budget", "5", "--seed", "0",
                     "--subspace", str(sub_path), "--out-prefix", str(tmp_path / "ext")]) == 1
        assert capsys.readouterr().err == f"error: {sub_path}: {message}\n"
        assert not (tmp_path / "ext.report.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--max-rounds", "0", "--max-rounds must be at least 1"),
    ("--tol", "-1", "--tol must be nonnegative"),
])
def test_global_inner_setting_errors_name_the_flag(tmp_path, capsys, flag, value, message):
    data, _ = generate(tmp_path)
    capsys.readouterr()
    assert main(["global", data, "--m", "2", "--tau", "0.4", "--budget", "5", "--seed", "0",
                 flag, value, "--out-prefix", str(tmp_path / "glob")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_diagnose_report(tmp_path):
    data, truth = generate(tmp_path)
    out = tmp_path / "diag.json"
    code = main(["diagnose", data, "--truth", truth, "--q-separation",
                 "--regularity", "60", "--trials", "40", "--affine-error",
                 "--component", "0", "--delta-grid", "0.1,0.2", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "trimfit-diagnostics"
    assert doc["q_separation"]["q"] == pytest.approx(2 ** 0.5)
    assert doc["feature_regularity"]["k"] == 60
    assert [e["delta"] for e in doc["affine_error"]] == [0.1, 0.2]
    assert doc["affine_error"][0]["value"] <= doc["affine_error"][1]["value"]


def test_diagnose_exact_regularity_to_stdout(tmp_path, capsys):
    # subsets of rows {0, 1}, {0, 2}, {1, 2} have Gram eigenvalues {1, 1}, {0, 5}, {1, 4}
    data = tmp_path / "rows.csv"
    data.write_text("y,x1,x2\n0,1,0\n0,0,1\n0,2,0\n")
    code = main(["diagnose", str(data), "--regularity", "2", "--mode", "exact"])
    assert code == 0
    doc = {"format": "trimfit-diagnostics", "format_version": 1, "seed": 0,
           "feature_regularity": {"k": 2, "psi_plus": 5.0, "psi_minus": 0.0,
                                  "mode": "exact", "trials": 3}}
    assert capsys.readouterr().out == json.dumps(doc, indent=1) + "\n"


def test_diagnose_q_separation_needs_truth(tmp_path, capsys):
    data, _ = generate(tmp_path)
    code = main(["diagnose", data, "--q-separation"])
    assert code == 1
    assert "--truth" in capsys.readouterr().err


def test_diagnose_affine_error_needs_truth(tmp_path, capsys):
    data, _ = generate(tmp_path)
    assert main(["diagnose", data, "--affine-error"]) == 1
    assert capsys.readouterr().err == "error: --affine-error needs --truth\n"


def test_experiment_end_to_end(tmp_path):
    exp = {
        "version": 1,
        "name": "exp",
        "model": GEN_CONFIG["model"],
        "corruption": GEN_CONFIG["corruption"],
        "solver": {"kind": "ilts", "tau": 0.4, "theta0": [0.6, 0.0, 0.0],
                   "max_rounds": 40, "tol": 1e-11},
        "diagnostics": ["q_separation", "gamma_star"],
        "repeats": 3,
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, exp, "exp.json")
    assert main(["experiment", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "exp.rows.csv").read_text().strip().split("\n")
    assert len(rows) == 4  # header + one row per repeat
    header = rows[0].split(",")
    assert header[:2] == ["repeat", "seed"]
    assert "q_separation" in header and "gamma_star" in header
    agg = (tmp_path / "out" / "exp.aggregate.csv").read_text().strip().split("\n")
    assert agg[0] == "metric,median,iqr,count"
    assert len(agg) > 1

    # rerun is byte-identical
    before = (tmp_path / "out" / "exp.rows.csv").read_bytes()
    assert main(["experiment", "--config", cfg]) == 0
    assert (tmp_path / "out" / "exp.rows.csv").read_bytes() == before


def test_experiment_rejects_model_and_dataset(tmp_path, capsys):
    data, _ = generate(tmp_path)
    exp = {
        "version": 1,
        "name": "bad",
        "model": GEN_CONFIG["model"],
        "dataset": data,
        "solver": {"kind": "ilts", "tau": 0.4},
        "repeats": 1,
        "output_dir": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path, exp, "bad.json")
    assert main(["experiment", "--config", cfg]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "trimfit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "generate" in proc.stdout


@pytest.mark.parametrize("package", ["scipy", "jsonschema"])
def test_importing_trimfit_does_not_load(package):
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, trimfit, trimfit.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout == "[]\n"


def test_every_public_name_of_the_package_is_exported():
    tree = ast.parse(Path(trimfit.__file__).read_text())
    bound = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in bound if not name.startswith("_")}
    assert public <= set(trimfit.__all__)
    assert all(hasattr(trimfit, name) for name in trimfit.__all__)


def generate_variant(tmp_path, name, **model):
    doc = json.loads(json.dumps(GEN_CONFIG))
    doc["name"] = name
    doc["model"].update(model)
    cfg = write_config(tmp_path, doc, name + ".json")
    assert main(["generate", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
    return str(tmp_path / (name + ".csv")), str(tmp_path / (name + ".truth.json"))


@pytest.mark.parametrize("model", [{"n": 200},
                                   {"d": 4, "components": [[1, 0, 0, 0], [0, 1, 0, 0]]}],
                         ids=["n", "d"])
def test_truth_that_does_not_fit_the_dataset_is_rejected(tmp_path, capsys, model):
    data, _ = generate(tmp_path)
    _, other_truth = generate_variant(tmp_path, "other", **model)
    out = str(tmp_path / "out")
    commands = [["fit", data, "--tau", "0.4", "--out-prefix", out],
                ["global", data, "--m", "2", "--tau", "0.4", "--budget", "5", "--seed", "0",
                 "--out-prefix", out],
                ["diagnose", data, "--q-separation", "--out", out]]
    for argv in commands:
        assert main(argv + ["--truth", other_truth]) == 1
        err = capsys.readouterr().err
        assert data in err and other_truth in err


def test_fit_defaults_come_from_the_config_dataclasses(tmp_path):
    data, _ = generate(tmp_path)
    for flags, expected in (([], IltsConfig(tau=0.4)), (["--gd"], GdConfig(tau=0.4))):
        prefix = str(tmp_path / "run")
        assert main(["fit", data, "--tau", "0.4", "--out-prefix", prefix] + flags) in (0, 2)
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        assert summary["config"] == asdict(expected)


def test_experiment_defaults_match_a_direct_run(tmp_path):
    exp = {"version": 1, "name": "exp", "model": GEN_CONFIG["model"],
           "corruption": GEN_CONFIG["corruption"],
           "solver": {"kind": "ilts", "tau": 0.4},
           "repeats": 2, "output_dir": str(tmp_path / "out")}
    assert main(["experiment", "--config", write_config(tmp_path, exp, "exp.json")]) == 0
    with open(tmp_path / "out" / "exp.rows.csv", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))

    model = GEN_CONFIG["model"]
    spec = MixtureSpec(d=model["d"], m=model["m"], components=model["components"],
                       weights=model["weights"])
    for repeat, row in enumerate(rows):
        seed = model["seed"] + repeat
        ds, truth = generate_mlrc(spec, CorruptionSpec(**GEN_CONFIG["corruption"]),
                                  n=model["n"], seed=seed)
        theta0 = np.random.default_rng(seed).standard_normal(model["d"])
        trace = ilts_run(ds, theta0, IltsConfig(tau=0.4), truth=truth)
        assert int(row["seed"]) == seed
        assert int(row["converged"]) == int(trace.converged)
        assert int(row["rounds_used"]) == trace.rounds_used
        assert float(row["final_step_norm"]) == trace.step_norms[-1]
        assert float(row["final_trimmed_loss"]) == trace.trimmed_losses[-1]
        assert float(row["final_dist"]) == trace.dist_to_nearest[-1]


def test_global_experiment_takes_the_library_defaults(tmp_path):
    # No delta and one tau for both components, as a library call may give them.
    exp = {"version": 1, "name": "exp", "model": GEN_CONFIG["model"],
           "corruption": GEN_CONFIG["corruption"],
           "solver": {"kind": "global", "m": 2, "tau_list": [0.35], "candidate_budget": 400},
           "repeats": 2, "output_dir": str(tmp_path / "out")}
    assert main(["experiment", "--config", write_config(tmp_path, exp, "exp.json")]) == 0
    with open(tmp_path / "out" / "exp.rows.csv", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))

    model = GEN_CONFIG["model"]
    spec = MixtureSpec(d=model["d"], m=model["m"], components=model["components"],
                       weights=model["weights"])
    for repeat, row in enumerate(rows):
        seed = model["seed"] + repeat
        ds, truth = generate_mlrc(spec, CorruptionSpec(**GEN_CONFIG["corruption"]),
                                  n=model["n"], seed=seed)
        config = pipeline.GlobalConfig(m=2, tau_list=(0.35, 0.35), candidate_budget=400,
                                       seed=seed)
        report = pipeline.global_ilts(ds, config, truth=truth)
        assert report.delta_source == "log-n-default"
        assert int(row["seed"]) == seed
        assert int(row["partial"]) == int(report.partial)
        assert int(row["recovered"]) == sum(report.recovered)
        assert int(row["candidates_total"]) == sum(report.candidates_tried)
        assert float(row["epsilon_recovery"]) == report.epsilon_recovery


def test_global_default_radius_is_computed_once(tmp_path, monkeypatch):
    data, truth = generate(tmp_path)
    calls = []
    real = pipeline.default_radius
    monkeypatch.setattr(pipeline, "default_radius",
                        lambda ds, span: calls.append(1) or real(ds, span))
    prefix = tmp_path / "glob"
    assert main(["global", data, "--m", "2", "--tau", "0.35", "--budget", "400",
                 "--seed", "5", "--truth", truth, "--out-prefix", str(prefix)]) == 0
    assert len(calls) == 1
    # Output hashes recorded when the CLI still derived epsilon = 0.2 * radius itself,
    # then re-recorded when exact refits moved to the refined normal equations, and
    # the report's when it gained delta and delta_source, and both when candidates
    # were screened in blocks, and again when a start was tested the moment it
    # finished and the candidates file lost its carried column, and again when
    # default starts moved to the response-matched scale.
    digests = [hashlib.sha256((tmp_path / f"glob.{suffix}").read_bytes()).hexdigest()
               for suffix in ("report.json", "candidates.csv")]
    assert digests == ["6f306607fc9f857335f7bbf51432b03f9fb913d73a1b7c44e307ae33d01444a3",
                       "6aa2be3899a66e81dd75888a22e34824fa44ca6b0924da2b0b96d17cb51781b2"]


def test_fit_on_header_only_csv_names_the_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("y,x1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", str(path), "--tau", "0.5"]) == 1
    assert f"{path}: no data rows" in capsys.readouterr().err


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_every_output_file_is_pinned(tmp_path):
    data, truth = generate(tmp_path)
    # The sidecar records the installed numpy version; blank it so the pin
    # holds under any numpy.
    truth_bytes = re.sub(rb'"generator_version": "[^"]*"', b'"generator_version": ""',
                         (tmp_path / "inst.truth.json").read_bytes())
    digests = {"truth.json": hashlib.sha256(truth_bytes).hexdigest(), "csv": _sha256(data)}
    theta0 = ["--tau", "0.4", "--theta0", "0.6,0,0"]
    runs = {
        "fit": (["fit", data, *theta0, "--truth", truth], 0),
        "gd": (["fit", data, *theta0, "--gd", "--m-steps", "50", "--truth", truth], 0),
        "fit-no-truth": (["fit", data, *theta0], 0),
        "global": (["global", data, "--m", "2", "--tau", "0.35", "--budget", "400",
                    "--seed", "5", "--truth", truth], 0),
        "partial": (["global", data, "--m", "2", "--tau", "0.9", "--budget", "3",
                     "--seed", "5"], 3),
    }
    for name, (argv, code) in runs.items():
        prefix = tmp_path / name
        assert main(argv + ["--out-prefix", str(prefix)]) == code
        suffixes = ("report.json", "candidates.csv") if argv[0] == "global" else (
            "summary.json", "trace.csv")
        for suffix in suffixes:
            digests[f"{name}.{suffix}"] = _sha256(f"{prefix}.{suffix}")
    assert main(["diagnose", data, "--truth", truth, "--q-separation", "--regularity", "60",
                 "--trials", "40", "--affine-error", "--delta-grid", "0.1,0.2",
                 "--directions", "50", "--seed", "3", "--out", str(tmp_path / "diag.json")]) == 0
    digests["diag.json"] = _sha256(tmp_path / "diag.json")
    # Recorded when every JSON document was also checked against a JSON schema
    # before it was written. The exact fit and global outputs were re-recorded
    # when exact refits moved to the refined normal equations: their rounds and
    # flags kept, their iterates moved in the last bits. The global reports were
    # re-recorded when they gained delta and delta_source, their other keys kept.
    # The global outputs and the candidates files were re-recorded when candidates
    # were screened in blocks: the candidates files gained the carried column, and
    # the recovered run tries a block of 8 starts per slot, slot 0 claimed by
    # start 1 instead of start 0. They were re-recorded when a start was tested the
    # moment it finished and the carried column went: slot 1's start 0 converges
    # within the screening rounds and claims the slot alone, so that slot has 1
    # row, not 8; the partial run's report kept its bytes. The global reports were
    # re-recorded when default starts moved to the response-matched scale: radius
    # and radius_source changed, and slot 0's start 1 claims after 5 rounds, not 6.
    assert digests == {
        "truth.json": "147ac25b3ddb567c3173886f6d7da8ed7bfd0d4b8c2ef150ee6267bd626a4348",
        "csv": "779fdf4f8bd58d6b2a34ac2b4dce0410f18201f9b9a9078e5f16e985d79012aa",
        "fit.summary.json": "30244f407847a28720a89639b001a0c25cafc70a9c3ab55b3a42b243f64f0a94",
        "fit.trace.csv": "ff79a9db21043c6dece98d82e73baf14be8c393253c30e9cacc7f488592b72c9",
        "gd.summary.json": "a8aa9ab1e0ae2ead87605c3a8f5eb1951a5b07583266948b01523060b407f0da",
        "gd.trace.csv": "40890ed0123a722828c875a4b6d40d3ad5b6a315d3e456fa74719cc316bd82d5",
        "fit-no-truth.summary.json":
            "2435d3b0ee120abcd006954941c4197fccb6549c04fdb427a297afcc31e39d55",
        "fit-no-truth.trace.csv":
            "aa324d472d661cd236badb8cdf36257a538372c85af0bd57c8ac3783e7b0b3ef",
        "global.report.json": "6f306607fc9f857335f7bbf51432b03f9fb913d73a1b7c44e307ae33d01444a3",
        "global.candidates.csv":
            "6aa2be3899a66e81dd75888a22e34824fa44ca6b0924da2b0b96d17cb51781b2",
        "partial.report.json": "98ba9a427483e56aa2783fcf9f084a51138dedac2fc28762611b7c9eda14bd4d",
        "partial.candidates.csv":
            "5c0fb1b6c7a1a8f45ded529972bbff8382fca9e1b9ae50775da3ec63562cd786",
        "diag.json": "7b8884d1c97f7958ef2194c0d46fc8c75f03fbbd00bedcbe4a579b448284dd62",
    }


def test_dataset_experiment_loads_its_inputs_once(tmp_path, monkeypatch):
    data, truth = generate(tmp_path)
    calls = {"load_dataset": 0, "load_truth": 0}
    for name in calls:
        real = getattr(model, name)

        def counted(path, name=name, real=real):
            calls[name] += 1
            return real(path)
        monkeypatch.setattr(model, name, counted)
    exp = {"version": 1, "name": "exp", "dataset": data, "truth": truth,
           "solver": {"kind": "ilts", "tau": 0.4, "seed": 7},
           "diagnostics": ["q_separation", "gamma_star"],
           "repeats": 5, "output_dir": str(tmp_path / "out")}
    assert main(["experiment", "--config", write_config(tmp_path, exp, "exp.json")]) == 0
    assert calls == {"load_dataset": 1, "load_truth": 1}
    # Recorded when every repeat loaded the inputs again, with the CRLF line
    # ends of that time turned into LF, and re-recorded when exact refits moved
    # to the refined normal equations.
    assert _sha256(tmp_path / "out" / "exp.rows.csv") == (
        "dbd8390109e646979b2610aaf752251c4250200e202d0c53ddc61c2381bae68f")



THREE_COMPONENT_MODEL = dict(GEN_CONFIG["model"], m=3, weights=[0.5, 0.3, 0.2],
                             components=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("model, solver, digests", [
    (GEN_CONFIG["model"], {"kind": "ilts", "tau": 0.4},
     ("15b2f3f5056177a042dcf74ebf31507256f9a9283db621fb4e9eb8246359ea75",
      "91e15cf06850d2d3ce2a33c7a57f032fb8d546fed64ebadbe8db5c6d9cbfc3c3")),
    # Each slot draws 4 candidates, one block. Repeat 3 is partial. A start that
    # finishes within the screening rounds is tested at once, and one that passes
    # claims the slot before the later starts run, so repeats 1, 2 and 4 try fewer
    # than 12 starts. In slot 1 of repeat 4 start 1
    # finishes and fails, the other three run on, and start 2 claims the slot after
    # 16 rounds, as the sequential reference does; ranking every start after the
    # screening rounds left start 2 last and the slot unrecovered. Re-recorded when
    # that rule came in, and when default starts moved to the response-matched scale:
    # repeat 2 tries 9 starts, not 10, and repeats 0-2 end at other rounding-level errors.
    (THREE_COMPONENT_MODEL,
     {"kind": "global", "m": 3, "tau_list": [0.45, 0.28, 0.18], "candidate_budget": 4},
     ("fdc664e2488f66bab964c820fdc198eb811625df3635e9751f2324c484dc0f78",
      "2308dc5b2c0c180f0715350d2d73f1101d7ae22cde3321e9ad027d55b0e85419")),
], ids=["ilts", "global"])
def test_experiment_outputs_are_pinned(tmp_path, model, solver, digests):
    exp = {"version": 1, "name": "exp", "model": model, "corruption": GEN_CONFIG["corruption"],
           "solver": solver, "diagnostics": ["gamma_star"], "repeats": 5,
           "output_dir": str(tmp_path / "out")}
    assert main(["experiment", "--config", write_config(tmp_path, exp, "exp.json")]) == 0
    assert tuple(_sha256(tmp_path / "out" / f"exp.{name}.csv")
                 for name in ("rows", "aggregate")) == digests


def test_pinned_global_repeat_4_at_budget_4_recovers_what_the_sequential_reference_does():
    # Slot 1 is claimed by start 2 after 16 rounds; a start that finishes within the
    # screening rounds (start 1) is tested there, not ranked against the others.
    doc = {"version": 1, "name": "exp", "model": THREE_COMPONENT_MODEL,
           "corruption": GEN_CONFIG["corruption"],
           "solver": {"kind": "global", "m": 3, "tau_list": [0.45, 0.28, 0.18],
                      "candidate_budget": 4}}
    specs, config, _ = _experiment_setup(doc, None)
    seed = THREE_COMPONENT_MODEL["seed"] + 4
    dataset, truth = generate_mlrc(*specs, n=THREE_COMPONENT_MODEL["n"], seed=seed)
    config = dataclasses.replace(config, seed=seed)
    report = pipeline.global_ilts(dataset, config, truth=truth)
    reference = reference_global(dataset, config, truth=truth)
    assert report.recovered == reference.recovered == (True, True, True)
    assert (1, 2, 16, True, 90) in report.candidate_outcomes
    assert report.theta_hat.tobytes() == reference.theta_hat.tobytes()


@pytest.mark.parametrize("command", ["generate", "experiment", "global"])
def test_truncated_json_input_names_the_file(tmp_path, capsys, command):
    data, _ = generate(tmp_path)
    capsys.readouterr()
    path = tmp_path / "truncated.json"
    path.write_text('{"version": 1,\n "name":\n')
    argv = {"generate": ["generate", "--config", str(path)],
            "experiment": ["experiment", "--config", str(path)],
            "global": ["global", data, "--m", "2", "--tau", "0.35", "--budget", "5",
                       "--seed", "0", "--subspace", str(path),
                       "--out-prefix", str(tmp_path / "glob")]}[command]
    assert main(argv) == 1
    assert f"{path}: not a JSON document" in capsys.readouterr().err


def test_fit_theta0_file_with_a_non_number_names_the_file(tmp_path, capsys):
    data, _ = generate(tmp_path)
    path = tmp_path / "theta0.txt"
    path.write_text("0.6 abc 0\n")
    assert main(["fit", data, "--tau", "0.4", "--theta0-file", str(path)]) == 1
    assert f"{path}: could not convert string to float: 'abc'" in capsys.readouterr().err


def test_fit_theta0_file_of_the_wrong_length_names_the_file(tmp_path, capsys):
    data, _ = generate(tmp_path)
    path = tmp_path / "theta0.txt"
    path.write_text("0.6 0\n")
    capsys.readouterr()
    assert main(["fit", data, "--tau", "0.4", "--theta0-file", str(path),
                 "--out-prefix", str(tmp_path / "fit")]) == 1
    assert capsys.readouterr().err == f"error: {path}: theta0 has 2 entries, expected d = 3\n"
    assert not (tmp_path / "fit.summary.json").exists()


def test_dataset_experiment_that_cannot_load_exits_once(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    exp = {"version": 1, "name": "exp", "dataset": missing,
           "solver": {"kind": "ilts", "tau": 0.4}, "repeats": 3,
           "output_dir": str(tmp_path / "out")}
    assert main(["experiment", "--config", write_config(tmp_path, exp, "exp.json")]) == 1
    assert missing in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("solver, message", [
    ({"kind": "ilts", "tau": 0.4, "theta0": [1.0, 2.0]}, "theta0 has 2 entries, expected d = 3"),
    ({"kind": "gd-ilts", "tau": 0.0}, "tau must lie in (0, 1]"),
    ({"kind": "ilts"}, "ilts solver needs tau"),
    ({"kind": "ilts", "tau": 0.005}, "floor(tau * n) = 1 < d = 3"),
    ({"kind": "ilts", "tau": 0.4, "m_steps": 5},
     "exp.json: solver key 'm_steps' is not a setting of the ilts solver"),
    ({"kind": "gd-ilts", "tau": 0.4, "rank_policy": "min-norm"},
     "exp.json: solver key 'rank_policy' is not a setting of the gd-ilts solver"),
    ({"kind": "gd-ilts", "tau": 0.4, "candidate_budget": 10},
     "exp.json: solver key 'candidate_budget' is not a setting of the gd-ilts solver"),
    ({"kind": "gd-ilts", "tau": 0.4, "eta": float("nan")}, "eta must be positive and finite"),
    ({"kind": "ilts", "tau": 0.4, "tol": float("nan")}, "tol must be nonnegative"),
    # A model-mode repeat takes its seed from the model, and global starts from candidates.
    ({"kind": "ilts", "tau": 0.4, "seed": 7},
     "exp.json: solver key 'seed' is not read in model mode"),
    ({"kind": "global", "m": 2, "tau_list": [0.35], "candidate_budget": 5,
      "theta0": [1.0, 0.0, 0.0]},
     "exp.json: solver key 'theta0' is not a setting of the global solver"),
], ids=["theta0-length", "tau-zero", "tau-missing", "tau-below-d", "ilts-m-steps",
        "gd-rank-policy", "gd-candidate-budget", "gd-eta-nan", "ilts-tol-nan",
        "model-mode-seed", "global-theta0"])
def test_experiment_config_error_fails_once(tmp_path, capsys, solver, message):
    exp = {"version": 1, "name": "exp", "model": GEN_CONFIG["model"], "solver": solver,
           "repeats": 3, "output_dir": str(tmp_path / "out")}
    assert main(["experiment", "--config", write_config(tmp_path, exp, "exp.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_dataset_experiment_diagnostic_without_truth_fails_once(tmp_path, capsys):
    data, _ = generate(tmp_path)
    exp = {"version": 1, "name": "exp", "dataset": data,
           "solver": {"kind": "ilts", "tau": 0.4}, "diagnostics": ["gamma_star"],
           "repeats": 3, "output_dir": str(tmp_path / "out")}
    cfg = write_config(tmp_path, exp, "exp.json")
    assert main(["experiment", "--config", cfg]) == 1
    assert f"error: {cfg}: gamma_star diagnostic needs ground truth" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_experiment_solver_failure_is_an_error_row_per_repeat(tmp_path):
    # x2 is zero on every row, so every trimmed refit is rank deficient.
    data = tmp_path / "flat.csv"
    data.write_text("y,x1,x2\n" + "".join(f"{i},{i},0\n" for i in range(1, 11)))
    exp = {"version": 1, "name": "exp", "dataset": str(data),
           "solver": {"kind": "ilts", "tau": 0.5}, "repeats": 2,
           "output_dir": str(tmp_path / "out")}
    assert main(["experiment", "--config", write_config(tmp_path, exp, "exp.json")]) == 1
    with open(tmp_path / "out" / "exp.rows.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["repeat"] for row in rows] == ["0", "1"]
    assert all(row["seed"] == "" and "rank" in row["error"] for row in rows)


@pytest.mark.parametrize("command, doc, where", [
    ("generate", dict(GEN_CONFIG, model=dict(GEN_CONFIG["model"], seed=-5)), "model/seed"),
    ("experiment", {"version": 1, "name": "exp", "model": dict(GEN_CONFIG["model"], seed=-5),
                    "solver": {"kind": "ilts", "tau": 0.4}, "repeats": 3}, "model/seed"),
    # The schema rejects the file before the dataset is read.
    ("experiment", {"version": 1, "name": "exp", "dataset": "inst.csv",
                    "solver": {"kind": "ilts", "tau": 0.4, "seed": -5}, "repeats": 3},
     "solver/seed"),
], ids=["generate-model-seed", "experiment-model-seed", "experiment-solver-seed"])
def test_negative_seed_in_a_config_fails_once(tmp_path, capsys, command, doc, where):
    cfg = write_config(tmp_path, dict(doc, output_dir=str(tmp_path / "out")), "cfg.json")
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: -5 is less than the minimum of 0 (at {where})\n")
    assert not (tmp_path / "out").exists()


def test_experiment_csvs_end_lines_in_lf(tmp_path):
    exp = {"version": 1, "name": "exp", "model": GEN_CONFIG["model"],
           "solver": {"kind": "ilts", "tau": 0.4}, "repeats": 2,
           "output_dir": str(tmp_path / "out")}
    assert main(["experiment", "--config", write_config(tmp_path, exp, "exp.json")]) == 0
    for name in ("exp.rows.csv", "exp.aggregate.csv"):
        assert b"\r" not in (tmp_path / "out" / name).read_bytes()


@pytest.mark.parametrize("command, path, value", [
    ("generate", ("model", "n"), 300.0),
    ("generate", ("model", "seed"), 21.0),
    ("experiment", ("repeats",), 2.0),
    ("experiment", ("solver", "max_rounds"), 5.0),
], ids=["generate-n", "generate-seed", "experiment-repeats", "experiment-max-rounds"])
def test_integral_float_in_an_integer_field_fails_once(tmp_path, capsys, command, path, value):
    out = tmp_path / "out"
    doc = json.loads(json.dumps(
        GEN_CONFIG if command == "generate" else
        {"version": 1, "name": "exp", "model": GEN_CONFIG["model"],
         "solver": {"kind": "ilts", "tau": 0.4}, "repeats": 2, "output_dir": str(out)}))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    cfg = write_config(tmp_path, doc, "config.json")
    argv = ["--config", cfg] + (["--output-dir", str(out)] if command == "generate" else [])
    assert main([command] + argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and cfg in err and f"(at {'/'.join(path)})" in err
    assert not out.exists()


NAN, INF = float("nan"), float("inf")
ONE_COMPONENT = dict(GEN_CONFIG["model"], m=1, components=[[1.0, 0.0, 0.0]], weights=[1.0])
COVARIANCE_WITH_NAN = [None, [[1.0, 0.0, 0.0], [0.0, NAN, 0.0], [0.0, 0.0, 1.0]]]


@pytest.mark.parametrize("command, path, value, message", [
    ("generate", ("corruption", "magnitude"), NAN, "magnitude must be positive and finite"),
    ("generate", ("corruption", "gamma_star"), NAN,
     "gamma_star must be nonnegative and finite"),
    ("generate", ("corruption", "gamma_star"), INF,
     "gamma_star must be nonnegative and finite"),
    ("generate", ("model", "weights", 0), NAN,
     "weights must be strictly positive and finite"),
    ("generate", ("model", "covariance"), COVARIANCE_WITH_NAN,
     "covariance 1 contains non-finite entries"),
    ("generate", ("model", "d"), 0, "d must be at least 1"),
    ("experiment", ("solver", "max_rounds"), 0, "max_rounds must be at least 1"),
    ("experiment", ("solver",),
     {"kind": "gd-ilts", "tau": 0.4, "schedule": "adaptive", "m_steps": 0},
     "m_steps must be at least 1"),
    ("experiment", ("solver", "theta0"), [NAN, 0.0, 0.0],
     "theta0 contains non-finite entries"),
    # Instance sizes depend on the spec and n alone, so they fail before any repeat.
    ("experiment", ("model", "n"), 2, "n = 2 must be at least d = 3"),
    ("experiment", ("model", "weights"), [0.999, 0.001],
     "some component receives zero samples at this n"),
    ("experiment", ("solver",),
     {"kind": "global", "m": 2, "tau_list": [0.35, 0.35], "delta": 1e-4,
      "candidate_budget": 5, "max_rounds": 0}, "max_rounds must be at least 1"),
    ("experiment", ("solver",),
     {"kind": "global", "m": 2, "tau_list": [0.35, 0.35], "delta": 1e-4,
      "candidate_budget": 5, "tol": -1.0}, "tol must be nonnegative"),
    # floor(0.001 * 300) = 0 rows would be selected, whatever the solver kind.
    ("experiment", ("solver", "tau"), 0.001,
     "floor(tau * n) = 0; no samples would be selected"),
    ("experiment", ("solver",), {"kind": "gd-ilts", "tau": 0.001},
     "floor(tau * n) = 0; no samples would be selected"),
    # Separation needs two components: the model's m, or the truth's in dataset mode.
    ("experiment", (), {"model": ONE_COMPONENT, "diagnostics": ["q_separation"]},
     "q_separation diagnostic needs at least two components, m = 1"),
    ("experiment", (), {"model": None, "dataset": "one.csv", "truth": "one.truth.json",
                        "diagnostics": ["gamma_star", "q_separation"]},
     "q_separation diagnostic needs at least two components, m = 1"),
], ids=["magnitude-nan", "gamma-star-nan", "gamma-star-inf", "weight-nan",
        "covariance-nan", "d-zero", "max-rounds-zero", "adaptive-m-steps-zero",
        "theta0-nan", "n-below-d", "component-without-rows", "global-max-rounds-zero",
        "global-tol-negative", "ilts-selects-nothing", "gd-ilts-selects-nothing",
        "separation-one-component-model", "separation-one-component-dataset"])
def test_bad_config_value_fails_once_naming_file_and_field(tmp_path, capsys, monkeypatch,
                                                           command, path, value, message):
    out = tmp_path / "out"
    doc = json.loads(json.dumps(
        GEN_CONFIG if command == "generate" else
        {"version": 1, "name": "exp", "model": GEN_CONFIG["model"],
         "corruption": GEN_CONFIG["corruption"],
         "solver": {"kind": "ilts", "tau": 0.4}, "repeats": 2, "output_dir": str(out)}))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if path:
        parent[path[-1]] = value
    else:  # top-level keys, None deleting one
        doc = {key: v for key, v in dict(doc, **value).items() if v is not None}
    if "dataset" in doc:  # the one-component instance, generated beside the config
        monkeypatch.chdir(tmp_path)
        one = write_config(tmp_path, dict(GEN_CONFIG, name="one", model=ONE_COMPONENT))
        assert main(["generate", "--config", one]) == 0
        capsys.readouterr()
    cfg = write_config(tmp_path, doc, "config.json")
    argv = ["--config", cfg] + (["--output-dir", str(out)] if command == "generate" else [])
    assert main([command] + argv) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("field", ["theta_star", "r"])
def test_non_finite_truth_names_the_file_and_field(tmp_path, capsys, field):
    data, truth = generate(tmp_path)
    doc = json.loads(Path(truth).read_text())
    (doc["theta_star"][0] if field == "theta_star" else doc["r"])[0] = NAN
    Path(truth).write_text(json.dumps(doc))
    capsys.readouterr()
    prefix = tmp_path / "fit"
    assert main(["fit", data, "--tau", "0.4", "--truth", truth,
                 "--out-prefix", str(prefix)]) == 1
    assert capsys.readouterr().err == f"error: {truth}: {field} contains non-finite entries\n"
    assert not (tmp_path / "fit.summary.json").exists()
