"""Command-line harness tests.

Commands run in-process through main(argv), which returns the exit code.
"""

import csv
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

from trimfit import model, pipeline
from trimfit.cli import main
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


def test_global_default_radius_is_computed_once(tmp_path, monkeypatch):
    data, truth = generate(tmp_path)
    calls = []
    real = pipeline.default_radius
    monkeypatch.setattr(pipeline, "default_radius", lambda ds: calls.append(1) or real(ds))
    prefix = tmp_path / "glob"
    assert main(["global", data, "--m", "2", "--tau", "0.35", "--budget", "400",
                 "--seed", "5", "--truth", truth, "--out-prefix", str(prefix)]) == 0
    assert len(calls) == 1
    # Output hashes recorded when the CLI still derived epsilon = 0.2 * radius itself.
    digests = [hashlib.sha256((tmp_path / f"glob.{suffix}").read_bytes()).hexdigest()
               for suffix in ("report.json", "candidates.csv")]
    assert digests == ["b312c93efa7251792b2ccd7386e8de55d8f109c637b38b69f8e7d925d5668787",
                       "657ccfa3f3af27c62d9b8e1fa0d0f4efebb65fddb15d6dd10d40ae22967633ce"]


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
    # before it was written.
    assert digests == {
        "truth.json": "147ac25b3ddb567c3173886f6d7da8ed7bfd0d4b8c2ef150ee6267bd626a4348",
        "csv": "779fdf4f8bd58d6b2a34ac2b4dce0410f18201f9b9a9078e5f16e985d79012aa",
        "fit.summary.json": "111ae0b1d3c918a0224b5786b940bf2994d4aa4f6ff6eefe3ccb149ae07d2a1e",
        "fit.trace.csv": "32d79a95a99b1f11c5590374f202b055c244af65724aaea2b7b372682050209b",
        "gd.summary.json": "bab98ad4975666fb65495545b337088d7bdfdc846207c6d09e89b3e3009d20f2",
        "gd.trace.csv": "403596cc75606c7f273b302eb2cccd0fc90356428aca3ad72747b4dc206fc3bb",
        "fit-no-truth.summary.json":
            "f5837040ef1c2c0206d71cc81d0e8c8ee59a646fe2536690420357f1b6e9ffa5",
        "fit-no-truth.trace.csv":
            "895c18fef8e4556027a82384a2f1caffad512c208a49c5c07fbd5becc95716ee",
        "global.report.json": "b312c93efa7251792b2ccd7386e8de55d8f109c637b38b69f8e7d925d5668787",
        "global.candidates.csv":
            "657ccfa3f3af27c62d9b8e1fa0d0f4efebb65fddb15d6dd10d40ae22967633ce",
        "partial.report.json": "71a3c1b9481ff9686cf2084494e030a74e8097a2c272e4c53fe25be8a9fd61fa",
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
    # ends of that time turned into LF.
    assert _sha256(tmp_path / "out" / "exp.rows.csv") == (
        "73bd6f3ae75ceb795c2c3161fbf31212f84014d8f5375be9ed9e194319c36f94")


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
], ids=["theta0-length", "tau-zero", "tau-missing", "tau-below-d", "ilts-m-steps",
        "gd-rank-policy", "gd-candidate-budget"])
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
    assert main(["experiment", "--config", write_config(tmp_path, exp, "exp.json")]) == 1
    assert "error: gamma_star diagnostic needs ground truth" in capsys.readouterr().err
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
