"""The shipped experiment configs run end-to-end through the CLI."""

import csv
import json
import os
import subprocess
import sys

import pytest

from trimfit.cli import EXIT_OK, main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED = sorted(name[:-len(".json")] for name in os.listdir(CONFIG_DIR)
                 if name.endswith(".json"))

# The test extra installs these, so a stray runtime import of one would pass
# every in-process test; trimfit itself needs numpy only.
TEST_ONLY_PACKAGES = ("scipy", "jsonschema", "hypothesis")


def run_shipped(tmp_path, name):
    with open(os.path.join(CONFIG_DIR, name + ".json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["output_dir"] = str(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["experiment", "--config", str(cfg)])
    rows_path = tmp_path / (name + ".rows.csv")
    with open(rows_path, encoding="ascii", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return code, doc, rows


@pytest.mark.parametrize("name", SHIPPED)
def test_config_runs_clean(tmp_path, name):
    code, doc, rows = run_shipped(tmp_path, name)
    assert code == EXIT_OK
    assert len(rows) == doc["repeats"]
    assert all(not row["error"] for row in rows)
    assert (tmp_path / (name + ".aggregate.csv")).exists()


def test_single_exact_converges_in_one_round(tmp_path):
    _, _, rows = run_shipped(tmp_path, "single-exact")
    for row in rows:
        assert row["converged"] == "1"
        assert row["rounds_used"] == "1"
        assert float(row["final_dist"]) <= 1e-8


def test_three_component_global_recovers_every_component(tmp_path):
    # An experiment exits 0 on a partial recovery too, so test_config_runs_clean
    # cannot see a threshold that accepts too little.
    _, _, rows = run_shipped(tmp_path, "three-component-global")
    for row in rows:
        assert row["partial"] == "0"
        assert row["recovered"] == "3"
        assert float(row["epsilon_recovery"]) <= 1e-12


def test_two_component_rows_carry_diagnostics(tmp_path):
    _, _, rows = run_shipped(tmp_path, "two-component-corrupted")
    close = sum(1 for row in rows if float(row["final_dist"]) <= 1e-6)
    assert close >= 9
    for row in rows:
        assert float(row["q_separation"]) == pytest.approx(2.0)
        # realized rate is measured against the post-injection smallest
        # component, so it can land slightly above the requested 0.05
        assert 0.0 < float(row["gamma_star"]) <= 0.06


def test_every_shipped_config_runs_without_the_test_only_packages(tmp_path):
    # A None entry in sys.modules makes every import of that package fail.
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    code = ("import sys\n"
            f"for name in {TEST_ONLY_PACKAGES!r}:\n"
            "    sys.modules[name] = None\n"
            "from trimfit.cli import main\n"
            "sys.exit(max(main(['experiment', '--config', path]) for path in sys.argv[1:]))\n")
    paths = [os.path.abspath(os.path.join(CONFIG_DIR, name + ".json")) for name in SHIPPED]
    proc = subprocess.run([sys.executable, "-c", code] + paths, cwd=tmp_path,
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == EXIT_OK, proc.stderr
    for name, path in zip(SHIPPED, paths):
        with open(path, encoding="utf-8") as fh:
            out = tmp_path / json.load(fh)["output_dir"]
        assert (out / (name + ".rows.csv")).exists()
        assert (out / (name + ".aggregate.csv")).exists()
