"""Compare global_ilts between this checkout and another one, run for run.

    python scripts/compare_global.py OTHER_CHECKOUT

Each checkout runs in its own process, importing trimfit from its src/, the
test instances from its tests/ and the benchmark setups from its bench/:

- sweep-S-reject / sweep-S-recover: both calls of the bench `sweep`
  workload at full size, seeds 0-2;
- cli-io-S: the `global` command of the bench `cli-io` workload (n = 6000,
  budget 50), run through trimfit.cli.main, seeds 0-5;
- stress-S: the ROADMAP stress recipe, seeds 0-9;
- hard-m8: the first hard design of ROADMAP item 18, m = 8, d = 40,
  n = 40,000, tau 0.1, budget 40, seed 0, default delta and radius, which
  no version recovers in full yet;
- each SCREENING_CASES instance of tests/test_pipeline.py.

For every run it prints the rows, rounds, recovered slots and
epsilon_recovery (None without truth) of each checkout, whether the
candidate rows agree on (component, candidate, rounds, accepted, support),
whether the theta_hat bytes agree, whether epsilon_recovery and the
matching agree, whether the whole report agrees: a digest of
trimfit.cli.report_to_dict, which holds the tallies, the radius, delta and
their sources besides, and whether the span and the scale agree: a digest
of the estimate_subspace basis of the run's data and m, of the
default_radius (radius, L) on it and of the tensor starts plan_search puts
ahead of the net there (none in a checkout without them), or of the error
the span or the scale raises, taken whether or not the run itself used
the span and the scale. It then prints each checkout's rounds over all runs, and the slots
the pinned `global` experiment of tests/test_cli.py recovers per repeat at
budgets 4 and 8, for each checkout and for
tests/reference.py::reference_global. Single-threaded
BLAS; the stress runs take a few seconds each, hard-m8 6 to 9 s.

It exits 0 when every run agrees on all five counts and the recall tables
are equal, and 1 otherwise. Given this checkout itself (`.`), it checks that
two fresh processes, each with its own hash seed, recover byte for byte the
same.
"""

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _span_and_scale(dataset, config):
    """Digest of the span estimate_subspace gives, of default_radius and of the tensor
    starts plan_search puts ahead of the net on it, or of the error message where the span
    or the scale fails."""
    import numpy as np
    from trimfit import pipeline
    parts = []
    try:
        span = pipeline.estimate_subspace(dataset, config.m)
        parts.append(span.basis.tobytes())
        radius, factor = pipeline.default_radius(dataset, span)
        parts += [np.float64(radius).tobytes(), factor.tobytes()]
    except ValueError as err:
        parts.append(str(err).encode())
    else:
        plan = pipeline.plan_search(dataset, config, span)
        if len(plan) == 3:  # (settings, ahead, starts) in a checkout with tensor starts
            parts.append(plan[1].tobytes())
    return hashlib.sha256(b"".join(parts)).hexdigest()


def _run(name, report, dataset, config):
    from trimfit import cli
    rows = [tuple(int(v) for v in row[:5]) for row in report.candidate_outcomes]
    return name, {
        "span_scale": _span_and_scale(dataset, config),
        "rows": rows,
        "slots": sum(report.recovered),
        "theta_hat": hashlib.sha256(report.theta_hat.tobytes()).hexdigest(),
        "epsilon": report.epsilon_recovery,
        "matching": report.matching,
        "report": _digest(cli.report_to_dict(report)),
    }


def collect(root):
    for sub in ("src", "tests", "bench"):
        sys.path.insert(0, os.path.join(root, sub))
    import numpy as np
    import test_cli
    import test_pipeline
    import trimfit as tf
    import workloads
    from reference import reference_global
    from trimfit import cli

    runs = []
    sweep = workloads.Sweep()
    for seed in range(3):
        state = sweep.setup(seed, None, "full")
        for key in ("reject", "recover"):
            dataset, truth = state[key]
            config = state[key + "_config"]
            runs.append(_run(f"sweep-{seed}-{key}", tf.global_ilts(dataset, config, truth=truth),
                             dataset, config))

    cli_io = workloads.CliIo()
    for seed in range(6):
        with tempfile.TemporaryDirectory() as workdir:
            state = cli_io.setup(seed, workdir, "full")
            prefix = state["global_prefix"]
            assert cli.main(["generate", "--config", state["config"],
                             "--output-dir", workdir]) == 0
            cli.main(["global", state["csv"], "--m", "3", "--tau", "0.3", "--budget", "50",
                      "--seed", str(seed), "--truth", state["truth_path"],
                      "--out-prefix", prefix])
            with open(prefix + ".candidates.csv", encoding="ascii") as fh:
                rows = [tuple(int(v) for v in row[:5]) for row in list(csv.reader(fh))[1:]]
            with open(prefix + ".report.json", encoding="ascii") as fh:
                doc = json.load(fh)
            span_scale = _span_and_scale(tf.load_dataset(state["csv"]), tf.GlobalConfig(
                m=3, tau_list=(0.3,), candidate_budget=50, seed=seed))
        runs.append((f"cli-io-{seed}", {
            "span_scale": span_scale,
            "rows": rows,
            "slots": sum(doc["recovered"]),
            "theta_hat": hashlib.sha256(json.dumps(doc["theta_hat"]).encode()).hexdigest(),
            "epsilon": doc["epsilon_recovery"],
            "matching": doc["matching"],
            "report": _digest(doc),
        }))

    comps = list(np.random.default_rng(1).standard_normal((5, 20)))
    stress = tf.MixtureSpec(d=20, m=5, components=comps, weights=[0.2] * 5)
    for seed in range(10):
        dataset, truth = tf.generate_mlrc(
            stress, tf.CorruptionSpec(0.05, "oblivious-random", 2.0), n=20000, seed=seed)
        config = tf.GlobalConfig(m=5, tau_list=(0.15,), delta=1e-4, candidate_budget=2000,
                                 epsilon_net=0.5, seed=seed)
        runs.append(_run(f"stress-{seed}", tf.global_ilts(dataset, config, truth=truth),
                         dataset, config))

    hard = tf.MixtureSpec(d=40, m=8, components=list(np.random.default_rng(1).standard_normal(
        (8, 40))), weights=[1 / 8] * 8)
    dataset, truth = tf.generate_mlrc(hard, tf.CorruptionSpec(0.05, "oblivious-random", 2.0),
                                      n=40000, seed=0)
    config = tf.GlobalConfig(m=8, tau_list=(0.1,), candidate_budget=40, seed=0)
    runs.append(_run("hard-m8", tf.global_ilts(dataset, config, truth=truth), dataset, config))

    for case, build in test_pipeline.SCREENING_CASES.items():
        dataset, config, truth = build()
        runs.append(_run(case, tf.global_ilts(dataset, config, truth=truth), dataset, config))

    recall = {}
    for budget in (4, 8):
        doc = {"version": 1, "name": "exp", "model": test_cli.THREE_COMPONENT_MODEL,
               "corruption": test_cli.GEN_CONFIG["corruption"],
               "solver": {"kind": "global", "m": 3, "tau_list": [0.45, 0.28, 0.18],
                          "candidate_budget": budget}}
        specs, config, _ = cli._experiment_setup(doc, None)
        for repeat in range(5):
            seed = doc["model"]["seed"] + repeat
            dataset, _ = tf.generate_mlrc(*specs, n=doc["model"]["n"], seed=seed)
            for name, solve in (("global_ilts", tf.global_ilts), ("reference", reference_global)):
                report = solve(dataset, dataclasses.replace(config, seed=seed))
                recall.setdefault(f"{name}, budget {budget}", []).append(sum(report.recovered))
    return {"runs": runs, "recall": recall}


def main(argv):
    if len(argv) == 3 and argv[0] == "--collect":
        with open(argv[2], "w", encoding="ascii") as fh:
            json.dump(collect(argv[1]), fh)
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONHASHSEED", None)  # each process draws its own hash seed
    found = {}
    with tempfile.TemporaryDirectory() as scratch:
        for label, root in (("other", os.path.abspath(argv[0])), ("this", HERE)):
            out = os.path.join(scratch, label + ".json")
            subprocess.run([sys.executable, os.path.abspath(__file__), "--collect", root, out],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            with open(out, encoding="ascii") as fh:
                found[label] = json.load(fh)

    same = [name for name, _ in found["other"]["runs"]] == [
        name for name, _ in found["this"]["runs"]]
    print("| run | other rows | other rounds | other slots | other epsilon | rows | rounds "
          "| slots | epsilon | rows equal | theta_hat equal | epsilon, matching equal "
          "| report equal | span, scale equal |")
    print("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|")
    for (name, old), (_, new) in zip(found["other"]["runs"], found["this"]["runs"]):
        cells = [name]
        for run in (old, new):
            cells += [len(run["rows"]), sum(row[2] for row in run["rows"]), run["slots"],
                      "None" if run["epsilon"] is None else f"{run['epsilon']:.2e}"]
        equal = [old["rows"] == new["rows"], old["theta_hat"] == new["theta_hat"],
                 (old["epsilon"], old["matching"]) == (new["epsilon"], new["matching"]),
                 old["report"] == new["report"], old["span_scale"] == new["span_scale"]]
        same = same and all(equal)
        cells += equal
        print("| " + " | ".join(str(c) for c in cells) + " |")
    print()
    for label in ("other", "this"):
        rounds = sum(row[2] for _, run in found[label]["runs"] for row in run["rows"])
        print(f"{label}: {rounds} rounds over all runs")
    print()
    print("| pinned `global` experiment | other | this |")
    print("|---|---|---|")
    for key, old in found["other"]["recall"].items():
        print(f"| {key} | {' '.join(map(str, old))} "
              f"| {' '.join(map(str, found['this']['recall'][key]))} |")
    same = same and found["other"]["recall"] == found["this"]["recall"]
    print()
    print("equal" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
