"""Peak memory of generation, CSV load and save, fits and global recovery, as multiples of X.

    python scripts/peak_memory.py [--n N] [--d D]

Each step runs in a fresh subprocess that imports trimfit from this
checkout's src/, on one instance: n x d features, two orthonormal components
of weight 0.5, no corruption, seed 0.

- generate: generate_mlrc of the instance;
- load: load_dataset of its CSV, written beforehand by another process;
- save: save_dataset of it to a new CSV;
- global: global_ilts on it with the true span given as the subspace (m = 2,
  tau 0.4, budget 8, radius 1, seed 0);
- global-default: the same call with neither a subspace nor a radius, so
  that estimate_subspace and the response-matched scale of default_radius
  run first;
- fit, fit-gd: ilts_run and gd_ilts_run on it at tau 0.4 and their other
  defaults, from a start near component 0;
- reconstruction: reconstruction_error of it against its truth.

For save, the fits, the global steps and reconstruction the dataset is read from raw
files and built before the step starts, and for reconstruction its truth sidecar is
loaded too.

For each step it prints two multiples of the bytes of X (8 n d): the
tracemalloc peak of what the step allocates, and the rise of the process's
peak resident size (ru_maxrss) across the step. The step runs once untraced
for the second, then once under tracemalloc for the first, so the tracing's
own memory stays out of the resident size. A step whose peak stays below
what the process reached before it, such as the dataset's construction
before `global`, shows a rise smaller than its own peak. BLAS runs on one
thread. The defaults take about 5 s.
"""

import argparse
import dataclasses
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc

# numpy and trimfit are imported inside the functions that the child processes
# run, so that this process stays small (see main).
HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STEPS = ("generate", "load", "save", "global", "global-default", "fit", "fit-gd",
         "reconstruction")
# ru_maxrss is in kilobytes on Linux and in bytes on macOS.
_RSS_UNIT = 1 if sys.platform == "darwin" else 1024


def instance(n, d):
    import numpy as np
    import trimfit as tf
    comps = [np.eye(d)[0], np.eye(d)[1]]
    spec = tf.MixtureSpec(d=d, m=2, components=comps, weights=[0.5, 0.5])
    return tf.generate_mlrc(spec, tf.CorruptionSpec(), n=n, seed=0)


def step(name, n, d, workdir):
    """The step as a call, after whatever it needs has been built."""
    import numpy as np
    import trimfit as tf
    if name == "generate":
        return lambda: instance(n, d)
    if name == "load":
        return lambda: tf.load_dataset(os.path.join(workdir, "data.csv"))
    # Read into arrays that own their memory (np.load returns views), frozen
    # so that Dataset keeps them.
    X, y = np.empty((n, d)), np.empty(n)
    for file, a in (("X", X), ("y", y)):
        with open(os.path.join(workdir, file), "rb") as fh:
            fh.readinto(a)
        a.setflags(write=False)
    dataset = tf.Dataset(X=X, y=y)
    del X, y
    if name == "save":
        return lambda: tf.save_dataset(dataset, os.path.join(workdir, "saved.csv"))
    if name == "reconstruction":
        truth = tf.load_truth(os.path.join(workdir, "truth.json"))
        return lambda: tf.reconstruction_error(dataset, truth)
    start = np.eye(d)[0] + 0.3 * np.random.default_rng(0).standard_normal(d) / np.sqrt(d)
    if name == "fit":
        return lambda: tf.ilts_run(dataset, start, tf.IltsConfig(tau=0.4))
    if name == "fit-gd":
        return lambda: tf.gd_ilts_run(dataset, start, tf.GdConfig(tau=0.4))
    config = tf.GlobalConfig(m=2, tau_list=(0.4,), candidate_budget=8, seed=0)
    if name == "global-default":
        return lambda: tf.global_ilts(dataset, config)
    subspace = tf.SubspaceEstimate(basis=np.eye(d)[:, :2])
    return lambda: tf.global_ilts(dataset, dataclasses.replace(config, radius=1.0), subspace)


def measure(name, n, d, workdir):
    run = step(name, n, d, workdir)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    began = time.perf_counter()
    run()
    seconds = time.perf_counter() - began
    rss_rise = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * _RSS_UNIT
    tracemalloc.start()
    run()
    traced_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"traced_peak": traced_peak, "rss_rise": rss_rise, "seconds": seconds}


def prepare(n, d, workdir):
    """Write the instance's CSV, its truth and its raw X and y; return the CSV's size."""
    import trimfit as tf
    dataset, truth = instance(n, d)
    tf.save_dataset(dataset, os.path.join(workdir, "data.csv"))
    tf.save_truth(truth, os.path.join(workdir, "truth.json"))
    dataset.X.tofile(os.path.join(workdir, "X"))
    dataset.y.tofile(os.path.join(workdir, "y"))
    return {"csv_bytes": os.path.getsize(os.path.join(workdir, "data.csv"))}


def child(name, args, workdir):
    """Run one step in a fresh interpreter and return what it printed."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(HERE, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--n", str(args.n), "--d", str(args.d),
         "--step", name, "--workdir", workdir],
        env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=20_000)
    parser.add_argument("--d", type=int, default=50)
    # Internal: the step a child process runs.
    parser.add_argument("--step", choices=("prepare",) + STEPS, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.step == "prepare":
        print(json.dumps(prepare(args.n, args.d, args.workdir)))
        return 0
    if args.step:
        print(json.dumps(measure(args.step, args.n, args.d, args.workdir)))
        return 0

    # This process builds no data: a child starts from the peak resident size
    # of the process that started it, so that peak must stay below the child's.
    x_bytes = 8 * args.n * args.d
    with tempfile.TemporaryDirectory() as workdir:
        csv_bytes = child("prepare", args, workdir)["csv_bytes"]
        print(f"n = {args.n}, d = {args.d}: X is {x_bytes / 2**20:.1f} MB, "
              f"its CSV {csv_bytes / 2**20:.1f} MB")
        print(f"{'step':<16}{'tracemalloc peak / X':>22}{'ru_maxrss rise / X':>20}"
              f"{'rise MB':>10}{'step s':>9}")
        for name in STEPS:
            got = child(name, args, workdir)
            print(f"{name:<16}{got['traced_peak'] / x_bytes:>22.2f}"
                  f"{got['rss_rise'] / x_bytes:>20.2f}{got['rss_rise'] / 2**20:>10.1f}"
                  f"{got['seconds']:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
