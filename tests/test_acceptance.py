"""Acceptance suite for the toolkit.

Fourteen numbered checks, one test each, covering exact single-round
recovery, local contraction under corruption, the tiny-instance exhaustive
oracle, monotone descent, global recovery, subspace estimation quality,
regularity and affine-error scaling, the assembled contraction bound, the
gradient-descent variant, the stopping schedule, non-isotropic features,
and byte determinism. Each test prints one pass/fail line with its tally.
One more test pins the diagnostics' values by digest.
"""

import functools
import hashlib
import itertools
import math
import time

import numpy as np

import trimfit as tf
from trimfit.cli import write_trace_csv
from trimfit.ilts import select_trimmed_set, trimmed_loss

SEEDS = range(10)


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}" + (f" | {detail}" if detail else "")
    print(line)
    assert ok, line


def axis(d, i, scale=1.0):
    v = np.zeros(d)
    v[i] = scale
    return v


def two_opposed_spec(d=20, covariance=None):
    return tf.MixtureSpec(d=d, m=2,
                          components=[axis(d, 0), axis(d, 0, -1.0)],
                          weights=[0.5, 0.5], covariance=covariance)


CORRUPT = tf.CorruptionSpec(gamma_star=0.05, adversary="oblivious-random",
                            magnitude=2.0)


# ---------------------------------------------------------------------------
# cached runners shared between the numbered checks

@functools.lru_cache(maxsize=None)
def run_single_component():
    d = 20
    rng = np.random.default_rng(1000)
    spec = tf.MixtureSpec(d=d, m=1, components=[rng.standard_normal(d)],
                          weights=[1.0])
    start = time.perf_counter()
    ds, truth = tf.generate_mlrc(spec, tf.CorruptionSpec(), n=500, seed=0)
    theta0 = rng.standard_normal(d)
    trace = tf.ilts_run(ds, theta0, tf.IltsConfig(tau=1.0, max_rounds=10, tol=0.0),
                        truth=truth)
    elapsed = time.perf_counter() - start
    star = truth.theta_star[:, 0]
    rel = float(np.linalg.norm(trace.final - star) / np.linalg.norm(star))
    return {"rel_err": rel, "rounds": trace.rounds_used, "elapsed": elapsed,
            "losses": (tuple(trace.trimmed_losses),)}


@functools.lru_cache(maxsize=None)
def run_two_component(gamma):
    spec = two_opposed_spec()
    corr = CORRUPT if gamma else tf.CorruptionSpec()
    theta0 = axis(20, 0, 0.6)
    start = time.perf_counter()
    rows = []
    losses = []
    for seed in SEEDS:
        ds, truth = tf.generate_mlrc(spec, corr, n=4000, seed=seed)
        trace = tf.ilts_run(ds, theta0,
                            tf.IltsConfig(tau=0.4, max_rounds=30, tol=1e-11),
                            truth=truth)
        ratios = tf.contraction_ratio(trace, truth, 0)
        err = float(np.linalg.norm(trace.final - truth.theta_star[:, 0]))
        rows.append({"seed": seed, "ratios": ratios, "err": err,
                     "converged": trace.converged, "rounds": trace.rounds_used})
        losses.append(tuple(trace.trimmed_losses))
    return {"rows": rows, "elapsed": time.perf_counter() - start,
            "losses": tuple(losses)}


@functools.lru_cache(maxsize=None)
def run_tiny_oracle():
    start = time.perf_counter()
    results = []
    losses = []
    for seed in range(50):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(8, 13))
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        comps = [rng.standard_normal(d) for _ in range(m)]
        spec = tf.MixtureSpec(d=d, m=m, components=comps, weights=[1.0 / m] * m)
        ds, truth = tf.generate_mlrc(spec, tf.CorruptionSpec(), n=n, seed=seed)
        k = max(int(np.floor(0.6 * n + 1e-9)), d + 1)
        tau = k / n + 1e-12
        theta0 = rng.standard_normal(d)
        trace = tf.ilts_run(ds, theta0,
                            tf.IltsConfig(tau=tau, max_rounds=80, tol=1e-13),
                            truth=truth)
        theta_f = trace.final
        s_f = select_trimmed_set(ds, theta_f, k)
        loss_f = trimmed_loss(ds, theta_f, s_f)
        # selection half-step: no size-k subset beats the selected one
        best = min(trimmed_loss(ds, theta_f, np.array(c))
                   for c in itertools.combinations(range(n), len(s_f)))
        sel_ok = loss_f <= best + 1e-12
        # solve half-step: the iterate is stationary on its selected rows
        X_S, y_S = ds.X[s_f], ds.y[s_f]
        grad = X_S.T @ (X_S @ theta_f - y_S)
        ls_ok = bool(np.linalg.norm(grad)
                     <= 1e-8 * max(1.0, float(np.linalg.norm(X_S.T @ y_S))))
        results.append(bool(sel_ok and ls_ok and trace.converged))
        losses.append(tuple(trace.trimmed_losses))
    return {"results": results, "elapsed": time.perf_counter() - start,
            "losses": tuple(losses)}


@functools.lru_cache(maxsize=None)
def run_contraction_traces():
    """contraction_bound_trace records on 20 two-component instances, one list each."""
    spec = tf.MixtureSpec(d=2, m=2, components=[[1.0, 0.0], [-1.0, 0.0]],
                          weights=[0.5, 0.5])
    runs = []
    for seed in range(20):
        n = 100 + (seed % 6) * 20
        ds, truth = tf.generate_mlrc(spec, CORRUPT, n=n, seed=seed)
        trace = tf.ilts_run(ds, truth.theta_star[:, 0] * 0.6,
                            tf.IltsConfig(tau=0.3, max_rounds=30, tol=1e-12),
                            truth=truth)
        runs.append(tf.contraction_bound_trace(ds, truth, trace, j=0, tau=0.3,
                                               seed=seed, directions=64, trials=200))
    return tuple(runs)


# ---------------------------------------------------------------------------

def test_01_exact_recovery_in_one_round():
    r = run_single_component()
    ok = r["rel_err"] <= 1e-8 and r["rounds"] == 1 and r["elapsed"] < 1.0
    report("01 exact recovery, single round", ok,
           f"rel_err={r['rel_err']:.2e} rounds={r['rounds']} t={r['elapsed']:.3f}s")


def test_02_local_contraction_under_corruption():
    r = run_two_component(gamma=0.05)
    good = 0
    worst = 0.0
    for row in r["rows"]:
        worst = max(worst, max(row["ratios"], default=0.0))
        if (row["converged"] and row["rounds"] <= 30 and row["err"] <= 1e-6
                and all(k < 0.9 for k in row["ratios"])):
            good += 1
    ok = good >= 9 and r["elapsed"] < 10.0
    report("02 contraction with 5% corruption", ok,
           f"{good}/10 seeds, worst ratio {worst:.3f}, t={r['elapsed']:.2f}s")


def test_03_superlinear_clean_contraction():
    r = run_two_component(gamma=0.0)
    good = 0
    for row in r["rows"]:
        head = row["ratios"][:3]
        if len(head) == 3 and head[0] > head[1] > head[2]:
            good += 1
    ok = good >= 8
    report("03 clean-data ratios strictly decreasing", ok, f"{good}/10 seeds")


def test_04_exhaustive_tiny_instance_oracle():
    r = run_tiny_oracle()
    good = sum(r["results"])
    ok = good == 50 and r["elapsed"] < 30.0
    report("04 exhaustive subset oracle", ok,
           f"{good}/50 instances, t={r['elapsed']:.1f}s")


def test_05_monotone_trimmed_loss_everywhere():
    all_losses = (run_single_component()["losses"]
                  + run_two_component(gamma=0.05)["losses"]
                  + run_two_component(gamma=0.0)["losses"]
                  + run_tiny_oracle()["losses"])
    violations = 0
    runs = 0
    for seq in all_losses:
        runs += 1
        for a, b in zip(seq, seq[1:]):
            if b > a + 1e-10 * max(1.0, a):
                violations += 1
    ok = violations == 0 and runs >= 62
    report("05 monotone descent across all runs", ok,
           f"{runs} runs, {violations} violations")


def test_06_global_recovery_three_components():
    d, n = 10, 3000
    comps = [axis(d, j) for j in range(3)]
    spec = tf.MixtureSpec(d=d, m=3, components=comps, weights=[1 / 3] * 3)
    good = 0
    slowest = 0.0
    for seed in SEEDS:
        start = time.perf_counter()
        ds, truth = tf.generate_mlrc(spec, tf.CorruptionSpec(), n=n, seed=seed)
        cfg = tf.GlobalConfig(m=3, tau_list=(0.3, 0.3, 0.3),
                              candidate_budget=5000, epsilon_net=0.2,
                              seed=seed, radius=1.0)
        rep = tf.global_ilts(ds, cfg, truth=truth)
        slowest = max(slowest, time.perf_counter() - start)
        if not rep.partial and rep.epsilon_recovery <= 1e-4:
            good += 1
    ok = good >= 8 and slowest < 120.0
    report("06 global three-component recovery", ok,
           f"{good}/10 seeds, slowest {slowest:.1f}s")


def test_07_subspace_error_shrinks_with_n():
    d = 8
    spec = tf.MixtureSpec(d=d, m=2, components=[axis(d, 0), axis(d, 1)],
                          weights=[0.5, 0.5])
    u_true = np.eye(d)[:, :2]
    medians = {}
    for n in (1000, 8000):
        vals = []
        for seed in SEEDS:
            ds, _ = tf.generate_mlrc(spec, tf.CorruptionSpec(), n=n, seed=seed)
            vals.append(tf.subspace_distance(tf.estimate_subspace(ds, 2), u_true))
        medians[n] = float(np.median(vals))
    ok = medians[1000] > medians[8000] and medians[8000] <= 0.1
    report("07 subspace estimation improves with n", ok,
           f"median@1000={medians[1000]:.3f} median@8000={medians[8000]:.3f}")


def test_08_regularity_scaling():
    d = 10
    ok = True
    parts = []
    for n in (500, 1000, 2000):
        k = int(0.2 * n)
        lo, hi = [], []
        for seed in SEEDS:
            X = np.random.default_rng(seed).standard_normal((n, d))
            est = tf.feature_regularity_sampled(X, k, trials=500, seed=seed)
            lo.append(est.psi_minus / k)
            hi.append(est.psi_plus / k)
        lo_med, hi_med = float(np.median(lo)), float(np.median(hi))
        parts.append(f"n={n}: {lo_med:.2f}/{hi_med:.2f}")
        ok = ok and lo_med >= 0.05 and hi_med <= 20.0
    report("08 regularity per-sample scaling", ok, "; ".join(parts))


def test_09_affine_error_scaling():
    n, d = 2000, 10
    grid = (0.05, 0.1, 0.2, 0.4)
    good = 0
    worst = 0.0
    for seed in SEEDS:
        X = np.random.default_rng(seed).standard_normal((n, d))
        partition = np.repeat([0, 1], n // 2)
        tau = [0.8 * 0.5, 0.8 * 0.5]
        c_fit = 0.0
        for delta in grid:
            est = tf.affine_error_estimate(X, partition, tau, 0, delta,
                                           directions=200, seed=seed)
            c_fit = max(c_fit, est.value / max(delta * n, math.log(n)))
        worst = max(worst, c_fit)
        if c_fit <= 10.0:
            good += 1
    ok = good >= 8
    report("09 affine-error linear scaling", ok,
           f"{good}/10 seeds, worst fitted C {worst:.2f}")


def test_10_contraction_bound_dominates():
    good = 0
    tightest = math.inf
    for records in run_contraction_traces():
        if records and all(r["ratio"] <= r["bound"] + 1e-6 for r in records):
            good += 1
        for r in records:
            tightest = min(tightest, r["bound"] - r["ratio"])
    ok = good == 20
    report("10 assembled bound dominates observed ratios", ok,
           f"{good}/20 instances, smallest margin {tightest:.2f}")


def test_diagnostic_values_are_pinned():
    # Checks 09 and 10 assert only scaling and dominance, so these digests pin the
    # values themselves: the records of check 10's instances and check 09's seed 0.
    records = hashlib.sha256(repr(run_contraction_traces()).encode()).hexdigest()
    assert records == "5bded966aee45cff734f00f6d5aa68bf3258c05f13fc445f77f64cd79b95adb8"
    X = np.random.default_rng(0).standard_normal((2000, 10))
    partition = np.repeat([0, 1], 1000)
    estimates = [tf.affine_error_estimate(X, partition, [0.4, 0.4], 0, delta,
                                          directions=200, seed=0)
                 for delta in (0.05, 0.1, 0.2, 0.4)]
    assert [est.value for est in estimates] == [64, 107, 175, 272]
    affine = hashlib.sha256(repr(estimates).encode()).hexdigest()
    assert affine == "bfa2b91eb9534564ae5dd5bdba256051b9a4b45a655dcc67767d98c3a105e9e3"


def test_11_gradient_variant_matches_exact():
    spec = two_opposed_spec()
    theta0 = axis(20, 0, 0.6)
    good = 0
    worst = 0.0
    for seed in SEEDS:
        ds, truth = tf.generate_mlrc(spec, CORRUPT, n=4000, seed=seed)
        star = truth.theta_star[:, 0]
        exact = tf.ilts_run(ds, theta0,
                            tf.IltsConfig(tau=0.4, max_rounds=30, tol=1e-11),
                            truth=truth)
        grad = tf.gd_ilts_run(ds, theta0,
                              tf.GdConfig(tau=0.4, m_steps=500, max_rounds=30,
                                          tol=1e-11), truth=truth)
        gap = abs(float(np.linalg.norm(exact.final - star))
                  - float(np.linalg.norm(grad.final - star)))
        worst = max(worst, gap)
        if gap <= 1e-4:
            good += 1
    ok = good >= 9
    report("11 gradient inner solves match exact solves", ok,
           f"{good}/10 seeds, worst gap {worst:.2e}")


def test_12_stopping_schedule_formula():
    rng = np.random.default_rng(77)
    exact = 0
    for _ in range(100):
        lam = float(rng.uniform(1e-6, 0.999))
        w = float(rng.uniform(0.1, 50.0))
        want = max(1, math.ceil(math.log(w / (lam * math.log(1.0 / lam)))))
        if tf.stopping_steps(lam, w) == want:
            exact += 1
    grid = np.linspace(1e-4, 1.0 / math.e, 50)
    counts = [tf.stopping_steps(float(v), 10.0) for v in grid]
    monotone = all(a >= b for a, b in zip(counts, counts[1:]))
    ok = exact == 100 and monotone
    report("12 stopping schedule closed form", ok,
           f"{exact}/100 exact, monotone={monotone}")


def test_13_nonisotropic_features():
    d = 20
    sigma = np.diag(np.linspace(1.0, 4.0, d))
    spec = two_opposed_spec(covariance=(sigma, sigma))
    # initialization offset shrunk by tau / sigma_max = 0.4 / 4
    theta0 = axis(d, 0) + 0.2 * (0.4 / 4.0) * (axis(d, 0, -1.0) - axis(d, 0))
    good = 0
    for seed in SEEDS:
        ds, truth = tf.generate_mlrc(spec, CORRUPT, n=4000, seed=seed)
        trace = tf.ilts_run(ds, theta0,
                            tf.IltsConfig(tau=0.4, max_rounds=30, tol=1e-11),
                            truth=truth)
        err = float(np.linalg.norm(trace.final - truth.theta_star[:, 0]))
        if trace.converged and err <= 1e-6:
            good += 1
    ok = good >= 8
    report("13 non-isotropic feature convergence", ok, f"{good}/10 seeds")


def test_14_byte_identical_reruns(tmp_path):
    spec = two_opposed_spec()
    theta0 = axis(20, 0, 0.6)
    identical = True
    for label, runner in (
        ("exact", lambda ds, truth: tf.ilts_run(
            ds, theta0, tf.IltsConfig(tau=0.4, max_rounds=30, tol=1e-11),
            truth=truth)),
        ("grad", lambda ds, truth: tf.gd_ilts_run(
            ds, theta0, tf.GdConfig(tau=0.4, m_steps=200, max_rounds=30,
                                    tol=1e-11), truth=truth)),
    ):
        blobs = []
        for attempt in range(2):
            ds, truth = tf.generate_mlrc(spec, CORRUPT, n=4000, seed=3)
            trace = runner(ds, truth)
            path = tmp_path / f"{label}-{attempt}.trace.csv"
            write_trace_csv(trace, str(path))
            blobs.append(path.read_bytes())
        identical = identical and blobs[0] == blobs[1]
    report("14 reruns are byte-identical", identical)
