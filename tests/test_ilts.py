"""Trimmed alternation solver tests."""

import dataclasses
import itertools

import numpy as np
import pytest

from trimfit import ilts
from trimfit.cli import write_trace_csv
from trimfit.gd import GdConfig, gd_ilts_run
from trimfit.ilts import (RANK_RCOND, IltsConfig, RankDeficientError, SolverTrace,
                          _smallest_k, contraction_ratio, ilts_run, least_squares,
                          select_trimmed_set, trimmed_loss)
from trimfit.model import CorruptionSpec, Dataset, GroundTruth, MixtureSpec, generate_mlrc
from trimfit.pipeline import SCREEN_ROUNDS
from trimfit.util import floor_count


def test_selection_breaks_ties_toward_smaller_index():
    # residuals squared are (4, 4, 1) at theta = 0; k = 2 keeps index 2 and
    # the smaller of the tied pair
    ds = Dataset(X=np.array([[1.0], [1.0], [1.0]]), y=np.array([2.0, -2.0, 1.0]))
    sel = select_trimmed_set(ds, np.array([0.0]), 2)
    assert list(sel) == [0, 2]


def test_selection_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(4, 10))
        ds = Dataset(X=rng.standard_normal((n, 2)), y=rng.standard_normal(n))
        theta = rng.standard_normal(2)
        k = int(rng.integers(1, n + 1))
        sel = select_trimmed_set(ds, theta, k)
        best = min(trimmed_loss(ds, theta, np.array(c))
                   for c in itertools.combinations(range(n), k))
        assert trimmed_loss(ds, theta, sel) <= best + 1e-12


def test_selection_rejects_bad_k():
    ds = Dataset(X=np.ones((3, 1)), y=np.zeros(3))
    with pytest.raises(ValueError):
        select_trimmed_set(ds, np.array([0.0]), 0)
    with pytest.raises(ValueError):
        select_trimmed_set(ds, np.array([0.0]), 4)


def stable_argsort_select(res2, k):
    """Reference selection: the first k of a stable argsort, in index order."""
    order = np.argsort(res2, kind="stable")
    return np.sort(order[:k])


def assert_selects_like_argsort(sel, res2, k):
    assert len(sel) == k
    assert np.all(np.diff(sel) > 0)  # sorted, hence k distinct indices
    assert np.array_equal(sel, stable_argsort_select(res2, k))


def test_selection_matches_stable_argsort_on_tied_data():
    instances = 0
    for ds, theta, _ in tied_integer_instances(300, seed=63):
        res2 = np.square(ds.y - ds.X @ theta)
        for k in range(1, ds.n + 1):
            assert_selects_like_argsort(select_trimmed_set(ds, theta, k), res2, k)
        instances += 1
    assert instances == 300


def test_selection_matches_stable_argsort_at_extreme_magnitudes():
    # Rows scaled near 1e+-300 make squared residuals overflow to inf or
    # underflow to 0, so both values tie across many rows.
    rng = np.random.default_rng(64)
    overflowed = underflowed = 0
    for _ in range(150):
        n = int(rng.integers(5, 25))
        d = int(rng.integers(1, 3))
        scale = 10.0 ** rng.choice([-300, -170, 0, 160, 300, 307], size=n)
        ds = Dataset(X=rng.integers(-2, 3, size=(n, d)) * scale[:, None],
                     y=rng.integers(-2, 3, size=n) * scale)
        theta = rng.integers(-2, 3, size=d).astype(float)
        with np.errstate(over="ignore"):
            res = ds.y - ds.X @ theta
            res2 = np.square(res)
            for k in range(1, n + 1):
                assert_selects_like_argsort(select_trimmed_set(ds, theta, k), res2, k)
        overflowed += np.count_nonzero(np.isinf(res2))
        underflowed += np.count_nonzero((res != 0) & (res2 == 0))
    assert overflowed >= 100 and underflowed >= 100


def test_nan_residuals_rank_after_inf_and_tie_by_index():
    rng = np.random.default_rng(65)
    vectors = [np.full(7, np.nan), np.array([np.nan, 1.0, np.inf, np.nan, 0.0, 1.0])]
    for _ in range(200):
        n = int(rng.integers(1, 20))
        res2 = rng.integers(0, 3, size=n).astype(float)
        res2[rng.random(n) < 0.15] = np.inf
        res2[rng.random(n) < rng.random()] = np.nan
        vectors.append(res2)
    # where the first NaN sits relative to the k-th smallest position
    nan_positions = set()
    for res2 in vectors:
        numbers = np.count_nonzero(~np.isnan(res2))
        for k in range(1, len(res2) + 1):
            assert_selects_like_argsort(_smallest_k(res2, k), res2, k)
            if numbers < len(res2):
                nan_positions.add("after" if k <= numbers else
                                  "at" if k == numbers + 1 else "before")
    assert nan_positions == {"before", "at", "after"}


def test_least_squares_hand_example():
    # points (1, 2) and (2, 6) through the origin: slope (2 + 12) / (1 + 4)
    ds = Dataset(X=np.array([[1.0], [2.0]]), y=np.array([2.0, 6.0]))
    theta = least_squares(ds, np.array([0, 1]))
    assert theta[0] == pytest.approx(2.8, abs=1e-12)


def test_least_squares_matches_normal_equations():
    rng = np.random.default_rng(3)
    ds = Dataset(X=rng.standard_normal((40, 5)), y=rng.standard_normal(40))
    subset = np.arange(25)
    theta = least_squares(ds, subset)
    X_S, y_S = ds.X[subset], ds.y[subset]
    oracle = np.linalg.solve(X_S.T @ X_S, X_S.T @ y_S)
    assert np.linalg.norm(theta - oracle) <= 1e-9
    # stationarity: the residual is orthogonal to the columns
    assert np.linalg.norm(X_S.T @ (X_S @ theta - y_S)) <= 1e-8


def test_least_squares_rank_policies():
    # two identical columns make the design rank 1
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    ds = Dataset(X=X, y=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(RankDeficientError):
        least_squares(ds, np.arange(3), rank_policy="fail")
    theta = least_squares(ds, np.arange(3), rank_policy="min-norm")
    # minimum-norm solution splits the unit slope across both columns
    assert np.allclose(theta, [0.5, 0.5], atol=1e-10)


def test_refit_matches_pseudoinverse_on_rank_deficient_selections():
    rng = np.random.default_rng(11)
    outcomes = {"full": 0, "deficient": 0}
    while min(outcomes.values()) < 100:
        n, d = int(rng.integers(2, 10)), int(rng.integers(2, 6))
        X = rng.standard_normal((n, d))
        for j in range(1, d):  # exact, zero or scaled copies of earlier columns
            kind, source = rng.integers(4), rng.integers(j)
            if kind == 1:
                X[:, j] = X[:, source]
            elif kind == 2:
                X[:, j] = 0.0
            elif kind == 3:
                X[:, j] = rng.choice([-2.0, 0.5, 3.0]) * X[:, source]
        ds = Dataset(X=X, y=rng.standard_normal(n))
        subset = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        X_S, y_S = X[subset], ds.y[subset]
        s = np.linalg.svd(X_S, compute_uv=False)
        if s[0] == 0 or np.any((s > 1e-13 * s[0]) & (s < 1e-6 * s[0])):
            continue  # a borderline singular value: the rank is a matter of cutoff
        rank = int(np.count_nonzero(s > RANK_RCOND * s[0]))
        reference = np.linalg.pinv(X_S, rcond=RANK_RCOND) @ y_S
        theta = least_squares(ds, subset, rank_policy="min-norm")
        assert np.linalg.norm(theta - reference) <= 1e-9 * (1 + np.linalg.norm(reference))
        if rank < d:
            outcomes["deficient"] += 1
            with pytest.raises(RankDeficientError):
                least_squares(ds, subset, rank_policy="fail")
        else:
            outcomes["full"] += 1
            assert np.array_equal(least_squares(ds, subset, rank_policy="fail"), theta)


def counting_lstsq(monkeypatch):
    """Patch np.linalg.lstsq to count its calls; returns the count list."""
    calls = []
    real = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def oracle_rows(rng):
    """(name, X, y) designs for the lstsq oracle: tie-heavy integers, exact,
    zero or scaled column copies, rows scaled by 10^U(-100, 100) and whole
    designs scaled by one such factor."""
    X = rng.integers(-2, 3, size=(60, 4)).astype(float)
    yield "tied", X, X @ np.array([1.0, -1.0, 2.0, 0.0]) + rng.integers(-1, 2, size=60)
    X = rng.standard_normal((60, 5))
    j = int(rng.integers(1, 5))
    X[:, j] = rng.choice([0.0, 1.0, -2.0, 0.5]) * X[:, int(rng.integers(j))]
    yield "deficient", X, rng.standard_normal(60)
    X = rng.standard_normal((60, 5))
    y = X @ rng.standard_normal(5) + 0.1 * rng.standard_normal(60)
    rows = 10.0 ** rng.uniform(-100, 100, size=60)
    yield "scaled-rows", X * rows[:, None], y * rows
    scale = 10.0 ** rng.uniform(-100, 100)
    yield "scaled", X * scale, y * scale


def test_least_squares_matches_the_lstsq_oracle(monkeypatch):
    rng = np.random.default_rng(12)
    calls = counting_lstsq(monkeypatch)
    fast = {}
    for _ in range(100):
        for name, X, y in oracle_rows(rng):
            ds = Dataset(X=X, y=y)
            subset = np.sort(rng.choice(ds.n, int(rng.integers(ds.d, ds.n + 1)), replace=False))
            reference, _, rank, _ = np.linalg.lstsq(X[subset], y[subset], rcond=RANK_RCOND)
            before = len(calls)
            theta = least_squares(ds, subset, rank_policy="min-norm")
            fast[name] = fast.get(name, 0) + (len(calls) == before)
            assert np.linalg.norm(theta - reference) <= 1e-12 * np.linalg.norm(reference), name
            if rank < ds.d:
                with pytest.raises(RankDeficientError):
                    least_squares(ds, subset, rank_policy="fail")
    # Both solves are exercised: tied and whole-scaled designs are well
    # conditioned, column copies never are, and row scales spread over 10^200
    # rarely are.
    assert fast["tied"] == fast["scaled"] == 100 and fast["deficient"] == 0


def conditioned_rows(ratio, rng):
    """Rows whose Gram matrix has eigenvalues 1 and ratio, in a random basis."""
    left = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    right = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    return left @ np.diag([1.0, np.sqrt(ratio)]) @ right.T


@pytest.mark.parametrize("rows, y_value, fallback", [
    (lambda rng: conditioned_rows(2e-8, rng), 1.0, False),
    (lambda rng: conditioned_rows(0.5e-8, rng), 1.0, True),
    (lambda rng: 1e160 * rng.standard_normal((6, 2)), 1.0, True),
    # Six positive products of at least 1e308 overflow X^T y, not X^T X.
    (lambda rng: 1.0 + np.abs(rng.standard_normal((6, 2))), 1e308, True),
    (lambda rng: np.zeros((6, 2)), 1.0, True),
    (lambda rng: rng.standard_normal((1, 2)), 1.0, True),
], ids=["ratio-2e-8", "ratio-0.5e-8", "overflowing-gram", "overflowing-rhs",
        "all-zero-rows", "fewer-rows-than-d"])
def test_fallback_is_taken_exactly_when_the_system_is_ill_conditioned(
        monkeypatch, rows, y_value, fallback):
    X = rows(np.random.default_rng(13))
    calls = counting_lstsq(monkeypatch)
    theta = least_squares(Dataset(X=X, y=np.full(len(X), y_value)), np.arange(len(X)),
                          rank_policy="min-norm")
    assert len(calls) == int(fallback)
    assert np.all(np.isfinite(theta))


def test_a_fit_wide_run_never_falls_back(monkeypatch):
    # The fit-wide benchmark's shape: n x d = 30000 x 100, two orthonormal
    # components, 5% oblivious-random corruption, tau = 0.4.
    rng = np.random.default_rng(14)
    comps = np.linalg.qr(rng.standard_normal((100, 2)))[0].T
    spec = MixtureSpec(d=100, m=2, components=comps, weights=[0.5, 0.5])
    ds, truth = generate_mlrc(spec, CorruptionSpec(0.05, "oblivious-random", 2.0),
                              n=30_000, seed=0)
    calls = counting_lstsq(monkeypatch)
    trace = ilts_run(ds, comps[0] + 0.03 * rng.standard_normal(100),
                     IltsConfig(tau=0.4, max_rounds=30, tol=1e-11), truth=truth)
    assert trace.converged and trace.dist_to_nearest[-1] <= 1e-12
    assert trace.rounds_used >= 2 and calls == []


def one_dim_instance(n=120, seed=5, gamma=0.0):
    spec = MixtureSpec(d=1, m=2, components=[[1.0], [-1.0]], weights=[0.5, 0.5])
    corr = (CorruptionSpec() if gamma == 0 else
            CorruptionSpec(gamma_star=gamma, adversary="oblivious-random", magnitude=2.0))
    return generate_mlrc(spec, corr, n=n, seed=seed)


def test_converges_to_nearer_component():
    ds, truth = one_dim_instance()
    cfg = IltsConfig(tau=0.4, max_rounds=40, tol=1e-12)
    trace = ilts_run(ds, np.array([0.6]), cfg, truth=truth)
    assert trace.converged
    assert abs(trace.final[0] - 1.0) <= 1e-8
    trace = ilts_run(ds, np.array([-0.6]), cfg, truth=truth)
    assert abs(trace.final[0] + 1.0) <= 1e-8


def test_trimmed_loss_never_increases():
    ds, _ = one_dim_instance(n=200, seed=8, gamma=0.1)
    cfg = IltsConfig(tau=0.35, max_rounds=50, tol=0.0)
    trace = ilts_run(ds, np.array([0.3]), cfg)
    losses = trace.trimmed_losses
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-10 * max(1.0, a)


def test_fixed_point_at_truth():
    ds, truth = one_dim_instance()
    cfg = IltsConfig(tau=0.4, max_rounds=10, tol=1e-12)
    trace = ilts_run(ds, truth.theta_star[:, 0].copy(), cfg, truth=truth)
    assert trace.converged
    assert trace.rounds_used == 1
    assert abs(trace.final[0] - 1.0) <= 1e-12


def test_full_selection_stops_after_one_round():
    # tau = 1 selects every sample, so the first solve is already the fixed
    # point and the repeated-set rule stops the run
    spec = MixtureSpec(d=4, m=1, components=[np.arange(1.0, 5.0)], weights=[1.0])
    ds, _ = generate_mlrc(spec, CorruptionSpec(), n=100, seed=4)
    cfg = IltsConfig(tau=1.0, max_rounds=25, tol=0.0)
    trace = ilts_run(ds, np.zeros(4), cfg)
    assert trace.converged
    assert trace.rounds_used == 1
    assert np.allclose(trace.final, np.arange(1.0, 5.0), atol=1e-10)


def test_final_iterate_is_coordinatewise_local_minimum():
    ds, _ = one_dim_instance(n=60, seed=12, gamma=0.1)
    cfg = IltsConfig(tau=0.4, max_rounds=50, tol=1e-13)
    trace = ilts_run(ds, np.array([0.45]), cfg)
    k = floor_count(cfg.tau * ds.n)

    def best_loss(theta):
        return trimmed_loss(ds, theta, select_trimmed_set(ds, theta, k))

    base = best_loss(trace.final)
    for delta in (1e-4, -1e-4):
        perturbed = trace.final + np.array([delta])
        assert best_loss(perturbed) >= base - 1e-10


def test_solver_validates_inputs():
    ds, _ = one_dim_instance()
    with pytest.raises(ValueError, match="tau"):
        IltsConfig(tau=0.0)
    with pytest.raises(ValueError, match="max_rounds"):
        IltsConfig(tau=0.5, max_rounds=0)
    policy = r"^rank_policy must be one of \('fail', 'min-norm'\)$"
    with pytest.raises(ValueError, match=policy):
        IltsConfig(tau=0.5, rank_policy="pinv")
    with pytest.raises(ValueError, match=policy):
        least_squares(ds, np.arange(3), rank_policy="pinv")
    cfg = IltsConfig(tau=0.5)
    with pytest.raises(ValueError, match="theta0 has 2 entries, expected d = 1"):
        ilts_run(ds, np.zeros(2), cfg)
    # selection smaller than d cannot be solved exactly under 'fail'
    wide = Dataset(X=np.eye(6), y=np.zeros(6))
    with pytest.raises(ValueError, match="< d"):
        ilts_run(wide, np.zeros(6), IltsConfig(tau=0.5))


@pytest.mark.parametrize("run", [ilts_run, lambda ds, theta0, cfg, truth: gd_ilts_run(
    ds, theta0, GdConfig(tau=cfg.tau), truth=truth)], ids=["exact", "gd"])
def test_a_truth_of_other_data_fails_naming_both_shapes(run):
    ds, truth = one_dim_instance()
    wide = GroundTruth(theta_star=np.vstack([truth.theta_star, truth.theta_star]),
                       partition=truth.partition, corrupted=truth.corrupted, r=truth.r)
    with pytest.raises(ValueError, match=rf"^truth has n = {ds.n}, d = 2 but the dataset has "
                                         rf"n = {ds.n}, d = 1$"):
        run(ds, np.array([0.6]), IltsConfig(tau=0.4), truth=wide)


def test_trace_shapes_and_distances():
    ds, truth = one_dim_instance()
    cfg = IltsConfig(tau=0.4, max_rounds=30, tol=1e-12)
    trace = ilts_run(ds, np.array([0.6]), cfg, truth=truth)
    r = trace.rounds_used
    assert trace.iterates.shape == (r + 1, 1)
    assert trace.trimmed_losses.shape == (r + 1,)
    assert trace.step_norms.shape == (r,)
    assert trace.dist_to_nearest.shape == (r + 1,)
    assert trace.dist_to_nearest[0] == pytest.approx(0.4)
    trace_no_truth = ilts_run(ds, np.array([0.6]), cfg)
    assert trace_no_truth.dist_to_nearest is None


def test_contraction_ratio_skips_tiny_denominators():
    ds, truth = one_dim_instance()
    cfg = IltsConfig(tau=0.4, max_rounds=30, tol=0.0)
    trace = ilts_run(ds, np.array([0.6]), cfg, truth=truth)
    ratios = contraction_ratio(trace, truth, 0)
    # once the iterate hits the component exactly the remaining rounds are
    # dropped rather than dividing by ~0
    assert len(ratios) < trace.rounds_used + 1
    assert all(r < 1.0 for r in ratios[:2])
    with pytest.raises(ValueError):
        contraction_ratio(trace, truth, 5)


def test_trace_csv_layout(tmp_path):
    ds, truth = one_dim_instance()
    cfg = IltsConfig(tau=0.4, max_rounds=30, tol=1e-12)
    trace = ilts_run(ds, np.array([0.6]), cfg, truth=truth)
    path = tmp_path / "run.trace.csv"
    write_trace_csv(trace, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "round,step_norm,trimmed_loss,dist_to_nearest"
    assert len(lines) == trace.rounds_used + 2
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == ""
    assert float(first[3]) == pytest.approx(0.4)


def tied_integer_instances(count, seed):
    """Small integer designs and responses, so residuals tie often."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(8, 30))
        d = int(rng.integers(1, 4))
        ds = Dataset(X=rng.integers(-2, 3, size=(n, d)).astype(float),
                     y=rng.integers(-3, 4, size=n).astype(float))
        tau = float(rng.choice([0.3, 0.5, 0.7, 1.0]))
        theta0 = rng.integers(-2, 3, size=d).astype(float)
        yield ds, theta0, IltsConfig(tau=tau, rank_policy="min-norm")


def test_exact_rounds_never_increase_loss_on_tied_data():
    runs = 0
    for ds, theta0, cfg in tied_integer_instances(300, seed=61):
        losses = ilts_run(ds, theta0, cfg).trimmed_losses
        runs += 1
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-10 * max(1.0, a)
    assert runs == 300


def test_same_set_stop_is_a_fixed_point():
    stops = 0
    for ds, theta0, cfg in tied_integer_instances(300, seed=62):
        trace = ilts_run(ds, theta0, cfg)
        k = floor_count(cfg.tau * ds.n)
        last = select_trimmed_set(ds, trace.final, k)
        if not np.array_equal(last, select_trimmed_set(ds, trace.iterates[-2], k)):
            continue
        stops += 1
        theta = least_squares(ds, last, cfg.rank_policy)
        assert np.array_equal(theta, trace.final)
        assert np.array_equal(select_trimmed_set(ds, theta, k), last)
    assert stops >= 100


def test_every_round_records_the_loss_of_its_recomputed_selection():
    # A trace keeps no selected sets: S_t is select_trimmed_set at iterates[t]
    rng = np.random.default_rng(4)
    tied = Dataset(X=rng.integers(-2, 3, size=(40, 2)).astype(float),
                   y=rng.integers(-3, 4, size=40).astype(float))
    spec = MixtureSpec(d=3, m=2, components=[[1.0, 0.0, 0.5], [-1.0, 0.5, 0.0]],
                       weights=[0.5, 0.5])
    mixed, truth = generate_mlrc(spec, CorruptionSpec(0.1, "oblivious-random", 2.0),
                                 n=400, seed=10)
    runs = [
        (ilts_run, tied, IltsConfig(tau=0.5, rank_policy="min-norm"), None),
        (gd_ilts_run, tied, GdConfig(tau=0.5, m_steps=5, max_rounds=10), None),
        (ilts_run, mixed, IltsConfig(tau=0.4), truth),
        (gd_ilts_run, mixed, GdConfig(tau=0.4, m_steps=20, max_rounds=20), truth),
    ]
    for run, ds, cfg, tr in runs:
        trace = run(ds, rng.integers(-2, 3, size=ds.d).astype(float), cfg, truth=tr)
        assert trace.rounds_used == len(trace.step_norms) == len(trace.iterates) - 1 >= 2
        k = floor_count(cfg.tau * ds.n)
        losses = np.array([trimmed_loss(ds, theta, select_trimmed_set(ds, theta, k))
                           for theta in trace.iterates])
        assert same_bytes(trace.trimmed_losses, losses), run.__name__
        if tr is not None:
            dists = np.array([np.min(np.linalg.norm(tr.theta_star - theta[:, None], axis=0))
                              for theta in trace.iterates])
            assert same_bytes(trace.dist_to_nearest, dists), run.__name__


def argsort_select_trimmed_set(dataset, theta, k):
    return stable_argsort_select(np.square(dataset.y - dataset.X @ theta), k)


def same_bytes(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same_bytes(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


def boundary_ties(ds, trace, k):
    """Iterates whose k-th and (k+1)-th smallest squared residuals tie."""
    ties = 0
    for theta in trace.iterates:
        res2 = np.sort(np.square(ds.y - ds.X @ theta))
        ties += k < ds.n and res2[k - 1] == res2[k]
    return ties


def test_whole_traces_match_stable_argsort_selection(monkeypatch):
    rng = np.random.default_rng(2)
    tied = Dataset(X=rng.integers(-2, 3, size=(40, 2)).astype(float),
                   y=rng.integers(-3, 4, size=40).astype(float))
    tied_theta0 = rng.integers(-2, 3, size=2).astype(float)
    spec = MixtureSpec(d=3, m=2, components=[[1.0, 0.0, 0.5], [-1.0, 0.5, 0.0]],
                       weights=[0.5, 0.5])
    mixed, truth = generate_mlrc(spec, CorruptionSpec(0.1, "oblivious-random", 2.0),
                                 n=400, seed=9)
    runs = [
        (ilts_run, tied, tied_theta0, IltsConfig(tau=0.5, rank_policy="min-norm"), None),
        (gd_ilts_run, tied, tied_theta0, GdConfig(tau=0.5, m_steps=5, max_rounds=10), None),
        (ilts_run, mixed, np.array([0.6, 0.2, 0.2]), IltsConfig(tau=0.4), truth),
        (gd_ilts_run, mixed, np.array([0.6, 0.2, 0.2]),
         GdConfig(tau=0.4, m_steps=20, max_rounds=20), truth),
    ]
    for run, ds, theta0, cfg, tr in runs:
        trace = run(ds, theta0, cfg, truth=tr)
        calls = []

        def counted_argsort_select(res2, k):
            calls.append(k)
            return stable_argsort_select(res2, k)

        # The alternation selects through _smallest_k, once at the start and once
        # per round; patching select_trimmed_set would leave the reference run as
        # the code under test.
        with monkeypatch.context() as patch:
            patch.setattr(ilts, "_smallest_k", counted_argsort_select)
            reference = run(ds, theta0, cfg, truth=tr)
        assert len(calls) >= reference.rounds_used + 1
        assert trace.rounds_used >= 2
        k = floor_count(cfg.tau * ds.n)
        assert ds is mixed or boundary_ties(ds, trace, k) >= 1  # ties decide the selection
        for theta in trace.iterates:
            assert same_bytes(select_trimmed_set(ds, theta, k),
                              argsort_select_trimmed_set(ds, theta, k))
        for field in dataclasses.fields(SolverTrace):
            assert same_bytes(getattr(trace, field.name), getattr(reference, field.name)), \
                (run.__name__, field.name)


def extreme_magnitude_instances(count, seed):
    """Designs whose rows, response included, are scaled by 10^U(-100, 100), or
    whole designs scaled by one such factor."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, d = int(rng.integers(20, 60)), int(rng.integers(1, 5))
        X = rng.standard_normal((n, d))
        y = X @ rng.standard_normal(d) + rng.standard_normal(n) * (rng.random(n) < 0.3)
        scale = 10.0 ** rng.uniform(-100, 100, size=n if i % 2 else 1)
        yield (Dataset(X=X * scale[:, None], y=y * scale), rng.standard_normal(d),
               IltsConfig(tau=float(rng.choice([0.5, 0.7])), rank_policy="min-norm"))


def test_a_run_continued_after_the_screening_prefix_is_one_uninterrupted_run():
    # pipeline.global_ilts screens a start with SCREEN_ROUNDS rounds and continues a
    # kept one from the prefix's final iterate; below CARRY_MIN_WORK, where every
    # round builds its system afresh, that must be the uninterrupted run.
    continued = 0
    for ds, theta0, cfg in itertools.chain(tied_integer_instances(300, seed=65),
                                           extreme_magnitude_instances(200, seed=66)):
        assert floor_count(cfg.tau * ds.n) * ds.d ** 2 < ilts.CARRY_MIN_WORK
        whole = ilts_run(ds, theta0, cfg)
        trace = ilts_run(ds, theta0, dataclasses.replace(cfg, max_rounds=SCREEN_ROUNDS))
        rounds = trace.rounds_used
        if not trace.converged:
            continued += 1
            rest = dataclasses.replace(cfg, max_rounds=cfg.max_rounds - rounds)
            trace = ilts_run(ds, trace.final, rest)
            rounds += trace.rounds_used
        assert same_bytes(trace.final, whole.final)
        assert (rounds, trace.converged) == (whole.rounds_used, whole.converged)
        assert same_bytes(trace.trimmed_losses[-1], whole.trimmed_losses[-1])
    assert continued >= 100
