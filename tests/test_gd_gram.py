"""Gram-form GD kernels against the matvec form they replaced, the carried normal
system against fresh builds, refits from blocks of rows against one-block refits,
each round's recorded loss against trimmed_loss, and non-finite inputs."""

import math

import numpy as np
import pytest

import trimfit.gd as gd
import trimfit.ilts as ilts
from trimfit.gd import (POWER_ITERATIONS, DivergenceError, GdConfig, gd_ilts_run,
                        gd_inner_loop, largest_curvature, normal_system)
from trimfit.ilts import (IltsConfig, NormalCarry, ilts_run, select_trimmed_set,
                          trimmed_loss)
from trimfit.model import Dataset
from trimfit.util import floor_count


def matvec_largest_curvature(X_S, iterations=POWER_ITERATIONS):
    """Oracle: power iteration through two matvecs over the selected rows, with
    each norm taken on the vector over its largest entry so it cannot overflow."""
    size, d = X_S.shape
    v = np.ones(d) / math.sqrt(d)
    est = 0.0
    for _ in range(iterations):
        w = X_S.T @ (X_S @ v) / size
        peak = np.abs(w).max()
        est = peak * float(np.linalg.norm(w / peak))
        v = w / est
    return est


def matvec_inner_loop(X_S, y_S, theta, eta, m_steps):
    """Oracle: gradient steps through two matvecs over the selected rows."""
    for _ in range(m_steps):
        theta = theta - eta * (X_S.T @ (X_S @ theta - y_S)) / X_S.shape[0]
    return theta


def matvec_run(monkeypatch, dataset, theta0, config):
    """gd_ilts_run with the matvec kernels: normal_system hands over the rows."""
    with monkeypatch.context() as patch:
        patch.setattr(gd, "normal_system",
                      lambda ds, subset, carry: (ds.X[subset], ds.y[subset]))
        patch.setattr(gd, "largest_curvature", matvec_largest_curvature)
        patch.setattr(gd, "gd_inner_loop", matvec_inner_loop)
        return gd_ilts_run(dataset, theta0, config)


def random_rows(rng):
    X = rng.standard_normal((240, 5))
    return X, X @ rng.standard_normal(5) + 0.1 * rng.standard_normal(240)


def tied_integer_rows(rng):
    # Few distinct values and many repeated rows, so residuals tie often.
    X = rng.integers(-2, 3, size=(240, 4)).astype(float)
    return X, X @ np.array([1.0, -1.0, 2.0, 0.0]) + rng.integers(-1, 2, size=240)


def rank_deficient_rows(rng):
    # The last column repeats the first, so every selection's G is singular.
    X = rng.standard_normal((240, 4))
    X[:, 3] = X[:, 0]
    return X, X @ np.array([1.0, 2.0, -1.0, 1.0]) + 0.1 * rng.standard_normal(240)


def extreme_scale_rows(rng):
    # Each row, response included, scaled by 10^s with s uniform in [-100, 100].
    X, y = random_rows(rng)
    scale = 10.0 ** rng.uniform(-100, 100, size=240)
    return X * scale[:, None], y * scale


# Relative bound on the distance between the two forms' iterates. Both forms
# round differently in the last bits only, and each run below stays at a
# condition number where that gap does not grow past it.
RELATIVE_GAP = 1e-12

ROWS = [random_rows, tied_integer_rows, rank_deficient_rows, extreme_scale_rows]


@pytest.mark.parametrize("rows", ROWS, ids=lambda f: f.__name__)
def test_kernels_match_the_matvec_form(rows):
    rng = np.random.default_rng(61)
    X, y = rows(rng)
    ds = Dataset(X=X, y=y)
    for _ in range(5):
        subset = np.sort(rng.choice(ds.n, 96, replace=False))
        gram, rhs = normal_system(ds, subset)
        est = largest_curvature(gram)
        assert abs(est - matvec_largest_curvature(X[subset])) <= RELATIVE_GAP * est
        theta = rng.standard_normal(ds.d)
        got = gd_inner_loop(gram, rhs, theta, 1.0 / est, 20)
        want = matvec_inner_loop(X[subset], y[subset], theta, 1.0 / est, 20)
        assert np.linalg.norm(got - want) <= RELATIVE_GAP * np.linalg.norm(want)


@pytest.mark.parametrize("rows", ROWS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("schedule", ["fixed", "adaptive"])
def test_whole_runs_match_the_matvec_form(monkeypatch, rows, schedule):
    rng = np.random.default_rng(62)
    X, y = rows(rng)
    ds = Dataset(X=X, y=y)
    config = GdConfig(tau=0.6, schedule=schedule, m_steps=30, max_rounds=8, tol=0.0)
    theta0 = rng.standard_normal(ds.d)
    got = gd_ilts_run(ds, theta0, config)
    want = matvec_run(monkeypatch, ds, theta0, config)
    assert got.inner_steps == want.inner_steps and got.rounds_used == want.rounds_used
    gaps = np.linalg.norm(got.iterates - want.iterates, axis=1)
    assert np.all(gaps <= RELATIVE_GAP * np.linalg.norm(want.iterates, axis=1))


def test_normal_system_is_built_once_per_round(monkeypatch):
    rng = np.random.default_rng(63)
    ds = Dataset(*random_rows(rng))
    calls = []

    def counting(dataset, subset, carry):
        calls.append(len(subset))
        return normal_system(dataset, subset, carry)

    monkeypatch.setattr(gd, "normal_system", counting)
    for eta in (None, 0.1):
        calls.clear()
        trace = gd_ilts_run(ds, np.zeros(ds.d), GdConfig(tau=0.5, eta=eta, m_steps=5,
                                                         max_rounds=6, tol=0.0))
        assert calls == [120] * trace.rounds_used == [120] * 6


@pytest.mark.parametrize("run, config", [
    (ilts_run, IltsConfig(tau=0.5, max_rounds=6, tol=0.0)),
    (gd_ilts_run, GdConfig(tau=0.5, m_steps=5, max_rounds=6, tol=0.0)),
], ids=["exact", "gd"])
def test_below_the_gate_the_carry_builds_every_round(monkeypatch, run, config):
    # k d^2 = 120 * 25 is far below CARRY_MIN_WORK, so each round's system is a
    # fresh build by the run's carry, and no update is ever tried.
    rng = np.random.default_rng(63)
    ds = Dataset(*random_rows(rng))
    counts = {"_build": 0, "_update": 0}
    for name in counts:
        def counted(self, *args, method=getattr(NormalCarry, name), name=name):
            counts[name] += 1
            return method(self, *args)
        monkeypatch.setattr(NormalCarry, name, counted)
    trace = run(ds, rng.standard_normal(ds.d), config)
    assert counts == {"_build": trace.rounds_used, "_update": 0}
    assert trace.rounds_used > 1


def huge_rows(rng):
    # Random rows, eight of them, response included, scaled by 1e20 to 1e80.
    X, y = random_rows(rng)
    scale = np.ones(len(y))
    scale[rng.choice(len(y), 8, replace=False)] = 10.0 ** np.linspace(20, 80, 8)
    return X * scale[:, None], y * scale


def huge_responses(rng):
    # Random rows, eight of whose responses alone are scaled by 1e20 to 1e80: only
    # b feels them, through terms bounded by ||x_i|| |y_i|.
    X, y = random_rows(rng)
    y[rng.choice(len(y), 8, replace=False)] *= 10.0 ** np.linspace(20, 80, 8)
    return X, y


def overflowing_rows(rng):
    # Two rows scaled by 1e160, whose squares overflow: G is infinite while either
    # is selected, and an update removing one would leave inf - inf = NaN.
    X, y = random_rows(rng)
    X[:2] *= 1e160
    return X, y


def relative_gap(got, want):
    """Largest entry of |got - want| over the largest entry of |want|; zero when
    both hold the same entries, non-finite ones included."""
    if np.array_equal(got, want, equal_nan=True):
        return 0.0
    return np.abs(got - want).max() / np.abs(want).max()


def carry_everywhere(patch):
    """Carry the normal system at every size and churn, and check each system the
    carry hands out against a fresh build; returns the counts of builds and calls."""
    patch.setattr(ilts, "CARRY_MIN_WORK", 0)
    patch.setattr(ilts, "SWAP_GATHER_COST", 0)
    counts = {"builds": 0, "calls": 0}
    build, system = NormalCarry._build, NormalCarry.system

    def counted_build(self, X_S, y_S):
        counts["builds"] += 1
        return build(self, X_S, y_S)

    def checked_system(self, subset, rows=None):
        counts["calls"] += 1
        gram, rhs = system(self, subset, rows)
        X_S, y_S = self._dataset.X[subset], self._dataset.y[subset]
        with np.errstate(over="ignore", invalid="ignore"):
            assert relative_gap(gram, X_S.T @ X_S) <= 1e-13
            assert relative_gap(rhs, X_S.T @ y_S) <= 1e-13
        return gram, rhs

    patch.setattr(NormalCarry, "_build", counted_build)
    patch.setattr(NormalCarry, "system", checked_system)
    return counts


@pytest.mark.parametrize("rows", ROWS + [huge_rows, huge_responses, overflowing_rows],
                         ids=lambda f: f.__name__)
def test_carried_system_stays_within_1e_13_of_a_fresh_build(monkeypatch, rows):
    # A random walk over selections of 96 rows, 1 to 12 swapped per step, so the
    # huge and overflowing rows enter and leave many times.
    rng = np.random.default_rng(66)
    ds = Dataset(*rows(rng))
    counts = carry_everywhere(monkeypatch)
    carry = NormalCarry(ds)
    subset = np.sort(rng.choice(ds.n, 96, replace=False))
    for _ in range(200):
        carry.system(subset)
        outside = np.setdiff1d(np.arange(ds.n), subset)
        swap = int(rng.integers(1, 13))
        kept = np.delete(subset, rng.choice(len(subset), swap, replace=False))
        subset = np.sort(np.concatenate([kept, rng.choice(outside, swap, replace=False)]))
    assert counts["calls"] == 200 and 1 <= counts["builds"] < 200


@pytest.mark.parametrize("rows", ROWS + [huge_rows], ids=lambda f: f.__name__)
@pytest.mark.parametrize("solver", ["exact", "fixed", "adaptive"])
def test_carried_runs_match_fresh_builds(monkeypatch, rows, solver):
    rng = np.random.default_rng(67)
    ds = Dataset(*rows(rng))
    theta0 = rng.standard_normal(ds.d)
    if solver == "exact":
        run, config = ilts_run, IltsConfig(tau=0.6, max_rounds=8, tol=0.0,
                                           rank_policy="min-norm")
    else:
        run, config = gd_ilts_run, GdConfig(tau=0.6, schedule=solver, m_steps=30,
                                            max_rounds=8, tol=0.0)
    fresh = run(ds, theta0, config)
    with monkeypatch.context() as patch:
        counts = carry_everywhere(patch)
        carried = run(ds, theta0, config)
    assert counts["calls"] == carried.rounds_used == fresh.rounds_used
    assert carried.inner_steps == fresh.inner_steps
    gaps = np.linalg.norm(carried.iterates - fresh.iterates, axis=1)
    assert np.all(gaps <= RELATIVE_GAP * np.linalg.norm(fresh.iterates, axis=1))


def test_a_huge_row_leaving_forces_a_fresh_build(monkeypatch):
    # Row 0 alone outweighs the other 39 by far. Swapping it out for row 40 is a
    # churn of two rows, which the update would take; without the mass rule it
    # would leave about 1e-16 * 1e160 of rounding error behind in G.
    rng = np.random.default_rng(68)
    X, y = random_rows(rng)
    X[0], y[0] = 1e80 * X[0], 1e80 * y[0]
    counts = carry_everywhere(monkeypatch)
    carry = NormalCarry(Dataset(X=X, y=y))
    carry.system(np.arange(40))
    carry.system(np.arange(1, 41))
    assert counts["builds"] == 2
    carry.system(np.arange(2, 42))
    assert counts["builds"] == 2


def gemv_tail_rows(n, d):
    """Random rows of shape (n, d): shapes at which OpenBLAS gemv gives some rows of
    X[S] @ theta other last bits than the same rows of X @ theta, so a loss from
    the gathered product can differ from one from the selection's residuals."""
    def rows(rng):
        X = rng.standard_normal((n, d))
        return X, X @ rng.standard_normal(d) + 0.1 * rng.standard_normal(n)
    rows.__name__ = f"gemv_tail_{n}x{d}"
    return rows


LOSS_ROWS = ROWS + [gemv_tail_rows(101, 64), gemv_tail_rows(999, 63), gemv_tail_rows(50, 33)]


def loss_runs(rows):
    """(dataset, k, trace) for exact and GD runs on the rows, all n of them and
    all but the last, so that both an odd and an even n are run."""
    X, y = rows(np.random.default_rng(69))
    theta0 = np.random.default_rng(70).standard_normal(X.shape[1])
    configs = [(ilts_run, IltsConfig(tau=0.6, max_rounds=8, tol=0.0, rank_policy="min-norm")),
               (gd_ilts_run, GdConfig(tau=0.6, m_steps=30, max_rounds=8, tol=0.0))]
    for n in (len(y), len(y) - 1):
        ds = Dataset(X=X[:n], y=y[:n])
        for run, config in configs:
            yield ds, floor_count(config.tau * n), run(ds, theta0, config)


@pytest.mark.parametrize("rows", LOSS_ROWS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("carried", [False, True], ids=["gate", "carried"])
def test_each_round_records_trimmed_loss_bit_for_bit(monkeypatch, rows, carried):
    if carried:
        monkeypatch.setattr(ilts, "CARRY_MIN_WORK", 0)
    compared = 0
    for ds, k, trace in loss_runs(rows):
        losses = np.array([trimmed_loss(ds, theta, select_trimmed_set(ds, theta, k))
                           for theta in trace.iterates])
        assert trace.trimmed_losses.tobytes() == losses.tobytes()
        compared += len(losses)
    assert compared >= 20


def test_trimmed_loss_matches_the_gathered_product():
    # Oracle: r = y[S] - X[S] @ theta, r @ r. Where k > d the selection carries
    # noise and the two agree within 1e-14 relative. Where k <= d a refit
    # interpolates the selected rows, the loss sits at its rounding floor and
    # only the forward error bound of the residuals, 2 ||r|| e + e^2 with
    # e = d eps || |X_S| |theta| + |y_S| ||, applies.
    checked = {"relative": 0, "floor": 0}
    for rows in LOSS_ROWS:
        for ds, k, trace in loss_runs(rows):
            for theta in trace.iterates:
                subset = select_trimmed_set(ds, theta, k)
                got = trimmed_loss(ds, theta, subset)
                r = ds.y[subset] - ds.X[subset] @ theta
                want = float(r @ r)
                if k > ds.d:
                    checked["relative"] += 1
                    assert abs(got - want) <= 1e-14 * want
                else:
                    checked["floor"] += 1
                    scale = np.abs(ds.X[subset]) @ np.abs(theta) + np.abs(ds.y[subset])
                    e = ds.d * np.finfo(float).eps * np.linalg.norm(scale)
                    assert abs(got - want) <= 2 * math.sqrt(want) * e + e * e
    assert checked["relative"] >= 150 and checked["floor"] >= 40


def test_normal_system_rejects_an_empty_selection():
    with pytest.raises(ValueError, match="empty selection"):
        normal_system(Dataset(*random_rows(np.random.default_rng(64))), np.array([], dtype=int))


def test_curvature_names_the_overflow():
    # 1e160 squared overflows, so G is infinite.
    X = 1e160 * np.random.default_rng(65).standard_normal((20, 2))
    ds = Dataset(X=X, y=np.ones(20))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="overflowed"):
            largest_curvature(normal_system(ds, np.arange(20))[0])
        with pytest.raises(ValueError, match="overflowed"):
            gd_ilts_run(ds, np.zeros(2), GdConfig(tau=0.5))


def test_inner_loop_rejects_a_non_finite_step_size():
    gram, rhs = np.eye(2), np.ones(2)
    for eta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            gd_inner_loop(gram, rhs, np.zeros(2), eta, 5)


def test_divergence_guard_catches_a_nan_iterate():
    # G = x x^T with x = (1e160, -1e160) is [[inf, -inf], [-inf, inf]], so the
    # first step from (1, 1) computes inf - inf: every entry of the iterate is NaN.
    ds = Dataset(X=np.array([[1e160, -1e160]]), y=np.zeros(1))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
        gd_inner_loop(*normal_system(ds, np.arange(1)), np.ones(2), 0.5, 3)


@pytest.mark.parametrize("make", [
    lambda v: GdConfig(tau=0.5, eta=v),
    lambda v: GdConfig(tau=0.5, w=v),
    lambda v: GdConfig(tau=0.5, c_u=v),
    lambda v: GdConfig(tau=0.5, tol=v),
    lambda v: GdConfig(tau=v),
    lambda v: IltsConfig(tau=0.5, tol=v),
    lambda v: IltsConfig(tau=0.5, max_rounds=v),
    lambda v: IltsConfig(tau=v),
], ids=["gd-eta", "gd-w", "gd-c_u", "gd-tol", "gd-tau", "ilts-tol", "ilts-max_rounds",
        "ilts-tau"])
def test_configs_reject_nan(make):
    with pytest.raises(ValueError):
        make(math.nan)


@pytest.mark.parametrize("field", ["eta", "w", "c_u"])
def test_gd_config_rejects_infinite_scales(field):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        GdConfig(tau=0.5, **{field: math.inf})


# Rows per block when the gather is cut down: a selection of 96 rows spans four blocks.
BLOCK_ROWS = 30

BLOCKED_ROWS = ROWS + [huge_rows, huge_responses, overflowing_rows]


def small_blocks(patch, ds):
    """Cut GATHER_BYTES down to BLOCK_ROWS rows of ds; returns the row counts of the
    blocks that the carry's builds read."""
    patch.setattr(ilts, "GATHER_BYTES", 8 * ds.d * BLOCK_ROWS)
    sizes = []
    build = NormalCarry._build

    def recorded(self, X_S, y_S):
        sizes.append(len(y_S))
        return build(self, X_S, y_S)

    patch.setattr(NormalCarry, "_build", recorded)
    return sizes


@pytest.mark.parametrize("rows", BLOCKED_ROWS, ids=lambda f: f.__name__)
def test_blocked_systems_stay_within_1e_13_of_one_product(monkeypatch, rows):
    # The random walk of the carried test, with up to 40 rows swapped, so that builds
    # and updates alike sum several blocks; carry_everywhere checks each system.
    rng = np.random.default_rng(71)
    ds = Dataset(*rows(rng))
    counts = carry_everywhere(monkeypatch)
    sizes = small_blocks(monkeypatch, ds)
    updates = []
    update = NormalCarry._update
    monkeypatch.setattr(NormalCarry, "_update", lambda self, subset, member: updates.append(
        update(self, subset, member)) or updates[-1])
    carry = NormalCarry(ds)
    subset = np.sort(rng.choice(ds.n, 96, replace=False))
    for _ in range(100):
        carry.system(subset)
        outside = np.setdiff1d(np.arange(ds.n), subset)
        swap = int(rng.integers(1, 41))
        kept = np.delete(subset, rng.choice(len(subset), swap, replace=False))
        subset = np.sort(np.concatenate([kept, rng.choice(outside, swap, replace=False)]))
    fresh = counts["calls"] - sum(u is not None for u in updates)
    assert counts["calls"] == 100 and 1 <= fresh < 100
    assert max(sizes) == BLOCK_ROWS and len(sizes) == 4 * fresh


@pytest.mark.parametrize("rows", BLOCKED_ROWS, ids=lambda f: f.__name__)
def test_blocked_refit_stays_within_1e_12_of_the_one_block_refit(monkeypatch, rows):
    rng = np.random.default_rng(72)
    ds = Dataset(*rows(rng))
    fallbacks = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: fallbacks.append(1) or lstsq(*a, **k))
    for _ in range(5):
        # Row 0 in every selection, so that each overflowing selection overflows.
        subset = np.union1d([0], rng.choice(np.arange(1, ds.n), 95, replace=False))
        with np.errstate(over="ignore", invalid="ignore"):
            fallbacks.clear()
            whole = ilts.least_squares(ds, subset, "min-norm")
            one_block = len(fallbacks)
            with monkeypatch.context() as patch:
                small_blocks(patch, ds)
                blocked = ilts.least_squares(ds, subset, "min-norm")
        assert len(fallbacks) == 2 * one_block
        if rows in (rank_deficient_rows, overflowing_rows):
            assert one_block == 1 and blocked.tobytes() == whole.tobytes()
        assert np.linalg.norm(blocked - whole) <= RELATIVE_GAP * np.linalg.norm(whole)


@pytest.mark.parametrize("rows", BLOCKED_ROWS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("solver", ["exact", "fixed", "adaptive"])
@pytest.mark.parametrize("carried", [False, True], ids=["gate", "carried"])
def test_blocked_runs_keep_their_rounds_and_selections(monkeypatch, rows, solver, carried):
    rng = np.random.default_rng(73)
    ds = Dataset(*rows(rng))
    theta0 = rng.standard_normal(ds.d)
    if solver == "exact":
        run, config = ilts_run, IltsConfig(tau=0.4, max_rounds=8, tol=0.0,
                                           rank_policy="min-norm")
    else:
        run, config = gd_ilts_run, GdConfig(tau=0.4, schedule=solver, m_steps=30,
                                            max_rounds=8, tol=0.0)
    if carried:
        monkeypatch.setattr(ilts, "CARRY_MIN_WORK", 0)
    k = floor_count(config.tau * ds.n)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = run(ds, theta0, config)
        with monkeypatch.context() as patch:
            sizes = small_blocks(patch, ds)
            blocked = run(ds, theta0, config)
        assert max(sizes) == BLOCK_ROWS
        assert (blocked.rounds_used, blocked.converged) == (whole.rounds_used, whole.converged)
        for got, want in zip(blocked.iterates, whole.iterates):
            assert np.array_equal(select_trimmed_set(ds, got, k), select_trimmed_set(ds, want, k))
            assert np.linalg.norm(got - want) <= RELATIVE_GAP * np.linalg.norm(want)
