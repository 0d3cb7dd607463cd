"""Gradient-descent variant tests."""

import math
import re

import numpy as np
import pytest

from trimfit import gd
from trimfit.gd import (DivergenceError, GdConfig, gd_ilts_run, gd_inner_loop,
                        largest_curvature, normal_system, stopping_steps)
from trimfit.ilts import IltsConfig, ilts_run, least_squares
from trimfit.model import CorruptionSpec, Dataset, MixtureSpec, generate_mlrc


def test_stopping_steps_frozen_value():
    # w = 10, lam = 0.01: ceil(ln(10 / (0.01 * ln 100))) = ceil(5.3806...) = 6
    assert stopping_steps(0.01, 10.0) == 6


def test_stopping_steps_matches_formula():
    rng = np.random.default_rng(14)
    for _ in range(100):
        lam = float(rng.uniform(1e-6, 0.999))
        w = float(rng.uniform(0.1, 50.0))
        c_u = float(rng.uniform(0.2, 3.0))
        expect = max(1, math.ceil(c_u * math.log(w / (lam * math.log(1.0 / lam)))))
        assert stopping_steps(lam, w, c_u) == expect


def test_stopping_steps_nonincreasing_below_inverse_e():
    grid = np.linspace(1e-4, 1.0 / math.e, 50)
    counts = [stopping_steps(float(lam), 10.0) for lam in grid]
    for a, b in zip(counts, counts[1:]):
        assert a >= b


@pytest.mark.parametrize("args, message", [
    ((0.1, math.nan), "w and c_u must be positive and finite"),
    ((0.1, math.inf), "w and c_u must be positive and finite"),
    ((0.1, 10.0, math.inf), "w and c_u must be positive and finite"),
    ((1.0 / math.e, 1e308), "w = 1e+308 and c_u = 1.0 give a non-finite inner step count"),
    ((0.1, 10.0, 1e308), "w = 10.0 and c_u = 1e+308 give a non-finite inner step count"),
], ids=["w-nan", "w-inf", "c_u-inf", "w-overflows", "c_u-overflows"])
def test_stopping_steps_rejects_non_finite_counts(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        stopping_steps(*args)


@pytest.mark.parametrize("lam", [1e-310, 5e-324], ids=["subnormal", "smallest"])
def test_stopping_steps_names_a_subnormal_lam(lam):
    # 1 / lam overflows, so lam * ln(1 / lam) is infinite and ln(w / inf) undefined.
    message = f"lam = {lam} gives lam * ln(1 / lam) = inf, not positive and finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        stopping_steps(lam, 10.0)


def test_stopping_steps_validation():
    with pytest.raises(ValueError):
        stopping_steps(0.0, 10.0)
    with pytest.raises(ValueError):
        stopping_steps(1.0, 10.0)
    with pytest.raises(ValueError):
        stopping_steps(0.5, 0.0)
    with pytest.raises(ValueError):
        stopping_steps(0.5, 10.0, c_u=0.0)


def test_single_gradient_step_hand_example():
    # X = (1, 1)^T, y = (1, 1), theta = 0, eta = 0.5: the mean gradient is
    # -1, so one step lands on 0.5
    ds = Dataset(X=np.array([[1.0], [1.0]]), y=np.array([1.0, 1.0]))
    theta = gd_inner_loop(*normal_system(ds, np.arange(2)), np.array([0.0]), eta=0.5, m_steps=1)
    assert theta[0] == pytest.approx(0.5, abs=1e-15)


def test_inner_loop_fixed_at_least_squares_solution():
    rng = np.random.default_rng(6)
    ds = Dataset(X=rng.standard_normal((30, 3)), y=rng.standard_normal(30))
    subset = np.arange(30)
    star = least_squares(ds, subset)
    moved = gd_inner_loop(*normal_system(ds, subset), star, eta=0.1, m_steps=50)
    assert np.linalg.norm(moved - star) <= 1e-12


def test_inner_loop_descends_at_safe_step_size():
    rng = np.random.default_rng(7)
    ds = Dataset(X=rng.standard_normal((50, 4)), y=rng.standard_normal(50))
    subset = np.arange(50)
    eta = 1.0 / largest_curvature(normal_system(ds, subset)[0])

    def mean_loss(theta):
        res = ds.y - ds.X @ theta
        return float(res @ res) / 50

    theta = rng.standard_normal(4)
    prev = mean_loss(theta)
    for _ in range(20):
        theta = gd_inner_loop(*normal_system(ds, subset), theta, eta=eta, m_steps=1)
        cur = mean_loss(theta)
        assert cur <= prev + 1e-12
        prev = cur


def test_inner_loop_divergence_guard():
    ds = Dataset(X=np.array([[10.0], [10.0]]), y=np.array([1.0, 1.0]))
    with pytest.raises(DivergenceError):
        gd_inner_loop(*normal_system(ds, np.arange(2)), np.array([1.0]), eta=10.0, m_steps=200)


def test_largest_curvature_matches_eigenvalue(monkeypatch):
    rng = np.random.default_rng(9)
    X = rng.standard_normal((80, 5))
    ds = Dataset(X=X, y=np.zeros(80))
    # 20 steps leave 2e-4 here, where the second eigenvalue is 0.87 of the first.
    monkeypatch.setattr(gd, "POWER_ITERATIONS", 200)
    est = largest_curvature(normal_system(ds, np.arange(80))[0])
    exact = float(np.linalg.eigvalsh(X.T @ X / 80).max())
    assert est == pytest.approx(exact, rel=1e-6)


def two_component_instance(seed=2):
    spec = MixtureSpec(d=3, m=2,
                       components=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                       weights=[0.5, 0.5])
    corr = CorruptionSpec(gamma_star=0.05, adversary="oblivious-random", magnitude=2.0)
    return generate_mlrc(spec, corr, n=400, seed=seed)


def test_matches_exact_alternation_with_many_inner_steps():
    ds, truth = two_component_instance()
    theta0 = np.array([0.6, 0.0, 0.0])
    exact = ilts_run(ds, theta0, IltsConfig(tau=0.4, max_rounds=30, tol=1e-11),
                     truth=truth)
    gd = gd_ilts_run(ds, theta0, GdConfig(tau=0.4, m_steps=500, max_rounds=30,
                                          tol=1e-11), truth=truth)
    assert gd.converged
    tol = 1e-4 * (1.0 + np.linalg.norm(exact.final))
    assert np.linalg.norm(gd.final - exact.final) <= tol


def test_gd_trace_records_inner_steps():
    ds, truth = two_component_instance()
    cfg = GdConfig(tau=0.4, m_steps=50, max_rounds=20, tol=1e-9)
    trace = gd_ilts_run(ds, np.array([0.6, 0.0, 0.0]), cfg, truth=truth)
    assert trace.inner_steps is not None
    assert len(trace.inner_steps) == trace.rounds_used
    assert all(m == 50 for m in trace.inner_steps)


def test_adaptive_schedule_from_the_origin_restarts_at_the_cheapest_count():
    # Round 1 measures its movement against theta0 = 0, which has no relative
    # size, so it takes the opening count again.
    ds, _ = two_component_instance()
    cfg = GdConfig(tau=0.4, schedule="adaptive", w=10.0, c_u=1.5, max_rounds=3)
    trace = gd_ilts_run(ds, np.zeros(3), cfg)
    assert trace.rounds_used >= 2
    assert trace.inner_steps[:2] == (stopping_steps(1.0 / math.e, 10.0, 1.5),) * 2


def test_adaptive_schedule_takes_more_steps_as_movement_shrinks():
    ds, truth = two_component_instance()
    cfg = GdConfig(tau=0.4, schedule="adaptive", w=10.0, max_rounds=40, tol=1e-10)
    trace = gd_ilts_run(ds, np.array([0.6, 0.0, 0.0]), cfg, truth=truth)
    assert trace.converged
    first = trace.inner_steps[0]
    # the opening round uses the cheapest count; later rounds never go below
    # it and the stalled final rounds use strictly more
    assert first == stopping_steps(1.0 / math.e, 10.0)
    assert all(m >= first for m in trace.inner_steps)
    assert trace.inner_steps[-1] > first


def test_largest_curvature_of_all_zero_rows_fails_by_name():
    with pytest.raises(ValueError, match=r"^selected rows are all zero; curvature undefined$"):
        largest_curvature(np.zeros((3, 3)))


def test_gd_config_validation():
    with pytest.raises(ValueError):
        GdConfig(tau=0.4, eta=-1.0)
    with pytest.raises(ValueError):
        GdConfig(tau=0.4, schedule="linear")
    with pytest.raises(ValueError):
        GdConfig(tau=0.4, m_steps=0)
    with pytest.raises(ValueError, match="m_steps"):
        GdConfig(tau=0.4, schedule="adaptive", m_steps=0)
    with pytest.raises(ValueError):
        GdConfig(tau=1.5)
