"""Diagnostics tests."""

import math

import numpy as np
import pytest

from trimfit.diagnostics import (EXACT_SUBSET_BUDGET, _affine_count, _pair_value,
                                 affine_error_estimate, contraction_bound,
                                 contraction_bound_trace,
                                 feature_regularity_exact,
                                 feature_regularity_sampled, q_separation)
from trimfit.ilts import IltsConfig, ilts_run
from trimfit.model import CorruptionSpec, Dataset, GroundTruth, MixtureSpec, generate_mlrc


def test_q_separation_frozen_example():
    theta = np.array([[2.0, 0.0], [0.0, 1.0]])
    q, per = q_separation(theta)
    root5 = math.sqrt(5.0)
    assert q == pytest.approx(root5 / 2.0)
    assert per[0] == pytest.approx(root5 / 2.0)
    assert per[1] == pytest.approx(root5)


def test_q_separation_validation():
    with pytest.raises(ValueError, match="two components"):
        q_separation(np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError, match="zero-norm"):
        q_separation(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"^theta_star must be d x m$"):
        q_separation(np.ones(3))


def test_regularity_exact_identity_design():
    X = np.eye(2)
    est = feature_regularity_exact(X, 1)
    assert est.psi_plus == pytest.approx(1.0)
    assert est.psi_minus == pytest.approx(0.0)
    assert est.mode == "exact" and est.trials == 2
    est = feature_regularity_exact(X, 2)
    assert est.psi_plus == pytest.approx(1.0)
    assert est.psi_minus == pytest.approx(1.0)
    assert est.trials == 1


def test_regularity_exact_budget_refusal():
    X = np.zeros((100, 2))
    with pytest.raises(ValueError, match="2000000"):
        feature_regularity_exact(X, 50)


def test_regularity_sampled_is_inner_bound():
    rng = np.random.default_rng(20)
    X = rng.standard_normal((12, 2))
    exact = feature_regularity_exact(X, 4)
    sampled = feature_regularity_sampled(X, 4, trials=60, seed=1)
    assert sampled.psi_plus <= exact.psi_plus + 1e-12
    assert sampled.psi_minus >= exact.psi_minus - 1e-12
    assert sampled.mode == "sampled"
    assert sampled.trials == 62  # requested trials plus two leverage subsets


def test_pair_value_hand_oracle():
    in_proj = np.array([5.0, 3.0, 2.0, 1.0])
    out_proj = np.array([2.5, 4.0, 0.5])
    # slack 1: second-largest 3 beats smallest 0.5, third-largest 2 loses
    # to second-smallest 2.5
    assert _pair_value(in_proj, out_proj, 1) == 1
    assert _pair_value(in_proj, out_proj, 0) == 2
    assert _pair_value(np.array([10.0, 9.0, 8.0]), np.array([1.0, 2.0, 3.0]), 0) == 3
    assert _pair_value(np.array([1.0, 2.0]), np.array([1.0]), 2) == 0


def test_pair_value_brute_force_agreement():
    rng = np.random.default_rng(33)
    for _ in range(50):
        a = rng.uniform(0, 5, size=rng.integers(2, 9))
        b = rng.uniform(0, 5, size=rng.integers(2, 9))
        slack = int(rng.integers(0, 3))
        srt_a = np.sort(a)[::-1]
        srt_b = np.sort(b)
        best = 0
        for v in range(1, min(a.size - slack, b.size) + 1):
            if all(srt_a[slack + u - 1] >= srt_b[u - 1] for u in range(1, v + 1)):
                best = v
            else:
                break
        assert _pair_value(a, b, slack) == best


def affine_fixture(n=400, d=3, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    partition = np.repeat([0, 1], n // 2)
    return X, partition


def test_affine_error_monotone_in_delta():
    X, partition = affine_fixture()
    tau = [0.4, 0.4]
    values = [affine_error_estimate(X, partition, tau, 0, delta, 64, seed=9).value
              for delta in (0.05, 0.1, 0.2, 0.4)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[-1] > 0


def test_affine_error_grows_with_tau():
    # a larger kept fraction leaves less slack, never decreasing the count
    X, partition = affine_fixture()
    lo = affine_error_estimate(X, partition, [0.30, 0.30], 0, 0.2, 64, seed=9)
    hi = affine_error_estimate(X, partition, [0.45, 0.45], 0, 0.2, 64, seed=9)
    assert hi.value >= lo.value


def test_affine_error_informed_pairs_only_help():
    # The count is the best over the pairs, so a pair stacked under the sampled ones
    # (as contraction_bound_trace stacks its informed pairs) can only raise it.
    X, partition = affine_fixture()
    X_in, X_out = X[partition == 0], X[partition == 1]
    rng = np.random.default_rng(2)
    v_in, v_out = 0.3 * rng.standard_normal((32, 3)), rng.standard_normal((32, 3))
    probe_in = np.ones((1, 3)) / math.sqrt(3)
    probe_out = -probe_in
    base = _affine_count(X_in, X_out, v_in, v_out, 40)
    boosted = _affine_count(X_in, X_out, np.vstack([v_in, probe_in]),
                            np.vstack([v_out, probe_out]), 40)
    assert boosted == max(base, _affine_count(X_in, X_out, probe_in, probe_out, 40)) > base


def test_affine_error_validation():
    X, partition = affine_fixture()
    with pytest.raises(ValueError, match="delta"):
        affine_error_estimate(X, partition, [0.4, 0.4], 0, 0.0, 16, seed=0)
    with pytest.raises(ValueError, match="tau"):
        affine_error_estimate(X, partition, [0.6, 0.4], 0, 0.2, 16, seed=0)
    with pytest.raises(ValueError, match="no samples"):
        affine_error_estimate(X, np.zeros(X.shape[0], dtype=int), [0.4, 0.4], 1, 0.2,
                              16, seed=0)
    for j in (2, -1):
        with pytest.raises(ValueError, match=rf"^j = {j} must lie in \[0, 2\)$"):
            affine_error_estimate(X, partition, [0.4, 0.4], j, 0.2, 16, seed=0)
    with pytest.raises(ValueError, match=r"^partition must have one label per row$"):
        affine_error_estimate(X, partition[1:], [0.4, 0.4], 0, 0.2, 16, seed=0)
    with pytest.raises(ValueError, match=r"^every sample belongs to component j; no outside rows$"):
        affine_error_estimate(X, np.zeros(X.shape[0], dtype=int), [0.4, 0.4], 0, 0.2,
                              16, seed=0)


def test_contraction_bound_arithmetic():
    assert contraction_bound(3.0, 1.5) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        contraction_bound(3.0, 0.0)
    with pytest.raises(ValueError):
        contraction_bound(3.0, -1.0)


@pytest.mark.parametrize("psi_plus, psi_minus, message", [
    (math.nan, 1.0, "psi_plus must be nonnegative and finite"),
    (math.inf, 1.0, "psi_plus must be nonnegative and finite"),
    (1.0, math.nan, "psi_minus must be positive and finite"),
    (1.0, math.inf, "psi_minus must be positive and finite"),
], ids=["plus-nan", "plus-inf", "minus-nan", "minus-inf"])
def test_contraction_bound_rejects_non_finite_inputs(psi_plus, psi_minus, message):
    with pytest.raises(ValueError, match=f"^{message} to assemble the bound$"):
        contraction_bound(psi_plus, psi_minus)


def test_contraction_bound_trace_dominates_observations():
    spec = MixtureSpec(d=2, m=2, components=[[1.0, 0.0], [-1.0, 0.0]],
                       weights=[0.5, 0.5])
    corr = CorruptionSpec(gamma_star=0.05, adversary="oblivious-random",
                          magnitude=2.0)
    ds, truth = generate_mlrc(spec, corr, n=150, seed=2)
    cfg = IltsConfig(tau=0.3, max_rounds=30, tol=1e-12)
    trace = ilts_run(ds, truth.theta_star[:, 0] * 0.6, cfg, truth=truth)
    records = contraction_bound_trace(ds, truth, trace, j=0, tau=0.3, seed=0,
                                      directions=64, trials=200)
    assert records
    for rec in records:
        assert rec["ratio"] <= rec["bound"] + 1e-6
        assert rec["in_region"]
    # rounds at floating-point convergence are excluded entirely
    assert all(rec["round"] < trace.rounds_used for rec in records)


def test_contraction_bound_trace_of_one_component():
    # One component has no separation and no affine error, and clean data has no
    # corrupted rows, so the bound is built from psi_plus(0) = 0.
    spec = MixtureSpec(d=4, m=1, components=[[1.0, -0.5, 0.25, 2.0]], weights=[1.0])
    ds, truth = generate_mlrc(spec, CorruptionSpec(), n=200, seed=0)
    trace = ilts_run(ds, np.zeros(4), IltsConfig(tau=0.8), truth=truth)
    records = contraction_bound_trace(ds, truth, trace, j=0, tau=0.8, seed=0)
    assert records == [{"round": 0, "ratio": 0.0, "bound": 0.0, "delta": 0.0,
                        "affine_count": 0, "in_region": True}]


def two_component_trace(theta_star, corrupted=None, n=60):
    """Dataset, truth and an ILTS trace on rows labelled alternately 0 and 1 by theta_star."""
    theta_star = np.asarray(theta_star, dtype=float)
    X = np.random.default_rng(3).standard_normal((n, theta_star.shape[0]))
    partition = np.arange(n) % 2
    ds = Dataset(X=X, y=np.einsum("ij,ji->i", X, theta_star[:, partition]))
    truth = GroundTruth(theta_star=theta_star, partition=partition,
                        corrupted=np.zeros(n, bool) if corrupted is None else corrupted,
                        r=np.zeros(n))
    return ds, truth, ilts_run(ds, np.full(theta_star.shape[0], 0.5), IltsConfig(tau=0.4))


@pytest.mark.parametrize("theta_star, corrupted, j, message", [
    ([[1.0, 1.0], [0.0, 0.0]], None, 0,
     r"^component 0 coincides with another \(Q_j = 0\); the affine-error delta is undefined$"),
    ([[1.0, 0.0], [0.0, 1.0]], np.ones(60, bool), 0,
     r"^every row is corrupted; the trace has no clean rows to scan$"),
    ([[1.0, 0.0], [0.0, 1.0]], None, 2, r"^j = 2 must lie in \[0, 2\)$"),
    ([[0.0, 1.0], [0.0, 1.0]], None, 0, r"^component j has zero norm$"),
], ids=["coinciding-components", "every-row-corrupted", "j-out-of-range", "zero-norm"])
def test_contraction_bound_trace_names_an_undefined_bound(theta_star, corrupted, j, message):
    ds, truth, trace = two_component_trace(theta_star, corrupted)
    with pytest.raises(ValueError, match=message):
        contraction_bound_trace(ds, truth, trace, j=j, tau=0.3)


@pytest.mark.parametrize("m", [1, 2])
def test_contraction_bound_trace_of_another_truth_fails_naming_both_shapes(m):
    spec = MixtureSpec(d=2, m=m, components=[[1.0, 0.0], [-1.0, 0.5]][:m], weights=[1 / m] * m)
    ds, truth = generate_mlrc(spec, CorruptionSpec(), n=200, seed=0)
    other = generate_mlrc(spec, CorruptionSpec(), n=150, seed=1)[1]
    trace = ilts_run(ds, np.zeros(2), IltsConfig(tau=0.4), truth=truth)
    with pytest.raises(ValueError, match=r"^truth has n = 150, d = 2 but the dataset has "
                                         r"n = 200, d = 2$"):
        contraction_bound_trace(ds, other, trace, j=0, tau=0.4)


@pytest.mark.parametrize("k", [0, 4])
def test_regularity_exact_rejects_k_out_of_range(k):
    with pytest.raises(ValueError, match=rf"^k = {k} must lie in \[1, 3\]$"):
        feature_regularity_exact(np.eye(3), k)


def test_exact_budget_constant_unchanged():
    assert EXACT_SUBSET_BUDGET == 2_000_000
