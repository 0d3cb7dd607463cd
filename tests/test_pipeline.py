"""Global recovery pipeline tests."""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import re

import numpy as np
import pytest
from reference import reference_global, reference_radius, reference_subspace
from scipy.optimize import linear_sum_assignment

from trimfit import pipeline
from trimfit.cli import _experiment_setup, report_to_dict
from trimfit.diagnostics import (affine_error_estimate, contraction_bound_trace,
                                 feature_regularity_exact, feature_regularity_sampled)
from trimfit.gd import GdConfig, gd_inner_loop
from trimfit.ilts import IltsConfig, contraction_ratio, ilts_run, select_trimmed_set
from trimfit.model import CorruptionSpec, Dataset, MixtureSpec, generate_mlrc
from trimfit.pipeline import (SCREEN_BLOCK, SCREEN_KEEP, SCREEN_ROUNDS, GlobalConfig,
                              SubspaceEstimate, _augment, _bottleneck_matching,
                              accept_component, default_delta, default_radius,
                              epsilon_recovery, estimate_subspace, generate_candidates,
                              global_ilts, subspace_distance)
from trimfit.util import ROW_BLOCK


def basis_at_angle(alpha):
    return np.array([[math.cos(alpha)], [math.sin(alpha)]])


def test_subspace_distance_rotation():
    # a one-column basis rotated by alpha misses e1 by exactly sin(alpha)
    est = SubspaceEstimate(basis=basis_at_angle(math.pi / 6))
    u_true = np.array([[1.0], [0.0]])
    assert subspace_distance(est, u_true) == pytest.approx(0.5, abs=1e-12)
    aligned = SubspaceEstimate(basis=basis_at_angle(0.0))
    assert subspace_distance(aligned, u_true) == pytest.approx(0.0, abs=1e-12)


def test_subspace_distance_validates_orthonormal():
    est = SubspaceEstimate(basis=basis_at_angle(0.3))
    with pytest.raises(ValueError, match="orthonormal"):
        subspace_distance(est, np.array([[2.0], [0.0]]))
    with pytest.raises(ValueError, match=r"^u_true must be d x k$"):
        subspace_distance(est, np.eye(3)[:, :1])


def test_estimate_subspace_sign_canonical():
    spec = MixtureSpec(d=6, m=2,
                       components=[np.eye(6)[0], np.eye(6)[1]],
                       weights=[0.5, 0.5])
    ds, _ = generate_mlrc(spec, CorruptionSpec(), n=2000, seed=3)
    est = estimate_subspace(ds, 2)
    for col in range(2):
        pivot = np.argmax(np.abs(est.basis[:, col]))
        assert est.basis[pivot, col] > 0
    # estimating twice gives identical bases
    again = estimate_subspace(ds, 2)
    assert np.array_equal(est.basis, again.basis)


def test_estimate_subspace_recovers_span():
    spec = MixtureSpec(d=8, m=2,
                       components=[np.eye(8)[0], np.eye(8)[1]],
                       weights=[0.5, 0.5])
    u_true = np.eye(8)[:, :2]
    dists = {}
    for n in (1000, 8000):
        ds, _ = generate_mlrc(spec, CorruptionSpec(), n=n, seed=5)
        dists[n] = subspace_distance(estimate_subspace(ds, 2), u_true)
    assert dists[8000] <= 0.15
    assert dists[8000] < dists[1000]


@pytest.mark.parametrize("scale, overflows", [(1e140, False), (1e160, True)])
def test_estimate_subspace_survives_an_overflow_of_the_moment_rows(scale, overflows):
    # A moment row y_i x_i is of the order of scale squared: 1e280 is a double, 1e320 is not.
    # The Gram is summed from X and y scaled by powers of two, so neither moves the basis.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((500, 6))
    y = X @ rng.standard_normal(6)
    scaled = Dataset(X=X * scale, y=y * scale)
    with np.errstate(over="ignore"):
        assert np.isinf(scaled.X * scaled.y[:, None]).any() == overflows
    unscaled = estimate_subspace(Dataset(X=X, y=y), 1).basis
    assert np.allclose(estimate_subspace(scaled, 1).basis, unscaled, rtol=0, atol=1e-12)


def test_estimate_subspace_names_a_failed_eigh(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ValueError, match=r"^estimate_subspace: eigh of the moment Gram failed: "
                                         r"Eigenvalues did not converge$"):
        estimate_subspace(Dataset(X=np.eye(3), y=np.ones(3)), 1)


def stress_instance():
    """The reject call's data of the bench `sweep` workload at toy size, seed 0."""
    rng = np.random.default_rng(0)
    spec = MixtureSpec(d=20, m=5, components=list(rng.standard_normal((5, 20))),
                       weights=[0.2] * 5)
    return generate_mlrc(spec, CorruptionSpec(0.05, "oblivious-random", 2.0), n=1500,
                         seed=0)[0], 5


def anisotropic_instance():
    """Features with covariance eigenvalues from 1e-2 to 1e2 in a random basis."""
    rng = np.random.default_rng(1)
    q = np.linalg.qr(rng.standard_normal((10, 10)))[0]
    cov = q @ np.diag(np.logspace(-2, 2, 10)) @ q.T
    spec = MixtureSpec(d=10, m=2, components=list(rng.standard_normal((2, 10))),
                       weights=[0.5, 0.5], covariance=[cov, cov])
    return generate_mlrc(spec, CorruptionSpec(), n=3000, seed=1)[0], 2


def two_component_rows(X, seed):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((X.shape[1], 2))
    return Dataset(X=X, y=np.einsum("ij,ji->i", X, theta[:, rng.integers(0, 2, len(X))]))


def duplicated_column_instance():
    X = np.random.default_rng(2).standard_normal((2000, 8))
    X[:, 3] = X[:, 0]
    return two_component_rows(X, 2), 2


def scaled_instance(scale):
    """The overflow test's data, X and y scaled by scale; the SVD runs unscaled."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((500, 6))
    return Dataset(X=X, y=X @ rng.standard_normal(6)), 1, scale


SUBSPACE_FAMILIES = {
    "sweep-stress": lambda: stress_instance() + (1.0,),
    "anisotropic": lambda: anisotropic_instance() + (1.0,),
    "duplicated-column": lambda: duplicated_column_instance() + (1.0,),
    "n-below-d": lambda: (two_component_rows(
        np.random.default_rng(3).standard_normal((6, 15)), 3), 2, 1.0),
    # Moment Gram diag(1, 1, 0.25, 0): the top two tie, so only their span is defined.
    "tied": lambda: (Dataset(X=np.diag([1.0, 1.0, 0.5, 0.0])[:3], y=np.ones(3)), 2, 1.0),
    **{f"scale-{s:g}": lambda s=s: scaled_instance(s) for s in (1e-160, 1e140, 1e160, 1e300)},
    # Each moment row is 1e-200, though max|X| and max|y| are 1.
    "underflow": lambda: (Dataset(X=np.array([[1.0], [1e-200]]), y=np.array([1e-200, 1.0])),
                          1, 1.0),
    # Moment rows (2, 0) and (0, 1) from entries at 1e300 and 1e-300: scaled by max|X|
    # and max|y| instead of row by row, both would flush to zero.
    "row-scales": lambda: (Dataset(X=np.array([[1e300, 0.0], [0.0, 1e-300]]),
                                   y=np.array([2e-300, 1e300])), 1, 1.0),
}


@pytest.mark.parametrize("family", SUBSPACE_FAMILIES)
def test_estimate_subspace_matches_the_svd_of_the_moment_rows(family):
    ds, m, scale = SUBSPACE_FAMILIES[family]()
    reference = reference_subspace(ds, m)
    est = estimate_subspace(Dataset(X=ds.X * scale, y=ds.y * scale), m)
    # Eigenvalues of the moment Gram relative to the largest, the last padded with 0.
    sv = np.linalg.svd(ds.X * ds.y[:, None], compute_uv=False)
    eig = np.append(sv / sv[0], 0.0) ** 2
    if np.min(-np.diff(eig[:m + 1])) > 1e-3:
        assert np.max(np.abs(est.basis - reference.basis)) <= 1e-12
    else:
        assert eig[m - 1] - eig[m] > 1e-3
        assert subspace_distance(est, reference.basis) <= 1e-12


def power_of_two_instance():
    """Stress-recipe rows over three blocks, the rows of block b scaled by 2**(4 b), so the
    running scale of the moment Gram moves at every block."""
    rng = np.random.default_rng(0)
    spec = MixtureSpec(d=20, m=5, components=list(rng.standard_normal((5, 20))),
                       weights=[0.2] * 5)
    ds = generate_mlrc(spec, CorruptionSpec(0.05, "oblivious-random", 2.0),
                       n=2 * ROW_BLOCK + 5, seed=0)[0]
    return Dataset(X=np.ldexp(ds.X, 4 * (np.arange(ds.n) // ROW_BLOCK)[:, None]), y=ds.y)


@pytest.mark.parametrize("k", [-40, -20, 20, 40])
def test_span_and_radius_follow_a_power_of_two_scaling_exactly(k):
    # Scaling X or y by 2**k is exact, so the basis and the factor keep every bit and the
    # radius moves by exactly 2**-k with X, 2**k with y.
    ds = power_of_two_instance()
    span = estimate_subspace(ds, 5)
    radius, factor = default_radius(ds, span)
    for scaled, shift in ((Dataset(X=np.ldexp(ds.X, k), y=ds.y), -k),
                          (Dataset(X=ds.X, y=np.ldexp(ds.y, k)), k)):
        est = estimate_subspace(scaled, 5)
        assert est.basis.tobytes() == span.basis.tobytes()
        scaled_radius, scaled_factor = default_radius(scaled, est)
        assert scaled_radius == math.ldexp(radius, shift)
        assert scaled_factor.tobytes() == factor.tobytes()


@pytest.mark.parametrize("k", [-40, -20, 20, 40])
def test_tensor_starts_follow_a_power_of_two_scaling_exactly(k):
    # X and y are scaled by the powers of two of their largest magnitudes first, so X 2**k
    # moves every start by exactly 2**-k and y 2**k by exactly 2**k. One of M2's five
    # eigenvalues is negative on these rows of three scales, so four starts are found.
    ds = power_of_two_instance()
    starts = pipeline.tensor_starts(ds, estimate_subspace(ds, 5), 0)
    assert starts.shape == (4, ds.d)
    for scaled, shift in ((Dataset(X=np.ldexp(ds.X, k), y=ds.y), -k),
                          (Dataset(X=ds.X, y=np.ldexp(ds.y, k)), k)):
        got = pipeline.tensor_starts(scaled, estimate_subspace(scaled, 5), 0)
        assert got.tobytes() == np.ldexp(starts, shift).tobytes()


def separated_mixture(seed):
    """A noiseless mixture of three orthonormal components of equal weight in
    d = 6, n = 20,000, with its components as rows."""
    comps = np.linalg.qr(np.random.default_rng(seed).standard_normal((6, 3)))[0].T
    spec = MixtureSpec(d=6, m=3, components=list(comps), weights=[1 / 3] * 3)
    return generate_mlrc(spec, CorruptionSpec(), n=20_000, seed=seed)[0], comps


@pytest.mark.parametrize("seed", range(3))
def test_tensor_starts_find_every_component_of_a_separated_mixture(seed):
    # Measured: the nearest start lay at most 0.19 of a component's norm away.
    ds, comps = separated_mixture(seed)
    starts = pipeline.tensor_starts(ds, estimate_subspace(ds, 3), seed)
    assert starts.shape == (3, 6)
    gaps = np.linalg.norm(starts[:, None] - comps[None], axis=2) / np.linalg.norm(comps, axis=1)
    assert np.max(np.min(gaps, axis=0)) <= 0.3


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_tensor_starts_survive_extreme_magnitudes(seed, scale):
    # y^3 at 1e160 would overflow and at 1e-160 underflow; after scaling by powers of two
    # the starts moved by at most 2.0e-15 of these unit components when measured.
    ds, _ = separated_mixture(seed)
    span = estimate_subspace(ds, 3)
    starts = pipeline.tensor_starts(ds, span, 0)
    scaled = pipeline.tensor_starts(Dataset(X=ds.X * scale, y=ds.y * scale), span, 0)
    assert np.all(np.isfinite(scaled))
    assert np.max(np.abs(scaled - starts)) <= 1e-13


def rows_of(X, y):
    return Dataset(X=np.asarray(X, dtype=float), y=np.asarray(y, dtype=float))


_FEATURES = np.random.default_rng(0).standard_normal((200, 3))
_NO_THIRD_COLUMN = _FEATURES * [1.0, 1.0, 0.0]


@pytest.mark.parametrize("ds, columns, count", [
    # M2 is zero, so no direction is whitened.
    (rows_of(_FEATURES, np.zeros(200)), [0, 1], 0),
    # One direction: T is one number, and its one start is found.
    (rows_of(_FEATURES, _FEATURES[:, 0] * (1 + np.arange(200) % 2)), [0], 1),
    # C is singular along the third column, which X lacks.
    (rows_of(_NO_THIRD_COLUMN, _NO_THIRD_COLUMN[:, 0]), [0, 1, 2], 0),
    # mean(y^2 x^2) = 4 < mean(y^2) mean(x^2) = 6.25: M2's one eigenvalue is negative.
    (rows_of([[1.0], [2.0], [-1.0], [-2.0]], [2.0, 1.0, 2.0, -1.0]), [0], 0),
    # One sample: mean(y^2 x^2) = mean(y^2) mean(x^2), so M2 = 0.
    (rows_of([[1.0]], [2.0]), [0], 0),
], ids=["zero-response", "one-direction", "singular-C", "negative-M2", "one-sample"])
def test_degenerate_moments_give_fewer_starts_and_no_warning(ds, columns, count):
    starts = pipeline.tensor_starts(ds, SubspaceEstimate(basis=np.eye(ds.d)[:, columns]), 0)
    assert starts.shape == (count, ds.d) and np.all(np.isfinite(starts))


def sweep_setups(seed):
    """Both calls' data of the bench `sweep` workload at full size, with their m."""
    rng = np.random.default_rng(seed)
    stress = MixtureSpec(d=20, m=5, components=list(rng.standard_normal((5, 20))),
                         weights=[0.2] * 5)
    easy = MixtureSpec(d=20, m=3, components=list(np.linalg.qr(rng.standard_normal((20, 3)))[0].T),
                       weights=[1 / 3] * 3)
    corruption = CorruptionSpec(0.05, "oblivious-random", 2.0)
    return {"reject": (generate_mlrc(stress, corruption, n=10_000, seed=seed)[0], 5),
            "recover": (generate_mlrc(easy, corruption, n=10_000, seed=seed + 1)[0], 3)}


def stress_recipe(seed):
    """The ROADMAP stress recipe (as in scripts/compare_global.py), with its m."""
    spec = MixtureSpec(d=20, m=5, components=list(np.random.default_rng(1).standard_normal(
        (5, 20))), weights=[0.2] * 5)
    return generate_mlrc(spec, CorruptionSpec(0.05, "oblivious-random", 2.0), n=20_000,
                         seed=seed)[0], 5


def span_and_scale_digests():
    """sha256 of each instance's estimate_subspace basis and default_radius (radius, L)."""
    instances = {}
    for family, build in SUBSPACE_FAMILIES.items():
        ds, m, scale = build()
        instances[family] = Dataset(X=ds.X * scale, y=ds.y * scale), m
    for seed in range(3):
        instances.update({f"sweep-{seed}-{key}": value
                          for key, value in sweep_setups(seed).items()})
        instances[f"stress-{seed}"] = stress_recipe(seed)
    digests = {}
    for name, (ds, m) in instances.items():
        span = estimate_subspace(ds, m)
        radius, factor = default_radius(ds, span)
        digests[name] = hashlib.sha256(span.basis.tobytes() + np.float64(radius).tobytes()
                                       + factor.tobytes()).hexdigest()
    return digests


# Recorded before estimate_subspace and default_radius shared one exact Gram.
SPAN_AND_SCALE_DIGESTS = {
    "sweep-stress": "4ca9db9fbfc5e512b3cda2bba78eebbd224473b5e691ef2ec42c17b1729efddf",
    "anisotropic": "0c8977a91c38b45dd073e76ca6a1624de77b1fdec144769197e8bbc2b6642f7f",
    "duplicated-column": "8cbfa61854f77b0e3b600064fd00d8edaf77455eefd4688ca549d287fc91081a",
    "n-below-d": "735587195d225512a99dae65118eacc6da427d59436807ee74513165adf780c7",
    "tied": "d032fae27b77be57a209bd6fb53852bea3e88e6c7282a4e615184924e261316d",
    "scale-1e-160": "887dc4d3be9a187f60c53233c256a757689d2582bc9170be306f0a3e6feacc45",
    "scale-1e+140": "bb60c189e35c1f426316645bd07511c51d9156ff93543e65dbc2ce3d5007d27c",
    "scale-1e+160": "cbf1097596b0a20eedd8a2110679383ddfa3b1f14d80ad37b3427b9d7232907f",
    "scale-1e+300": "f3e2097dd09bebd9d1311a077a908804986e61fdfc5cedec78e1891b45c4292a",
    "underflow": "cc143326a2646c605ea66139d7b440df7cbde18c050f1f8cf4dd30f42cfe7123",
    "row-scales": "d8bd4eab9a59f75ac3b0df775019ad62d3f249ad2868e75a1c83af798ebc914a",
    "sweep-0-reject": "51ca9669518c62acb9d3e190acdd9074256702c86e5d047d9b23437c490452a3",
    "sweep-0-recover": "0e334c0497e506b3665d90993cf1f4df5100cabda9ca5351c9cd9063253ae973",
    "stress-0": "f1684c1dc973f0b1d5b27346574f531105afe9c5a0b61893253c5dd0a0c3e151",
    "sweep-1-reject": "de7b406cc7a8629457e03541dda552aa2e7f8c6de66c0ab92f277b85485924be",
    "sweep-1-recover": "416331da482176da104d1ec6b9d9365b9219f1d354614aa791a4fe8987ff1e71",
    "stress-1": "cbc4614962426ce0939a25447ed0a09a7e4ff9cb780945dcf25ed79ab39a18b7",
    "sweep-2-reject": "bc57d90e491aee364bde2f77c8ac93bec8f550f6583e53416943834b55fffe9c",
    "sweep-2-recover": "8fc524c71ca54268b697993465e4cff174d985e75204dccd379989cd3abac0b4",
    "stress-2": "bd4ea26111d64d650088276ad5978d57e8df13f579796df721577f93247a1f00",
}


def test_span_and_scale_keep_their_bits():
    assert span_and_scale_digests() == SPAN_AND_SCALE_DIGESTS


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300, 2.0 ** 600, 2.0 ** -600],
                         ids=["1e155", "1e200", "1e300", "2^600", "2^-600"])
def test_a_feature_outside_the_span_does_not_move_the_scale(scale):
    # The span leaves out column 0, so no unit of that column moves the radius or the factor.
    # A scale taken from X's largest entry fails here: from 1e155 up the other columns underflow.
    X = np.random.default_rng(0).standard_normal((500, 4))
    y = X @ np.array([0.0, 1.0, -1.0, 0.5])
    span = SubspaceEstimate(basis=np.eye(4)[:, 1:3])
    radius, factor = default_radius(Dataset(X=X, y=y), span)
    X[:, 0] *= scale
    scaled_radius, scaled_factor = default_radius(Dataset(X=X, y=y), span)
    assert scaled_radius == radius
    assert scaled_factor.tobytes() == factor.tobytes()


@pytest.mark.parametrize("call, message", [
    (lambda: estimate_subspace(Dataset(X=np.eye(3), y=np.ones(3)), 0),
     r"^m = 0 must lie in \[1, min\(n, d\) = 3\]$"),
    (lambda: estimate_subspace(Dataset(X=np.eye(3)[:2], y=np.ones(2)), 3),
     r"^m = 3 must lie in \[1, min\(n, d\) = 2\]$"),
    (lambda: pipeline.plan_search(Dataset(X=np.eye(3), y=np.ones(3)),
                                  GlobalConfig(m=1, tau_list=(0.5,), candidate_budget=2, seed=0),
                                  SubspaceEstimate(basis=np.eye(2)[:, :1])),
     r"^subspace dimension does not match the dataset$"),
], ids=["m-zero", "m-above-n", "subspace-of-another-d"])
def test_a_span_of_the_wrong_size_fails_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_estimate_subspace_rejects_zero_response():
    ds = Dataset(X=np.eye(3), y=np.zeros(3))
    with pytest.raises(ValueError, match="zero"):
        estimate_subspace(ds, 1)


def test_candidate_count_covering_cap():
    # 3 R / epsilon = 12 in a 2-d span caps the draw count at 144
    basis = np.eye(4)[:, :2]
    est = SubspaceEstimate(basis=basis)
    cands = generate_candidates(est, radius=2.0, epsilon=0.5, budget=10000, seed=0)
    assert cands.shape == (144, 4)
    # the budget binds when smaller than the covering cap
    cands = generate_candidates(est, radius=2.0, epsilon=0.5, budget=50, seed=0)
    assert cands.shape == (50, 4)
    # a coarse net needs a single point
    cands = generate_candidates(est, radius=1.0, epsilon=4.0, budget=10, seed=0)
    assert cands.shape == (1, 4)


def test_candidates_live_on_sphere_inside_span():
    basis = np.linalg.qr(np.random.default_rng(8).standard_normal((6, 2)))[0]
    est = SubspaceEstimate(basis=basis)
    cands = generate_candidates(est, radius=1.5, epsilon=0.3, budget=100, seed=4)
    norms = np.linalg.norm(cands, axis=1)
    assert np.allclose(norms, 1.5, atol=1e-10)
    residual = cands.T - basis @ (basis.T @ cands.T)
    assert np.max(np.abs(residual)) <= 1e-10


def test_candidates_one_dimensional_span_poles():
    est = SubspaceEstimate(basis=np.eye(3)[:, :1])
    cands = generate_candidates(est, radius=2.0, epsilon=0.1, budget=500, seed=0)
    assert cands.shape == (2, 3)
    assert np.allclose(cands[0], [2.0, 0.0, 0.0])
    assert np.allclose(cands[1], [-2.0, 0.0, 0.0])
    only = generate_candidates(est, radius=2.0, epsilon=0.1, budget=1, seed=0)
    assert only.shape == (1, 3)


@pytest.mark.parametrize("n", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 5])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_default_radius_by_blocks_matches_the_whole_matrix_gram(n, scale):
    rng = np.random.default_rng(n)
    for d in (1, 13, 50, 120):
        X = rng.standard_normal((n, d)) * scale
        X[::97] = 0.0  # zero rows add nothing to either sum
        ds = Dataset(X=X, y=rng.standard_normal(n))
        for m_tilde in sorted({1, min(d, 3)}):
            basis = np.linalg.qr(rng.standard_normal((d, m_tilde)))[0]
            span = SubspaceEstimate(basis=basis)
            (radius, factor), (ref_radius, ref_gram) = (
                f(ds, span) for f in (default_radius, reference_radius))
            assert radius == pytest.approx(ref_radius, rel=1e-13)
            assert np.allclose(factor @ factor.T, ref_gram, rtol=0, atol=1e-13 * m_tilde)


def test_default_radius_is_the_ratio_of_the_responses_rms_to_the_features():
    X = np.ones((100, 1))
    y = np.arange(1.0, 101.0)
    span = SubspaceEstimate(basis=np.ones((1, 1)))
    radius, factor = default_radius(Dataset(X=X, y=y), span)
    assert radius == pytest.approx(math.sqrt(np.mean(y ** 2)), rel=1e-15)
    assert factor.tolist() == [[1.0]]
    with pytest.raises(ValueError, match=r"^default_radius: the response-matched radius is 0\.0 "
                                         r"\(y is zero, or out of a double's range from X\); "
                                         r"give radius$"):
        default_radius(Dataset(X=np.ones((3, 1)), y=np.zeros(3)), span)
    with pytest.raises(ValueError, match=r"^default_radius: the response-matched radius is inf "):
        default_radius(Dataset(X=np.full((3, 1), 1e-300), y=np.full(3, 1e300)), span)


def response_matched_starts(ds, m, subspace=None):
    """Every slot's net starts of a default-radius global run on ds, the rows after its tensor
    starts, and the number of those."""
    config = GlobalConfig(m=m, tau_list=(1 / m,), candidate_budget=40, epsilon_net=0.5, seed=3)
    settings, ahead, starts = pipeline.plan_search(ds, config, subspace)
    assert settings["radius_source"] == "response-matched"
    ahead = len(ahead)
    return settings["radius"], np.vstack([starts(j)[ahead:] for j in range(m)]), ahead


@pytest.mark.parametrize("family", ["sweep-stress", "anisotropic"])
def test_every_default_start_predicts_the_responses_mean_square(family):
    ds, m = SUBSPACE_FAMILIES[family]()[:2]
    _, starts, ahead = response_matched_starts(ds, m)
    assert starts.shape == (m * (40 - ahead), ds.d)
    predicted = np.sum(np.square(ds.X @ starts.T), axis=0)
    assert np.max(np.abs(predicted / (ds.y @ ds.y) - 1)) <= 1e-12


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_default_starts_survive_extreme_magnitudes(scale):
    # X B and y at 1e160 square to 1e320, which overflows, and at 1e-160 to 1e-320, a
    # subnormal; summed after scaling by powers of two, neither moves the starts.
    ds, m = SUBSPACE_FAMILIES["sweep-stress"]()[:2]
    span = estimate_subspace(ds, m)
    radius, starts, _ = response_matched_starts(ds, m, span)
    scaled = response_matched_starts(Dataset(X=ds.X * scale, y=ds.y * scale), m, span)
    assert scaled[0] == pytest.approx(radius, rel=1e-13)
    assert np.allclose(scaled[1], starts, rtol=0, atol=1e-13 * radius)


def test_a_user_radius_keeps_the_drawn_starts():
    ds, config, _ = SCREENING_CASES["end-to-end"]()
    span = estimate_subspace(ds, config.m)
    settings, ahead, starts = pipeline.plan_search(ds, config, span)
    assert (settings["radius"], settings["radius_source"]) == (1.0, "user")
    # The tensor starts go first, then the net's draws from slot j's child, cut to the budget.
    assert len(ahead) == config.m
    seeds = np.random.SeedSequence(config.seed).spawn(config.m)
    for j in range(config.m):
        drawn = generate_candidates(span, 1.0, config.epsilon_net, config.candidate_budget,
                                    int(seeds[j].generate_state(1)[0]))
        assert starts(j)[:config.m].tobytes() == ahead.tobytes()
        assert starts(j)[config.m:].tobytes() == drawn[:-config.m].tobytes()


@pytest.mark.parametrize("columns", [[2], [1, 2], [0, 2]])
def test_a_span_where_the_features_vanish_fails_by_name(columns):
    # Column 2 of X is zero: the span of e2 is orthogonal to every row, and e1, e2
    # or e0, e2 hold a direction with no predictions, which no scale can match.
    X = np.random.default_rng(4).standard_normal((50, 3))
    X[:, 2] = 0.0
    ds = Dataset(X=X, y=X[:, 0])
    span = SubspaceEstimate(basis=np.eye(3)[:, columns])
    config = GlobalConfig(m=len(columns), tau_list=(0.5,), candidate_budget=4, seed=0)
    with pytest.raises(ValueError, match="^default_radius: X vanishes along a direction of the "
                                         "candidate span; give radius$"):
        global_ilts(ds, config, span)
    # The estimated span of three components holds e2 too.
    with pytest.raises(ValueError, match="^default_radius: X vanishes"):
        global_ilts(ds, GlobalConfig(m=3, tau_list=(0.3,), candidate_budget=4, seed=0))


def test_accept_component_threshold_exact():
    ds = Dataset(X=np.eye(3), y=np.array([0.1, 0.2, 0.3]))
    theta = np.zeros(3)
    # strict inequality: residual 0.2 does not pass delta = 0.2
    ok, support = accept_component(ds, theta, delta=0.2, need=1)
    assert ok and list(support) == [0]
    ok, support = accept_component(ds, theta, delta=0.2, need=2)
    assert not ok
    ok, support = accept_component(ds, theta, delta=0.31, need=3)
    assert ok and list(support) == [0, 1, 2]
    # A count below 1 would accept an empty support, so it fails by name.
    for need, message in ((0, "at least 1"), (-1, "at least 1"),
                          (2.5, "an integer, got 2.5"), (True, "an integer, got True")):
        with pytest.raises(ValueError, match=f"^need must be {message}$"):
            accept_component(ds, theta, delta=0.2, need=need)


def test_epsilon_recovery_permutation_invariant():
    rng = np.random.default_rng(12)
    theta_star = rng.standard_normal((4, 3))
    shuffled = theta_star[:, [2, 0, 1]]
    value, perm = epsilon_recovery(shuffled, theta_star)
    assert value == pytest.approx(0.0, abs=1e-12)
    # perm[b] is the estimate column holding truth column b
    assert list(perm) == [1, 2, 0]


def test_epsilon_recovery_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        epsilon_recovery(np.zeros((3, 2)), np.zeros((3, 3)))


@functools.lru_cache(maxsize=None)
def all_permutations(m):
    return np.array(list(itertools.permutations(range(m))))


def exhaustive_matching(dist):
    """Oracle: the first permutation, in itertools order, with the most finite
    matched distances and then the smallest largest finite one; perm[b] is the
    row matched to column b. The value is the largest matched distance."""
    m = dist.shape[0]
    perms = all_permutations(m)
    pairs = dist[perms, np.arange(m)]
    finite = np.isfinite(pairs)
    # lexsort is stable, so the first of the best keys keeps itertools order
    best = perms[np.lexsort((np.where(finite, pairs, -np.inf).max(axis=1),
                             -finite.sum(axis=1)))[0]]
    return float(dist[best, np.arange(m)].max()), best.tolist()


def test_bottleneck_matching_agrees_with_exhaustive():
    rng = np.random.default_rng(44)
    cases = [rng.uniform(0, 10, size=(7, 7)) for _ in range(20)]
    # tie-heavy: entries 0-2, about 30% infinite (unrecovered slots)
    for _ in range(1200):
        m = int(rng.integers(1, 7))
        dist = rng.integers(0, 3, size=(m, m)).astype(float)
        dist[rng.random((m, m)) < 0.3] = np.inf
        cases.append(dist)
    # partial recoveries: tie-heavy, with whole infinite rows, columns or both
    for i in range(300):
        m = int(rng.integers(1, 8))
        dist = rng.integers(0, 3, size=(m, m)).astype(float)
        if i % 3 != 1:
            dist[rng.random(m) < 0.35] = np.inf
        if i % 3 != 0:
            dist[:, rng.random(m) < 0.35] = np.inf
        cases.append(dist)
    # Structured worst cases: only the anti-diagonal finite, so the only finite perfect
    # matching is the lexicographically last; all entries equal, so every permutation
    # ties; one finite column among infinite ones.
    for m in range(2, 9):
        anti = np.full((m, m), np.inf)
        anti[np.arange(m), m - 1 - np.arange(m)] = rng.uniform(0, 10, size=m)
        cases += [anti, np.full((m, m), 2.0)]
        for col in (0, m // 2, m - 1):
            one = np.full((m, m), np.inf)
            one[:, col] = rng.integers(0, 3, size=m)
            cases.append(one)
    for dist in cases:
        value, perm = _bottleneck_matching(dist)
        assert (value, list(perm)) == exhaustive_matching(dist)
    assert list(_bottleneck_matching(np.full((4, 4), np.inf))[1]) == [0, 1, 2, 3]


def fresh_matching_bottleneck(dist):
    """Reference: the threshold found by bisection, then the lexicographic pass
    that checks each candidate row with a maximum matching of the remaining
    rows and columns built from scratch."""
    m = dist.shape[0]
    need = lsap_matching_size(np.isfinite(dist))
    values = np.unique(dist[np.isfinite(dist)])
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if lsap_matching_size(dist <= values[mid]) == need:
            hi = mid
        else:
            lo = mid + 1
    allowed = dist <= (values[lo] if values.size else -np.inf)
    value = float(values[lo]) if need == m else np.inf
    perm = []
    free = list(range(m))

    def fits(a, b):
        # a finite pair must be allowed, and the rest must still hold the finite pairs due
        rest = allowed[np.ix_([x for x in free if x != a], range(b + 1, m))]
        return ((allowed[a, b] or np.isinf(dist[a, b]))
                and lsap_matching_size(rest) == need - allowed[a, b])

    for b in range(m):
        a = next(a for a in free if fits(a, b))
        need -= int(allowed[a, b])
        perm.append(a)
        free.remove(a)
    return value, perm


def test_bottleneck_matching_agrees_with_fresh_matchings_at_m_100():
    rng = np.random.default_rng(46)
    uniform = rng.uniform(0, 10, size=(100, 100))
    # a quarter of the estimate columns unrecovered: infinite rows
    unrecovered = uniform.copy()
    unrecovered[rng.choice(100, 25, replace=False)] = np.inf
    # a good estimate: the truth permuted plus small noise
    truth = rng.standard_normal((5, 100))
    estimate = truth[:, rng.permutation(100)] + 1e-3 * rng.standard_normal((5, 100))
    near_identity = np.linalg.norm(estimate[:, :, None] - truth[:, None, :], axis=0)
    for dist in (uniform, unrecovered, near_identity):
        value, perm = _bottleneck_matching(dist)
        assert (value, list(perm)) == fresh_matching_bottleneck(dist)


def lsap_matching_size(allowed):
    """Oracle: the size of a maximum matching is the optimal assignment's count
    of allowed pairs."""
    rows, cols = linear_sum_assignment(allowed, maximize=True)
    return int(allowed[rows, cols].sum())


def lsap_has_perfect_matching(allowed):
    """Oracle: a perfect matching exists exactly when the optimal assignment
    on the 0/1 cost of blocked entries costs nothing."""
    blocked = (~allowed).astype(float)
    rows, cols = linear_sum_assignment(blocked)
    return not blocked[rows, cols].any()


def kuhn_has_perfect_matching(allowed):
    """Augment every column into one matching from scratch."""
    owner = [-1] * allowed.shape[0]
    return all(_augment(allowed, owner, col, set()) for col in range(allowed.shape[1]))


def test_perfect_matching_agrees_with_assignment_solver():
    cases = [np.zeros((0, 0), dtype=bool)]
    for m in range(1, 4):
        cases += [np.array(bits).reshape(m, m)
                  for bits in itertools.product([False, True], repeat=m * m)]
    rng = np.random.default_rng(45)
    for _ in range(500):
        m = int(rng.integers(1, 31))
        cases += [rng.random((m, m)) < density for density in (0.1, 0.3, 0.6, 0.9)]
    outcomes = [kuhn_has_perfect_matching(allowed) for allowed in cases]
    assert outcomes == [lsap_has_perfect_matching(allowed) for allowed in cases]
    assert outcomes[0] and 0 < sum(outcomes) < len(cases)


def test_epsilon_recovery_large_m_uses_matching():
    rng = np.random.default_rng(3)
    theta_star = rng.standard_normal((5, 9))
    order = rng.permutation(9)
    noisy = theta_star[:, order] + 1e-3 * rng.standard_normal((5, 9))
    value, perm = epsilon_recovery(noisy, theta_star)
    assert value <= 5e-3
    recovered = noisy[:, perm]
    assert np.allclose(recovered, theta_star, atol=5e-3)


def three_component_instance(seed, n=1500):
    d = 6
    comps = [np.zeros(d) for _ in range(3)]
    comps[0][0] = 1.0
    comps[1][1] = 1.0
    comps[2][2] = 1.0
    spec = MixtureSpec(d=d, m=3, components=comps, weights=[1 / 3, 1 / 3, 1 / 3])
    return generate_mlrc(spec, CorruptionSpec(), n=n, seed=seed)


def test_global_recovery_end_to_end():
    ds, truth = three_component_instance(seed=19)
    cfg = GlobalConfig(m=3, tau_list=(0.3, 0.3, 0.3), candidate_budget=2000,
                       epsilon_net=0.2, seed=4, radius=1.0)
    report = global_ilts(ds, cfg, truth=truth)
    assert report.recovered == (True, True, True)
    assert not report.partial
    assert report.epsilon_recovery <= 1e-4
    assert report.radius_source == "user"
    # slots must have claimed disjoint supports covering distinct components
    assert all(e <= 1e-4 for e in report.per_component_errors)
    assert sorted(report.matching) == [0, 1, 2]


def test_global_recovery_partial_on_starved_budget():
    ds, truth = three_component_instance(seed=23)
    # tau beyond any component's share cannot be accepted, so slots starve
    cfg = GlobalConfig(m=3, tau_list=(0.9, 0.9, 0.9), delta=1e-5,
                       candidate_budget=3, epsilon_net=0.2, seed=4, radius=1.0)
    report = global_ilts(ds, cfg, truth=truth)
    assert report.partial
    assert not any(report.recovered)
    assert report.epsilon_recovery is not None and math.isinf(report.epsilon_recovery)
    doc = report_to_dict(report)
    assert doc["epsilon_recovery"] is None
    assert doc["theta_hat"][0] is None


def test_epsilon_recovery_is_bit_equal_to_the_largest_component_error():
    ds, truth = three_component_instance(seed=19)
    # fully recovered, then partial: tau 0.9 exceeds the last component's share
    for taus, budget in (((0.3, 0.3, 0.3), 2000), ((0.3, 0.3, 0.9), 20)):
        cfg = GlobalConfig(m=3, tau_list=taus, candidate_budget=budget,
                           epsilon_net=0.2, seed=4, radius=1.0)
        report = global_ilts(ds, cfg, truth=truth)
        assert report.partial == (taus[2] == 0.9)
        assert report.epsilon_recovery == max(report.per_component_errors)
    rng = np.random.default_rng(47)
    for _ in range(300):
        d, m = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        theta_star = rng.standard_normal((d, m)) * 10.0 ** rng.uniform(-3, 3)
        theta_hat = theta_star[:, rng.permutation(m)] + rng.standard_normal((d, m))
        value, perm = epsilon_recovery(theta_hat, theta_star)
        assert value == max(float(np.linalg.norm(theta_hat[:, perm[b]] - theta_star[:, b]))
                            for b in range(m))


def test_partial_recovery_matches_the_recovered_slots_first():
    # slot 0 recovers truth column 0 and slot 1 column 2; slot 2 starves. Every
    # permutation then has an infinite pair, but the matching must still pair the
    # recovered slots with the columns they recovered, and not take the identity.
    ds, truth = three_component_instance(seed=19)
    cfg = GlobalConfig(m=3, tau_list=(0.3, 0.3, 0.9), candidate_budget=20,
                       epsilon_net=0.2, seed=1, radius=1.0)
    report = global_ilts(ds, cfg, truth=truth)
    assert report.recovered == (True, True, False)
    assert report.matching == (0, 2, 1)
    assert math.isinf(report.per_component_errors[1])
    assert max(report.per_component_errors[::2]) <= 1e-12
    assert math.isinf(report.epsilon_recovery)


def rank_deficient_instance():
    # x2 is zero on every row, so every trimmed refit is rank deficient.
    X = np.column_stack([np.linspace(1.0, 2.0, 40), np.zeros(40)])
    return Dataset(X=X, y=X[:, 0].copy())


@pytest.mark.parametrize("instance, config, tallies", [
    # Slot 2 is skipped: floor(0.001 * rows left) < d, so it has no rows. Slots 0 and 1
    # are claimed by start 0, in the block of the 3 tensor starts.
    (lambda: three_component_instance(seed=19)[0],
     GlobalConfig(m=3, tau_list=(0.3, 0.3, 0.001), candidate_budget=20, epsilon_net=0.2,
                  seed=4, radius=1.0),
     ((True, True, False), (500, 500, 0), (3, 3, 0), True)),
    # The tensor start and both poles of the one-dimensional span are rank-deficient starts.
    (rank_deficient_instance,
     GlobalConfig(m=1, tau_list=(0.5,), candidate_budget=5, seed=0, radius=1.0, delta=1e-6),
     ((False,), (0,), (3,), True)),
], ids=["skipped-slot", "rank-deficient"])
def test_report_tallies_restate_the_candidate_rows(instance, config, tallies):
    report = global_ilts(instance(), config)
    got = (report.recovered, report.accepted_counts, report.candidates_tried, report.partial)
    assert got == tallies
    assert all(type(v) is bool for v in report.recovered) and type(report.partial) is bool
    assert all(type(v) is int for v in report.accepted_counts + report.candidates_tried)
    rows = report.candidate_outcomes
    for j in range(config.m):
        mine = [row for row in rows if row[0] == j]
        assert report.candidates_tried[j] == len(mine)
        assert report.recovered[j] == any(row[3] for row in mine)
        assert report.accepted_counts[j] == sum(row[4] for row in mine if row[3])
    if not any(report.recovered):
        assert all(row[2:] == (0, False, 0) for row in rows)


def test_truth_of_the_wrong_m_fails_before_the_first_candidate(monkeypatch):
    ds, truth = three_component_instance(seed=19)
    calls = []
    real = pipeline.ilts_run
    monkeypatch.setattr(pipeline, "ilts_run", lambda *a: calls.append(1) or real(*a))
    cfg = GlobalConfig(m=2, tau_list=(0.3,), candidate_budget=20, epsilon_net=0.2, seed=4,
                       radius=1.0)
    with pytest.raises(ValueError, match="^truth shape does not match the configured m$"):
        global_ilts(ds, cfg, truth=truth)
    assert calls == []


@pytest.mark.parametrize("d, n", [(6, 150), (4, 300)], ids=["fewer-rows", "another-d"])
def test_a_truth_of_other_data_fails_naming_both_shapes(monkeypatch, d, n):
    # A truth of fewer rows has the dataset's d and m, so only n tells it apart; one of
    # another d has the configured m, which must not be blamed.
    ds, _ = three_component_instance(seed=19, n=300)
    spec = MixtureSpec(d=d, m=3, components=list(np.eye(d)[:3]), weights=[1 / 3] * 3)
    other = generate_mlrc(spec, CorruptionSpec(), n=n, seed=20)[1]
    calls = []
    real = pipeline.ilts_run
    monkeypatch.setattr(pipeline, "ilts_run", lambda *a: calls.append(1) or real(*a))
    cfg = GlobalConfig(m=3, tau_list=(0.3,), candidate_budget=20, seed=4, radius=1.0)
    message = f"^truth has n = {n}, d = {d} but the dataset has n = 300, d = 6$"
    for run in (global_ilts, reference_global):
        with pytest.raises(ValueError, match=message):
            run(ds, cfg, truth=other)
    assert calls == []


def test_default_delta_and_one_tau_give_the_spelled_out_run():
    ds, truth = three_component_instance(seed=19)
    explicit = 10.0 * 1e-6 * math.sqrt(math.log(ds.n))
    settings = dict(m=3, tau_list=(0.3, 0.3, 0.3), candidate_budget=2000, epsilon_net=0.2,
                    seed=4, radius=1.0)
    derived = global_ilts(ds, GlobalConfig(**settings), truth=truth)
    given = global_ilts(ds, GlobalConfig(**settings, delta=explicit), truth=truth)
    assert derived.theta_hat.tobytes() == given.theta_hat.tobytes()
    assert derived.candidate_outcomes == given.candidate_outcomes
    assert derived.matching == given.matching
    assert derived.delta.hex() == given.delta.hex() == explicit.hex()
    assert (derived.delta_source, given.delta_source) == ("log-n-default", "user")

    one_tau = global_ilts(ds, GlobalConfig(**dict(settings, tau_list=(0.3,))), truth=truth)
    assert one_tau.theta_hat.tobytes() == derived.theta_hat.tobytes()
    assert one_tau.candidate_outcomes == derived.candidate_outcomes
    assert report_to_dict(one_tau) == report_to_dict(derived)
    with pytest.raises(ValueError, match="tau_list"):
        GlobalConfig(**dict(settings, tau_list=(0.3, 0.3)))


def test_default_delta_on_one_sample_asks_for_delta():
    # log 1 = 0 would make the default threshold accept nothing.
    ds = Dataset(X=np.ones((1, 1)), y=np.array([2.0]))
    cfg = GlobalConfig(m=1, tau_list=(1.0,), candidate_budget=2, seed=0, radius=1.0)
    with pytest.raises(ValueError, match="default delta is zero at n = 1; give delta"):
        global_ilts(ds, cfg)
    assert global_ilts(ds, dataclasses.replace(cfg, delta=1e-6)).recovered == (True,)


@pytest.mark.parametrize("call, message", [
    (lambda ds, est: accept_component(ds, np.zeros(3), math.nan, 1), "delta"),
    (lambda ds, est: accept_component(ds, np.zeros(3), math.inf, 1), "delta"),
    (lambda ds, est: generate_candidates(est, math.nan, 0.1, 10, 0), "radius"),
    (lambda ds, est: generate_candidates(est, math.inf, 0.1, 10, 0), "radius"),
    (lambda ds, est: generate_candidates(est, 1.0, math.nan, 10, 0), "epsilon"),
    (lambda ds, est: generate_candidates(est, 1.0, math.inf, 10, 0), "epsilon"),
], ids=["accept-delta-nan", "accept-delta-inf", "candidates-radius-nan",
        "candidates-radius-inf", "candidates-epsilon-nan", "candidates-epsilon-inf"])
def test_entry_points_reject_non_finite_scales(call, message):
    ds = Dataset(X=np.eye(3), y=np.array([0.1, 0.2, 0.3]))
    est = SubspaceEstimate(basis=np.eye(3)[:, :2])
    with pytest.raises(ValueError, match=f"^{message} must be positive and finite$"):
        call(ds, est)


@pytest.mark.parametrize("field", ["delta", "epsilon_net", "radius", "ilts_tol"])
def test_global_config_rejects_nan(field):
    settings = dict(m=2, tau_list=(0.3, 0.3), delta=0.1, candidate_budget=5, seed=0)
    with pytest.raises(ValueError, match=field):
        GlobalConfig(**dict(settings, **{field: math.nan}))


@pytest.mark.parametrize("field", ["delta", "epsilon_net", "radius"])
def test_global_config_rejects_inf(field):
    settings = dict(m=2, tau_list=(0.3, 0.3), delta=0.1, candidate_budget=5, seed=0)
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        GlobalConfig(**dict(settings, **{field: math.inf}))


def test_global_default_radius_flagged():
    ds, _ = three_component_instance(seed=29)
    cfg = GlobalConfig(m=3, tau_list=(0.3, 0.3, 0.3), delta=1e-5,
                       candidate_budget=500, epsilon_net=0.2, seed=4)
    report = global_ilts(ds, cfg)
    assert report.radius_source == "response-matched"
    assert report.radius > 0


def test_global_config_validation():
    with pytest.raises(ValueError, match="one fraction per"):
        GlobalConfig(m=2, tau_list=(0.3, 0.3, 0.3), delta=1e-5, candidate_budget=10,
                     epsilon_net=0.1, seed=0)
    with pytest.raises(ValueError, match="delta"):
        GlobalConfig(m=1, tau_list=(0.3,), delta=0.0, candidate_budget=10,
                     epsilon_net=0.1, seed=0)


GLOBAL_SETTINGS = dict(m=2, tau_list=(0.3,), candidate_budget=5, seed=0)
SPLIT = (np.arange(20.0).reshape(10, 2), np.repeat([0, 1], 5))
SPAN = SubspaceEstimate(basis=np.eye(3)[:, :2])


@functools.cache
def small_fit():
    """A two-component instance, its truth and one ILTS trace on it."""
    spec = MixtureSpec(d=2, m=2, components=[[1.0, 0.0], [0.0, 1.0]], weights=[0.5, 0.5])
    ds, truth = generate_mlrc(spec, CorruptionSpec(), n=40, seed=0)
    return ds, truth, ilts_run(ds, np.array([1.0, 0.1]), IltsConfig(tau=0.4))


@pytest.mark.parametrize("build, message", [
    (lambda: IltsConfig(tau=0.5, max_rounds=2.5), "max_rounds must be an integer, got 2.5"),
    (lambda: GdConfig(tau=0.5, max_rounds=2.5), "max_rounds must be an integer, got 2.5"),
    (lambda: GdConfig(tau=0.5, m_steps=2.5), "m_steps must be an integer, got 2.5"),
    (lambda: GlobalConfig(**dict(GLOBAL_SETTINGS, m=1.0)), "m must be an integer, got 1.0"),
    (lambda: GlobalConfig(**dict(GLOBAL_SETTINGS, candidate_budget=2.5)),
     "candidate_budget must be an integer, got 2.5"),
    (lambda: GlobalConfig(**dict(GLOBAL_SETTINGS, ilts_max_rounds=2.5)),
     "ilts_max_rounds must be an integer, got 2.5"),
    (lambda: GlobalConfig(**dict(GLOBAL_SETTINGS, seed=-1)), "seed must be at least 0"),
    (lambda: GlobalConfig(**dict(GLOBAL_SETTINGS, seed=True)), "seed must be an integer, got True"),
    (lambda: feature_regularity_sampled(SPLIT[0], 3, 5, seed=-1), "seed must be at least 0"),
    (lambda: affine_error_estimate(*SPLIT, [0.3, 0.3], 0, 0.5, 5, seed=-1),
     "seed must be at least 0"),
    (lambda: generate_candidates(SPAN, 1.0, 0.1, 2.5, 0), "budget must be an integer, got 2.5"),
    (lambda: generate_candidates(SPAN, 1.0, 0.1, True, 0),
     "budget must be an integer, got True"),
    (lambda: generate_candidates(SPAN, 1.0, 0.1, 10, -1), "seed must be at least 0"),
    (lambda: estimate_subspace(Dataset(*SPLIT), True), "m must be an integer, got True"),
    (lambda: gd_inner_loop(np.eye(2), np.zeros(2), np.zeros(2), 0.1, 2.5),
     "m_steps must be an integer, got 2.5"),
    (lambda: select_trimmed_set(Dataset(*SPLIT), np.zeros(2), True),
     "k must be an integer, got True"),
    (lambda: select_trimmed_set(Dataset(*SPLIT), np.zeros(2), 0), "k = 0 must lie in [1, 10]"),
    (lambda: feature_regularity_exact(SPLIT[0], 2.0), "k must be an integer, got 2.0"),
    (lambda: feature_regularity_sampled(SPLIT[0], True, 5, seed=0),
     "k must be an integer, got True"),
    (lambda: default_delta(0), "n must be at least 1"),
    (lambda: contraction_ratio(small_fit()[2], small_fit()[1], True),
     "j must be an integer, got True"),
    (lambda: contraction_ratio(small_fit()[2], small_fit()[1], 1.0),
     "j must be an integer, got 1.0"),
    (lambda: affine_error_estimate(*SPLIT, [0.3, 0.3], True, 0.5, 5, seed=0),
     "j must be an integer, got True"),
    (lambda: affine_error_estimate(*SPLIT, [0.3, 0.3], 1.0, 0.5, 5, seed=0),
     "j must be an integer, got 1.0"),
    (lambda: contraction_bound_trace(*small_fit(), True, 0.4), "j must be an integer, got True"),
    (lambda: contraction_bound_trace(*small_fit(), 1.0, 0.4), "j must be an integer, got 1.0"),
], ids=["ilts-max-rounds", "gd-max-rounds", "gd-m-steps", "global-m", "global-budget",
        "global-ilts-max-rounds", "global-seed", "global-seed-bool", "regularity-seed",
        "affine-error-seed", "candidates-budget", "candidates-budget-bool", "candidates-seed",
        "subspace-m-bool", "inner-m-steps", "select-k-bool",
        "select-k-zero", "regularity-exact-k", "regularity-sampled-k-bool", "default-delta-n",
        "contraction-ratio-j-bool", "contraction-ratio-j-float", "affine-error-j-bool",
        "affine-error-j-float", "contraction-bound-j-bool", "contraction-bound-j-float"])
def test_counts_and_seeds_fail_naming_the_field(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_counts_and_seeds_take_numpy_integers():
    assert IltsConfig(tau=0.5, max_rounds=np.int64(5)).max_rounds == 5
    assert GdConfig(tau=0.5, m_steps=np.int32(3)).m_steps == 3
    cfg = GlobalConfig(m=np.int64(2), tau_list=(0.3,), candidate_budget=np.uint8(5),
                       seed=np.uint64(7))
    assert cfg.tau_list == (0.3, 0.3)


def test_subspace_estimate_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        SubspaceEstimate(basis=np.array([[1.0], [1.0]]))
    with pytest.raises(ValueError, match=r"^basis must be d x m_tilde$"):
        SubspaceEstimate(basis=np.ones(3))
    for basis in (np.ones((3, 0)), np.eye(4)[:2]):
        with pytest.raises(ValueError, match=r"^basis must have between 1 and d columns$"):
            SubspaceEstimate(basis=basis)


def test_subspace_estimate_leaves_the_callers_array_writeable():
    b = np.eye(3)[:, :2].copy()
    est = SubspaceEstimate(basis=b)
    assert b.flags.writeable
    assert not est.basis.flags.writeable
    b[0, 0] = 2.0
    assert est.basis[0, 0] == 1.0


def shipped_global_repeat(repeat):
    """Instance, config and truth of repeat r of configs/three-component-global.json."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "three-component-global.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    specs, config, _ = _experiment_setup(doc, None)
    seed = doc["model"]["seed"] + repeat
    ds, truth = generate_mlrc(*specs, n=doc["model"]["n"], seed=seed)
    return ds, dataclasses.replace(config, seed=seed), truth


def sweep_recovery_instance():
    """The recovery call of the bench `sweep` workload at toy size, seed 0."""
    rng = np.random.default_rng(0)
    rng.standard_normal((5, 20))  # the reject call's components
    comps = list(np.linalg.qr(rng.standard_normal((20, 3)))[0].T)
    spec = MixtureSpec(d=20, m=3, components=comps, weights=[1 / 3] * 3)
    ds, truth = generate_mlrc(spec, CorruptionSpec(0.05, "oblivious-random", 2.0), n=1500,
                              seed=1)
    config = GlobalConfig(m=3, tau_list=(0.3,), delta=1e-4, candidate_budget=40,
                          epsilon_net=0.5, seed=0)
    return ds, config, truth


def three_component_case(seed, with_truth=True, **settings):
    ds, truth = three_component_instance(seed)
    config = GlobalConfig(**dict(dict(m=3, tau_list=(0.3,), candidate_budget=2000,
                                      epsilon_net=0.2, seed=4, radius=1.0), **settings))
    return ds, config, truth if with_truth else None


SCREENING_CASES = {
    **{f"shipped-global-{r}": lambda r=r: shipped_global_repeat(r) for r in range(5)},
    "sweep-recovery": sweep_recovery_instance,
    "end-to-end": lambda: three_component_case(19),
    "starved": lambda: three_component_case(23, tau_list=(0.9,), delta=1e-5,
                                            candidate_budget=3),
    "partial": lambda: three_component_case(19, tau_list=(0.3, 0.3, 0.9), candidate_budget=20),
    "skipped-slot": lambda: three_component_case(19, False, tau_list=(0.3, 0.3, 0.001),
                                                 candidate_budget=20),
    "default-radius": lambda: three_component_case(29, False, delta=1e-5, candidate_budget=500,
                                                   radius=None),
    "rank-deficient": lambda: (rank_deficient_instance(),
                               GlobalConfig(m=1, tau_list=(0.5,), candidate_budget=5, seed=0,
                                            radius=1.0, delta=1e-6), None),
    "one-sample": lambda: (Dataset(X=np.ones((1, 1)), y=np.array([2.0])),
                           GlobalConfig(m=1, tau_list=(1.0,), candidate_budget=2, seed=0,
                                        radius=1.0, delta=1e-6), None),
}


@pytest.mark.parametrize("case", SCREENING_CASES)
def test_screening_recovers_what_the_sequential_reference_does(case):
    ds, config, truth = SCREENING_CASES[case]()
    report = global_ilts(ds, config, truth=truth)
    reference = reference_global(ds, config, truth=truth)
    assert report.recovered == reference.recovered
    if truth is not None:
        assert (report.epsilon_recovery <= reference.epsilon_recovery
                or report.epsilon_recovery < 1e-12)
    # One row claims each recovered slot, and the claim ends the slot: no later block ran.
    # The tensor starts and the net's draws are screened in blocks of their own.
    k = len(pipeline.plan_search(ds, config)[1])

    def block(c):
        return (c >= k, (c if c < k else c - k) // SCREEN_BLOCK)
    for j in range(config.m):
        mine = [row for row in report.candidate_outcomes if row[0] == j]
        won = [row for row in mine if row[3]]
        assert len(won) == report.recovered[j]
        assert all(block(row[1]) == block(mine[-1][1]) for row in won)
    # Below CARRY_MIN_WORK a start run on after the screening rounds finishes bit for
    # bit as the reference ran it, so while the earlier slots hold the same columns
    # (and so leave the same rows) such a row is the reference's, and a slot whose
    # reference winner finished is claimed by that winner.
    assert [row[:2] for row in report.candidate_outcomes] == sorted(
        row[:2] for row in report.candidate_outcomes)
    rows = {row[:2]: row for row in report.candidate_outcomes}
    for j in range(config.m):
        if report.theta_hat[:, :j].tobytes() != reference.theta_hat[:, :j].tobytes():
            break
        for row in reference.candidate_outcomes:
            if row[0] == j and rows.get(row[:2], (0,) * 5)[2] > SCREEN_ROUNDS:
                assert rows[row[:2]] == row
        won = [row for row in reference.candidate_outcomes if row[0] == j and row[3]]
        if won and rows.get(won[0][:2], (0,) * 5)[2] == won[0][2]:
            assert rows[won[0][:2]] == won[0]
            assert report.theta_hat[:, j].tobytes() == reference.theta_hat[:, j].tobytes()


@pytest.mark.parametrize("case", ["default-radius", "sweep-recovery"])
def test_the_sequential_reference_draws_its_starts_by_the_same_rule(monkeypatch, case):
    # A start rule changed in pipeline.generate_candidates (here: every start doubled)
    # reaches both searches, slot by slot, with the same arguments.
    ds, config, truth = SCREENING_CASES[case]()
    real = pipeline.generate_candidates
    calls = []

    def doubled(subspace, *args):
        calls[-1].append((subspace.basis.tobytes(),) + args)
        return 2.0 * real(subspace, *args)

    monkeypatch.setattr(pipeline, "generate_candidates", doubled)
    for search in (global_ilts, reference_global):
        calls.append([])
        search(ds, config, truth=truth)
    assert calls[0] and calls[0] == calls[1]


def test_screening_finishes_the_three_lowest_prefix_losses_of_each_block():
    # tau 0.9 exceeds every component's share, so no start is accepted and each slot
    # screens on all rows. Slot 0 screens its 3 tensor starts as one block, then its 17
    # net draws in blocks of 8, 8 and 1; slots 1 and 2, on the same rows at the same tau,
    # skip the tensor starts. A start that converges within the screening rounds is
    # finished: it is tested there and not ranked, and the three lowest losses among the
    # rest run on.
    ds, _ = three_component_instance(seed=3, n=300)
    config = GlobalConfig(m=3, tau_list=(0.9,), delta=1e-5, candidate_budget=20,
                          epsilon_net=0.2, seed=4, radius=1.0)
    report = global_ilts(ds, config)
    _, ahead, plan = pipeline.plan_search(ds, config)
    assert len(ahead) == 3
    whole = IltsConfig(tau=0.9, max_rounds=config.ilts_max_rounds, tol=config.ilts_tol)
    prefix = dataclasses.replace(whole, max_rounds=SCREEN_ROUNDS)
    finished_would_rank = screened_out = 0
    for j in range(3):
        starts = plan(j)
        expected = []
        ends = [0, 3, 11, 19, 20] if j == 0 else [3, 11, 19, 20]
        for block in (range(first, stop) for first, stop in zip(ends, ends[1:])):
            traces = {c: ilts_run(ds, starts[c], prefix) for c in block}
            by_loss = sorted(block, key=lambda c: traces[c].trimmed_losses[-1])
            finished_would_rank += any(traces[c].converged for c in by_loss[:SCREEN_KEEP])
            unfinished = [c for c in by_loss if not traces[c].converged]
            kept = unfinished[:SCREEN_KEEP]
            screened_out += len(unfinished) - len(kept)
            for c in kept:
                traces[c] = ilts_run(ds, starts[c], whole)
            for c in block:
                support = accept_component(ds, traces[c].final, config.delta, 1)[1]
                expected.append((j, c, traces[c].rounds_used, False, support.size))
        assert [row for row in report.candidate_outcomes if row[0] == j] == expected
    # Some starts were screened out, and ranking the finished starts too would have
    # changed which ones run on.
    assert screened_out > 0 and finished_would_rank > 0


def test_a_start_finished_within_the_screening_rounds_claims_its_slot_alone():
    ds, config, truth = three_component_case(19)
    report = global_ilts(ds, config, truth=truth)
    assert report.recovered == (True, True, True)
    last = [row for row in report.candidate_outcomes if row[0] == 2]
    assert len(last) == 1
    _, candidate, rounds, accepted, _ = last[0]
    assert candidate == 0 and accepted and rounds <= SCREEN_ROUNDS
