"""Global recovery pipeline tests."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from trimfit.model import CorruptionSpec, Dataset, MixtureSpec, generate_mlrc
from trimfit.pipeline import (GlobalConfig, SubspaceEstimate, _augment, _bottleneck_matching,
                              accept_component, default_radius,
                              epsilon_recovery, estimate_subspace, generate_candidates,
                              global_ilts, report_to_dict, subspace_distance)


def basis_at_angle(alpha):
    return np.array([[math.cos(alpha)], [math.sin(alpha)]])


def test_subspace_distance_rotation():
    # a one-column basis rotated by alpha misses e1 by exactly sin(alpha)
    est = SubspaceEstimate(basis=basis_at_angle(math.pi / 6), provenance="external")
    u_true = np.array([[1.0], [0.0]])
    assert subspace_distance(est, u_true) == pytest.approx(0.5, abs=1e-12)
    aligned = SubspaceEstimate(basis=basis_at_angle(0.0), provenance="external")
    assert subspace_distance(aligned, u_true) == pytest.approx(0.0, abs=1e-12)


def test_subspace_distance_validates_orthonormal():
    est = SubspaceEstimate(basis=basis_at_angle(0.3), provenance="external")
    with pytest.raises(ValueError, match="orthonormal"):
        subspace_distance(est, np.array([[2.0], [0.0]]))


def test_estimate_subspace_sign_canonical():
    spec = MixtureSpec(d=6, m=2,
                       components=[np.eye(6)[0], np.eye(6)[1]],
                       weights=[0.5, 0.5])
    ds, _ = generate_mlrc(spec, CorruptionSpec(), n=2000, seed=3)
    est = estimate_subspace(ds, 2)
    assert est.provenance == "svd"
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


def test_estimate_subspace_rejects_zero_response():
    ds = Dataset(X=np.eye(3), y=np.zeros(3))
    with pytest.raises(ValueError, match="zero"):
        estimate_subspace(ds, 1)


def test_candidate_count_covering_cap():
    # 3 R / epsilon = 12 in a 2-d span caps the draw count at 144
    basis = np.eye(4)[:, :2]
    est = SubspaceEstimate(basis=basis, provenance="external")
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
    est = SubspaceEstimate(basis=basis, provenance="external")
    cands = generate_candidates(est, radius=1.5, epsilon=0.3, budget=100, seed=4)
    norms = np.linalg.norm(cands, axis=1)
    assert np.allclose(norms, 1.5, atol=1e-10)
    residual = cands.T - basis @ (basis.T @ cands.T)
    assert np.max(np.abs(residual)) <= 1e-10


def test_candidates_one_dimensional_span_poles():
    est = SubspaceEstimate(basis=np.eye(3)[:, :1], provenance="external")
    cands = generate_candidates(est, radius=2.0, epsilon=0.1, budget=500, seed=0)
    assert cands.shape == (2, 3)
    assert np.allclose(cands[0], [2.0, 0.0, 0.0])
    assert np.allclose(cands[1], [-2.0, 0.0, 0.0])
    only = generate_candidates(est, radius=2.0, epsilon=0.1, budget=1, seed=0)
    assert only.shape == (1, 3)


def test_default_radius_quantile():
    X = np.ones((100, 1))
    y = np.arange(1.0, 101.0)
    ds = Dataset(X=X, y=y)
    assert default_radius(ds) == pytest.approx(np.quantile(y, 0.95))
    with pytest.raises(ValueError, match="zero"):
        default_radius(Dataset(X=np.ones((3, 1)), y=np.zeros(3)))


def test_accept_component_threshold_exact():
    ds = Dataset(X=np.eye(3), y=np.array([0.1, 0.2, 0.3]))
    theta = np.zeros(3)
    # strict inequality: residual 0.2 does not pass delta = 0.2
    ok, support = accept_component(ds, theta, tau_j=1 / 3, delta=0.2)
    assert ok and list(support) == [0]
    ok, support = accept_component(ds, theta, tau_j=1 / 3, delta=0.2, min_count=2)
    assert not ok
    ok, support = accept_component(ds, theta, tau_j=1.0, delta=0.31)
    assert ok and list(support) == [0, 1, 2]


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


def exhaustive_matching(dist):
    """Oracle: the first permutation, in itertools order, with the smallest
    largest matched distance; perm[b] is the row matched to column b."""
    m = dist.shape[0]
    best_val = np.inf
    best_perm = tuple(range(m))
    for perm in itertools.permutations(range(m)):
        val = max(dist[perm[b], b] for b in range(m))
        if val < best_val:
            best_val = val
            best_perm = perm
    return float(best_val), list(best_perm)


def test_bottleneck_matching_agrees_with_exhaustive():
    rng = np.random.default_rng(44)
    cases = [rng.uniform(0, 10, size=(7, 7)) for _ in range(20)]
    # tie-heavy: entries 0-2, about 30% infinite (unrecovered slots)
    for _ in range(1200):
        m = int(rng.integers(1, 7))
        dist = rng.integers(0, 3, size=(m, m)).astype(float)
        dist[rng.random((m, m)) < 0.3] = np.inf
        cases.append(dist)
    for dist in cases:
        value, perm = _bottleneck_matching(dist)
        assert (value, list(perm)) == exhaustive_matching(dist)
    assert list(_bottleneck_matching(np.full((4, 4), np.inf))[1]) == [0, 1, 2, 3]


def fresh_matching_bottleneck(dist):
    """Reference: the lexicographic pass that checks each candidate row with a
    perfect matching of the remaining rows and columns built from scratch."""
    m = dist.shape[0]
    values = np.unique(dist)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if lsap_has_perfect_matching(dist <= values[mid]):
            hi = mid
        else:
            lo = mid + 1
    allowed = dist <= values[lo]
    perm = []
    free = list(range(m))
    for b in range(m):
        a = next(a for a in free if allowed[a, b] and lsap_has_perfect_matching(
            allowed[np.ix_([x for x in free if x != a], range(b + 1, m))]))
        perm.append(a)
        free.remove(a)
    return float(values[lo]), perm


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


def three_component_instance(seed):
    d = 6
    comps = [np.zeros(d) for _ in range(3)]
    comps[0][0] = 1.0
    comps[1][1] = 1.0
    comps[2][2] = 1.0
    spec = MixtureSpec(d=d, m=3, components=comps, weights=[1 / 3, 1 / 3, 1 / 3])
    return generate_mlrc(spec, CorruptionSpec(), n=1500, seed=seed)


def test_global_recovery_end_to_end():
    ds, truth = three_component_instance(seed=19)
    delta = 10.0 * 1e-6 * math.sqrt(math.log(ds.n))
    cfg = GlobalConfig(m=3, tau_list=(0.3, 0.3, 0.3), delta=delta,
                       candidate_budget=2000, epsilon_net=0.2, seed=4, radius=1.0)
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
    delta = 10.0 * 1e-6 * math.sqrt(math.log(ds.n))
    # fully recovered, then partial: tau 0.9 exceeds the last component's share
    for taus, budget in (((0.3, 0.3, 0.3), 2000), ((0.3, 0.3, 0.9), 20)):
        cfg = GlobalConfig(m=3, tau_list=taus, delta=delta, candidate_budget=budget,
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


def test_global_default_radius_flagged():
    ds, _ = three_component_instance(seed=29)
    cfg = GlobalConfig(m=3, tau_list=(0.3, 0.3, 0.3), delta=1e-5,
                       candidate_budget=500, epsilon_net=0.2, seed=4)
    report = global_ilts(ds, cfg)
    assert report.radius_source == "quantile-default"
    assert report.radius > 0


def test_global_config_validation():
    with pytest.raises(ValueError, match="one fraction per"):
        GlobalConfig(m=2, tau_list=(0.3,), delta=1e-5, candidate_budget=10,
                     epsilon_net=0.1, seed=0)
    with pytest.raises(ValueError, match="delta"):
        GlobalConfig(m=1, tau_list=(0.3,), delta=0.0, candidate_budget=10,
                     epsilon_net=0.1, seed=0)


def test_subspace_estimate_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        SubspaceEstimate(basis=np.array([[1.0], [1.0]]), provenance="external")
    with pytest.raises(ValueError, match="provenance"):
        SubspaceEstimate(basis=np.eye(2), provenance="guess")
