"""Structural diagnostics for trimmed mixture regression.

Measured quantities:

* q_separation: smallest pairwise component distance over the largest
  component norm, globally and per component.
* feature regularity psi_plus(k) / psi_minus(k): extreme eigenvalues of
  X_S^T X_S over size-k row subsets. Exact mode enumerates every subset and
  is refused beyond a fixed budget; sampled mode reports the best extremes
  found over random subsets plus two leverage-guided subsets, which bound
  the truth from inside (sampled psi_plus <= true, sampled psi_minus >= true).
* affine error value(delta): given direction pairs at norm ratio delta, the
  largest count V for which the (V + slack)-th largest in-component
  projection still dominates the V-th smallest out-of-component projection.
  Sampling directions gives a lower bound on the subset-free quantity.
* contraction_bound: the per-round contraction factor 2 psi_plus / psi_minus
  assembled from regularity values, plus a trace checker that compares the
  assembled bound with observed per-round contraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ilts import SolverTrace
from .model import Dataset, GroundTruth, check_truth
from .util import ceil_count, check_integer, floor_count

# Exact regularity enumerates at most this many subsets.
EXACT_SUBSET_BUDGET = 2_000_000

# Sampled psi_plus underestimates the true subset maximum, so bound checks
# multiply it by this documented safety factor.
PSI_PLUS_INFLATION = 2.0

# contraction_bound_trace skips rounds within DIST_FLOOR * (1 + ||theta_j||) of theta_j.
DIST_FLOOR = 1e-9


@dataclass(frozen=True)
class RegularityEstimate:
    k: int
    psi_plus: float
    psi_minus: float
    mode: str       # "exact" | "sampled"
    trials: int     # subsets evaluated


@dataclass(frozen=True)
class AffineErrorEstimate:
    delta: float
    j: int
    value: int
    directions: int  # direction pairs evaluated
    mode: str = "sampled"


def q_separation(theta_star: np.ndarray):
    """Separation ratios of the component matrix.

    Returns (Q, per_component) where Q is the minimum pairwise column
    distance divided by the maximum column norm and per_component[j] is the
    distance from column j to its nearest other column divided by ||column j||.
    """
    theta = np.asarray(theta_star, dtype=float)
    if theta.ndim != 2:
        raise ValueError("theta_star must be d x m")
    m = theta.shape[1]
    if m < 2:
        raise ValueError("separation needs at least two components")
    norms = np.linalg.norm(theta, axis=0)
    if np.any(norms == 0):
        raise ValueError("zero-norm component makes separation undefined")
    dists = np.linalg.norm(theta[:, :, None] - theta[:, None, :], axis=0)
    off = dists + np.diag(np.full(m, np.inf))
    per = tuple(float(off[j].min() / norms[j]) for j in range(m))
    q = float(off.min() / norms.max())
    return q, per


def _gram_extremes(X: np.ndarray, subsets):
    """Largest top and smallest bottom eigenvalue of X_S^T X_S over the
    row subsets S, the bottom one clamped at zero."""
    psi_plus = -np.inf
    psi_minus = np.inf
    for rows in subsets:
        X_S = X[np.asarray(rows)]
        eig = np.linalg.eigvalsh(X_S.T @ X_S)
        psi_plus = max(psi_plus, float(eig[-1]))
        psi_minus = min(psi_minus, float(eig[0]))
    return psi_plus, max(psi_minus, 0.0)


def feature_regularity_exact(X: np.ndarray, k: int) -> RegularityEstimate:
    """Exact psi_plus(k), psi_minus(k) by enumerating every size-k subset."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    check_integer(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} must lie in [1, {n}]")
    total = math.comb(n, k)
    if total > EXACT_SUBSET_BUDGET:
        raise ValueError(
            f"C({n}, {k}) = {total} subsets exceeds the exact budget {EXACT_SUBSET_BUDGET}; "
            "use the sampled mode")
    psi_plus, psi_minus = _gram_extremes(X, itertools.combinations(range(n), k))
    return RegularityEstimate(k=k, psi_plus=psi_plus, psi_minus=psi_minus,
                              mode="exact", trials=total)


def _leverage_scores(X: np.ndarray) -> np.ndarray:
    gram_inv = np.linalg.pinv(X.T @ X)
    return np.einsum("ij,jk,ik->i", X, gram_inv, X)


def feature_regularity_sampled(X: np.ndarray, k: int, trials: int,
                               seed: int) -> RegularityEstimate:
    """Inner bounds on psi_plus(k), psi_minus(k) from sampled subsets.

    Evaluates `trials` uniform subsets plus the top-k and bottom-k rows by
    leverage score. The reported psi_plus never exceeds the true subset
    maximum and the reported psi_minus never undercuts the true minimum.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    check_integer(k, "k")
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} must lie in [1, {n}]")
    check_integer(trials, "trials", 1)
    check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    lev = _leverage_scores(X)
    order = np.argsort(lev, kind="stable")
    subsets = [order[-k:], order[:k]]
    for _ in range(trials):
        subsets.append(rng.choice(n, size=k, replace=False))
    psi_plus, psi_minus = _gram_extremes(X, subsets)
    return RegularityEstimate(k=k, psi_plus=psi_plus, psi_minus=psi_minus,
                              mode="sampled", trials=len(subsets))


def _pair_value(in_proj: np.ndarray, out_proj: np.ndarray, slack: int) -> int:
    """Largest V with (V + slack)-th largest in_proj >= V-th smallest out_proj."""
    a = np.sort(in_proj)[::-1]
    b = np.sort(out_proj)
    v_max = min(a.size - slack, b.size)
    if v_max <= 0:
        return 0
    lhs = a[slack:slack + v_max]
    rhs = b[:v_max]
    ok = lhs >= rhs
    if ok.all():
        return int(v_max)
    return int(np.argmax(~ok))


def _unit(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("zero direction vector")
    return rows / norms


def _split(X: np.ndarray, partition: np.ndarray, tau_j, j: int):
    """(X_in, X_out, slack): the rows of component j, the other rows, and the
    slack ceil((tau_star_j - tau_j) * n) for the kept fraction tau_j."""
    n = X.shape[0]
    mask = partition == j
    n_j = int(np.count_nonzero(mask))
    if n_j == 0:
        raise ValueError(f"component {j} has no samples")
    if n_j == n:
        raise ValueError("every sample belongs to component j; no outside rows")
    tau_star_j = n_j / n
    if not 0 < tau_j < tau_star_j:
        raise ValueError(f"tau[{j}] = {tau_j} must lie in (0, {tau_star_j})")
    return X[mask], X[~mask], ceil_count((tau_star_j - float(tau_j)) * n)


def _affine_count(X_in: np.ndarray, X_out: np.ndarray, v_in: np.ndarray, v_out: np.ndarray,
                  slack: int) -> int:
    """Largest _pair_value over the direction pairs (v_in[i], v_out[i])."""
    in_proj = np.abs(X_in @ v_in.T)
    out_proj = np.abs(X_out @ v_out.T)
    return max(_pair_value(in_proj[:, col], out_proj[:, col], slack)
               for col in range(v_in.shape[0]))


def affine_error_estimate(X: np.ndarray, partition: np.ndarray, tau, j: int,
                          delta: float, directions: int, seed: int) -> AffineErrorEstimate:
    """Sampled affine-error count for component j at norm ratio delta.

    Directions are drawn uniformly; each pair scales the in-component
    direction to norm delta and the out-of-component direction to norm 1.
    The reported value is the maximum over the pairs, a lower bound on the
    direction-free quantity, and is nondecreasing in delta on a fixed seed.
    """
    X = np.asarray(X, dtype=float)
    partition = np.asarray(partition)
    n, d = X.shape
    if partition.shape != (n,):
        raise ValueError("partition must have one label per row")
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    check_integer(directions, "directions", 1)
    check_integer(seed, "seed", 0)
    tau = np.asarray(tau, dtype=float)
    check_integer(j, "j")
    if not 0 <= j < tau.size:
        raise ValueError(f"j = {j} must lie in [0, {tau.size})")
    X_in, X_out, slack = _split(X, partition, tau[j], j)
    v_in, v_out = np.random.default_rng(seed).standard_normal((2, directions, d))
    value = _affine_count(X_in, X_out, delta * _unit(v_in), _unit(v_out), slack)
    return AffineErrorEstimate(delta=float(delta), j=j, value=value,
                               directions=int(directions), mode="sampled")


def contraction_bound(psi_plus_value: float, psi_minus_value: float) -> float:
    """Assembled contraction factor 2 * psi_plus / psi_minus."""
    # Negated range tests, so that NaN fails them too.
    if not 0 <= psi_plus_value < math.inf:
        raise ValueError("psi_plus must be nonnegative and finite to assemble the bound")
    if not 0 < psi_minus_value < math.inf:
        raise ValueError("psi_minus must be positive and finite to assemble the bound")
    return 2.0 * psi_plus_value / psi_minus_value


def _psi_plus_at(X: np.ndarray, count: int, trials: int, seed: int) -> float:
    """psi_plus(count), exact when affordable, else sampled and inflated."""
    if count == 0:
        return 0.0
    n = X.shape[0]
    if math.comb(n, count) <= EXACT_SUBSET_BUDGET and count <= 3:
        return feature_regularity_exact(X, count).psi_plus
    est = feature_regularity_sampled(X, count, trials, seed)
    return PSI_PLUS_INFLATION * est.psi_plus


def contraction_bound_trace(dataset: Dataset, truth: GroundTruth, trace: SolverTrace,
                            j: int, tau: float, seed: int = 0, directions: int = 64,
                            trials: int = 200) -> list[dict]:
    """Compare observed per-round contraction against the assembled bound.

    For each usable round t the observed ratio dist_{t+1}/dist_t toward
    component j is paired with the factor
    2 * psi_plus(min(n, V + corrupted_count)) / psi_minus(floor(tau * n)),
    where V is the sampled affine-error count at
    delta_t = 2 * dist_t / (Q_j * ||theta_j||) over the clean rows, probed
    with informed directions toward the other components. Rounds with
    dist_t < DIST_FLOOR * (1 + ||theta_j||) are skipped: near floating-point
    convergence the observed ratio measures round-off, not contraction.
    in_region records whether delta_t <= 1; outside that range the bound is
    evaluated at delta = 1 and is not meaningful.
    """
    check_integer(j, "j")
    if not 0 <= j < truth.m:
        raise ValueError(f"j = {j} must lie in [0, {truth.m})")
    theta_j = truth.theta_star[:, j]
    scale = float(np.linalg.norm(theta_j))
    if scale == 0:
        raise ValueError("component j has zero norm")
    check_truth(dataset, truth)
    n, d = dataset.n, dataset.d
    k = floor_count(tau * n)
    n_bad = int(np.count_nonzero(truth.corrupted))
    if n_bad == n:
        raise ValueError("every row is corrupted; the trace has no clean rows to scan")
    if truth.m >= 2:
        _, per = q_separation(truth.theta_star)
        q_j = per[j]
        if q_j == 0:
            raise ValueError(f"component {j} coincides with another (Q_j = 0); "
                             "the affine-error delta is undefined")
    else:
        q_j = None

    dists = np.linalg.norm(trace.iterates - theta_j, axis=1)

    psi_minus = feature_regularity_sampled(dataset.X, k, trials, seed).psi_minus
    if psi_minus <= 0:
        raise ValueError("sampled psi_minus is zero; bound undefined")

    clean = ~truth.corrupted
    # The scan takes the clean rows only. As a fraction of them, tau * n / n_clean puts
    # the slack ceil((tau_star_j - tau_j) * n_clean) at n_j - tau * n rows, as over all n.
    tau_clean = tau * n / (n - n_bad)
    split = None

    records = []
    floor = DIST_FLOOR * (1.0 + scale)
    for t in range(len(dists) - 1):
        if dists[t] < max(floor, 1e-14):
            continue
        ratio = float(dists[t + 1] / dists[t])
        if q_j is None:
            v_count = 0
            delta_t = 0.0
            in_region = True
        else:
            delta_t = 2.0 * float(dists[t]) / (q_j * scale)
            in_region = delta_t <= 1.0
            delta = min(delta_t, 1.0)
            if split is None:  # split at the first round scanned: a trace with none never fails
                check_integer(directions, "directions", 1)
                split = _split(dataset.X[clean], truth.partition[clean], tau_clean, j)
            # Under the sampled pairs go the informed ones: theta_t toward theta_j, against
            # theta_t toward each other component.
            theta_t = trace.iterates[t]
            toward = [truth.theta_star[:, l] - theta_t for l in range(truth.m)
                      if l != j and np.linalg.norm(truth.theta_star[:, l] - theta_t) > 0]
            v_in, v_out = np.random.default_rng(seed + t).standard_normal((2, directions, d))
            v_in = delta * _unit(np.vstack([v_in] + [theta_j - theta_t] * len(toward)))
            X_in, X_out, slack = split
            v_count = _affine_count(X_in, X_out, v_in, _unit(np.vstack([v_out] + toward)), slack)
        count = min(n, v_count + n_bad)
        psi_plus = _psi_plus_at(dataset.X, count, trials, seed + 7919 + t)
        records.append({
            "round": t,
            "ratio": ratio,
            "bound": contraction_bound(psi_plus, psi_minus),
            "delta": delta_t,
            "affine_count": v_count,
            "in_region": in_region,
        })
    return records
