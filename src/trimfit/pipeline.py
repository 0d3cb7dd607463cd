"""Global recovery of all mixture components.

The pipeline estimates the span of the component matrix from moment rows
y_i * x_i, draws candidate starting points uniformly from a sphere inside
that span, and polishes each candidate with the trimmed alternation. A
candidate is accepted for component j once enough samples fall below the
residual acceptance threshold; its support is then removed and the search
moves to the next component. Exhausting the candidate budget for a slot
flags a partial result instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ilts import IltsConfig, RankDeficientError, ilts_run
from .model import Dataset, GroundTruth
from .util import check_finite, floor_count

PROVENANCES = ("svd", "external")

# Entrywise orthonormality tolerance for stored bases.
_BASIS_TOL = 1e-10
# Orthonormality tolerance accepted on comparison inputs.
_COMPARE_TOL = 1e-8


@dataclass(frozen=True)
class SubspaceEstimate:
    """Orthonormal basis of the estimated component span."""

    basis: np.ndarray
    provenance: str

    def __post_init__(self):
        basis = np.ascontiguousarray(np.asarray(self.basis, dtype=float))
        if basis.ndim != 2:
            raise ValueError("basis must be d x m_tilde")
        d, m_tilde = basis.shape
        if not 1 <= m_tilde <= d:
            raise ValueError("basis must have between 1 and d columns")
        check_finite(basis, "basis")
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(m_tilde))) > _BASIS_TOL:
            raise ValueError("basis columns are not orthonormal")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def m_tilde(self) -> int:
        return self.basis.shape[1]

    @property
    def d(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class GlobalConfig:
    """Settings for the full recovery loop.

    radius = None derives the candidate sphere radius from the data as the
    0.95 quantile of |y_i| / ||x_i||; the report flags that default.
    epsilon_net = None sets the net granularity to 0.2 times the radius. The
    trimmed alternation inside the candidate loop runs with ilts_max_rounds
    and ilts_tol.
    """

    m: int
    tau_list: tuple
    delta: float
    candidate_budget: int
    seed: int
    radius: float | None = None
    epsilon_net: float | None = None
    ilts_max_rounds: int = 30
    ilts_tol: float = 1e-11

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        taus = tuple(float(t) for t in self.tau_list)
        if len(taus) != self.m:
            raise ValueError("tau_list must carry one fraction per component")
        if any(not 0 < t <= 1 for t in taus):
            raise ValueError("every tau must lie in (0, 1]")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.candidate_budget < 1:
            raise ValueError("candidate_budget must be at least 1")
        if self.epsilon_net is not None and self.epsilon_net <= 0:
            raise ValueError("epsilon_net must be positive when given")
        if self.radius is not None and self.radius <= 0:
            raise ValueError("radius must be positive when given")
        if self.ilts_max_rounds < 1:
            raise ValueError("ilts_max_rounds must be at least 1")
        if self.ilts_tol < 0:
            raise ValueError("ilts_tol must be nonnegative")
        object.__setattr__(self, "tau_list", taus)


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one global recovery run.

    theta_hat holds one column per component slot with NaN columns for
    unrecovered slots. candidate_outcomes rows are
    (component, candidate, rounds, accepted, support_size). matching,
    per_component_errors and epsilon_recovery are present only when ground
    truth was supplied; unrecovered slots contribute infinite errors.
    """

    theta_hat: np.ndarray
    recovered: tuple
    accepted_counts: tuple
    candidates_tried: tuple
    partial: bool
    radius: float
    radius_source: str
    candidate_outcomes: tuple
    matching: tuple | None = None
    per_component_errors: tuple | None = None
    epsilon_recovery: float | None = None


def estimate_subspace(dataset: Dataset, m: int) -> SubspaceEstimate:
    """Top-m right-singular basis of the moment rows y_i * x_i.

    Column signs are canonicalized so each column's largest-magnitude entry
    is positive.
    """
    if not 1 <= m <= min(dataset.n, dataset.d):
        raise ValueError(f"m = {m} must lie in [1, min(n, d) = {min(dataset.n, dataset.d)}]")
    moments = dataset.X * dataset.y[:, None]
    if not np.any(moments):
        raise ValueError("all moment rows are zero (is y identically zero?)")
    _, _, vh = np.linalg.svd(moments, full_matrices=False)
    basis = vh[:m].T.copy()
    for col in range(m):
        pivot = int(np.argmax(np.abs(basis[:, col])))
        if basis[pivot, col] < 0:
            basis[:, col] = -basis[:, col]
    return SubspaceEstimate(basis=basis, provenance="svd")


def subspace_distance(estimate: SubspaceEstimate, u_true: np.ndarray) -> float:
    """Spectral norm of (I - B B^T) U, the largest residual of any unit
    vector in the true span after projecting onto the estimated one."""
    u = np.asarray(u_true, dtype=float)
    if u.ndim != 2 or u.shape[0] != estimate.d:
        raise ValueError("u_true must be d x k")
    gram = u.T @ u
    if np.max(np.abs(gram - np.eye(u.shape[1]))) > _COMPARE_TOL:
        raise ValueError("u_true columns are not orthonormal")
    basis = estimate.basis
    residual = u - basis @ (basis.T @ u)
    value = float(np.linalg.norm(residual, 2))
    return min(value, 1.0)


def generate_candidates(subspace: SubspaceEstimate, radius: float, epsilon: float,
                        budget: int, seed: int) -> np.ndarray:
    """Uniform candidates on the radius-R sphere inside the estimated span.

    The number of draws is min(budget, ceil((3 R / epsilon) ** m_tilde)),
    the covering-number cap of the sphere at granularity epsilon. In a
    one-dimensional span the sphere has exactly two points, so at most the
    two signed poles are returned.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    m_tilde = subspace.m_tilde
    ratio = 3.0 * radius / epsilon
    if ratio <= 1.0:
        cap = 1
    elif m_tilde * math.log(ratio) > math.log(budget) + 1.0:
        cap = budget
    else:
        cap = int(math.ceil(ratio ** m_tilde - 1e-9))
    count = min(budget, cap)
    basis = subspace.basis
    if m_tilde == 1:
        poles = np.vstack([radius * basis[:, 0], -radius * basis[:, 0]])
        return poles[:min(count, 2)]
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, m_tilde))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    while np.any(norms == 0):  # measure-zero guard
        bad = norms[:, 0] == 0
        z[bad] = rng.standard_normal((int(bad.sum()), m_tilde))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
    return radius * (z / norms) @ basis.T


def default_radius(dataset: Dataset) -> float:
    """0.95 quantile of |y_i| / ||x_i|| over rows with nonzero features."""
    norms = np.linalg.norm(dataset.X, axis=1)
    mask = norms > 0
    if not np.any(mask):
        raise ValueError("all feature rows are zero")
    value = float(np.quantile(np.abs(dataset.y[mask]) / norms[mask], 0.95))
    if value <= 0:
        raise ValueError("data-driven radius is zero (is y identically zero?)")
    return value


def accept_component(dataset: Dataset, theta: np.ndarray, tau_j: float, delta: float,
                     min_count: int | None = None):
    """Threshold acceptance test.

    Returns (accepted, support) where support holds every index with squared
    residual strictly below delta**2 and accepted is True when the support
    reaches floor(tau_j * n), or min_count when supplied.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0 < tau_j <= 1:
        raise ValueError("tau_j must lie in (0, 1]")
    theta = np.asarray(theta, dtype=float)
    check_finite(theta, "theta")
    res2 = np.square(dataset.y - dataset.X @ theta)
    support = np.flatnonzero(res2 < delta * delta)
    need = floor_count(tau_j * dataset.n) if min_count is None else min_count
    return len(support) >= need, support


def _distance_matrix(theta_hat: np.ndarray, theta_star: np.ndarray) -> np.ndarray:
    m = theta_hat.shape[1]
    dist = np.empty((m, m))
    # One norm per pair, like per_component_errors; a broadcast norm differs in the last bit.
    for a in range(m):
        for b in range(m):
            dist[a, b] = np.linalg.norm(theta_hat[:, a] - theta_star[:, b])
    return np.where(np.isnan(dist), np.inf, dist)


def _augment(allowed: np.ndarray, owner: list, col: int, seen: set) -> bool:
    """Give col an allowed row outside seen that is free or whose column can
    re-match elsewhere (Kuhn 1955). owner (row -> column, -1 when free) changes
    only when the search succeeds."""
    for row in np.flatnonzero(allowed[:, col]):
        if row not in seen:
            seen.add(row)
            if owner[row] < 0 or _augment(allowed, owner, owner[row], seen):
                owner[row] = col
                return True
    return False


def _bottleneck_matching(dist: np.ndarray):
    """Lexicographically first permutation minimizing the largest matched distance.

    One matching grows column by column, each column joining at the smallest distinct
    entry, no lower than its predecessor's, under which it augments. Truth columns are
    then matched in order, each to the smallest free estimate column that still leaves a
    perfect matching under that entry: column b moves to a smaller row a exactly when the
    column displaced from a can re-augment to b's old row without a, one search each.
    """
    m = dist.shape[0]
    values = np.unique(dist)
    top, lo, owner = len(values) - 1, 0, [-1] * m
    for col in range(m):
        # With columns 0..col-1 matched, a failed search for col proves that no matching
        # covers 0..col under that entry (Berge), so no perfect one does: the last entry
        # reached is the bottleneck value. Success is monotone in the entry, so step up in
        # doubling strides, then bisect, probing on copies; the top entry admits every pair.
        if _augment(dist <= values[lo], owner, col, set()):
            continue  # a failed search leaves owner as it was
        failed, hi, step = lo, min(lo + 1, top), 2
        while not _augment(dist <= values[hi], list(owner), col, set()):
            failed, hi, step = hi, min(lo + step, top), 2 * step
        while hi - failed > 1:
            mid = (failed + hi) // 2
            if _augment(dist <= values[mid], list(owner), col, set()):
                hi = mid
            else:
                failed = mid
        lo = hi
        _augment(dist <= values[lo], owner, col, set())
    allowed = dist <= values[lo]
    for b in range(m):
        # The row b holds always qualifies. Rows fixed to earlier columns are
        # blocked from b onward, so every allowed row below it is free.
        held = owner.index(b)
        for a in np.flatnonzero(allowed[:held, b]):
            displaced = owner[a]
            owner[a], owner[held] = b, -1
            if _augment(allowed, owner, displaced, {a}):
                break
            owner[a], owner[held] = displaced, b
        allowed[owner.index(b), b + 1:] = False
    perm = np.empty(m, dtype=int)
    perm[owner] = np.arange(m)
    return float(values[lo]), perm


def epsilon_recovery(theta_hat: np.ndarray, theta_star: np.ndarray):
    """Permutation-minimal worst column error.

    Returns (value, perm) where perm[b] names the estimate column matched to
    truth column b and value = max_b ||theta_hat[:, perm[b]] - theta_star[:, b]||.
    Among the permutations attaining the value, perm is the lexicographically
    first; with every distance infinite it is the identity.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_hat.shape != theta_star.shape or theta_hat.ndim != 2:
        raise ValueError(
            f"shape mismatch: estimate {theta_hat.shape} vs truth {theta_star.shape}")
    return _bottleneck_matching(_distance_matrix(theta_hat, theta_star))


def global_ilts(dataset: Dataset, config: GlobalConfig,
                subspace: SubspaceEstimate | None = None,
                truth: GroundTruth | None = None) -> RecoveryReport:
    """Recover all component slots by candidate search plus trimming.

    The first accepting candidate (lowest index) claims a slot; its support
    is removed before the next slot is attempted. Budget exhaustion leaves a
    slot unrecovered and flags the report partial.
    """
    n, d = dataset.n, dataset.d
    if subspace is None:
        subspace = estimate_subspace(dataset, config.m)
    if subspace.d != d:
        raise ValueError("subspace dimension does not match the dataset")
    if config.radius is None:
        radius = default_radius(dataset)
        radius_source = "quantile-default"
    else:
        radius = config.radius
        radius_source = "user"
    epsilon = 0.2 * radius if config.epsilon_net is None else config.epsilon_net

    theta_hat = np.full((d, config.m), np.nan)
    recovered = [False] * config.m
    accepted_counts = [0] * config.m
    candidates_tried = [0] * config.m
    outcomes = []
    working = np.arange(n)
    component_seeds = np.random.SeedSequence(config.seed).spawn(config.m)

    for j in range(config.m):
        tau_j = config.tau_list[j]
        if floor_count(tau_j * working.size) < d:
            continue  # not enough rows left to fit this slot
        min_count = floor_count(tau_j * n)
        seed_j = int(component_seeds[j].generate_state(1)[0])
        candidates = generate_candidates(subspace, radius, epsilon,
                                         config.candidate_budget, seed_j)
        sub = Dataset(X=dataset.X[working], y=dataset.y[working])
        inner = IltsConfig(tau=tau_j, max_rounds=config.ilts_max_rounds,
                           tol=config.ilts_tol, rank_policy="fail")
        for c_idx in range(candidates.shape[0]):
            candidates_tried[j] += 1
            try:
                trace = ilts_run(sub, candidates[c_idx], inner)
            except RankDeficientError:
                outcomes.append((j, c_idx, 0, False, 0))
                continue
            ok, support = accept_component(sub, trace.final, tau_j, config.delta,
                                           min_count=min_count)
            outcomes.append((j, c_idx, trace.rounds_used, bool(ok), int(support.size)))
            if ok:
                theta_hat[:, j] = trace.final
                recovered[j] = True
                accepted_counts[j] = int(support.size)
                working = np.setdiff1d(working, working[support])
                break

    partial = not all(recovered)
    matching = None
    per_errors = None
    eps_value = None
    if truth is not None:
        if truth.theta_star.shape != (d, config.m):
            raise ValueError("truth shape does not match the configured m")
        value, perm = epsilon_recovery(theta_hat, truth.theta_star)
        matching = tuple(int(p) for p in perm)
        per_errors = tuple(
            float(np.linalg.norm(theta_hat[:, perm[b]] - truth.theta_star[:, b]))
            if recovered[perm[b]] else math.inf
            for b in range(config.m))
        eps_value = float(value)

    return RecoveryReport(
        theta_hat=theta_hat,
        recovered=tuple(recovered),
        accepted_counts=tuple(accepted_counts),
        candidates_tried=tuple(candidates_tried),
        partial=partial,
        radius=radius,
        radius_source=radius_source,
        candidate_outcomes=tuple(outcomes),
        matching=matching,
        per_component_errors=per_errors,
        epsilon_recovery=eps_value,
    )


def report_to_dict(report: RecoveryReport) -> dict:
    """JSON-shaped report; unrecovered columns and infinite errors are null."""
    columns = [[float(v) for v in report.theta_hat[:, j]] if recovered else None
               for j, recovered in enumerate(report.recovered)]
    per_errors = None
    if report.per_component_errors is not None:
        per_errors = [None if math.isinf(e) else float(e)
                      for e in report.per_component_errors]
    eps = report.epsilon_recovery
    if eps is not None and math.isinf(eps):
        eps = None
    return {
        "format": "trimfit-recovery",
        "format_version": 1,
        "theta_hat": columns,
        "recovered": list(report.recovered),
        "accepted_counts": list(report.accepted_counts),
        "candidates_tried": list(report.candidates_tried),
        "partial": report.partial,
        "radius": report.radius,
        "radius_source": report.radius_source,
        "matching": None if report.matching is None else list(report.matching),
        "per_component_errors": per_errors,
        "epsilon_recovery": eps,
    }


def write_candidate_csv(report: RecoveryReport, path: str) -> None:
    lines = ["component,candidate,rounds,accepted,support"]
    for comp, cand, rounds, accepted, support in report.candidate_outcomes:
        lines.append(f"{comp},{cand},{rounds},{int(accepted)},{support}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
