"""Global recovery of all mixture components.

The pipeline estimates the span of the component matrix from the d x d Gram
of the moment rows y_i * x_i, estimates the components in that span from the
third moments, draws more starts uniformly from a sphere inside it, and
screens each kind in blocks as FAST-LTS does: a few rounds of the trimmed
alternation from every start, then the alternation to the end from the few
unfinished ones with the lowest trimmed loss. A start is tested the moment
it finishes, and is accepted for component j once enough samples fall below
the residual acceptance threshold; its support is then removed and the
search moves to the next component. Exhausting the candidate budget for a
slot flags a partial result instead of raising.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .ilts import RANK_RCOND, IltsConfig, RankDeficientError, ilts_run
from .model import Dataset, GroundTruth, check_truth
from .util import ROW_BLOCK, as_readonly, check_finite, check_integer, floor_count, row_blocks

# Entrywise orthonormality tolerance for stored bases.
_BASIS_TOL = 1e-10
# Orthonormality tolerance accepted on comparison inputs.
_COMPARE_TOL = 1e-8

# global_ilts screens each slot's candidates as FAST-LTS does (Rousseeuw & Van
# Driessen 2006): every start of a block of SCREEN_BLOCK runs SCREEN_ROUNDS rounds,
# and only the SCREEN_KEEP unfinished ones with the lowest trimmed loss run on to
# max_rounds, from where they stopped. Below CARRY_MIN_WORK (trimfit.ilts) that
# continuation is bit-identical to one uninterrupted run, since each round builds
# its system afresh. On the ROADMAP stress recipe, seeds 0-9, screening recovered
# every slot the sequential search did with 51-58% fewer rounds, in 1.8-2.8x less
# time; on the bench `sweep` reject call, seeds 0-2, it ran 398, 405 and 377 rounds
# per pass where the sequential search ran 672, 683 and 643, and with the tensor starts
# 181, 219 and 196. The table is in ROADMAP, under "Measurements", "Candidate screening".
SCREEN_BLOCK = 8
SCREEN_ROUNDS = 2
SCREEN_KEEP = 3

# tensor_starts runs the tensor power method with TENSOR_RESTARTS restarts of TENSOR_ITERATIONS
# iterations for each vector it finds, the setting measured in ROADMAP "Moment-tensor starts".
TENSOR_RESTARTS = 10
TENSOR_ITERATIONS = 30


@dataclass(frozen=True)
class SubspaceEstimate:
    """Orthonormal basis of the estimated component span."""

    basis: np.ndarray

    def __post_init__(self):
        basis = as_readonly(np.asarray(self.basis, dtype=float))
        if basis.ndim != 2:
            raise ValueError("basis must be d x m_tilde")
        d, m_tilde = basis.shape
        if not 1 <= m_tilde <= d:
            raise ValueError("basis must have between 1 and d columns")
        check_finite(basis, "basis")
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(m_tilde))) > _BASIS_TOL:
            raise ValueError("basis columns are not orthonormal")
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

    A one-entry tau_list gives every component that fraction. plan_search
    resolves the rest for a run: delta = None sets the acceptance threshold
    to default_delta(n) of the dataset, radius = None moves each net start to
    the response-matched scale of default_radius, and the report flags both
    defaults; epsilon_net = None sets the net granularity to 0.2 times the
    radius. Slot j's candidate_budget starts are the tensor starts, seeded
    by SeedSequence child m of seed, then the net's draws from child j. The
    trimmed alternation inside the candidate loop runs with ilts_max_rounds
    and ilts_tol.
    """

    m: int
    tau_list: tuple
    candidate_budget: int
    seed: int
    delta: float | None = None
    radius: float | None = None
    epsilon_net: float | None = None
    ilts_max_rounds: int = 30
    ilts_tol: float = 1e-11

    def __post_init__(self):
        for name in ("m", "candidate_budget", "ilts_max_rounds"):
            check_integer(getattr(self, name), name, 1)
        check_integer(self.seed, "seed", 0)
        # Negated range tests, so that NaN fails them too.
        taus = tuple(float(t) for t in self.tau_list)
        if len(taus) == 1:
            taus *= self.m
        if len(taus) != self.m:
            raise ValueError("tau_list must carry one fraction per component")
        if any(not 0 < t <= 1 for t in taus):
            raise ValueError("tau_list entries must lie in (0, 1]")
        if self.delta is not None and not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if self.epsilon_net is not None and not 0 < self.epsilon_net < math.inf:
            raise ValueError("epsilon_net must be positive and finite when given")
        if self.radius is not None and not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite when given")
        if not self.ilts_tol >= 0:
            raise ValueError("ilts_tol must be nonnegative")
        object.__setattr__(self, "tau_list", taus)


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one global recovery run.

    theta_hat holds one column per component slot with NaN columns for
    unrecovered slots. candidate_outcomes rows are
    (component, candidate, rounds, accepted, support_size), one per start
    that ran, in index order (see global_ilts): accepted is True only for the
    start that claimed the slot, and rounds and support_size describe the
    start's last iterate, 0 for a rank-deficient start. recovered,
    accepted_counts, candidates_tried and partial are read-only tallies of
    these rows, so a slot skipped for lack of rows tallies 0. radius, delta
    and their sources are plan_search's. matching, per_component_errors and
    epsilon_recovery are present only when ground truth was supplied;
    unrecovered slots contribute infinite errors.
    """

    theta_hat: np.ndarray
    radius: float
    radius_source: str
    delta: float
    delta_source: str
    candidate_outcomes: tuple
    matching: tuple | None = None
    per_component_errors: tuple | None = None
    epsilon_recovery: float | None = None

    @property
    def accepted_counts(self) -> tuple:
        won = {row[0]: row[4] for row in self.candidate_outcomes if row[3]}
        return tuple(won.get(j, 0) for j in range(self.theta_hat.shape[1]))

    @property
    def recovered(self) -> tuple:
        won = {row[0] for row in self.candidate_outcomes if row[3]}
        return tuple(j in won for j in range(self.theta_hat.shape[1]))

    @property
    def candidates_tried(self) -> tuple:
        tried = Counter(row[0] for row in self.candidate_outcomes)
        return tuple(tried[j] for j in range(self.theta_hat.shape[1]))

    @property
    def partial(self) -> bool:
        return not all(self.recovered)


def _exact_gram(X: np.ndarray, rows_of, width: int) -> tuple[np.ndarray, int]:
    """(G, e) with G 2**(2 e) = sum_i (r_i 2**s_i)(r_i 2**s_i)^T over blocks of ROW_BLOCK rows of
    X, each passed to rows_of(rows, xs, fx, ex) as xs = X[rows] 2**-ex, for fx 2**ex each row's
    largest |x_ij|, in one reused buffer. rows_of returns the rows r_i, width wide, with their
    exponents s_i and largest |r_ij|. They are summed at the e that puts the largest |r_ij| 2**s_i
    so far in [0.5, 1), the sum rescaled when e moves: exact, and no square overflows."""
    n, d = X.shape
    gram, block = np.zeros((width, width)), np.empty((min(ROW_BLOCK, n), d))
    e = -(1 << 16)  # below the exponent of any nonzero row
    for rows in row_blocks(n):
        x, xs = X[rows], block[:n - rows.start]
        # max_j |x_ij| by one reduceat: a max along axis 1 takes 2-3x as long on short rows.
        fx, ex = np.frexp(np.maximum.reduceat(np.abs(x, out=xs).ravel(), np.arange(0, x.size, d)))
        r, s, peak = rows_of(rows, np.ldexp(x, -ex[:, None], out=xs), fx, ex)
        top = int(np.max(s + np.frexp(peak)[1], initial=e, where=peak != 0))
        gram, e = np.ldexp(gram, 2 * (e - top)), top
        gram += np.ldexp(r, (s - e)[:, None], out=r).T @ r  # a zero row stays zero
    return gram, e


def estimate_subspace(dataset: Dataset, m: int) -> SubspaceEstimate:
    """Top-m right-singular basis of the moment rows y_i * x_i, taken as the top-m eigenvectors
    of their Gram sum_i y_i^2 x_i x_i^T (Yi, Caramanis & Sanghavi 2014), which _exact_gram sums
    from the rows x_i 2**-ex_i frac(y_i) at the exponent ex_i + ey_i of their largest |x_ij|
    and of y_i. Measured bases differed from their SVD's by at most 1.9e-13 per entry. Each
    column's largest-magnitude entry is made positive."""
    def moment_rows(rows, xs, fx, ex):
        fy, ey = np.frexp(dataset.y[rows])
        xs *= fy[:, None]
        return xs, ex + ey, fx * np.abs(fy)
    check_integer(m, "m")
    if not 1 <= m <= min(dataset.n, dataset.d):
        raise ValueError(f"m = {m} must lie in [1, min(n, d) = {min(dataset.n, dataset.d)}]")
    gram = _exact_gram(dataset.X, moment_rows, dataset.d)[0]
    if not np.any(gram):
        raise ValueError("all moment rows are zero (is y identically zero?)")
    try:
        basis = np.linalg.eigh(gram)[1][:, ::-1][:, :m].copy()
    except np.linalg.LinAlgError as err:
        raise ValueError(f"estimate_subspace: eigh of the moment Gram failed: {err}") from None
    basis *= np.sign(basis[np.argmax(np.abs(basis), axis=0), range(m)])
    return SubspaceEstimate(basis=basis)


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
    check_integer(budget, "budget", 1)
    check_integer(seed, "seed", 0)
    if not 0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
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
    z = np.random.default_rng(seed).standard_normal((count, m_tilde))
    return radius * (z / np.linalg.norm(z, axis=1, keepdims=True)) @ basis.T


def default_radius(dataset: Dataset, subspace: SubspaceEstimate) -> tuple[float, np.ndarray]:
    """(radius, L) of the response-matched starts in subspace's span: L L^T is the Gram of X B
    scaled to trace m_tilde, and the start along the unit direction u = B w lies at radius /
    ||L^T w|| = sqrt(sum y_i^2 / sum (x_i^T u)^2). _exact_gram sums the Gram of the rows
    (x_i 2**-ex_i) B at ex_i; sum y_i^2 runs by the same blocks, y scaled by max|y_i|'s exponent."""
    def projected_rows(rows, xs, fx, ex):
        xb = xs @ subspace.basis
        # max_j |xb_ij| column by column: a max along axis 1 is 10x slower at this width.
        return xb, ex, functools.reduce(np.maximum, np.abs(xb).T)
    m_tilde = subspace.m_tilde
    gram, e = _exact_gram(dataset.X, projected_rows, m_tilde)
    ey = int(np.frexp(max(dataset.y.max(), -dataset.y.min()))[1])
    yy = sum(float(np.square(np.ldexp(dataset.y[rows], -ey)).sum())
             for rows in row_blocks(dataset.n))
    trace = float(np.trace(gram))
    try:
        factor = np.linalg.cholesky(gram * (m_tilde / trace))
    except (ZeroDivisionError, np.linalg.LinAlgError):
        raise ValueError("default_radius: X vanishes along a direction of the candidate span; "
                         "give radius") from None
    with np.errstate(over="ignore"):  # an overflow fails below, by name
        radius = float(np.ldexp(math.sqrt(m_tilde * yy / trace), ey - e))
    if not 0 < radius < math.inf:
        raise ValueError(f"default_radius: the response-matched radius is {radius} (y is zero, "
                         "or out of a double's range from X); give radius")
    return radius, factor


def tensor_starts(dataset: Dataset, subspace: SubspaceEstimate, seed) -> np.ndarray:
    """Third-moment estimates of the components in subspace's span, one row each, largest |lambda|
    first (Yi, Caramanis & Sanghavi 2016). In z = B^T x, with X and y scaled by powers of two, it
    forms C = mean(z z^T), M2 = mean(y^2 z z^T) - mean(y^2) C and T = mean(y^3 z⊗z⊗z) -
    sym(mean(y^3 z) ⊗ C), whitens T by M2 = U S U^T on its eigenvalues above RANK_RCOND times the
    largest and decomposes it by the tensor power method with deflation, its restarts drawn from
    default_rng(seed). Each (lambda, v) maps back to B C^-1 U S^1/2 v lambda / 3. Non-finite starts
    are dropped; a singular C or an M2 with no positive eigenvalue gives none."""
    X, y, basis, mt = dataset.X, dataset.y, subspace.basis, subspace.m_tilde
    ex, ey = (int(np.frexp(max(a.max(), -a.min()))[1]) for a in (X, y))
    low, third = 0.0, np.zeros((mt, mt, mt))  # sums of [y^2; z; y^2 z; y^3 z][1; z]^T, y^3 z⊗z⊗z
    for rows in row_blocks(dataset.n):  # one sample per column
        z, ys = basis.T @ np.ldexp(X[rows], -ex).T, np.ldexp(y[rows], -ey)
        yz = ys * ys * z
        low = low + np.vstack([ys * ys, z, yz, ys * yz]) @ np.vstack([np.ones_like(ys), z]).T
        for a, w in enumerate(ys * yz):  # one slice at a time: no temporary wider than z
            third[a] += w * z @ z.T
    low, third = low / dataset.n, third / dataset.n
    cov = low[1:mt + 1, 1:]
    sym = low[2 * mt + 1:, 0, None, None] * cov
    third -= sym + sym.transpose(1, 0, 2) + sym.transpose(1, 2, 0)
    s, u = np.linalg.eigh(low[mt + 1:2 * mt + 1, 1:] - low[0, 0] * cov)
    keep = s > s[-1] * RANK_RCOND  # none when no eigenvalue is positive
    s, u = s[keep], u[:, keep]
    k, white, rng = s.size, u / np.sqrt(s), np.random.default_rng(seed)
    flat = white.T @ (white.T @ third.reshape(mt, -1)).reshape(k, mt, mt) @ white
    flat = flat.reshape(k, k * k)
    lams, vecs = np.empty(k), np.empty((k, k))
    with np.errstate(all="ignore"):  # a vanishing or overflowing start is dropped below
        for i in range(k):  # all restarts in one product per iteration
            v = rng.standard_normal((k, TENSOR_RESTARTS))
            for _ in range(TENSOR_ITERATIONS):
                v = flat @ (v[:, None] * v[None]).reshape(k * k, -1)
                v /= np.sqrt((v * v).sum(0))
            lam = (v * (flat @ (v[:, None] * v[None]).reshape(k * k, -1))).sum(0)
            best = np.argmax(np.abs(lam))
            lams[i], vecs[:, i] = lam[best], v[:, best]
            flat -= lams[i] * np.outer(vecs[:, i], np.outer(vecs[:, i], vecs[:, i]))
        try:
            found = np.ldexp(basis @ np.linalg.solve(cov, u * np.sqrt(s) @ vecs * lams / 3),
                             ey - ex).T[np.argsort(-np.abs(lams), kind="stable")]
        except np.linalg.LinAlgError:
            return np.empty((0, dataset.d))
    return found[np.all(np.isfinite(found), axis=1)]


def default_delta(n: int) -> float:
    """10 * 1e-6 * sqrt(log n), the residual acceptance threshold for n samples
    when GlobalConfig.delta is None."""
    check_integer(n, "n", 1)
    value = 10.0 * 1e-6 * math.sqrt(math.log(n))
    if not value > 0:
        raise ValueError(f"the log-n default delta is zero at n = {n}; give delta")
    return value


def accept_component(dataset: Dataset, theta: np.ndarray, delta: float, need: int):
    """Threshold acceptance test.

    Returns (accepted, support) where support holds every index with squared
    residual strictly below delta**2 and accepted is True when the support
    holds at least need rows; need must be at least 1, since 0 would accept
    an empty support.
    """
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    check_integer(need, "need", 1)
    theta = np.asarray(theta, dtype=float)
    check_finite(theta, "theta")
    res2 = np.square(dataset.y - dataset.X @ theta)
    support = np.flatnonzero(res2 < delta * delta)
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


def _matching_size(allowed: np.ndarray) -> int:
    """Most allowed pairs sharing no row or column: one Kuhn pass over the columns."""
    owner = [-1] * allowed.shape[0]
    return sum(_augment(allowed, owner, col, set()) for col in range(allowed.shape[1]))


def _bottleneck_matching(dist: np.ndarray):
    """Lexicographically first permutation holding the most finite pairs and, among
    those, the smallest largest finite pair (bisect and check, Garfinkel 1971).

    r, the most finite pairs, is the size of a maximum matching of the finite entries.
    Bisection over the distinct finite entries finds v, the smallest under which r
    pairs remain. Truth column b then takes, in order, the smallest free row a whose
    pair is at most v or infinite and whose removal leaves the free rows and the later
    columns a matching of the finite pairs still due. Every probe and check is a fresh
    maximum matching. The value returned is v, or infinite when r < m.
    """
    m = dist.shape[0]
    finite = np.isfinite(dist)
    due = _matching_size(finite)
    values = np.unique(dist[finite])
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _matching_size(dist <= values[mid]) == due:
            hi = mid
        else:
            lo = mid + 1
    value = float(values[lo]) if due == m else math.inf
    allowed = dist <= values[lo] if values.size else finite  # no finite entry: none allowed
    free, perm = list(range(m)), []
    for b in range(m):
        for a in free:
            rest = [row for row in free if row != a]
            if ((allowed[a, b] or not finite[a, b])
                    and _matching_size(allowed[rest, b + 1:]) == due - int(allowed[a, b])):
                break
        due -= int(allowed[a, b])
        perm.append(a)
        free.remove(a)
    return value, np.array(perm)


def epsilon_recovery(theta_hat: np.ndarray, theta_star: np.ndarray):
    """Permutation-minimal worst column error.

    Returns (value, perm) where perm[b] names the estimate column matched to
    truth column b and value = max_b ||theta_hat[:, perm[b]] - theta_star[:, b]||.
    perm pairs as many columns at finite distance as any permutation does (a
    partial recovery leaves the unrecovered estimate columns infinitely far),
    keeps the largest of those finite distances smallest, and is the
    lexicographically first such permutation; with every distance infinite it
    is the identity.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_star = np.asarray(theta_star, dtype=float)
    if theta_hat.shape != theta_star.shape or theta_hat.ndim != 2:
        raise ValueError(
            f"shape mismatch: estimate {theta_hat.shape} vs truth {theta_star.shape}")
    return _bottleneck_matching(_distance_matrix(theta_hat, theta_star))


def plan_search(dataset: Dataset, config: GlobalConfig,
                subspace: SubspaceEstimate | None = None, truth: GroundTruth | None = None):
    """What a global run searches, as (settings, ahead, starts). settings
    holds radius and delta with their sources, GlobalConfig's defaults
    applied. ahead holds at most candidate_budget - 1 tensor starts, from
    one tensor_starts call with SeedSequence child m of the seed. starts(j)
    returns ahead, then slot j's net drawn from child j when the search
    reaches slot j, at default_radius's scales if any: candidate_budget rows."""
    if truth is not None:
        check_truth(dataset, truth)
        if truth.m != config.m:
            raise ValueError("truth shape does not match the configured m")
    if subspace is None:
        subspace = estimate_subspace(dataset, config.m)
    if subspace.d != dataset.d:
        raise ValueError("subspace dimension does not match the dataset")
    if config.radius is None:
        (radius, factor), radius_source = default_radius(dataset, subspace), "response-matched"
    else:
        radius, factor, radius_source = config.radius, None, "user"
    epsilon = 0.2 * radius if config.epsilon_net is None else config.epsilon_net
    if config.delta is None:
        delta, delta_source = default_delta(dataset.n), "log-n-default"
    else:
        delta, delta_source = config.delta, "user"
    seeds = np.random.SeedSequence(config.seed).spawn(config.m + 1)
    ahead = tensor_starts(dataset, subspace, seeds[config.m])[:config.candidate_budget - 1]

    def starts(j):
        drawn = generate_candidates(subspace, radius, epsilon, config.candidate_budget,
                                    int(seeds[j].generate_state(1)[0]))
        if factor is not None:  # start u to length radius / ||L^T w||, for w = B^T u / radius
            drawn /= np.linalg.norm(drawn @ subspace.basis / radius @ factor, axis=1)[:, None]
        return np.vstack([ahead, drawn])[:config.candidate_budget]
    return dict(radius=radius, radius_source=radius_source, delta=delta,
                delta_source=delta_source), ahead, starts


def recovery_report(theta_hat: np.ndarray, outcomes: list, settings: dict,
                    truth: GroundTruth | None = None) -> RecoveryReport:
    """The report of a finished search, scored against truth when it is given."""
    report = RecoveryReport(theta_hat, candidate_outcomes=tuple(outcomes), **settings)
    if truth is None:
        return report
    value, perm = epsilon_recovery(theta_hat, truth.theta_star)
    recovered = report.recovered
    errors = tuple(float(np.linalg.norm(theta_hat[:, a] - truth.theta_star[:, b]))
                   if recovered[a] else math.inf for b, a in enumerate(perm))
    return replace(report, matching=tuple(int(a) for a in perm), per_component_errors=errors,
                   epsilon_recovery=float(value))


def global_ilts(dataset: Dataset, config: GlobalConfig,
                subspace: SubspaceEstimate | None = None,
                truth: GroundTruth | None = None) -> RecoveryReport:
    """Recover all component slots by screened candidate search plus trimming.

    A slot's candidates are plan_search's tensor starts, then its net draws,
    each kind screened in blocks of SCREEN_BLOCK of its own over two rungs:
    SCREEN_ROUNDS rounds, then ilts_max_rounds. A slot skips the tensor
    starts when they last ran at its tau and no slot was claimed since. At
    each rung every running start runs on from its last iterate to the rung's
    round count in all, in index order. A start finishes when it converges or
    reaches ilts_max_rounds, and is then tested for acceptance at once; the
    first that passes claims the slot and ends the block. After the first
    rung the SCREEN_KEEP unfinished starts with the lowest trimmed loss (ties
    to the lower index) run on; the next block runs only while the slot is
    unclaimed. A start left unfinished, screened out or behind the claim,
    keeps the rounds and the support of its last iterate. The claimed support
    is removed before the next slot is attempted. Budget exhaustion leaves a
    slot unrecovered and flags the report partial.

    Until a slot is claimed the search runs on dataset itself; after that it
    holds one copy of the unclaimed rows. Each refit reads its selected rows
    in blocks of at most ilts.GATHER_BYTES besides.
    """
    settings, ahead, starts = plan_search(dataset, config, subspace, truth)
    n, d, delta = dataset.n, dataset.d, settings["delta"]
    theta_hat = np.full((d, config.m), np.nan)
    outcomes = []
    working = np.arange(n)
    ran_at = None  # the tau the tensor starts last ran at on the rows left

    for j in range(config.m):
        tau_j = config.tau_list[j]
        if floor_count(tau_j * working.size) < d:
            continue  # not enough rows left to fit this slot
        need = floor_count(tau_j * n)
        candidates = starts(j)
        if working.size == n:
            sub = dataset
        else:
            X_sub, y_sub = dataset.X[working], dataset.y[working]
            X_sub.setflags(write=False)  # a fresh copy: Dataset keeps it rather than copy again
            y_sub.setflags(write=False)
            sub = Dataset(X=X_sub, y=y_sub)
        inner = IltsConfig(tau=tau_j, max_rounds=config.ilts_max_rounds,
                           tol=config.ilts_tol, rank_policy="fail")
        # (rounds, keep): run on to `rounds` in all, then the `keep` lowest-loss unfinished go on.
        rungs = ((min(SCREEN_ROUNDS, inner.max_rounds), SCREEN_KEEP), (inner.max_rounds, 0))
        k, total = len(ahead), candidates.shape[0]
        ends = [*range(k if tau_j == ran_at else 0, k, SCREEN_BLOCK),
                *range(k, total, SCREEN_BLOCK), total]
        ran_at = tau_j

        for first, stop in zip(ends, ends[1:]):
            running = range(first, stop)
            rows, last, claim = [], {}, None  # last: unfinished start -> (theta, rounds, loss)
            for target, keep in rungs:
                for c_idx in running:
                    theta, done, _ = last.pop(c_idx, (candidates[c_idx], 0, None))
                    try:
                        trace = ilts_run(sub, theta, replace(inner, max_rounds=target - done))
                    except RankDeficientError:
                        rows.append((j, c_idx, 0, False, 0))
                        continue
                    rounds = done + trace.rounds_used
                    if not trace.converged and rounds < inner.max_rounds:
                        last[c_idx] = trace.final, rounds, trace.trimmed_losses[-1]
                        continue
                    ok, support = accept_component(sub, trace.final, delta, need)
                    rows.append((j, c_idx, rounds, bool(ok), int(support.size)))
                    if ok:
                        claim = trace.final, support
                        break
                if claim is not None:
                    break
                alive = [c_idx for c_idx in running if c_idx in last]
                losses = [last[c_idx][2] for c_idx in alive]
                running = sorted(alive[i] for i in np.argsort(losses, kind="stable")[:keep])
            # A start left unfinished, screened out or behind the claim, ends where it stopped.
            for c_idx, (theta, rounds, _) in last.items():
                _, support = accept_component(sub, theta, delta, need)
                rows.append((j, c_idx, rounds, False, int(support.size)))
            outcomes.extend(sorted(rows))
            if claim is not None:
                theta_hat[:, j] = claim[0]
                working = np.delete(working, claim[1])
                ran_at = None
                break

    return recovery_report(theta_hat, outcomes, settings, truth)
