"""Iterative least trimmed squares.

The solver alternates two half-steps from a starting point theta_0: select
the floor(tau * n) samples with smallest squared residuals under the current
iterate (ties broken toward the smaller sample index), then solve exact least
squares on the selected set. The trimmed loss a(theta, S), the sum over S of
the squared residuals y - X theta that selected S, never increases across the
alternation, and the iteration stops when the step norm falls to tol or the
selected set repeats (a repeated set makes the next iterate identical, hence
a fixed point).

Both refits, exact and gradient, start from the selected rows' normal system
G = X_S^T X_S, b = X_S^T y_S for k selected rows. The exact refit solves
G theta = b and refines once when G is well conditioned, and otherwise solves
X_S theta = y_S through an orthogonal factorization (see least_squares).

A build costs O(k d^2), but consecutive selections share most rows. So each
run takes every round's (G, b) from one NormalCarry, which applies the gate:
once a build reaches CARRY_MIN_WORK multiply-adds (k d^2), the carry updates
the last round's system by the swapped rows, G += X_in^T X_in - X_out^T X_out
and b likewise, save in the cases NormalCarry lists; below the gate it builds
afresh every round.

Builds, updates and the refinement read their rows in blocks of at most
GATHER_BYTES of X and sum the blocks' products; a selection of one block is
gathered once per round for both. Only the orthogonal fallback gathers X_S whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, GroundTruth, check_truth
from .util import check_finite, check_integer, floor_count

# Relative cutoff under which singular values count as zero when deciding
# rank deficiency.
RANK_RCOND = 1e-10

# least_squares solves the normal equations only when the smallest eigenvalue
# of G = X_S^T X_S exceeds this fraction of the largest, i.e. when
# kappa(X_S)^2 * eps stays below about 1e-8.
GRAM_RCOND = 1e-8

RANK_POLICIES = ("fail", "min-norm")

# A run carries its normal system across rounds only when one build costs at
# least this many multiply-adds, k d^2. Below it the bookkeeping (the row
# weights, once per run; a mask over the n rows and the weight sums, once per
# round) eats most of what the updates save. The break-even measurements are
# in ROADMAP, under "Measurements", "Carry break-even".
CARRY_MIN_WORK = 1e7

# An update multiplies out |in| + |out| rows where a build multiplies out k, but
# it must also gather them, and a gathered entry costs about as much as this
# many multiply-adds. So a round updates only while
# (|in| + |out|) (d + SWAP_GATHER_COST) <= k d: about a fifth of k swapped at
# d = 20 and three fifths at d = 100, the measured break-evens.
SWAP_GATHER_COST = 70

# A refit gathers its rows of X in blocks of at most this many bytes,
# max(1, GATHER_BYTES // 8d) rows each. The bench fit-wide peak resident size
# (n = 30,000, d = 100, k = 12,000; 77.9 MB with X_S gathered whole) by block:
# 256 KiB to 1 MiB 68.3-68.5 MB, the floor that generating X sets; 2 MiB
# 68.6 MB; util.ROW_BLOCK's 4,096 rows (3.1 MiB here) 69.6 MB; 4 MiB 71.6 MB.
# The sums of a selection of more than one block depend on this size.
GATHER_BYTES = 1 << 20


class RankDeficientError(RuntimeError):
    """Selected design matrix is rank deficient under rank_policy='fail'."""


def _check_alternation(config) -> None:
    """Validate the tau, max_rounds and tol fields every solver config shares."""
    # Negated range tests, so that NaN fails them too.
    if not 0 < config.tau <= 1:
        raise ValueError("tau must lie in (0, 1]")
    check_integer(config.max_rounds, "max_rounds", 1)
    if not config.tol >= 0:
        raise ValueError("tol must be nonnegative")


@dataclass(frozen=True)
class IltsConfig:
    tau: float
    max_rounds: int = 50
    tol: float = 1e-10
    rank_policy: str = "fail"

    def __post_init__(self):
        _check_alternation(self)
        if self.rank_policy not in RANK_POLICIES:
            raise ValueError(f"rank_policy must be one of {RANK_POLICIES}")


@dataclass(frozen=True)
class SolverTrace:
    """Complete record of one solver run.

    iterates has rounds_used + 1 rows (theta_0 through the final iterate) and
    step_norms has rounds_used entries. The selected set at iterate t is not
    stored: it is S_t = select_trimmed_set(dataset, iterates[t], k) with
    k = floor(tau * n), and trimmed_losses[t], the sum over S_t of the squared
    residuals that selected it, is trimmed_loss(dataset, iterates[t], S_t).
    dist_to_nearest (distance from each iterate to the nearest true
    component) is present only when ground truth was supplied. inner_steps is
    present only for gradient-descent runs and holds the inner step count
    that produced each post-start iterate.
    """

    iterates: np.ndarray
    trimmed_losses: np.ndarray
    step_norms: np.ndarray
    converged: bool
    dist_to_nearest: np.ndarray | None = None
    inner_steps: tuple | None = None

    @property
    def rounds_used(self) -> int:
        return len(self.step_norms)

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]


def _smallest_k(res2: np.ndarray, k: int) -> np.ndarray:
    """Sorted indices of the k smallest entries: the first k of a stable argsort."""
    kth = np.partition(res2, k - 1)[k - 1]
    if np.isnan(kth):
        # Sorting puts NaN last, but every comparison with NaN is false.
        keep = ~np.isnan(res2)
        tied = np.flatnonzero(~keep)
    else:
        keep = res2 < kth
        tied = np.flatnonzero(res2 == kth)
    keep[tied[:k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def _loss(res: np.ndarray, subset: np.ndarray) -> float:
    """Sum of the squared residuals res takes at subset."""
    r_S = res.take(subset)
    return float(r_S @ r_S)


def _select(dataset: Dataset, theta: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """The k-subset select_trimmed_set returns and its trimmed loss, both taken
    from one residual vector y - X theta."""
    check_finite(theta, "theta")
    res = dataset.y - dataset.X @ theta
    subset = _smallest_k(np.square(res), k)
    return subset, _loss(res, subset)


def select_trimmed_set(dataset: Dataset, theta: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest squared residuals, ties toward smaller index.

    Returned indices are sorted ascending. Selection is exact and O(n): a
    partition finds the k-th smallest squared residual, every index below it
    is kept and the indices tied with it fill up to k, smallest index first.
    Residuals that overflow to inf rank above every finite one; NaN ranks
    above inf. Both tie among themselves by index.
    """
    n = dataset.n
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} must lie in [1, {n}]")
    check_integer(k, "k", 1)
    return _select(dataset, np.asarray(theta, dtype=float), k)[0]


def trimmed_loss(dataset: Dataset, theta: np.ndarray, subset: np.ndarray) -> float:
    """Sum of squared residuals over the given index subset. The residuals are
    computed over all n rows and then taken at subset, as in a solver round."""
    return _loss(dataset.y - dataset.X @ np.asarray(theta, dtype=float), subset)


def _block_sum(dataset: Dataset, subset: np.ndarray, product) -> tuple:
    """The sum over subset's blocks of max(1, GATHER_BYTES // 8d) rows (X_B, y_B), in
    order, of the arrays product(X_B, y_B) returns; an empty subset is one empty block."""
    size, total = max(1, GATHER_BYTES // (8 * dataset.d)), None
    for first in range(0, max(len(subset), 1), size):
        part = subset[first:first + size]
        terms = product(dataset.X.take(part, axis=0), dataset.y.take(part))
        total = terms if total is None else tuple(a + b for a, b in zip(total, terms))
    return total


def _normal(X_B: np.ndarray, y_B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return X_B.T @ X_B, X_B.T @ y_B


class NormalCarry:
    """The unscaled normal system (X_S^T X_S, X_S^T y_S) of one run's selection,
    the one source of every refit's system and the one owner of the gate.

    system(subset) builds afresh, as X_S^T X_S and X_S^T y_S, while k d^2 stays
    below CARRY_MIN_WORK. Above it, it updates the previous call's system by the
    rows that entered and left, G += X_in^T X_in - X_out^T X_out and
    b += X_in^T y_in - X_out^T y_out, and builds afresh in four cases:

    - on the first call above the gate;
    - when (|in| + |out|) (d + SWAP_GATHER_COST) > k d, as updating would cost more;
    - when the rows swapped since the last build outweigh the new selection:
      their summed ||x_i||^2, which bounds their terms in G, or their summed
      ||x_i|| |y_i|, which bounds them in b, exceeds the new selection's. An
      update's rounding error grows with the rows added and removed, so a huge
      row leaving would otherwise leave its rounding error behind;
    - when the update is not finite.

    The row weights are computed on the first update attempt, so a carry below
    the gate costs nothing beyond its builds.
    """

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        self._weights = self._subset = self._member = self._system = None
        self._swapped = (0.0, 0.0)

    def _build(self, X_S: np.ndarray, y_S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _normal(X_S, y_S)

    def _update(self, subset: np.ndarray, member: np.ndarray):
        """The previous system updated to subset, whose rows member marks, or None
        when a build is due."""
        entering = subset[~self._member[subset]]
        leaving = self._subset[~member[self._subset]]
        d = self._dataset.d
        if (len(entering) + len(leaving)) * (d + SWAP_GATHER_COST) > len(subset) * d:
            return None
        X, y = self._dataset.X, self._dataset.y
        if self._weights is None:
            x2 = np.einsum("ij,ij->i", X, X)
            self._weights = (x2, np.sqrt(x2) * np.abs(y))
        swapped = np.concatenate([entering, leaving])
        self._swapped = tuple(acc + w[swapped].sum()
                              for acc, w in zip(self._swapped, self._weights))
        # Negated, so that a NaN weight (an overflowed row) also forces a build.
        if not all(acc <= w[subset].sum() for acc, w in zip(self._swapped, self._weights)):
            return None
        (G_in, b_in), (G_out, b_out) = (_block_sum(self._dataset, part, _normal)
                                        for part in (entering, leaving))
        gram, rhs = self._system
        gram = gram + (G_in - G_out)
        rhs = rhs + (b_in - b_out)
        if np.isfinite(gram).all() and np.isfinite(rhs).all():
            return gram, rhs
        return None

    def system(self, subset: np.ndarray, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """(X_S^T X_S, X_S^T y_S) for subset; rows is (X_S, y_S) when the caller has
        already gathered it, used only by a fresh build, which otherwise sums
        _build over the blocks of _block_sum."""
        if len(subset) == 0:
            raise ValueError("empty selection")
        member = system = None
        with np.errstate(over="ignore", invalid="ignore"):
            if len(subset) * self._dataset.d ** 2 >= CARRY_MIN_WORK:
                member = np.zeros(self._dataset.n, dtype=bool)
                member[subset] = True
                if self._member is not None:
                    system = self._update(subset, member)
            if system is None:
                system = (self._build(*rows) if rows is not None
                          else _block_sum(self._dataset, subset, self._build))
                self._swapped = (0.0, 0.0)
        self._subset, self._member, self._system = subset, member, system
        return system


def normal_system(dataset: Dataset, subset: np.ndarray,
                  carry: NormalCarry | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Mean normal system (X_S^T X_S / |S|, X_S^T y_S / |S|) of the selected rows:
    carry's system for subset (a fresh NormalCarry's when None) divided by |S|."""
    gram, rhs = (carry or NormalCarry(dataset)).system(subset)
    return gram / len(subset), rhs / len(subset)


def least_squares(dataset: Dataset, subset: np.ndarray, rank_policy: str = "fail",
                  carry: NormalCarry | None = None) -> np.ndarray:
    """Exact least squares on the selected rows.

    When the normal system G = X_S^T X_S, b = X_S^T y_S is finite and G's
    eigenvalues satisfy lambda_min > GRAM_RCOND * lambda_max, G theta = b is
    solved and refined once, theta += G^-1 X_S^T (y_S - X_S theta). One
    refinement step recovers the accuracy of an orthogonal solve while
    kappa(X_S)^2 * eps << 1 (Bjorck 1996, sec. 2.9). The rule implies
    sigma_min / sigma_max > 1e-4, so no selection it admits is rank deficient.

    Every other selection (rank deficient, ill conditioned, overflowing or
    all zero) is solved through an orthogonal factorization: under
    rank_policy='fail' a rank-deficient one raises, and under 'min-norm' the
    minimum-norm solution is returned, with singular values below RANK_RCOND
    times the largest treated as zero.

    (G, b) comes from carry, the run's NormalCarry (a fresh one when None), which
    applies the CARRY_MIN_WORK gate. The refinement sums X_B^T (y_B - X_B theta)
    over the blocks the build reads; only the fallback gathers X_S whole.
    """
    if rank_policy not in RANK_POLICIES:
        raise ValueError(f"rank_policy must be one of {RANK_POLICIES}")
    one_block = 8 * dataset.d * len(subset) <= GATHER_BYTES
    rows = (dataset.X.take(subset, axis=0), dataset.y.take(subset)) if one_block else None
    gram, rhs = (carry or NormalCarry(dataset)).system(subset, rows)
    if np.isfinite(gram).all() and np.isfinite(rhs).all():
        eig = np.linalg.eigvalsh(gram)
        if eig[0] > GRAM_RCOND * eig[-1]:
            theta = np.linalg.solve(gram, rhs)
            def correction(X_B, y_B):
                return (X_B.T @ (y_B - X_B @ theta),)
            step, = correction(*rows) if rows else _block_sum(dataset, subset, correction)
            return theta + np.linalg.solve(gram, step)
    X_S, y_S = rows or (dataset.X.take(subset, axis=0), dataset.y.take(subset))
    theta, _, rank, _ = np.linalg.lstsq(X_S, y_S, rcond=RANK_RCOND)
    if rank < dataset.d and rank_policy == "fail":
        raise RankDeficientError(
            f"selected design has rank {rank} < d = {dataset.d}")
    return theta


def start_vector(theta0, d: int) -> np.ndarray:
    """theta0 as a float array, checked to hold d finite entries."""
    theta = np.asarray(theta0, dtype=float)
    if theta.shape != (d,):
        raise ValueError(f"theta0 has {theta.size} entries, expected d = {d}")
    check_finite(theta, "theta0")
    return theta


def _alternate(dataset: Dataset, theta0: np.ndarray, config, refit,
               stop_on_same_set: bool, truth: GroundTruth | None = None) -> SolverTrace:
    """The trimmed alternation shared by the exact and gradient variants.

    Each round refits with refit(theta, subset, carry) on the current selection
    and then reselects the k = selection_size(...) smallest residuals; carry is
    the run's NormalCarry. The run stops once the step norm falls to config.tol
    or, when stop_on_same_set holds, the selection repeats.
    """
    k = selection_size(config, dataset.n, dataset.d)
    theta = start_vector(theta0, dataset.d)
    if truth is not None:
        check_truth(dataset, truth)
    carry = NormalCarry(dataset)

    iterates = [theta.copy()]
    subset, loss = _select(dataset, theta, k)
    losses = [loss]
    steps: list[float] = []
    converged = False

    for _ in range(config.max_rounds):
        theta_next = refit(theta, subset, carry)
        step = float(np.linalg.norm(theta_next - theta))
        subset_next, loss = _select(dataset, theta_next, k)
        iterates.append(theta_next)
        losses.append(loss)
        steps.append(step)
        same_set = stop_on_same_set and np.array_equal(subset_next, subset)
        theta, subset = theta_next, subset_next
        if step <= config.tol or same_set:
            converged = True
            break

    iterates = np.array(iterates)
    dists = None
    if truth is not None:
        dists = np.min(np.linalg.norm(truth.theta_star - iterates[:, :, None], axis=1), axis=1)
    return SolverTrace(
        iterates=iterates,
        trimmed_losses=np.array(losses),
        step_norms=np.array(steps),
        converged=converged,
        dist_to_nearest=dists,
    )


def selection_size(config, n: int, d: int) -> int:
    """floor(tau * n) for an exact or gradient config. Zero is rejected, and so is
    a count below d under rank_policy='fail', as rank deficient."""
    k = floor_count(config.tau * n)
    if k < 1:
        raise ValueError(f"floor(tau * n) = {k}; no samples would be selected")
    if getattr(config, "rank_policy", None) == "fail" and k < d:
        raise ValueError(
            f"floor(tau * n) = {k} < d = {d} cannot be solved under rank_policy='fail'")
    return k


def ilts_run(dataset: Dataset, theta0: np.ndarray, config: IltsConfig,
             truth: GroundTruth | None = None) -> SolverTrace:
    """Run the trimmed alternation from theta0 with exact least-squares refits."""
    def refit(theta, subset, carry):
        return least_squares(dataset, subset, config.rank_policy, carry)

    return _alternate(dataset, theta0, config, refit, True, truth)


def contraction_ratio(trace: SolverTrace, truth: GroundTruth, j: int) -> list[float]:
    """Per-round distance ratios to component j.

    Entry t is dist(theta_{t+1}) / dist(theta_t); rounds whose denominator
    falls below 1e-14 are omitted. Fewer than two iterates give [].
    """
    if not 0 <= j < truth.m:
        raise ValueError(f"component index {j} out of range")
    check_integer(j, "j", 0)
    target = truth.theta_star[:, j]
    dists = np.linalg.norm(trace.iterates - target, axis=1)
    ratios = []
    for t in range(len(dists) - 1):
        if dists[t] >= 1e-14:
            ratios.append(float(dists[t + 1] / dists[t]))
    return ratios
