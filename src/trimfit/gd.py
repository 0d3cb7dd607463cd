"""Gradient-descent variant of the trimmed alternation.

Each outer round keeps the trimmed selection rule but replaces the exact
least-squares solve with a fixed number of plain gradient steps on the mean
squared loss of the selected rows. The per-round step count either stays
constant or follows an adaptive rule that takes more inner steps as the
outer iterate stops moving.

A round starts from the mean normal system G = X_S^T X_S / |S|,
b = X_S^T y_S / |S| of its k selected rows, which normal_system takes from the
run's carry; trimfit.ilts says when that system is built and when updated.
Power iteration and each step theta - eta (G theta - b) then cost O(d^2),
whatever k is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ilts import SolverTrace, _alternate, _check_alternation, normal_system
from .model import Dataset, GroundTruth
from .util import check_finite, check_integer

SCHEDULES = ("fixed", "adaptive")

# Power-iteration budget for the default step size 1 / L_hat, where L_hat
# estimates the largest eigenvalue of the selected rows' mean Gram matrix.
POWER_ITERATIONS = 20


class DivergenceError(RuntimeError):
    """Inner gradient loop left the trust region."""


@dataclass(frozen=True)
class GdConfig:
    """Configuration for the gradient-descent variant.

    eta = None selects the step size 1 / L_hat per round via power iteration.
    schedule 'fixed' runs m_steps inner steps every round; 'adaptive' derives
    the count from the relative outer movement with weight w and scale c_u.
    """

    tau: float
    eta: float | None = None
    schedule: str = "fixed"
    m_steps: int = 100
    w: float = 10.0
    c_u: float = 1.0
    max_rounds: int = 50
    tol: float = 1e-10

    def __post_init__(self):
        _check_alternation(self)
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}")
        check_integer(self.m_steps, "m_steps", 1)
        # Negated range tests, so that NaN fails them too.
        for name in ("eta", "w", "c_u"):
            value = getattr(self, name)
            if not (value is None and name == "eta" or 0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite")


def stopping_steps(lam: float, w: float, c_u: float = 1.0) -> int:
    """Inner step count u = max(1, ceil(c_u * ln(w / (lam * ln(1 / lam))))).

    lam must lie strictly inside (0, 1), and the count must be finite. It is
    nonincreasing in lam on (0, 1/e): a smaller relative error buys more steps.
    """
    if not 0 < lam < 1:
        raise ValueError("lam must lie strictly in (0, 1)")
    if not (0 < w < math.inf and 0 < c_u < math.inf):
        raise ValueError("w and c_u must be positive and finite")
    # A subnormal lam overflows 1 / lam, which would leave ln(w / inf) undefined.
    scale = lam * math.log(1.0 / lam)
    if not 0 < scale < math.inf:
        raise ValueError(f"lam = {lam} gives lam * ln(1 / lam) = {scale}, not positive "
                         "and finite")
    steps = c_u * math.log(w / scale)
    if not math.isfinite(steps):
        raise ValueError(f"w = {w} and c_u = {c_u} give a non-finite inner step count")
    return max(1, math.ceil(steps))


def largest_curvature(gram: np.ndarray) -> float:
    """Estimate of the top eigenvalue of a mean Gram matrix G by POWER_ITERATIONS
    steps of power iteration."""
    # Dividing G v by a power of two near G's largest entry is exact, and keeps its
    # norm from overflowing while G is finite.
    scale = math.ldexp(1.0, int(np.frexp(np.abs(gram).max())[1]) - 1)
    v = np.ones(gram.shape[0]) / math.sqrt(gram.shape[0])
    est = 0.0
    for _ in range(POWER_ITERATIONS):
        w = gram @ v / scale
        est = float(np.linalg.norm(w))
        # v has no zero entry, so an inf or NaN anywhere in G shows here at once.
        if not math.isfinite(est * scale):
            raise ValueError("curvature estimate overflowed; rescale the features")
        if est == 0.0:
            raise ValueError("selected rows are all zero; curvature undefined")
        v = w / est
    return est * scale


def gd_inner_loop(gram: np.ndarray, rhs: np.ndarray, theta_start: np.ndarray,
                  eta: float, m_steps: int) -> np.ndarray:
    """Run m_steps gradient steps theta - eta (G theta - b) on the mean squared loss whose
    normal system (G, b) = (gram, rhs) comes from normal_system. DivergenceError ends the
    loop once the iterate norm exceeds 1e8 * (1 + ||theta_start||) or is NaN."""
    check_integer(m_steps, "m_steps", 1)
    if not 0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    theta = np.asarray(theta_start, dtype=float).copy()
    check_finite(theta, "theta_start")
    limit = 1e8 * (1.0 + float(np.linalg.norm(theta)))
    for _ in range(m_steps):
        theta = theta - eta * (gram @ theta - rhs)
        if not np.linalg.norm(theta) <= limit:
            raise DivergenceError(f"iterate norm exceeded {limit:.3e}; reduce eta")
    return theta


# Round-0 relative movement is unknown, so the adaptive schedule starts at
# the argmax of lam * ln(1/lam), where the step count is smallest.
_LAMBDA_START = 1.0 / math.e


def _adaptive_lambda(theta: np.ndarray, theta_prev: np.ndarray | None, n: int) -> float:
    if theta_prev is None:
        return _LAMBDA_START
    ref = float(np.linalg.norm(theta_prev))
    if ref == 0.0:
        return _LAMBDA_START
    rel = float(np.linalg.norm(theta - theta_prev)) / ref
    floor = math.log(n) / n
    # Clamp into [log(n)/n, 1/e]: the floor mirrors the smallest resolvable
    # relative error, the cap keeps early wild rounds at the cheap end.
    return min(max(rel, floor), _LAMBDA_START)


def gd_ilts_run(dataset: Dataset, theta0: np.ndarray, config: GdConfig,
                truth: GroundTruth | None = None) -> SolverTrace:
    """Trimmed alternation with gradient-descent inner solves.

    Unlike the exact alternation, a repeated selected set is not a fixed
    point here, so only the step-norm test stops the outer loop early.
    """
    inner_counts: list[int] = []
    theta_prev: np.ndarray | None = None

    def refit(theta, subset, carry):
        nonlocal theta_prev
        if config.schedule == "fixed":
            m_t = config.m_steps
        else:
            lam = _adaptive_lambda(theta, theta_prev, dataset.n)
            m_t = stopping_steps(lam, config.w, config.c_u)
        gram, rhs = normal_system(dataset, subset, carry)
        eta_t = config.eta if config.eta is not None else 1.0 / largest_curvature(gram)
        theta_next = gd_inner_loop(gram, rhs, theta, eta_t, m_t)
        inner_counts.append(m_t)
        theta_prev = theta
        return theta_next

    trace = _alternate(dataset, theta0, config, refit, False, truth)
    return replace(trace, inner_steps=tuple(inner_counts))
