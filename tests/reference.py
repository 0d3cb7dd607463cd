"""Plain reference implementations that the fast paths in trimfit are checked against.

Nothing under src/ imports this module.
"""

import math

import numpy as np

from trimfit.ilts import IltsConfig, RankDeficientError, ilts_run
from trimfit.model import Dataset
from trimfit.pipeline import (RecoveryReport, accept_component, default_delta, default_radius,
                              epsilon_recovery, estimate_subspace, generate_candidates)
from trimfit.util import floor_count


def reference_global(dataset, config, subspace=None, truth=None):
    """global_ilts without screening: each slot runs ILTS to the end from one
    candidate after another, in index order, and the first that passes the
    acceptance test claims the slot. Its rows are 5-tuples
    (component, candidate, rounds, accepted, support_size)."""
    n, d = dataset.n, dataset.d
    if subspace is None:
        subspace = estimate_subspace(dataset, config.m)
    if config.radius is None:
        radius, radius_source = default_radius(dataset), "quantile-default"
    else:
        radius, radius_source = config.radius, "user"
    epsilon = 0.2 * radius if config.epsilon_net is None else config.epsilon_net
    if config.delta is None:
        delta, delta_source = default_delta(n), "log-n-default"
    else:
        delta, delta_source = config.delta, "user"

    theta_hat = np.full((d, config.m), np.nan)
    outcomes = []
    working = np.arange(n)
    seeds = np.random.SeedSequence(config.seed).spawn(config.m)
    for j in range(config.m):
        tau_j = config.tau_list[j]
        if floor_count(tau_j * working.size) < d:
            continue
        candidates = generate_candidates(subspace, radius, epsilon, config.candidate_budget,
                                         int(seeds[j].generate_state(1)[0]))
        sub = Dataset(X=dataset.X[working], y=dataset.y[working])
        inner = IltsConfig(tau=tau_j, max_rounds=config.ilts_max_rounds, tol=config.ilts_tol,
                           rank_policy="fail")
        for c_idx, candidate in enumerate(candidates):
            try:
                trace = ilts_run(sub, candidate, inner)
            except RankDeficientError:
                outcomes.append((j, c_idx, 0, False, 0))
                continue
            ok, support = accept_component(sub, trace.final, tau_j, delta,
                                           min_count=floor_count(tau_j * n))
            outcomes.append((j, c_idx, trace.rounds_used, bool(ok), int(support.size)))
            if ok:
                theta_hat[:, j] = trace.final
                working = np.setdiff1d(working, working[support])
                break

    recovered = tuple(any(row[0] == j and row[3] for row in outcomes) for j in range(config.m))
    matching = per_errors = eps_value = None
    if truth is not None:
        value, perm = epsilon_recovery(theta_hat, truth.theta_star)
        matching = tuple(int(p) for p in perm)
        per_errors = tuple(
            float(np.linalg.norm(theta_hat[:, perm[b]] - truth.theta_star[:, b]))
            if recovered[perm[b]] else math.inf for b in range(config.m))
        eps_value = float(value)
    return RecoveryReport(
        theta_hat=theta_hat,
        recovered=recovered,
        accepted_counts=tuple(sum(row[4] for row in outcomes if row[0] == j and row[3])
                              for j in range(config.m)),
        candidates_tried=tuple(sum(row[0] == j for row in outcomes) for j in range(config.m)),
        partial=not all(recovered),
        radius=radius,
        radius_source=radius_source,
        delta=delta,
        delta_source=delta_source,
        candidate_outcomes=tuple(outcomes),
        matching=matching,
        per_component_errors=per_errors,
        epsilon_recovery=eps_value,
    )
