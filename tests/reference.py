"""Plain reference implementations that the fast paths in trimfit are checked against.

Nothing under src/ imports this module.
"""

import numpy as np

from trimfit.ilts import IltsConfig, RankDeficientError, ilts_run
from trimfit.model import Dataset
from trimfit.pipeline import SubspaceEstimate, accept_component, plan_search, recovery_report
from trimfit.util import floor_count


def reference_global(dataset, config, subspace=None, truth=None):
    """global_ilts without screening: each slot runs ILTS to the end from one
    candidate after another, in index order, and the first that passes the
    acceptance test claims the slot. Its rows are 5-tuples
    (component, candidate, rounds, accepted, support_size). Settings, starts
    and the report come from the helpers global_ilts uses."""
    settings, starts = plan_search(dataset, config, subspace, truth)
    n, d = dataset.n, dataset.d
    theta_hat = np.full((d, config.m), np.nan)
    outcomes = []
    working = np.arange(n)
    for j in range(config.m):
        tau_j = config.tau_list[j]
        if floor_count(tau_j * working.size) < d:
            continue
        sub = Dataset(X=dataset.X[working], y=dataset.y[working])
        inner = IltsConfig(tau=tau_j, max_rounds=config.ilts_max_rounds, tol=config.ilts_tol,
                           rank_policy="fail")
        for c_idx, candidate in enumerate(starts(j)):
            try:
                trace = ilts_run(sub, candidate, inner)
            except RankDeficientError:
                outcomes.append((j, c_idx, 0, False, 0))
                continue
            ok, support = accept_component(sub, trace.final, settings["delta"],
                                           floor_count(tau_j * n))
            outcomes.append((j, c_idx, trace.rounds_used, bool(ok), int(support.size)))
            if ok:
                theta_hat[:, j] = trace.final
                working = np.setdiff1d(working, working[support])
                break
    return recovery_report(theta_hat, outcomes, settings, truth)


def reference_subspace(dataset, m):
    """estimate_subspace by the SVD of the n x d moment rows y_i * x_i: the top-m
    right-singular vectors, each column's largest-magnitude entry made positive."""
    _, _, vh = np.linalg.svd(dataset.X * dataset.y[:, None], full_matrices=False)
    basis = vh[:m].T.copy()
    for col in range(m):
        pivot = int(np.argmax(np.abs(basis[:, col])))
        if basis[pivot, col] < 0:
            basis[:, col] = -basis[:, col]
    return SubspaceEstimate(basis=basis, provenance="svd")


def reference_radius(dataset, subspace):
    """default_radius from the whole of X B in one product, unscaled: the radius
    sqrt(m_tilde sum y_i^2 / trace((X B)^T X B)) and that Gram scaled to trace m_tilde."""
    xb = dataset.X @ subspace.basis
    gram = xb.T @ xb
    trace = float(np.trace(gram))
    m_tilde = subspace.m_tilde
    return float(np.sqrt(m_tilde * (dataset.y @ dataset.y) / trace)), gram * (m_tilde / trace)
