"""Synthetic mixed-linear-regression data with adversarial response corruption.

A generated instance consists of n feature/response pairs. Every sample index
belongs to exactly one mixture component; its response is the exact inner
product of the feature row with that component's parameter vector. An
adversary may then overwrite a fixed number of responses by adding an
arbitrary offset r_i on a chosen index subset. Corrupted samples keep their
component label; the corruption offset is additive on top of the clean
measurement, so y_i = <x_i, theta_star[:, partition[i]]> + r_i holds for
every index with r_i = 0 off the corrupted set.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .util import as_readonly, check_finite, check_integer, floor_count, row_blocks

ADVERSARIES = ("none", "oblivious-random", "residual-targeted", "component-targeted")

# The phantom component used by the residual-targeted adversary points along
# the first coordinate axis; only its magnitude is configurable.
_PHANTOM_AXIS = 0

_GENERATOR_NAME = "numpy.random.Generator(PCG64)"


def _generator_version() -> str:
    return f"numpy=={np.__version__}"


@dataclass(frozen=True)
class MixtureSpec:
    """Ground-truth mixture description.

    components holds one length-d parameter vector per component. weights are
    the exact per-component sample fractions and must sum to 1 so that every
    index receives a label. covariance is either None (identity features for
    all components) or a length-m sequence whose entries are None or an SPD
    d x d matrix.
    """

    d: int
    m: int
    components: tuple
    weights: tuple
    covariance: tuple | None = None

    def __post_init__(self):
        check_integer(self.d, "d", 1)
        check_integer(self.m, "m", 1)
        comps = tuple(as_readonly(np.asarray(c, dtype=float)) for c in self.components)
        if len(comps) != self.m:
            raise ValueError(f"expected {self.m} components, got {len(comps)}")
        for j, c in enumerate(comps):
            if c.shape != (self.d,):
                raise ValueError(f"component {j} must be a length-{self.d} vector")
            check_finite(c, f"component {j}")
        w = tuple(float(x) for x in self.weights)
        if len(w) != self.m:
            raise ValueError(f"expected {self.m} weights, got {len(w)}")
        if not all(0 < x < math.inf for x in w):
            raise ValueError("weights must be strictly positive and finite")
        if not abs(sum(w) - 1.0) <= 1e-9:
            raise ValueError("weights must sum to 1 so every sample index is assigned")
        cov = self.covariance
        if cov is not None:
            cov = tuple(None if c is None else as_readonly(np.asarray(c, dtype=float)) for c in cov)
            if len(cov) != self.m:
                raise ValueError(f"expected {self.m} covariance entries, got {len(cov)}")
            for j, c in enumerate(cov):
                if c is None:
                    continue
                if c.shape != (self.d, self.d):
                    raise ValueError(f"covariance {j} must be {self.d} x {self.d}")
                check_finite(c, f"covariance {j}")
                if not np.allclose(c, c.T, atol=1e-10):
                    raise ValueError(f"covariance {j} is not symmetric")
                try:
                    np.linalg.cholesky(c)
                except np.linalg.LinAlgError:
                    raise ValueError(f"covariance {j} is not positive definite") from None
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "covariance", cov)

    @property
    def theta_star(self) -> np.ndarray:
        """Parameters as a d x m column matrix."""
        return np.column_stack(self.components)


@dataclass(frozen=True)
class CorruptionSpec:
    """Adversary description.

    gamma_star scales the corrupted count: exactly
    floor(gamma_star * tau_min * n) responses are overwritten, where tau_min
    is the smallest per-component fraction of the instance being corrupted.
    """

    gamma_star: float = 0.0
    adversary: str = "none"
    magnitude: float = 1.0

    def __post_init__(self):
        if self.adversary not in ADVERSARIES:
            raise ValueError(f"unknown adversary {self.adversary!r}; expected one of {ADVERSARIES}")
        # Negated range tests, so that NaN fails them too.
        if not 0 <= self.gamma_star < math.inf:
            raise ValueError("gamma_star must be nonnegative and finite")
        if self.adversary == "none" and self.gamma_star != 0:
            raise ValueError("adversary 'none' requires gamma_star = 0")
        if not 0 < self.magnitude < math.inf:
            raise ValueError("magnitude must be positive and finite")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix X (n x d) and response vector y (n)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = as_readonly(np.asarray(self.X, dtype=float))
        y = as_readonly(np.asarray(self.y, dtype=float))
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        if X.shape[0] == 0:
            raise ValueError("X has no rows: n must be at least 1")
        if X.shape[1] == 0:
            raise ValueError("X has no feature columns: d must be at least 1")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("y must be 1-d with one entry per row of X")
        check_finite(X, "X")
        check_finite(y, "y")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class GroundTruth:
    """Generator-side truth for a dataset.

    tau_star[j] is the realized fraction of uncorrupted samples carrying
    label j, so it shrinks when corruption lands on component j. It is
    derived from partition and corrupted, never stored. seed and generator
    record how the instance was produced.
    """

    theta_star: np.ndarray
    partition: np.ndarray
    corrupted: np.ndarray
    r: np.ndarray
    seed: int | None = None
    generator: str = field(default=_GENERATOR_NAME)
    generator_version: str = field(default_factory=_generator_version)

    def __post_init__(self):
        theta = as_readonly(np.asarray(self.theta_star, dtype=float))
        part = as_readonly(np.asarray(self.partition, dtype=np.int64))
        corr = as_readonly(np.asarray(self.corrupted, dtype=bool))
        r = as_readonly(np.asarray(self.r, dtype=float))
        if theta.ndim != 2:
            raise ValueError("theta_star must be d x m")
        n = part.shape[0]
        if corr.shape != (n,) or r.shape != (n,):
            raise ValueError("partition, corrupted and r must share length n")
        m = theta.shape[1]
        if part.size and (part.min() < 0 or part.max() >= m):
            raise ValueError("partition labels must lie in [0, m)")
        check_finite(theta, "theta_star")
        check_finite(r, "r")
        object.__setattr__(self, "theta_star", theta)
        object.__setattr__(self, "partition", part)
        object.__setattr__(self, "corrupted", corr)
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return self.partition.shape[0]

    @property
    def m(self) -> int:
        return self.theta_star.shape[1]

    @property
    def tau_star(self) -> tuple:
        clean = ~self.corrupted
        return tuple(float(np.count_nonzero((self.partition == j) & clean)) / self.n
                     for j in range(self.m))


def check_truth(dataset: Dataset, truth: GroundTruth) -> None:
    """Reject a truth that does not describe dataset's n rows of d features, naming both."""
    if (truth.n, truth.theta_star.shape[0]) != (dataset.n, dataset.d):
        raise ValueError(f"truth has n = {truth.n}, d = {truth.theta_star.shape[0]} but the "
                         f"dataset has n = {dataset.n}, d = {dataset.d}")


def realized_gamma_star(truth: GroundTruth) -> float:
    """Corrupted count divided by n * min_j tau_star[j]."""
    n_bad = int(np.count_nonzero(truth.corrupted))
    if n_bad == 0:
        return 0.0
    tau_min = min(truth.tau_star)
    if tau_min <= 0:
        raise ValueError("smallest component has no uncorrupted samples")
    return n_bad / (truth.n * tau_min)


def reconstruction_error(dataset: Dataset, truth: GroundTruth) -> float:
    """Largest violation of y_i = <x_i, theta_star[:, label_i]> + r_i.

    Returned value is normalized by 1 + |y_i| per sample.
    """
    check_truth(dataset, truth)
    pred = np.sum(dataset.X * truth.theta_star.T[truth.partition], axis=1) + truth.r
    return float(np.max(np.abs(dataset.y - pred) / (1.0 + np.abs(dataset.y))))


def _allocate_counts(weights: Sequence[float], n: int) -> np.ndarray:
    """Exact per-component counts: floors plus largest-remainder top-up."""
    raw = np.asarray(weights, dtype=float) * n
    base = np.array([floor_count(x) for x in raw], dtype=np.int64)
    leftover = n - int(base.sum())
    if leftover < 0:
        raise ValueError("weights allocate more samples than n")
    base[np.argsort(base - raw, kind="stable")[:leftover]] += 1
    return base


def _corrupt(X: np.ndarray, y: np.ndarray, partition: np.ndarray, m: int,
             tau_min: float, corruption: CorruptionSpec, rng: np.random.Generator):
    """Responses after the adversary moves floor(gamma_star * tau_min * n) of them.

    Returns (y, r, corrupted); y is the input array itself when nothing moves.
    """
    n = y.shape[0]
    r = np.zeros(n)
    corrupted = np.zeros(n, dtype=bool)
    n_bad = floor_count(corruption.gamma_star * tau_min * n)
    if corruption.adversary == "none" or n_bad == 0:
        return y, r, corrupted
    if n_bad > n:
        raise ValueError(f"corrupted count {n_bad} exceeds n = {n}")

    if corruption.adversary == "oblivious-random":
        idx = rng.choice(n, size=n_bad, replace=False)
        values = rng.normal(0.0, corruption.magnitude, size=n_bad)
    elif corruption.adversary == "residual-targeted":
        # Overwrite the responses nearest zero so they mimic a phantom
        # component of the configured magnitude along a fixed axis.
        idx = np.argsort(np.abs(y), kind="stable")[:n_bad]
        phantom = np.zeros(X.shape[1])
        phantom[_PHANTOM_AXIS] = corruption.magnitude
        values = X[idx] @ phantom - y[idx]
    else:  # component-targeted
        smallest = int(np.argmin(np.bincount(partition, minlength=m)))
        pool = np.flatnonzero(partition == smallest)
        if n_bad > pool.size:
            raise ValueError(
                f"corrupted count {n_bad} exceeds smallest component size {pool.size}")
        idx = pool[rng.choice(pool.size, size=n_bad, replace=False)]
        values = rng.normal(0.0, corruption.magnitude, size=n_bad)

    y = y.copy()
    y[idx] += values
    r[idx] = values
    corrupted[idx] = True
    return y, r, corrupted


def inject_corruptions(dataset: Dataset, truth: GroundTruth,
                       corruption: CorruptionSpec, seed: int):
    """Corrupt exactly floor(gamma_star * tau_min * n) responses.

    tau_min is taken from the incoming truth, which must be uncorrupted.
    Rows off the corrupted set are returned bit-identical; when nothing is
    corrupted the inputs themselves are returned.
    """
    check_integer(seed, "seed", 0)
    check_truth(dataset, truth)
    if np.any(truth.corrupted):
        raise ValueError("input truth already carries corruptions")
    y, r, corrupted = _corrupt(dataset.X, dataset.y, truth.partition, truth.m,
                               min(truth.tau_star), corruption, np.random.default_rng(seed))
    if not corrupted.any():
        return dataset, truth
    return Dataset(X=dataset.X, y=y), GroundTruth(
        theta_star=truth.theta_star, partition=truth.partition, corrupted=corrupted,
        r=r, seed=seed,
        generator=truth.generator, generator_version=truth.generator_version)


def component_counts(spec: MixtureSpec, n: int) -> np.ndarray:
    """Exact per-component sample counts of an n-sample instance of spec.

    Fails unless n is at least d and m and gives every component a row.
    """
    if n < spec.d:
        raise ValueError(f"n = {n} must be at least d = {spec.d}")
    if n < spec.m:
        raise ValueError(f"n = {n} must be at least m = {spec.m}")
    counts = _allocate_counts(spec.weights, n)
    if np.any(counts == 0):
        raise ValueError("some component receives zero samples at this n")
    return counts


def generate_mlrc(spec: MixtureSpec, corruption: CorruptionSpec, n: int, seed: int):
    """Generate a corrupted mixture instance.

    Labels are assigned by exact per-component counts and a seeded shuffle,
    features are Gaussian with the component's covariance, responses are
    exact inner products, and the adversary then overwrites its quota of
    responses. Equal arguments produce bit-identical output.

    X is drawn once and handed to the Dataset frozen, without a copy; the
    responses are summed over blocks of rows, so the call peaks near 1.2
    times the bytes of X.
    """
    check_integer(n, "n", 1)
    check_integer(seed, "seed", 0)
    counts = component_counts(spec, n)
    clean_ss, corrupt_ss = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(clean_ss)
    labels = np.repeat(np.arange(spec.m, dtype=np.int64), counts)[rng.permutation(n)]

    X = rng.standard_normal((n, spec.d))
    for j, cov in enumerate(spec.covariance or ()):
        if cov is not None:
            # X rows become draws from N(0, cov) via the Cholesky factor.
            mask = labels == j
            X[mask] = X[mask] @ np.linalg.cholesky(cov).T

    X.setflags(write=False)

    theta = spec.theta_star
    y = np.empty(n)
    for rows in row_blocks(n):
        y[rows] = np.sum(X[rows] * theta.T[labels[rows]], axis=1)
    # The clean fractions are counts / n, so their minimum is min(counts) / n.
    y, r, corrupted = _corrupt(X, y, labels, spec.m, float(counts.min()) / n, corruption,
                               np.random.default_rng(corrupt_ss))
    return Dataset(X=X, y=y), GroundTruth(
        theta_star=theta, partition=labels, corrupted=corrupted, r=r, seed=seed)


# ---------------------------------------------------------------------------
# Serialization. Datasets travel as CSV with a y,x1,...,xd header and 17
# significant digits per value; truths travel as a JSON sidecar.

def save_dataset(dataset: Dataset, path: str) -> None:
    header = ",".join(["y"] + [f"x{i}" for i in range(1, dataset.d + 1)])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for rows in row_blocks(dataset.n):
            np.savetxt(fh, np.column_stack([dataset.y[rows], dataset.X[rows]]), fmt="%.17g",
                       delimiter=",")


def load_dataset(path: str) -> Dataset:
    """Read a dataset CSV written by save_dataset; every error names the file.

    The non-blank lines stream into one n x (d + 1) array, from which X and
    y are copied once, so a load peaks near 2.2 times the bytes of X.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "y" or len(header) < 2:
            raise ValueError(f"{path}: expected header y,x1,...,xd")
        d = len(header) - 1
        if header[1:] != [f"x{i}" for i in range(1, d + 1)]:
            raise ValueError(f"{path}: malformed feature column names")
        lines = (line for line in fh if line.strip())
        first = next(lines, None)
        if first is None:
            raise ValueError(f"{path}: no data rows")
        try:
            data = np.loadtxt(itertools.chain([first], lines), dtype=float, delimiter=",",
                              comments=None, ndmin=2)
        except ValueError:
            raise ValueError(_locate_bad_field(path, header)) from None
    if data.shape[1] != d + 1 or not np.isfinite(data).all():
        raise ValueError(_locate_bad_field(path, header))
    return Dataset(X=data[:, 1:], y=data[:, 0])


def _locate_bad_field(path: str, header: list) -> str:
    """path:line message naming the first line with the wrong field count or
    the first field that is not a finite number."""
    with open(path, "r", encoding="ascii") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            fields = line.strip().split(",")
            if fields == [""]:
                continue
            if len(fields) != len(header):
                return f"{path}:{lineno}: {len(fields)} fields, expected {len(header)}"
            for name, text in zip(header, fields):
                try:
                    # float() also takes digit-group underscores; np.loadtxt does not.
                    ok = "_" not in text and math.isfinite(float(text))
                except ValueError:
                    ok = False
                if not ok:
                    return f"{path}:{lineno}: column {name}: expected a finite number, got {text!r}"
    return f"{path}: a field is not a finite number"


def truth_to_dict(truth: GroundTruth) -> dict:
    return {
        "format": "trimfit-truth",
        "format_version": 1,
        "generator": truth.generator,
        "generator_version": truth.generator_version,
        "seed": truth.seed,
        "theta_star": [truth.theta_star[:, j].tolist() for j in range(truth.m)],
        "partition": truth.partition.tolist(),
        "corrupted": truth.corrupted.tolist(),
        "r": truth.r.tolist(),
        "tau_star": list(truth.tau_star),
    }


def save_truth(truth: GroundTruth, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(truth_to_dict(truth), fh, indent=1)
        fh.write("\n")


def load_truth(path: str) -> GroundTruth:
    """Read a truth sidecar; every error names the file, and the field if any."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "trimfit-truth":
        raise ValueError(f"{path}: field format: expected 'trimfit-truth'")
    try:
        return GroundTruth(
            theta_star=np.column_stack([np.asarray(c, dtype=float) for c in doc["theta_star"]]),
            partition=np.asarray(doc["partition"], dtype=np.int64),
            corrupted=np.asarray(doc["corrupted"], dtype=bool),
            r=np.asarray(doc["r"], dtype=float),
            seed=doc.get("seed"),
            generator=doc.get("generator", _GENERATOR_NAME),
            generator_version=doc.get("generator_version", _generator_version()),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
