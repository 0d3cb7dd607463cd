"""Generator and serialization tests."""

import functools
import hashlib
import json
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trimfit.gd import GdConfig, gd_ilts_run
from trimfit.ilts import IltsConfig, ilts_run
from trimfit.model import (CorruptionSpec, Dataset, GroundTruth, MixtureSpec,
                           _allocate_counts, component_counts, generate_mlrc, inject_corruptions,
                           load_dataset, load_truth, realized_gamma_star,
                           reconstruction_error, save_dataset, save_truth)
from trimfit.pipeline import GlobalConfig, SubspaceEstimate, global_ilts, tensor_starts
from trimfit.util import ROW_BLOCK


def two_component_spec(d=3):
    comps = [np.zeros(d), np.zeros(d)]
    comps[0][0] = 1.0
    comps[1][1] = 1.0
    return MixtureSpec(d=d, m=2, components=comps, weights=[0.5, 0.5])


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        MixtureSpec(d=2, m=2, components=[[1.0, 0.0], [0.0, 1.0]],
                    weights=[0.5, 0.4])


def test_weights_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        MixtureSpec(d=2, m=2, components=[[1.0, 0.0], [0.0, 1.0]],
                    weights=[1.0, 0.0])


def test_covariance_must_be_spd():
    bad = [[1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(ValueError, match="positive definite"):
        MixtureSpec(d=2, m=1, components=[[1.0, 0.0]], weights=[1.0],
                    covariance=[bad])


def test_corruption_spec_validation():
    with pytest.raises(ValueError, match="unknown adversary"):
        CorruptionSpec(adversary="typo")
    with pytest.raises(ValueError, match="gamma_star = 0"):
        CorruptionSpec(gamma_star=0.1, adversary="none")
    with pytest.raises(ValueError, match="nonnegative"):
        CorruptionSpec(gamma_star=-0.1, adversary="oblivious-random")


def test_allocate_counts_exact_partition():
    counts = _allocate_counts([0.3, 0.3, 0.4], 10)
    assert counts.sum() == 10
    assert list(counts) == [3, 3, 4]
    counts = _allocate_counts([1 / 3, 1 / 3, 1 / 3], 10)
    assert counts.sum() == 10
    # largest-remainder top-up, stable ties toward the smaller index
    assert list(counts) == [4, 3, 3]


def test_corrupted_count_frozen_example():
    # gamma_star 0.1 with balanced halves on n = 200: tau_min = 0.5, so
    # exactly floor(0.1 * 0.5 * 200) = 10 responses are overwritten.
    corr = CorruptionSpec(gamma_star=0.1, adversary="oblivious-random", magnitude=2.0)
    _, truth = generate_mlrc(two_component_spec(), corr, n=200, seed=7)
    assert int(truth.corrupted.sum()) == 10


def test_corrupted_count_small_instance():
    # n = 10, tau_min = 0.5, gamma_star 0.4: floor(0.4 * 0.5 * 10) = 2.
    spec = two_component_spec(d=2)
    corr = CorruptionSpec(gamma_star=0.4, adversary="oblivious-random", magnitude=1.0)
    _, truth = generate_mlrc(spec, corr, n=10, seed=1)
    assert int(truth.corrupted.sum()) == 2


def test_clean_instance_reconstructs_exactly():
    ds, truth = generate_mlrc(two_component_spec(), CorruptionSpec(), n=300, seed=5)
    assert not truth.corrupted.any()
    assert reconstruction_error(ds, truth) <= 1e-12
    assert truth.tau_star == (0.5, 0.5)
    assert realized_gamma_star(truth) == 0.0


def test_corrupted_instance_reconstructs_via_offsets():
    corr = CorruptionSpec(gamma_star=0.2, adversary="oblivious-random", magnitude=3.0)
    ds, truth = generate_mlrc(two_component_spec(), corr, n=250, seed=9)
    # y = <x, theta_label> + r holds on every row once r is included.
    assert reconstruction_error(ds, truth) <= 1e-12
    assert truth.r[~truth.corrupted].max(initial=0.0) == 0.0
    assert np.all(truth.r[truth.corrupted] != 0.0)


def test_uncorrupted_rows_bitwise_unchanged():
    spec = two_component_spec()
    clean_ds, clean_truth = generate_mlrc(spec, CorruptionSpec(), n=200, seed=13)
    corr = CorruptionSpec(gamma_star=0.3, adversary="oblivious-random", magnitude=2.0)
    bad_ds, bad_truth = inject_corruptions(clean_ds, clean_truth, corr, seed=99)
    keep = ~bad_truth.corrupted
    assert np.array_equal(bad_ds.X, clean_ds.X)
    assert np.array_equal(bad_ds.y[keep], clean_ds.y[keep])
    assert not np.array_equal(bad_ds.y, clean_ds.y)
    # labels are retained on corrupted rows
    assert np.array_equal(bad_truth.partition, clean_truth.partition)


def test_inject_refuses_double_corruption():
    spec = two_component_spec()
    corr = CorruptionSpec(gamma_star=0.2, adversary="oblivious-random", magnitude=2.0)
    ds, truth = generate_mlrc(spec, corr, n=200, seed=3)
    with pytest.raises(ValueError, match="already"):
        inject_corruptions(ds, truth, corr, seed=4)


def test_a_truth_of_other_data_fails_naming_both_shapes():
    ds, _ = generate_mlrc(two_component_spec(), CorruptionSpec(), n=200, seed=3)
    other = generate_mlrc(two_component_spec(), CorruptionSpec(), n=150, seed=4)[1]
    message = r"^truth has n = 150, d = 3 but the dataset has n = 200, d = 3$"
    with pytest.raises(ValueError, match=message):
        reconstruction_error(ds, other)
    with pytest.raises(ValueError, match=message):
        inject_corruptions(ds, other, CorruptionSpec(0.1, "oblivious-random", 2.0), seed=0)


def test_residual_targeted_hits_smallest_responses():
    spec = two_component_spec()
    clean_ds, clean_truth = generate_mlrc(spec, CorruptionSpec(), n=120, seed=17)
    corr = CorruptionSpec(gamma_star=0.25, adversary="residual-targeted", magnitude=2.0)
    bad_ds, bad_truth = inject_corruptions(clean_ds, clean_truth, corr, seed=0)
    n_bad = int(bad_truth.corrupted.sum())
    assert n_bad == 15
    # the overwritten rows are exactly the n_bad smallest |y| of the clean data
    order = np.argsort(np.abs(clean_ds.y), kind="stable")
    assert np.array_equal(np.sort(order[:n_bad]), np.flatnonzero(bad_truth.corrupted))
    # and their new responses match a rank-one phantom along the first axis
    idx = np.flatnonzero(bad_truth.corrupted)
    assert np.allclose(bad_ds.y[idx], bad_ds.X[idx, 0] * 2.0)


def test_component_targeted_stays_in_smallest_component():
    spec = MixtureSpec(d=2, m=2, components=[[1.0, 0.0], [0.0, 1.0]],
                       weights=[0.75, 0.25])
    corr = CorruptionSpec(gamma_star=0.3, adversary="component-targeted", magnitude=2.0)
    ds, truth = generate_mlrc(spec, corr, n=200, seed=23)
    hit = truth.partition[truth.corrupted]
    assert np.all(hit == 1)


def test_tau_star_shrinks_where_corruption_lands():
    spec = MixtureSpec(d=2, m=2, components=[[1.0, 0.0], [0.0, 1.0]],
                       weights=[0.75, 0.25])
    corr = CorruptionSpec(gamma_star=0.3, adversary="component-targeted", magnitude=2.0)
    _, truth = generate_mlrc(spec, corr, n=200, seed=23)
    # floor(0.3 * 0.25 * 200) = 15 hits, all on the 50-sample component
    assert truth.tau_star == (0.75, (50 - 15) / 200)
    assert realized_gamma_star(truth) == pytest.approx(15 / (200 * 0.175))


def test_truth_sidecar_tau_star_is_recomputed_on_load(tmp_path):
    spec = MixtureSpec(d=2, m=2, components=[[1.0, 0.0], [0.0, 1.0]],
                       weights=[0.75, 0.25])
    corr = CorruptionSpec(gamma_star=0.3, adversary="component-targeted", magnitude=2.0)
    _, truth = generate_mlrc(spec, corr, n=200, seed=23)
    path = tmp_path / "inst.truth.json"
    save_truth(truth, str(path))
    doc = json.loads(path.read_text())
    assert doc["tau_star"] == [0.75, 0.175]  # still written for readers
    for tau_star in (None, [0.5, 0.5], [1.0]):
        if tau_star is None:
            del doc["tau_star"]
        else:
            doc["tau_star"] = tau_star
        path.write_text(json.dumps(doc))
        loaded = load_truth(str(path))
        assert loaded.tau_star == truth.tau_star == (0.75, 0.175)
        assert realized_gamma_star(loaded) == realized_gamma_star(truth)


def test_generation_is_deterministic():
    spec = two_component_spec()
    corr = CorruptionSpec(gamma_star=0.1, adversary="oblivious-random", magnitude=2.0)
    a_ds, a_truth = generate_mlrc(spec, corr, n=150, seed=42)
    b_ds, b_truth = generate_mlrc(spec, corr, n=150, seed=42)
    assert np.array_equal(a_ds.X, b_ds.X)
    assert np.array_equal(a_ds.y, b_ds.y)
    assert np.array_equal(a_truth.partition, b_truth.partition)
    assert np.array_equal(a_truth.r, b_truth.r)
    c_ds, _ = generate_mlrc(spec, corr, n=150, seed=43)
    assert not np.array_equal(a_ds.y, c_ds.y)


def test_covariance_shapes_features():
    d = 4
    cov = np.diag([4.0, 1.0, 1.0, 1.0])
    spec = MixtureSpec(d=d, m=1, components=[np.ones(d)], weights=[1.0],
                       covariance=[cov])
    ds, _ = generate_mlrc(spec, CorruptionSpec(), n=10000, seed=31)
    emp = ds.X.T @ ds.X / ds.n
    assert np.linalg.norm(emp - cov, 2) <= 0.2
    # identity default stays near identity
    spec_id = MixtureSpec(d=d, m=1, components=[np.ones(d)], weights=[1.0])
    ds_id, _ = generate_mlrc(spec_id, CorruptionSpec(), n=10000, seed=31)
    emp_id = ds_id.X.T @ ds_id.X / ds_id.n
    assert np.linalg.norm(emp_id - np.eye(d), 2) <= 0.1


def test_dataset_round_trip(tmp_path):
    spec = two_component_spec()
    corr = CorruptionSpec(gamma_star=0.1, adversary="oblivious-random", magnitude=2.0)
    ds, truth = generate_mlrc(spec, corr, n=80, seed=11)
    data_path = tmp_path / "inst.csv"
    truth_path = tmp_path / "inst.truth.json"
    save_dataset(ds, str(data_path))
    save_truth(truth, str(truth_path))

    ds2 = load_dataset(str(data_path))
    truth2 = load_truth(str(truth_path))
    assert np.array_equal(ds.X, ds2.X)
    assert np.array_equal(ds.y, ds2.y)
    assert np.array_equal(truth.theta_star, truth2.theta_star)
    assert np.array_equal(truth.partition, truth2.partition)
    assert np.array_equal(truth.corrupted, truth2.corrupted)
    assert np.array_equal(truth.r, truth2.r)
    assert truth.tau_star == truth2.tau_star
    assert truth2.seed == 11

    # saving the reloaded objects reproduces the files byte for byte
    save_dataset(ds2, str(tmp_path / "again.csv"))
    assert (tmp_path / "again.csv").read_bytes() == data_path.read_bytes()
    save_truth(truth2, str(tmp_path / "again.truth.json"))
    assert (tmp_path / "again.truth.json").read_bytes() == truth_path.read_bytes()


def test_load_dataset_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("y,x1,x2\n1.0,2.0\n")
    with pytest.raises(ValueError, match="fields"):
        load_dataset(str(p))
    p.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset(str(p))


def test_dataset_arrays_are_read_only():
    ds, truth = generate_mlrc(two_component_spec(), CorruptionSpec(), n=50, seed=2)
    with pytest.raises(ValueError):
        ds.X[0, 0] = 7.0
    with pytest.raises(ValueError):
        truth.partition[0] = 1


@pytest.mark.parametrize("make, message", [
    (lambda: MixtureSpec(d=True, m=1, components=[[1.0]], weights=[1.0]),
     "d must be an integer, got True"),
    (lambda: MixtureSpec(d=2.0, m=1, components=[[1.0, 0.0]], weights=[1.0]),
     "d must be an integer, got 2.0"),
    (lambda: MixtureSpec(d=0, m=1, components=[[]], weights=[1.0]), "d must be at least 1"),
    (lambda: MixtureSpec(d=3, m=2.0, components=[[1.0, 0.0, 0.0]] * 2, weights=[0.5, 0.5]),
     "m must be an integer, got 2.0"),
    (lambda: MixtureSpec(d=3, m=0, components=[], weights=[]), "m must be at least 1"),
    (lambda: generate_mlrc(two_component_spec(), CorruptionSpec(), n=300.0, seed=0),
     "n must be an integer, got 300.0"),
    (lambda: generate_mlrc(two_component_spec(), CorruptionSpec(), n=0, seed=0),
     "n must be at least 1"),
    (lambda: generate_mlrc(two_component_spec(), CorruptionSpec(), n=300, seed=-1),
     "seed must be at least 0"),
    (lambda: generate_mlrc(two_component_spec(), CorruptionSpec(), n=300, seed=True),
     "seed must be an integer, got True"),
    (lambda: inject_corruptions(*generate_mlrc(two_component_spec(), CorruptionSpec(),
                                               n=300, seed=0),
                                CorruptionSpec(0.1, "oblivious-random", 2.0), seed=-3),
     "seed must be at least 0"),
    (lambda: Dataset(X=np.zeros((0, 3)), y=np.zeros(0)), "X has no rows: n must be at least 1"),
    (lambda: Dataset(X=np.zeros((5, 0)), y=np.zeros(5)),
     "X has no feature columns: d must be at least 1"),
], ids=["d-bool", "d-float", "d-zero", "m-float", "m-zero", "n-float", "n-zero",
        "seed-negative", "seed-bool", "inject-seed-negative", "dataset-no-rows",
        "dataset-no-features"])
def test_model_counts_and_seeds_are_checked_by_name(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def frozen(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("view", [
    lambda a: a, lambda a: a[:, ::2], lambda a: a[1:4], lambda a: a.T,
    lambda a: frozen(a[1:4]),
], ids=["writable", "strided", "row-view", "transposed", "frozen-view"])
def test_dataset_copies_an_array_the_caller_can_still_write(view):
    owner = np.arange(24.0).reshape(6, 4)
    given = view(owner)
    ds = Dataset(X=given, y=np.zeros(given.shape[0]))
    kept = ds.X.copy()
    owner += 1.0
    assert np.array_equal(ds.X, kept)
    assert ds.X.flags.c_contiguous and not ds.X.flags.writeable


def test_dataset_shares_a_frozen_contiguous_array_it_owns():
    X, y = frozen(np.arange(24.0).reshape(6, 4).copy()), frozen(np.zeros(6))
    ds = Dataset(X=X, y=y)
    assert np.shares_memory(ds.X, X) and np.shares_memory(ds.y, y)
    generated, _ = generate_mlrc(two_component_spec(), CorruptionSpec(), n=50, seed=2)
    assert np.shares_memory(Dataset(X=generated.X, y=generated.y).X, generated.X)


@pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5])
@pytest.mark.parametrize("covariance", [False, True], ids=["identity", "covariance"])
def test_blocked_responses_are_bit_equal_to_the_whole_matrix_sum(n, covariance):
    # d = 13 takes numpy's unrolled pairwise sum, where a change of iteration order would show.
    d, m = (1, 1) if n == 1 else (13, 3)
    rng = np.random.default_rng(n)
    cov = None
    if covariance:
        A = rng.standard_normal((d, d))
        cov = [A @ A.T + np.eye(d)] + [None] * (m - 1)
    spec = MixtureSpec(d=d, m=m, components=list(rng.standard_normal((m, d))),
                       weights=[1 / m] * m, covariance=cov)
    ds, truth = generate_mlrc(spec, CorruptionSpec(), n=n, seed=5)
    whole = np.sum(ds.X * truth.theta_star.T[truth.partition], axis=1)
    assert np.array_equal(ds.y.view(np.int64), whole.view(np.int64))
    # reconstruction_error sums through the same blocks; a truth that misses the data makes
    # every bit of its error count.
    other = GroundTruth(theta_star=truth.theta_star * 1.001, partition=truth.partition,
                        corrupted=truth.corrupted, r=truth.r)
    pred = np.sum(ds.X * other.theta_star.T[truth.partition], axis=1)
    assert reconstruction_error(ds, other) == np.max(np.abs(ds.y - pred) / (1.0 + np.abs(ds.y)))


def traced_peak(call):
    """Peak bytes that call allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def memory_spec(d):
    return MixtureSpec(d=d, m=2, components=list(np.eye(d)[:2]), weights=[0.5, 0.5])


def fit_start(d):
    """A start near component 0 of memory_spec(d)."""
    return np.eye(d)[0] + 0.3 * np.random.default_rng(0).standard_normal(d) / np.sqrt(d)


@pytest.fixture(scope="module")
def memory_instance(tmp_path_factory):
    """(dataset, truth, CSV path) of the instance with d features, built once per d."""
    @functools.cache
    def build(d):
        ds, truth = generate_mlrc(memory_spec(d), CorruptionSpec(), n=20_000, seed=0)
        path = str(tmp_path_factory.mktemp("memory") / "inst.csv")
        save_dataset(ds, path)
        return ds, truth, path
    return build


# save runs at d = 5, where formatting the text costs a tenth of d = 50: the blocked
# writer peaks at 0.3x X there, and a whole-matrix column_stack writer at 1.24x.
@pytest.mark.parametrize("d, step, bound", [
    (50, lambda ds, truth, path: generate_mlrc(memory_spec(50), CorruptionSpec(), n=20_000,
                                               seed=0), 1.5),
    (50, lambda ds, truth, path: load_dataset(path), 2.5),
    (50, lambda ds, truth, path: global_ilts(
        ds, GlobalConfig(m=2, tau_list=(0.4,), candidate_budget=8, radius=1.0, seed=0),
        SubspaceEstimate(basis=np.eye(50)[:, :2])), 2.0),
    # No subspace and no radius: the moment Gram and the row norms go by blocks of rows.
    (50, lambda ds, truth, path: global_ilts(
        ds, GlobalConfig(m=2, tau_list=(0.4,), candidate_budget=8, seed=0)), 1.0),
    (5, lambda ds, truth, path: save_dataset(ds, path + ".saved"), 0.5),
    # tau = 0.4: each refit reads its 8,000 selected rows in blocks, never X_S whole.
    (50, lambda ds, truth, path: ilts_run(ds, fit_start(50), IltsConfig(tau=0.4)), 0.4),
    (50, lambda ds, truth, path: gd_ilts_run(ds, fit_start(50), GdConfig(tau=0.4)), 0.4),
    # The clean responses go by blocks of rows: 0.23x X, where a whole-matrix product is 1.02x.
    (50, lambda ds, truth, path: reconstruction_error(ds, truth), 0.3),
    # The third moments are summed one m~ x m~ slice at a time: 0.6x X at m~ = 20, where
    # all m~^2 products of a block at once took 1.9x.
    (50, lambda ds, truth, path: tensor_starts(
        ds, SubspaceEstimate(basis=np.eye(50)[:, :20]), 0), 1.0),
], ids=["generate", "load", "global", "global-default", "save", "fit", "fit-gd",
        "reconstruction", "tensor-starts"])
def test_peak_memory_is_a_small_multiple_of_X(memory_instance, d, step, bound):
    ds, truth, path = memory_instance(d)
    assert traced_peak(lambda: step(ds, truth, path)) <= bound * ds.X.nbytes


def test_generate_rejects_undersized_n():
    spec = two_component_spec(d=3)
    with pytest.raises(ValueError, match="at least d"):
        generate_mlrc(spec, CorruptionSpec(), n=2, seed=0)
    tiny = MixtureSpec(d=1, m=2, components=[[1.0], [2.0]], weights=[0.99, 0.01])
    with pytest.raises(ValueError, match="zero samples"):
        generate_mlrc(tiny, CorruptionSpec(), n=10, seed=0)


def test_ground_truth_label_range_checked():
    with pytest.raises(ValueError, match="labels"):
        GroundTruth(theta_star=np.eye(2), partition=np.array([0, 2]),
                    corrupted=np.zeros(2, dtype=bool), r=np.zeros(2))


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        Dataset(X=np.array([[1.0], [np.nan]]), y=np.array([0.0, 1.0]))


E2 = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("fields, message", [
    (dict(components=E2[:1]), "expected 2 components, got 1"),
    (dict(weights=[1.0]), "expected 2 weights, got 1"),
    (dict(covariance=[None]), "expected 2 covariance entries, got 1"),
    (dict(components=[[1.0, 0.0, 0.0], [0.0, 1.0]]), "component 0 must be a length-2 vector"),
    (dict(covariance=[None, np.eye(3)]), "covariance 1 must be 2 x 2"),
    (dict(covariance=[[[1.0, 0.5], [0.0, 1.0]], None]), "covariance 0 is not symmetric"),
], ids=["components", "weights", "covariances", "component-length", "covariance-shape",
        "covariance-asymmetric"])
def test_mixture_spec_rejections_name_the_fault(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MixtureSpec(**dict(dict(d=2, m=2, components=E2, weights=[0.5, 0.5]), **fields))


@pytest.mark.parametrize("X, y, message", [
    (np.ones(3), np.ones(3), "X must be a 2-d array"),
    (np.ones((3, 1)), np.ones(2), "y must be 1-d with one entry per row of X"),
    (np.ones((3, 1)), np.ones((3, 1)), "y must be 1-d with one entry per row of X"),
], ids=["X-1d", "y-short", "y-2d"])
def test_dataset_rejections_name_the_fault(X, y, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Dataset(X=X, y=y)


@pytest.mark.parametrize("fields, message", [
    (dict(theta_star=np.ones(2)), "theta_star must be d x m"),
    (dict(partition=[0, 1, 0]), "partition, corrupted and r must share length n"),
    (dict(corrupted=[False]), "partition, corrupted and r must share length n"),
    (dict(r=[0.0, 0.0, 0.0]), "partition, corrupted and r must share length n"),
], ids=["theta-1d", "partition", "corrupted", "r"])
def test_ground_truth_rejections_name_the_fault(fields, message):
    valid = dict(theta_star=np.eye(2), partition=[0, 1], corrupted=[False, False], r=[0.0, 0.0])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GroundTruth(**dict(valid, **fields))


def write_bad_header(tmp_path):
    path = tmp_path / "names.csv"
    path.write_text("y,x1,x3\n1.0,2.0,3.0\n")
    return str(path)


@pytest.mark.parametrize("make, message", [
    (lambda tmp: realized_gamma_star(GroundTruth(
        theta_star=np.eye(2), partition=[0, 1, 1], corrupted=[True, False, False],
        r=[1.0, 0.0, 0.0])), "smallest component has no uncorrupted samples"),
    (lambda tmp: generate_mlrc(MixtureSpec(d=1, m=1, components=[[1.0]], weights=[1.0]),
                               CorruptionSpec(5.0, "oblivious-random"), n=10, seed=0),
     "corrupted count 50 exceeds n = 10"),
    (lambda tmp: generate_mlrc(two_component_spec(d=2), CorruptionSpec(1.5, "component-targeted"),
                               n=10, seed=0),
     "corrupted count 7 exceeds smallest component size 5"),
    (lambda tmp: component_counts(MixtureSpec(d=1, m=3, components=[[1.0], [2.0], [3.0]],
                                              weights=[1 / 3] * 3), 2),
     "n = 2 must be at least m = 3"),
    (lambda tmp: load_dataset(write_bad_header(tmp)), "{path}: malformed feature column names"),
], ids=["fully-corrupted-component", "more-corrupted-than-n", "more-targeted-than-component",
        "fewer-rows-than-components", "feature-names"])
def test_generation_and_loading_rejections_name_the_fault(tmp_path, make, message):
    message = message.format(path=tmp_path / "names.csv")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(tmp_path)


def write_csv(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    return str(path)


def test_load_dataset_non_numeric_names_line_and_column(tmp_path):
    path = write_csv(tmp_path, "y,x1,x2\n1.0,2.0,3.0\n\n1.0,abc,3.0\n")
    with pytest.raises(ValueError, match=re.escape(path) + r":4: column x1: .*'abc'"):
        load_dataset(path)


def test_load_dataset_field_count_names_line(tmp_path):
    path = write_csv(tmp_path, "y,x1,x2\n1.0,2.0,3.0\n1.0,2.0\n")
    with pytest.raises(ValueError, match=re.escape(path) + r":3: 2 fields, expected 3"):
        load_dataset(path)


def test_load_dataset_non_finite_names_line_and_column(tmp_path):
    path = write_csv(tmp_path, "y,x1,x2\n1.0,2.0,3.0\n1.0,2.0,nan\n")
    with pytest.raises(ValueError, match=re.escape(path) + r":3: column x2: .*'nan'"):
        load_dataset(path)
    path = write_csv(tmp_path, "y,x1,x2\n1.0,2.0,3.0\n\n1.0,2.0,3.0\n-inf,2.0,3.0\n")
    with pytest.raises(ValueError, match=re.escape(path) + r":5: column y: .*'-inf'"):
        load_dataset(path)


def test_load_dataset_skips_whitespace_only_lines(tmp_path):
    path = write_csv(tmp_path, "y,x1\n1.5,2.0\n   \n\t\n-3.0,4.0\n\n")
    ds = load_dataset(path)
    assert ds.y.tolist() == [1.5, -3.0]
    assert ds.X.tolist() == [[2.0], [4.0]]
    # line numbers still count the skipped lines
    path = write_csv(tmp_path, "y,x1\n1.5,2.0\n  \n-3.0,oops\n")
    with pytest.raises(ValueError, match=re.escape(path) + r":4: column x1: .*'oops'"):
        load_dataset(path)


def test_load_dataset_rejects_comment_lines(tmp_path):
    path = write_csv(tmp_path, "y,x1,x2\n1.0,2.0,3.0\n#1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match=re.escape(path) + r":3: column y: .*'#1.0'"):
        load_dataset(path)


def test_load_dataset_header_only_names_the_file(tmp_path):
    path = write_csv(tmp_path, "y,x1\n\n")
    with pytest.raises(ValueError, match=re.escape(path) + ": no data rows"):
        load_dataset(path)


def reference_save_dataset(dataset, path):
    """The per-row writer the numpy writer replaced: the byte reference."""
    cols = ["y"] + [f"x{i}" for i in range(1, dataset.d + 1)]
    lines = [",".join(cols)]
    for i in range(dataset.n):
        row = [format(float(dataset.y[i]), ".17g")]
        row += [format(float(v), ".17g") for v in dataset.X[i]]
        lines.append(",".join(row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


MAX = np.finfo(float).max
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -2.2250738585072014e-308,
            1e300, -1e300, 1e-300, -1e-300, MAX, -MAX, 0.1, 1 / 3]
FINITE = st.one_of(st.sampled_from(EXTREMES),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    return Dataset(X=draw(arrays(np.float64, (n, d), elements=FINITE)),
                   y=draw(arrays(np.float64, n, elements=FINITE)))


@settings(deadline=None)
@given(datasets())
def test_dataset_csv_round_trip_is_bit_exact(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ds.csv")
        ref = os.path.join(tmp, "ref.csv")
        save_dataset(ds, path)
        reference_save_dataset(ds, ref)
        with open(path, "rb") as a, open(ref, "rb") as b:
            assert a.read() == b.read()
        back = load_dataset(path)
    assert np.array_equal(back.X.view(np.int64), ds.X.view(np.int64))
    assert np.array_equal(back.y.view(np.int64), ds.y.view(np.int64))


@pytest.mark.parametrize("n", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 5])
def test_dataset_csv_written_in_blocks_matches_the_row_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    ds = Dataset(X=rng.standard_normal((n, 2)), y=rng.standard_normal(n))
    save_dataset(ds, str(tmp_path / "ds.csv"))
    reference_save_dataset(ds, str(tmp_path / "ref.csv"))
    assert (tmp_path / "ds.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("case", ["not-json", "format", "missing"])
def test_load_truth_errors_name_the_file(tmp_path, case):
    _, truth = generate_mlrc(two_component_spec(), CorruptionSpec(), n=20, seed=1)
    path = tmp_path / "t.truth.json"
    save_truth(truth, str(path))
    doc = json.loads(path.read_text())
    if case == "not-json":
        path.write_text("y,x1\n1,2\n")
        expected = "not a JSON document"
    elif case == "format":
        doc["format"] = "trimfit-recovery"
        path.write_text(json.dumps(doc))
        expected = "field format"
    else:
        del doc["r"]
        path.write_text(json.dumps(doc))
        expected = "missing field 'r'"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {expected}")):
        load_truth(str(path))


def instance_digest(ds, truth):
    h = hashlib.sha256()
    for a in (ds.X, ds.y, truth.theta_star, truth.partition, truth.corrupted, truth.r):
        h.update(a.tobytes())
    h.update(repr((truth.tau_star, truth.seed)).encode())
    return h.hexdigest()


PINNED_COVARIANCE = (np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.5]]), None,
                     np.diag([1.0, 3.0, 0.25]))

# (covariance, adversary, gamma_star) -> (generate_mlrc digest, inject_corruptions
# digest). Recorded before generation was restructured; they pin every RNG
# draw and its order. gamma_star 0.01 corrupts nothing at n = 97.
PINNED_DIGESTS = {
    (False, "none", 0.0): ("cd59958b61d733467dda72955c5eec764763a0a6fd647ed5edf51f1ce125630c",
                           "cd59958b61d733467dda72955c5eec764763a0a6fd647ed5edf51f1ce125630c"),
    (False, "oblivious-random", 0.3): (
        "492651703c39c198b25a356b469c3dfa79a01fca3c2bb7b6038bc091873b6771",
        "be159a04266c640bc98497fc1acc7af0e897a2a1c34f7f5e7d45bdf92b2082c8"),
    (False, "residual-targeted", 0.3): (
        "ba244196556d753fae1aa3df7849adedf7cb13abe57971469ae7a9d00cbba3d5",
        "7f0d4d133da9a4195650fe081ac6f15ccf901817d81de736b81dc1f5c6474683"),
    (False, "component-targeted", 0.3): (
        "0388a49d9a9a2e7a62744d9884201e99992e837d1bd1a38193d47b27bcf77755",
        "f070ce5a69193f3beb55c3a18005a132141685ee320bae7ba6c5969f6523d5e6"),
    (False, "oblivious-random", 0.01): (
        "cd59958b61d733467dda72955c5eec764763a0a6fd647ed5edf51f1ce125630c",
        "cd59958b61d733467dda72955c5eec764763a0a6fd647ed5edf51f1ce125630c"),
    (True, "none", 0.0): ("53fadf2e301911ceb9a2ea063cb597b2b20972a96261950b5c85c4232cfae22f",
                          "53fadf2e301911ceb9a2ea063cb597b2b20972a96261950b5c85c4232cfae22f"),
    (True, "oblivious-random", 0.3): (
        "67772260216f0502936607151a54162b21c371074d64bc427b99d6bb18368948",
        "a4ee76d864f918c4e85d147b2193f2246cfa5bcea74def11c23390e6a21aa71b"),
    (True, "residual-targeted", 0.3): (
        "1affbf681dc77ed352a05fdf6a7b5054f7e01b81cbfa8c1ec93d2c2fbc45e135",
        "7365c171ba59348bbb3044b3a5ef06982552e99303a622a1b7e80a03ba21bf5a"),
    (True, "component-targeted", 0.3): (
        "aa72dbf2dd2d54c87a237c290027abeb034a20605ccb76ffda85d15966c09748",
        "ee8ee1d14d90fb1ba2143e7eb29d161ab385ea30293f0de234009aedc780768b"),
    (True, "oblivious-random", 0.01): (
        "53fadf2e301911ceb9a2ea063cb597b2b20972a96261950b5c85c4232cfae22f",
        "53fadf2e301911ceb9a2ea063cb597b2b20972a96261950b5c85c4232cfae22f"),
}


@pytest.mark.parametrize("key", list(PINNED_DIGESTS), ids=lambda k: "-".join(map(str, k)))
def test_generation_matches_pinned_digests(key):
    with_cov, adversary, gamma = key
    spec = MixtureSpec(d=3, m=3, components=[[1.0, -2.0, 0.5], [0.0, 1.0, 3.0],
                                             [-1.5, 0.0, 1.0]],
                       weights=[0.5, 0.3, 0.2],
                       covariance=PINNED_COVARIANCE if with_cov else None)
    corr = CorruptionSpec(gamma_star=gamma, adversary=adversary, magnitude=2.0)
    clean = generate_mlrc(spec, CorruptionSpec(), n=97, seed=5)
    digests = (instance_digest(*generate_mlrc(spec, corr, n=97, seed=5)),
               instance_digest(*inject_corruptions(*clean, corr, seed=11)))
    assert digests == PINNED_DIGESTS[key]
