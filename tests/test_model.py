"""Generator and serialization tests."""

import re

import numpy as np
import pytest

from trimfit.model import (CorruptionSpec, Dataset, GroundTruth, MixtureSpec,
                           _allocate_counts, generate_mlrc, inject_corruptions,
                           load_dataset, load_truth, realized_gamma_star,
                           reconstruction_error, save_dataset, save_truth)


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
                    corrupted=np.zeros(2, dtype=bool), r=np.zeros(2),
                    tau_star=(0.5, 0.5))


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        Dataset(X=np.array([[1.0], [np.nan]]), y=np.array([0.0, 1.0]))


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
