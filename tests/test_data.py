"""Data pipeline tests: CSV parsing, scaling, encoding, folds, builtins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from karnet import (
    ConfigError,
    DataError,
    apply_scaling,
    encode_one_vs_all,
    load_csv,
    load_iris,
    make_xor,
    scale_minmax,
    stratified_folds,
)
from karnet.data import Dataset, iris_train_test_split, write_csv


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2,a\n3,4,b\n5,6,a\n")
        ds = load_csv(p, label_column=2)
        assert ds.n_samples == 3 and ds.n_features == 2
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.class_count == 2
        np.testing.assert_array_equal(ds.x, [[1, 2], [3, 4], [5, 6]])

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,label\n1,2,x\n")
        ds = load_csv(p, label_column=2, has_header=True)
        assert ds.n_samples == 1

    def test_ragged_row_names_location(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2,a\n3,4\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p, label_column=2)

    def test_non_numeric_feature_names_location(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2,a\n3,oops,b\n")
        with pytest.raises(DataError, match="row 2.*column 2"):
            load_csv(p, label_column=2)

    def test_missing_value_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,,a\n")
        with pytest.raises(DataError, match="missing feature"):
            load_csv(p, label_column=2)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(p, label_column=0)

    def test_label_only_file_has_no_feature_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a\nb\na\n")
        with pytest.raises(DataError, match="no feature column"):
            load_csv(p, label_column=-1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            load_csv(tmp_path / "nope.csv", label_column=0)

    def test_roundtrip_canonical(self, tmp_path):
        src = tmp_path / "src.csv"
        src.write_text("1.5,2,a\n3,4.25,b\n")
        ds = load_csv(src, label_column=2)
        back = tmp_path / "back.csv"
        write_csv(ds, back, label_names=["a", "b"])
        again = load_csv(back, label_column=2)
        np.testing.assert_array_equal(ds.x, again.x)
        np.testing.assert_array_equal(ds.labels, again.labels)


class TestScaling:
    def test_endpoint_mapping(self):
        ds = Dataset(x=np.array([[0.0], [10.0]]), y=np.zeros((2, 1)))
        out = scale_minmax(ds, 0.05)
        np.testing.assert_allclose(out.x, [[0.05], [0.95]])

    def test_constant_column_maps_to_half(self):
        ds = Dataset(x=np.full((4, 2), 3.0), y=np.zeros((4, 1)))
        out = scale_minmax(ds, 0.05)
        np.testing.assert_allclose(out.x, 0.5)

    def test_out_of_range_clamped_on_reuse(self):
        train = Dataset(x=np.array([[0.0], [10.0]]), y=np.zeros((2, 1)))
        fitted = scale_minmax(train, 0.05)
        test = Dataset(x=np.array([[-5.0], [20.0]]), y=np.zeros((2, 1)))
        out = apply_scaling(test, fitted.scaling, 0.05)
        np.testing.assert_allclose(out.x, [[0.05], [0.95]])

    def test_no_leakage_statistics_shared(self):
        """Held-out data is transformed with the training statistics."""
        rng = np.random.default_rng(0)
        train = Dataset(x=rng.normal(size=(20, 3)), y=np.zeros((20, 1)))
        test = Dataset(x=rng.normal(size=(10, 3)), y=np.zeros((10, 1)))
        fitted = scale_minmax(train, 0.01)
        reused = apply_scaling(test, fitted.scaling, 0.01)
        assert reused.scaling == fitted.scaling

    def test_bad_epsilon(self):
        ds = Dataset(x=np.ones((2, 1)), y=np.ones((2, 1)))
        with pytest.raises(ConfigError):
            scale_minmax(ds, 0.7)


# feature matrices up to 12 x 4 of finite values whose column ranges stay finite
_FEATURES = st.tuples(st.integers(1, 12), st.integers(1, 4)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-1e300, 1e300))
)
_EPSILONS = st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)


class TestScalingProperties:
    @settings(max_examples=200, deadline=None)
    @given(_FEATURES, _EPSILONS)
    def test_scale_minmax_is_idempotent(self, x, eps):
        """Scaled features already span [eps, 1 - eps], so scaling them again
        moves no value by more than a few ulps."""
        once = scale_minmax(Dataset(x=x, y=np.zeros((x.shape[0], 1))), eps)
        twice = scale_minmax(once, eps)
        np.testing.assert_array_max_ulp(twice.x, once.x, maxulp=4)

    @settings(max_examples=200, deadline=None)
    @given(_FEATURES, _EPSILONS)
    def test_apply_scaling_reproduces_the_fit_bitwise(self, x, eps):
        ds = Dataset(x=x, y=np.zeros((x.shape[0], 1)))
        fitted = scale_minmax(ds, eps)
        np.testing.assert_array_equal(apply_scaling(ds, fitted.scaling, eps).x, fitted.x)


class TestOneVsAll:
    def test_identity_for_distinct_labels(self):
        np.testing.assert_array_equal(encode_one_vs_all([0, 1, 2], 3), np.eye(3))

    def test_repeated_label(self):
        np.testing.assert_array_equal(
            encode_one_vs_all([1, 1], 2), [[0.0, 1.0], [0.0, 1.0]]
        )

    def test_custom_levels(self):
        out = encode_one_vs_all([0, 1], 2, low=0.1, high=0.9)
        np.testing.assert_allclose(out, [[0.9, 0.1], [0.1, 0.9]])

    def test_argmax_roundtrip(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, size=30)
        out = encode_one_vs_all(labels, 4)
        np.testing.assert_array_equal(np.argmax(out, axis=1), labels)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            encode_one_vs_all([0, 3], 3)


class TestStratifiedFolds:
    def test_iris_balanced(self):
        labels = np.repeat([0, 1, 2], 50)
        plan = stratified_folds(labels, 10, seed=0)
        for fold in range(10):
            idx = plan.test_indices(fold)
            assert len(idx) == 15
            counts = np.bincount(labels[idx], minlength=3)
            np.testing.assert_array_equal(counts, [5, 5, 5])

    def test_same_seed_identical(self):
        labels = np.repeat([0, 1], 17)
        a = stratified_folds(labels, 5, seed=3)
        b = stratified_folds(labels, 5, seed=3)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_two_classes_of_three_staggered(self):
        """Classes sized {3,3} at k=2 give folds sized {3,3} with per-class
        counts {2,1} and {1,2}: enumerated from the staggered round-robin."""
        labels = np.array([0, 0, 0, 1, 1, 1])
        plan = stratified_folds(labels, 2, seed=0)
        sizes = np.bincount(plan.assignments, minlength=2)
        np.testing.assert_array_equal(sizes, [3, 3])
        c0 = np.bincount(plan.assignments[labels == 0], minlength=2)
        c1 = np.bincount(plan.assignments[labels == 1], minlength=2)
        assert sorted(c0) == [1, 2] and sorted(c1) == [1, 2]
        assert c0[0] != c1[0]

    def test_partition_exactly_once(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 4, size=57)
        plan = stratified_folds(labels, 7, seed=9)
        seen = np.concatenate([plan.test_indices(f) for f in range(7)])
        np.testing.assert_array_equal(np.sort(seen), np.arange(57))

    def test_per_class_counts_within_one(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=47)
        k = 5
        plan = stratified_folds(labels, k, seed=1)
        for cls in range(3):
            counts = np.bincount(plan.assignments[labels == cls], minlength=k)
            assert counts.max() - counts.min() <= 1

    def test_k_exceeding_samples(self):
        with pytest.raises(ConfigError):
            stratified_folds([0, 1], 3, seed=0)


class TestBuiltins:
    def test_perturbed_xor_exact_values(self):
        ds = make_xor(perturbed=True)
        np.testing.assert_array_equal(
            ds.x,
            [[0.0, 0.0], [0.9991, 0.9991], [0.9990, 0.0], [0.0, 0.9990]],
        )
        np.testing.assert_array_equal(ds.y[:, 0], [0.0, 0.0, 1.0, 1.0])

    def test_ideal_xor_corners(self):
        ds = make_xor(perturbed=False)
        np.testing.assert_array_equal(
            ds.x, [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        )
        np.testing.assert_array_equal(ds.y[:, 0], [0.0, 0.0, 1.0, 1.0])

    def test_iris_shape(self):
        ds = load_iris()
        assert ds.x.shape == (150, 4)
        assert ds.class_count == 3
        np.testing.assert_array_equal(np.bincount(ds.labels), [50, 50, 50])

    def test_iris_split_first_thirty_per_class(self):
        ds = load_iris()
        train, test = iris_train_test_split(ds)
        assert train.n_samples == 90 and test.n_samples == 60
        np.testing.assert_array_equal(np.bincount(train.labels), [30, 30, 30])
        np.testing.assert_array_equal(train.x[0], ds.x[0])
