"""Data pipeline tests: CSV parsing, scaling, encoding, folds, builtins."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from karnet import (
    ConfigError,
    DataError,
    DimensionError,
    apply_scaling,
    encode_one_vs_all,
    load_csv,
    load_iris,
    make_xor,
    scale_minmax,
    stratified_folds,
)
from karnet import data
from karnet.data import Dataset, iris_train_test_split


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


# cells on which numpy's reader and float() might disagree, and clean ones
_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_NUMBERS = st.one_of(
    _FLOATS,
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["1_0", "\u0661\u0662", "nan", "-inf", "Infinity", "1e400", "-0",
                     "0x10", "1e", ".5", "5.", "+3", "abc", ""]),
)
_NAMES = st.sampled_from(["a", "b", "c", " a", "b ", "1.5", "\u00e9"])
_BAD_NAMES = st.sampled_from(["", " ", "a\x00"])
_PADS = st.sampled_from(["", " ", "  ", "\t", "\x0c", "\u3000"])
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def _cells(values, messy, quoted):
    pads = _PADS | st.just("\x00") if messy else _PADS
    cells = st.tuples(pads, values, pads).map("".join)
    return cells | cells.map(lambda c: f'"{c}"') if quoted else cells


@st.composite
def _csv_texts(draw):
    """CSV text with label column index and header flag.  Files are clean
    numeric text or messy (malformed and NUL-padded cells, ragged rows,
    whitespace-only lines), each with or without quoted cells.  All kinds
    mix line ends and blank lines, and may have a header, which is a data
    row half the time, and a byte-order mark."""
    messy, quoted = draw(st.booleans()), draw(st.booleans())
    width = draw(st.integers(2, 5))
    label = draw(st.sampled_from([0, width // 2, width - 1]))
    names = _NAMES | _BAD_NAMES if messy else _NAMES
    number = _cells(_NUMBERS if messy else _FLOATS, messy, quoted)
    name = _cells(names | st.just("a,b") if quoted else names, messy, quoted)

    def row(n):
        return ",".join(draw(name if j == label else number) for j in range(n))

    kinds = ["row"] * 6 + ["blank"] + (["ragged", "space"] if messy else [])
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        else:
            lines.append(row(width + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)))
    has_header = draw(st.booleans())
    if has_header:
        lines.insert(0, row(width) if draw(st.booleans()) else ",".join(f"h{j}" for j in range(width)))
    text = "".join(line + draw(_ENDS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    label_column = draw(st.sampled_from([label, label - width]))
    return text, label_column, has_header


def _load_outcome(path, label_column, has_header):
    """What ``load_csv`` gives: x's bytes, shape, labels and class names, or
    the type and message of the error it raises."""
    try:
        ds = load_csv(path, label_column, has_header)
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)
    return ds.x.dtype, ds.x.shape, ds.x.tobytes(), ds.labels.tolist(), ds.class_names


class TestLoadCsvRoutes:
    """numpy's reader takes clean numeric text; everything else, and every
    error, goes to the per-cell loop, which is the reference."""

    def test_clean_file_takes_the_fast_route(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        ds = Dataset(x=rng.normal(size=(1000, 4)), y=np.zeros((1000, 1)),
                     labels=rng.integers(0, 3, 1000))
        p = tmp_path / "t.csv"
        p.write_text("".join(",".join(map(repr, row)) + ",{}\n".format("cab"[c])
                             for row, c in zip(ds.x.tolist(), ds.labels.tolist())))

        def refuse(*args):
            raise AssertionError("the per-cell loop read a clean file")

        monkeypatch.setattr(data, "_parse_cells", refuse)
        got = load_csv(p, label_column=-1)
        assert got.x.tobytes() == ds.x.tobytes()
        assert got.class_names == [["c", "a", "b"][i] for i in dict.fromkeys(ds.labels)]

    @pytest.mark.parametrize(
        "text, x, names",
        [
            ('1,2,"a,b"\n3,4,c\n', [[1, 2], [3, 4]], ["a,b", "c"]),
            ("1_0,2,a\n", [[10, 2]], ["a"]),
            ("\u0661\u0662,2,a\n", [[12, 2]], ["a"]),
            ("0.1,0.2,a\x00b\n0.3,0.4,c\n", [[0.1, 0.2], [0.3, 0.4]], ["a\x00b", "c"]),
        ],
        ids=["quoted-label", "underscore", "arabic-digits", "nul-in-label"],
    )
    def test_fallback_loads_as_before(self, tmp_path, text, x, names):
        p = tmp_path / "t.csv"
        p.write_text(text, encoding="utf-8")
        ds = load_csv(p, label_column=2)
        np.testing.assert_array_equal(ds.x, x)
        assert ds.class_names == names

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.1,0.2,a\n0.3,nan,b\n", "non-finite feature cell 'nan' (row 2, column 2)"),
            ("0.1,0\x00.2,a\n", "non-numeric feature cell '0\\x00.2' (row 1, column 2)"),
            ("0.1,0.2,a\n0.3, ,b\n", "missing feature value (row 2, column 2)"),
            ("0.1,0.2, \n", "empty label cell (row 1, column 3)"),
        ],
        ids=["nan", "nul-in-feature", "blank-feature", "blank-label"],
    )
    def test_fallback_names_the_bad_cell(self, tmp_path, text, message):
        p = tmp_path / "t.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_csv(p, label_column=2)
        assert str(info.value) == message

    @settings(max_examples=400, deadline=None)
    @given(_csv_texts())
    @example(("0.5,a\r1.5,b\r", -1, False))  # CR line ends
    @example(('0.5,"a"\n', 1, False))  # a quoted label
    @example(("0.5,1.5\n2.5,a\n", -1, True))  # a header numpy could parse
    @example(("\ufeff0.5,a\r\n", 1, False))  # a byte-order mark
    def test_fast_route_matches_the_per_cell_reference(self, case):
        """On generated CSV text, ``load_csv`` returns what the per-cell
        loop alone returns, bit for bit, or raises the same error."""
        text, label_column, has_header = case
        fast = data._parse_fast(text.removeprefix("\ufeff"), label_column, has_header)
        event("fast route" if fast else "per-cell loop")
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "t.csv"
            p.write_text(text, encoding="utf-8", newline="")
            got = _load_outcome(p, label_column, has_header)
            with mock.patch.object(data, "_parse_fast", return_value=None):
                want = _load_outcome(p, label_column, has_header)
        assert got == want


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

    @pytest.mark.parametrize("scaling, error", [
        pytest.param([(0.0, 10.0)] * 2, DimensionError, id="2-of-4"),
        pytest.param([(0.0, 10.0)] * 6, DimensionError, id="6-of-4"),
        pytest.param([(-np.inf, np.inf)] * 4, DataError, id="infinite"),
        pytest.param([(0.0, 10.0)] * 3 + [(0.0, np.nan)], DataError, id="nan"),
    ])
    def test_scaling_needs_one_finite_pair_per_feature(self, scaling, error):
        """Iris has 4 features: another count is not filled from empty
        memory or an index error, and a non-finite bound is not scaled to NaN."""
        with pytest.raises(error):
            apply_scaling(load_iris(), scaling, 0.01)


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
            idx = np.flatnonzero(plan == fold)
            assert len(idx) == 15
            counts = np.bincount(labels[idx], minlength=3)
            np.testing.assert_array_equal(counts, [5, 5, 5])

    def test_same_seed_identical(self):
        labels = np.repeat([0, 1], 17)
        a = stratified_folds(labels, 5, seed=3)
        b = stratified_folds(labels, 5, seed=3)
        assert a.dtype == np.intp and a.shape == labels.shape  # each sample's fold
        np.testing.assert_array_equal(a, b)

    def test_two_classes_of_three_staggered(self):
        """Classes sized {3,3} at k=2 give folds sized {3,3} with per-class
        counts {2,1} and {1,2}: enumerated from the staggered round-robin."""
        labels = np.array([0, 0, 0, 1, 1, 1])
        plan = stratified_folds(labels, 2, seed=0)
        sizes = np.bincount(plan, minlength=2)
        np.testing.assert_array_equal(sizes, [3, 3])
        c0 = np.bincount(plan[labels == 0], minlength=2)
        c1 = np.bincount(plan[labels == 1], minlength=2)
        assert sorted(c0) == [1, 2] and sorted(c1) == [1, 2]
        assert c0[0] != c1[0]

    def test_partition_exactly_once(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 4, size=57)
        plan = stratified_folds(labels, 7, seed=9)
        seen = np.concatenate([np.flatnonzero(plan == f) for f in range(7)])
        np.testing.assert_array_equal(np.sort(seen), np.arange(57))

    def test_per_class_counts_within_one(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=47)
        k = 5
        plan = stratified_folds(labels, k, seed=1)
        for cls in range(3):
            counts = np.bincount(plan[labels == cls], minlength=k)
            assert counts.max() - counts.min() <= 1

    def test_k_exceeding_samples(self):
        with pytest.raises(ConfigError):
            stratified_folds([0, 1], 3, seed=0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, 1, 0])
    def test_k_not_an_integer_from_two_to_the_samples_is_config_error(self, k):
        """2.5 folds would otherwise number iris's folds 0 to 2, sized 60/60/30."""
        with pytest.raises(ConfigError, match="^folds must be an integer from 2 to the sample count 150"):
            stratified_folds(load_iris().labels, k, seed=0)

    def test_numpy_integer_k_gives_the_same_folds(self):
        labels = load_iris().labels
        np.testing.assert_array_equal(stratified_folds(labels, np.int64(3), seed=0),
                                      stratified_folds(labels, 3, seed=0))


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

    def test_split_rows_keeps_every_field_but_the_rows(self):
        ds = scale_minmax(load_iris(), 0.01)
        part = data.split_rows(ds, [0, 60, 149])
        assert part.scaling == ds.scaling
        assert part.class_count == 3
        assert part.class_names == ds.class_names
        np.testing.assert_array_equal(part.x, ds.x[[0, 60, 149]])
        np.testing.assert_array_equal(part.y, ds.y[[0, 60, 149]])
        np.testing.assert_array_equal(part.labels, [0, 1, 2])

    def test_iris_split_first_thirty_per_class(self):
        ds = load_iris()
        train, test = iris_train_test_split(ds)
        assert train.n_samples == 90 and test.n_samples == 60
        np.testing.assert_array_equal(np.bincount(train.labels), [30, 30, 30])
        np.testing.assert_array_equal(train.x[0], ds.x[0])
