"""Dataset ingestion, scaling, target encoding, and fold planning.

CSV files are numeric except for one designated label column whose values
(categorical or numeric) map to class indices in first-appearance order.
Features are scaled per column into ``[eps, 1 - eps]`` so they live inside
the activation domain; scaling statistics always come from training data
and are reapplied to held-out data.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "Dataset",
    "FoldPlan",
    "load_csv",
    "write_csv",
    "scale_minmax",
    "apply_scaling",
    "encode_one_vs_all",
    "stratified_folds",
    "make_xor",
    "load_iris",
    "split_rows",
    "iris_train_test_split",
    "reorder_classes",
]

XOR_POINTS = np.array(
    [[0.0, 0.0], [0.9991, 0.9991], [0.9990, 0.0], [0.0, 0.9990]]
)
XOR_TARGETS = np.array([[0.0], [0.0], [1.0], [1.0]])


@dataclass
class Dataset:
    """Feature matrix, target matrix, and optional class labels.

    ``class_count`` is 0 for regression targets.  ``scaling`` holds the
    per-column (min, max) pairs the features were scaled with, when they
    have been.  ``class_names`` lists a CSV's label values by class index.
    """

    x: np.ndarray
    y: np.ndarray
    labels: np.ndarray | None = None
    scaling: list[tuple[float, float]] | None = None
    class_count: int = 0
    class_names: list[str] | None = None

    def __post_init__(self):
        if self.x.shape[0] != self.y.shape[0]:
            raise DataError(
                f"x has {self.x.shape[0]} rows but y has {self.y.shape[0]}"
            )
        if self.labels is not None and len(self.labels) != self.x.shape[0]:
            raise DataError(
                f"labels length {len(self.labels)} != {self.x.shape[0]} rows"
            )

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class FoldPlan:
    """Fold index per sample for k-fold splitting."""

    k: int
    assignments: np.ndarray
    seed: int

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def load_csv(path, label_column: int, has_header: bool = False) -> Dataset:
    """Load a numeric CSV with one label column.

    Labels map to class indices in first-appearance order.  Ragged rows,
    non-numeric or non-finite feature cells, and empty cells raise
    DataError with the offending location (1-based, header included in the
    numbering).
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    with fh:
        rows = list(csv.reader(fh))
    if has_header and rows:
        rows = rows[1:]
    offset = 2 if has_header else 1
    rows = [(i + offset, r) for i, r in enumerate(rows) if r]
    if not rows:
        raise DataError(f"{path}: no data rows")

    width = len(rows[0][1])
    if width < 2:
        raise DataError(f"{path}: no feature column, only a label")
    if not -width <= label_column < width:
        raise ConfigError(f"label column {label_column} out of range for width {width}")
    label_column %= width

    features, labels = [], []
    label_map: dict[str, int] = {}
    for lineno, row in rows:
        if len(row) != width:
            raise DataError(f"ragged row: expected {width} cells, got {len(row)}", row=lineno)
        feats = []
        for j, cell in enumerate(row):
            cell = cell.strip()
            if j == label_column:
                if not cell:
                    raise DataError("empty label cell", row=lineno, column=j + 1)
                labels.append(label_map.setdefault(cell, len(label_map)))
                continue
            if not cell:
                raise DataError("missing feature value", row=lineno, column=j + 1)
            try:
                feats.append(float(cell))
            except ValueError:
                raise DataError(
                    f"non-numeric feature cell {cell!r}", row=lineno, column=j + 1
                ) from None
        features.append(feats)

    x = np.asarray(features, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        col = j + (j >= label_column)
        lineno, row = rows[i]
        raise DataError(
            f"non-finite feature cell {row[col].strip()!r}", row=lineno, column=col + 1
        )
    lab = np.asarray(labels, dtype=np.intp)
    q = len(label_map)
    y = encode_one_vs_all(lab, q)
    return Dataset(x=x, y=y, labels=lab, class_count=q, class_names=list(label_map))


def write_csv(ds: Dataset, path, label_names: list[str] | None = None) -> None:
    """Write features plus trailing label column in canonical form."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        for i in range(ds.n_samples):
            row = [repr(float(v)) for v in ds.x[i]]
            if ds.labels is not None:
                lab = int(ds.labels[i])
                row.append(label_names[lab] if label_names else str(lab))
            out.writerow(row)


def _fit_scaling(x: np.ndarray) -> list[tuple[float, float]]:
    return [(float(c.min()), float(c.max())) for c in x.T]


def _apply(x: np.ndarray, scaling, epsilon: float) -> np.ndarray:
    out = np.empty_like(x)
    for j, (lo, hi) in enumerate(scaling):
        if hi / 2 > lo / 2:  # halves: a span past the largest double cannot overflow
            out[:, j] = epsilon + (x[:, j] / 2 - lo / 2) / (hi / 2 - lo / 2) * (1.0 - 2.0 * epsilon)
        else:
            out[:, j] = 0.5  # constant column
    return np.clip(out, epsilon, 1.0 - epsilon)


def scale_minmax(ds: Dataset, epsilon: float) -> Dataset:
    """Affinely map each feature from its own (min, max) onto [eps, 1-eps].

    Constant columns map to 0.5.  The fitted statistics are stored on the
    returned dataset for reuse on held-out folds.
    """
    if not 0.0 < epsilon < 0.5:
        raise ConfigError(f"scaling epsilon must be in (0, 0.5), got {epsilon}")
    scaling = _fit_scaling(ds.x)
    return replace(ds, x=_apply(ds.x, scaling, epsilon), scaling=scaling)


def apply_scaling(ds: Dataset, scaling, epsilon: float) -> Dataset:
    """Rescale with previously fitted statistics; out-of-range values clamp."""
    if not 0.0 < epsilon < 0.5:
        raise ConfigError(f"scaling epsilon must be in (0, 0.5), got {epsilon}")
    return replace(ds, x=_apply(ds.x, list(scaling), epsilon), scaling=list(scaling))


def encode_one_vs_all(labels, q: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """Expand class indices to an (m, q) indicator target matrix."""
    lab = np.asarray(labels, dtype=np.intp)
    if lab.size and (lab.min() < 0 or lab.max() >= q):
        bad = int(lab.min() if lab.min() < 0 else lab.max())
        raise DataError(f"label {bad} outside [0, {q})")
    out = np.full((lab.size, q), low, dtype=np.float64)
    out[np.arange(lab.size), lab] = high
    return out


def stratified_folds(labels, k: int, seed: int) -> FoldPlan:
    """Per-class round-robin fold assignment after a seeded shuffle.

    Classes start their round-robin where the previous class left off, so
    fold sizes also balance across classes.  Per-fold class counts differ
    from perfect stratification by at most one.
    """
    lab = np.asarray(labels, dtype=np.intp)
    m = lab.size
    if k < 2:
        raise ConfigError(f"need k >= 2 folds, got {k}")
    if k > m:
        raise ConfigError(f"k={k} folds exceed {m} samples")
    rng = np.random.default_rng(seed)
    assignments = np.empty(m, dtype=np.intp)
    offset = 0
    for cls in np.unique(lab):
        idx = np.flatnonzero(lab == cls)
        rng.shuffle(idx)
        for i, sample in enumerate(idx):
            assignments[sample] = (offset + i) % k
        offset = (offset + len(idx)) % k
    return FoldPlan(k=k, assignments=assignments, seed=seed)


def make_xor(perturbed: bool = True) -> Dataset:
    """The four exclusive-or points with targets (0, 0, 1, 1).

    The perturbed variant nudges three corners slightly off the unit square
    to break the symmetry that makes the augmented input matrix degenerate.
    """
    if perturbed:
        x = XOR_POINTS.copy()
    else:
        x = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    return Dataset(
        x=x,
        y=XOR_TARGETS.copy(),
        labels=np.array([0, 0, 1, 1], dtype=np.intp),
        class_count=2,
    )


def load_iris() -> Dataset:
    """The 150-sample, 4-feature, 3-class iris data shipped with the package."""
    path = resources.files("karnet").joinpath("data/iris.csv")
    with resources.as_file(path) as p:
        return load_csv(p, label_column=4, has_header=True)


def split_rows(ds: Dataset, indices) -> Dataset:
    """Row-subset a dataset, keeping labels and class count."""
    idx = np.asarray(indices, dtype=np.intp)
    return Dataset(
        x=ds.x[idx],
        y=ds.y[idx],
        labels=None if ds.labels is None else ds.labels[idx],
        scaling=ds.scaling,
        class_count=ds.class_count,
        class_names=ds.class_names,
    )


def iris_train_test_split(ds: Dataset) -> tuple[Dataset, Dataset]:
    """Deterministic 90/60 split: the first 30 rows of each class in file
    order train, the rest test."""
    if ds.labels is None:
        raise ConfigError("split requires class labels")
    train_idx = []
    seen: dict[int, int] = {}
    for i, lab in enumerate(ds.labels):
        c = int(lab)
        if seen.get(c, 0) < 30:
            train_idx.append(i)
            seen[c] = seen.get(c, 0) + 1
    test_idx = sorted(set(range(ds.n_samples)) - set(train_idx))
    return split_rows(ds, train_idx), split_rows(ds, test_idx)


def reorder_classes(ds: Dataset, classes: list[str]) -> Dataset:
    """Renumber a CSV dataset's classes (``class_names`` set) to follow
    ``classes`` by name.

    A class name that ``classes`` does not list raises DataError.
    """
    names = ds.class_names
    for name in names:
        if name not in classes:
            raise DataError(f"class {name!r} is not one of the trained classes {classes}")
    labels = np.array([classes.index(n) for n in names], dtype=np.intp)[ds.labels]
    return replace(
        ds,
        y=encode_one_vs_all(labels, len(classes)),
        labels=labels,
        class_count=len(classes),
        class_names=list(classes),
    )
