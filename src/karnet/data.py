"""Dataset ingestion, scaling, target encoding, and fold planning.

CSV files are numeric except for one designated label column whose values
(categorical or numeric) map to class indices in first-appearance order.
Clean numeric text is parsed by numpy's C reader; a file that reader might
read differently from ``csv.reader`` and ``float``, or rejects, goes through
a per-cell loop that names the bad row and column.  Features are scaled per
column into ``[eps, 1 - eps]`` so they live inside the activation domain;
scaling statistics always come from training data and are reapplied to
held-out data.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "Dataset",
    "FoldPlan",
    "load_csv",
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

    assignments: np.ndarray

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def load_csv(path, label_column: int, has_header: bool = False) -> Dataset:
    """Load a numeric CSV with one label column.

    Labels map to class indices in first-appearance order.  Ragged rows,
    non-numeric or non-finite feature cells, and empty cells raise
    DataError with the offending location (1-based, header included in the
    numbering).  The file is read once as UTF-8, a leading byte-order mark
    dropped.

    Two routes parse it, with bit-identical results.  Clean numeric text
    goes to numpy's C reader (``_parse_fast``).  Text that reader might
    split or convert differently from ``csv.reader`` plus ``float`` (a
    ``"`` or a NUL anywhere, a line as long as the csv field size limit),
    and any file it rejects or reads to a non-finite feature or an empty
    label, goes to the per-cell loop (``_parse_cells``).  That loop is the
    reference, and the only code that builds error messages.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    with fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot read {path}: not UTF-8 text ({exc})") from None
    x, names = (_parse_fast(text, label_column, has_header)
                or _parse_cells(text, path, label_column, has_header))
    label_map: dict[str, int] = {}
    lab = np.array([label_map.setdefault(n, len(label_map)) for n in names], dtype=np.intp)
    q = len(label_map)
    y = encode_one_vs_all(lab, q)
    return Dataset(x=x, y=y, labels=lab, class_count=q, class_names=list(label_map))


def _parse_fast(text: str, label_column: int, has_header: bool):
    """Features and stripped labels read by ``np.loadtxt``, or None where
    the per-cell loop must read the text instead."""
    if '"' in text or "\0" in text:  # csv quoting, and a NUL a C reader may end a cell at
        return None
    # universal newlines here only: csv.reader keeps a quoted cell's own line ends
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if max(map(len, lines)) >= csv.field_size_limit():
        return None
    body = lines[1:] if has_header else lines
    first = next((line for line in body if line), "")
    width = first.count(",") + 1
    if width < 2 or not -width <= label_column < width:
        return None
    label_column %= width
    dtype = [("left", np.float64, (label_column,)), ("label", object),
             ("right", np.float64, (width - label_column - 1,))]
    try:
        rows = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None,
                          quotechar=None, ndmin=1)
    except ValueError:
        return None
    x = np.concatenate([rows["left"], rows["right"]], axis=1)
    names = [cell.strip() for cell in rows["label"].tolist()]
    if not np.isfinite(x).all() or not all(names):
        return None
    return x, names


def _parse_cells(text: str, path, label_column: int, has_header: bool):
    """Features and stripped labels read cell by cell with ``csv.reader``
    and ``float``; raises DataError naming the first bad cell."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:  # e.g. a cell past the csv module's field size limit
        raise DataError(f"cannot read {path}: {exc}", row=reader.line_num) from None
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

    features, names = [], []
    for lineno, row in rows:
        if len(row) != width:
            raise DataError(f"ragged row: expected {width} cells, got {len(row)}", row=lineno)
        feats = []
        for j, cell in enumerate(row):
            cell = cell.strip()
            if j == label_column:
                if not cell:
                    raise DataError("empty label cell", row=lineno, column=j + 1)
                names.append(cell)
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
    return x, names


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
    return apply_scaling(ds, _fit_scaling(ds.x), epsilon)


def apply_scaling(ds: Dataset, scaling, epsilon: float) -> Dataset:
    """Rescale with previously fitted statistics; out-of-range values clamp."""
    if not 0.0 < epsilon < 0.5:
        raise ConfigError(f"scaling epsilon must be in (0, 0.5), got {epsilon}")
    return replace(ds, x=_apply(ds.x, list(scaling), epsilon), scaling=list(scaling))


def encode_one_vs_all(labels, q: int) -> np.ndarray:
    """Expand class indices to an (m, q) indicator target matrix."""
    lab = np.asarray(labels, dtype=np.intp)
    if lab.size and (lab.min() < 0 or lab.max() >= q):
        bad = int(lab.min() if lab.min() < 0 else lab.max())
        raise DataError(f"label {bad} outside [0, {q})")
    out = np.zeros((lab.size, q))
    out[np.arange(lab.size), lab] = 1.0
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
    return FoldPlan(assignments)


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
    """Row-subset a dataset; every field but the rows carries over."""
    idx = np.asarray(indices, dtype=np.intp)
    return replace(ds, x=ds.x[idx], y=ds.y[idx], labels=None if ds.labels is None else ds.labels[idx])


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
