"""Samples, CSV ingestion, and label/cost derivation from dual-radio traces.

A sample is (feature vector, radio label, misclassification cost in bps).
The cost of a trace record is the throughput the transmitter forfeits by
picking the slower radio, so zero-cost ties carry no training signal and
are dropped at labeling time.
"""

from __future__ import annotations

import collections
import csv
import enum
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

FEATURE_NAMES = ("hn", "rssi", "prr", "rnp")

DATASET_HEADER = ("hn", "rssi", "prr", "rnp", "label", "cost")
TRACE_HEADER = ("node_id", "t", "tp_zigbee", "tp_lora", "hn", "rssi", "prr", "rnp")
TRACE_COLUMNS = TRACE_HEADER[1:]

# CSV rows at 17 significant digits: an exact float round trip
_DATASET_ROW = "%.17g,%.17g,%.17g,%.17g,%s,%.17g\n"
_TRACE_ROW = "%s" + ",%.17g" * len(TRACE_COLUMNS) + "\n"
_LABEL_CODES = {"zigbee": 0, "lora": 1}
# Records per block that the CSV readers parse and the writers format at a
# time: memory is the loaded arrays plus one block of cell strings.
CHUNK_ROWS = 2048


class RadioClass(enum.IntEnum):
    """Binary radio label. Encoding fixed project-wide: Zigbee=0, Lora=1."""

    ZIGBEE = 0
    LORA = 1

    @classmethod
    def from_name(cls, name: str) -> "RadioClass":
        code = _LABEL_CODES.get(name.strip().lower())
        if code is None:
            raise DataError(f"unknown radio label {name!r} (expected 'zigbee' or 'lora')")
        return cls(code)


@dataclass(frozen=True)
class Scaler:
    """Per-feature affine standardization x -> (x - mean) / std."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std

    def inverse(self, X: np.ndarray) -> np.ndarray:
        return X * self.std + self.mean

    def to_dict(self) -> dict:
        return {"mean": [float(v) for v in self.mean], "std": [float(v) for v in self.std]}

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        mean = np.asarray(d["mean"], dtype=float)
        std = np.asarray(d["std"], dtype=float)
        if mean.shape != std.shape or mean.ndim != 1:
            raise DataError("scaler mean/std must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std)) and np.all(std > 0)):
            raise DataError("scaler entries must be finite with std > 0")
        return cls(mean=mean, std=std)


@dataclass
class Dataset:
    """Column-oriented sample store.

    X is (N, D) float64, y is (N,) int labels in {0,1}, c is (N,) positive
    costs in bps. A non-None ``scaler`` means X already holds standardized
    features and records the transform that produced them.
    """

    X: np.ndarray
    y: np.ndarray
    c: np.ndarray
    feature_names: tuple = FEATURE_NAMES
    scaler: Scaler | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        self.c = np.asarray(self.c, dtype=float)
        if self.X.ndim != 2:
            raise DataError("X must be 2-d")
        n = self.X.shape[0]
        if n < 1:
            raise DataError("empty dataset")
        if self.y.shape != (n,) or self.c.shape != (n,):
            raise DataError("X, y, c length mismatch")
        if not np.all(np.isfinite(self.X)):
            raise DataError("non-finite feature value")
        if not np.all((self.y == 0) | (self.y == 1)):
            raise DataError("labels must be 0/1")
        if not np.all(np.isfinite(self.c) & (self.c > 0)):
            raise DataError("costs must be finite and > 0")
        with np.errstate(over="ignore"):
            total = float(np.add.reduce(self.c))
        if not math.isfinite(total):
            raise DataError("costs sum past the float range: rescale them")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.X[idx], self.y[idx], self.c[idx],
                       feature_names=self.feature_names, scaler=self.scaler)


@dataclass(eq=False)
class Trace:
    """Columnar dual-radio trace, one row per scheduled transmission.

    ``node`` holds integer codes into the ``names`` table. Every other
    column is a float64 array of the same length: send time, both radios'
    realized throughputs, and the selector-visible features at send time.
    Equality is exact and row by row: the same node name and ``==`` on
    every float column, so 0.0 equals -0.0 and NaN equals nothing.
    """

    names: tuple
    node: np.ndarray
    t: np.ndarray
    tp_zigbee: np.ndarray
    tp_lora: np.ndarray
    hn: np.ndarray
    rssi: np.ndarray
    prr: np.ndarray
    rnp: np.ndarray

    def __post_init__(self):
        self.names = tuple(self.names)
        self.node = np.asarray(self.node, dtype=np.intp)
        if self.node.ndim != 1:
            raise DataError("trace node codes must be 1-d")
        for col in TRACE_COLUMNS:
            values = np.asarray(getattr(self, col), dtype=float)
            if values.shape != self.node.shape:
                raise DataError(f"trace column {col} has shape {values.shape}, "
                                f"node codes {self.node.shape}")
            setattr(self, col, values)
        if len(self) and (self.node.min() < 0 or self.node.max() >= len(self.names)):
            raise DataError("trace node code outside the name table")

    def __len__(self) -> int:
        return self.node.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (len(self) == len(other)
                and np.array_equal(self.node_ids(), other.node_ids())
                and all(np.array_equal(getattr(self, c), getattr(other, c))
                        for c in TRACE_COLUMNS))

    def node_ids(self) -> np.ndarray:
        """Node name of every row."""
        return np.asarray(self.names, dtype=object)[self.node]

    def features(self) -> np.ndarray:
        """(N, 4) selector-visible feature matrix, columns in FEATURE_NAMES order."""
        return np.column_stack((self.hn, self.rssi, self.prr, self.rnp))


def _bad_features(hn, rssi, prr, rnp) -> np.ndarray:
    """Row mask of the failures _check_feature_row reports."""
    finite = np.isfinite(hn) & np.isfinite(rssi) & np.isfinite(prr) & np.isfinite(rnp)
    return ~finite | (hn < 1) | ~((prr >= 0.0) & (prr <= 1.0)) | (rnp < 1)


def _check_feature_row(hn: float, rssi: float, prr: float, rnp: float, row: int) -> None:
    vals = (hn, rssi, prr, rnp)
    if not all(math.isfinite(v) for v in vals):
        raise DataError(f"row {row}: non-finite feature value")
    if hn < 1:
        raise DataError(f"row {row}: hn must be >= 1, got {hn}")
    if not (0.0 <= prr <= 1.0):
        raise DataError(f"row {row}: prr must be in [0,1], got {prr}")
    if rnp < 1:
        raise DataError(f"row {row}: rnp must be >= 1, got {rnp}")


def _header_error(path: Path, header, expected_header) -> DataError | None:
    """What is wrong with a file's first record as its header, if anything."""
    if header is None:
        return DataError(f"{path}: empty file, expected header {','.join(expected_header)}")
    header = [h.strip() for h in header]
    missing = [c for c in expected_header if c not in header]
    extra = [c for c in header if c not in expected_header]
    if missing:
        return DataError(f"{path}: missing column {missing[0]!r}")
    if extra:
        return DataError(f"{path}: unexpected column {extra[0]!r}")
    if tuple(header) != tuple(expected_header):
        return DataError(f"{path}: columns must be ordered {','.join(expected_header)}")
    return None


def _read_blocks(path, expected_header):
    """Data records of a CSV whose header must be expected_header, yielded
    in blocks of at most CHUNK_ROWS records read from the file.

    Blank lines are skipped. Errors are raised only once the whole file is
    read, in the order a whole-file reader reports them: a decode or CSV
    syntax error anywhere, then an empty file or a bad header, then the
    first record of the wrong width, indexed among all records after the
    header, blank lines included. Nothing is yielded after a header or
    width error, so a caller sees no block of a file that will fail."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    width = len(expected_header)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            error = _header_error(path, next(reader, None), expected_header)
            start = 0
            while error is None and (records := list(itertools.islice(reader, CHUNK_ROWS))):
                kept = []
                for i, raw in enumerate(records, start):
                    if len(raw) == width:
                        kept.append(raw)
                    elif raw and (len(raw) > 1 or raw[0].strip()):  # not a blank line
                        error = DataError(f"{path}: row {i}: expected {width} fields, "
                                          f"got {len(raw)}")
                        break
                if kept and error is None:
                    yield kept
                start += len(records)
            collections.deque(reader, maxlen=0)  # a later decode or syntax error comes first
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not a UTF-8 CSV file: {e}") from e
        except csv.Error as e:
            raise DataError(f"{path}: malformed CSV at line {reader.line_num}: {e}") from e
    if error is not None:
        raise error


def _read_record(path, expected_header, row: int) -> list[str]:
    """Data record `row` (blank lines skipped) of a file that read without
    error, read again from the file: the error path's lookup, so that no
    block outlives its parsing."""
    for block in _read_blocks(path, expected_header):
        if row < len(block):
            return block[row]
        row -= len(block)
    raise DataError(f"{path}: file changed while reading")


def _parse_float(s: str, row: int, col: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise DataError(f"row {row}: cannot parse {col}={s!r} as number")


def _parse_columns(cells_by_column) -> tuple[list[np.ndarray], np.ndarray]:
    """float() of every cell of each column, and the mask of rows holding a
    cell that float() rejects; rejected cells read as NaN."""
    n = len(cells_by_column[0])
    columns, bad = [], np.zeros(n, dtype=bool)
    for cells in cells_by_column:
        try:
            columns.append(np.fromiter(map(float, cells), dtype=float, count=n))
        except ValueError:
            values = np.full(n, np.nan)
            for i, s in enumerate(cells):
                try:
                    values[i] = float(s)
                except ValueError:
                    bad[i] = True
            columns.append(values)
    return columns, bad


def _check_dataset_row(raw, i: int) -> None:
    """The checks of one dataset record, in the order they report errors."""
    hn, rssi, prr, rnp = (_parse_float(s, i, col) for s, col in zip(raw[:4], FEATURE_NAMES))
    _check_feature_row(hn, rssi, prr, rnp, i)
    cost = _parse_float(raw[5], i, "cost")
    if not math.isfinite(cost) or cost <= 0:
        raise DataError(f"row {i}: cost must be finite and > 0, got {raw[5]}")
    RadioClass.from_name(raw[4])


def load_dataset(path) -> Dataset:
    """Read a `hn,rssi,prr,rnp,label,cost` CSV into a Dataset.

    Features are returned raw; `standardize` fits and applies a z-scaler.
    The file is parsed one block of records at a time. The checks run on
    whole columns; the first failing row is then read again and checked
    alone, so the error names that row and its first failed check.
    """
    blocks = []
    for records in _read_blocks(path, DATASET_HEADER):
        hn, rssi, prr, rnp, labels, cost = zip(*records)
        columns, bad = _parse_columns((hn, rssi, prr, rnp, cost))
        codes = {s: _LABEL_CODES.get(s.strip().lower(), -1) for s in set(labels)}
        y = np.fromiter(map(codes.__getitem__, labels), dtype=int, count=len(labels))
        blocks.append((*columns, y, bad))
    if not blocks:
        raise DataError(f"{path}: empty dataset")
    hn, rssi, prr, rnp, c, y, bad = (np.concatenate(parts) for parts in zip(*blocks))
    del blocks
    bad |= _bad_features(hn, rssi, prr, rnp) | ~np.isfinite(c) | (c <= 0) | (y < 0)
    if bad.any():
        i = int(np.argmax(bad))
        _check_dataset_row(_read_record(path, DATASET_HEADER, i), i)
    return Dataset(np.column_stack((hn, rssi, prr, rnp)), y, c)


def save_dataset(ds: Dataset, path) -> None:
    """Write a Dataset as CSV, one block of rows at a time. The file holds
    raw features, so a standardized Dataset is rejected, and so is one whose
    features load_dataset would reject; no file is created then."""
    if ds.scaler is not None:
        raise DataError("cannot save a standardized dataset: dataset CSVs hold raw features")
    bad = _bad_features(*ds.X.T)
    if bad.any():
        i = int(np.argmax(bad))
        _check_feature_row(*ds.X[i].tolist(), i)
    path = Path(path)
    label_names = np.array(["zigbee", "lora"], dtype=object)
    with path.open("w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(DATASET_HEADER) + "\n")
        for lo in range(0, ds.n, CHUNK_ROWS):
            rows = slice(lo, lo + CHUNK_ROWS)
            fh.writelines(map(_DATASET_ROW.__mod__,
                              zip(*ds.X[rows].T.tolist(), label_names[ds.y[rows]].tolist(),
                                  ds.c[rows].tolist())))


def _check_trace_row(raw, i: int, prev_t: float | None) -> None:
    """The checks of one trace record, in the order they report errors;
    prev_t is the time of the node's previous record, if any."""
    t = _parse_float(raw[1], i, "t")
    tpz = _parse_float(raw[2], i, "tp_zigbee")
    tpl = _parse_float(raw[3], i, "tp_lora")
    if not (math.isfinite(tpz) and math.isfinite(tpl)) or tpz < 0 or tpl < 0:
        raise DataError(f"row {i}: throughputs must be finite and >= 0")
    hn, rssi, prr, rnp = (_parse_float(s, i, col) for s, col in zip(raw[4:], FEATURE_NAMES))
    _check_feature_row(hn, rssi, prr, rnp, i)
    if not math.isfinite(t):
        raise DataError(f"row {i}: t must be finite, got {t}")
    if prev_t is not None and t < prev_t:
        raise DataError(f"row {i}: t decreases for node {raw[0].strip()}")


def load_traces(path) -> Trace:
    """Read a `node_id,t,tp_zigbee,tp_lora,hn,rssi,prr,rnp` trace CSV.

    Node ids are stripped and coded in order of first appearance. As in
    load_dataset, blocks of records are parsed as they are read, and the
    first failing row is read again and checked alone to name the error.
    """
    names: dict[str, int] = {}
    blocks = []
    for records in _read_blocks(path, TRACE_HEADER):
        node_cells, *cells = zip(*records)
        node = np.fromiter((names.setdefault(s.strip(), len(names)) for s in node_cells),
                           dtype=np.intp, count=len(node_cells))
        columns, bad = _parse_columns(cells)
        blocks.append((node, *columns, bad))
    if not blocks:
        raise DataError(f"{path}: empty trace file")
    node, *columns, bad = (np.concatenate(parts) for parts in zip(*blocks))
    del blocks
    t, tpz, tpl, hn, rssi, prr, rnp = columns
    bad |= ~(np.isfinite(tpz) & np.isfinite(tpl)) | (tpz < 0) | (tpl < 0)
    bad |= _bad_features(hn, rssi, prr, rnp) | ~np.isfinite(t)
    # a row is out of order when its t is below the node's previous row's t
    order = np.argsort(node, kind="stable")
    prev, cur = order[:-1], order[1:]
    bad[cur[(node[cur] == node[prev]) & (t[cur] < t[prev])]] = True
    if bad.any():
        i = int(np.argmax(bad))
        earlier = np.flatnonzero(node[:i] == node[i])
        _check_trace_row(_read_record(path, TRACE_HEADER, i), i,
                         float(t[earlier[-1]]) if earlier.size else None)
    return Trace(tuple(names), node, *columns)


def save_traces(traces: Trace, path) -> None:
    """Write a trace as CSV, one block of rows at a time."""
    path = Path(path)
    names = np.asarray(traces.names, dtype=object)
    with path.open("w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        for lo in range(0, len(traces), CHUNK_ROWS):
            rows = slice(lo, lo + CHUNK_ROWS)
            fh.writelines(map(_TRACE_ROW.__mod__,
                              zip(names[traces.node[rows]].tolist(),
                                  *(getattr(traces, c)[rows].tolist() for c in TRACE_COLUMNS))))


def label_traces(traces: Trace, tie_policy: str = "drop") -> Dataset:
    """Derive labels and costs from realized throughputs.

    Label = radio with the higher throughput; cost = |tp_zigbee - tp_lora|.
    Ties (cost 0) are dropped under the default policy or rejected under
    tie_policy="error".
    """
    if not len(traces):
        raise DataError("no trace records")
    if tie_policy not in ("drop", "error"):
        raise DataError(f"unknown tie policy {tie_policy!r}")
    diff = traces.tp_zigbee - traces.tp_lora
    tie = diff == 0.0
    if tie_policy == "error" and tie.any():
        i = int(np.argmax(tie))
        raise DataError(f"tied throughputs at node {traces.names[traces.node[i]]}, "
                        f"t={float(traces.t[i])}")
    keep = ~tie
    if not keep.any():
        raise DataError("all trace records tied: empty dataset")
    diff = diff[keep]
    y = np.where(diff > 0, int(RadioClass.ZIGBEE), int(RadioClass.LORA))
    return Dataset(traces.features()[keep], y, np.abs(diff))


def standardize(ds: Dataset) -> Dataset:
    """Z-score every feature column (population std) and store the scaler."""
    if ds.scaler is not None:
        raise DataError("dataset already standardized")
    mean = ds.X.mean(axis=0)
    std = ds.X.std(axis=0)
    for j, s in enumerate(std):
        if s <= 0:
            raise DataError(f"constant feature column {ds.feature_names[j]!r}: cannot standardize")
    scaler = Scaler(mean=mean, std=std)
    return Dataset(scaler.transform(ds.X), ds.y.copy(), ds.c.copy(),
                   feature_names=ds.feature_names, scaler=scaler)


def _stratified_counts(n: int, fractions) -> list[int]:
    # Largest-remainder apportionment; ties go to the earlier part.
    exact = [f * n for f in fractions]
    counts = [int(math.floor(e)) for e in exact]
    short = n - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def split(ds: Dataset, fractions=(0.6, 0.2, 0.2), seed: int = 0) -> tuple:
    """Deterministic stratified split into len(fractions) disjoint parts."""
    fractions = tuple(float(f) for f in fractions)
    if any(f <= 0 for f in fractions):
        raise DataError("fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError(f"fractions must sum to 1, got {sum(fractions)}")
    rng = np.random.default_rng(seed)
    part_idx: list[list[int]] = [[] for _ in fractions]
    for cls in (0, 1):
        members = np.flatnonzero(ds.y == cls)
        if members.size == 0:
            continue
        perm = members[rng.permutation(members.size)]
        counts = _stratified_counts(perm.size, fractions)
        if any(k == 0 for k in counts):
            raise DataError(f"class {cls} stratum empty in one split part "
                            f"(have {perm.size} samples for fractions {fractions})")
        start = 0
        for p, k in enumerate(counts):
            part_idx[p].extend(perm[start:start + k].tolist())
            start += k
    parts = []
    for idx in part_idx:
        idx.sort()
        parts.append(ds.subset(np.array(idx, dtype=int)))
    return tuple(parts)


def stratified_kfold_indices(ds: Dataset, k: int, seed: int = 0) -> list[np.ndarray]:
    """Index arrays of k disjoint stratified folds covering the dataset."""
    if k < 2:
        raise DataError("k must be >= 2")
    if k > ds.n:
        raise DataError(f"k={k} exceeds dataset size {ds.n}")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for cls in (0, 1):
        members = np.flatnonzero(ds.y == cls)
        perm = members[rng.permutation(members.size)]
        # offset staggers classes so small-class samples spread over folds
        for i, idx in enumerate(perm):
            folds[(i + offset) % k].append(int(idx))
        offset += members.size
    return [np.array(sorted(f), dtype=int) for f in folds]
