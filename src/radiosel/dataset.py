"""Samples, CSV ingestion, and label/cost derivation from dual-radio traces.

A sample is (feature vector, radio label, misclassification cost in bps).
The cost of a trace record is the throughput the transmitter forfeits by
picking the slower radio, so zero-cost ties carry no training signal and
are dropped at labeling time.

The CSV readers read a file once and check each block of records, as it
is parsed, against one ordered table of rules per record kind. A block
comes as columns of cell strings. While every line of a block is a plain
record (the header's number of commas, no quote, CR or NUL), the block is
split on its commas; from the first block holding any other line (quoted
cells, CRLF line ends, blank lines, a wrong width) to the end of the file,
csv.reader reads the records. The writers' files are plain unless a node id
needs quoting.

The writers check their records against the readers' rules before they
create the file, and write each number as the text of '%.17g' % x,
an exact float round trip. A block of rows is laid out as a matrix of
8-byte words, one slot of whole words per cell, each slot the cell's text
and its ',' padded with the blank byte 0xFF. _format_numbers fills a
block's number slots in one numpy pass, without bignums (see _significand),
for 1e-4 <= |x| < 2**49, and with '%.17g' itself for any other x. UTF-8
text never holds the byte 0xFF, so node ids pass through, and one
bytes.translate that deletes it joins the block into its lines.
"""

from __future__ import annotations

import collections
import csv
import enum
import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ModelFormatError

FEATURE_NAMES = ("hn", "rssi", "prr", "rnp")

DATASET_HEADER = ("hn", "rssi", "prr", "rnp", "label", "cost")
TRACE_HEADER = ("node_id", "t", "tp_zigbee", "tp_lora", "hn", "rssi", "prr", "rnp")
TRACE_COLUMNS = TRACE_HEADER[1:]

# Records per block that the CSV readers parse and the writers format at a
# time: memory is the loaded arrays plus one block of cell strings.
CHUNK_ROWS = 2048


def feature_names(dim: int) -> tuple:
    """Names of dim feature columns: FEATURE_NAMES for the four
    selector-visible features, x0, x1, ... for any other width."""
    return FEATURE_NAMES if dim == len(FEATURE_NAMES) else tuple(f"x{j}" for j in range(dim))


def typed_like(field: str, value, default, error=DataError):
    """A scenario or model file's JSON value, typed like the field's default:
    a non-bool int, a finite real (as a float), or, for a tuple, a list of
    items typed like its first one (and as long, if that is a tuple). Else
    raises error(f"{field} must be <kind>, got <value>"); item i is f"{field}[{i}]"."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, tuple):
        width = len(default[0]) if isinstance(default[0], tuple) else None
        if isinstance(value, list) and all(
                len(v) == width if isinstance(v, list) else width is None for v in value):
            return tuple(typed_like(f"{field}[{i}]", v, default[0], error)
                         for i, v in enumerate(value))
        kind = (f"a list of {width}-number lists" if width else   # else a list fails by nesting
                "a flat list of numbers" if isinstance(value, list) else "a list of numbers")
    elif isinstance(default, int):
        kind = "an integer"
        if number and isinstance(value, int):
            return value
    else:
        kind = "a finite number"
        if number and abs(value) <= sys.float_info.max:   # not nan, inf or a huge int
            return float(value)
    raise error(f"{field} must be {kind}, got {value!r}")


def read_text(path, kind: str, error=DataError) -> str:
    """A scenario or model file's text; a missing file, or one that is not
    UTF-8, raises error naming the path."""
    path = Path(path)
    if not path.exists():
        raise error(f"no such {kind} file: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not a UTF-8 {kind} file: {e}") from e


class RadioClass(enum.IntEnum):
    """Binary radio label. Encoding fixed project-wide: Zigbee=0, Lora=1.
    The member names are the label text: ZIGBEE and LORA in emitted
    programs, lower case in dataset CSVs and selector names, and their
    first letter in tree signatures."""

    ZIGBEE = 0
    LORA = 1


# dataset CSV label word -> code, in code order: save_dataset indexes the words by code
_LABEL_CODES = {radio.name.lower(): int(radio) for radio in RadioClass}
_UNKNOWN_LABEL = ("unknown radio label {!r} (expected "
                  + " or ".join(map(repr, _LABEL_CODES)) + ")")


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
    def from_dict(cls, d) -> "Scaler":
        """A model file's scaler: mean and std lists of finite numbers, std > 0."""
        if not isinstance(d, dict):
            raise ModelFormatError(f"malformed model field 'scaler' must be an object, got {d!r}")
        mean, std = (np.array(typed_like(f"model scaler {key}", d.get(key),
                                         (0.0,), ModelFormatError)) for key in ("mean", "std"))
        if mean.shape != std.shape or not np.all(std > 0):
            raise ModelFormatError("model scaler mean and std must be of one length, std > 0")
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
        finite = np.isfinite(self.X)
        if not finite.all():
            i, j = np.argwhere(~finite)[0]   # the first bad row, then its first bad column
            raise DataError(f"row {i}: non-finite feature value "
                            f"{feature_names(self.dim)[j]}={float(self.X[i, j])}")
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
        return Dataset(self.X[idx], self.y[idx], self.c[idx], scaler=self.scaler)


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


def _feature_rules(hn, rssi, prr, rnp) -> list:
    """The feature rules of a record, in the order a row is checked: pairs
    of a bad-row mask over the columns and the message of a failing row,
    given its index in the file and in the columns."""
    finite = np.isfinite(hn) & np.isfinite(rssi) & np.isfinite(prr) & np.isfinite(rnp)
    return [(~finite, lambda i, j: f"row {i}: non-finite feature value"),
            (hn < 1, lambda i, j: f"row {i}: hn must be >= 1, got {float(hn[j])}"),
            (~((prr >= 0.0) & (prr <= 1.0)),
             lambda i, j: f"row {i}: prr must be in [0,1], got {float(prr[j])}"),
            (rnp < 1, lambda i, j: f"row {i}: rnp must be >= 1, got {float(rnp[j])}")]


def _trace_rules(t, tpz, tpl, features, parse_times=(), parse_features=()) -> list:
    """The rules of a trace record, in the order a row is checked, with the
    reader's parse rules of the time and feature columns in their place."""
    return [*parse_times,
            (~(np.isfinite(tpz) & np.isfinite(tpl)) | (tpz < 0) | (tpl < 0),
             lambda i, j: f"row {i}: throughputs must be finite and >= 0"),
            *parse_features, *_feature_rules(*features),
            (~np.isfinite(t), lambda i, j: f"row {i}: t must be finite, got {float(t[j])}")]


def _order_error(names, node, t, error) -> tuple[int, str] | None:
    """The first of error and the first row whose t is below its node's
    previous row's t; on one row, the row's own checks win."""
    order = np.argsort(node, kind="stable")
    prev, cur = order[:-1], order[1:]
    decreases = cur[(node[cur] == node[prev]) & (t[cur] < t[prev])]
    if decreases.size:
        i = int(decreases.min())
        if error is None or i < error[0]:
            error = i, f"row {i}: t decreases for node {names[node[i]]}"
    return error


def _first_error(rules, start: int = 0) -> tuple[int, str] | None:
    """(row, message) of the first row that fails one of the rules, with
    the message of the first rule it fails, or None if every row passes.
    start is the file index of the columns' first row."""
    failures = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(rules) if bad.any()]
    if not failures:
        return None
    j, k = min(failures)
    return start + j, rules[k][1](start + j, j)


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


def _plain_columns(lines, width: int) -> list | None:
    """Columns of cell strings of lines that are all plain records, or None
    if one is not. A plain record has width - 1 commas, holds no '"', '\\r'
    or NUL (which csv.reader rejects before Python 3.11) and is no longer
    than csv.field_size_limit(), so csv.reader would split it on its commas
    into the same cells. Only the columns outlive the call."""
    n = len(lines)
    if (max(map(len, lines)) > csv.field_size_limit()
            or list(map(str.count, lines, itertools.repeat(",", n))).count(width - 1) != n):
        return None
    text = "".join(lines)
    if '"' in text or "\r" in text or "\0" in text:
        return None
    cells = text.replace("\n", ",").split(",")
    return [cells[k:width * n:width] for k in range(width)]


def _read_blocks(path, expected_header):
    """Data records of a CSV whose header must be expected_header, yielded
    as columns of cell strings, in blocks of at most CHUNK_ROWS records
    read from the file.

    The header is read by csv.reader. Then each block of CHUNK_ROWS lines
    is split on its commas while every line in it is a plain record (see
    _plain_columns). From the first block that holds another line (quoted
    cells, CRLF line ends, blank lines, a wrong width, a very long line) to
    the end of the file, records come from csv.reader, blank ones skipped.

    Errors are raised only once the whole file is read, in the order a
    whole-file reader reports them: a decode or CSV syntax error anywhere,
    then an empty file or a bad header, then the first record of the wrong
    width, indexed among all records after the header, blank lines
    included. Nothing is yielded after a header or width error, so a
    caller sees no block of a file that will fail."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    width = len(expected_header)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader, before = csv.reader(fh), 0   # before: lines read ahead of the reader's first
        try:
            error = _header_error(path, next(reader, None), expected_header)
            start = 0
            if error is None:
                while lines := list(itertools.islice(fh, CHUNK_ROWS)):
                    columns = _plain_columns(lines, width)
                    if columns is None:
                        before = reader.line_num + start   # one line per plain record
                        reader = csv.reader(itertools.chain(lines, fh))
                        break
                    start += len(lines)
                    del lines
                    yield columns
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
                    yield list(zip(*kept))
                start += len(records)
            collections.deque(reader, maxlen=0)  # a later decode or syntax error comes first
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not a UTF-8 CSV file: {e}") from e
        except csv.Error as e:
            raise DataError(f"{path}: malformed CSV at line {before + reader.line_num}: "
                            f"{e}") from e
    if error is not None:
        raise error


def _parse_columns(names, cells_by_column) -> tuple[list[np.ndarray], list]:
    """float() of every cell of each named column, cells that float()
    rejects reading as NaN, and the parse rule of each column that holds
    such a cell: the mask of those rows and the message naming the cell."""
    n = len(cells_by_column[0])
    columns, rules = [], []
    for name, cells in zip(names, cells_by_column):
        try:
            columns.append(np.fromiter(map(float, cells), dtype=float, count=n))
        except ValueError:
            values, bad = np.full(n, np.nan), np.zeros(n, dtype=bool)
            for j, s in enumerate(cells):
                try:
                    values[j] = float(s)
                except ValueError:
                    bad[j] = True
            columns.append(values)
            rules.append((bad, lambda i, j, name=name, cells=cells:
                          f"row {i}: cannot parse {name}={cells[j]!r} as number"))
    return columns, rules


def load_dataset(path) -> Dataset:
    """Read a `hn,rssi,prr,rnp,label,cost` CSV into a Dataset.

    Features are returned raw; `standardize` fits and applies a z-scaler.
    The file is read once, one block of records at a time, and each block
    is checked against the rules while its cells are at hand: the error
    names the first failing row and its first failed check.
    """
    blocks, error, start = [], None, 0
    for *feature_cells, labels, cost_cells in _read_blocks(path, DATASET_HEADER):
        if error is not None:
            continue   # _read_blocks still reads on: its errors come first
        features, parse_features = _parse_columns(FEATURE_NAMES, feature_cells)
        (c,), parse_cost = _parse_columns(("cost",), (cost_cells,))
        codes = {s: _LABEL_CODES.get(s.strip().lower(), -1) for s in set(labels)}
        y = np.fromiter(map(codes.__getitem__, labels), dtype=int, count=len(labels))
        error = _first_error([
            *parse_features, *_feature_rules(*features), *parse_cost,
            (~np.isfinite(c) | (c <= 0),
             lambda i, j: f"row {i}: cost must be finite and > 0, got {cost_cells[j]}"),
            (y < 0, lambda i, j: _UNKNOWN_LABEL.format(labels[j]))], start)
        blocks.append((*features, c, y))
        start += len(labels)
        del feature_cells, labels, cost_cells   # before the next block is read
    if not blocks:
        raise DataError(f"{path}: empty dataset")
    if error is not None:
        raise DataError(error[1])
    blocks = [list(parts) for parts in zip(*blocks)]   # by column, each dropped once joined
    hn, rssi, prr, rnp, c, y = (np.concatenate(blocks.pop(0)) for _ in DATASET_HEADER)
    return Dataset(np.column_stack((hn, rssi, prr, rnp)), y, c)


def save_dataset(ds: Dataset, path) -> None:
    """Write a Dataset as CSV, one block of rows at a time. The file holds
    the raw FEATURE_NAMES features, so a standardized Dataset is rejected,
    and so is one of another width or whose features load_dataset would
    reject; no file is created then."""
    if ds.scaler is not None:
        raise DataError("cannot save a standardized dataset: dataset CSVs hold raw features")
    if ds.dim != len(FEATURE_NAMES):
        raise DataError(f"dataset CSVs hold the features {','.join(FEATURE_NAMES)}, got {ds.dim}")
    error = _first_error(_feature_rules(*ds.X.T))
    if error is not None:
        raise DataError(error[1])
    labels = _text_words(list(_LABEL_CODES))
    features = len(FEATURE_NAMES) * _SLOT_WORDS
    with Path(path).open("wb") as fh:
        fh.write(",".join(DATASET_HEADER).encode() + b"\n")
        for lo in range(0, ds.n, CHUNK_ROWS):
            rows = slice(lo, lo + CHUNK_ROWS)
            y = ds.y[rows]
            block = _line_block(y.size, features + labels.shape[1] + _SLOT_WORDS)
            _format_numbers(ds.X[rows], block[:, :features].reshape(y.size, -1, _SLOT_WORDS))
            block[:, features:-_SLOT_WORDS] = labels[y]
            _format_numbers(ds.c[rows, None], block[:, None, -_SLOT_WORDS:])
            _write_lines(fh, block)


def load_traces(path) -> Trace:
    """Read a `node_id,t,tp_zigbee,tp_lora,hn,rssi,prr,rnp` trace CSV.

    Node ids are stripped and coded in order of first appearance. Checks
    run as in load_dataset, except "t decreases", which spans blocks and is
    checked on the joined rows, after the row's own checks.
    """
    names: dict[str, int] = {}
    blocks, error, start = [], None, 0
    for node_cells, *cells in _read_blocks(path, TRACE_HEADER):
        if error is not None:
            continue
        codes = dict.fromkeys(node_cells)
        for s in codes:
            codes[s] = names.setdefault(s.strip(), len(names))
        node = np.fromiter(map(codes.__getitem__, node_cells), dtype=np.intp,
                           count=len(node_cells))
        (t, tpz, tpl), parse_times = _parse_columns(TRACE_COLUMNS[:3], cells[:3])
        features, parse_features = _parse_columns(FEATURE_NAMES, cells[3:])
        error = _first_error(_trace_rules(t, tpz, tpl, features, parse_times, parse_features),
                             start)
        blocks.append((node, t, tpz, tpl, *features))
        start += len(node_cells)
        del node_cells, cells   # before the next block is read
    if not blocks:
        raise DataError(f"{path}: empty trace file")
    blocks = [list(parts) for parts in zip(*blocks)]   # by column, each dropped once joined
    node, t, *columns = (np.concatenate(blocks.pop(0)) for _ in TRACE_HEADER)
    error = _order_error(list(names), node, t, error)
    if error is not None:
        raise DataError(error[1])
    return Trace(tuple(names), node, t, *columns)


def csv_cell(text: str) -> str:
    """text as a CSV cell, quoted as csv.QUOTE_MINIMAL quotes it: in double
    quotes, with each one doubled, if it holds a comma, quote, CR or LF."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def save_traces(traces: Trace, path) -> None:
    """Write a trace as CSV, one block of rows at a time, node ids quoted
    by csv_cell. A trace that load_traces would reject is rejected with its
    message, and so is a node id with leading or trailing whitespace, which
    load_traces would strip; no file is created then."""
    for s in traces.names:
        if s != s.strip():
            raise DataError(f"node id {s!r} has leading or trailing whitespace, "
                            f"which the trace reader strips")
    features = (traces.hn, traces.rssi, traces.prr, traces.rnp)
    error = _first_error(_trace_rules(traces.t, traces.tp_zigbee, traces.tp_lora, features))
    ids, codes = np.unique(np.array(traces.names, dtype=object), return_inverse=True)
    error = _order_error(ids, codes[traces.node], traces.t, error)   # by name, as read
    if error is not None:
        raise DataError(error[1])
    names = _text_words([csv_cell(s) for s in traces.names])
    lead = names.shape[1]
    with Path(path).open("wb") as fh:
        fh.write(",".join(TRACE_HEADER).encode() + b"\n")
        for lo in range(0, len(traces), CHUNK_ROWS):
            rows = slice(lo, lo + CHUNK_ROWS)
            node = traces.node[rows]
            block = _line_block(node.size, lead + len(TRACE_COLUMNS) * _SLOT_WORDS)
            block[:, :lead] = names[node]
            _format_numbers(np.column_stack([getattr(traces, c)[rows] for c in TRACE_COLUMNS]),
                            block[:, lead:].reshape(node.size, -1, _SLOT_WORDS))
            _write_lines(fh, block)


# ---------- CSV number text ----------
_WORD = np.dtype("<u8")   # byte i of a slot word is its bits 8i to 8i + 7
_BLANK = b"\xff"
_SLOT_WORDS = 5   # of a number slot: see _number_tables


def _number_tables() -> tuple:
    """The tables of _format_numbers. A number slot is 40 bytes: the sign,
    "0.000", digit 0 of N, then the point slot after each digit i = 0-15
    and digit i + 1; the last point slot holds the ','.

    _PAIRS[g]: the 4 digits of g, each followed by a point.
    _LAST[i, g]: of the digits 4i + 1 to 4i + 4 of N, if they are the digits
    of g, the last nonzero one, or 0.
    _SLOTS[:, 17 * (k + 4) + last]: for k = floor(log10 |v|) in [-4, 14] and
    the last nonzero digit of N, the slot's first word, sign and digit 0
    blank, then 4 masks or-ed onto _PAIRS that blank the digits after
    max(k, last) and every point slot but the point's."""
    digits = (np.arange(10_000, dtype=np.uint16)[:, None]
              // np.array([1000, 100, 10, 1], np.uint16) % 10).astype(np.uint8)
    pairs = np.full((10_000, 8), ord("."), np.uint8)
    pairs[:, ::2] = digits + ord("0")
    last = np.max(np.where(digits > 0, np.arange(1, 5, dtype=np.uint8), 0), axis=1)
    last = np.where(last > 0, last + 4 * np.arange(4, dtype=np.uint8)[:, None], 0)
    k, last_digit, at = np.ogrid[-4:15, :17, :40]   # at: a byte of the slot
    digit = (at - 6) // 2   # at an even byte from 6, or its point slot at the odd byte after
    shown = np.where(at < 6, (at == 0) | (k < 0) & (at <= 1 - k),
                     np.where(at % 2 == 0, digit <= np.maximum(k, last_digit),
                              (digit == k) & (last_digit > k)))
    slots = np.where(shown, np.frombuffer(b"\xff0.000\xff." + bytes(32), np.uint8), 0xFF)
    slots = slots.astype(np.uint8).reshape(-1, 40).view(_WORD)
    return pairs.view(_WORD).ravel(), last, np.ascontiguousarray(slots.T)


_PAIRS, _LAST, _SLOTS = _number_tables()
_POW5 = 5 ** np.arange(22, dtype=np.uint64)
_POW10 = np.array([float(10 ** q) for q in range(22)])   # exact


def _significand(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """N = a * 10**(16 - k) rounded half to even, exactly, for a in
    [1e-4, 2**49) and k within one of floor(log10(a)).

    With a = m * 2**(e - 53), m its 53-bit significand, the product is
    m * 5**q / 2**r for q = 16 - k and r = 37 - e + k, a shift in (0, 64).
    The float estimate rint(a * 10**q) is a few units off at most, so the
    remainder m * 5**q - estimate * 2**r, which wraps in uint64, is exact
    as an int64: its magnitude stays far below 2**63."""
    m, e = np.frexp(a)
    q = 16 - k
    n = np.rint(a * _POW10.take(q)).astype(np.uint64)
    r = (37 - e + k).view(np.uint64)
    del e
    m *= 2.0 ** 53
    rem = m.astype(np.uint64)
    del m
    rem *= _POW5.take(q)
    rem -= n << r
    rem, r, n = rem.view(np.int64), r.view(np.int64), n.view(np.int64)
    rem += (n + (rem >> r)) & 1     # round half to even: a tie of an odd floor goes up
    n += (rem + (1 << (r - 1)) - 1) >> r
    return n


def _format_numbers(x: np.ndarray, out: np.ndarray) -> None:
    """Write the text of '%.17g' % v for each value v of x into its number
    slot, the x.shape + (_SLOT_WORDS,) word array out.

    For 1e-4 <= |v| < 2**49, %g prints fixed-point text: the 17 significant
    digits of N = _significand(|v|, k), k = floor(log10 |v|), the point after
    digit k, or "0." and -k - 1 zeros ahead of them for k < 0, then trailing
    fraction zeros dropped, and the point with them if no digit follows.
    Any other v (zeros, subnormals, tiny or huge values, inf, NaN) is
    formatted by '%.17g' itself, one at a time."""
    a = np.abs(x)
    slow = np.nonzero(~((a >= 1e-4) & (a < 2.0 ** 49)))
    a[slow] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    n = _significand(a, k)
    off = np.nonzero((n < 10 ** 16) | (n >= 10 ** 17))   # log10 rounded across 10**k
    k[off] += np.where(n[off] < 10 ** 16, -1, 1)
    n[off] = _significand(a[off], k[off])
    del a
    hi = n // 10 ** 8
    lo = (n - hi * 10 ** 8).astype(np.int32)   # int32 divides faster
    del n
    hi = hi.astype(np.int32)
    first = hi // 10 ** 8
    hi -= first * 10 ** 8
    groups = []   # digits 1-4, 5-8, 9-12 and 13-16 of N
    for part in (hi, lo):
        high = part // 10 ** 4
        groups += [high, part - high * 10 ** 4]
    del hi, lo
    last = _LAST[0].take(groups[0])
    for i in (1, 2, 3):
        np.maximum(last, _LAST[i].take(groups[i]), out=last)
    slot = 17 * (k + 4) + last
    del k, last
    out[..., 0] = _SLOTS[0].take(slot)
    for i, group in enumerate(groups, 1):
        np.bitwise_or(_PAIRS.take(group), _SLOTS[i].take(slot), out=out[..., i])
    # a blank byte becomes c when xor-ed with 0xFF ^ c
    out[..., 0] ^= (first.astype(np.uint64) ^ (0xFF ^ ord("0"))) << 48
    out[..., 0] ^= (x < 0) * np.uint64(0xFF ^ ord("-"))
    out[..., -1] ^= np.uint64(0xFF ^ ord(",")) << 56
    for i in zip(*slow):
        out[i] = np.frombuffer(("%.17g" % x[i]).encode().ljust(39, _BLANK) + b",", _WORD)


def _text_words(texts) -> np.ndarray:
    """Slots of texts: a row of words per text, its UTF-8 bytes and ','
    padded with blanks to a whole number of words."""
    encoded = [s.encode() + b"," for s in texts]
    width = -(-max(map(len, encoded), default=0) // 8)
    return np.frombuffer(b"".join(b.ljust(8 * width, _BLANK) for b in encoded),
                         _WORD).reshape(len(encoded), width)


def _line_block(rows: int, width: int) -> np.ndarray:
    """A (rows, width) word matrix of cell slots over a bytearray, its base."""
    return np.ndarray((rows, width), _WORD, bytearray(8 * rows * width))


def _write_lines(fh, block: np.ndarray) -> None:
    """Write a line per row of a _line_block: its last ',' becomes '\n'."""
    block.view(np.uint8)[:, -1] = ord("\n")
    fh.write(block.base.translate(None, _BLANK))


def label_traces(traces: Trace) -> Dataset:
    """Derive labels and costs from realized throughputs.

    Label = radio with the higher throughput; cost = |tp_zigbee - tp_lora|.
    Ties (cost 0) carry no training signal and are dropped.
    """
    if not len(traces):
        raise DataError("no trace records")
    diff = traces.tp_zigbee - traces.tp_lora
    keep = diff != 0.0
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
    for name, s in zip(feature_names(ds.dim), std):
        if s <= 0:
            raise DataError(f"constant feature column {name!r}: cannot standardize")
    scaler = Scaler(mean=mean, std=std)
    return Dataset(scaler.transform(ds.X), ds.y.copy(), ds.c.copy(), scaler=scaler)


def _stratified_counts(n: int, fractions) -> list[int]:
    # Largest-remainder apportionment; ties go to the earlier part.
    exact = [f * n for f in fractions]
    counts = [int(math.floor(e)) for e in exact]
    short = n - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def _class_permutations(y: np.ndarray, seed: int) -> tuple:
    """The stratified draw that every partition below cuts: the row indices
    of class 0, then of class 1, each permuted by one default_rng(seed) in
    that order."""
    rng = np.random.default_rng(seed)
    return tuple(members[rng.permutation(members.size)]
                 for members in (np.flatnonzero(y == 0), np.flatnonzero(y == 1)))


def split(ds: Dataset, fractions=(0.6, 0.2, 0.2), seed: int = 0) -> tuple:
    """Deterministic stratified split into len(fractions) disjoint parts:
    part p joins each class's p-th chunk of its permutation."""
    fractions = tuple(float(f) for f in fractions)
    if not all(math.isfinite(f) and f > 0 for f in fractions):
        raise DataError(f"fractions must be finite and positive, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError(f"fractions must sum to 1, got {sum(fractions)}")
    chunks = []
    for cls, perm in enumerate(_class_permutations(ds.y, seed)):
        if perm.size == 0:
            continue
        counts = _stratified_counts(perm.size, fractions)
        if any(k == 0 for k in counts):
            raise DataError(f"class {cls} stratum empty in one split part "
                            f"(have {perm.size} samples for fractions {fractions})")
        chunks.append(np.split(perm, np.cumsum(counts)[:-1]))
    return tuple(ds.subset(np.sort(np.concatenate(part))) for part in zip(*chunks))


def stratified_kfold_indices(ds: Dataset, k: int, seed: int = 0) -> list[np.ndarray]:
    """Index arrays of k disjoint stratified folds covering the dataset.

    The folds deal the class permutations, concatenated, round robin, so
    the classes' samples spread over the folds in turn.
    k == N (leave-one-out) is allowed as a boundary case; otherwise each
    class present needs >= k samples.
    """
    if k < 2:
        raise DataError("k must be >= 2")
    if k > ds.n:
        raise DataError(f"k={k} exceeds dataset size {ds.n}")
    if k != ds.n:
        for cls, count in enumerate(np.bincount(ds.y, minlength=2)):
            if 0 < count < k:
                raise DataError(f"class {cls} has {count} samples, fewer than k={k}")
    order = np.concatenate(_class_permutations(ds.y, seed))
    return [np.sort(order[i::k]) for i in range(k)]


def nested_subsets(ds: Dataset, fractions, seed: int) -> list[np.ndarray]:
    """Index arrays of growing stratified subsets, one per fraction: f takes
    the first ceil(f * n_c) of each class's permutation, so each subset
    holds the ones before it and keeps every class present."""
    fractions = [float(f) for f in fractions]
    if not (fractions and fractions[0] > 0 and abs(fractions[-1] - 1.0) <= 1e-12
            and all(a < b for a, b in zip(fractions, fractions[1:]))):
        # for f < 0, ceil(f * n) is a negative slice bound: it takes rows from the end
        raise DataError(f"fractions must rise strictly from above 0 to 1.0, got {fractions}")
    per_class = _class_permutations(ds.y, seed)
    return [np.sort(np.concatenate([members[:math.ceil(f * members.size)]
                                    for members in per_class]))
            for f in fractions]
