"""Samples, CSV ingestion, and label/cost derivation from dual-radio traces.

A sample is (feature vector, radio label, misclassification cost in bps).
The cost of a trace record is the throughput the transmitter forfeits by
picking the slower radio, so zero-cost ties carry no training signal and
are dropped at labeling time.

The CSV readers read a file once and check each block of records, as it
is parsed, against one ordered table of rules per record kind. A block
comes as columns: a text column (node id, label) as its distinct cells and
each row's index among them, a number column as the float() of each cell.
A reader reads the file in binary, into one reused window. While every
line of a block is a plain record (the header's number of commas, no
quote, CR or NUL), the block is parsed from the file's bytes: numpy finds
the separators, and _number_cells converts every number cell of the
block in one pass, exactly, in 8-byte words. It settles a cell
-?digits[.digits] of at most 8 integer and 19 digits in all once it has
proved the float, and leaves every other cell (exponents, nan, blanks, a
'+', more digits) to float() itself, so values and messages are float()'s.
From the first block holding any other line (quoted cells, CRLF line ends,
blank lines, a wrong width) to the end of the file, the file is read in
text mode: csv.reader reads the records and float() parses their number
cells. A decode or CSV syntax error is the one that a whole-file text read
from the start reports. The writers' files are plain unless a node id
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

import codecs
import collections
import csv
import enum
import functools
import io
import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import DataError, ModelFormatError

FEATURE_NAMES = ("hn", "rssi", "prr", "rnp")

DATASET_HEADER = ("hn", "rssi", "prr", "rnp", "label", "cost")
TRACE_HEADER = ("node_id", "t", "tp_zigbee", "tp_lora", "hn", "rssi", "prr", "rnp")
TRACE_COLUMNS = TRACE_HEADER[1:]
_TEXT_COLUMNS = ("node_id", "label")   # the readers parse every other column as numbers

# Records per block that the CSV readers parse and the writers format at a
# time: memory is the loaded arrays plus one block of cells.
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


class _Numbers(NamedTuple):
    """A block's number column: float() of each cell, NaN where float()
    rejects the cell (bad), and cell(j), the text of cell j."""

    name: str
    values: np.ndarray
    bad: np.ndarray
    cell: Callable[[int], str]

    def parse_rule(self) -> tuple:
        """The rule of the cells float() rejects: their mask and message."""
        return self.bad, lambda i, j: (f"row {i}: cannot parse {self.name}={self.cell(j)!r} "
                                       f"as number")


def _floats(texts) -> tuple[np.ndarray, np.ndarray]:
    """float() of each text, NaN where float() raises, and the mask of those."""
    n = len(texts)
    try:
        return np.fromiter(map(float, texts), dtype=float, count=n), np.zeros(n, dtype=bool)
    except ValueError:
        values, bad = np.full(n, np.nan), np.zeros(n, dtype=bool)
        for j, s in enumerate(texts):
            try:
                values[j] = float(s)
            except ValueError:
                bad[j] = True
        return values, bad


def _distinct(cells) -> tuple[list, np.ndarray]:
    """The distinct cells in order of first appearance, and the index of
    each cell among them."""
    index = {s: k for k, s in enumerate(dict.fromkeys(cells))}
    return list(index), np.fromiter(map(index.__getitem__, cells), dtype=np.intp,
                                    count=len(cells))


def _record_block(header, records) -> list:
    """A block's columns from csv.reader records of the header's width: a
    text column as _distinct's pair, a number column as _Numbers."""
    return [_distinct(cells) if name in _TEXT_COLUMNS
            else _Numbers(name, *_floats(cells), cells.__getitem__)
            for name, cells in zip(header, zip(*records))]


def _cell_text(b: np.ndarray, starts, ends, j: int) -> str:
    """The text of cell j of the cells b[starts:ends]."""
    return b[starts[j]:ends[j]].tobytes().decode()


_NOT_PLAIN = (b'"', b"\r", b"\0")   # a plain line holds no quote, CR or NUL (see _plain_lines)


def _plain_lines(lines, width: int) -> tuple | None:
    """The block of lines as _plain_block takes it, if every line is a
    plain record: b, a copy of their UTF-8 bytes with 40 zero bytes after
    the last line end (added if the last line lacks it, as the last line
    of a file may), and the (rows, width) ends of their cells, the offsets
    of the separators in b; else None. lines is a uint8 array of whole
    lines (the readers' block), or a list of str lines. A plain record has
    width - 1 commas, holds no '"', '\\r' or NUL (which csv.reader rejects
    before Python 3.11) and no cell longer than csv.field_size_limit(), so
    csv.reader would split it on its commas into the same cells. A plain
    block that is not UTF-8 raises UnicodeDecodeError."""
    if isinstance(lines, list):
        lines = np.frombuffer("".join(lines).encode(), np.uint8)
    size = lines.size + (lines[-1] != ord("\n"))
    data = bytearray(size + 40)   # the zeros keep every word that is read inside b
    b = np.frombuffer(data, np.uint8)
    b[:lines.size] = lines
    b[size - 1] = ord("\n")
    if any(data.find(c, 0, size) >= 0 for c in _NOT_PLAIN):
        return None
    ends = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
    line_ends = b[ends] == ord("\n")
    rows = ends.size // width
    if (ends.size % width or np.count_nonzero(line_ends) != rows
            or not line_ends[width - 1::width].all()
            or np.max(np.diff(ends, prepend=-1)) > csv.field_size_limit() + 1):
        return None
    if b.max() >= 0x80:
        data[:size].decode()   # strict: a byte that is not UTF-8 raises
    return b, ends.reshape(rows, width)


def _plain_block(header, b: np.ndarray, ends: np.ndarray) -> list:
    """The columns of _plain_lines' block, as _record_block gives them.
    _number_cells parses every number cell of the block in one pass, and
    float() the cells it leaves. A text column is decoded once per
    distinct cell (_text_cells). Only the columns outlive the call; the
    cell(j) of a number column slices b."""
    n = len(ends)
    starts = np.concatenate(([0], ends.ravel()[:-1] + 1)).reshape(ends.shape)
    columns = {k: _text_cells(b, starts[:, k], ends[:, k])
               for k, name in enumerate(header) if name in _TEXT_COLUMNS}
    numbers = [k for k in range(len(header)) if k not in columns]
    lo, hi = starts[:, numbers].T.ravel(), ends[:, numbers].T.ravel()   # column by column
    del starts
    values, slow = _number_cells(b, lo, hi)
    bad = np.zeros(values.size, dtype=bool)
    values[slow], bad[slow] = _floats([_cell_text(b, lo, hi, j) for j in slow.tolist()])
    for i, k in enumerate(numbers):   # each column owns its arrays, not views of the block's
        part = slice(i * n, (i + 1) * n)
        columns[k] = _Numbers(header[k], values[part].copy(), bad[part].copy(),
                              functools.partial(_cell_text, b, lo[part], hi[part]))
    return [columns[k] for k in range(len(header))]


def _line_blocks(fh):
    """(offset, lines) of each block of CHUNK_ROWS lines that the binary
    file fh holds from its position on: lines is a uint8 view, valid until
    the next block, of one reused window that readinto fills, and offset
    is the file position of its first byte. The last block holds the lines
    left, the last one perhaps without its '\\n'. The window grows only
    when one block's lines do not fit in it. Each byte is read and scanned
    for '\\n' once, and moved at most once: the part of a block that the
    window held when it was short of a block."""
    window, at, start, size = np.empty(io.DEFAULT_BUFFER_SIZE, np.uint8), fh.tell(), 0, 0
    line_ends = np.empty(0, np.intp)   # the '\n's of window[start:size]
    while True:   # window[start:size] holds the file's bytes from position at on
        if line_ends.size < CHUNK_ROWS:   # short of a block: read on
            window[:size - start] = window[start:size]
            line_ends, size, start = line_ends - start, size - start, 0
            if size == window.size:
                window = np.concatenate((window, np.empty_like(window)))
            read = fh.readinto(window[size:])
            new_ends = size + np.flatnonzero(window[size:size + read] == ord("\n"))
            line_ends, size = np.concatenate((line_ends, new_ends)), size + read
            if read:
                continue
        end = int(line_ends[CHUNK_ROWS - 1]) + 1 if line_ends.size >= CHUNK_ROWS else size
        if end == start:
            return
        yield at, window[start:end]
        line_ends, at, start = line_ends[CHUNK_ROWS:], at + end - start, end


def _text_read_error(path: Path) -> DataError | None:
    """The decode or CSV syntax error of a whole-file csv.reader read in
    text mode, the first in the file, decode position or line number
    included, or None if the file reads cleanly."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            collections.deque(reader, maxlen=0)
        except UnicodeDecodeError as e:
            return DataError(f"{path}: not a UTF-8 CSV file: {e}")
        except csv.Error as e:
            return DataError(f"{path}: malformed CSV at line {reader.line_num}: {e}")
    return None


def _read_blocks(path, expected_header):
    """Data records of a CSV whose header must be expected_header, yielded
    in blocks of at most CHUNK_ROWS records read from the file. A block is
    a function of no arguments that parses it into its columns: a text
    column (_TEXT_COLUMNS) as its distinct cells and each row's index among
    them, a number column as _Numbers, float() of its cells. A caller that
    has found an error parses no more blocks.

    The file is read in binary, its leading UTF-8 byte order mark skipped.
    A header line that is plain (no '"', '\\r' or NUL) is read by
    csv.reader from its text; any other sends the whole file to the text
    path below. Then each block of CHUNK_ROWS lines comes from the file's
    bytes while every line in it is a plain record (see _plain_lines):
    _number_cells converts each number cell -?digits[.digits] of at most 8
    integer and 19 digits in all whose float it can prove, and float()
    parses every other cell (exponents, nan, blanks, a '+', more digits).
    From the first block that holds another line (quoted cells, CRLF line
    ends, blank lines, a wrong width, a very long cell) to the end of the
    file, the file is read in text mode: records come from csv.reader,
    blank ones skipped, and float() parses every number cell.

    Errors are raised only once the whole file is read, in the order a
    whole-file reader reports them: a decode or CSV syntax error anywhere,
    then an empty file or a bad header, then the first record of the wrong
    width, indexed among all records after the header, blank lines
    included. A decode or syntax error is the one a whole-file text read
    (_text_read_error) finds, read again from the start. Nothing is
    yielded after a header or width error, so a caller sees no block of a
    file that will fail."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    width = len(expected_header)
    try:
        with path.open("rb") as fh:
            line = fh.readline()
            at = len(codecs.BOM_UTF8) if line.startswith(codecs.BOM_UTF8) else 0
            line, error, start = line[at:], None, 0   # at: where the text path starts
            text_header = any(c in line for c in _NOT_PLAIN)
            if not text_header:
                error = _header_error(path, next(csv.reader([line.decode()])) if line else None,
                                      expected_header)
                at += len(line)
                if error is None:
                    for at, lines in _line_blocks(fh):
                        plain = _plain_lines(lines, width)
                        if plain is None:
                            break
                        start += len(plain[1])
                        yield functools.partial(_plain_block, expected_header, *plain)
                        del plain   # before the next block is read
                    else:
                        return
            fh.seek(at)
            with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
                reader = csv.reader(text)
                if text_header:
                    error = _header_error(path, next(reader, None), expected_header)
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
                        yield functools.partial(_record_block, expected_header, kept)
                    start += len(records)
                collections.deque(reader, maxlen=0)  # a later decode or syntax error comes first
    except (UnicodeDecodeError, csv.Error) as e:
        raise _text_read_error(path) or DataError(f"{path}: changed while read: {e}") from e
    if error is not None:
        raise error


def load_dataset(path) -> Dataset:
    """Read a `hn,rssi,prr,rnp,label,cost` CSV into a Dataset.

    Features are returned raw; `standardize` fits and applies a z-scaler.
    The file is read once, one block of records at a time, and each block
    is checked against the rules while its cells are at hand: the error
    names the first failing row and its first failed check.
    """
    blocks, error, start = [], None, 0
    for block in _read_blocks(path, DATASET_HEADER):
        if error is not None:
            continue   # _read_blocks still reads on: its errors come first
        *features, (words, labels), cost = block()
        x, c = [column.values for column in features], cost.values
        y = np.array([_LABEL_CODES.get(s.strip().lower(), -1) for s in words], dtype=int)[labels]
        error = _first_error([
            *(column.parse_rule() for column in features), *_feature_rules(*x),
            cost.parse_rule(),
            (~np.isfinite(c) | (c <= 0),
             lambda i, j: f"row {i}: cost must be finite and > 0, got {cost.cell(j)}"),
            (y < 0, lambda i, j: _UNKNOWN_LABEL.format(words[labels[j]]))], start)
        blocks.append((*x, c, y))
        start += y.size
        del block, features, words, labels, cost   # before the next block is read
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
    for block in _read_blocks(path, TRACE_HEADER):
        if error is not None:
            continue
        (words, codes), *numbers = block()
        node = np.array([names.setdefault(s.strip(), len(names)) for s in words],
                        dtype=np.intp)[codes]
        t, tpz, tpl, *features = (column.values for column in numbers)
        error = _first_error(_trace_rules(t, tpz, tpl, features,
                                          [column.parse_rule() for column in numbers[:3]],
                                          [column.parse_rule() for column in numbers[3:]]),
                             start)
        blocks.append((node, t, tpz, tpl, *features))
        start += node.size
        del block, words, codes, numbers   # before the next block is read
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


def _word_at_every_byte(b: np.ndarray) -> np.ndarray:
    """The unaligned uint64 view of b whose item i is bytes i to i + 7."""
    return np.ndarray((b.size - 7,), _WORD, b, 0, (1,))


def _leading_digits(w: np.ndarray) -> np.ndarray:
    """The number of ASCII digits each word starts with, 0 to 8 (uint8).

    A byte x is a digit if the high nibbles of x and x + 6 are both 3: its
    flag byte, x's high nibble over x + 6's, is then 0x33. No byte of UTF-8
    text (nor the padding 0) is 0xFA or more, so x + 6 never carries."""
    flags = (w & 0xF0F0F0F0F0F0F0F0) | ((w + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0) >> 4
    flags ^= 0x3333333333333333
    return np.bitwise_count((flags & -flags) - 1) >> 3   # the zero bits below the first flag


def _spelled(w: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The number that the first count (up to 8) bytes of each word spell,
    if they are digits, in w's place: the bytes past count shift out, the
    others go to the top, and three multiply-shifts add up their digits in
    pairs, fours and eights ("SWAR"; the first digit is the low byte)."""
    w <<= 64 - 8 * count.astype(np.uint64)
    for mask, scale, shift in ((0x0F0F0F0F0F0F0F0F, 10 << 8 | 1, 8),
                               (0x00FF00FF00FF00FF, 100 << 16 | 1, 16),
                               (0x0000FFFF0000FFFF, 10_000 << 32 | 1, 32)):
        w &= mask
        w *= scale
        w >>= shift
    return w


def _number_cells(b: np.ndarray, starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """Of the cells b[starts:ends]: float() of each one it settles, and the
    indices of the others, whose values are left for float().

    It settles a cell -?I[.F] of ASCII digits, I 1 to 8 of them and I and F
    at most 19 together, once it has proved the float. N = I * 10**f + F,
    f = len(F), is exact in uint64, a word per 8 digits. If N <= 2**53,
    N / 10**f of two exact floats rounds once, correctly (Clinger). For a
    larger N, x = float(N) / 10**f is within about an ulp of N / 10**f.
    With x = m * 2**(e - 53), D = (N / 10**f - x) * 10**f * 2**a and half an
    ulp, h = 5**f * 2**c, are exact in wrapping uint64 for t = f + e - 53,
    a = max(1 - t, 0) and c = max(t - 1, 0): D = N * 2**a - 2m * 5**f * 2**c,
    as in _significand. So |D| < h keeps x, h < |D| < 3h moves it an ulp
    toward the value, and any other D, or an x that is a power of two
    (m = 2**52), gives the cell up. |D| = h, a tie, cannot occur: below
    10**8 < 2**27, a midpoint between floats has 27 fraction digits."""
    words = _word_at_every_byte(b)
    neg = b[starts] == ord("-")
    at = starts + neg   # then the point, then each word of F
    w = words[at]
    lead = _leading_digits(w)
    n = _spelled(w, lead)
    at += lead
    frac = ends - at - 1
    frac = np.clip(frac, 0, 20, out=frac).astype(np.uint8)   # digits after the point
    ok = (lead > 0) & (lead + frac <= 19) & ((at == ends) | (b[at] == ord(".")))
    del w, lead
    at += 1
    for k in (0, 8, 16):
        count = np.minimum(frac, k + 8) - np.minimum(frac, k)
        w = words[at]
        ok &= _leading_digits(w) >= count
        n *= _POW5.take(count) << count
        n += _spelled(w, count)
        at += 8
    del at, w, count
    x = n.astype(float)
    x /= _POW10.take(frac)
    m, e = np.frexp(x)
    m *= 2.0 ** 53
    m = m.astype(np.uint64)
    t = frac + e - 53
    del e
    a, c = (np.maximum(v, 0).astype(np.uint8) for v in (1 - t, t - 1))
    del t
    big = n > 2 ** 53
    ok &= ~big | (m != 2 ** 52)
    half = _POW5.take(frac)
    m *= half
    m <<= c + 1
    n <<= a   # D, wrapping
    n -= m
    del m, a
    half <<= c
    d, half = n.view(np.int64), half.view(np.int64)
    dist = np.abs(d)
    np.add(x.view(np.int64), np.sign(d) * (dist > half), out=x.view(np.int64), where=big)
    ok &= ~big | (dist < 3 * half)
    np.negative(x, out=x, where=neg)
    return x, np.flatnonzero(~ok)


def _text_cells(b: np.ndarray, starts, ends) -> tuple[list, np.ndarray]:
    """_distinct of the cells b[starts:ends], each decoded once. Cells of at
    most 8 bytes, which hold no NUL, are told apart by the word that starts
    them, the bytes past the cell shifted out; longer ones by their bytes."""
    sizes = ends - starts
    if sizes.max() > 8:
        data = b.tobytes()
        cells, codes = _distinct([data[i:j] for i, j in zip(starts.tolist(), ends.tolist())])
        return [s.decode() for s in cells], codes
    keys = _word_at_every_byte(b)[starts] << (64 - 8 * sizes).astype(np.uint64)
    _, first, codes = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return [_cell_text(b, starts, ends, j) for j in first[order]], rank[codes]


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
