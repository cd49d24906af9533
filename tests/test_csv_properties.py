"""Property-based tests of the CSV readers and writers.

Round trips are exact on arbitrary valid rows, and a corrupted file either
loads or raises DataError with exactly the outcome of a row-by-row
reference reader that tokenizes the whole file with csv.reader and checks
each record in turn. The writers' bytes are those of a reference writer
that formats each number cell with '%.17g', and so is the text of every
float the number kernel draws. The readers read each number cell as
float() reads it, bit for bit, whether their number kernel or float()
parses it.
"""

import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from radiosel import dataset, simulator
from radiosel.cli import main
from radiosel.dataset import (DATASET_HEADER, FEATURE_NAMES, TRACE_COLUMNS,
                              TRACE_HEADER, Dataset, Trace, _format_numbers, load_dataset,
                              load_traces, save_dataset, save_traces)
from radiosel.errors import DataError

# Derandomized, so a failing example repeats on every run; shrinking is off
# because it takes minutes and hundreds of MB on these file-writing tests.
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate),
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

FINITE = st.floats(allow_nan=False, allow_infinity=False)
THROUGHPUT = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
AT_LEAST_ONE = st.floats(min_value=1.0, allow_nan=False, allow_infinity=False)
PRR = st.floats(min_value=0.0, max_value=1.0)
COST = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
# Node ids without blanks, which the reader strips; "," and '"' are drawn
NODE_ID = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")),
                  min_size=1, max_size=6)


@st.composite
def traces(draw):
    names = draw(st.lists(NODE_ID, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.tuples(st.integers(0, len(names) - 1), FINITE, THROUGHPUT,
                                   THROUGHPUT, AT_LEAST_ONE, FINITE, PRR, AT_LEAST_ONE),
                         min_size=1, max_size=25))
    node, t, *columns = (list(c) for c in zip(*rows))
    return Trace(tuple(names), node, sorted(t), *columns)


def finite_cost_total(rows) -> bool:
    """Whether the costs sum to a finite total as Dataset sums them: the
    largest single costs stay in the draw, alone or with small ones."""
    with np.errstate(over="ignore"):
        return math.isfinite(np.add.reduce(np.array([row[-1] for row in rows])))


@st.composite
def datasets(draw):
    rows = draw(st.lists(st.tuples(AT_LEAST_ONE, FINITE, PRR, AT_LEAST_ONE,
                                   st.integers(0, 1), COST), min_size=1, max_size=25)
                .filter(finite_cost_total))
    *features, y, c = (list(col) for col in zip(*rows))
    return Dataset(np.column_stack(features), y, c)


def parse_float(s, row, col):
    try:
        return float(s)
    except ValueError:
        raise DataError(f"row {row}: cannot parse {col}={s!r} as number")


def check_features(hn, rssi, prr, rnp, row):
    if not all(math.isfinite(v) for v in (hn, rssi, prr, rnp)):
        raise DataError(f"row {row}: non-finite feature value")
    if hn < 1:
        raise DataError(f"row {row}: hn must be >= 1, got {hn}")
    if not (0.0 <= prr <= 1.0):
        raise DataError(f"row {row}: prr must be in [0,1], got {prr}")
    if rnp < 1:
        raise DataError(f"row {row}: rnp must be >= 1, got {rnp}")


LABELS = {"zigbee": 0, "lora": 1}


def reference_records(path, expected_header):
    """The data records of a whole-file csv.reader read, blank ones dropped.
    Errors in order: a decode or CSV syntax error anywhere in the file, an
    empty file, a bad header, then the first record of the wrong width,
    indexed among all records after the header, blank lines included."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            records = list(reader)
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not a UTF-8 CSV file: {e}")
        except csv.Error as e:
            raise DataError(f"{path}: malformed CSV at line {reader.line_num}: {e}")
    if not records:
        raise DataError(f"{path}: empty file, expected header {','.join(expected_header)}")
    header = [h.strip() for h in records[0]]
    for name in expected_header:
        if name not in header:
            raise DataError(f"{path}: missing column {name!r}")
    for name in header:
        if name not in expected_header:
            raise DataError(f"{path}: unexpected column {name!r}")
    if tuple(header) != tuple(expected_header):
        raise DataError(f"{path}: columns must be ordered {','.join(expected_header)}")
    width, rows = len(expected_header), []
    for i, raw in enumerate(records[1:]):
        if not raw or len(raw) == 1 and not raw[0].strip():   # a blank line
            continue
        if len(raw) != width:
            raise DataError(f"{path}: row {i}: expected {width} fields, got {len(raw)}")
        rows.append(raw)
    return rows


def reference_load_traces(path):
    """Row-by-row trace reader: every check on one record before the next."""
    rows = reference_records(path, TRACE_HEADER)
    if not rows:
        raise DataError(f"{path}: empty trace file")
    names, node, columns, last_t = {}, [], [], {}
    for i, raw in enumerate(rows):
        t = parse_float(raw[1], i, "t")
        tpz = parse_float(raw[2], i, "tp_zigbee")
        tpl = parse_float(raw[3], i, "tp_lora")
        if not (math.isfinite(tpz) and math.isfinite(tpl)) or tpz < 0 or tpl < 0:
            raise DataError(f"row {i}: throughputs must be finite and >= 0")
        features = [parse_float(s, i, col) for s, col in zip(raw[4:], FEATURE_NAMES)]
        check_features(*features, i)
        if not math.isfinite(t):
            raise DataError(f"row {i}: t must be finite, got {t}")
        name = raw[0].strip()
        if name in last_t and t < last_t[name]:
            raise DataError(f"row {i}: t decreases for node {name}")
        last_t[name] = t
        node.append(names.setdefault(name, len(names)))
        columns.append([t, tpz, tpl] + features)
    return Trace(tuple(names), node, *zip(*columns))


def reference_load_dataset(path):
    """Row-by-row dataset reader: every check on one record before the next."""
    rows = reference_records(path, DATASET_HEADER)
    if not rows:
        raise DataError(f"{path}: empty dataset")
    X, y, c = [], [], []
    for i, raw in enumerate(rows):
        features = [parse_float(s, i, col) for s, col in zip(raw[:4], FEATURE_NAMES)]
        check_features(*features, i)
        cost = parse_float(raw[5], i, "cost")
        if not math.isfinite(cost) or cost <= 0:
            raise DataError(f"row {i}: cost must be finite and > 0, got {raw[5]}")
        label = LABELS.get(raw[4].strip().lower())
        if label is None:
            raise DataError(f"unknown radio label {raw[4]!r} (expected 'zigbee' or 'lora')")
        y.append(label)
        X.append(features)
        c.append(cost)
    return Dataset(np.array(X), y, c)


def outcome(load, path):
    """("ok", result) or ("error", message); any other exception escapes."""
    try:
        return "ok", load(path)
    except DataError as e:
        return "error", str(e)


def same_trace(a, b):
    """Equal name tables, rows and columns; NaN t values match each other."""
    return (a.names == b.names and np.array_equal(a.node, b.node)
            and all(np.array_equal(getattr(a, c), getattr(b, c), equal_nan=True)
                    for c in TRACE_COLUMNS))


def same_dataset(a, b):
    return (np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
            and np.array_equal(a.c, b.c))


CELLS = [b"", b"nan", b"inf", b"-1", b"-0", b"0.5", b"1.5", b"x", b"zigbee", b"wifi",
         b"\xff"]
BLOBS = st.text("0123456789.,-+eEnaif \n\r\"", min_size=1, max_size=3).map(str.encode)


@st.composite
def corruptions(draw, data: bytes):
    """The file with one to three cells replaced by awkward values, and at
    most one byte-level edit (overwrite, delete, insert, truncate) after
    the header."""
    header, _, body = data.partition(b"\n")
    rows = [line.split(b",") for line in body.split(b"\n")[:-1]]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(CELLS))
    out = bytearray(b"".join(b",".join(row) + b"\n" for row in rows))
    edits = st.tuples(st.sampled_from(["set", "delete", "insert", "cut"]),
                      st.integers(0, len(out)), BLOBS)
    for kind, pos, blob in draw(st.lists(edits, max_size=1)):
        if kind == "set":
            out[pos:pos + len(blob)] = blob
        elif kind == "delete":
            del out[pos:pos + len(blob)]
        elif kind == "insert":
            out[pos:pos] = blob
        else:
            del out[pos:]
    return header + b"\n" + bytes(out)


class TestRoundTrip:
    @SETTINGS
    @given(trace=traces())
    def test_traces(self, tmp_path, trace):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save_traces(trace, first)
        loaded = load_traces(first)
        assert loaded == trace
        save_traces(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    @SETTINGS
    @given(ds=datasets())
    def test_dataset(self, tmp_path, ds):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(ds, first)
        loaded = load_dataset(first)
        assert same_dataset(loaded, ds)
        save_dataset(loaded, second)
        assert first.read_bytes() == second.read_bytes()


class TestCorruptedFiles:
    @SETTINGS
    @given(data=st.data(), trace=traces())
    def test_traces_match_reference(self, tmp_path, data, trace):
        path = tmp_path / "t.csv"
        save_traces(trace, path)
        path.write_bytes(data.draw(corruptions(path.read_bytes())))
        kind, got = outcome(load_traces, path)
        ref_kind, expected = outcome(reference_load_traces, path)
        assert kind == ref_kind
        assert got == expected if kind == "error" else same_trace(got, expected)

    @SETTINGS
    @given(data=st.data(), ds=datasets())
    def test_dataset_matches_reference(self, tmp_path, data, ds):
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        path.write_bytes(data.draw(corruptions(path.read_bytes())))
        kind, got = outcome(load_dataset, path)
        ref_kind, expected = outcome(reference_load_dataset, path)
        assert kind == ref_kind
        assert got == expected if kind == "error" else same_dataset(got, expected)


@pytest.mark.parametrize("load", [load_traces, load_dataset])
def test_non_utf8_is_data_error(tmp_path, load):
    path = tmp_path / "x.csv"
    path.write_bytes(b"\xff\xfe\x00garbage\n")
    with pytest.raises(DataError, match="not a UTF-8 CSV file"):
        load(path)


def reference_trace_bytes(trace):
    """A trace CSV as csv.writer writes it, each number cell '%.17g' % v."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for i in range(len(trace)):
        writer.writerow([trace.names[trace.node[i]],
                         *("%.17g" % getattr(trace, c)[i] for c in TRACE_COLUMNS)])
    return buf.getvalue().encode()


def reference_dataset_bytes(ds):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DATASET_HEADER)
    for x, y, c in zip(ds.X, ds.y, ds.c):
        writer.writerow([*("%.17g" % v for v in x), ("zigbee", "lora")[y], "%.17g" % c])
    return buf.getvalue().encode()


class TestWriterBytes:
    """A round trip cannot tell two number texts apart that load as one
    float: the bytes are compared instead."""

    @SETTINGS
    @given(trace=traces())
    def test_traces(self, tmp_path, trace):
        save_traces(trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == reference_trace_bytes(trace)

    @SETTINGS
    @given(ds=datasets())
    def test_dataset(self, tmp_path, ds):
        save_dataset(ds, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == reference_dataset_bytes(ds)

    def test_more_than_one_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr("radiosel.dataset.CHUNK_ROWS", 7)
        trace = simulator.generate(simulator.ScenarioConfig(distances_m=(150.0, 1600.0),
                                                            n_packets=12), seed=3)
        save_traces(trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == reference_trace_bytes(trace)


def kernel_text(values):
    """The text of each value in the writers' number slots."""
    values = np.asarray(values, dtype=float)
    slots = np.empty((values.size, 5), np.uint64)
    _format_numbers(values, slots)
    return slots.astype("<u8").tobytes().translate(None, b"\xff").split(b",")[:-1]


def percent_g(values):
    return [("%.17g" % v).encode() for v in values]


def ulp_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate((np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)))


# The kernel's range ends, powers of ten, the smallest subnormal, the
# non-finite values and exact ties at the 17th digit, which go to even:
# …345.62|5 down, …345.87|5 up (and …456.2|5, past 2**49, down)
EDGES = [0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf,
         123456789012345.625, 123456789012345.875, 1234567890123456.25,
         *ulp_neighbours([1e-4, -1e-4, 2.0 ** 49, -(2.0 ** 49)]).tolist(),
         *ulp_neighbours([10.0 ** k for k in range(-6, 18)]).tolist()]
FLOAT_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))


class TestNumberText:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.one_of(st.floats(), FLOAT_BITS), min_size=1, max_size=50))
    @example(values=EDGES)
    @example(values=[-v for v in EDGES])
    def test_cells_are_percent_g(self, values):
        assert kernel_text(values) == percent_g(values)

    def test_bulk_draws_are_percent_g(self):
        """Seeded draws over the whole range, exact ties with their
        neighbours, and every cell of the 180k-record benchmark trace."""
        rng = np.random.default_rng(25)
        ties = []   # odd j / 2**(17 - k) in [10**k, 10**(k+1)) lies halfway at the 17th digit
        for k in range(-4, 15):
            low, high = 10 ** k * 2 ** (17 - k), 10 ** (k + 1) * 2 ** (17 - k)
            ties.append((2 * rng.integers(-(-low // 2), high // 2, 20_000) + 1) / 2 ** (17 - k))
        trace = simulator.generate(replace(simulator.ScenarioConfig(), n_packets=12_000), seed=1)
        draws = {
            "bit patterns": rng.integers(0, 2 ** 64, 300_000, dtype=np.uint64).view(np.float64),
            "log-uniform": 10.0 ** rng.uniform(-5, 17, 300_000),
            "dyadic": rng.integers(1, 2 ** 53, 200_000) * 2.0 ** rng.integers(-60, 10, 200_000),
            "ties": ulp_neighbours(np.concatenate(ties)),
            "trace cells": np.concatenate([getattr(trace, c) for c in TRACE_COLUMNS]),
        }
        for name, values in draws.items():
            for lo in range(0, values.size, 1 << 16):
                chunk = values[lo:lo + (1 << 16)]
                got, expected = kernel_text(chunk), percent_g(chunk.tolist())
                assert got == expected, (name, next((v, g, e) for v, g, e in
                                                    zip(chunk, got, expected) if g != e))


def reader_floats(texts):
    """Each text as a number cell of one plain block, as the readers parse
    it: the values, NaN where float() raises, and the mask of those."""
    column, = dataset._plain_block(("x",), *dataset._plain_lines([s + "\n" for s in texts], 1))
    return column.values, column.bad


def float_bits(texts):
    """float() of each text, as (value, raised), value NaN where it raises."""
    def parse(s):
        try:
            return float(s), False
        except ValueError:
            return math.nan, True
    values, raised = zip(*map(parse, texts))
    return np.array(values), np.array(raised)


def assert_reads_as_float(texts):
    """The reader's value of each cell has float()'s bits (-0 reads -0.0),
    and the reader rejects exactly the cells float() rejects."""
    got, bad = reader_floats(texts)
    expected, raised = float_bits(texts)
    assert np.array_equal(bad, raised)
    wrong = np.flatnonzero((got.view(np.uint64) != expected.view(np.uint64)) & ~raised)
    assert not wrong.size, [(texts[j], got[j], expected[j]) for j in wrong[:5]]


# Cells a line can hold: no separator, quote, CR or NUL
CELL_TEXT = st.text(st.characters(blacklist_characters=',\n"\r\0',
                                  blacklist_categories=("Cs",)), max_size=22)


@st.composite
def decimals(draw):
    """-?I[.F] with up to 10 integer and 21 fraction digits, around the
    kernel's limits of 8 and 19 in all."""
    sign = draw(st.sampled_from(["", "-"]))
    whole = draw(st.text("0123456789", min_size=1, max_size=10))
    fraction = draw(st.one_of(st.none(), st.text("0123456789", max_size=21)))
    return sign + whole + ("" if fraction is None else "." + fraction)


# 2**53 - 1 to 2**53 + 1 and exact ties between floats at the 17th digit
# (…993, …48.25, …48.75), which go to even, the writer's tie text, 19 and
# 20 digits, leading zeros, a 9-digit integer part, and cells that only
# float() reads (a no-break space, Arabic-Indic digits) or that it rejects
READER_EDGES = ["9007199254740991", "9007199254740992", "9007199254740993",
                "2251799813685248.25", "2251799813685248.75", "123456789012345.625",
                "0.30000000000000004", "12345678.901234567", "99999999.999999999",
                "1.234567890123456789", "1.2345678901234567891", "12345678.12345678901",
                "99999999.999999999999",
                "0000000000000000001", "00000000000000000001", "007.50", "123456789",
                "123456789.5", "-0", "-0.0", "0", "+1", "1.", "-1.", ".5", "-.5", "1e5",
                "1E-5", " 1", "1 ", "1_0", "١", "nan", "-nan", "inf", "-inf", "Infinity",
                "", "-", ".", "1..2", "--1", "1-", "1.2.3", "0x10", "١٢.٥", "1\u00a0"]


class TestNumberCells:
    """The readers' numbers are float()'s: the number kernel settles the
    cells it can prove and leaves every other cell to float()."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(texts=st.lists(st.one_of(st.floats().map(lambda v: "%.17g" % v), decimals(),
                                    CELL_TEXT), min_size=1, max_size=40))
    @example(texts=READER_EDGES)
    def test_cells_read_as_float(self, texts):
        assert_reads_as_float(texts)

    def test_bulk_writer_cells_read_as_float(self):
        """Seeded '%.17g' cells over the kernel's range and past it, their
        ulp neighbours, and every cell of the 180k-record benchmark trace."""
        rng = np.random.default_rng(30)
        trace = simulator.generate(replace(simulator.ScenarioConfig(), n_packets=12_000), seed=2)
        draws = {
            "log-uniform": 10.0 ** rng.uniform(-4, 9, 200_000) * rng.choice([-1, 1], 200_000),
            "bit patterns": rng.integers(0, 2 ** 64, 50_000, dtype=np.uint64).view(np.float64),
            "neighbours": ulp_neighbours(rng.integers(1, 10 ** 8, 50_000)
                                         / 10.0 ** rng.integers(0, 12, 50_000)),
            "trace cells": np.concatenate([getattr(trace, c) for c in TRACE_COLUMNS]),
        }
        assert sum(v.size for v in draws.values()) >= 1_000_000
        for values in draws.values():
            for lo in range(0, values.size, 1 << 16):
                assert_reads_as_float([s.decode() for s in kernel_text(values[lo:lo + (1 << 16)])])

    def test_written_files_take_the_kernel(self, tmp_path, monkeypatch):
        """The README trace and dataset (simulate --seed 1) read all but at
        most 0.1% of their number cells through the kernel, not float()."""
        assert main(["simulate", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
        number_cells = dataset._number_cells
        for load, name in ((load_traces, "trace.csv"), (load_dataset, "dataset.csv")):
            cells = left = 0

            def counted(b, starts, ends):
                nonlocal cells, left
                values, slow = number_cells(b, starts, ends)
                cells, left = cells + values.size, left + slow.size
                return values, slow

            monkeypatch.setattr(dataset, "_number_cells", counted)
            load(tmp_path / name)
            assert cells > 0 and left <= 0.001 * cells, (name, left, cells)
