import csv
import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import test_csv_properties as properties
from radiosel import dataset
from radiosel.dataset import (Dataset, RadioClass, Trace, label_traces,
                              load_dataset, load_traces, save_dataset,
                              save_traces, split, standardize,
                              stratified_kfold_indices)
from radiosel.errors import DataError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


HEADER = "hn,rssi,prr,rnp,label,cost\n"


class TestLoadDataset:
    def test_row_maps_to_sample(self, tmp_path):
        p = write(tmp_path / "d.csv", HEADER + "3,-97,0.8,1.5,lora,5000\n")
        ds = load_dataset(p)
        assert ds.n == 1
        assert np.array_equal(ds.X[0], [3.0, -97.0, 0.8, 1.5])
        assert ds.y[0] == RadioClass.LORA
        assert ds.c[0] == 5000.0

    def test_empty_after_header(self, tmp_path):
        p = write(tmp_path / "d.csv", HEADER)
        with pytest.raises(DataError, match="empty dataset"):
            load_dataset(p)

    def test_zero_cost_row(self, tmp_path):
        p = write(tmp_path / "d.csv", HEADER + "1,-90,0.9,1.1,zigbee,0\n")
        with pytest.raises(DataError, match="row 0"):
            load_dataset(p)

    def test_standardized_dataset_not_saved(self, tmp_path, rng):
        ds = Dataset(rng.uniform(1, 9, size=(10, 4)), np.arange(10) % 2, np.ones(10))
        with pytest.raises(DataError, match="standardized"):
            save_dataset(standardize(ds), tmp_path / "d.csv")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("column, value, message", [
        (0, 0.5, "row 2: hn must be >= 1, got 0.5"),
        (2, 1.5, "row 2: prr must be in \\[0,1\\], got 1.5"),
        (3, 0.5, "row 2: rnp must be >= 1, got 0.5"),
    ], ids=["hn", "prr", "rnp"])
    def test_out_of_domain_features_not_saved(self, tmp_path, column, value, message):
        X = np.tile([3.0, -97.0, 0.8, 1.5], (4, 1))
        X[2, column] = value
        path = tmp_path / "d.csv"
        with pytest.raises(DataError, match=message):
            save_dataset(Dataset(X, np.array([0, 1, 0, 1]), np.ones(4)), path)
        assert not path.exists()
        # load_dataset names the same row and check
        rows = "".join(f"{','.join(repr(v) for v in x.tolist())},zigbee,1\n" for x in X)
        with pytest.raises(DataError, match=message):
            load_dataset(write(path, HEADER + rows))

    def test_overflowing_total_cost_rejected(self):
        X, y = np.ones((3, 4)), np.array([0, 1, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="costs sum past the float range"):
                Dataset(X, y, np.full(3, 1e308))
        assert Dataset(X[:2], y[:2], np.full(2, 8e307)).n == 2   # 1.6e308 is finite

    def test_missing_column_named(self, tmp_path):
        p = write(tmp_path / "d.csv", "hn,rssi,prr,label,cost\n1,-90,0.9,zigbee,5\n")
        with pytest.raises(DataError, match="rnp"):
            load_dataset(p)

    def test_extra_column_named(self, tmp_path):
        p = write(tmp_path / "d.csv",
                  "hn,rssi,prr,rnp,label,cost,extra\n1,-90,0.9,1,zigbee,5,1\n")
        with pytest.raises(DataError, match="extra"):
            load_dataset(p)

    def test_non_finite_value_row_indexed(self, tmp_path):
        p = write(tmp_path / "d.csv",
                  HEADER + "1,-90,0.9,1.0,zigbee,10\n2,nan,0.5,1.2,lora,20\n")
        with pytest.raises(DataError, match="row 1"):
            load_dataset(p)

    def test_invariants_checked(self, tmp_path):
        for bad in ("0.5,-90,0.9,1.0,zigbee,10",      # hn < 1
                    "1,-90,1.5,1.0,zigbee,10",        # prr > 1
                    "1,-90,0.9,0.5,zigbee,10"):       # rnp < 1
            p = write(tmp_path / "d.csv", HEADER + bad + "\n")
            with pytest.raises(DataError):
                load_dataset(p)

    def test_round_trip_identity(self, tmp_path, rng):
        X = np.column_stack([
            rng.integers(1, 6, 40).astype(float),
            rng.uniform(-130, -60, 40),
            rng.uniform(0, 1, 40),
            rng.uniform(1, 9, 40),
        ])
        y = rng.integers(0, 2, 40)
        c = rng.uniform(0.001, 9000, 40)
        ds = Dataset(X, y, c)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset(ds, p1)
        ds2 = load_dataset(p1)
        assert np.array_equal(ds.X, ds2.X)
        assert np.array_equal(ds.y, ds2.y)
        assert np.array_equal(ds.c, ds2.c)
        save_dataset(ds2, p2)
        assert p1.read_bytes() == p2.read_bytes()


def make_trace(tpz, tpl, node=None, t=None, names=("n0",)):
    """Trace over throughput pairs with fixed features; one node unless
    per-row node codes are given."""
    n = len(tpz)
    return Trace(names, np.zeros(n, dtype=int) if node is None else node,
                 np.zeros(n) if t is None else t, tpz, tpl,
                 np.full(n, 2.0), np.full(n, -95.0), np.full(n, 0.8), np.full(n, 1.4))


class TestLabelTraces:
    def test_high_cost_pair(self):
        ds = label_traces(make_trace([7000], [2000]))
        assert ds.y[0] == RadioClass.ZIGBEE
        assert ds.c[0] == 5000.0

    def test_low_cost_pair(self):
        ds = label_traces(make_trace([4600], [4500]))
        assert ds.y[0] == RadioClass.ZIGBEE  # zigbee wins, not lora
        assert ds.c[0] == 100.0

    def test_tie_dropped(self):
        ds = label_traces(make_trace([3000, 5000], [3000, 1000]))
        assert ds.n == 1
        assert ds.c[0] == 4000.0

    def test_all_ties_error(self):
        with pytest.raises(DataError, match="tied"):
            label_traces(make_trace([3000], [3000]))

    def test_empty_trace(self):
        with pytest.raises(DataError, match="no trace records"):
            label_traces(make_trace([], []))

    def test_label_and_cost_recomputed(self, rng):
        tpz, tpl = rng.uniform(0, 9000, size=(2, 300))
        tpz[::7] = tpl[::7]  # ties
        trace = make_trace(tpz, tpl, t=np.arange(300.0))
        ds = label_traces(trace)
        kept = [i for i in range(len(trace)) if trace.tp_zigbee[i] != trace.tp_lora[i]]
        assert ds.n == len(kept) < len(trace)
        for i, k in enumerate(kept):
            assert ds.c[i] == abs(trace.tp_zigbee[k] - trace.tp_lora[k]) > 0
            assert ds.y[i] == (0 if trace.tp_zigbee[k] > trace.tp_lora[k] else 1)
            assert np.array_equal(ds.X[i], [trace.hn[k], trace.rssi[k],
                                            trace.prr[k], trace.rnp[k]])

    def test_trace_round_trip(self, tmp_path, rng):
        i = np.arange(60)
        traces = Trace(("n00", "n01", "n02"), i % 3, (i // 3).astype(float),
                       *rng.uniform(0, 9000, size=(2, 60)),
                       rng.integers(1, 5, 60).astype(float), rng.uniform(-120, -70, 60),
                       rng.uniform(0, 1, 60), rng.uniform(1, 8, 60))
        p = tmp_path / "t.csv"
        save_traces(traces, p)
        again = load_traces(p)
        assert again == traces


class TestTrace:
    def test_columns_checked(self):
        with pytest.raises(DataError, match="shape"):
            make_trace([1.0, 2.0], [1.0])
        with pytest.raises(DataError, match="name table"):
            make_trace([1.0], [2.0], node=[1])

    def test_equality_is_exact_and_row_wise(self):
        a = make_trace([1.0, 0.0], [2.0, 3.0], node=[0, 1], names=("a", "b"))
        b = make_trace([1.0, -0.0], [2.0, 3.0], node=[1, 0], names=("b", "a"))
        assert (a == b) is True
        assert (a == make_trace([1.0, 0.0], [2.0, 3.0], node=[0, 0],
                                names=("a", "b"))) is False
        assert (a == make_trace([1.0, 5e-324], [2.0, 3.0], node=[0, 1],
                                names=("a", "b"))) is False
        assert a != make_trace([1.0], [2.0], names=("a",))
        nan = make_trace([np.nan], [1.0])
        assert nan != make_trace([np.nan], [1.0])
        assert a != [a]

    def test_node_ids_and_features(self):
        trace = make_trace([1.0, 2.0], [3.0, 4.0], node=[1, 0], names=("x", "y"))
        assert trace.node_ids().tolist() == ["y", "x"]
        assert trace.features().shape == (2, 4)
        assert np.array_equal(trace.features()[1], [2.0, -95.0, 0.8, 1.4])


class TestStandardize:
    def test_two_point_column(self):
        ds = Dataset(np.array([[1.0, 0, 0.5, 1], [3.0, -1, 0.6, 2]]),
                     np.array([0, 1]), np.array([1.0, 1.0]))
        scaled = standardize(ds)
        assert scaled.X[0, 0] == -1.0 and scaled.X[1, 0] == 1.0

    def test_mean_maps_to_zero(self, rng):
        ds = random_ds(rng)
        scaled = standardize(ds)
        z = scaled.scaler.transform(ds.X.mean(axis=0))
        assert np.allclose(z, 0.0, atol=1e-12)

    def test_round_trip(self, rng):
        ds = random_ds(rng)
        scaled = standardize(ds)
        back = scaled.scaler.inverse(scaled.X)
        assert np.allclose(back, ds.X, rtol=1e-12, atol=1e-12)

    def test_constant_column_named(self):
        ds = Dataset(np.array([[1.0, 5, 0.5, 1], [2.0, 5, 0.6, 2]]),
                     np.array([0, 1]), np.array([1.0, 1.0]))
        with pytest.raises(DataError, match="rssi"):
            standardize(ds)

    @pytest.mark.parametrize("width, name", [(5, "x4"), (2, "x1")])
    def test_constant_column_of_other_widths_named(self, rng, width, name):
        """Only four columns read as hn,rssi,prr,rnp; other widths name the
        columns x0, x1, ... as the exported programs do."""
        X = rng.normal(0, 1, (6, width))
        X[:, -1] = 2.0
        with pytest.raises(DataError, match=f"constant feature column '{name}'"):
            standardize(Dataset(X, np.arange(6) % 2, np.ones(6)))
        assert dataset.feature_names(width)[-1] == name


def random_ds(rng, n=50):
    X = rng.normal(0, 2, size=(n, 4))
    y = rng.integers(0, 2, n)
    y[:2] = [0, 1]
    return Dataset(X, y, rng.uniform(1, 100, n))


class TestSplit:
    def test_deterministic(self, rng):
        ds = random_ds(rng, 100)
        a = split(ds, (0.6, 0.2, 0.2), seed=7)
        b = split(ds, (0.6, 0.2, 0.2), seed=7)
        for p, q in zip(a, b):
            assert np.array_equal(p.X, q.X)

    def test_sizes_balanced_classes(self, rng):
        X = rng.normal(0, 1, size=(20, 4))
        y = np.array([0] * 10 + [1] * 10)
        ds = Dataset(X, y, np.ones(20))
        parts = split(ds, (0.6, 0.2, 0.2), seed=1)
        assert [p.n for p in parts] == [12, 4, 4]

    def test_bad_fractions(self, rng):
        ds = random_ds(rng)
        with pytest.raises(DataError, match="sum to 1"):
            split(ds, (0.6, 0.2, 0.1), seed=0)
        for fractions in ((math.nan, 1.0), (1.5, -0.5), (0.0, 1.0), (math.inf, 1.0)):
            with pytest.raises(DataError, match="finite and positive"):
                split(ds, fractions, seed=0)

    def test_disjoint_union(self, rng):
        ds = random_ds(rng, 83)
        # tag rows uniquely through a feature to track identity
        ds.X[:, 3] = np.arange(83)
        parts = split(ds, (0.5, 0.3, 0.2), seed=3)
        tags = np.concatenate([p.X[:, 3] for p in parts])
        assert sorted(tags.tolist()) == list(range(83))

    def test_stratum_empty_errors(self):
        X = np.zeros((4, 4)) + np.arange(4).reshape(-1, 1)
        ds = Dataset(X, np.array([0, 0, 0, 1]), np.ones(4))
        with pytest.raises(DataError, match="stratum"):
            split(ds, (0.5, 0.3, 0.2), seed=0)


class TestKFoldIndices:
    def test_partition(self, rng):
        ds = random_ds(rng, 47)
        folds = stratified_kfold_indices(ds, 5, seed=2)
        allidx = np.concatenate(folds)
        assert sorted(allidx.tolist()) == list(range(47))

    def test_deterministic(self, rng):
        ds = random_ds(rng, 30)
        a = stratified_kfold_indices(ds, 4, seed=9)
        b = stratified_kfold_indices(ds, 4, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


TRACE_HEADER_LINE = "node_id,t,tp_zigbee,tp_lora,hn,rssi,prr,rnp\n"


class TestReaderErrors:
    """Exact messages and row indices of the CSV readers, recorded on the
    row-by-row reader. Value errors count non-blank data rows; field-count
    errors count every record after the header, blank lines included."""

    TRACE_CASES = [
        ("t_decreases",
         "n00,3,5000,3000,2,-95,0.8,1.4\nn01,0,5000,3000,2,-95,0.8,1.4\n"
         "n00,1,5000,3000,2,-95,0.8,1.4\n",
         "row 2: t decreases for node n00"),
        ("negative_throughput",
         "n00,0,5000,3000,2,-95,0.8,1.4\nn00,1,5000,-1,2,-95,0.8,1.4\n",
         "row 1: throughputs must be finite and >= 0"),
        ("inf_throughput",
         "n00,0,inf,3000,2,-95,0.8,1.4\n",
         "row 0: throughputs must be finite and >= 0"),
        ("unparsable_cell",
         "n00,0,5000,3000,2,-95,0.8,1.4\nn00,1,5000,3000,2,abc,0.8,1.4\n",
         "row 1: cannot parse rssi='abc' as number"),
        ("prr_out_of_range",
         "n00,0,5000,3000,2,-95,1.5,1.4\n",
         "row 0: prr must be in [0,1], got 1.5"),
        ("non_finite_feature",
         "n00,0,5000,3000,2,-95,0.8,1.4\nn01,0,5000,3000,2,nan,0.8,1.4\n",
         "row 1: non-finite feature value"),
        ("hn_below_one",
         "n00,0,5000,3000,0.5,-95,0.8,1.4\n",
         "row 0: hn must be >= 1, got 0.5"),
        ("blank_line_shifts_value_rows_not",
         "n00,0,5000,3000,2,-95,0.8,1.4\n\nn00,1,5000,3000,2,-95,0.8,0.5\n",
         "row 1: rnp must be >= 1, got 0.5"),
        ("earlier_row_wins",
         "n00,5,5000,3000,2,-95,0.8,1.4\nn00,4,5000,3000,2,-95,0.8,1.4\n"
         "n00,6,5000,3000,2,x,0.8,1.4\n",
         "row 1: t decreases for node n00"),
        ("throughput_checked_before_features",
         "n00,0,-5,3000,2,-95,0.8,zz\n",
         "row 0: throughputs must be finite and >= 0"),
        ("parse_order_within_row",
         "n00,0,5000,3000,q,-95,0.8,1.4\nn00,0,y,3000,2,-95,0.8,1.4\n",
         "row 0: cannot parse hn='q' as number"),
        ("nan_t",
         "n00,5,5000,3000,2,-95,0.8,1.4\nn00,nan,5000,3000,2,-95,0.8,1.4\n"
         "n00,1,5000,3000,2,-95,0.8,1.4\n",
         "row 1: t must be finite, got nan"),
        ("t_checked_before_order",
         "n00,5,5000,3000,2,-95,0.8,1.4\nn00,-inf,5000,3000,2,-95,0.8,1.4\n",
         "row 1: t must be finite, got -inf"),
        ("features_checked_before_t",
         "n00,inf,5000,3000,2,-95,7,1.4\n",
         "row 0: prr must be in [0,1], got 7.0"),
        ("node_id_stripped",
         " n00 ,3,5000,3000,2,-95,0.8,1.4\nn00,2,5000,3000,2,-95,0.8,1.4\n",
         "row 1: t decreases for node n00"),
    ]

    DATASET_CASES = [
        ("zero_cost", "1,-90,0.9,1.1,zigbee,0\n", "row 0: cost must be finite and > 0, got 0"),
        ("inf_cost", "1,-90,0.9,1.1,zigbee,10\n1,-90,0.9,1.1,lora,inf\n",
         "row 1: cost must be finite and > 0, got inf"),
        ("unparsable_cost", "1,-90,0.9,1.1,zigbee,ten\n",
         "row 0: cannot parse cost='ten' as number"),
        ("unparsable_feature", "1,-90,0.9,1.1,zigbee,10\n1,-90,p,1.1,zigbee,10\n",
         "row 1: cannot parse prr='p' as number"),
        ("prr_out_of_range", "1,-90,-0.1,1.1,zigbee,10\n",
         "row 0: prr must be in [0,1], got -0.1"),
        ("unknown_label", "1,-90,0.9,1.1,zigbee,10\n1,-90,0.9,1.1,wifi,10\n",
         "unknown radio label 'wifi' (expected 'zigbee' or 'lora')"),
        ("cost_checked_before_label", "1,-90,0.9,1.1,wifi,0\n",
         "row 0: cost must be finite and > 0, got 0"),
        ("feature_checked_before_cost", "1,-90,0.9,0.2,zigbee,0\n",
         "row 0: rnp must be >= 1, got 0.2"),
        ("earlier_row_wins", "1,-90,0.9,1.1,wifi,10\n0,-90,0.9,1.1,zigbee,10\n",
         "unknown radio label 'wifi' (expected 'zigbee' or 'lora')"),
    ]

    @pytest.mark.parametrize("name,body,message", TRACE_CASES,
                             ids=[c[0] for c in TRACE_CASES])
    def test_load_traces_message(self, tmp_path, name, body, message):
        p = write(tmp_path / "t.csv", TRACE_HEADER_LINE + body)
        with pytest.raises(DataError) as err:
            load_traces(p)
        assert str(err.value) == message

    @pytest.mark.parametrize("name,body,message", DATASET_CASES,
                             ids=[c[0] for c in DATASET_CASES])
    def test_load_dataset_message(self, tmp_path, name, body, message):
        p = write(tmp_path / "d.csv", HEADER + body)
        with pytest.raises(DataError) as err:
            load_dataset(p)
        assert str(err.value) == message

    @pytest.mark.parametrize("loader,header,good", [
        (load_traces, TRACE_HEADER_LINE, "n00,0,5000,3000,2,-95,0.8,1.4\n"),
        (load_dataset, HEADER, "1,-90,0.9,1.1,zigbee,10\n"),
    ], ids=["traces", "dataset"])
    def test_field_count_counts_blank_lines(self, tmp_path, loader, header, good):
        short = ",".join(good.strip().split(",")[:-1]) + "\n"
        p = write(tmp_path / "f.csv", header + good + "\n" + good + short)
        with pytest.raises(DataError) as err:
            loader(p)
        n = len(good.split(","))
        assert str(err.value) == f"{p}: row 3: expected {n} fields, got {n - 1}"

    def test_blank_lines_skipped(self, tmp_path):
        row = "n00,{t},5000,3000,2,-95,0.8,1.4\n"
        p = write(tmp_path / "t.csv", TRACE_HEADER_LINE + "\n" + row.format(t=0)
                  + "\n\n" + row.format(t=1) + "\n")
        assert len(load_traces(p)) == 2
        d = write(tmp_path / "d.csv", HEADER + "\n1,-90,0.9,1.1,zigbee,10\n\n"
                  "2,-80,0.5,1.5,lora,20\n\n")
        ds = load_dataset(d)
        assert ds.n == 2
        assert np.array_equal(ds.X[1], [2.0, -80.0, 0.5, 1.5])
        assert ds.y.tolist() == [0, 1]

    def test_empty_trace_file(self, tmp_path):
        p = write(tmp_path / "t.csv", TRACE_HEADER_LINE + "\n")
        with pytest.raises(DataError) as err:
            load_traces(p)
        assert str(err.value) == f"{p}: empty trace file"

    def test_csv_syntax_error_is_not_an_encoding_error(self, tmp_path):
        p = write(tmp_path / "d.csv", HEADER + "1,-90,0.9,1.1,zigbee,10\n"
                  + "x" * 200_000 + "\n")
        with pytest.raises(DataError) as err:
            load_dataset(p)
        assert str(err.value) == (f"{p}: malformed CSV at line 3: "
                                  "field larger than field limit (131072)")


def same_outcome(a, b):
    """Equal properties.outcome results: one error message, or equal arrays."""
    (kind, got), (ref_kind, expected) = a, b
    if kind != ref_kind or kind == "error":
        return (kind, got) == (ref_kind, expected)
    same = properties.same_trace if isinstance(got, Trace) else properties.same_dataset
    return same(got, expected)


def trace_lines(n, node=lambda i: f"n{i % 3}", t=float):
    return [f"{node(i)},{t(i)},5000,3000,2,-95,0.8,1.4" for i in range(n)]


def dataset_lines(n):
    return [f"{1 + i % 4},-9{i % 10},0.{i % 10},1.{i},{('zigbee', 'lora')[i % 2]},{i + 1}"
            for i in range(n)]


def edited(lines, **edits):
    """lines with the record at index int(k[1:]) of each edit k replaced."""
    lines = list(lines)
    for key, value in edits.items():
        lines[int(key[1:])] = value
    return lines


class TestBlockBoundaries:
    """Loads with blocks of 1, 2, 3 and 7 records give the arrays or the
    error message of the default block size."""

    TRACE_BODIES = {
        "valid": trace_lines(20),
        "blank_lines_at_edges": edited(trace_lines(20), r1="", r2="  ", r6="", r7="",
                                       r13=""),
        "node_first_seen_late": edited(trace_lines(20), r15="late,15,5000,3000,2,-95,0.8,1.4",
                                       r19=" late ,19,5000,3000,2,-95,0.8,1.4"),
        "t_decreases_across_edge": edited(trace_lines(20, node=lambda i: "a"),
                                          r5="b,10,5000,3000,2,-95,0.8,1.4",
                                          r7="b,9,5000,3000,2,-95,0.8,1.4"),
        "bad_value_late": edited(trace_lines(20), r3="", r18="n0,18,5000,3000,2,-95,1.5,1.4"),
        "unparsable_late": edited(trace_lines(20), r16="n1,16,5000,3000,2,-95,0.8,q"),
        "width_after_blank": edited(trace_lines(20), r8="", r11="n2,11,5000"),
    }
    DATASET_BODIES = {
        "valid": dataset_lines(20),
        "blank_lines_at_edges": edited(dataset_lines(20), r0="", r3="", r6=" ", r13=""),
        "bad_value_late": edited(dataset_lines(20), r2="", r17="1,-90,0.9,1.1,wifi,10"),
        "zero_cost_late": edited(dataset_lines(20), r12="1,-90,0.9,1.1,lora,0"),
    }

    @pytest.mark.parametrize("name", TRACE_BODIES)
    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_traces(self, tmp_path, monkeypatch, name, rows):
        p = write(tmp_path / "t.csv", TRACE_HEADER_LINE + "\n".join(self.TRACE_BODIES[name]) + "\n")
        expected = properties.outcome(load_traces, p)
        monkeypatch.setattr(dataset, "CHUNK_ROWS", rows)
        assert same_outcome(properties.outcome(load_traces, p), expected)

    @pytest.mark.parametrize("name", DATASET_BODIES)
    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_datasets(self, tmp_path, monkeypatch, name, rows):
        p = write(tmp_path / "d.csv", HEADER + "\n".join(self.DATASET_BODIES[name]) + "\n")
        expected = properties.outcome(load_dataset, p)
        monkeypatch.setattr(dataset, "CHUNK_ROWS", rows)
        assert same_outcome(properties.outcome(load_dataset, p), expected)

    def test_outcomes_pinned(self, tmp_path):
        """What the cases above compare, at the default block size."""
        def load(name):
            p = write(tmp_path / f"{name}.csv",
                      TRACE_HEADER_LINE + "\n".join(self.TRACE_BODIES[name]) + "\n")
            return p, properties.outcome(load_traces, p)[1]
        assert load("node_first_seen_late")[1].names == ("n0", "n1", "n2", "late")
        assert load("t_decreases_across_edge")[1] == "row 7: t decreases for node b"
        assert load("bad_value_late")[1] == "row 17: prr must be in [0,1], got 1.5"
        p, got = load("width_after_blank")
        assert got == f"{p}: row 11: expected 8 fields, got 3"


@pytest.mark.parametrize("rows", [1, 2, 3, 7, None])
@pytest.mark.parametrize("loader,header,lines", [
    (load_traces, TRACE_HEADER_LINE, trace_lines),
    (load_dataset, HEADER, dataset_lines),
], ids=["traces", "dataset"])
class TestErrorPrecedence:
    """Errors of a whole-file read, in its order, although blocks are
    parsed as they are read. Files span many decode buffers, so a bad
    byte in the last block is read long after block 1 is parsed."""

    N = 3000

    def load(self, monkeypatch, loader, path, rows):
        if rows is not None:
            monkeypatch.setattr(dataset, "CHUNK_ROWS", rows)
        with pytest.raises(DataError) as err:
            loader(path)
        return str(err.value)

    def test_bad_header_then_bad_byte(self, tmp_path, monkeypatch, rows, loader,
                                      header, lines):
        p = tmp_path / "f.csv"
        text = header.replace("rssi", "rss") + "\n".join(lines(self.N)) + "\n"
        p.write_bytes(text.encode() + b"\xff\n")
        assert self.load(monkeypatch, loader, p, rows).startswith(
            f"{p}: not a UTF-8 CSV file: 'utf-8' codec can't decode byte 0xff")

    def test_bad_width_then_bad_byte(self, tmp_path, monkeypatch, rows, loader,
                                     header, lines):
        p = tmp_path / "f.csv"
        body = edited(lines(self.N), r1="1,2")
        p.write_bytes((header + "\n".join(body) + "\n").encode() + b"\xff\n")
        assert self.load(monkeypatch, loader, p, rows).startswith(
            f"{p}: not a UTF-8 CSV file")

    def test_bad_value_then_bad_width(self, tmp_path, monkeypatch, rows, loader,
                                      header, lines):
        first = lines(self.N)[0].split(",")
        first[1] = "x"
        body = edited(lines(self.N), r0=",".join(first), r2="")
        p = write(tmp_path / "f.csv", header + "\n".join(body) + "\n1,2\n")
        width = len(header.split(","))
        assert self.load(monkeypatch, loader, p, rows) == (
            f"{p}: row {self.N}: expected {width} fields, got 2")


@pytest.mark.parametrize("rows", [1, 3, 7, None])
class TestPlainAndCsvLines:
    """Plain lines are split on their commas, and csv.reader reads from the
    first block holding another line to the end of the file. Files of N
    records put that line at record LATE, after two blocks of the default
    size, and the outcome is csv.reader's whatever the block size."""

    N, LATE = 5000, 4100
    LOADERS = [(load_traces, TRACE_HEADER_LINE, trace_lines),
               (load_dataset, HEADER, dataset_lines)]
    IDS = ["traces", "dataset"]
    REFERENCE = {load_traces: properties.reference_load_traces,
                 load_dataset: properties.reference_load_dataset}

    def load(self, monkeypatch, loader, path, rows):
        if rows is not None:
            monkeypatch.setattr(dataset, "CHUNK_ROWS", rows)
        return properties.outcome(loader, path)

    @pytest.mark.parametrize("crlf_from", [0, LATE])
    @pytest.mark.parametrize("loader,header,lines", LOADERS, ids=IDS)
    def test_crlf_loads_as_its_lf_twin(self, tmp_path, monkeypatch, rows, crlf_from, loader,
                                       header, lines):
        body = lines(self.N)
        lf = write(tmp_path / "lf.csv", header + "\n".join(body) + "\n")
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes((header + "\n".join(body[:crlf_from]) + "\n" * (crlf_from > 0)
                          + "".join(line + "\r\n" for line in body[crlf_from:])).encode())
        expected = properties.outcome(loader, lf)
        assert expected[0] == "ok"
        assert same_outcome(self.load(monkeypatch, loader, crlf, rows), expected)

    @pytest.mark.parametrize("loader,header,lines", LOADERS, ids=IDS)
    def test_crlf_cell_is_named_without_its_line_end(self, tmp_path, monkeypatch, rows,
                                                     loader, header, lines):
        body = lines(self.N)
        body[self.LATE] = body[self.LATE].rsplit(",", 1)[0] + ",x"
        p = tmp_path / "f.csv"
        p.write_bytes((header + "".join(line + "\r\n" for line in body)).encode())
        name = header.strip().split(",")[-1]
        assert self.load(monkeypatch, loader, p, rows) == (
            "error", f"row {self.LATE}: cannot parse {name}='x' as number")

    @pytest.mark.parametrize("loader,header,lines", LOADERS, ids=IDS)
    def test_widths_off_both_ways_in_one_block(self, tmp_path, monkeypatch, rows, loader,
                                               header, lines):
        """One line too wide and the next too narrow hold the right number
        of commas between them, but not each."""
        body = lines(self.N)
        body[self.LATE - 1] += ",9"
        body[self.LATE] = body[self.LATE].rsplit(",", 1)[0]
        p = write(tmp_path / "f.csv", header + "\n".join(body) + "\n")
        width = len(header.split(","))
        assert self.load(monkeypatch, loader, p, rows) == (
            "error", f"{p}: row {self.LATE - 1}: expected {width} fields, got {width + 1}")

    def test_quoted_line_break_in_a_late_node_id(self, tmp_path, monkeypatch, rows):
        body = trace_lines(self.N)
        body[self.LATE] = '"a\nb",4100,5000,3000,2,-95,0.8,1.4'
        p = write(tmp_path / "t.csv", TRACE_HEADER_LINE + "\n".join(body) + "\n")
        kind, got = self.load(monkeypatch, load_traces, p, rows)
        assert kind == "ok"
        assert got.names == ("n0", "n1", "n2", "a\nb")
        assert got.node_ids()[self.LATE] == "a\nb" and len(got) == self.N
        assert same_outcome((kind, got), properties.outcome(properties.reference_load_traces, p))

    @pytest.mark.parametrize("loader,header,lines", LOADERS, ids=IDS)
    def test_field_past_the_limit_with_the_right_commas(self, tmp_path, monkeypatch, rows,
                                                        loader, header, lines):
        body = lines(self.N)
        long = "1" * (csv.field_size_limit() + 1)
        body[self.LATE] = body[self.LATE].rsplit(",", 1)[0] + "," + long
        p = write(tmp_path / "f.csv", header + "\n".join(body) + "\n")
        expected = (f"{p}: malformed CSV at line {self.LATE + 2}: "
                    f"field larger than field limit ({csv.field_size_limit()})")
        assert self.load(monkeypatch, loader, p, rows) == ("error", expected)
        assert properties.outcome(self.REFERENCE[loader], p) == ("error", expected)

    @pytest.mark.parametrize("loader,header,lines", LOADERS, ids=IDS)
    def test_bad_header_then_syntax_error(self, tmp_path, monkeypatch, rows, loader, header,
                                          lines):
        """The whole file goes through csv.reader after a bad header, so a
        later syntax error wins over the header's."""
        body = lines(self.N)
        body[self.LATE] = "x" * (csv.field_size_limit() + 1)
        p = write(tmp_path / "f.csv", header.replace("rssi", "rss") + "\n".join(body) + "\n")
        assert self.load(monkeypatch, loader, p, rows) == (
            "error", f"{p}: malformed CSV at line {self.LATE + 2}: "
                     f"field larger than field limit ({csv.field_size_limit()})")

    def test_syntax_error_line_counts_every_line_read(self, tmp_path, monkeypatch, rows):
        """A line break inside a quoted cell is a line of its own."""
        body = trace_lines(self.N)
        body[self.LATE] = '"a\n\nb",4100,5000,3000,2,-95,0.8,1.4'
        body[self.LATE + 100] = "n1," + "1" * (csv.field_size_limit() + 1) + ",1,1,1,1,1,1"
        p = write(tmp_path / "t.csv", TRACE_HEADER_LINE + "\n".join(body) + "\n")
        assert self.load(monkeypatch, load_traces, p, rows) == (
            "error", f"{p}: malformed CSV at line {self.LATE + 100 + 2 + 2}: "
                     f"field larger than field limit ({csv.field_size_limit()})")

    @pytest.mark.parametrize("loader,header,lines", LOADERS, ids=IDS)
    def test_nul_byte(self, tmp_path, monkeypatch, rows, loader, header, lines):
        """A NUL starts a node id or a number. csv.reader takes it as a
        character from Python 3.11 on and rejects its line before."""
        body = lines(self.N)
        body[self.LATE] = "\0" + body[self.LATE]
        p = write(tmp_path / "f.csv", header + "\n".join(body) + "\n")
        assert same_outcome(self.load(monkeypatch, loader, p, rows),
                            properties.outcome(self.REFERENCE[loader], p))

    LAST_RECORDS = {  # long number cells, the last one right at the end of the file
        load_traces: "n1,9999,9295.0466232339331,5739.6295624372788,1,-74.35269253864891,"
                     "0.89677325708244193,1.0688591957172766",
        load_dataset: "1,-74.35269253864891,0.89677325708244193,1.0688591957172766,zigbee,"
                      "3555.4170607966544"}

    @pytest.mark.parametrize("loader,header,lines", LOADERS, ids=IDS)
    def test_last_record_without_its_line_end(self, tmp_path, monkeypatch, rows, loader,
                                              header, lines):
        """A file whose last record lacks its '\\n' loads as its twin with
        it, and that last block is plain: its bytes are parsed."""
        body = lines(self.N) + [self.LAST_RECORDS[loader]]
        with_end = write(tmp_path / "a.csv", header + "\n".join(body) + "\n")
        without = write(tmp_path / "b.csv", header + "\n".join(body))
        expected = properties.outcome(loader, with_end)
        assert expected[0] == "ok"
        plain_lines, blocks = dataset._plain_lines, []

        def recorded(lines, width):
            blocks.append(plain_lines(lines, width))
            return blocks[-1]

        monkeypatch.setattr(dataset, "_plain_lines", recorded)
        assert same_outcome(self.load(monkeypatch, loader, without, rows), expected)
        assert blocks[-1] is not None


def test_load_memory_is_arrays_plus_a_block(tmp_path, monkeypatch, rng):
    """Peak traced memory of a ~20k-row load stays within 4x the arrays
    returned: the cells of one block are alive at a time, not the file's."""
    n = 20_000
    trace = Trace(("n00", "n01", "n02"), np.arange(n) % 3, np.arange(n) // 3 * 1.5,
                  *rng.uniform(0, 9000, size=(2, n)), rng.integers(1, 5, n).astype(float),
                  rng.uniform(-120, -70, n), rng.uniform(0, 1, n), rng.uniform(1, 8, n))
    save_traces(trace, tmp_path / "t.csv")
    save_dataset(label_traces(trace), tmp_path / "d.csv")
    monkeypatch.setattr(dataset, "CHUNK_ROWS", 1024)
    for load, path in ((load_traces, tmp_path / "t.csv"), (load_dataset, tmp_path / "d.csv")):
        tracemalloc.start()
        try:
            got = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = ([got.node] + [getattr(got, c) for c in dataset.TRACE_COLUMNS]
                  if isinstance(got, Trace) else [got.X, got.y, got.c])
        assert peak <= 4 * sum(a.nbytes for a in arrays), load.__name__


def test_trace_load_peak_is_well_under_twice_its_arrays(tmp_path, rng):
    """The loader joins its blocks one column at a time and drops a
    column's blocks once it is joined, so a 100k-record load peaks well
    under the blocks plus every joined column (twice the arrays returned).
    At this size one block's cell strings are a small share of the peak."""
    n = 100_000
    trace = Trace(tuple(f"node-{k}" for k in range(20)), rng.integers(0, 20, n),
                  np.arange(n) * 0.37, *rng.uniform(0, 6000, size=(2, n)),
                  rng.integers(1, 6, n).astype(float), rng.uniform(-120, -60, n),
                  rng.uniform(0, 1, n), rng.uniform(1, 5, n))
    save_traces(trace, tmp_path / "t.csv")
    del trace
    tracemalloc.start()
    try:
        got = load_traces(tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = got.node.nbytes + sum(getattr(got, c).nbytes for c in dataset.TRACE_COLUMNS)
    assert peak < 1.6 * returned


def in_three_row_blocks(prop, **strategies):
    """A property test of test_csv_properties, run with 3-record blocks so
    that its files of up to 25 rows span blocks."""
    @properties.SETTINGS
    @given(**strategies)
    def test(tmp_path, monkeypatch, **drawn):
        monkeypatch.setattr(dataset, "CHUNK_ROWS", 3)
        prop.hypothesis.inner_test(None, tmp_path, **drawn)
    return test


test_round_trip_traces_in_blocks = in_three_row_blocks(
    properties.TestRoundTrip.test_traces, trace=properties.traces())
test_round_trip_dataset_in_blocks = in_three_row_blocks(
    properties.TestRoundTrip.test_dataset, ds=properties.datasets())
test_corrupted_traces_in_blocks = in_three_row_blocks(
    properties.TestCorruptedFiles.test_traces_match_reference,
    data=st.data(), trace=properties.traces())
test_corrupted_dataset_in_blocks = in_three_row_blocks(
    properties.TestCorruptedFiles.test_dataset_matches_reference,
    data=st.data(), ds=properties.datasets())


class TestSingleRead:
    """Each loader reads its file once, on a valid file and on a failing
    one, so that the error is found in the same read as the rows."""

    CASES = {
        "traces": (load_traces, trace_lines(9), None),
        "traces_bad_prr": (load_traces, edited(trace_lines(9), r4="n1,4,5000,3000,2,-95,2,1.4"),
                           "row 4: prr must be in [0,1], got 2.0"),
        "traces_t_decreases": (load_traces,
                               edited(trace_lines(9), r7="n1,0,5000,3000,2,-95,1,1.4"),
                               "row 7: t decreases for node n1"),
        "dataset": (load_dataset, dataset_lines(9), None),
        "dataset_bad_prr": (load_dataset, edited(dataset_lines(9), r5="1,-90,1.5,1.1,zigbee,10"),
                            "row 5: prr must be in [0,1], got 1.5"),
    }

    @pytest.mark.parametrize("rows", [2, None])
    @pytest.mark.parametrize("name", CASES)
    def test_read_blocks_called_once(self, tmp_path, monkeypatch, rows, name):
        loader, lines, message = self.CASES[name]
        header = TRACE_HEADER_LINE if loader is load_traces else HEADER
        p = write(tmp_path / "f.csv", header + "\n".join(lines) + "\n")
        if rows is not None:
            monkeypatch.setattr(dataset, "CHUNK_ROWS", rows)
        reads = []
        read_blocks = dataset._read_blocks

        def counted(path, expected_header):
            reads.append(path)
            return read_blocks(path, expected_header)

        monkeypatch.setattr(dataset, "_read_blocks", counted)
        kind, got = properties.outcome(loader, p)
        assert reads == [p]
        assert (got if kind == "error" else None) == message

    def test_file_rewritten_after_read_does_not_change_the_outcome(self, tmp_path,
                                                                  monkeypatch):
        """A file that changes once it has been read is judged on what was
        read: a bad row found in the read is reported."""
        p = write(tmp_path / "d.csv", HEADER + "1,-90,0.9,1.1,zigbee,10\n"
                  "1,-90,1.5,1.1,zigbee,10\n")
        read_blocks = dataset._read_blocks

        def rewriting(path, expected_header):
            yield from read_blocks(path, expected_header)
            write(p, HEADER + "1,-90,0.9,1.1,zigbee,10\n" * 2)

        monkeypatch.setattr(dataset, "_read_blocks", rewriting)
        with pytest.raises(DataError) as err:
            load_dataset(p)
        assert str(err.value) == "row 1: prr must be in [0,1], got 1.5"


@pytest.mark.parametrize("loader,text", [
    (load_traces, TRACE_HEADER_LINE + "n00,0,5000,3000,2,-95,0.8,1.4\n"),
    (load_dataset, HEADER + "1,-90,0.9,1.1,zigbee,10\n"),
], ids=["traces", "dataset"])
def test_utf8_bom_is_skipped(tmp_path, loader, text):
    """A file saved as "CSV UTF-8" starts with a byte order mark; it loads
    as the same file without one."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert same_outcome(properties.outcome(loader, marked), properties.outcome(loader, plain))
    assert properties.outcome(loader, marked)[0] == "ok"


@pytest.mark.parametrize("width", [3, 5])
def test_save_dataset_needs_the_four_features(tmp_path, width):
    path = tmp_path / "d.csv"
    ds = Dataset(np.ones((2, width)), [0, 1], [1.0, 2.0])
    with pytest.raises(DataError, match=f"hold the features hn,rssi,prr,rnp, got {width}$"):
        save_dataset(ds, path)
    assert not path.exists()


def test_node_ids_quoted_as_csv_needs(tmp_path):
    """Node ids holding "," or '"' are quoted and load back; others are
    written as they are."""
    trace = Trace(("a,b", 'say "hi"', "n00"), [0, 1, 2], [0.0, 1.0, 2.0],
                  [5.0] * 3, [3.0] * 3, [2.0] * 3, [-95.0] * 3, [0.5] * 3, [1.5] * 3)
    path = tmp_path / "t.csv"
    save_traces(trace, path)
    assert path.read_text() == (TRACE_HEADER_LINE + '"a,b",0,5,3,2,-95,0.5,1.5\n'
                                '"say ""hi""",1,5,3,2,-95,0.5,1.5\n'
                                "n00,2,5,3,2,-95,0.5,1.5\n")
    assert load_traces(path) == trace


@given(st.text())
def test_csv_cell_quotes_as_csv_writer(text):
    """csv_cell writes a cell as the default csv.writer (QUOTE_MINIMAL,
    line terminator CR LF) does in a row of more than one cell (a lone
    empty cell is csv.writer's special case)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, "x"])
    assert dataset.csv_cell(text) + ",x\r\n" == buf.getvalue()


@pytest.mark.parametrize("bad", [" a", "b ", "c\t"])
def test_save_traces_rejects_node_ids_the_reader_strips(tmp_path, bad):
    """load_traces strips node ids, so an id with outer whitespace would
    load back as another node (or merge with one): no file is written."""
    trace = Trace(("a", bad), [0, 1], [0.0, 1.0], [5.0] * 2, [3.0] * 2, [2.0] * 2,
                  [-95.0] * 2, [0.5] * 2, [1.5] * 2)
    path = tmp_path / "t.csv"
    with pytest.raises(DataError, match=re.escape(f"node id {bad!r} has leading or trailing")):
        save_traces(trace, path)
    assert not path.exists()


@pytest.mark.parametrize("column, value, message", [
    ("tp_zigbee", -1.0, "row 1: throughputs must be finite and >= 0"),
    ("tp_lora", math.inf, "row 1: throughputs must be finite and >= 0"),
    ("t", math.nan, "row 1: t must be finite, got nan"),
    ("t", -1.0, "row 1: t decreases for node n0"),
    ("hn", 0.5, "row 1: hn must be >= 1, got 0.5"),
    ("prr", 1.5, "row 1: prr must be in [0,1], got 1.5"),
    ("node", 1, "row 1: t decreases for node n0"),   # two codes of one name
], ids=["throughput_negative", "throughput_inf", "t_nan", "t_decreases", "hn", "prr",
        "t_decreases_by_name"])
def test_save_traces_rejects_what_load_traces_rejects(tmp_path, column, value, message):
    """The writer checks the reader's rules and raises its message before
    it creates the file."""
    columns = {"t": [0.0, 1.0, 2.0], "tp_zigbee": [5.0] * 3, "tp_lora": [3.0] * 3,
               "hn": [2.0] * 3, "rssi": [-95.0] * 3, "prr": [0.5] * 3, "rnp": [1.5] * 3,
               "node": [0, 0, 0]}
    columns[column][1] = value
    if column == "node":
        columns["t"] = [0.0, -1.0, 2.0]
    path = tmp_path / "t.csv"
    trace = Trace(("n0", "n0"), columns["node"], *(columns[c] for c in dataset.TRACE_COLUMNS))
    with pytest.raises(DataError, match=re.escape(message)):
        save_traces(trace, path)
    assert not path.exists()
    rows = "".join("n0," + ",".join(repr(columns[c][i]) for c in dataset.TRACE_COLUMNS) + "\n"
                   for i in range(3))
    with pytest.raises(DataError, match=re.escape(message)):
        load_traces(write(path, TRACE_HEADER_LINE + rows))


class TestBinaryReader:
    """Plain blocks come from the file's bytes, the rest of a file from a
    text read, and errors from a whole-file text read: every outcome is
    the reference reader's, error messages with their decode positions
    and line numbers included."""

    N = 5000
    LOADERS, IDS = TestPlainAndCsvLines.LOADERS, TestPlainAndCsvLines.IDS
    REFERENCE = TestPlainAndCsvLines.REFERENCE

    @staticmethod
    def paths(monkeypatch):
        """Counts of the blocks each path reads: the plain blocks' bytes
        and the csv.reader records' blocks."""
        counts = {"plain": 0, "text": 0}
        plain_lines, record_block = dataset._plain_lines, dataset._record_block

        def plain(lines, width):
            block = plain_lines(lines, width)
            counts["plain"] += block is not None
            return block

        def records(header, rows):
            counts["text"] += 1
            return record_block(header, rows)

        monkeypatch.setattr(dataset, "_plain_lines", plain)
        monkeypatch.setattr(dataset, "_record_block", records)
        return counts

    def check(self, loader, path):
        """The loader's outcome, which must be the reference reader's."""
        got = properties.outcome(loader, path)
        assert same_outcome(got, properties.outcome(self.REFERENCE[loader], path))
        return got

    @pytest.mark.parametrize("rows", [3, None])
    @pytest.mark.parametrize("loader,header,lines", LOADERS, ids=IDS)
    def test_bom_file_takes_the_plain_path(self, tmp_path, monkeypatch, rows, loader, header,
                                           lines):
        if rows is not None:
            monkeypatch.setattr(dataset, "CHUNK_ROWS", rows)
        p = tmp_path / "f.csv"
        p.write_bytes(b"\xef\xbb\xbf" + (header + "\n".join(lines(self.N)) + "\n").encode())
        counts = self.paths(monkeypatch)
        assert self.check(loader, p)[0] == "ok"
        assert counts["plain"] > 0 and counts["text"] == 0

    @pytest.mark.parametrize("rows", [3, None])
    def test_non_ascii_ids_take_the_plain_path(self, tmp_path, monkeypatch, rows):
        if rows is not None:
            monkeypatch.setattr(dataset, "CHUNK_ROWS", rows)
        names = ("nœud-é", "узел", "节点-1", "n0")
        p = write(tmp_path / "t.csv", TRACE_HEADER_LINE + "\n".join(
            trace_lines(self.N, node=lambda i: names[i % 4])) + "\n")
        counts = self.paths(monkeypatch)
        kind, got = self.check(load_traces, p)
        assert kind == "ok" and got.names == names
        assert counts["plain"] > 0 and counts["text"] == 0

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("where", ["first_block", "middle_block", "last_window",
                                       "after_a_text_block"])
    @pytest.mark.parametrize("loader,header,lines", LOADERS, ids=IDS)
    def test_bad_byte_message_is_the_whole_file_reads(self, tmp_path, monkeypatch, rows,
                                                      where, loader, header, lines):
        """A byte that is not UTF-8 in a plain line, read from bytes or after
        csv.reader has taken over, gives the whole-file decode message."""
        if rows is not None:
            monkeypatch.setattr(dataset, "CHUNK_ROWS", rows)
        body = [line.encode() for line in lines(self.N)]
        at = {"first_block": 1, "middle_block": 2500, "last_window": self.N - 1,
              "after_a_text_block": 4500}[where]
        body[at] = b"\xff" + body[at][1:] if loader is load_traces else body[at] + b"\xc3"
        if where == "after_a_text_block":
            body[3000] = body[3000].replace(b",", b',"', 1) + b'"'
        p = tmp_path / "f.csv"
        p.write_bytes(header.encode() + b"\n".join(body) + b"\n")
        kind, message = self.check(loader, p)
        assert kind == "error" and message.startswith(f"{p}: not a UTF-8 CSV file: 'utf-8' "
                                                      f"codec can't decode byte")

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_line_longer_than_the_first_window(self, tmp_path, monkeypatch, rows):
        if rows is not None:
            monkeypatch.setattr(dataset, "CHUNK_ROWS", rows)
        long = "x" * (3 * io.DEFAULT_BUFFER_SIZE)
        body = trace_lines(20, node=lambda i: long if i in (0, 7, 8) else f"n{i % 3}")
        p = write(tmp_path / "t.csv", TRACE_HEADER_LINE + "\n".join(body) + "\n")
        counts = self.paths(monkeypatch)
        kind, got = self.check(load_traces, p)
        assert kind == "ok" and got.names == (long, "n1", "n2", "n0")
        assert counts["plain"] > 0 and counts["text"] == 0

    @pytest.mark.parametrize("rows", [1, 3, 2048])
    def test_blocks_after_a_long_line(self, tmp_path, monkeypatch, rows):
        """One line of 1 MB grows the window; the short lines after it are
        still cut into blocks of CHUNK_ROWS lines at their file offsets, and
        the file loads as the reference reads it."""
        monkeypatch.setattr(dataset, "CHUNK_ROWS", rows)
        body = trace_lines(self.N)
        body[0] = "x" * 131_072 + "".join(
            "," + (c if "." in c else c + ".").ljust(131_072, "0") for c in body[0].split(",")[1:])
        data = (TRACE_HEADER_LINE + "\n".join(body)).encode()
        lines = data.splitlines(keepends=True)[1:]
        offsets = np.cumsum([len(TRACE_HEADER_LINE)] + [len(x) for x in lines])
        with io.BytesIO(data) as fh:
            fh.seek(len(TRACE_HEADER_LINE))
            got = [(at, bytes(block)) for at, block in dataset._line_blocks(fh)]
        assert got == [(offsets[i], b"".join(lines[i:i + rows]))
                       for i in range(0, len(lines), rows)]
        p = tmp_path / "t.csv"
        p.write_bytes(data)
        counts = self.paths(monkeypatch)
        assert self.check(load_traces, p)[0] == "ok"
        assert counts["plain"] > 0 and counts["text"] == 0

    @pytest.mark.parametrize("loader,header,lines", LOADERS, ids=IDS)
    def test_quoted_header_sends_the_file_to_the_text_path(self, tmp_path, monkeypatch,
                                                           loader, header, lines):
        quoted = ",".join(f'"{c}"' if i < 2 else c for i, c in enumerate(header.split(",")))
        p = write(tmp_path / "f.csv", quoted + "\n".join(lines(self.N)) + "\n")
        counts = self.paths(monkeypatch)
        assert self.check(loader, p)[0] == "ok"
        assert counts == {"plain": 0, "text": -(-self.N // dataset.CHUNK_ROWS)}

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_syntax_error_after_the_text_path_starts(self, tmp_path, monkeypatch, rows):
        """With field_size_limit lowered, a cell past it after csv.reader
        has taken over mid-file is named at the whole-file line number."""
        if rows is not None:
            monkeypatch.setattr(dataset, "CHUNK_ROWS", rows)
        body = trace_lines(self.N)
        body[3000] = '"a\n\nb",3000,5000,3000,2,-95,0.8,1.4'
        body[4000] = "n1,1" + "0" * 60 + ",5000,3000,2,-95,0.8,1.4"
        p = write(tmp_path / "t.csv", TRACE_HEADER_LINE + "\n".join(body) + "\n")
        limit = csv.field_size_limit(40)
        try:
            got = self.check(load_traces, p)
        finally:
            csv.field_size_limit(limit)
        assert got == ("error", f"{p}: malformed CSV at line {4000 + 2 + 2}: "
                                f"field larger than field limit (40)")

    def test_file_that_reads_cleanly_the_second_time(self, tmp_path, monkeypatch):
        """A decode error that the whole-file read does not find again (the
        file changed in between) is still a data error."""
        p = write(tmp_path / "t.csv", TRACE_HEADER_LINE + "\n".join(trace_lines(9)) + "\n")

        def undecodable(lines, width):
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        monkeypatch.setattr(dataset, "_plain_lines", undecodable)
        with pytest.raises(DataError, match=re.escape(f"{p}: changed while read: 'utf-8'")):
            load_traces(p)


# Node ids past 8 bytes by their UTF-8 length: one word keys no such id
LONG_IDS = {"11": ("sensor-0001", "sensor-0002", "sensor-001", "sensor-00011"),
            "16": ("field-sensor-001", "field-sensor-002", "field-sensor-0010", "x"),
            "24": ("building-a-sensor-000001", "building-a-sensor-000002",
                   "building-a-sensor-00000", "building-a-sensor-000000"),
            "25": ("building-a-sensor-0000001", "building-a-sensor-0000002",
                   "building-a-sensor-000001", "n0"),
            "utf8": ("é" * 4 + "a", "aé" * 3, "é" * 8, "é" * 12, "éa" * 6 + "!", "节点节点节点节点")}


@pytest.mark.parametrize("rows", [3, None])
@pytest.mark.parametrize("ids", LONG_IDS)
def test_long_node_ids_load_as_the_reference(tmp_path, monkeypatch, rows, ids):
    """Ids past 8 bytes, of mixed lengths and with shared prefixes, code in
    order of first appearance in every block."""
    if rows is not None:
        monkeypatch.setattr(dataset, "CHUNK_ROWS", rows)
    names = LONG_IDS[ids]
    order = [0, 0, 1, 2, 1, 3, 0, 3, 2] + [int(k) for k in np.random.default_rng(4).integers(
        0, len(names), 3000)]
    body = trace_lines(len(order), node=lambda i: names[order[i]])
    p = write(tmp_path / "t.csv", TRACE_HEADER_LINE + "\n".join(body) + "\n")
    kind, got = properties.outcome(load_traces, p)
    assert same_outcome((kind, got), properties.outcome(properties.reference_load_traces, p))
    assert kind == "ok" and set(got.names) == set(names)
