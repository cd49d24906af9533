import re
import warnings

import numpy as np
import pytest
from dataclasses import replace

from conftest import check_replay, leaf_tree
from radiosel import dataset, simulator
from radiosel.errors import DataError
from radiosel.simulator import (AlwaysSelector, OracleSelector, ScenarioConfig,
                                SweepRow, ThresholdSelector, TreeSelector,
                                _stale_traces, generate, hop_count, interval_sweep,
                                mean_wait_s, occupancy, replay, staleness_probability)


def _stale_reference(traces, cfg, interval_s, seed):
    """Row-by-row staleness injection: each node, in sorted-name order,
    draws one stale flag per row and a stale row takes the PRR/RNP of the
    node's row `lag` places earlier (clamped at its first row)."""
    p_stale = staleness_probability(cfg, interval_s)
    if p_stale == 0.0:
        return traces
    lag = 1 + int(mean_wait_s(cfg, interval_s) / interval_s)
    rng = np.random.default_rng(np.random.SeedSequence([seed, int(interval_s * 1000), 0xA5]))
    by_node = {}
    for i, node_id in enumerate(traces.node_ids()):
        by_node.setdefault(node_id, []).append(i)
    prr, rnp = traces.prr.tolist(), traces.rnp.tolist()
    for node_id, idxs in sorted(by_node.items()):
        stale = rng.random(len(idxs)) < p_stale
        for pos, i in enumerate(idxs):
            if stale[pos]:
                src = idxs[max(0, pos - lag)]
                prr[i], rnp[i] = traces.prr[src], traces.rnp[src]
    return replace(traces, prr=prr, rnp=rnp)


@pytest.fixture(scope="module")
def cfg():
    return ScenarioConfig()


@pytest.fixture(scope="module")
def traces(cfg):
    return generate(cfg, seed=42)


class TestScenarioConfig:
    def test_json_round_trip(self, cfg):
        again = ScenarioConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(DataError, match="unknown"):
            ScenarioConfig.from_json('{"bogus": 1}')

    def test_needs_a_node(self):
        with pytest.raises(DataError, match="at least one node"):
            ScenarioConfig(distances_m=())

    def test_version_checked(self):
        with pytest.raises(DataError, match="config_version"):
            ScenarioConfig(config_version=9)

    @pytest.mark.parametrize("field, value, message", [
        ("zigbee_hop_capacity_bps", 0.0, "zigbee_hop_capacity_bps must be > 0"),
        ("zigbee_hop_capacity_bps", -1.0, "zigbee_hop_capacity_bps must be > 0"),
        ("lora_base_rate_bps", -1.0, "lora_base_rate_bps must be > 0"),
        ("rnp_cap", 0.0, "rnp_cap must be > 0"),
        ("lora_rate_tiers", ((-85.0, 5470.0), (-90.3, -1.0)), "lora_rate_tiers[1] rate must be > 0"),
        ("service_time_s", -1.0, "service_time_s must be > 0"),
        ("service_time_s", 0.0, "service_time_s must be > 0"),
        ("prr_ceil", 0.0, "prr_ceil must be in (0, 1], got 0.0"),
        ("prr_ceil", 1.01, "prr_ceil must be in (0, 1], got 1.01"),
        ("prr_ceil", 0.05, "prr_floor must be in [0, prr_ceil], got 0.1 with prr_ceil 0.05"),
        ("prr_floor", -0.01, "prr_floor must be in [0, prr_ceil], got -0.01"),
    ], ids=["zigbee_zero", "zigbee_negative", "lora_base_negative", "rnp_cap_zero",
            "lora_tier_negative", "service_negative", "service_zero", "prr_ceil_zero",
            "prr_ceil_above_one", "prr_ceil_below_floor", "prr_floor_negative"])
    def test_throughput_scales_must_be_positive(self, field, value, message):
        """A throughput scale <= 0 makes throughputs that the trace reader
        rejects, or a radio whose mean throughput is 0. A service time <= 0
        gives negative sweep latencies. A PRR range outside [0, 1] gives
        impossible reception ratios, and one whose floor is above its
        ceiling clips every packet's PRR to prr_ceil."""
        with pytest.raises(DataError, match=re.escape(message)):
            ScenarioConfig(**{field: value})

    def test_prr_bounds_are_inclusive(self):
        ScenarioConfig(prr_floor=0.0, prr_ceil=1.0)
        ScenarioConfig(prr_floor=0.5, prr_ceil=0.5)

    @pytest.mark.parametrize("field, value, message", [
        ("hop_range_m", 5e-324, "hop_range_m 5e-324 is too small: 1600.0 m over it"),
        ("packet_interval_s", 1e308, "packet_interval_s 1e+308 times 119 is past"),
    ], ids=["hop_range_subnormal", "interval_huge"])
    def test_hop_count_and_packet_times_must_be_floats(self, field, value, message):
        """The farthest node's hop count and the last packet's time would
        be inf: math.ceil(inf) raised OverflowError, and an inf t failed the
        trace writer with a CSV row number."""
        with pytest.raises(DataError, match=re.escape(message)):
            ScenarioConfig(**{field: value})


class TestGenerate:
    def test_deterministic_csv_bytes(self, cfg, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        dataset.save_traces(generate(cfg, seed=5), a)
        dataset.save_traces(generate(cfg, seed=5), b)
        assert a.read_bytes() == b.read_bytes()

    def test_shape_and_schedule(self, cfg, traces):
        assert len(traces) == cfg.n_nodes * cfg.n_packets
        m = cfg.n_packets
        assert all(name == "n00" for name in traces.node_ids()[:m])
        assert traces.t[:m].tolist() == [i * cfg.packet_interval_s for i in range(m)]
        assert traces.names == tuple(f"n{idx:02d}" for idx in range(cfg.n_nodes))

    def test_hop_count_from_distance(self, cfg, traces):
        for idx, d in enumerate(cfg.distances_m):
            hn = hop_count(cfg, d)
            assert hn == int(np.ceil(d / cfg.hop_range_m)) or d <= cfg.hop_range_m
            rows = traces.node_ids() == f"n{idx:02d}"
            assert rows.sum() == cfg.n_packets
            assert np.all(traces.hn[rows] == hn)

    def test_zigbee_single_hop_beats_four_hops(self, cfg):
        probe = replace(cfg, distances_m=(200.0, 1000.0), n_packets=1000)
        rs = generate(probe, seed=9)
        one = np.mean(rs.tp_zigbee[rs.hn == 1.0])
        four = np.mean(rs.tp_zigbee[rs.hn == 4.0])
        assert one > four

    def test_gray_region_has_more_near_ties(self, cfg):
        probe = replace(cfg, n_packets=670)  # ~10k packets
        rs = generate(probe, seed=0)
        lo, hi = 500.0, 1200.0   # the contested band of the module docstring
        inside, outside = [], []
        for node_id, tpz, tpl in zip(rs.node_ids(), rs.tp_zigbee, rs.tp_lora):
            d = cfg.distances_m[int(node_id[1:])]
            (inside if lo <= d <= hi else outside).append(abs(tpz - tpl) <= 200.0)
        assert np.mean(inside) > np.mean(outside)

    def test_features_are_valid_dataset_rows(self, traces):
        ds = dataset.label_traces(traces)
        assert ds.n > 0  # invariants checked inside Dataset

    def test_label_cost_cross_module_identity(self, traces):
        ds = dataset.label_traces(traces)
        diffs = [abs(tpz - tpl) for tpz, tpl in zip(traces.tp_zigbee, traces.tp_lora)
                 if tpz != tpl]
        assert np.array_equal(ds.c, np.array(diffs))


class TestReplay:
    def test_oracle_ratio_one(self, traces):
        res = replay(traces, OracleSelector())
        assert res.performance_ratio == 1.0
        assert res.oracle_gap_bps == 0.0

    def test_always_best_equals_oracle_when_dominant(self):
        cfg = ScenarioConfig(distances_m=(150.0,), n_packets=200)
        rs = generate(cfg, seed=1)
        if np.all(rs.tp_zigbee > rs.tp_lora):  # near node: zigbee dominant
            res = replay(rs, AlwaysSelector(0))
            assert res.performance_ratio == 1.0

    def test_achieved_never_exceeds_oracle(self, traces, rng):
        for sel in (AlwaysSelector(0), AlwaysSelector(1), ThresholdSelector(3),
                    TreeSelector(leaf_tree(1))):
            res = replay(traces, sel)
            _, achieved, oracle = check_replay(res, traces, sel)
            assert np.all(achieved <= oracle)
            assert 0.0 < res.performance_ratio <= 1.0

    def test_tree_selector_dimension_checked(self, rng):
        from conftest import random_tree
        bad = random_tree(rng, dim=3, depth=1)
        with pytest.raises(DataError):
            TreeSelector(bad)

    def test_threshold_selector_uses_hop_count(self, traces):
        sel = ThresholdSelector(3)
        choices, _, _ = check_replay(replay(traces, sel), traces, sel)
        assert np.array_equal(choices, (traces.hn >= 3).astype(int))

    def test_cdf_is_percentile_table(self, traces):
        sel = AlwaysSelector(0)
        res = replay(traces, sel)
        check_replay(res, traces, sel)
        assert len(res.cdf) == 100
        values = [v for _, v in res.cdf]
        assert values == sorted(values)

    @pytest.mark.parametrize("zeroed, radio", [(("tp_zigbee",), "zigbee"),
                                               (("tp_lora",), "lora"),
                                               (("tp_zigbee", "tp_lora"), "zigbee")],
                             ids=["zigbee", "lora", "both"])
    def test_zero_mean_radio_is_data_error(self, traces, zeroed, radio):
        """The gains divide by each radio's mean, the ratio by the oracle's."""
        zero = replace(traces, **{c: np.zeros(len(traces)) for c in zeroed})
        with pytest.raises(DataError, match=f"mean {radio} throughput of the trace is 0.0 bps"):
            replay(zero, OracleSelector())

    @pytest.mark.parametrize("tp_zigbee, tp_lora, message", [
        ([1e308, 1e308], [1.0, 1.0], "mean zigbee throughput of the trace is inf bps"),
        ([1.5e308, 0.0], [0.0, 1.5e308], "mean oracle throughput of the trace is inf bps"),
        ([5e-324, 5e-324], [1.0, 1.0], "mean zigbee throughput of the trace is 5e-324 bps: "
                                       "the replay gain over it is past the float range"),
    ], ids=["radio_inf", "oracle_inf", "gain_inf"])
    def test_mean_past_the_float_range_is_data_error(self, tp_zigbee, tp_lora, message):
        """A mean that overflows, or a gain over a subnormal mean, is a
        data error raised without a RuntimeWarning."""
        trace = dataset.Trace(("n0",), [0, 0], [0.0, 1.0], tp_zigbee, tp_lora,
                              [1.0] * 2, [-95.0] * 2, [0.8] * 2, [1.4] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(message)):
                replay(trace, OracleSelector())

    def test_gains_labeled_both_ways(self, traces):
        res = replay(traces, OracleSelector())
        assert res.gain_vs_best_single_pct >= 0.0
        assert res.gain_vs_worst_single_pct >= res.gain_vs_best_single_pct


class TestIntervalSweep:
    def test_long_interval_equals_base_replay(self, cfg, traces):
        base = replay(traces, AlwaysSelector(0))
        row = interval_sweep(cfg, [60.0], AlwaysSelector(0), seed=42)[0]
        assert abs(row.performance_ratio - base.performance_ratio) < 1e-9
        assert staleness_probability(cfg, 60.0) == 0.0

    def test_latency_nonincreasing_in_interval(self, cfg):
        intervals = [5.0, 3.0, 2.0, 1.5, 1.4, 1.3]
        for seed in range(10):
            rows = interval_sweep(cfg, intervals, AlwaysSelector(1), seed=seed)
            lat = [r.mean_latency_ms for r in rows]
            assert all(b >= a for a, b in zip(lat, lat[1:]))  # shorter -> larger

    def test_oracle_immune_to_staleness(self, cfg):
        rows = interval_sweep(cfg, [5.0, 1.5, 1.3], OracleSelector(), seed=2)
        assert all(r.performance_ratio == 1.0 for r in rows)

    def test_occupancy_and_wait_monotone(self, cfg):
        rhos = [occupancy(cfg, i) for i in (5.0, 3.0, 1.5, 1.31)]
        waits = [mean_wait_s(cfg, i) for i in (5.0, 3.0, 1.5, 1.31)]
        assert rhos == sorted(rhos) and waits == sorted(waits)

    def test_staleness_probability_rises(self, cfg):
        ps = [staleness_probability(cfg, i) for i in (10.0, 3.0, 2.0, 1.5, 1.3)]
        assert ps == sorted(ps)
        assert ps[0] == 0.0 and ps[-1] > 0.0

    def test_staleness_matches_row_loop(self, cfg):
        """Column staleness injection equals the row-by-row reference, with
        nodes drawn in sorted-name order ("n100" before "n11")."""
        many = replace(cfg, n_packets=15, distances_m=tuple(np.linspace(150.0, 1600.0, 101)))
        traces = generate(many, seed=4)
        for interval in (5.0, 1.5, 1.3):
            got = _stale_traces(traces, many, interval, seed=4)
            assert got == _stale_reference(traces, many, interval, seed=4)
        assert got != traces
        assert np.array_equal(got.tp_zigbee, traces.tp_zigbee)

    def test_selectors_share_one_trace_per_sweep(self, cfg):
        """Several selectors in one sweep give the rows of one sweep per
        selector, grouped by selector, from one trace generated per sweep."""
        intervals = [5.0, 1.5, 1.3]
        selectors = [AlwaysSelector(0), OracleSelector(), AlwaysSelector(1)]
        calls = []

        def counting(cfg_i, seed):
            calls.append(cfg_i.packet_interval_s)
            return generate(cfg_i, seed)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "generate", counting)
            rows = interval_sweep(cfg, intervals, *selectors, seed=5)
        assert calls == [cfg.packet_interval_s]
        assert rows == [row for sel in selectors
                        for row in interval_sweep(cfg, intervals, sel, seed=5)]

    def test_matches_trace_per_interval(self, cfg):
        """The sweep's rows equal those of a trace generated at each
        interval, whose t column is the only one the interval moves."""
        many = replace(cfg, n_packets=15, distances_m=tuple(np.linspace(150.0, 1600.0, 101)))
        intervals = [5.0, 1.5, 1.3, 1.05]
        selectors = [PrrSelector(), OracleSelector(), ThresholdSelector(3)]
        expected = []
        for sel in selectors:
            for interval in intervals:
                cfg_i = replace(many, packet_interval_s=interval)
                traces = _stale_traces(generate(cfg_i, 6), cfg_i, interval, 6)
                expected.append(SweepRow(
                    interval, sel.name, replay(traces, sel).performance_ratio,
                    1000.0 * (many.service_time_s + mean_wait_s(many, interval))))
        assert interval_sweep(many, intervals, *selectors, seed=6) == expected

    def test_rejects_bad_interval(self, cfg):
        with pytest.raises(DataError):
            interval_sweep(cfg, [0.0], AlwaysSelector(0), seed=0)

    def test_rejects_latency_past_the_float_range(self):
        with pytest.raises(DataError, match=re.escape("service_time_s 1e+308 gives a mean "
                                                      "latency past the float range")):
            interval_sweep(ScenarioConfig(n_packets=5, service_time_s=1e308), [60.0],
                           AlwaysSelector(0), seed=0)


class PrrSelector:
    """Reads the PRR feature, which staleness corrupts, so the staleness
    fields reach the sweep rows (hop count, the threshold baseline's
    feature, is never made stale)."""

    name = "prr"

    def choose(self, traces):
        return (traces.prr < 0.6).astype(int)


GUARD_BASE = ScenarioConfig(n_packets=40)
# One value per field that binds: rnp_cap's default of 30, for one, never
# does.
GUARD_PERTURBED = {
    "distances_m": {"distances_m": (200.0,) + GUARD_BASE.distances_m[1:]},
    "packet_interval_s": {"packet_interval_s": 2.0},
    "n_packets": {"n_packets": 41},
    "hop_range_m": {"hop_range_m": 250.0},
    "zigbee_hop_capacity_bps": {"zigbee_hop_capacity_bps": 12000.0},
    "zigbee_hop_overhead": {"zigbee_hop_overhead": 0.3},
    "prr_intercept": {"prr_intercept": 1.0},
    "prr_slope_per_m": {"prr_slope_per_m": 5e-4},
    "prr_noise_std": {"prr_noise_std": 0.05},
    "prr_floor": {"prr_floor": 0.3},
    "prr_ceil": {"prr_ceil": 0.9},
    "rnp_sigma": {"rnp_sigma": 0.07},
    "rnp_cap": {"rnp_cap": 1.5},
    "lora_tx_power_dbm": {"lora_tx_power_dbm": 15.0},
    "path_loss_ref_db": {"path_loss_ref_db": 32.0},
    "path_loss_exponent": {"path_loss_exponent": 2.8},
    "shadowing_std_db": {"shadowing_std_db": 3.0},
    "lora_rate_tiers": {"lora_rate_tiers": ((-85.0, 5000.0),) + GUARD_BASE.lora_rate_tiers[1:]},
    "lora_base_rate_bps": {"lora_base_rate_bps": 800.0},
    "throughput_jitter_sigma": {"throughput_jitter_sigma": 0.06},
    "rssi_meas_std_db": {"rssi_meas_std_db": 3.0},
    "prr_meas_std": {"prr_meas_std": 0.05},
    "rnp_meas_sigma": {"rnp_meas_sigma": 0.06},
    "service_time_s": {"service_time_s": 0.9},
    "stale_occupancy_floor": {"stale_occupancy_floor": 0.4},
    "stale_prob_max": {"stale_prob_max": 0.5},
}


def _guard_outputs(cfg):
    return (generate(cfg, seed=0),
            interval_sweep(cfg, [5.0, 1.3, 1.05], PrrSelector(), seed=0))


def test_guard_covers_every_scenario_field():
    assert set(GUARD_PERTURBED) == set(ScenarioConfig.__dataclass_fields__) - {"config_version"}


@pytest.mark.parametrize("field", sorted(GUARD_PERTURBED))
def test_every_scenario_field_changes_an_output(field):
    """A scenario field that changes neither the trace nor the sweep rows
    is a setting a user can write to no effect."""
    trace, rows = _guard_outputs(replace(GUARD_BASE, **GUARD_PERTURBED[field]))
    base_trace, base_rows = _guard_outputs(GUARD_BASE)
    assert not (trace == base_trace and rows == base_rows)
