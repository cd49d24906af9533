"""Synthetic dual-radio trace generator and selector replay harness.

The generator stands in for a field deployment: short-range radio packets
hop toward the gateway (per-hop capacity shared across hops, retransmission
inflation driven by packet reception ratio), long-range packets go single
hop at a rate tier set by received signal strength under log-distance path
loss with shadowing. Nodes in the contested band, 500-1200 m from the
gateway under the default constants, see competitive throughputs, so the
winning radio there flips packet to packet with mostly small margins, which
is the regime that makes per-sample costs matter.

Feature columns are noisy observables of the latent channel state, never
the realized throughputs themselves. All constants are frozen defaults of
ScenarioConfig (config_version 1), tuned once at desk scale and pinned; the
random draws come from the seed that generate and interval_sweep require. A
replay reduces one selector's per-packet throughputs to a ReplayResult (means,
oracle ratio and gap, single-radio gains, a 100-point CDF).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, asdict, replace

import numpy as np

from .dataset import FEATURE_NAMES, RadioClass, Trace, read_text, typed_like
from .errors import DataError
from .tree import ObliqueTree

CONFIG_VERSION = 1

DEFAULT_DISTANCES_M = (
    150.0, 280.0,
    560.0, 680.0, 760.0, 840.0, 920.0, 1000.0, 1060.0, 1120.0, 1160.0, 1190.0,
    1300.0, 1450.0, 1600.0,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Frozen generative constants for one deployment scenario."""

    config_version: int = CONFIG_VERSION
    distances_m: tuple = DEFAULT_DISTANCES_M
    packet_interval_s: float = 3.0
    n_packets: int = 120

    # short-range (multi-hop) side
    hop_range_m: float = 300.0
    zigbee_hop_capacity_bps: float = 11500.0
    # store-and-forward contention: effective divisor hn * (1 + overhead*(hn-1))
    zigbee_hop_overhead: float = 0.2
    prr_intercept: float = 1.05
    prr_slope_per_m: float = 5.5e-4
    prr_noise_std: float = 0.04
    prr_floor: float = 0.10
    prr_ceil: float = 0.99
    rnp_sigma: float = 0.06
    rnp_cap: float = 30.0

    # long-range (single-hop) side
    lora_tx_power_dbm: float = 14.0
    path_loss_ref_db: float = 31.5     # at 1 m, 915 MHz
    path_loss_exponent: float = 2.7
    shadowing_std_db: float = 2.5
    lora_rate_tiers: tuple = ((-85.0, 5470.0), (-90.3, 4600.0), (-93.4, 3550.0),
                              (-96.6, 1730.0), (-101.0, 870.0))
    lora_base_rate_bps: float = 850.0

    # shared noise
    throughput_jitter_sigma: float = 0.055
    rssi_meas_std_db: float = 2.5
    prr_meas_std: float = 0.04
    rnp_meas_sigma: float = 0.05

    # queuing model (interval sweep)
    service_time_s: float = 1.0
    stale_occupancy_floor: float = 0.30
    stale_prob_max: float = 0.95

    def __post_init__(self):
        if self.config_version != CONFIG_VERSION:
            raise DataError(f"unsupported scenario config_version {self.config_version}")
        if not self.distances_m:
            raise DataError("a scenario needs at least one node")
        if self.n_packets < 1:
            raise DataError("a scenario needs at least one packet per node")
        if any(d <= 0 for d in self.distances_m):
            raise DataError("distances must be > 0")
        for name in ("packet_interval_s", "hop_range_m", "service_time_s",
                     "zigbee_hop_capacity_bps", "lora_base_rate_bps",
                     "rnp_cap"):   # the last three scale throughputs
            if not getattr(self, name) > 0:
                raise DataError(f"{name} must be > 0")
        if not 0 < self.prr_ceil <= 1:
            raise DataError(f"prr_ceil must be in (0, 1], got {self.prr_ceil!r}")
        if not 0 <= self.prr_floor <= self.prr_ceil:
            raise DataError(f"prr_floor must be in [0, prr_ceil], got {self.prr_floor!r} "
                            f"with prr_ceil {self.prr_ceil!r}")
        # the packet times and the farthest node's hop count must be floats
        if self.n_packets - 1 > sys.float_info.max:   # a float times it raises OverflowError
            raise DataError(f"n_packets {self.n_packets} is past the float range")
        if not math.isfinite(self.packet_interval_s * (self.n_packets - 1)):
            raise DataError(f"packet_interval_s {self.packet_interval_s!r} times "
                            f"{self.n_packets - 1} is past the float range")
        if not math.isfinite(max(self.distances_m) / self.hop_range_m):
            raise DataError(f"hop_range_m {self.hop_range_m!r} is too small: "
                            f"{max(self.distances_m)!r} m over it is past the float range")
        # occupancy stays below 1, so a floor of 1 or more turns staleness off
        if not 0 <= self.stale_occupancy_floor < 1:
            raise DataError(f"stale_occupancy_floor must be in [0, 1), "
                            f"got {self.stale_occupancy_floor!r}")
        if not 0 <= self.stale_prob_max <= 1:
            raise DataError(f"stale_prob_max must be in [0, 1], got {self.stale_prob_max!r}")
        for i, (_, rate) in enumerate(self.lora_rate_tiers):
            if not rate > 0:
                raise DataError(f"lora_rate_tiers[{i}] rate must be > 0")
        for name in self.__dataclass_fields__:   # the noise scales and the hop overhead
            if name.endswith(("std", "std_db", "sigma", "overhead")) and getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")

    @property
    def n_nodes(self) -> int:
        return len(self.distances_m)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as e:   # a JSONDecodeError is a ValueError
            raise DataError(f"scenario file is not valid JSON: {e}") from e
        if not isinstance(doc, dict):
            raise DataError("a scenario file holds one JSON object of fields")
        defaults = asdict(cls())
        if unknown := sorted(set(doc) - set(defaults)):
            raise DataError(f"unknown scenario fields: {unknown}")
        return cls(**{name: typed_like(f"scenario field {name!r}", value, defaults[name])
                      for name, value in doc.items()})

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        return cls.from_json(read_text(path, "scenario"))


def _lora_rate(cfg: ScenarioConfig, rssi: np.ndarray) -> np.ndarray:
    rate = np.full(rssi.shape, cfg.lora_base_rate_bps)
    for threshold, tier_rate in sorted(cfg.lora_rate_tiers):
        rate = np.where(rssi >= threshold, tier_rate, rate)
    return rate


def _lognormal(rng, sigma: float, size: int) -> np.ndarray:
    """Multiplicative jitter with unit mean."""
    return np.exp(rng.normal(0.0, sigma, size) - sigma * sigma / 2.0)


def hop_count(cfg: ScenarioConfig, distance_m: float) -> int:
    return max(1, math.ceil(distance_m / cfg.hop_range_m))


@np.errstate(all="ignore")
def generate(cfg: ScenarioConfig, seed: int) -> Trace:
    """Deterministic trace: per node, n_packets scheduled every interval.

    Nodes are named n00, n01, ... in the order of cfg.distances_m, and each
    node's rows form one block, blocks in that order. Float arithmetic runs
    under np.errstate(all="ignore"): an extreme scenario constant yields
    inf, 0 or NaN in the columns, which replay and the writers reject.
    """
    rng = np.random.default_rng(seed)
    per_node = []   # one tuple of columns per node, in dataset.TRACE_COLUMNS order
    m = cfg.n_packets
    t = np.arange(m) * cfg.packet_interval_s
    for idx, d in enumerate(cfg.distances_m):
        hn = hop_count(cfg, d)
        # latent channel state, one draw set per packet in fixed order
        shadowing = rng.normal(0.0, cfg.shadowing_std_db, m)
        lora_jitter = _lognormal(rng, cfg.throughput_jitter_sigma, m)
        prr_noise = rng.normal(0.0, cfg.prr_noise_std, m)
        rnp_jitter = _lognormal(rng, cfg.rnp_sigma, m)
        zigbee_jitter = _lognormal(rng, cfg.throughput_jitter_sigma, m)
        rssi_meas = rng.normal(0.0, cfg.rssi_meas_std_db, m)
        prr_meas = rng.normal(0.0, cfg.prr_meas_std, m)
        rnp_meas = _lognormal(rng, cfg.rnp_meas_sigma, m)

        path_loss = cfg.path_loss_ref_db + 10.0 * cfg.path_loss_exponent * math.log10(d)
        rssi_true = cfg.lora_tx_power_dbm - path_loss + shadowing
        tp_lora = _lora_rate(cfg, rssi_true) * lora_jitter

        prr_true = np.clip(cfg.prr_intercept - cfg.prr_slope_per_m * d + prr_noise,
                           cfg.prr_floor, cfg.prr_ceil)
        rnp_true = np.clip(rnp_jitter / prr_true, 1.0, cfg.rnp_cap)
        path_divisor = hn * (1.0 + cfg.zigbee_hop_overhead * (hn - 1))
        tp_zigbee = cfg.zigbee_hop_capacity_bps / path_divisor / rnp_true * zigbee_jitter

        rssi_obs = rssi_true + rssi_meas
        prr_obs = np.clip(prr_true + prr_meas, 0.0, 1.0)
        rnp_obs = np.maximum(1.0, rnp_true * rnp_meas)

        per_node.append((t, tp_zigbee, tp_lora, np.full(m, float(hn)),
                         rssi_obs, prr_obs, rnp_obs))
    n_nodes = len(per_node)
    return Trace(tuple(f"n{idx:02d}" for idx in range(n_nodes)),
                 np.repeat(np.arange(n_nodes), m),
                 *(np.concatenate(col) for col in zip(*per_node)))


# ---------- selectors ----------


class AlwaysSelector:
    def __init__(self, radio: int):
        self.radio = int(radio)
        self.name = f"always_{RadioClass(self.radio).name.lower()}"

    def choose(self, traces: Trace) -> np.ndarray:
        return np.full(len(traces), self.radio, dtype=int)


class OracleSelector:
    """Reads realized throughputs; per-packet best radio (tie -> Zigbee)."""

    name = "oracle"

    def choose(self, traces: Trace) -> np.ndarray:
        return (traces.tp_lora > traces.tp_zigbee).astype(int)


class TreeSelector:
    """Routes the feature columns through a trained tree (never sees
    the throughput columns)."""

    name = "tree"

    def __init__(self, tree: ObliqueTree):
        if tree.dim is not None and tree.dim != len(FEATURE_NAMES):
            raise DataError(f"model expects {tree.dim} features, traces carry "
                            f"{len(FEATURE_NAMES)}")
        self.tree = tree

    def choose(self, traces: Trace) -> np.ndarray:
        return self.tree.predict_many(traces.features())


class ThresholdSelector:
    """Distance-threshold baseline on its observable proxy: picks the
    long-range radio when hop count >= threshold."""

    def __init__(self, hn_threshold: float):
        self.hn_threshold = float(hn_threshold)
        self.name = f"threshold_hn{self.hn_threshold:g}"

    def choose(self, traces: Trace) -> np.ndarray:
        return (traces.hn >= self.hn_threshold).astype(int)


@dataclass
class ReplayResult:
    selector: str
    mean_throughput_bps: float
    performance_ratio: float
    oracle_gap_bps: float
    gain_vs_best_single_pct: float
    gain_vs_worst_single_pct: float
    cdf: list  # (percentile, throughput_bps)


@np.errstate(all="ignore")
def replay(traces: Trace, selector) -> ReplayResult:
    """Run one selector over a trace; throughputs are taken from the chosen
    radio's recorded value, the oracle takes the per-packet max. Each
    radio's mean throughput and the oracle's must be finite and > 0: the
    ratio and the gains are relative to them."""
    if not len(traces):
        raise DataError("no trace records to replay")
    tpz, tpl = traces.tp_zigbee, traces.tp_lora
    means = {"zigbee": float(np.mean(tpz)), "lora": float(np.mean(tpl)),
             "oracle": float(np.mean(np.maximum(tpz, tpl)))}
    for radio, mean in means.items():
        if not 0 < mean < math.inf:
            raise DataError(f"mean {radio} throughput of the trace is {mean} bps: "
                            f"replay needs each radio's and the oracle's mean finite and > 0")
    achieved = np.where(np.asarray(selector.choose(traces), dtype=int) == 0, tpz, tpl)
    mean_achieved = float(np.mean(achieved))
    worst, best = sorted(("zigbee", "lora"), key=means.get)
    worst_single, best_single = means[worst], means[best]
    gain_worst = 100.0 * (mean_achieved - worst_single) / worst_single
    if not math.isfinite(gain_worst):   # a mean near 0; the other gain is at most this
        raise DataError(f"mean {worst} throughput of the trace is {worst_single} bps: "
                        f"the replay gain over it is past the float range")
    percentiles = range(1, 101)
    return ReplayResult(
        selector=selector.name,
        mean_throughput_bps=mean_achieved,
        performance_ratio=mean_achieved / means["oracle"],
        oracle_gap_bps=means["oracle"] - mean_achieved,
        gain_vs_best_single_pct=100.0 * (mean_achieved - best_single) / best_single,
        gain_vs_worst_single_pct=gain_worst,
        cdf=list(zip(percentiles, np.percentile(achieved, percentiles).tolist())),
    )


# ---------- interval sweep with queuing-driven feature staleness ----------


def occupancy(cfg: ScenarioConfig, interval_s: float) -> float:
    return min(cfg.service_time_s / interval_s, 0.999)


def mean_wait_s(cfg: ScenarioConfig, interval_s: float) -> float:
    """M/D/1-style mean queuing wait for the given generation interval."""
    rho = occupancy(cfg, interval_s)
    return rho * cfg.service_time_s / (2.0 * (1.0 - rho))


def staleness_probability(cfg: ScenarioConfig, interval_s: float) -> float:
    rho = occupancy(cfg, interval_s)
    if rho <= cfg.stale_occupancy_floor:
        return 0.0
    frac = (rho - cfg.stale_occupancy_floor) / (1.0 - cfg.stale_occupancy_floor)
    return min(cfg.stale_prob_max, frac)


def _stale_traces(traces: Trace, cfg: ScenarioConfig, interval_s: float,
                  seed: int) -> Trace:
    """Replace PRR/RNP observations with lagged ones for queued packets.

    Path-quality beacons sit in the same queue as data, so under load the
    estimator reports an older channel state. Throughputs (ground truth)
    are never touched. Each node draws its stale mask in turn, nodes taken
    in sorted-name order (not code order: "n100" sorts before "n11").
    """
    p_stale = staleness_probability(cfg, interval_s)
    if p_stale == 0.0:
        return traces
    # capped: a lag as long as a node's series maps stale packets to its first
    lag = 1 + int(min(mean_wait_s(cfg, interval_s) / interval_s, len(traces)))
    rng = np.random.default_rng(np.random.SeedSequence([seed, int(interval_s * 1000), 0xA5]))
    order = np.argsort(traces.node, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(traces.node,
                                                        minlength=len(traces.names)))))
    prr, rnp = traces.prr.copy(), traces.rnp.copy()
    for code in sorted(range(len(traces.names)), key=traces.names.__getitem__):
        idxs = order[bounds[code]:bounds[code + 1]]
        stale = rng.random(idxs.size) < p_stale
        src = idxs[np.maximum(0, np.arange(idxs.size) - lag)]
        prr[idxs[stale]] = traces.prr[src[stale]]
        rnp[idxs[stale]] = traces.rnp[src[stale]]
    return replace(traces, prr=prr, rnp=rnp)


@dataclass
class SweepRow:
    interval_s: float
    selector: str
    performance_ratio: float
    mean_latency_ms: float


def interval_sweep(cfg: ScenarioConfig, intervals, *selectors, seed: int) -> list[SweepRow]:
    """Replay the selectors at each packet-generation interval.

    Shorter intervals raise queue occupancy, which adds queuing wait to the
    latency and staleness-corrupts the PRR/RNP features consumed by feature
    selectors; the oracle reads true throughputs and is immune. The trace is
    generated once (the interval would move only its unread t column), and
    each interval's stale copy is replayed by every selector. Rows are
    grouped by selector, in interval order within each group.
    """
    if any(i <= 0 for i in intervals):
        raise DataError("intervals must be positive")
    for interval in map(float, intervals):   # _stale_traces seeds with the interval in ms
        if not math.isfinite(1000.0 * interval):
            raise DataError(f"interval {interval!r} s is past the float range in ms")
    groups = [[] for _ in selectors]
    base = generate(cfg, seed)
    for interval in map(float, intervals):
        traces = _stale_traces(base, cfg, interval, seed)
        latency_ms = 1000.0 * (cfg.service_time_s + mean_wait_s(cfg, interval))
        if not math.isfinite(latency_ms):
            raise DataError(f"service_time_s {cfg.service_time_s!r} gives a mean latency "
                            f"past the float range at interval {interval:g} s")
        for rows, selector in zip(groups, selectors):
            rows.append(SweepRow(interval, selector.name,
                                 replay(traces, selector).performance_ratio, latency_ms))
    return [row for rows in groups for row in rows]
