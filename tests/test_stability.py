import numpy as np
import pytest

from conftest import random_dataset
from radiosel import dataset, simulator, tao
from radiosel.errors import DataError
from radiosel.stability import stability_run


@pytest.fixture(scope="module")
def field_data():
    traces = simulator.generate(simulator.ScenarioConfig(), seed=11)
    ds = dataset.standardize(dataset.label_traces(traces))
    return dataset.split(ds, (0.8, 0.2), seed=11)


class TestStabilityRun:
    def test_repeat_full_fraction_is_fixed_point(self, field_data):
        # chaining 1.0 after 1.0 re-optimizes the converged tree on the same
        # data: signature and objective must come back unchanged
        train_ds, test_ds = field_data
        cfg = tao.TaoConfig(depth=2, lam=0.01, init_policy="cart", seed=1)
        first = tao.train(train_ds, cfg)
        again = tao.optimize_tree(first.tree, train_ds, cfg)
        assert again.tree.structural_signature() == first.tree.structural_signature()
        assert again.history[-1] == first.history[-1]

    def test_report_shape_and_determinism(self, field_data):
        train_ds, test_ds = field_data
        cfg = tao.TaoConfig(depth=2, lam=0.01, init_policy="cart", seed=2)
        a = stability_run(train_ds, test_ds, cfg, fractions=(0.5, 0.75, 1.0), seed=3)
        b = stability_run(train_ds, test_ds, cfg, fractions=(0.5, 0.75, 1.0), seed=3)
        assert [s.signature for s in a.stages] == [s.signature for s in b.stages]
        assert [s.test_error_pct for s in a.stages] == [s.test_error_pct for s in b.stages]
        assert [s.fraction for s in a.stages] == [0.5, 0.75, 1.0]
        assert len(a.stages) == 3
        assert a.all_signatures_equal == (len({s.signature for s in a.stages}) == 1)

    def test_one_fraction_chain_is_stable(self, field_data):
        train_ds, test_ds = field_data
        cfg = tao.TaoConfig(depth=1, init_policy="cart", seed=0)
        rep = stability_run(train_ds, test_ds, cfg, fractions=(1.0,), seed=0)
        assert rep.all_signatures_equal is True

    def test_subsets_are_nested_and_sized(self, field_data):
        train_ds, _ = field_data
        subsets = dataset.nested_subsets(train_ds, (0.5, 0.75, 1.0), seed=0)
        for small, large in zip(subsets, subsets[1:]):
            assert small.size < large.size and np.all(np.isin(small, large))
        assert np.array_equal(subsets[-1], np.arange(train_ds.n))

    def test_fraction_validation(self, field_data):
        train_ds, test_ds = field_data
        cfg = tao.TaoConfig(depth=1)
        for fractions in ((0.75, 0.5, 1.0), (0.5, 0.75), (-0.5, 1.0), (0.0, 1.0), ()):
            with pytest.raises(DataError, match="fractions must rise strictly from above 0"):
                stability_run(train_ds, test_ds, cfg, fractions=fractions)

    def test_single_class_input_errors(self, rng):
        # ceil allocation keeps every present class in every subset, so the
        # error only fires when a class is missing from the input outright
        ds = random_dataset(rng, n=40)
        ds.y[:] = 0
        test_ds = random_dataset(rng, n=10)
        cfg = tao.TaoConfig(depth=1)
        with pytest.raises(DataError, match="single"):
            stability_run(ds, test_ds, cfg, fractions=(0.5, 1.0), seed=0)

    def test_monotone_flag_reported_not_asserted(self, field_data):
        train_ds, test_ds = field_data
        cfg = tao.TaoConfig(depth=2, lam=0.01, init_policy="cart", seed=5)
        rep = stability_run(train_ds, test_ds, cfg, seed=5)
        assert isinstance(rep.test_error_monotone_nonincreasing, bool)
