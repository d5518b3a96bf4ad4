"""Cross-validation: the fast engine against the reference engine.

Pure-Push is fully deterministic, so the engines must agree exactly: the
fast engine's analytic path reproduces the reference engine's whole
``RunResult``.  The stochastic algorithms consume randomness in different
orders, so agreement is statistical: means within a tolerance over a
decent run.
"""

import pytest

from repro.core.algorithms import Algorithm
from repro.core.fast import FastEngine
from repro.core.simulation import ReferenceEngine
from tests.conftest import small_config


def averaged(engine_cls, config, seeds=(1, 2, 3)):
    means = []
    drops = []
    for seed in seeds:
        result = engine_cls(config.with_(run__seed=seed)).run()
        means.append(result.response_miss.mean)
        drops.append(result.drop_rate)
    return sum(means) / len(means), sum(drops) / len(drops)


def simulated(result):
    """``result.to_dict()`` without the provenance manifest."""
    data = result.to_dict()
    data.pop("manifest")
    return data


class TestPurePushExactAgreement:
    """The analytic path and the reference engine report the same run."""

    def test_identical_traces(self):
        config = small_config(Algorithm.PURE_PUSH,
                              run__measure_accesses=500)
        fast = FastEngine(config).run()
        ref = ReferenceEngine(config).run()
        assert simulated(fast) == simulated(ref)
        assert isinstance(fast.total_slots, float)

    def test_warmup_traces_identical(self):
        config = small_config(Algorithm.PURE_PUSH)
        fast = FastEngine(config).run_warmup()
        ref = ReferenceEngine(config).run_warmup()
        assert simulated(fast) == simulated(ref)


class TestStochasticAgreement:
    @pytest.mark.parametrize("algorithm,ttr", [
        (Algorithm.PURE_PULL, 2.0),
        (Algorithm.PURE_PULL, 20.0),
        (Algorithm.IPP, 2.0),
        (Algorithm.IPP, 20.0),
    ])
    def test_mean_response_within_tolerance(self, algorithm, ttr):
        config = small_config(algorithm, client__think_time_ratio=ttr,
                              run__measure_accesses=800)
        fast_mean, fast_drop = averaged(FastEngine, config)
        ref_mean, ref_drop = averaged(ReferenceEngine, config)
        assert fast_mean == pytest.approx(ref_mean, rel=0.25, abs=2.0)
        assert fast_drop == pytest.approx(ref_drop, abs=0.1)

    def test_ipp_pull_share_agrees(self):
        config = small_config(Algorithm.IPP, client__think_time_ratio=20.0,
                              run__measure_accesses=800)
        fast = FastEngine(config).run()
        ref = ReferenceEngine(config).run()
        assert fast.pull_slot_share == pytest.approx(ref.pull_slot_share,
                                                     abs=0.08)
