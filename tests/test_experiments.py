"""Tests for the experiment suite (structure + quick-mode reproduction)."""

import hashlib
import json

import pytest

from repro.experiments.common import (
    fifo_link,
    jitter_link,
    longtail_link,
    lossy_link,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    experiment_ids,
    get_experiment,
    run_experiment,
)


class TestRegistryStructure:
    def test_seventeen_experiments(self):
        assert experiment_ids() == [f"e{i}" for i in range(1, 18)]

    def test_every_spec_has_claim_and_title(self):
        for spec in EXPERIMENTS.values():
            assert spec.claim and spec.title
            assert spec.exp_id.startswith("E")

    def test_lookup_case_insensitive(self):
        assert get_experiment("E3") is get_experiment("e3")

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            get_experiment("e99")


class TestLinks:
    def test_fifo_is_constant(self):
        assert fifo_link().delay.max_delay == 1.0

    def test_jitter_mean_is_one(self):
        link = jitter_link(1.0)
        assert link.delay.mean_delay == pytest.approx(1.0)

    def test_jitter_clamps_at_zero(self):
        link = jitter_link(4.0)
        assert link.delay.low == 0.0

    def test_lossy_link_probability(self):
        assert lossy_link(0.1).loss.p == 0.1

    def test_longtail_has_aging(self):
        assert longtail_link().max_lifetime == 25.0

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            jitter_link(-1.0)


@pytest.mark.slow
class TestQuickReproduction:
    """Every experiment must reproduce its claim, even in quick mode."""

    #: sha256 of quick ``result.data`` (JSON, sorted keys) for the
    #: experiments that run adaptive retransmission: every RTO, srtt,
    #: rttvar, degrade count and timeout count of their adaptive cells
    DATA_DIGESTS = {
        "e14": "1ece244b2d3b572f44fbc003ea8b913c"
               "1cbfd54236d7f406c67acd4955d9ffb9",
        "e16": "a4f3f338abba4237b298c3cde0203d7c"
               "2dafefc5d2496ebaaa7c16700b4606c0",
    }

    @pytest.mark.parametrize("exp_id", [f"e{i}" for i in range(1, 17)])
    def test_experiment_reproduces(self, exp_id):
        result = run_experiment(exp_id, quick=True)
        assert result.reproduced, result.render()
        assert result.table
        assert result.findings
        if exp_id in self.DATA_DIGESTS:
            text = json.dumps(result.data, sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == (
                self.DATA_DIGESTS[exp_id]
            )


class TestResultRendering:
    def test_render_contains_verdict(self):
        result = run_experiment("e1", quick=True)
        text = result.render()
        assert "[E1]" in text
        assert "paper claim" in text
        assert "REPRODUCED" in text
