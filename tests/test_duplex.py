"""Tests for full-duplex operation with piggybacked acknowledgments."""

import hashlib
import json
import random
from dataclasses import asdict

import pytest

from repro.channel.delay import ConstantDelay, UniformDelay
from repro.channel.impairments import BernoulliLoss
from repro.core.messages import BlockAck, DataMessage
from repro.core.numbering import ModularNumbering
from repro.duplex.endpoint import DuplexEndpoint, PiggybackMux
from repro.duplex.runner import run_duplex
from repro.sim.runner import LinkSpec
from repro.workloads.sources import GreedySource, PoissonSource


def make_endpoints(window=8, bounded=True, hold=1.0):
    numbering = ModularNumbering(window) if bounded else None
    return (
        DuplexEndpoint("A", window, numbering=numbering, standalone_delay=hold),
        DuplexEndpoint("B", window, numbering=numbering, standalone_delay=hold),
    )


class TestPiggybackMux:
    def _mux(self, sim, hold=0.5):
        sent = []

        class FakeChannel:
            def send(self, frame):
                sent.append(frame)

        return PiggybackMux(sim, FakeChannel(), standalone_delay=hold), sent

    def test_data_alone_goes_immediately(self, sim):
        mux, sent = self._mux(sim)
        mux.send(DataMessage(seq=0, payload="p"))
        assert len(sent) == 1
        assert sent[0].data is not None and sent[0].ack is None

    def test_ack_rides_on_next_data(self, sim):
        mux, sent = self._mux(sim)
        mux.send(BlockAck(0, 2))
        assert sent == []  # held
        mux.send(DataMessage(seq=5))
        assert len(sent) == 1
        assert sent[0].ack == BlockAck(0, 2)
        assert sent[0].data.seq == 5
        assert mux.stats.piggybacked_acks == 1

    def test_held_ack_flushes_after_delay(self, sim):
        mux, sent = self._mux(sim, hold=0.5)
        mux.send(BlockAck(0, 0))
        sim.run()
        assert len(sent) == 1
        assert sent[0].data is None and sent[0].ack == BlockAck(0, 0)
        assert mux.stats.standalone_acks == 1

    def test_adjacent_held_acks_not_flushed_twice(self, sim):
        mux, sent = self._mux(sim)
        mux.send(BlockAck(0, 1))
        mux.send(BlockAck(2, 4))  # adjacent: no merge fn -> old flushed
        sim.run()
        assert len(sent) == 2  # without a merge function both go standalone

    def test_urgent_ack_never_delayed(self, sim):
        mux, sent = self._mux(sim)
        mux.send(BlockAck(3, 3, urgent=True))
        assert len(sent) == 1  # immediate, no hold

    def test_urgent_flushes_held_first(self, sim):
        mux, sent = self._mux(sim)
        mux.send(BlockAck(0, 1))
        mux.send(BlockAck(5, 5, urgent=True))
        assert len(sent) == 2
        assert sent[0].ack == BlockAck(0, 1)
        assert sent[1].ack == BlockAck(5, 5)

    def test_wrong_type_rejected(self, sim):
        mux, _ = self._mux(sim)
        with pytest.raises(TypeError):
            mux.send("junk")

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            PiggybackMux(sim, None, standalone_delay=-1.0)


class TestMergeAdjacent:
    def test_unbounded_adjacency(self):
        endpoint = DuplexEndpoint("X", 8)
        merged = endpoint._merge_adjacent(BlockAck(0, 3), BlockAck(4, 6))
        assert merged == BlockAck(0, 6)
        assert endpoint._merge_adjacent(BlockAck(0, 3), BlockAck(5, 6)) is None

    def test_bounded_wraparound_adjacency(self):
        endpoint = DuplexEndpoint("X", 8, numbering=ModularNumbering(8))
        merged = endpoint._merge_adjacent(BlockAck(14, 15), BlockAck(0, 2))
        assert merged == BlockAck(14, 2)  # wraps mod 16


class TestDuplexTransfers:
    def test_lossless_bidirectional(self):
        a, b = make_endpoints()
        result = run_duplex(
            a, b, GreedySource(200), GreedySource(200),
            link_ab=LinkSpec(delay=ConstantDelay(1.0)),
            link_ba=LinkSpec(delay=ConstantDelay(1.0)),
            seed=1, max_time=100_000.0,
        )
        assert result.correct
        assert result.a_to_b_delivered == result.b_to_a_delivered == 200

    def test_lossy_jitter_bidirectional(self):
        a, b = make_endpoints()
        link = lambda: LinkSpec(
            delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.08)
        )
        result = run_duplex(
            a, b, GreedySource(200), GreedySource(200),
            link_ab=link(), link_ba=link(), seed=2, max_time=500_000.0,
        )
        assert result.correct

    def test_asymmetric_traffic(self):
        # heavy one way, trickle the other
        a, b = make_endpoints()
        result = run_duplex(
            a, b, GreedySource(300), GreedySource(20),
            link_ab=LinkSpec(delay=ConstantDelay(1.0)),
            link_ba=LinkSpec(delay=ConstantDelay(1.0)),
            seed=3, max_time=100_000.0,
        )
        assert result.correct
        assert result.a_to_b_delivered == 300
        assert result.b_to_a_delivered == 20

    def test_one_way_only(self):
        a, b = make_endpoints()
        result = run_duplex(
            a, b, GreedySource(100), GreedySource(0),
            seed=4, max_time=100_000.0,
        )
        assert result.correct
        assert result.b_to_a_delivered == 0

    def test_poisson_piggybacking_is_effective(self):
        a, b = make_endpoints(hold=1.0)
        link = lambda: LinkSpec(delay=UniformDelay(0.8, 1.2))
        result = run_duplex(
            a, b,
            PoissonSource(250, rate=1.5, rng=random.Random(1)),
            PoissonSource(250, rate=1.5, rng=random.Random(2)),
            link_ab=link(), link_ba=link(), seed=5, max_time=500_000.0,
        )
        assert result.correct
        # arrivals within the hold window: 1 - e^{-1.5} ~ 0.78
        assert result.piggyback_ratio() > 0.5

    def test_piggybacking_reduces_frames(self):
        def run_with_hold(hold):
            a, b = make_endpoints(hold=hold)
            link = lambda: LinkSpec(delay=UniformDelay(0.8, 1.2))
            return run_duplex(
                a, b,
                PoissonSource(250, rate=1.5, rng=random.Random(1)),
                PoissonSource(250, rate=1.5, rng=random.Random(2)),
                link_ab=link(), link_ba=link(), seed=5, max_time=500_000.0,
            )

        tight = run_with_hold(0.05)
        generous = run_with_hold(1.0)
        assert tight.correct and generous.correct
        frames_tight = tight.a_mux["frames_sent"] + tight.b_mux["frames_sent"]
        frames_generous = (
            generous.a_mux["frames_sent"] + generous.b_mux["frames_sent"]
        )
        assert frames_generous < 0.85 * frames_tight

    def test_duplex_over_framed_noisy_links(self):
        class ByteSource(GreedySource):
            def _make_payload(self):
                return f"m{len(self.submitted):04d}".encode()

        a, b = make_endpoints()
        link = lambda: LinkSpec(
            delay=UniformDelay(0.5, 1.5),
            loss=BernoulliLoss(0.1),
            bit_error_rate=1e-3,
        )
        result = run_duplex(
            a, b, ByteSource(150), ByteSource(150),
            link_ab=link(), link_ba=link(), seed=6, max_time=500_000.0,
        )
        assert result.correct

    def test_soak_many_seeds(self):
        for seed in range(5):
            a, b = make_endpoints(window=5)
            link = lambda: LinkSpec(
                delay=UniformDelay(0.3, 1.7), loss=BernoulliLoss(0.12)
            )
            result = run_duplex(
                a, b, GreedySource(120), GreedySource(120),
                link_ab=link(), link_ba=link(), seed=seed,
                max_time=500_000.0,
            )
            assert result.correct, f"seed={seed}: {result.summary()}"

    @pytest.mark.parametrize("max_time", [5.0, 7.25])
    def test_horizon_is_not_overshot(self, max_time):
        # the next event lies past the horizon (at 6.0 and 7.5): it must
        # not fire, and the clock stops at max_time
        a, b = DuplexEndpoint("A", 4), DuplexEndpoint("B", 4)
        link = lambda: LinkSpec(delay=ConstantDelay(1.0), max_lifetime=1.0)
        result = run_duplex(
            a, b, GreedySource(200), GreedySource(200),
            link_ab=link(), link_ba=link(), max_time=max_time,
        )
        assert not result.completed
        assert result.duration == max_time
        assert result.a_in_order and result.b_in_order

    def test_unbounded_channels_rejected(self):
        from repro.channel.delay import ExponentialDelay

        a, b = make_endpoints()
        with pytest.raises(ValueError, match="bounded"):
            run_duplex(
                a, b, GreedySource(10), GreedySource(10),
                link_ab=LinkSpec(delay=ExponentialDelay(1.0)),
            )


class TestDuplexPins:
    """Literal digests of lossy duplex runs: the derived timeout of each
    direction, delivery counts, order, sender and mux stats.

    A's hold differs from B's, so a timeout that added the wrong
    endpoint's hold would move the digest.
    """

    # (seed, A's hold, w) -> sha256 of the result and both timeouts
    PINS = {
        (1, 0.25, 4): "ce55ce64ab5ca7909c824fa9ba7365b7"
                      "1ae73f21f04e15671560786349c51964",
        (1, 0.25, 8): "b9d9a0c308e29290a3aaa8ce7ae8ecc2"
                      "8b2d5384b8d03c6ea3d94c9394391d67",
        (1, 1.0, 4): "f70c2ea1808f9a96fb16bd9dfa747894"
                     "17144f66b3d1c2a5cd28c9885bfd9ba1",
        (1, 1.0, 8): "6553db518053a8683c3ef5996dec4c7d"
                     "ab5ba4e60470503b1d0df7304c6b5bd5",
        (2, 0.25, 4): "ef61d4832bb4ecd2c725a112394fca31"
                      "1d5388ab2614ce723de7938f83b43caa",
        (2, 0.25, 8): "6ddf756acdc08f9f8fe4f438a029d6ee"
                      "3d73bc73806059c9058ec8f3b5bb37ec",
        (2, 1.0, 4): "4a0d31d42297c0f131449cd9500874a6"
                     "980300d065d2af7a0dcde55b469572d0",
        (2, 1.0, 8): "817948b67a7bf49b50bbc0013fec79c1"
                     "4eed4a234a041392d4f076bfe14f9906",
    }

    @pytest.mark.parametrize("seed,hold,window", sorted(PINS))
    def test_lossy_duplex_digest(self, seed, hold, window):
        a = DuplexEndpoint(
            "A", window, numbering=ModularNumbering(window),
            standalone_delay=hold,
        )
        b = DuplexEndpoint(
            "B", window, numbering=ModularNumbering(window),
            standalone_delay=0.5,
        )
        link = lambda: LinkSpec(
            delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.05)
        )
        result = run_duplex(
            a, b, GreedySource(80), GreedySource(60),
            link_ab=link(), link_ba=link(), seed=seed, max_time=50_000.0,
        )
        assert result.correct
        pinned = {
            "result": asdict(result),
            "timeouts": [a.sender.timeout_period, b.sender.timeout_period],
        }
        text = json.dumps(pinned, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            self.PINS[(seed, hold, window)]
        )
