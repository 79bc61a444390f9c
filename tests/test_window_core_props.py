"""Property tests on the shared window core (:mod:`repro.protocols.window_core`).

Two invariants the refactored protocols all inherit from the shared
bookkeeping and must hold under any workload:

* **wrap-around at ``n = 2w``** — with the wire domain fixed at twice
  the window (blockack-bounded by construction, or block ack in each
  safe timeout mode under
  :class:`~repro.core.numbering.ModularNumbering`), transfers spanning
  many domain revolutions still deliver exactly once in order;
* **ack-cursor monotonicity** — the value every protocol feeds
  :meth:`WindowedSender._register_ack` (``stats.acked``) never moves
  backwards, even while wire sequence numbers wrap.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocols.registry import make_pair, protocol_names
from repro.protocols.window_core import TIMER_STYLES, WindowedSender
from repro.channel.impairments import BernoulliLoss
from repro.sim.runner import LinkSpec, run_transfer
from repro.workloads.sources import GreedySource

CORE_PROTOCOLS = ("blockack", "gobackn", "selective-repeat")

#: the protocols whose factories honour ``bounded_wire``
BOUNDED_WIRE_PROTOCOLS = ("blockack", "blockack-simple", "blockack-oracle")


def _sample_acked(sender):
    """Record every value the protocol feeds the shared ack cursor."""
    samples = []
    original = sender._register_ack

    def recording(newly_acked, acked_value):
        samples.append(acked_value)
        original(newly_acked, acked_value)

    sender._register_ack = recording
    return samples


class TestWrapAround:
    @settings(max_examples=25, deadline=None)
    @given(
        window=st.integers(min_value=2, max_value=8),
        revolutions=st.integers(min_value=3, max_value=8),
        loss=st.sampled_from([0.0, 0.05, 0.15]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_bounded_wire_survives_many_domain_revolutions(
        self, window, revolutions, loss, seed
    ):
        """n = 2w: the transfer outruns the wire domain several times."""
        total = 2 * window * revolutions
        sender, receiver = make_pair("blockack-bounded", window=window)
        assert sender.book.domain.n == 2 * window  # fixed by construction
        result = run_transfer(
            sender, receiver, GreedySource(total),
            forward=LinkSpec(loss=BernoulliLoss(loss)), reverse=LinkSpec(loss=BernoulliLoss(loss)),
            seed=seed, collect_payloads=True, max_time=1_000_000.0,
        )
        assert result.completed and result.in_order
        assert result.delivered_payloads == [("msg", i) for i in range(total)]
        assert result.receiver_stats["delivered"] == total

    @settings(max_examples=15, deadline=None)
    @given(
        protocol=st.sampled_from(BOUNDED_WIRE_PROTOCOLS),
        window=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_modular_numbering_wrap_for_every_core_protocol(
        self, protocol, window, seed
    ):
        """Each safe block-ack timeout mode under a 2w wire domain wraps."""
        total = 2 * window * 4
        sender, receiver = make_pair(protocol, window=window, bounded_wire=True)
        assert sender.numbering.domain_size == 2 * window
        result = run_transfer(
            sender, receiver, GreedySource(total),
            forward=LinkSpec(loss=BernoulliLoss(0.1)), reverse=LinkSpec(loss=BernoulliLoss(0.1)),
            seed=seed, collect_payloads=True, max_time=1_000_000.0,
        )
        assert result.completed and result.in_order
        assert result.delivered_payloads == [("msg", i) for i in range(total)]


class TestAckCursorMonotonicity:
    @settings(max_examples=25, deadline=None)
    @given(
        protocol=st.sampled_from(CORE_PROTOCOLS + ("blockack-bounded",)),
        window=st.integers(min_value=2, max_value=8),
        loss=st.sampled_from([0.0, 0.1, 0.25]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_acked_never_moves_backwards(self, protocol, window, loss, seed):
        sender, receiver = make_pair(protocol, window=window)
        samples = _sample_acked(sender)
        result = run_transfer(
            sender, receiver, GreedySource(4 * window),
            forward=LinkSpec(loss=BernoulliLoss(loss)), reverse=LinkSpec(loss=BernoulliLoss(loss)),
            seed=seed, max_time=1_000_000.0,
        )
        assert result.completed
        assert samples, "transfer completed without a single ack"
        assert all(a <= b for a, b in zip(samples, samples[1:])), samples
        assert sender.stats.acked == samples[-1]


class TestSenderContract:
    def test_timer_styles_are_closed(self):
        # every registered protocol must pick from the shared set
        for protocol in protocol_names():
            sender, _ = make_pair(protocol, window=4)
            assert isinstance(sender, WindowedSender)
            assert sender.timer_style in TIMER_STYLES

    def test_unknown_timer_style_rejected(self):
        class Broken(WindowedSender):
            timer_style = "psychic"

            def _send_window_open(self):
                return True

            @property
            def all_acknowledged(self):
                return True

            def on_message(self, message):
                pass

        sender = Broken(timeout_period=1.0)
        with pytest.raises(ValueError):
            sender._build_timers()
