"""End-to-end property-based tests.

Hypothesis drives randomized channel conditions and protocol parameters;
the properties are the paper's correctness statements:

* **safety** — every completed transfer delivers each payload exactly
  once, in order, regardless of loss rate, jitter, window size, numbering
  mode, or ack policy;
* **equivalence** — bounded and unbounded variants remain behaviourally
  identical under randomized conditions.
"""

from hypothesis import given, settings, strategies as st

from repro.channel.delay import UniformDelay
from repro.channel.impairments import BernoulliLoss
from repro.core.numbering import ModularNumbering
from repro.protocols.ack_policy import DelayedAckPolicy, EagerAckPolicy
from repro.protocols.blockack import BlockAckReceiver, BlockAckSender
from repro.protocols.blockack_bounded import (
    BoundedBlockAckReceiver,
    BoundedBlockAckSender,
)
from repro.sim.runner import LinkSpec, run_transfer
from repro.workloads.sources import GreedySource


@settings(max_examples=25, deadline=None)
@given(
    window=st.integers(min_value=1, max_value=12),
    loss=st.floats(min_value=0.0, max_value=0.25),
    spread=st.floats(min_value=0.0, max_value=1.8),
    seed=st.integers(min_value=0, max_value=10**6),
    mode=st.sampled_from(["simple", "per_message_safe"]),
    bounded=st.booleans(),
)
def test_transfer_safety_property(window, loss, spread, seed, mode, bounded):
    """Exactly-once in-order delivery under arbitrary conditions."""
    numbering = ModularNumbering(window) if bounded else None
    sender = BlockAckSender(window, numbering=numbering, timeout_mode=mode)
    receiver = BlockAckReceiver(window, numbering=numbering)
    low = max(0.0, 1.0 - spread / 2)
    link = lambda: LinkSpec(
        delay=UniformDelay(low, 1.0 + spread / 2),
        loss=BernoulliLoss(loss),
    )
    result = run_transfer(
        sender, receiver, GreedySource(60),
        forward=link(), reverse=link(), seed=seed,
        collect_payloads=True, max_time=1_000_000.0,
    )
    assert result.completed
    assert result.delivered_payloads == [("msg", i) for i in range(60)]


@settings(max_examples=15, deadline=None)
@given(
    window=st.integers(min_value=1, max_value=8),
    loss=st.floats(min_value=0.0, max_value=0.15),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_bounded_unbounded_equivalence_property(window, loss, seed):
    """Section V equivalence under randomized channels (simple timeout)."""

    def run_one(sender, receiver):
        link = lambda: LinkSpec(
            delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(loss)
        )
        return run_transfer(
            sender, receiver, GreedySource(40),
            forward=link(), reverse=link(), seed=seed,
            collect_payloads=True, max_time=1_000_000.0,
        )

    reference = run_one(
        BlockAckSender(window, timeout_mode="simple"),
        BlockAckReceiver(window, ack_policy=EagerAckPolicy()),
    )
    bounded = run_one(
        BoundedBlockAckSender(window),
        BoundedBlockAckReceiver(window, ack_policy=EagerAckPolicy()),
    )
    assert reference.completed and bounded.completed
    assert bounded.delivered_payloads == reference.delivered_payloads
    assert bounded.duration == reference.duration
    assert bounded.sender_stats["data_sent"] == reference.sender_stats["data_sent"]


@settings(max_examples=15, deadline=None)
@given(
    delay=st.floats(min_value=0.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_ack_batching_never_breaks_safety(delay, seed):
    """Any bounded ack-policy latency preserves correctness."""
    sender = BlockAckSender(8, timeout_mode="per_message_safe")
    receiver = BlockAckReceiver(8, ack_policy=DelayedAckPolicy(delay))
    link = lambda: LinkSpec(delay=UniformDelay(0.5, 1.5), loss=BernoulliLoss(0.08))
    result = run_transfer(
        sender, receiver, GreedySource(50),
        forward=link(), reverse=link(), seed=seed, max_time=1_000_000.0,
    )
    assert result.completed and result.in_order
