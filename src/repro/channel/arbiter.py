"""Send-side link arbiter: a capacity-limited bottleneck with per-flow
scheduling.

The multi-flow stack (:class:`~repro.channel.mux.FlowMux` /
:class:`~repro.sim.host.SessionHost`) historically modelled contention
as pure loss/delay: every flow transmitted instantly and independently,
so a "shared" link never actually ran out of capacity.  The paper's
window protocols, though, were designed for links that are a shared,
capacity-limited resource — per-connection share of a bottleneck is the
constraint that makes window sizing, fairness, and scheduling matter at
all (Ghaderi & Towsley; Jain — see PAPERS.md).

:class:`LinkArbiter` puts that bottleneck in front of the shared
channel's ``send``:

* a **token bucket** models link capacity: ``rate`` tokens (frames)
  accrue per unit of *virtual* time up to a ``burst`` ceiling, refilled
  lazily from the simulator clock (no periodic tick events, so
  decision traces stay seeded-deterministic);
* each flow owns a **bounded droptail queue**: frames submitted while
  the flow's queue is at ``queue_limit`` are dropped at the tail and
  counted (never silently), exactly like a store-and-forward output
  buffer;
* a pluggable **scheduler** picks which backlogged flow the next token
  serves: :class:`FifoScheduler` (global arrival order — the default),
  :class:`WrrScheduler` (weighted round-robin, integer weights), or
  :class:`DrrScheduler` (deficit round-robin: the flow's weight is
  its per-turn credit, deficits carried across rounds so expensive
  flows are not starved and cheap flows cannot overdraw).

When ``ArbiterConfig.rate`` is ``None`` the arbiter is *inactive* and
never constructed: :class:`~repro.channel.mux.FlowPort.send` keeps its
historical direct path onto the link, which is what pins the
"``fifo`` + infinite capacity is byte-identical to the pre-arbiter
stack" property (see ``tests/test_session_golden.py``).

A deliberate asymmetry: sessions arbitrate the **forward (data)**
direction only.  The paper's asymmetric cost model treats
acknowledgements as small control frames — the whole point of block
acks is that ack traffic is cheap — so the reverse channel keeps the
pure loss/delay model.

A known safety gap: the safe-timeout derivation
(:func:`~repro.sim.host._derive_timeout`) bounds retransmission
ambiguity using the *channel's* ``effective_max_lifetime``.  An arbiter
queue adds wait *before* the channel, so under a saturating offered
load the true submit→deliver lifetime is no longer bounded by the link
alone and a timeout may fire while the original frame still sits in
the queue.  That breaks the paper's guarantees, not only efficiency:
ROADMAP item 5 measured 424–474 assertion-8 violations per
``blockack`` session on a 16-flow DRR link with derived timeouts,
34–63 per session on the benchmark's ``shared-16`` workload despite its
explicit 12 tu timeout, and out-of-order delivery on
``blockack-bounded`` flows, whose sequence numbers wrap mod 2w.  Behind
an unbounded queue (``queue_limit=None``) nothing bounds the wait, so
:attr:`~repro.channel.mux.FlowPort.effective_max_lifetime` is None there
and the session host refuses to derive a timeout; an explicit
``timeout_period`` still runs.  Behind a bounded queue the gap stays
open: the derivation reads the link's lifetime alone.  The fix, bounding
the queue wait, is item 5's.  Until it lands, an explicit
``timeout_period`` keeps the guarantees only if it outlasts the worst
queue wait; E17 pins a generous one so that scheduling, not
spurious-retransmission collapse, dominates its comparison.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

__all__ = [
    "SCHEDULERS",
    "ArbiterConfig",
    "FlowQueueStats",
    "LinkArbiter",
    "FifoScheduler",
    "WrrScheduler",
    "DrrScheduler",
    "make_scheduler",
]

#: scheduler names accepted by :class:`ArbiterConfig` / ``--sched``
SCHEDULERS = ("fifo", "wrr", "drr")

#: tolerance for token-refill float drift: a wake-up scheduled at
#: ``(1 - tokens) / rate`` may refill to 0.999...9 tokens instead of
#: exactly 1.0; rounding within this bound prevents a livelock of
#: zero-length re-arms without ever granting a token early by more
#: than one part in 10^9
_TOKEN_EPSILON = 1e-9


@dataclass(frozen=True)
class ArbiterConfig:
    """Declarative description of the link bottleneck.

    ``rate=None`` (the default) means *no* bottleneck: the arbiter is
    never built and every ``FlowPort.send`` goes straight to the link,
    byte-identical to the pre-arbiter stack.
    """

    rate: Optional[float] = None  # link capacity, frames per unit time
    burst: float = 8.0  # token-bucket depth, frames
    scheduler: str = "fifo"
    queue_limit: Optional[int] = 64  # per-flow frames; None = unbounded

    def __post_init__(self) -> None:
        # NaN passes every comparison and an infinite rate re-arms its
        # wake at zero delay, so each number must be finite first
        for name in ("rate", "burst"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"link rate must be positive, got {self.rate}")
        if self.burst < 1.0:
            raise ValueError(
                f"burst must be >= 1 frame (else nothing ever sends), "
                f"got {self.burst}"
            )
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"expected one of {SCHEDULERS}"
            )
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1 or None, got {self.queue_limit}"
            )

    @property
    def active(self) -> bool:
        """Whether this config describes an actual bottleneck."""
        return self.rate is not None


@dataclass
class FlowQueueStats:
    """Per-flow arbiter counters (droptail queue + grant accounting)."""

    enqueued: int = 0  # frames accepted into the queue
    granted: int = 0  # frames handed to the link
    dropped: int = 0  # droptail rejections at the queue limit
    wait_total: float = 0.0  # summed enqueue->grant wait (virtual time)
    max_depth: int = 0  # high-water queue occupancy

    def as_dict(self) -> dict:
        mean_wait = self.wait_total / self.granted if self.granted else 0.0
        return {
            "enqueued": self.enqueued,
            "granted": self.granted,
            "dropped": self.dropped,
            "wait_total": self.wait_total,
            "mean_wait": mean_wait,
            "max_depth": self.max_depth,
        }


class FifoScheduler:
    """Serve frames in global arrival order, regardless of flow.

    The work-conserving baseline: with one token per frame this is
    exactly a shared FIFO output buffer, so a flow that enqueues faster
    (larger window) captures a proportionally larger share of the link.
    """

    name = "fifo"

    def __init__(self, backlog: Callable[[int], Any]) -> None:
        self._arrivals: Deque[int] = deque()

    def add_flow(self, flow: int, weight: float) -> None:
        pass

    def on_enqueue(self, flow: int) -> None:
        self._arrivals.append(flow)

    def select(self) -> int:
        return self._arrivals.popleft()


class WrrScheduler:
    """Weighted round-robin: up to ``int(weight)`` frames per turn.

    Flows are visited in ascending flow-id order (deterministic); an
    empty queue forfeits the rest of that flow's turn — credit does
    *not* carry over, which is what distinguishes WRR from DRR.
    """

    name = "wrr"

    def __init__(self, backlog: Callable[[int], Any]) -> None:
        self._backlog = backlog
        self._order: List[int] = []
        self._weights: Dict[int, int] = {}
        self._idx = 0
        self._remaining = 0

    def add_flow(self, flow: int, weight: float) -> None:
        if not math.isfinite(weight):
            raise ValueError(f"WRR weight must be finite, got {weight}")
        credit = max(1, int(weight))
        self._weights[flow] = credit
        self._order.append(flow)
        self._order.sort()
        self._idx = 0
        self._remaining = self._weights[self._order[0]]

    def on_enqueue(self, flow: int) -> None:
        pass

    def select(self) -> int:
        # only called with backlog somewhere, so the loop terminates
        backlog, order = self._backlog, self._order
        idx, remaining = self._idx, self._remaining
        while True:
            flow = order[idx]
            if remaining > 0 and backlog(flow):
                self._idx, self._remaining = idx, remaining - 1
                return flow
            idx = (idx + 1) % len(order)
            remaining = self._weights[order[idx]]


class DrrScheduler:
    """Deficit round-robin (Shreedhar & Varghese) at frame granularity.

    Each time a flow's turn begins it earns its ``weight`` in deficit
    and serves frames while the deficit covers them (cost 1 per frame);
    unspent deficit carries to the flow's next turn, and a flow whose
    queue empties forfeits its deficit and ends its turn, even if it
    queues again before the next grant.  Equal weights therefore give
    per-flow (not per-frame) fairness even when enqueue rates differ —
    the property E17 measures against FIFO.  ``backlog(flow)`` must give
    the flow's queue: DRR reads its length.
    """

    name = "drr"

    def __init__(self, backlog: Callable[[int], Any]) -> None:
        self._backlog = backlog
        self._order: List[int] = []
        self._credit: Dict[int, float] = {}  # the weight, earned per turn
        self._deficit: Dict[int, float] = {}
        self._idx = 0
        self._fresh_turn = True

    def add_flow(self, flow: int, weight: float) -> None:
        if not math.isfinite(weight) or weight <= 0:
            raise ValueError(f"DRR weight must be positive and finite, got {weight}")
        self._credit[flow] = float(weight)
        self._deficit[flow] = 0.0
        self._order.append(flow)
        self._order.sort()
        self._idx = 0
        self._fresh_turn = True

    def on_enqueue(self, flow: int) -> None:
        pass

    def select(self) -> int:
        # terminates: every full rotation adds weight > 0 to at least
        # one backlogged flow's deficit, and select() is only called
        # when some flow is backlogged
        backlog, order, deficit = self._backlog, self._order, self._deficit
        idx, fresh = self._idx, self._fresh_turn
        while True:
            flow = order[idx]
            queue = backlog(flow)
            if not queue:
                deficit[flow] = 0.0  # empty queue forfeits deficit
            else:
                if fresh:
                    deficit[flow] += self._credit[flow]
                    fresh = False
                if deficit[flow] >= 1.0:
                    if len(queue) > 1:
                        deficit[flow] -= 1.0
                        self._idx, self._fresh_turn = idx, False
                    else:  # this frame drains the queue: forfeit, end the turn
                        deficit[flow] = 0.0
                        self._idx, self._fresh_turn = (idx + 1) % len(order), True
                    return flow
            idx = (idx + 1) % len(order)
            fresh = True


def make_scheduler(config: ArbiterConfig, backlog: Callable[[int], Any]):
    """Instantiate the scheduler named by ``config.scheduler``.

    ``backlog(flow)`` gives the flow's waiting frames, the queue itself
    in :class:`LinkArbiter`: schedulers read its truth value, and DRR its
    length (FIFO and WRR also take a depth).
    """
    if config.scheduler == "fifo":
        return FifoScheduler(backlog)
    if config.scheduler == "wrr":
        return WrrScheduler(backlog)
    if config.scheduler == "drr":
        return DrrScheduler(backlog)
    raise ValueError(f"unknown scheduler {config.scheduler!r}")


class LinkArbiter:
    """Token-bucket + scheduler gate in front of one channel's ``send``.

    Construction takes the owning simulator, the downstream send
    callable (usually ``link.send``), and an *active*
    :class:`ArbiterConfig`.  Flows register before submitting; frames
    enter per-flow queues via :meth:`submit` and leave, in scheduler
    order and at the token-bucket's pace, through the downstream send.

    Determinism: refill is a pure function of the virtual clock, the
    scheduler state is a pure function of the submit/grant history, and
    wake-ups are plain simulator events — so for a fixed seed the grant
    schedule is identical run to run.
    """

    def __init__(
        self,
        sim: Any,
        send: Callable[[Any], None],
        config: ArbiterConfig,
        name: str = "link",
    ) -> None:
        if not config.active:
            raise ValueError(
                "LinkArbiter requires a finite rate; with rate=None the "
                "mux bypasses the arbiter entirely"
            )
        self.sim = sim
        self.config = config
        self.name = name
        self._send = send
        self._rate = float(config.rate)
        self._burst = float(config.burst)
        # per flow: the droptail buffer of (message, enqueued_at) pairs
        # and its counters; schedulers read backlog straight off the buffers
        self._frames: Dict[int, Deque[Tuple[Any, float]]] = {}
        self._stats: Dict[int, FlowQueueStats] = {}
        self._scheduler = make_scheduler(config, self._frames.__getitem__)
        # only FIFO orders by arrival; WRR and DRR read backlog instead
        self._on_enqueue = (
            self._scheduler.on_enqueue if config.scheduler == "fifo" else None
        )
        self._backlog = 0
        self._tokens = self._burst  # start full: first burst free
        self._last_refill = sim.now
        self._wake: Any = None
        self._pumping = False
        self.grants_total = 0
        self.drops_total = 0

    # -- registration ------------------------------------------------------

    def register(self, flow: int, weight: float = 1.0) -> FlowQueueStats:
        """Declare a flow (and its scheduling weight); idempotent."""
        stats = self._stats.get(flow)
        if stats is not None:
            return stats
        # the scheduler validates the weight: a rejected flow keeps no queue
        self._scheduler.add_flow(flow, weight)
        stats = self._stats[flow] = FlowQueueStats()
        self._frames[flow] = deque()
        return stats

    # -- inspection --------------------------------------------------------

    def queue_depth(self, flow: int) -> int:
        """Frames currently buffered for ``flow``."""
        return len(self._frames.get(flow, ()))

    def queued(self, flow: int):
        """Iterate ``flow``'s buffered messages, oldest first."""
        for message, _ in self._frames.get(flow, ()):
            yield message

    def flow_stats(self, flow: int) -> FlowQueueStats:
        return self._stats[flow]

    def stats_dict(self) -> dict:
        """JSON-safe aggregate + per-flow arbiter counters."""
        return {
            "rate": self.config.rate,
            "burst": self.config.burst,
            "scheduler": self.config.scheduler,
            "queue_limit": self.config.queue_limit,
            "grants_total": self.grants_total,
            "drops_total": self.drops_total,
            # string keys so the dict survives a JSON round-trip exactly
            # (the sweep cache re-reads serialized results byte-identically)
            "per_flow": {
                str(flow): stats.as_dict()
                for flow, stats in sorted(self._stats.items())
            },
        }

    # -- data path ---------------------------------------------------------

    def submit(self, flow: int, message: Any) -> bool:
        """Queue one frame for ``flow``; False on a droptail rejection."""
        frames = self._frames[flow]
        stats = self._stats[flow]
        limit = self.config.queue_limit
        if limit is not None and len(frames) >= limit:
            stats.dropped += 1
            self.drops_total += 1
            return False
        now = self.sim.now
        frames.append((message, now))
        stats.enqueued += 1
        depth = len(frames)
        if depth > stats.max_depth:
            stats.max_depth = depth
        if self._on_enqueue is not None:
            self._on_enqueue(flow)
        self._backlog += 1
        self._pump(now)
        return True

    def _pump(self, now: float) -> None:
        """Grant while tokens and backlog last; re-arm a wake-up if not.

        The clock cannot move inside one pump, so the token bucket
        refills once per call; the float-drift snap still runs before
        every grant.  Re-entrancy guard: granting calls the downstream
        ``send``, whose observers may synchronously submit more traffic
        (an endpoint reacting to a channel event); those submissions
        enqueue and the *outer* pump loop picks them up.
        """
        if self._pumping or not self._backlog:
            return
        tokens = self._tokens
        elapsed = now - self._last_refill
        if elapsed > 0:
            tokens = min(self._burst, tokens + elapsed * self._rate)
            self._last_refill = now
        select = self._scheduler.select
        frames, stats_of, send = self._frames, self._stats, self._send
        self._pumping = True
        try:
            while self._backlog:
                if 0 < 1.0 - tokens < _TOKEN_EPSILON:
                    tokens = 1.0  # absorb wake-up float drift (see above)
                if tokens < 1.0:
                    break
                flow = select()
                message, enqueued_at = frames[flow].popleft()
                self._backlog -= 1
                tokens -= 1.0
                stats = stats_of[flow]
                stats.granted += 1
                stats.wait_total += now - enqueued_at
                self.grants_total += 1
                send(message)
        finally:
            self._tokens = tokens
            self._pumping = False
        if self._backlog and self._wake is None:
            delay = (1.0 - tokens) / self._rate
            self._wake = self.sim.schedule(delay, self._on_wake)

    def _on_wake(self) -> None:
        self._wake = None
        self._pump(self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkArbiter({self.name!r}, rate={self.config.rate}, "
            f"sched={self.config.scheduler}, backlog={self._backlog})"
        )
