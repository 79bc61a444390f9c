"""The benchmark's four transfer workloads and what each transfer yields.

A workload turns one benchmark seed into a fixed list of simulated
transfers (same seeds, same sizes on every commit) and builds each of
them only through the program's public entry points: ``make_pair``,
``mixed_flows``, ``LinkSpec``, ``ArbiterConfig``, ``GreedySource``,
``run_transfer`` and ``run_flows``.  Those names arrive as the ``api``
namespace that :func:`load_program` returns, because the set-up time
this benchmark reports starts before the program is imported.

Every transfer is reduced by :func:`summarize` to one correctness
verdict, a few counts, its submit-to-deliver latencies, and one
canonical digest row; :class:`Tally` folds those into the virtual
(simulated-time) metrics, which are deterministic for a given seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import random
import statistics
import sys
import types
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: transfers per workload run; per-transfer simulation seeds come from
#: the benchmark seed, so the program only ever sees generated inputs
TRANSFERS = 100
#: the traced run covers this prefix of the transfer list
TRACED_TRANSFERS = 5
#: the warm-up transfer before timing is this many times smaller
WARMUP_DIVISOR = 10
#: the p99.9 latency is a median over this many blocks of transfers
LATENCY_BLOCKS = 10

#: shared-16: per-flow windows, link capacity and horizon
SHARED_WINDOWS = (4, 8, 16, 32) * 4
SHARED_RATE = 8.0
SHARED_HORIZON = 400.0
#: far more than the horizon admits (rate x horizon frames in total), so
#: every flow stays backlogged and the arbiter queues stay saturated
SHARED_OFFERED = 10_000


def load_program(root: pathlib.Path) -> types.SimpleNamespace:
    """Import the program from ``root/src`` and return its entry points.

    Raises :class:`RuntimeError` when the checkout holds no program, or
    when ``import repro`` would resolve to a copy outside the checkout.
    """
    src = (root / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no program to benchmark: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro
    from repro.channel.arbiter import ArbiterConfig
    from repro.sim.host import mixed_flows, run_flows

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported repro from {repro.__file__}, not from {src}")
    return types.SimpleNamespace(
        run_transfer=repro.run_transfer,
        run_flows=run_flows,
        make_pair=repro.make_pair,
        mixed_flows=mixed_flows,
        LinkSpec=repro.LinkSpec,
        ArbiterConfig=ArbiterConfig,
        GreedySource=repro.GreedySource,
        UniformDelay=repro.UniformDelay,
        ExponentialDelay=repro.ExponentialDelay,
        BernoulliLoss=repro.BernoulliLoss,
    )


def transfer_seeds(seed: int, count: int = TRANSFERS) -> List[int]:
    """Per-transfer simulation seeds; any count yields a prefix of a longer list."""
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------

Prepared = Tuple[Callable[..., Any], Dict[str, Any]]


def _jitter_link(api, loss: float):
    return api.LinkSpec(delay=api.UniformDelay(0.5, 1.5), loss=api.BernoulliLoss(loss))


def _bulk(api, seed: int, divisor: int, observed: bool = False) -> Prepared:
    sender, receiver = api.make_pair("blockack", window=8, bounded_wire=True)
    return api.run_transfer, dict(
        sender=sender,
        receiver=receiver,
        source=api.GreedySource(3000 // divisor),
        forward=_jitter_link(api, 0.05),
        reverse=_jitter_link(api, 0.05),
        seed=seed,
        obs=observed,
        causal=observed,
    )


def _observed(api, seed: int, divisor: int) -> Prepared:
    return _bulk(api, seed, divisor, observed=True)


def _wide(api, seed: int, divisor: int) -> Prepared:
    sender, receiver = api.make_pair(
        "blockack", window=1024, timeout_mode="per_message_safe"
    )

    def link():
        # heavy reordering from an unbounded exponential tail, aged at
        # 25 tu so the runner derives the safe timeout from the aging
        # bound.  No loss: at w=1024 every loss recovery waits out that
        # 50 tu timeout in series, and a run's simulated outcome would
        # hinge on a handful of such stalls
        return api.LinkSpec(
            delay=api.ExponentialDelay(mean=0.3, offset=0.7),
            max_lifetime=25.0,
        )

    return api.run_transfer, dict(
        sender=sender,
        receiver=receiver,
        source=api.GreedySource(4096 // divisor),
        forward=link(),
        reverse=link(),
        seed=seed,
    )


def _shared(api, seed: int, divisor: int) -> Prepared:
    flows = api.mixed_flows(
        "blockack", SHARED_WINDOWS, SHARED_OFFERED, timeout_period=12.0
    )
    return api.run_flows, dict(
        flows=flows,
        forward=_jitter_link(api, 0.02),
        reverse=_jitter_link(api, 0.02),
        seed=seed,
        max_time=SHARED_HORIZON / divisor,
        arbiter=api.ArbiterConfig(rate=SHARED_RATE, scheduler="drr", queue_limit=64),
    )


@dataclass(frozen=True)
class Workload:
    """One named set of inputs; why each exists is in BENCHMARK.json.

    ``prepare(api, seed, divisor)`` builds fresh endpoints for one
    transfer and returns the entry point plus its keyword arguments;
    only calling that entry point is timed.  ``twin`` names a workload
    with identical inputs whose simulation must match this one exactly.
    """

    name: str
    prepare: Callable[[Any, int, int], Prepared]
    twin: Optional[str] = None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("bulk-w8", _bulk),
        Workload("wide-w1024", _wide),
        Workload("shared-16", _shared),
        Workload("observed-w8", _observed, twin="bulk-w8"),
    )
}


# ----------------------------------------------------------------------
# one transfer's outcome
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """One transfer reduced to what the benchmark checks and counts."""

    ok: bool
    problem: str
    delivered: int
    duration: float
    data_sent: int
    retransmissions: int
    acks_sent: int
    data_received: int
    lost: int
    reordered: int
    fairness: float
    grants: int
    drops: int
    wait_total: float
    max_depth: int
    latencies: Sequence[float]
    digest_row: str


def summarize(seed: int, result: Any) -> Outcome:
    """Check one transfer and reduce it to an :class:`Outcome`.

    A single-flow transfer must complete with every payload delivered
    exactly once, in order.  A shared-link session runs to a horizon, so
    each of its flows must have delivered an exactly-once in-order prefix.
    """
    flows = getattr(result, "flows", None)
    if flows is None:
        endpoints = [
            (result.sender_stats, result.receiver_stats,
             result.forward_stats, result.reverse_stats, {})
        ]
        latencies = result.latencies
        fairness = 1.0
        arbiter: dict = {}
        problem = ""
        if not result.completed:
            problem = f"incomplete: {result.delivered}/{result.submitted} delivered"
        elif not result.in_order:
            problem = "payloads not delivered exactly once in order"
    else:
        endpoints = [
            (flow.sender_stats, flow.receiver_stats,
             flow.forward_stats, flow.reverse_stats, flow.queue_stats)
            for flow in flows
        ]
        latencies = [value for flow in flows for value in flow.latencies]
        fairness = result.fairness
        arbiter = result.arbiter_stats
        broken = [flow.flow for flow in flows if not flow.ordered_prefix]
        problem = f"flows {broken} broke the in-order prefix" if broken else ""
    if not problem and len(latencies) != result.delivered:
        problem = f"{len(latencies)} latencies for {result.delivered} deliveries"
    queues = list(arbiter.get("per_flow", {}).values())
    row = json.dumps(
        [seed, result.delivered, repr(result.duration), endpoints,
         result.forward_stats, result.reverse_stats, arbiter],
        sort_keys=True,
    )
    return Outcome(
        ok=not problem,
        problem=problem,
        delivered=result.delivered,
        duration=result.duration,
        data_sent=sum(stats[0]["data_sent"] for stats in endpoints),
        retransmissions=sum(stats[0]["retransmissions"] for stats in endpoints),
        acks_sent=sum(stats[1]["acks_sent"] for stats in endpoints),
        data_received=sum(stats[1]["data_received"] for stats in endpoints),
        lost=result.forward_stats["lost"] + result.reverse_stats["lost"],
        reordered=(
            result.forward_stats["reordered"] + result.reverse_stats["reordered"]
        ),
        fairness=fairness,
        grants=arbiter.get("grants_total", 0),
        drops=arbiter.get("drops_total", 0),
        wait_total=math.fsum(queue["wait_total"] for queue in queues),
        max_depth=max((queue["max_depth"] for queue in queues), default=0),
        latencies=latencies,
        digest_row=row,
    )


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 < q <= 1) of an ascending sample, by nearest rank."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tally:
    """Folds the outcomes of one pass over the transfer list."""

    def __init__(self) -> None:
        self.outcomes: List[Outcome] = []
        self.latencies = array("d")
        self._offsets = [0]  # latencies[offsets[i]:offsets[i + 1]] are transfer i's
        self._digest = hashlib.sha256()

    def add(self, outcome: Outcome) -> None:
        self.outcomes.append(outcome)
        self.latencies.extend(outcome.latencies)
        self._offsets.append(len(self.latencies))
        self._digest.update(outcome.digest_row.encode())
        self._digest.update(b"\n")
        outcome.latencies = ()  # pooled above; the outcome keeps its counts

    @property
    def sim_digest(self) -> str:
        return self._digest.hexdigest()

    def _sum(self, field: str) -> float:
        return sum(getattr(outcome, field) for outcome in self.outcomes)

    @property
    def delivered(self) -> int:
        return int(self._sum("delivered"))

    def virtual_metrics(self) -> Dict[str, float]:
        """End-to-end metrics in simulated time: deterministic per seed.

        The p99.9 latency is the median over ten blocks of consecutive
        transfers of each block's pooled p99.9.  In a wide window one
        delayed message holds back the deliveries behind it, so the
        pooled tail of a whole run rests on one or two such events; the
        block median rests on ten.
        """
        delivered = self.delivered
        return {
            "goodput_per_tu": delivered / math.fsum(o.duration for o in self.outcomes),
            "latency_tu_p50": nearest_rank(sorted(self.latencies), 0.5),
            "latency_tu_p999": statistics.median(
                nearest_rank(sorted(block), 0.999) for block in self._latency_blocks()
            ),
            "tx_per_msg": self._sum("data_sent") / delivered,
            "acks_per_msg": self._sum("acks_sent") / delivered,
            "jain": math.fsum(o.fairness for o in self.outcomes) / len(self.outcomes),
        }

    def _latency_blocks(self) -> List[Sequence[float]]:
        count = len(self.outcomes)
        blocks = min(LATENCY_BLOCKS, count)
        cuts = [self._offsets[count * block // blocks] for block in range(blocks + 1)]
        return [self.latencies[start:end] for start, end in zip(cuts, cuts[1:])]

    def latency_samples(self) -> Tuple[int, int]:
        """(samples, fewest samples beyond the p99.9 rank in any block)."""
        return len(self.latencies), min(
            len(block) - math.ceil(0.999 * len(block)) for block in self._latency_blocks()
        )

    def layer_counts(self) -> Dict[str, float]:
        """Per-layer counts the program reports in its own results."""
        delivered = self.delivered
        grants = self._sum("grants")
        return {
            "channel.lost_per_msg": self._sum("lost") / delivered,
            "channel.reordered_per_msg": self._sum("reordered") / delivered,
            "protocols.retx_per_msg": self._sum("retransmissions") / delivered,
            "protocols.useful_ratio": delivered / self._sum("data_received"),
            "arbiter.grants_per_msg": grants / delivered,
            "arbiter.drops_per_msg": self._sum("drops") / delivered,
            "arbiter.wait_tu_mean": (
                math.fsum(o.wait_total for o in self.outcomes) / grants
                if grants else 0.0
            ),
            "arbiter.max_depth": max(o.max_depth for o in self.outcomes),
        }
