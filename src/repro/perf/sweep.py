"""Parallel sweep runner: fan independent protocol runs across processes.

The paper's comparative method (common random numbers, one seeded
:class:`~repro.sim.randomness.RandomStreams` family per run) makes every
replication of every sweep cell perfectly independent, so the grid of
``(protocol, window, total, links, seed, kwargs)`` runs an experiment
performs is embarrassingly parallel.  :class:`SweepRunner` exploits that:

* describe each run declaratively as a :class:`RunConfig` (everything in
  it is picklable, so configs cross process boundaries);
* fan the runs across a ``concurrent.futures.ProcessPoolExecutor`` when
  ``jobs > 1`` (``jobs=1`` is a plain serial loop — no pool, no pickling);
* merge results back **deterministically**: results are returned in the
  exact order of the submitted configs regardless of completion order,
  and every result — serial, parallel, or cached — passes through the
  same serialized representation, so the three paths are byte-identical;
* memoize completed runs in an on-disk :class:`~repro.perf.cache.ResultCache`
  keyed by a stable hash of the full config.

Knobs: ``jobs`` comes from the ``--jobs`` CLI flag or the ``REPRO_JOBS``
environment variable (default 1); caching is opt-in via ``REPRO_CACHE=1``
(or an explicit ``cache=`` argument) because a persistent cache survives
code changes — see :mod:`repro.perf.cache` for the invalidation story.
"""

from __future__ import annotations

import copy
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.perf.cache import ResultCache, config_digest, default_cache_root, describe
from repro.sim.runner import LinkSpec, TransferResult

__all__ = [
    "RunConfig",
    "SweepRunner",
    "run_protocol_grid",
    "default_jobs",
    "obs_enabled_by_env",
    "causal_enabled_by_env",
    "execute_config",
    "serialize_result",
    "deserialize_result",
    "MonitorSummary",
]


def default_jobs() -> int:
    """Worker-process count from ``REPRO_JOBS`` (default: 1, serial)."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}") from None


def cache_enabled_by_env() -> bool:
    """True when ``REPRO_CACHE`` asks for the on-disk result cache."""
    return os.environ.get("REPRO_CACHE", "") not in ("", "0")


def obs_enabled_by_env() -> bool:
    """True when ``REPRO_OBS`` asks grid runs to record telemetry.

    Set by the CLI's ``--obs`` flag (like ``--jobs``/``REPRO_JOBS``);
    each observed grid cell exports one ``results/obs/<run_id>.jsonl``.
    """
    return os.environ.get("REPRO_OBS", "") not in ("", "0")


def causal_enabled_by_env() -> bool:
    """True when ``REPRO_CAUSAL`` asks runs to keep the causal layer on.

    Set by the CLI's ``--causal`` flag.  Every run then carries the
    always-on flight-recorder ring; anomalous cells (link-dead verdicts,
    diverged recovery, deep backoff, invariant violations, collapsed
    fairness) dump ``results/obs/flight/<run_id>.jsonl``.
    """
    return os.environ.get("REPRO_CAUSAL", "") not in ("", "0")


def sched_from_env() -> Optional[str]:
    """Scheduler pinned by ``REPRO_SCHED`` (the CLI's ``--sched`` flag).

    Returns ``None`` when unset — experiments then sweep their own
    scheduler axis; a pinned value narrows the sweep to one scheduler
    (the way ``REPRO_FLOWS`` narrows e15's flow-count axis).
    """
    sched = os.environ.get("REPRO_SCHED", "")
    if not sched:
        return None
    from repro.channel.arbiter import SCHEDULERS  # local: avoid cycles

    if sched not in SCHEDULERS:
        raise ValueError(
            f"REPRO_SCHED={sched!r} is not one of {SCHEDULERS}"
        )
    return sched


@dataclass
class RunConfig:
    """One independent protocol run, described declaratively.

    Everything in it is picklable: the protocol pair is built by name
    through the registry inside the worker, the source is greedy, and
    the channels come from the two :class:`LinkSpec` descriptions.  ``fault_plan`` (if any) is treated as a template and
    deep-copied before each run so its mutable state (rng, counters)
    never leaks between runs or processes.
    """

    protocol: str
    window: int
    total: int
    forward: LinkSpec
    reverse: LinkSpec
    seed: int
    max_time: Optional[float] = None
    max_events: int = 20_000_000
    monitor_invariants: bool = False
    fault_plan: Optional[Any] = None
    protocol_kwargs: Dict[str, Any] = field(default_factory=dict)
    obs: bool = False  # record + export telemetry for this run
    flows: int = 1  # concurrent flows sharing the links; total is per-flow
    causal: bool = False  # causal graph + flight recorder (repro.obs.causal)
    link_rate: Optional[float] = None  # arbiter capacity (frames/tu); None=off
    link_burst: float = 8.0  # arbiter token-bucket depth (frames)
    sched: str = "fifo"  # arbiter scheduler (repro.channel.arbiter.SCHEDULERS)
    queue_limit: Optional[int] = 64  # arbiter per-flow droptail bound
    flow_windows: Optional[Tuple[int, ...]] = None  # heterogeneous windows
    flow_weights: Optional[Tuple[float, ...]] = None  # arbiter weights

    def description(self) -> str:
        """Canonical config string; equal configs describe identically."""
        parts = [
            f"protocol={self.protocol!r}",
            f"window={self.window}",
            f"total={self.total}",
            f"forward={describe(self.forward)}",
            f"reverse={describe(self.reverse)}",
            f"seed={self.seed}",
            f"max_time={self.max_time!r}",
            f"max_events={self.max_events}",
            f"monitor={self.monitor_invariants}",
            f"faults={_describe_fault_plan(self.fault_plan)}",
            f"kwargs={describe(self.protocol_kwargs)}",
            f"obs={self.obs}",
        ]
        if self.flows != 1:
            # appended conditionally so every pre-multi-flow cache entry
            # keeps its key; flows=1 is byte-identical to the old format
            parts.append(f"flows={self.flows}")
        if self.causal:
            # conditional-append again: causal-off configs keep their
            # pre-causal cache keys, and a causal run (which may have
            # written a flight dump) never satisfies a causal-off lookup
            parts.append(f"causal={self.causal}")
        if self.link_rate is not None:
            # the arbiter block appends as a unit, and only when a
            # bottleneck is actually configured: rate=None runs keep
            # their pre-arbiter cache keys regardless of sched defaults
            parts.append(f"link_rate={self.link_rate!r}")
            parts.append(f"link_burst={self.link_burst!r}")
            parts.append(f"sched={self.sched!r}")
            parts.append(f"queue_limit={self.queue_limit!r}")
        if self.flow_windows is not None:
            parts.append(f"flow_windows={tuple(self.flow_windows)}")
        if self.flow_weights is not None:
            parts.append(f"flow_weights={tuple(self.flow_weights)}")
        return "RunConfig(" + ",".join(parts) + ")"

    def cache_key(self) -> str:
        """Stable hash of the full configuration + seed."""
        return config_digest(self.description())

    def run_id(self) -> str:
        """Deterministic telemetry run id: readable prefix + config digest."""
        flows = f"_f{self.flows}" if self.flows != 1 else ""
        arbiter = (
            f"_r{self.link_rate:g}_{self.sched}"
            if self.link_rate is not None
            else ""
        )
        return (
            f"{self.protocol.replace('-', '_')}_w{self.window}"
            f"_n{self.total}{flows}{arbiter}"
            f"_s{self.seed}_{self.cache_key()[:8]}"
        )


def _describe_fault_plan(plan: Any) -> str:
    if plan is None:
        return "None"
    # FaultPlan's repr is a debugging aid; spell out every constructor
    # field so the cache key captures the complete scripted fault trace
    fields = {
        "forward_corruption": plan.forward_corruption,
        "reverse_corruption": plan.reverse_corruption,
        "forward_brownout": plan.forward_brownout,
        "reverse_brownout": plan.reverse_brownout,
        "crashes": list(plan.crashes),
        "seed": plan.seed,
    }
    corruptions = getattr(plan, "corruptions", ())
    if corruptions:
        # appended conditionally so every pre-corruption cache entry
        # keeps its key; a corruption-free plan describes as before
        fields["corruptions"] = [str(spec) for spec in corruptions]
    return describe(fields)


class MonitorSummary:
    """Process-portable stand-in for an attached InvariantMonitor.

    Holds the formatted violation strings; ``len(result.monitor.violations)``
    and ``result.monitor.ok`` work the same as on the live monitor.
    """

    __slots__ = ("violations",)

    def __init__(self, violations: Sequence[str]) -> None:
        self.violations = list(violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MonitorSummary({len(self.violations)} violation(s))"


def execute_config(config: RunConfig) -> TransferResult:
    """Build and run one configured transfer (in whatever process).

    Every cell is one :class:`~repro.sim.host.SessionHost` session of
    ``flows`` greedy flows of the protocol (``flow_windows`` makes them
    heterogeneous).  A cell of several flows, or behind an arbiter,
    shares the two links, and its flattened result carries per-flow rows
    plus the Jain fairness index.  A one-flow cell with neither is
    exactly :func:`~repro.sim.runner.run_transfer` and carries neither.
    """
    from repro.sim.host import (  # local: avoid cycles
        SessionHost,
        mixed_flows,
        session_to_transfer,
        uniform_flows,
    )

    obs_labels = None
    if config.obs or config.causal:
        obs_labels = {
            "protocol": config.protocol,
            "window": str(config.window),
            "total": str(config.total),
            "seed": str(config.seed),
        }
        if config.flows != 1:
            obs_labels["flows"] = str(config.flows)
        if config.link_rate is not None:
            obs_labels["link_rate"] = str(config.link_rate)
            obs_labels["sched"] = config.sched
    plan = copy.deepcopy(config.fault_plan) if config.fault_plan is not None else None

    arbiter = None
    if config.link_rate is not None:
        from repro.channel.arbiter import ArbiterConfig  # local: avoid cycles

        arbiter = ArbiterConfig(
            rate=config.link_rate,
            burst=config.link_burst,
            scheduler=config.sched,
            queue_limit=config.queue_limit,
        )

    if config.flow_windows is not None and len(config.flow_windows) != config.flows:
        raise ValueError(
            f"flow_windows has {len(config.flow_windows)} entries for "
            f"flows={config.flows}; set flows=len(flow_windows)"
        )
    if config.flow_weights is not None and len(config.flow_weights) != config.flows:
        raise ValueError(
            f"flow_weights has {len(config.flow_weights)} entries for "
            f"flows={config.flows}"
        )

    if config.flow_windows is not None:
        specs = mixed_flows(
            config.protocol,
            config.flow_windows,
            config.total,
            weights=config.flow_weights,
            **config.protocol_kwargs,
        )
    else:
        specs = uniform_flows(
            config.protocol,
            config.flows,
            config.window,
            config.total,
            **config.protocol_kwargs,
        )
        if config.flow_weights is not None:
            for spec, weight in zip(specs, config.flow_weights):
                spec.weight = weight

    # the host rejects a fault plan on a muxed (multi-flow) session
    session = SessionHost(
        specs,
        forward=config.forward,
        reverse=config.reverse,
        seed=config.seed,
        max_time=config.max_time,
        max_events=config.max_events,
        monitor_invariants=config.monitor_invariants,
        fault_plan=plan,
        obs=config.obs,
        obs_run_id=(
            config.run_id() if (config.obs or config.causal) else None
        ),
        obs_labels=obs_labels,
        causal=config.causal,
        arbiter=arbiter,
    ).run()
    result = session_to_transfer(session)
    if config.flows == 1 and arbiter is None and config.flow_windows is None:
        # like run_transfer: a one-pair cell carries no per-flow rows or
        # fairness index, so its payload matches existing cache entries
        result.per_flow, result.fairness = [], None
    if result.obs is not None:
        # exported eagerly, in the worker process, under a deterministic
        # name: the file outlives the process and its path rides the
        # serialized payload through cache hits unchanged
        result.obs_path = str(result.obs.export())
    return result


def serialize_result(result: TransferResult) -> dict:
    """Reduce a TransferResult to the JSON-safe payload sweeps consume.

    Traces and payload lists are not carried (sweep configs never request
    them); the invariant monitor is reduced to its violation strings.
    JSON round-trips of this payload are exact, which is what makes the
    cached path byte-identical to a fresh run.
    """
    return {
        "completed": result.completed,
        "duration": result.duration,
        "delivered": result.delivered,
        "submitted": result.submitted,
        "in_order": result.in_order,
        "sender_stats": result.sender_stats,
        "receiver_stats": result.receiver_stats,
        "forward_stats": result.forward_stats,
        "reverse_stats": result.reverse_stats,
        "timeout_period": result.timeout_period,
        "latencies": list(result.latencies),
        "fault_stats": result.fault_stats,
        "monitor_violations": (
            [str(v) for v in result.monitor.violations]
            if result.monitor is not None
            else None
        ),
        "obs_path": result.obs_path,
        "flight_path": result.flight_path,
        "per_flow": result.per_flow or None,
        "fairness": result.fairness,
        "ordered_prefix": result.ordered_prefix,
        "stabilization": result.stabilization,
        "arbiter_stats": result.arbiter_stats or None,
    }


def deserialize_result(payload: dict) -> TransferResult:
    """Rebuild a TransferResult from :func:`serialize_result` output."""
    violations = payload.get("monitor_violations")
    return TransferResult(
        completed=payload["completed"],
        duration=payload["duration"],
        delivered=payload["delivered"],
        submitted=payload["submitted"],
        in_order=payload["in_order"],
        sender_stats=payload["sender_stats"],
        receiver_stats=payload["receiver_stats"],
        forward_stats=payload["forward_stats"],
        reverse_stats=payload["reverse_stats"],
        timeout_period=payload["timeout_period"],
        latencies=list(payload["latencies"]),
        fault_stats=payload["fault_stats"],
        monitor=MonitorSummary(violations) if violations is not None else None,
        obs_path=payload.get("obs_path"),  # .get: pre-obs cache entries
        flight_path=payload.get("flight_path"),  # pre-causal entries too
        per_flow=list(payload.get("per_flow") or []),  # pre-multi-flow too
        fairness=payload.get("fairness"),
        ordered_prefix=payload.get("ordered_prefix", payload["in_order"]),
        stabilization=payload.get("stabilization"),  # pre-corruption: None
        arbiter_stats=dict(payload.get("arbiter_stats") or {}),  # pre-arbiter
    )


def _execute_serialized(config: RunConfig) -> dict:
    """Worker entry point: run one config, return the portable payload."""
    return serialize_result(execute_config(config))


class SweepRunner:
    """Fan a list of :class:`RunConfig` across processes, with memoization.

    Parameters
    ----------
    jobs:
        Worker processes.  ``None`` reads ``REPRO_JOBS``; ``1`` runs the
        configs serially in-process (the fallback path, and the reference
        the parallel path must match byte-for-byte).
    cache:
        ``None`` enables the default on-disk cache only when
        ``REPRO_CACHE`` is set; ``True`` enables it unconditionally;
        ``False`` disables it; a path string/Path uses that directory.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Union[None, bool, str, os.PathLike] = None,
    ) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        if cache is None:
            cache = cache_enabled_by_env()
        if cache is True:
            self.cache: Optional[ResultCache] = ResultCache(default_cache_root())
        elif cache is False:
            self.cache = None
        else:
            self.cache = ResultCache(cache)
        self.executed = 0  # runs actually simulated by the last run()
        self.cached = 0  # runs served from the cache by the last run()

    def run(self, configs: Sequence[RunConfig]) -> List[TransferResult]:
        """Run every config; results come back in config order."""
        payloads = self.run_serialized(configs)
        return [deserialize_result(payload) for payload in payloads]

    def run_serialized(self, configs: Sequence[RunConfig]) -> List[dict]:
        """Like :meth:`run` but returns the raw JSON-safe payloads."""
        self.executed = 0
        self.cached = 0
        payloads: List[Optional[dict]] = [None] * len(configs)
        keys: List[Optional[str]] = [None] * len(configs)
        pending: List[int] = []

        if self.cache is not None:
            for index, config in enumerate(configs):
                key = config.cache_key()
                keys[index] = key
                hit = self.cache.get(key)
                if hit is None:
                    pending.append(index)
                else:
                    payloads[index] = hit
                    self.cached += 1
        else:
            pending = list(range(len(configs)))

        if pending:
            if self.jobs > 1:
                with ProcessPoolExecutor(max_workers=self.jobs) as pool:
                    fresh = list(
                        pool.map(
                            _execute_serialized,
                            [configs[index] for index in pending],
                        )
                    )
            else:
                fresh = [
                    _execute_serialized(configs[index]) for index in pending
                ]
            for index, payload in zip(pending, fresh):
                payloads[index] = payload
                self.executed += 1
                if self.cache is not None:
                    self.cache.put(
                        keys[index], configs[index].description(), payload
                    )

        return payloads  # type: ignore[return-value]


def run_protocol_grid(
    configs: Sequence[RunConfig],
    jobs: Optional[int] = None,
    cache: Union[None, bool, str, os.PathLike] = None,
) -> List[TransferResult]:
    """One-call sweep: build a :class:`SweepRunner` and run the grid."""
    return SweepRunner(jobs=jobs, cache=cache).run(configs)
