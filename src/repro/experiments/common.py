"""Shared infrastructure for the E1–E12 experiment suite.

Each experiment module exposes an :class:`ExperimentSpec`; running it
produces an :class:`ExperimentResult` holding the rendered table (the
"figure" the paper's claim predicts), the structured data behind it, and
a ``reproduced`` verdict computed from explicit shape checks.

The channel configurations used across experiments are standardized here
so results are comparable:

* :func:`fifo_link` — constant unit delay: a perfect FIFO pipe.
* :func:`jitter_link` — uniform delay around a unit mean; the spread
  controls reordering intensity (see
  :func:`repro.channel.delay.reorder_probability`).
* :func:`lossy_link` — jittered delay plus independent Bernoulli loss.
* :func:`longtail_link` — mostly-fast delay with a heavy exponential tail
  truncated by channel aging at ``LIFETIME_BOUND``.  This is the regime
  that separates the paper's protocol from the timer-constrained
  baseline: the *maximum* message lifetime (which real-time constraints
  must respect) is ~25x the *typical* delay (which throughput is paid
  in).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.channel.delay import ConstantDelay, ExponentialDelay, UniformDelay
from repro.channel.impairments import BernoulliLoss, NoLoss
from repro.perf.sweep import (
    RunConfig,
    SweepRunner,
    causal_enabled_by_env,
    obs_enabled_by_env,
)
from repro.sim.runner import LinkSpec, TransferResult

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "fifo_link",
    "jitter_link",
    "lossy_link",
    "longtail_link",
    "protocol_config",
    "run_grid",
    "SEEDS",
    "SEEDS_QUICK",
    "LIFETIME_BOUND",
]

#: replication seeds for full runs and for quick (test/bench) runs
SEEDS = (11, 23, 37, 41, 59)
SEEDS_QUICK = (11, 23)

#: channel aging bound used by long-tail links (the paper's "mechanism
#: for aging messages in transit"); also determines safe timeout periods.
LIFETIME_BOUND = 25.0


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    exp_id: str
    title: str
    claim: str
    table: str
    data: Dict = field(default_factory=dict)
    findings: List[str] = field(default_factory=list)
    reproduced: bool = True

    def render(self) -> str:
        lines = [
            f"[{self.exp_id}] {self.title}",
            f"paper claim: {self.claim}",
            "",
            self.table,
            "",
        ]
        lines.extend(f"- {finding}" for finding in self.findings)
        lines.append(
            f"verdict: {'REPRODUCED' if self.reproduced else 'NOT REPRODUCED'}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: identity plus the run function."""

    exp_id: str
    title: str
    claim: str
    run: Callable[[bool], ExperimentResult]  # run(quick) -> result


# ----------------------------------------------------------------------
# standard links
# ----------------------------------------------------------------------


def fifo_link() -> LinkSpec:
    """Perfect FIFO pipe with unit delay."""
    return LinkSpec(delay=ConstantDelay(1.0), loss=NoLoss())


def jitter_link(spread: float, loss_p: float = 0.0) -> LinkSpec:
    """Uniform delay on ``[1 - spread/2, 1 + spread/2]`` (mean 1).

    ``spread`` doubles as the reorder-intensity knob: 0 is FIFO, larger
    values let later messages overtake earlier ones more often.
    """
    if spread < 0:
        raise ValueError(f"spread must be non-negative, got {spread}")
    low = max(0.0, 1.0 - spread / 2.0)
    high = 1.0 + spread / 2.0
    loss = BernoulliLoss(loss_p) if loss_p > 0 else NoLoss()
    return LinkSpec(delay=UniformDelay(low, high), loss=loss)


def lossy_link(loss_p: float, spread: float = 1.0) -> LinkSpec:
    """Jittered link with independent Bernoulli loss."""
    return jitter_link(spread, loss_p=loss_p)


def longtail_link(loss_p: float = 0.0) -> LinkSpec:
    """Typical delay ~1, heavy tail truncated by aging at LIFETIME_BOUND."""
    loss = BernoulliLoss(loss_p) if loss_p > 0 else NoLoss()
    return LinkSpec(
        delay=ExponentialDelay(mean=0.3, offset=0.7),
        loss=loss,
        max_lifetime=LIFETIME_BOUND,
    )


# ----------------------------------------------------------------------
# grid runs (the parallel sweep path)
# ----------------------------------------------------------------------


def protocol_config(
    name: str,
    window: int,
    total: int,
    forward: LinkSpec,
    reverse: LinkSpec,
    seed: int,
    max_time: Optional[float] = None,
    monitor_invariants: bool = False,
    fault_plan=None,
    obs: Optional[bool] = None,
    flows: int = 1,
    causal: Optional[bool] = None,
    link_rate: Optional[float] = None,
    link_burst: float = 8.0,
    sched: str = "fifo",
    queue_limit: Optional[int] = 64,
    flow_windows: Optional[Sequence[int]] = None,
    flow_weights: Optional[Sequence[float]] = None,
    **protocol_kwargs,
) -> RunConfig:
    """One grid cell: a greedy transfer of the named protocol pair.

    ``obs=None`` (the default) resolves against the ``REPRO_OBS``
    environment variable (the CLI's ``--obs`` flag), so experiments opt
    into telemetry without changing their code; the resolved value is
    part of the config — and therefore of its cache key — because an
    observed run does strictly more work than an unobserved one.

    ``flows > 1`` runs that many identical flows of the protocol over
    one shared link pair (:mod:`repro.sim.host`); ``total`` is then the
    per-flow payload count and the result carries per-flow rows plus a
    Jain fairness index.

    ``causal=None`` resolves against ``REPRO_CAUSAL`` (the CLI's
    ``--causal`` flag): the causal flight recorder rides every cell of
    the grid, and anomalous cells leave ``results/obs/flight/`` dumps.
    The resolved value joins the cache key like ``obs``.

    ``link_rate`` (finite) puts the send-side link arbiter
    (:mod:`repro.channel.arbiter`) in front of the forward channel:
    ``sched``/``link_burst``/``queue_limit`` configure it, and
    ``flow_windows``/``flow_weights`` describe a heterogeneous session
    (one flow per window entry, built by
    :func:`repro.sim.host.mixed_flows`).  The arbiter block only joins
    the cache key when a rate is set.
    """
    if obs is None:
        obs = obs_enabled_by_env()
    if causal is None:
        causal = causal_enabled_by_env()
    if flow_windows is not None:
        flow_windows = tuple(flow_windows)
        if flows == 1:
            flows = len(flow_windows)
    if flow_weights is not None:
        flow_weights = tuple(flow_weights)
    return RunConfig(
        protocol=name,
        window=window,
        total=total,
        forward=forward,
        reverse=reverse,
        seed=seed,
        max_time=max_time,
        monitor_invariants=monitor_invariants,
        fault_plan=fault_plan,
        protocol_kwargs=protocol_kwargs,
        obs=obs,
        flows=flows,
        causal=causal,
        link_rate=link_rate,
        link_burst=link_burst,
        sched=sched,
        queue_limit=queue_limit,
        flow_windows=flow_windows,
        flow_weights=flow_weights,
    )


def run_grid(configs) -> List[TransferResult]:
    """Run a list of :class:`~repro.perf.sweep.RunConfig` and return results
    in config order.

    Parallelism and memoization come from the environment —
    ``REPRO_JOBS`` (or the CLI's ``--jobs``) picks the process count and
    ``REPRO_CACHE`` opts into the on-disk cache — so experiment code
    stays declarative and byte-identical across serial, parallel, and
    cached executions.
    """
    return SweepRunner().run(configs)
