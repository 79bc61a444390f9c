"""Per-run observability session: one object that wires everything.

:class:`Observability` owns a scoped :class:`~repro.obs.metrics.MetricsRegistry`
and one :class:`~repro.obs.spans.SpanTracker` per flow, and knows how to
attach itself to every instrumentable layer:

* the **simulator** — :class:`SimInstruments` counts events scheduled /
  cancelled / fired and tracks the event-queue depth gauge (the engine
  calls these hooks only when instruments are installed; the null path
  stays branch-identical to the uninstrumented engine);
* the **channels** — at finalize time each link's final
  :class:`~repro.channel.channel.ChannelStats` land as gauges (including
  the framed-link corruption counters), and the same read fills
  ``channel_events_total{link,outcome}`` with its send / deliver / lose
  / age / duplicate counts, so no observer rides the link;
* the **endpoints** — :meth:`Observability.tap_flow` gives each flow a
  span tracker and an :class:`~repro.obs.spans.ObsRecorder`, the
  write-only tee that feeds the tracker from the trace records all
  retransmitting protocols already emit;
* the **robustness controller** — :class:`ControllerInstruments` folds
  every RTT sample and the resulting RTO into histograms and tracks the
  backoff ladder position.

With ``monitor_invariants`` on as well, the host hands each flow's
:class:`~repro.verify.runtime.InvariantMonitor` this session's registry
and recorder, so every violation of assertions 6 ∧ 7 ∧ 8 is counted and
traced.

:class:`~repro.sim.host.SessionHost` (behind ``run_transfer(...,
obs=True)`` and ``run_flows``) builds one of these per run; parallel
sweep workers therefore never share registry state.  At the end,
:meth:`export` streams meta + events + spans + snapshot to a
``results/obs/<run_id>.jsonl`` file via :class:`~repro.obs.sink.JsonlSink`.
"""

from __future__ import annotations

import os
import pathlib
from typing import Any, Dict, List, Optional, Tuple

from repro.channel.surface import link_stats
from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry
from repro.obs.sink import SCHEMA_VERSION, JsonlSink
from repro.obs.spans import ObsRecorder, SpanTracker

__all__ = [
    "Observability",
    "SimInstruments",
    "ControllerInstruments",
    "default_obs_dir",
]


#: ``channel_events_total`` outcome -> the link counter that counts it
#: (a raw channel bumps each in step with its observer call; a framed
#: link re-exposes its inner channel's, and a flow port's are kept by
#: its mux)
_OUTCOME_STATS = (
    ("send", "sent"),
    ("deliver", "delivered"),
    ("lose", "lost"),
    ("age", "aged_out"),
    ("duplicate", "duplicated"),
)


def default_obs_dir() -> pathlib.Path:
    """Where exports land: ``$REPRO_OBS_DIR`` or ``results/obs``."""
    return pathlib.Path(os.environ.get("REPRO_OBS_DIR", "") or "results/obs")


class SimInstruments:
    """Engine hooks: event counters and the queue-depth gauge.

    Installed with :meth:`repro.sim.engine.Simulator.set_instruments`;
    the engine invokes these from dedicated instrumented drain loops, so
    a simulator without instruments runs its original loops untouched.
    """

    __slots__ = ("_instruments", "_scheduled", "_fired", "_cancelled", "_depth")

    def __init__(self, registry: MetricsRegistry) -> None:
        # declared now, so the snapshot lists them even when empty; each
        # series is created by its first event (see _bind) and from then
        # on the hooks bump its bound child directly
        self._instruments = {
            "_scheduled": registry.counter(
                "sim_events_scheduled_total",
                "events pushed onto the event list",
            ),
            "_fired": registry.counter(
                "sim_events_fired_total", "event callbacks executed"
            ),
            "_cancelled": registry.counter(
                "sim_events_cancelled_total",
                "cancelled events lazily discarded from the queue",
            ),
            "_depth": registry.gauge(
                "sim_queue_depth", "event-list entries (including cancelled)"
            ),
        }
        self._scheduled = self._fired = self._cancelled = self._depth = None

    def _bind(self, slot: str):
        child = self._instruments[slot].labels()
        setattr(self, slot, child)
        return child

    def on_schedule(self, queue_len: int) -> None:
        (self._scheduled or self._bind("_scheduled")).value += 1.0
        (self._depth or self._bind("_depth")).value = queue_len

    def on_fire(self, queue_len: int) -> None:
        (self._fired or self._bind("_fired")).value += 1.0
        (self._depth or self._bind("_depth")).value = queue_len

    def on_cancel_discard(self) -> None:
        (self._cancelled or self._bind("_cancelled")).value += 1.0


class ControllerInstruments:
    """Adaptive-retransmission telemetry: RTT/RTO histograms, backoff."""

    __slots__ = ("_rtt", "_rto", "_backoff", "_verdicts", "_registry")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._rtt = registry.histogram(
            "rtt_sample", "unambiguous RTT samples (Karn-filtered)"
        )
        self._rto = registry.histogram(
            "rto_value", "retransmission timeout after each RTT sample"
        )
        self._backoff = registry.histogram(
            "backoff_position",
            "consecutive-expiry ladder position at each timeout",
            buckets=COUNT_BUCKETS,
        )
        self._verdicts = registry.counter(
            "retry_verdicts_total", "budget verdicts issued", labelnames=("verdict",)
        )

    def on_rtt_sample(self, rtt: float, rto: float) -> None:
        self._rtt.observe(rtt)
        self._rto.observe(rto)

    def on_timeout(
        self, attempts: int, verdict: str, key: Any = None, now: Any = None
    ) -> None:
        self._backoff.observe(attempts)
        self._verdicts.labels(verdict=verdict).inc()
        if verdict == "link_dead":
            # pin down *which* expiry killed the link: the triggering
            # timer key (sequence number, or "-" for single-timer modes)
            # and the virtual time ride the counter labels
            self._registry.counter(
                "link_dead_declared_total",
                "LINK_DEAD verdicts by triggering timer key and time",
                labelnames=("seq", "at"),
            ).labels(
                seq="-" if key is None else str(key),
                at="-" if now is None else f"{now:g}",
            ).inc()


class Observability:
    """Everything one observed run needs, bundled and scoped.

    The registry is created here, one per session, so two concurrent
    runs never share series.

    Parameters
    ----------
    run_id:
        Identifier used in the export's meta record and default file
        name; derived by the caller (deterministic — sweep workers use
        the config digest).
    labels:
        Free-form key/value context written to the meta record
        (protocol, seed, experiment cell, ...).
    """

    def __init__(
        self, run_id: str = "run", labels: Optional[Dict[str, str]] = None
    ) -> None:
        self.registry = MetricsRegistry()
        self.run_id = run_id
        self.labels: Dict[str, str] = dict(labels or {})
        self.trackers: List[SpanTracker] = []  # one per flow, in flow order
        # the host's trace recorder: export() writes its events
        self.recorder: Optional[Any] = None
        self.causal = None  # CausalRecorder, when the causal layer is on
        # (link, channel, ((channel_events_total child, stat), ...))
        self._channel_stats: List[tuple] = []

    # ------------------------------------------------------------------
    # wiring (called by SessionHost, or by hand for custom harnesses)
    # ------------------------------------------------------------------

    def tap_flow(
        self, sim, inner, flow: Optional[int] = None
    ) -> Tuple[SpanTracker, ObsRecorder]:
        """One flow's span tracker and the tee its endpoints record through.

        The tracker shares this session's registry, so its instruments
        merge into session aggregates while the flow keeps its own span
        table; ``flow`` tags its exported span records (``None`` on an
        un-muxed one-flow session).
        """
        tracker = SpanTracker(self.registry, flow=flow)
        self.trackers.append(tracker)
        return tracker, ObsRecorder(sim, tracker, inner)

    def attach_sim(self, sim) -> None:
        sim.set_instruments(SimInstruments(self.registry))

    def attach_channel(self, channel, link: str) -> None:
        """Record one link; :meth:`finalize` counts its events by outcome.

        ``channel_events_total{link,outcome}`` is declared here and filled
        when the session is finalized, from the counters every link kind
        already keeps.
        """
        counter = self.registry.counter(
            "channel_events_total",
            "channel events by link and outcome",
            labelnames=("link", "outcome"),
        )
        events = tuple(
            (counter.labels(link=link, outcome=outcome), stat)
            for outcome, stat in _OUTCOME_STATS
        )
        self._channel_stats.append((link, channel, events))

    def attach_controller(self, controller) -> None:
        """Bind RTO/backoff telemetry to a RetransmissionController."""
        controller.bind_instruments(ControllerInstruments(self.registry))

    # ------------------------------------------------------------------
    # finalize + export
    # ------------------------------------------------------------------

    def finalize(self, result: Any = None) -> None:
        """Fold end-of-run state into the registry.

        Channel statistics become gauges labelled by link (including the
        framed-link corruption counters when present), and the same read
        fills ``channel_events_total``; the transfer verdict and duration
        are recorded when a :class:`~repro.sim.runner.TransferResult` is
        passed.
        """
        if self._channel_stats:
            gauge = self.registry.gauge(
                "channel_stat",
                "final channel counters by link",
                labelnames=("link", "stat"),
            )
            for link, channel, events in self._channel_stats:
                stats = link_stats(channel)
                for stat, value in stats.items():
                    gauge.labels(link=link, stat=stat).set(value)
                for child, stat in events:
                    child.value = float(stats[stat])
        if result is not None:
            self.registry.gauge(
                "transfer_duration", "virtual time at completion or cutoff"
            ).set(result.duration)
            self.registry.gauge(
                "transfer_delivered", "payloads delivered in order"
            ).set(result.delivered)
            self.registry.gauge(
                "transfer_completed", "1 when the transfer completed cleanly"
            ).set(1.0 if result.completed else 0.0)
            stabilization = getattr(result, "stabilization", None)
            if stabilization is not None:
                self.registry.gauge(
                    "stabilization_verdict",
                    "corruption-recovery verdict (1 for the verdict reached)",
                    labelnames=("verdict",),
                ).labels(verdict=stabilization["verdict"]).set(1.0)
                self.registry.gauge(
                    "stabilization_corruptions",
                    "state corruptions injected by the fault plan",
                ).set(stabilization["corruptions"])
                self.registry.gauge(
                    "stabilization_repairs",
                    "guard/repair rules fired after corruption",
                ).set(stabilization["repairs"])
                reconvergence = stabilization["reconvergence_time"]
                if reconvergence is not None:
                    self.registry.gauge(
                        "stabilization_reconvergence_time",
                        "virtual time from first corruption to last disturbance",
                    ).set(reconvergence)

    def meta_record(self) -> dict:
        return {
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "run_id": self.run_id,
            "labels": self.labels,
        }

    def export(self, path=None) -> pathlib.Path:
        """Write this run's telemetry as JSONL; returns the path written.

        ``path=None`` uses ``<default_obs_dir()>/<run_id>.jsonl``.
        Events are taken from the host's trace recorder (none when the run
        traced nothing); spans and the metric snapshot always export.
        """
        if path is None:
            path = default_obs_dir() / f"{self.run_id}.jsonl"
        events = self.recorder.events if self.recorder is not None else []
        with JsonlSink(path) as sink:
            sink.write(self.meta_record())
            for event in events:
                sink.write(event.as_record())
            for tracker in self.trackers:
                sink.write_all(tracker.as_records())
            if self.causal is not None:
                sink.write_all(self.causal.as_records())
            sink.write({"type": "snapshot", "metrics": self.registry.snapshot()})
        return pathlib.Path(path)
