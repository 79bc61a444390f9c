"""Scripted fault injection for simulated transfers.

A :class:`FaultPlan` bundles every fault a robustness experiment throws
at one transfer, applied on top of whatever impairments the links
already carry:

* **frame corruption** — per-direction
  :class:`~repro.channel.impairments.FrameCorruption` models; corrupted
  frames are discarded on arrival (the checksum-fail path), counted in
  :class:`FaultStats`, and never reach the endpoint;
* **brownouts** — per-direction
  :class:`~repro.channel.impairments.BrownoutLoss` ramps, composed over
  the channel's existing loss model at install time;
* **endpoint crash/restart** — scheduled :class:`CrashRestart` events.
  A crashed endpoint loses its volatile state (timers, RTT estimates,
  parked-retransmission bookkeeping, the receiver's reorder buffer) and
  resumes from its durable snapshot (window counters, payload store);
  messages delivered during the outage are dropped, as they would be at
  a dead host.
* **state corruption** — scheduled
  :class:`~repro.robustness.corruption.StateCorruption` events that
  adversarially mutate live endpoint state (the self-stabilization
  fault model; see that module).  Once any corruption has fired, the
  plan turns into a convergence harness: each endpoint's
  ``stabilize()`` guard/repair hooks run before every subsequent
  delivery into it (Dolev-style guarded actions), and a periodic
  watchdog sweeps both endpoints so a transfer silenced by corruption
  (no messages flowing at all) still recovers.  The watchdog ticks on
  the sender's *configured* timeout period — never an adaptive one,
  which may itself be corrupt — and retires after two consecutive
  clean sweeps with no repairs.

The plan owns a dedicated seeded rng for corruption draws, so injecting
faults never perturbs the channels' own random streams — the underlying
loss/delay trace stays identical with and without corruption.  State
corruption draws come from yet another stream, so adding a
``StateCorruption`` to a plan leaves its frame-corruption draws (and
therefore the whole wire schedule up to the corruption instant)
untouched.

``run_transfer(..., fault_plan=plan)`` hands the plan to
:class:`~repro.sim.host.SessionHost`, which installs it after wiring a
one-flow session and uninstalls it when the run ends (a muxed session
rejects it); experiments read the injection counters back from
``plan.stats``.  A
plan instance wires into exactly one transfer: :meth:`FaultPlan.install`
raises on re-install (re-wrapping the loss models would double-wrap
them and desynchronize their rng streams) and :meth:`FaultPlan.uninstall`
restores the channels' original impairments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.channel.impairments import BrownoutLoss, FrameCorruption
from repro.robustness.corruption import StateCorruption, apply_corruption

__all__ = ["CrashRestart", "FaultPlan", "FaultStats"]


@dataclass(frozen=True)
class CrashRestart:
    """One scheduled endpoint crash.

    The endpoint goes down at ``at``, stays down for ``outage``, then
    restarts from its durable snapshot.  ``endpoint`` is ``"sender"`` or
    ``"receiver"``; the endpoint object must implement ``crash()`` and
    ``restore()`` (the block-ack endpoints of Sections II and IV do), or
    :meth:`FaultPlan.install` rejects the plan.
    """

    at: float
    outage: float = 0.0
    endpoint: str = "sender"

    def __post_init__(self) -> None:
        if self.at < 0 or self.outage < 0:
            raise ValueError("crash time and outage must be non-negative")
        if self.endpoint not in ("sender", "receiver"):
            raise ValueError(
                f"endpoint must be 'sender' or 'receiver', got {self.endpoint!r}"
            )


@dataclass
class FaultStats:
    """What the plan actually injected, for reporting."""

    corrupt_forward: int = 0  # frames corrupted on the data channel
    corrupt_reverse: int = 0  # frames corrupted on the ack channel
    crashes: int = 0
    restarts: int = 0
    dropped_while_down: int = 0  # deliveries into a crashed endpoint
    state_corruptions: int = 0  # StateCorruption events applied
    repairs: int = 0  # individual guard/repair rule firings

    def as_dict(self) -> dict:
        return {
            "corrupt_forward": self.corrupt_forward,
            "corrupt_reverse": self.corrupt_reverse,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "dropped_while_down": self.dropped_while_down,
            "state_corruptions": self.state_corruptions,
            "repairs": self.repairs,
        }


class FaultPlan:
    """A scripted set of faults to inject into one transfer."""

    def __init__(
        self,
        forward_corruption: Optional[FrameCorruption] = None,
        reverse_corruption: Optional[FrameCorruption] = None,
        forward_brownout: Optional[Sequence] = None,
        reverse_brownout: Optional[Sequence] = None,
        crashes: Sequence[CrashRestart] = (),
        corruptions: Sequence[StateCorruption] = (),
        seed: int = 0,
    ) -> None:
        self.forward_corruption = forward_corruption
        self.reverse_corruption = reverse_corruption
        self.forward_brownout = forward_brownout
        self.reverse_brownout = reverse_brownout
        self.crashes = tuple(crashes)
        self.corruptions = tuple(sorted(corruptions, key=lambda c: c.at))
        self.seed = seed
        self.stats = FaultStats()
        self.monitor: Optional[Any] = None  # StabilizationMonitor, if any
        # optional ``observer(kind, endpoint, detail)`` called at each
        # fault boundary with kind in "crash"/"restart"/"corrupt"/"repair"
        # (the causal flight recorder hooks in here; it also uses the
        # callback to flush a streaming dump so a run killed mid-outage
        # still leaves complete JSONL lines on disk)
        self.observer: Optional[Callable[[str, str, Any], None]] = None
        self._rng = random.Random(seed)
        # dedicated stream: adding StateCorruptions must not shift the
        # frame-corruption draws above (Weyl offset keeps it distinct)
        self._corrupt_rng = random.Random((seed + 1) * 0x9E3779B97F4A7C15)
        self._down = {"sender": False, "receiver": False}
        self._installed = False
        self._saved_loss: Optional[tuple] = None
        self._channels: Optional[tuple] = None
        self._endpoints: dict = {}
        self._sim = None
        self._corrupted = False  # any StateCorruption fired yet?
        self._watchdog_period: Optional[float] = None
        self._watchdog_armed = False
        self._clean_sweeps = 0

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self, sim, forward, reverse, sender, receiver) -> None:
        """Wire the plan into an already-connected transfer.

        Must run *after* the channels are connected to the endpoints:
        the corruption/outage interceptors re-connect each channel
        through a wrapper around the endpoint's delivery callback.

        A plan wires into exactly one transfer.  Re-installing would
        wrap the channels' loss models a second time — the nested
        brownouts then consult the channel rng twice per send and every
        subsequent draw in the run diverges — so it raises instead;
        call :meth:`uninstall` first to reuse the channels.

        Every scripted crash target is checked before anything is wired,
        so a plan that crashes an endpoint without ``crash()`` and
        ``restore()`` fails before the transfer starts, not mid-run.
        """
        if self._installed:
            raise RuntimeError(
                "FaultPlan is already installed; call uninstall() first "
                "(re-installing would double-wrap the loss models and "
                "desynchronize their rng streams)"
            )
        endpoints = {"sender": sender, "receiver": receiver}
        for crash in self.crashes:
            endpoint = endpoints[crash.endpoint]
            if not (hasattr(endpoint, "crash") and hasattr(endpoint, "restore")):
                raise ValueError(
                    f"CrashRestart at t={crash.at:g} targets the "
                    f"{crash.endpoint} {type(endpoint).__name__}, which has "
                    "no crash()/restore()"
                )
        self._installed = True
        self._sim = sim
        self._channels = (forward, reverse)
        self._saved_loss = (forward.loss, reverse.loss)
        self._endpoints = endpoints
        if self.forward_brownout is not None:
            forward.loss = BrownoutLoss(self.forward_brownout, base=forward.loss)
        if self.reverse_brownout is not None:
            reverse.loss = BrownoutLoss(self.reverse_brownout, base=reverse.loss)
        forward.connect(
            self._intercept(receiver.on_message, "receiver", "forward")
        )
        reverse.connect(self._intercept(sender.on_message, "sender", "reverse"))
        for crash in self.crashes:
            endpoint = endpoints[crash.endpoint]
            sim.schedule_at(crash.at, self._crash, crash.endpoint, endpoint)
            sim.schedule_at(
                crash.at + crash.outage, self._restart, crash.endpoint, endpoint
            )
        if self.corruptions:
            # the watchdog sweeps on the configured (provably safe)
            # period, never an adaptive one — the estimate may be the
            # very state that was corrupted
            self._watchdog_period = getattr(
                sender, "timeout_period", None
            ) or 1.0
            for spec in self.corruptions:
                sim.schedule_at(spec.at, self._corrupt, spec)

    def uninstall(self) -> None:
        """Restore the channels' original impairment state.

        Leaves any interceptors connected (they are harmless pass-
        throughs once the plan is inert) but puts back the pre-install
        loss models, so a subsequent ``Channel.reset`` replays the
        original rng stream deterministically — e.g. a crash/restart
        cycle scheduled during an in-flight brownout must not leave the
        wrapped model installed for the next run over the same channel.
        """
        if not self._installed:
            return
        forward, reverse = self._channels
        forward.loss, reverse.loss = self._saved_loss
        self._installed = False

    def _intercept(
        self, deliver: Callable[[Any], None], endpoint_name: str, direction: str
    ) -> Callable[[Any], None]:
        corruption = (
            self.forward_corruption
            if direction == "forward"
            else self.reverse_corruption
        )

        def intercepted(message: Any) -> None:
            if corruption is not None and corruption.corrupts(self._rng):
                if direction == "forward":
                    self.stats.corrupt_forward += 1
                else:
                    self.stats.corrupt_reverse += 1
                return  # checksum failure: the frame never decodes
            if self._down[endpoint_name]:
                self.stats.dropped_while_down += 1
                return  # nobody home
            if self._corrupted:
                # guarded actions: repair local state before acting on it
                self._stabilize(endpoint_name)
            deliver(message)

        return intercepted

    # ------------------------------------------------------------------
    # crash/restart events
    # ------------------------------------------------------------------

    def _crash(self, name: str, endpoint: Any) -> None:
        self._down[name] = True
        self.stats.crashes += 1
        endpoint.crash()
        if self.observer is not None:
            self.observer("crash", name, None)

    def _restart(self, name: str, endpoint: Any) -> None:
        self._down[name] = False
        self.stats.restarts += 1
        endpoint.restore()
        if self.observer is not None:
            self.observer("restart", name, None)

    # ------------------------------------------------------------------
    # state corruption and the convergence watchdog
    # ------------------------------------------------------------------

    def _corrupt(self, spec: StateCorruption) -> None:
        target = self._endpoints[spec.endpoint]
        mutations = apply_corruption(target, spec, self._corrupt_rng)
        self.stats.state_corruptions += 1
        self._corrupted = True
        self._clean_sweeps = 0
        if self.monitor is not None:
            self.monitor.note_corruption(self._sim.now, spec, mutations)
        if self.observer is not None:
            self.observer(
                "corrupt", spec.endpoint, f"site={spec.site} n={len(mutations)}"
            )
        if not self._watchdog_armed:
            self._watchdog_armed = True
            self._sim.schedule_at(
                self._sim.now + self._watchdog_period, self._watchdog_tick
            )

    def _stabilize(self, endpoint_name: str) -> list:
        endpoint = self._endpoints[endpoint_name]
        stabilize = getattr(endpoint, "stabilize", None)
        if stabilize is None:
            return []
        repairs = stabilize()
        if repairs:
            self.stats.repairs += len(repairs)
            if self.monitor is not None:
                self.monitor.note_repairs(
                    self._sim.now, endpoint_name, repairs
                )
            if self.observer is not None:
                self.observer("repair", endpoint_name, "; ".join(repairs))
        return repairs

    def _watchdog_tick(self) -> None:
        """Periodic full sweep: repair both endpoints even when no
        messages flow (a corruption that silences the transfer leaves
        deliveries — and therefore the guarded actions — never firing).
        Retires after two consecutive sweeps with nothing to repair."""
        repaired = False
        for name in ("sender", "receiver"):
            if not self._down[name] and self._stabilize(name):
                repaired = True
        self._clean_sweeps = 0 if repaired else self._clean_sweeps + 1
        if self._clean_sweeps >= 2:
            self._watchdog_armed = False
            return
        self._sim.schedule_at(
            self._sim.now + self._watchdog_period, self._watchdog_tick
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(corrupt_fwd={self.forward_corruption!r}, "
            f"corrupt_rev={self.reverse_corruption!r}, "
            f"crashes={len(self.crashes)})"
        )
