"""Metrics registry: counters, gauges and histograms.

Design
------

* **Instruments are label-aware.**  An instrument declared with
  ``labelnames=("link",)`` stores one time series per label-value tuple;
  ``instrument.labels(link="SR")`` returns a cached *bound child* whose
  ``inc``/``set``/``observe`` is a plain method call with no dict lookup,
  which is what hot paths hold on to.
* **Histograms have fixed bucket boundaries** chosen at declaration time
  (default: :data:`LATENCY_BUCKETS`, tuned for virtual-time RTT/latency
  in channel-delay units).  Fixed buckets make snapshots from different
  runs directly comparable — the property ``blockack obs diff`` relies
  on.
* **Registries are scoped.**  Each observed run owns its
  :class:`MetricsRegistry`, so parallel sweep workers and repeated
  transfers in one process never share series.  A run with telemetry
  off builds no registry at all: the host wires no instruments, so
  there is no null path to pay for.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-safe dicts
with a stable shape; :class:`TextExposition` renders a snapshot in the
Prometheus text format (used by the UDP transport and the CLI).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TextExposition",
    "LATENCY_BUCKETS",
]

#: Fixed bucket upper bounds for RTT/latency histograms, in virtual time
#: units (one unit ~ one mean one-way channel delay).  The top bucket is
#: +inf, added implicitly by :class:`Histogram`.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
)

#: Buckets for small nonnegative counts (retransmits per seq, ack-block
#: sizes, backoff ladder positions).
COUNT_BUCKETS: Tuple[float, ...] = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64)


def _label_values(
    labelnames: Tuple[str, ...],
    labelset: FrozenSet[str],
    labels: Dict[str, str],
) -> Tuple[str, ...]:
    # a keys view compares with a set in C, without building either side
    if labels.keys() != labelset:
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}"
        )
    return tuple([str(labels[name]) for name in labelnames])


class _Instrument:
    """Shared declaration surface of the three instrument kinds."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._labelset = frozenset(self.labelnames)
        self._children: Dict[Tuple[str, ...], object] = {}
        # the unlabelled child, kept after its first use so unlabelled
        # inc/set/observe skip the checks and the dict lookup
        self._default = None

    def labels(self, **labels: str):
        """Bound child for one label-value combination (cached)."""
        key = _label_values(self.labelnames, self._labelset, labels)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _default_child(self):
        """The unlabelled child (only valid when labelnames is empty).

        Creates the series on first use; unlabelled ``inc``/``set``/
        ``observe`` call this only until :attr:`_default` is set.
        """
        if self.labelnames:
            raise ValueError(
                f"{self.name} is declared with labels {self.labelnames}; "
                "use .labels(...)"
            )
        child = self._children.get(())
        if child is None:
            child = self._make_child()
            self._children[()] = child
        self._default = child
        return child

    def samples(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        return self._children.items()


class _BoundCounter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Counter(_Instrument):
    """A monotonically increasing count (events, messages, violations)."""

    kind = "counter"

    def _make_child(self) -> _BoundCounter:
        return _BoundCounter()

    def inc(self, amount: float = 1.0) -> None:
        (self._default or self._default_child()).value += amount

    @property
    def value(self) -> float:
        """Unlabelled value (0 if never incremented)."""
        child = self._children.get(())
        return child.value if child is not None else 0.0

    def value_for(self, **labels: str) -> float:
        child = self._children.get(
            _label_values(self.labelnames, self._labelset, labels)
        )
        return child.value if child is not None else 0.0


class _BoundGauge:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Instrument):
    """A value that goes up and down (queue depth, window size, RTO)."""

    kind = "gauge"

    def _make_child(self) -> _BoundGauge:
        return _BoundGauge()

    def set(self, value: float) -> None:
        (self._default or self._default_child()).value = value

    def inc(self, amount: float = 1.0) -> None:
        (self._default or self._default_child()).value += amount

    def dec(self, amount: float = 1.0) -> None:
        (self._default or self._default_child()).value -= amount

    @property
    def value(self) -> float:
        child = self._children.get(())
        return child.value if child is not None else 0.0

    def value_for(self, **labels: str) -> float:
        child = self._children.get(
            _label_values(self.labelnames, self._labelset, labels)
        )
        return child.value if child is not None else 0.0


class _BoundHistogram:
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds  # finite upper bounds, sorted ascending
        self.counts = [0] * (len(bounds) + 1)  # +1: the +inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts (upper bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = math.ceil(q * self.count)
        seen = 0
        for bound, count in zip(self.bounds, self.counts):
            seen += count
            if seen >= target:
                return bound
        return math.inf


class Histogram(_Instrument):
    """A distribution over fixed bucket boundaries (cumulative on render)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, help, labelnames)
        raw = tuple(buckets) if buckets is not None else LATENCY_BUCKETS
        bounds = tuple(sorted(float(b) for b in raw if math.isfinite(b)))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one finite bucket")
        self.buckets = bounds

    def _make_child(self) -> _BoundHistogram:
        return _BoundHistogram(self.buckets)

    def observe(self, value: float) -> None:
        (self._default or self._default_child()).observe(value)

    @property
    def count(self) -> int:
        child = self._children.get(())
        return child.count if child is not None else 0

    @property
    def sum(self) -> float:
        child = self._children.get(())
        return child.sum if child is not None else 0.0


class MetricsRegistry:
    """A scoped namespace of instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create: declaring the
    same name twice returns the existing instrument (and raises if the
    kind conflicts), so independent subsystems can share series.
    """

    def __init__(self, name: str = "run") -> None:
        self.name = name
        self._instruments: Dict[str, _Instrument] = {}

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------

    def _declare(self, factory, name: str, *args, **kwargs) -> _Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, factory):
                raise ValueError(
                    f"metric {name!r} already declared as {existing.kind}"
                )
            return existing
        instrument = factory(name, *args, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._declare(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._declare(Histogram, name, help, labelnames, buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def __iter__(self):
        return iter(sorted(self._instruments.values(), key=lambda i: i.name))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-safe dump of every series: ``{name: {type, help, samples}}``.

        Sample shape: ``{"labels": {...}, "value": x}`` for counters and
        gauges; ``{"labels": {...}, "buckets": [...], "counts": [...],
        "sum": s, "count": n}`` for histograms (``counts`` is per-bucket,
        with the final entry the +inf overflow bucket).
        """
        out: dict = {}
        for instrument in self:
            samples = []
            for key, child in sorted(instrument.samples()):
                labels = dict(zip(instrument.labelnames, key))
                if instrument.kind == "histogram":
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": list(child.bounds),
                            "counts": list(child.counts),
                            "sum": child.sum,
                            "count": child.count,
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[instrument.name] = {
                "type": instrument.kind,
                "help": instrument.help,
                "samples": samples,
            }
        return out

    def render_text(self) -> str:
        """This registry in the Prometheus text exposition format."""
        return TextExposition().render(self.snapshot())


class TextExposition:
    """Render a metrics snapshot in the Prometheus text format.

    Used by :meth:`MetricsRegistry.render_text` and by ``blockack obs
    summarize --text``.  Works from the JSON snapshot, not the live
    registry, so it can also render snapshots read back from a
    ``.jsonl`` export.
    """

    @staticmethod
    def _format_labels(labels: dict, extra: Optional[dict] = None) -> str:
        merged = dict(labels)
        if extra:
            merged.update(extra)
        if not merged:
            return ""
        body = ",".join(
            f'{key}="{value}"' for key, value in sorted(merged.items())
        )
        return "{" + body + "}"

    @staticmethod
    def _format_value(value: float) -> str:
        if value == math.inf:
            return "+Inf"
        if float(value).is_integer():
            return str(int(value))
        return repr(float(value))

    def render(self, snapshot: dict) -> str:
        lines = []
        for name in sorted(snapshot):
            metric = snapshot[name]
            if metric.get("help"):
                lines.append(f"# HELP {name} {metric['help']}")
            lines.append(f"# TYPE {name} {metric['type']}")
            for sample in metric["samples"]:
                labels = sample.get("labels", {})
                if metric["type"] == "histogram":
                    cumulative = 0
                    bounds = list(sample["buckets"]) + [math.inf]
                    for bound, count in zip(bounds, sample["counts"]):
                        cumulative += count
                        le = self._format_labels(
                            labels, {"le": self._format_value(bound)}
                        )
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    plain = self._format_labels(labels)
                    lines.append(
                        f"{name}_sum{plain} {self._format_value(sample['sum'])}"
                    )
                    lines.append(f"{name}_count{plain} {sample['count']}")
                else:
                    plain = self._format_labels(labels)
                    lines.append(
                        f"{name}{plain} {self._format_value(sample['value'])}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
