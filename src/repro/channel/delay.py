"""Per-message delay models for simulated channels.

A delay model turns a random stream into a one-way transit delay for each
message.  The spread of the delay distribution is what produces *message
reorder*: with a constant delay the channel is FIFO; with jitter, a later
message can overtake an earlier one.  The reorder-sweep experiment (E10)
scales the jitter of a :class:`UniformDelay` to dial reordering from zero
to severe.

Every model reports a finite :attr:`max_delay` where one exists.  Bounded
delay is not a convenience: the correctness of the timer-based
retransmission policy (paper Sections II/IV) requires that *no copy of a
message or its acknowledgment is still in transit* when the timer fires,
which is only implementable when message lifetime in the channel is
bounded.  Unbounded distributions must be combined with channel aging
(``Channel(max_lifetime=...)``) to restore the bound, exactly as the paper
prescribes ("a mechanism for aging messages in transit").
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Optional

__all__ = [
    "DelayModel",
    "ConstantDelay",
    "UniformDelay",
    "ExponentialDelay",
    "reorder_probability",
]


class DelayModel(ABC):
    """Samples a one-way transit delay for each message.

    Delay models sit on the per-message hot path, so the concrete models
    use ``__slots__`` and precompute derived constants (e.g. the
    exponential rate) at construction time.
    """

    __slots__ = ()

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw a delay for one message."""

    @property
    @abstractmethod
    def max_delay(self) -> Optional[float]:
        """Upper bound on any sampled delay, or None if unbounded."""

    @property
    @abstractmethod
    def mean_delay(self) -> float:
        """Expected delay; used to express timeouts in natural units."""


class ConstantDelay(DelayModel):
    """Every message takes exactly ``delay`` time units: a FIFO channel."""

    __slots__ = ("delay",)

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.delay = delay

    def sample(self, rng: random.Random) -> float:
        return self.delay

    @property
    def max_delay(self) -> float:
        return self.delay

    @property
    def mean_delay(self) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"ConstantDelay({self.delay})"


class UniformDelay(DelayModel):
    """Delay uniform on ``[low, high]``: tunable, bounded reordering.

    The ratio ``(high - low) / mean`` controls how aggressively messages
    overtake each other; see :func:`reorder_probability`.
    """

    __slots__ = ("low", "high")

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        # random.uniform's own formula, without its call
        return self.low + (self.high - self.low) * rng.random()

    @property
    def max_delay(self) -> float:
        return self.high

    @property
    def mean_delay(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"UniformDelay({self.low}, {self.high})"


class ExponentialDelay(DelayModel):
    """Delay ``offset + Exp(mean)``: heavy reordering, unbounded tail.

    Because the tail is unbounded, :attr:`max_delay` is None; a channel
    using this model must enforce ``max_lifetime`` aging before a
    timer-based sender may safely be attached to it.
    """

    __slots__ = ("mean", "offset", "_rate")

    def __init__(self, mean: float, offset: float = 0.0) -> None:
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        self.mean = mean
        self.offset = offset
        self._rate = 1.0 / mean  # same division, hoisted off the hot path

    def sample(self, rng: random.Random) -> float:
        return self.offset + rng.expovariate(self._rate)

    @property
    def max_delay(self) -> Optional[float]:
        return None

    @property
    def mean_delay(self) -> float:
        return self.offset + self.mean

    def __repr__(self) -> str:
        return f"ExponentialDelay(mean={self.mean}, offset={self.offset})"


def reorder_probability(low: float, high: float, gap: float) -> float:
    """Probability that message B, sent ``gap`` after message A, arrives first.

    Both delays are independent Uniform(low, high).  This closed form lets
    E10 label its sweep axis with an interpretable reorder intensity rather
    than raw jitter numbers.

    With width ``W = high - low`` and ``g = gap``: B overtakes A iff
    ``dB + g < dA``, i.e. ``dA - dB > g``, where ``dA - dB`` is triangular
    on [-W, W].  For 0 <= g < W the tail probability is ``(W - g)^2 / (2 W^2)``;
    for g >= W it is 0.
    """
    width = high - low
    if width <= 0 or gap >= width:
        return 0.0
    if gap < 0:
        raise ValueError(f"gap must be non-negative, got {gap}")
    return (width - gap) ** 2 / (2.0 * width * width)
