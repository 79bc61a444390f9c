"""Numbering schemes: what goes on the wire, and how it is decoded.

The Section-II protocol puts true (unbounded) sequence numbers on the
wire; the Section-V protocol puts ``seq mod n`` with ``n = 2w`` and each
side reconstructs the true number from a local reference using the
function ``f`` (:func:`repro.core.seqnum.reconstruct`):

* the **sender** decodes an ack pair ``(i, j)`` with reference ``na``
  (paper assertions 9/10 guarantee ``na <= i, j < na + w``);
* the **receiver** decodes a data number ``v`` with reference
  ``max(0, nr - w)`` (assertion 11 guarantees
  ``max(0, nr - w) <= v < nr + w``).

Making the scheme a strategy object lets one protocol implementation run
in both modes, which is exactly what the bounded-equivalence experiment
(E7) exercises: same endpoint code, identical behaviour, different bits on
the wire.  An intentionally undersized domain (``n < 2w``) can also be
constructed to demonstrate *why* ``2w`` is the minimum (E8 ablation).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.seqnum import SequenceDomain, reconstruct

__all__ = ["Numbering", "UnboundedNumbering", "ModularNumbering"]


class Numbering(ABC):
    """Encodes true sequence numbers for the wire and decodes them back."""

    @abstractmethod
    def encode(self, seq: int) -> int:
        """True sequence number -> wire representation."""

    @abstractmethod
    def decode_at_sender(self, wire: int, na: int) -> int:
        """Wire ack number -> true number, using the sender's ``na``."""

    @abstractmethod
    def decode_at_receiver(self, wire: int, nr: int, w: int) -> int:
        """Wire data number -> true number, using the receiver's ``nr``."""

    @property
    @abstractmethod
    def domain_size(self) -> int | None:
        """Size of the wire domain, or None if unbounded."""


class UnboundedNumbering(Numbering):
    """Section II: the true sequence number itself travels on the wire."""

    def encode(self, seq: int) -> int:
        return seq

    def decode_at_sender(self, wire: int, na: int) -> int:
        return wire

    def decode_at_receiver(self, wire: int, nr: int, w: int) -> int:
        return wire

    @property
    def domain_size(self) -> None:
        return None

    def __repr__(self) -> str:
        return "UnboundedNumbering()"


class ModularNumbering(Numbering):
    """Section V: ``seq mod n`` travels on the wire, ``n = 2w`` by default.

    Parameters
    ----------
    window:
        The protocol window size ``w`` (the *maximum* window when the
        sender resizes at runtime).
    domain_size:
        Wire domain ``n``.  Defaults to the safe minimum ``2*K*w`` where
        ``K`` is the lookahead.  Smaller values are accepted (with
        ``strict=False``) solely so the test suite and E8 can demonstrate
        the resulting ambiguity.
    lookahead:
        Position-reuse factor ``K`` (Section VI extension).  Live
        sequence numbers then span up to ``K*w`` on each side of the
        receiver's ``nr``, so the safe minimum domain grows to ``2*K*w``.
    strict:
        When True (default), reject domains below the safe minimum.
    """

    def __init__(
        self,
        window: int,
        domain_size: int | None = None,
        strict: bool = True,
        lookahead: int = 1,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        self.window = window
        self.lookahead = lookahead
        self.span = window * lookahead  # width of the live range each side
        minimum = 2 * self.span
        n = domain_size if domain_size is not None else minimum
        if strict and n < minimum:
            raise ValueError(
                f"domain {n} is unsafe for window {window} x lookahead "
                f"{lookahead}: need n >= 2*K*w = {minimum} "
                "(pass strict=False to build a deliberately broken scheme)"
            )
        self.domain = SequenceDomain(n)

    # the codec runs on every frame: each method makes at most the one
    # call to the paper's ``f``, which keeps its range checks
    def encode(self, seq: int) -> int:
        return seq % self.domain.n

    def decode_at_sender(self, wire: int, na: int) -> int:
        return reconstruct(na, wire, self.domain.n)

    def decode_at_receiver(self, wire: int, nr: int, w: int) -> int:
        reference = nr - self.span
        return reconstruct(reference if reference > 0 else 0, wire, self.domain.n)

    @property
    def domain_size(self) -> int:
        return self.domain.n

    def __repr__(self) -> str:
        return f"ModularNumbering(w={self.window}, n={self.domain.n})"
