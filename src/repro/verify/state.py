"""Immutable global states of the paper's abstract protocol system.

Section II defines the protocol as two processes plus two channels, where
each channel is a *set* of messages (so loss and reorder are inherent) and
actions execute atomically and nondeterministically.  The model checker
(:mod:`repro.verify.explorer`) enumerates exactly that system, so states
must be small, hashable values.

A :class:`SystemState` packs:

* the sender's ``na``, ``ns`` and its ``ackd`` record,
* the receiver's ``nr``, ``vr`` and its ``rcvd`` record,
* ``c_sr`` — the multiset of data sequence numbers in transit S->R,
* ``c_rs`` — the multiset of ``(lo, hi)`` ack pairs in transit R->S.

``ackd`` stores only the true entries at/above ``na`` (everything below
``na`` is implicitly acknowledged — paper assertion 7) and ``rcvd`` only
the true entries at/above ``vr`` (everything below ``vr`` is implicitly
received), which keeps the state finite and canonical.  Channels are
stored as sorted tuples: the *set* semantics of the paper mean channel
contents have no order, and a canonical ordering collapses equivalent
states during exploration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

__all__ = ["SystemState", "initial_state", "AckPair"]

AckPair = Tuple[int, int]


@dataclass(frozen=True)
class SystemState:
    """One global state of the abstract protocol system."""

    na: int
    ns: int
    nr: int
    vr: int
    ackd: frozenset  # true entries >= na
    rcvd: frozenset  # true entries >= vr
    c_sr: tuple  # sorted tuple of data sequence numbers in transit
    c_rs: tuple  # sorted tuple of (lo, hi) ack pairs in transit

    # ------------------------------------------------------------------
    # record queries (with the implicit-prefix convention)
    # ------------------------------------------------------------------

    def is_ackd(self, seq: int) -> bool:
        """Paper ``ackd[seq]``: true below ``na`` or recorded."""
        return seq < self.na or seq in self.ackd

    def is_rcvd(self, seq: int) -> bool:
        """Paper ``rcvd[seq]``: true below ``vr`` or recorded."""
        return seq < self.vr or seq in self.rcvd

    # ------------------------------------------------------------------
    # the paper's channel occupancy counts
    # ------------------------------------------------------------------

    def count_sr(self, seq: int) -> int:
        """``*SR^m``: copies of data message ``seq`` in transit S->R."""
        return sum(1 for m in self.c_sr if m == seq)

    def count_rs(self, seq: int) -> int:
        """``*RS^m``: acks ``(x, y)`` in transit with ``x <= seq <= y``."""
        return sum(1 for lo, hi in self.c_rs if lo <= seq <= hi)

    # ------------------------------------------------------------------
    # functional updates (return new states)
    # ------------------------------------------------------------------

    def with_sr_added(self, seq: int) -> "SystemState":
        return replace(self, c_sr=tuple(sorted(self.c_sr + (seq,))))

    def with_sr_removed(self, seq: int) -> "SystemState":
        items = list(self.c_sr)
        items.remove(seq)
        return replace(self, c_sr=tuple(items))

    def with_rs_added(self, pair: AckPair) -> "SystemState":
        return replace(self, c_rs=tuple(sorted(self.c_rs + (pair,))))

    def with_rs_removed(self, pair: AckPair) -> "SystemState":
        items = list(self.c_rs)
        items.remove(pair)
        return replace(self, c_rs=tuple(items))

    def replace(self, **changes) -> "SystemState":
        """Functional update; canonicalises the records' implicit prefixes."""
        state = replace(self, **changes)
        return state.canonical()

    def canonical(self) -> "SystemState":
        """Drop record entries subsumed by the implicit prefix."""
        ackd = frozenset(s for s in self.ackd if s >= self.na)
        rcvd = frozenset(s for s in self.rcvd if s >= self.vr)
        if ackd != self.ackd or rcvd != self.rcvd:
            return replace(self, ackd=ackd, rcvd=rcvd)
        return self

    def shifted(self, k: int) -> "SystemState":
        """Every counter, record entry and in-transit number moved by ``k``.

        The model is shift-invariant, so ``shifted(-na)`` maps every
        reachable state into one finite set (:mod:`repro.verify.explorer`).
        """
        return SystemState(
            na=self.na + k,
            ns=self.ns + k,
            nr=self.nr + k,
            vr=self.vr + k,
            ackd=frozenset(m + k for m in self.ackd),
            rcvd=frozenset(m + k for m in self.rcvd),
            c_sr=tuple(m + k for m in self.c_sr),
            c_rs=tuple((lo + k, hi + k) for lo, hi in self.c_rs),
        )

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Compact human-readable rendering, used in witness traces."""
        acks = ",".join(f"({lo},{hi})" for lo, hi in self.c_rs) or "-"
        data = ",".join(str(m) for m in self.c_sr) or "-"
        return (
            f"S[na={self.na} ns={self.ns} ackd={sorted(self.ackd)}] "
            f"R[nr={self.nr} vr={self.vr} rcvd={sorted(self.rcvd)}] "
            f"C_SR[{data}] C_RS[{acks}]"
        )


def initial_state() -> SystemState:
    """The paper's initial state: all counters zero, channels empty."""
    return SystemState(
        na=0,
        ns=0,
        nr=0,
        vr=0,
        ackd=frozenset(),
        rcvd=frozenset(),
        c_sr=(),
        c_rs=(),
    )
