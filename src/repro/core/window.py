"""Window bookkeeping for the block-acknowledgment protocol.

These two classes are the *unbounded-counter* bookkeeping of the paper's
Section II processes, factored out so that protocol endpoints, the formal
model, and tests all share one implementation of the fiddly parts:

* :class:`SenderWindow` owns ``na`` (next to be acknowledged), ``ns``
  (next to send), the window size ``w``, and the ``ackd`` record for the
  in-window range.
* :class:`ReceiverWindow` owns ``nr`` (next to accept), ``vr`` (upper
  bound of the received-but-unacknowledged run), and the ``rcvd`` record.

The paper reasons with infinite boolean arrays ``ackd[0..]`` / ``rcvd[0..]``
but notes an implementation needs only ``w`` cells.  Here we store the
true (unbounded) integers but only for the live window — sets hold just
the in-window members, so memory is O(w), matching the paper's remark
while keeping the reasoning simple.  The byte-exact bounded-storage
variant of Section V lives in :mod:`repro.core.bounded` and is
equivalence-tested against this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

__all__ = ["SenderWindow", "ReceiverWindow", "AckOutcome", "AcceptOutcome"]


class AckOutcome:
    """Result of applying one block acknowledgment at the sender.

    ``newly_acked`` is a fresh list per acknowledgment, which the caller
    may keep; ``advanced`` is how far ``na`` moved; ``stale`` means every
    covered number was already acknowledged.
    """

    __slots__ = ("newly_acked", "advanced", "stale")

    def __init__(self, newly_acked: list[int], advanced: int) -> None:
        self.newly_acked = newly_acked
        self.advanced = advanced
        self.stale = not newly_acked and not advanced

    def __repr__(self) -> str:
        return (
            f"AckOutcome(newly_acked={self.newly_acked}, "
            f"advanced={self.advanced}, stale={self.stale})"
        )


@dataclass(frozen=True)
class AcceptOutcome:
    """Result of handling one data message at the receiver.

    :meth:`ReceiverWindow.accept` returns one of three shared constants,
    so an outcome is frozen.
    """

    duplicate: bool = False  # message was below nr (already accepted)
    recorded: bool = False  # message newly recorded in rcvd
    redundant: bool = False  # in-window but already recorded (protocol
    # invariant says this cannot happen with safe timeouts; counted so
    # the E12 ablation can observe invariant decay)


_DUPLICATE = AcceptOutcome(duplicate=True)
_RECORDED = AcceptOutcome(recorded=True)
_REDUNDANT = AcceptOutcome(redundant=True)


class SenderWindow:
    """Sender-side window state: ``na``, ``ns``, ``ackd``.

    Invariant (paper assertion 6 restricted to the sender):
    ``na <= ns <= na + K*w``, and ``ackd`` contains only numbers in
    ``[na, ns)`` (numbers below ``na`` are implicitly acknowledged,
    numbers at/above ``ns`` have never been sent).

    Two Section-VI extensions are supported:

    * **variable window** — :meth:`resize` changes ``w`` at runtime
      (within ``max_window``, which fixes the wire-number domain);
    * **position reuse** (``lookahead = K > 1``) — the paper's closing
      remark: because block acknowledgments identify *exactly* which
      positions were received, the sender may reuse acknowledged
      positions for new messages before older ones are acknowledged.
      The send guard becomes "fewer than ``w`` messages unacknowledged
      AND ``ns < na + K*w``"; with ``K = 1`` this degenerates to the
      paper's action-0 guard (``ns - na < w`` implies both).  The price
      is a ``2*K*w`` wire domain (live numbers span up to ``K*w`` on each
      side of ``nr``) — the complexity/number-budget trade-off the paper
      predicts.
    """

    def __init__(
        self,
        window: int,
        lookahead: int = 1,
        max_window: Optional[int] = None,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        if max_window is not None and max_window < window:
            raise ValueError(
                f"max_window {max_window} smaller than window {window}"
            )
        self.w = window
        self.lookahead = lookahead
        self.max_window = max_window if max_window is not None else window
        self.na = 0
        self.ns = 0
        self._ackd: set[int] = set()

    # -- sending --------------------------------------------------------

    @property
    def unacked_count(self) -> int:
        """Messages sent but not acknowledged (window occupancy)."""
        return (self.ns - self.na) - len(self._ackd)

    @property
    def can_send(self) -> bool:
        """Send guard.

        ``K = 1``: the paper's action 0 guard ``ns < na + w``.
        ``K > 1``: position reuse — occupancy below ``w`` and sequence
        lookahead below ``K*w``.
        """
        if self.lookahead == 1:
            return self.ns < self.na + self.w
        return (
            self.unacked_count < self.w
            and self.ns < self.na + self.lookahead * self.w
        )

    def resize(self, new_window: int) -> None:
        """Change the window size at runtime (Section VI remark).

        The new size must stay within ``max_window`` — the wire-number
        domain is sized from ``max_window`` at construction and cannot
        grow.  Shrinking below the current occupancy is allowed; sending
        simply stays blocked until acknowledgments drain the excess.
        """
        if not 0 < new_window <= self.max_window:
            raise ValueError(
                f"window must be in 1..{self.max_window}, got {new_window}"
            )
        self.w = new_window

    @property
    def in_flight_window(self) -> int:
        """Number of sequence numbers currently outstanding: ``ns - na``."""
        return self.ns - self.na

    def take_next(self) -> int:
        """Allocate the next sequence number (paper action 0 body)."""
        if not self.can_send:
            raise RuntimeError(
                f"window full: na={self.na} ns={self.ns} w={self.w}"
            )
        seq = self.ns
        self.ns += 1
        return seq

    # -- acknowledgments -------------------------------------------------

    def apply_ack(self, lo: int, hi: int) -> AckOutcome:
        """Apply block ack ``(lo, hi)`` (paper action 1).

        Records every number in ``lo..hi`` as acknowledged, then slides
        ``na`` over the acknowledged prefix.
        """
        if lo > hi:
            raise ValueError(f"malformed block ack ({lo}, {hi})")
        if hi >= self.ns:
            raise ValueError(
                f"ack ({lo}, {hi}) covers never-sent numbers (ns={self.ns})"
            )
        ackd = self._ackd
        na_before = na = self.na
        newly_acked: list[int] = []
        for seq in range(max(lo, na), hi + 1):
            if seq not in ackd:
                ackd.add(seq)
                newly_acked.append(seq)
        while na in ackd:
            ackd.discard(na)
            na += 1
        self.na = na
        return AckOutcome(newly_acked, na - na_before)

    def is_acked(self, seq: int) -> bool:
        """True if ``seq`` has been acknowledged (below ``na`` or recorded)."""
        return seq < self.na or seq in self._ackd

    def outstanding(self) -> list[int]:
        """Unacknowledged sequence numbers, ascending (subset of [na, ns))."""
        return [
            seq for seq in range(self.na, self.ns) if seq not in self._ackd
        ]

    @property
    def oldest_outstanding(self) -> Optional[int]:
        """``na`` when anything is outstanding (``na`` is never acked)."""
        return self.na if self.na != self.ns else None

    @property
    def all_acknowledged(self) -> bool:
        """True if every sent message has been acknowledged."""
        return self.na == self.ns

    def check_invariant(self) -> None:
        """Assert the sender share of paper assertions 6 and 7.

        With position reuse the window bound generalizes to
        ``ns <= na + K*w`` plus the occupancy bound ``unacked <= w``
        (occupancy may transiently exceed a *shrunk* ``w`` after
        :meth:`resize`, bounded by ``max_window``).
        """
        assert self.na <= self.ns, (self.na, self.ns)
        assert self.ns <= self.na + self.lookahead * self.max_window
        assert self.unacked_count <= self.max_window
        assert all(self.na < s < self.ns for s in self._ackd) or not self._ackd
        assert self.na not in self._ackd  # paper: ¬ackd[na]

    def repair(self, witness: Optional[Iterable[int]] = None) -> list[str]:
        """Restore local consistency after arbitrary state corruption.

        ``witness`` is the set of sequence numbers whose payloads the
        sender still holds.  The payload store is the repair's ledger of
        authority, in *both* directions: a payload is stored at send and
        popped exactly at acknowledgment, so a held payload proves its
        number sent-but-unacknowledged (bounding ``na`` below and ``ns``
        above), and an *absent* payload for a number in ``[na, ns)``
        proves it was acknowledged.  Cursor and ``ackd`` record are
        rewritten to the unique state consistent with that ledger.
        Demotions are safe because a spurious retransmission is absorbed
        by the receiver's duplicate handling; promotions are safe
        because the pop-on-ack discipline means the ledger cannot
        under-report an unacknowledged number (and without them a
        rewound ``na`` leaves "unacknowledged" numbers nothing can
        retransmit — a deadlock, not a recovery).  Passing ``None``
        (unknown witness) repairs only the locally detectable
        inconsistencies — the conservative, demote-only subset.
        Returns a description of each repair applied (empty if the state
        was already consistent).
        """
        repairs: list[str] = []
        if witness is None:
            if self.na > self.ns:
                repairs.append(f"na {self.na} -> {self.ns} (cursor inversion)")
                self.na = self.ns
            bogus = {s for s in self._ackd if not (self.na < s < self.ns)}
            if bogus:
                repairs.append(f"ackd -= {sorted(bogus)} (outside (na, ns))")
                self._ackd -= bogus
            return repairs
        held = set(witness)
        if held and self.ns < max(held) + 1:
            repairs.append(
                f"ns {self.ns} -> {max(held) + 1} (held payload witness)"
            )
            self.ns = max(held) + 1
        target = min(held) if held else self.ns
        if self.na != target:
            reason = (
                "held payload witness" if self.na > target
                else "payloads below released at acknowledgment"
            )
            repairs.append(f"na {self.na} -> {target} ({reason})")
            self.na = target
        canonical = {s for s in range(self.na, self.ns) if s not in held}
        demoted = sorted(self._ackd - canonical)
        promoted = sorted(canonical - self._ackd)
        if demoted:
            repairs.append(
                f"ackd -= {demoted} (payload still held or outside (na, ns))"
            )
        if promoted:
            repairs.append(
                f"ackd += {promoted} (payload released at acknowledgment)"
            )
        if demoted or promoted:
            self._ackd = canonical
        return repairs

    def __repr__(self) -> str:
        return (
            f"SenderWindow(na={self.na}, ns={self.ns}, w={self.w}, "
            f"ackd={sorted(self._ackd)})"
        )


class ReceiverWindow:
    """Receiver-side window state: ``nr``, ``vr``, ``rcvd``, payload buffer.

    Invariant (paper assertion 6 restricted to the receiver):
    ``nr <= vr`` and every number in ``[nr, vr)`` has been received.
    Payloads of received-but-not-yet-accepted messages are buffered and
    released in order as ``nr`` advances.
    """

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.w = window
        self.nr = 0
        self.vr = 0
        self._rcvd: set[int] = set()
        self._payloads: dict[int, Any] = {}

    # -- receiving --------------------------------------------------------

    def accept(self, seq: int, payload: Any = None) -> AcceptOutcome:
        """Handle data message ``seq`` (paper action 3).

        Returns an outcome telling the caller whether to emit a duplicate
        acknowledgment ``(seq, seq)``.
        """
        if seq < self.nr:
            return _DUPLICATE
        rcvd = self._rcvd
        if seq in rcvd or seq < self.vr:
            return _REDUNDANT
        rcvd.add(seq)
        self._payloads[seq] = payload
        return _RECORDED

    def advance(self) -> int:
        """Slide ``vr`` over the received run (paper action 4, iterated).

        Returns how far ``vr`` moved.
        """
        rcvd = self._rcvd
        vr = start = self.vr
        while vr in rcvd:
            rcvd.discard(vr)
            vr += 1
        self.vr = vr
        return vr - start

    @property
    def ack_ready(self) -> bool:
        """Paper action 5 guard: ``nr < vr``."""
        return self.nr < self.vr

    def take_block(self) -> tuple[int, int, list[Any]]:
        """Emit the pending block (paper action 5).

        Returns ``(lo, hi, payloads)`` where ``(lo, hi) = (nr, vr - 1)``
        and ``payloads`` are the newly accepted messages' payloads in
        sequence order.  Advances ``nr`` to ``vr``.
        """
        if not self.ack_ready:
            raise RuntimeError(f"no block pending: nr={self.nr} vr={self.vr}")
        lo, hi = self.nr, self.vr - 1
        payloads = [self._payloads.pop(seq, None) for seq in range(lo, hi + 1)]
        self.nr = self.vr
        return lo, hi, payloads

    def drop_volatile(self) -> int:
        """Crash semantics: forget everything not yet acknowledged.

        ``nr`` is durable — every number below it was covered by an
        emitted block acknowledgment — but the reorder buffer and the
        accepted-but-unacknowledged run ``[nr, vr)`` live in volatile
        memory.  A restarting receiver rolls ``vr`` back to ``nr`` and
        clears the buffers; the sender retransmits the forgotten
        messages because they were never acknowledged.  Returns how many
        received messages were forgotten.
        """
        forgotten = (self.vr - self.nr) + len(self._rcvd)
        self.vr = self.nr
        self._rcvd.clear()
        self._payloads.clear()
        return forgotten

    @property
    def received_unaccepted(self) -> list[int]:
        """Out-of-order numbers received above ``vr`` (buffered)."""
        return sorted(self._rcvd)

    def buffered_count(self) -> int:
        """Number of out-of-order messages currently buffered."""
        return len(self._rcvd)

    def has_received(self, seq: int) -> bool:
        """True if ``seq`` was ever received (accepted or buffered)."""
        return seq < self.vr or seq in self._rcvd

    def check_invariant(self) -> None:
        """Assert the receiver share of paper assertions 6 and 7."""
        assert self.nr <= self.vr, (self.nr, self.vr)
        assert all(s > self.vr for s in self._rcvd) or not self._rcvd

    def repair(self) -> list[str]:
        """Restore local consistency after arbitrary state corruption.

        ``nr`` is durable (every number below it was covered by an
        emitted acknowledgment) so it anchors the repair; the payload
        buffer is the witness for ``vr``: every accepted-but-unclaimed
        number in ``[nr, vr)`` must hold a payload.  ``vr`` is clamped to
        the longest payload-backed run above ``nr``; payload-backed
        numbers stranded above the clamped ``vr`` are re-buffered as
        out-of-order receipts, so nothing genuinely received is redone.
        As at the sender, repairs only demote numbers to *not yet
        accepted* — the sender retransmits anything demoted because it
        was never acknowledged.  Returns a description of each repair.
        """
        repairs: list[str] = []
        if self.vr < self.nr:
            repairs.append(f"vr {self.vr} -> {self.nr} (cursor inversion)")
            self.vr = self.nr
        run = self.nr
        while run < self.vr and run in self._payloads:
            run += 1
        if run < self.vr:
            stranded = [
                s for s in range(run + 1, self.vr) if s in self._payloads
            ]
            repairs.append(
                f"vr {self.vr} -> {run} (no payload for {run}); "
                f"re-buffered {stranded}"
            )
            self.vr = run
            self._rcvd.update(stranded)
        stale = {s for s in self._rcvd if s < self.vr}
        if stale:
            repairs.append(f"rcvd -= {sorted(stale)} (below vr)")
            self._rcvd -= stale
        unbacked = {s for s in self._rcvd if s not in self._payloads}
        if unbacked:
            repairs.append(f"rcvd -= {sorted(unbacked)} (no payload held)")
            self._rcvd -= unbacked
        orphans = {
            s for s in self._payloads
            if s < self.nr or (s >= self.vr and s not in self._rcvd)
        }
        if orphans:
            repairs.append(f"dropped orphan payloads {sorted(orphans)}")
            for s in sorted(orphans):
                del self._payloads[s]
        if self.advance():
            repairs.append(f"vr advanced to {self.vr} over re-buffered run")
        return repairs

    def __repr__(self) -> str:
        return (
            f"ReceiverWindow(nr={self.nr}, vr={self.vr}, w={self.w}, "
            f"buffered={sorted(self._rcvd)})"
        )
