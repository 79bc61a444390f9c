"""Tests for the realtime scheduler and UDP transport.

Wall-clock tests are kept short and given generous deadlines so they stay
robust on loaded machines; the protocol logic itself is exhaustively
covered by the (deterministic) simulation tests — these verify the
*adapters*: threading discipline, socket plumbing, codec integration.
"""

import socket
import struct
import threading
import time
import zlib

import pytest

from repro.core.messages import BlockAck, DataMessage
from repro.duplex.runner import duplex_over_udp
from repro.transport.clock import RealtimeScheduler
from repro.transport.session import transfer_over_udp
from repro.transport.udp import UdpTransport
from repro.wire.codec import encode_message


class TestRealtimeScheduler:
    def test_schedules_and_runs(self):
        fired = threading.Event()
        with RealtimeScheduler() as clock:
            clock.schedule(0.01, fired.set)
            assert fired.wait(timeout=2.0)

    def test_ordering_of_due_events(self):
        order = []
        done = threading.Event()
        with RealtimeScheduler() as clock:
            clock.schedule(0.03, lambda: (order.append("b"), done.set()))
            clock.schedule(0.01, order.append, "a")
            assert done.wait(timeout=2.0)
        assert order == ["a", "b"]

    def test_cancel_prevents_firing(self):
        fired = threading.Event()
        with RealtimeScheduler() as clock:
            event = clock.schedule(0.05, fired.set)
            event.cancel()
            time.sleep(0.15)
        assert not fired.is_set()

    def test_callbacks_serialized_on_one_thread(self):
        threads = set()
        done = threading.Event()

        def note(last=False):
            threads.add(threading.current_thread().name)
            if last:
                done.set()

        with RealtimeScheduler() as clock:
            for _ in range(20):
                clock.call_soon(note)
            clock.schedule(0.05, note, True)
            assert done.wait(timeout=2.0)
        assert len(threads) == 1

    def test_callback_exception_surfaces_on_stop(self):
        clock = RealtimeScheduler().start()
        clock.call_soon(lambda: 1 / 0)
        time.sleep(0.1)
        assert clock.failed
        with pytest.raises(ZeroDivisionError):
            clock.stop()

    def test_now_advances(self):
        with RealtimeScheduler() as clock:
            before = clock.now
            time.sleep(0.02)
            assert clock.now > before

    def test_negative_delay_rejected(self):
        with RealtimeScheduler() as clock:
            with pytest.raises(ValueError):
                clock.schedule(-1.0, lambda: None)

    def test_nan_delay_and_time_rejected(self):
        with RealtimeScheduler() as clock:
            with pytest.raises(ValueError):
                clock.schedule(float("nan"), lambda: None)
            with pytest.raises(ValueError):
                clock.schedule_reserved(float("nan"), clock.reserve(), lambda: None)

    def test_reserved_event_runs_in_order(self):
        # the clock surface timer banks use: a number reserved first and
        # pushed last runs before a later number due at the same time
        order = []
        done = threading.Event()
        with RealtimeScheduler() as clock:
            seq = clock.reserve()
            due = clock.now + 0.05
            clock.schedule_reserved(due, clock.reserve(), lambda: (order.append("b"), done.set()))
            clock.schedule_reserved(due, seq, order.append, "a")
            assert done.wait(timeout=2.0)
        assert order == ["a", "b"]


class TestUdpTransport:
    def test_round_trip_messages(self):
        received = []
        done = threading.Event()
        with RealtimeScheduler() as clock:
            a = UdpTransport(clock)
            b = UdpTransport(clock)
            a.set_remote(b.local_address)
            b.set_remote(a.local_address)
            try:
                b.connect(
                    lambda m: (received.append(m), done.set())
                    if len(received) == 1
                    else received.append(m)
                )
                a.connect(lambda m: None)
                a.send(DataMessage(seq=3, payload=b"ping"))
                a.send(BlockAck(lo=1, hi=2))
                deadline = time.time() + 3.0
                while len(received) < 2 and time.time() < deadline:
                    time.sleep(0.01)
            finally:
                a.close()
                b.close()
        assert DataMessage(seq=3, payload=b"ping") in received
        assert BlockAck(1, 2) in received

    def test_drop_injection(self):
        import random

        with RealtimeScheduler() as clock:
            a = UdpTransport(
                clock, drop_probability=1.0, rng=random.Random(0)
            )
            b = UdpTransport(clock)
            a.set_remote(b.local_address)
            try:
                a.connect(lambda m: None)
                for _ in range(10):
                    a.send(DataMessage(seq=0))
                assert a.stats.dropped == 10
            finally:
                a.close()
                b.close()

    def test_send_without_remote_raises(self):
        with RealtimeScheduler() as clock:
            transport = UdpTransport(clock)
            try:
                with pytest.raises(RuntimeError):
                    transport.send(DataMessage(seq=0))
            finally:
                transport.close()

    def test_invalid_drop_probability(self):
        with RealtimeScheduler() as clock:
            with pytest.raises(ValueError):
                UdpTransport(clock, drop_probability=2.0)


class TestUdpTransfers:
    def test_lossless_transfer(self):
        payloads = [f"m{i:03d}".encode() for i in range(50)]
        stats = transfer_over_udp(payloads, window=8, deadline=15.0, seed=1)
        assert stats.completed
        assert stats.delivered == payloads
        assert stats.retransmissions == 0

    def test_lossy_transfer_exactly_once_in_order(self):
        payloads = [f"m{i:03d}".encode() for i in range(40)]
        stats = transfer_over_udp(
            payloads, window=8, loss=0.15, timeout_period=0.1,
            deadline=25.0, seed=2,
        )
        assert stats.completed
        assert stats.delivered == payloads
        assert stats.retransmissions > 0

    def test_window_one_stop_and_wait(self):
        payloads = [b"a", b"b", b"c"]
        stats = transfer_over_udp(payloads, window=1, deadline=10.0)
        assert stats.completed and stats.delivered == payloads

    def test_non_bytes_payload_rejected(self):
        with pytest.raises(TypeError):
            transfer_over_udp(["not-bytes"])


class TestTransportStats:
    def test_corrupt_frames_counted_not_dispatched(self):
        import socket as socket_module

        received = []
        with RealtimeScheduler() as clock:
            b = UdpTransport(clock)
            try:
                b.connect(received.append)
                # raw garbage straight at the socket: fails frame decode
                probe = socket_module.socket(
                    socket_module.AF_INET, socket_module.SOCK_DGRAM
                )
                try:
                    for _ in range(3):
                        probe.sendto(b"\xff not a frame", b.local_address)
                    deadline = time.time() + 3.0
                    while b.stats.corrupt_frames < 3 and time.time() < deadline:
                        time.sleep(0.01)
                finally:
                    probe.close()
                assert b.stats.corrupt_frames == 3
                assert b.stats.received == 0
                assert received == []
            finally:
                b.close()

    def test_session_exposes_transport_stats(self):
        stats = transfer_over_udp([b"a", b"b", b"c"], seed=1)
        assert stats.completed
        assert stats.sender_transport["sent"] >= 3
        assert stats.receiver_transport["received"] >= 3
        assert set(stats.sender_transport) == {
            "sent", "dropped", "received", "corrupt_frames",
        }
        assert stats.corrupt_frames == 0  # loopback does not corrupt


class TestRunWhile:
    def test_returns_true_once_a_callback_flips_the_predicate(self):
        flipped = threading.Event()
        readers = set()

        def keep_going():
            readers.add(threading.current_thread().name)
            return not flipped.is_set()

        with RealtimeScheduler() as clock:
            clock.schedule(0.05, flipped.set)
            assert clock.run_while(keep_going, max_time=clock.now + 10.0)
        assert readers == {"repro-clock"}  # evaluated on the worker only

    def test_returns_false_at_max_time(self):
        with RealtimeScheduler() as clock:
            start = clock.now
            assert not clock.run_while(lambda: True, max_time=start + 0.2)
            assert clock.now - start >= 0.19

    def test_returns_false_soon_when_a_callback_raises(self):
        clock = RealtimeScheduler().start()
        start = clock.now
        clock.schedule(0.05, lambda: 1 / 0)
        assert not clock.run_while(lambda: True, max_time=start + 10.0)
        assert clock.now - start < 5.0  # woken, not timed out
        with pytest.raises(ZeroDivisionError):
            clock.stop()

    def test_returns_false_when_a_callback_raised_before_the_call(self):
        # the worker has already stopped: the caller gets False, and the
        # callback's own exception from stop()
        clock = RealtimeScheduler().start()
        clock.call_soon(lambda: 1 / 0)
        deadline = time.time() + 3.0
        while not clock.failed and time.time() < deadline:
            time.sleep(0.01)
        assert not clock.run_while(lambda: True, max_time=clock.now + 10.0)
        with pytest.raises(ZeroDivisionError):
            clock.stop()

    def test_needs_a_running_scheduler(self):
        with pytest.raises(RuntimeError, match="running scheduler"):
            RealtimeScheduler().run_while(lambda: True, max_time=1.0)


class TestHostileInput:
    def test_nested_frame_does_not_stop_reception(self):
        # 3,000 CRC-valid envelopes around one ack (33 KB): it must count
        # as one corrupt frame, and the next valid frame still arrives
        nested = encode_message(BlockAck(0, 0))
        for _ in range(3000):
            body = struct.pack(">BHHH", 0x03, 0, 0, len(nested)) + nested
            nested = body + struct.pack(">I", zlib.crc32(body))
        received = []
        with RealtimeScheduler() as clock:
            transport = UdpTransport(clock)
            probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                transport.connect(received.append)
                probe.sendto(nested, transport.local_address)
                time.sleep(0.3)
                probe.sendto(encode_message(BlockAck(1, 2)), transport.local_address)
                deadline = time.time() + 3.0
                while not received and time.time() < deadline:
                    time.sleep(0.01)
            finally:
                probe.close()
                transport.close()
        assert transport.stats.corrupt_frames == 1
        assert received == [BlockAck(1, 2)]

    def test_stray_flat_frame_does_not_stop_a_duplex_session(self, monkeypatch):
        # a CRC-valid ack frame decodes, but a duplex peer never sends
        # one: mid-session it must count as corrupt and the session go on
        stray = encode_message(BlockAck(1, 2))
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        senders = []
        send = UdpTransport.send

        def send_then_stray(transport, message):
            send(transport, message)
            if transport not in senders:  # once per socket
                senders.append(transport)
                probe.sendto(stray, transport.remote)

        monkeypatch.setattr(UdpTransport, "send", send_then_stray)
        try:
            result = duplex_over_udp(
                [b"a%d" % i for i in range(20)],
                [b"b%d" % i for i in range(20)],
                deadline=15.0,
                seed=1,
            )
        finally:
            probe.close()
        assert result.correct
        assert result.a_to_b_delivered == result.b_to_a_delivered == 20
        assert len(senders) == 2
        assert sum(t.stats.corrupt_frames for t in senders) == 2

    def test_oracle_mode_rejected_before_sending(self):
        # the oracle guard reads simulated channels, which UDP has not got
        with pytest.raises(ValueError, match="oracle"):
            transfer_over_udp(
                [b"a", b"b"], loss=0.3, timeout_period=0.05, deadline=3.0,
                timeout_mode="oracle",
            )
