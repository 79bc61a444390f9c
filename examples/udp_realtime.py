#!/usr/bin/env python3
"""Not just a simulation: the same endpoints over real UDP sockets.

Every other example runs on the virtual-time simulator.  This one takes
the *identical* `BlockAckSender` / `BlockAckReceiver` objects, binds them
to two loopback UDP sockets through the wall-clock scheduler
(`repro.transport`), injects egress loss (loopback itself doesn't lose),
and ships a thousand datagrams exactly-once, in-order, with 16 wire
sequence numbers — for real.  The lossless run takes milliseconds of
wall time.  With loss it takes seconds, because each lost datagram or
ack waits out the 50 ms safe timeout before it is resent: on a 2-core
VM, about 4 s at 5% loss and 10 s at 15%, almost all of it idle.

Run:  python examples/udp_realtime.py
"""

import time

from repro.transport import transfer_over_udp

COUNT = 1000


def main() -> None:
    payloads = [f"datagram-{i:05d}".encode() for i in range(COUNT)]
    print(f"shipping {COUNT} datagrams over loopback UDP, window 8, "
          "wire numbers mod 16\n")
    print(f"{'injected loss':>13s} {'sent':>6s} {'retx':>5s} "
          f"{'wall time':>10s} {'goodput':>12s} {'in order':>8s}")
    for loss in (0.0, 0.05, 0.15):
        start = time.time()
        stats = transfer_over_udp(
            payloads, window=8, loss=loss, timeout_period=0.05,
            deadline=60.0, seed=7,
        )
        ok = stats.completed and stats.delivered == payloads
        rate = len(stats.delivered) / stats.duration if stats.duration else 0.0
        print(
            f"{loss:13.0%} {stats.data_sent:6d} {stats.retransmissions:5d} "
            f"{stats.duration:9.2f}s {rate:9.0f}/s {str(ok):>8s}"
        )
        assert ok, "UDP transfer failed!"
    print(
        "\nThe protocol objects here are byte-for-byte the ones the"
        "\nsimulator runs — only the scheduler (wall clock vs virtual time)"
        "\nand the channel (socket vs model) changed.  That is what the"
        "\nshared scheduling interface buys."
    )


if __name__ == "__main__":
    main()
