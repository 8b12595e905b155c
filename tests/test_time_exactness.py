"""``time`` is the capture timestamp truncated toward zero, everywhere.

The generated loops read ``time`` as ``trunc(p.timestamp)`` and the row
interpreter as ``trunc(view.packet.timestamp)``; both must give what
``int(timestamp)`` gives -- the same int for negative, signed-zero,
2**53-and-beyond and non-integral timestamps, and the same
``ValueError`` for NaN -- through every place ``time`` is read: the
kernel's projection, a pushed prefix, an LFTA group key and the row
adapter (``tcp6`` has no layout), at every block size.
"""

import pytest

from repro import Gigascope
from repro.net.build import build_tcp6_frame, build_tcp_frame
from repro.net.packet import CapturedPacket

BLOCK_SIZES = (1, 7, 256)
#: ascending, so no window sees a late row
STAMPS = (-2.5, -0.5, -0.0, 0.0, float(2**53), 1e18 + 0.5, 2.0**70)
PROTOCOLS = ("tcp", "tcp6")


def packets(stamps, protocol):
    build, src, dst = ((build_tcp_frame, "10.0.0.1", "10.0.0.2")
                       if protocol == "tcp" else
                       (build_tcp6_frame, "2001:db8::1", "2001:db8::2"))
    return [CapturedPacket(timestamp=ts, interface="eth0",
                           data=build(src, dst, 1000 + i, 80))
            for i, ts in enumerate(stamps)]


def run(text, protocol, batch_size, stamps=STAMPS):
    gs = Gigascope(batch_size=batch_size)
    gs.add_query("DEFINE query_name q; "
                 + text.replace("eth0.tcp", f"eth0.{protocol}"))
    sub = gs.subscribe("q")
    gs.start()
    gs.feed(packets(stamps, protocol))
    gs.flush()
    return gs, [tuple((type(v), v) for v in row) for row in sub.poll()]


def typed(rows):
    return [tuple((type(v), v) for v in row) for row in rows]


@pytest.mark.parametrize("batch_size", BLOCK_SIZES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestTimeIsIntOfTheTimestamp:
    def test_projection(self, protocol, batch_size):
        _, rows = run("Select time, timestamp From eth0.tcp", protocol,
                      batch_size)
        assert rows == typed((int(ts), ts) for ts in STAMPS)

    def test_pushed_prefix(self, protocol, batch_size):
        # int(-0.5) is 0, not -1: truncation, not floor, decides the test
        gs, rows = run("Select time, timestamp From eth0.tcp "
                       "Where time >= 0", protocol, batch_size)
        assert rows == typed((int(ts), ts) for ts in STAMPS if int(ts) >= 0)
        if protocol == "tcp":
            assert "killed_0 += 1" in gs.generated_code("q")

    def test_group_key(self, protocol, batch_size):
        gs, rows = run("Select tb, count(*) From eth0.tcp "
                       "Group by time/10 as tb", protocol, batch_size)
        expected = {}
        for ts in STAMPS:
            expected[int(ts) // 10] = expected.get(int(ts) // 10, 0) + 1
        assert rows == typed(sorted(expected.items()))
        if protocol == "tcp":
            assert "(trunc(p.timestamp) // 10" in gs.generated_code("q")


@pytest.mark.parametrize("batch_size", BLOCK_SIZES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_nan_quarantines_the_time_reader(protocol, batch_size):
    """A NaN timestamp is refused where ``int()`` refused it, with its
    message: the LFTA reading ``time`` is quarantined at that packet."""
    gs, rows = run("Select time, destPort From eth0.tcp", protocol,
                   batch_size, stamps=(1.0, 2.0, float("nan"), 3.0))
    assert rows == typed([(1, 80), (2, 80)])
    assert gs.rts.quarantined == {
        "q": "ValueError: cannot convert float NaN to integer"}
