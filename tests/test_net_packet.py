"""Tests for address helpers and the captured-packet container."""

import copy
import pickle

import pytest

from repro.net.packet import (
    CapturedPacket,
    bytes_to_mac,
    int_to_ip,
    ip_to_int,
    mac_to_bytes,
    read_u16,
    read_u32,
    read_u8,
)


class TestIpConversion:
    def test_round_trip(self):
        for text in ("0.0.0.0", "10.0.0.1", "192.168.255.254", "255.255.255.255"):
            assert int_to_ip(ip_to_int(text)) == text

    def test_known_value(self):
        assert ip_to_int("10.0.0.1") == 0x0A000001
        assert int_to_ip(0xC0A80101) == "192.168.1.1"

    def test_rejects_bad_quad(self):
        with pytest.raises(ValueError):
            ip_to_int("10.0.0")
        with pytest.raises(ValueError):
            ip_to_int("10.0.0.256")
        with pytest.raises(ValueError):
            ip_to_int("a.b.c.d")

    def test_rejects_out_of_range_int(self):
        with pytest.raises(ValueError):
            int_to_ip(-1)
        with pytest.raises(ValueError):
            int_to_ip(1 << 32)


class TestMacConversion:
    def test_round_trip(self):
        mac = "aa:bb:cc:00:11:22"
        assert bytes_to_mac(mac_to_bytes(mac)) == mac

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            mac_to_bytes("aa:bb:cc")
        with pytest.raises(ValueError):
            bytes_to_mac(b"\x00\x01")


class TestCapturedPacket:
    def test_orig_len_defaults_to_data_length(self):
        packet = CapturedPacket(timestamp=1.0, data=b"abcdef")
        assert packet.orig_len == 6
        assert packet.caplen == 6
        assert not packet.truncated

    def test_truncate_produces_shorter_capture(self):
        packet = CapturedPacket(timestamp=1.0, data=b"abcdef")
        cut = packet.truncate(4)
        assert cut.caplen == 4
        assert cut.orig_len == 6
        assert cut.truncated
        assert cut.data == b"abcd"
        assert cut.interface == packet.interface

    def test_truncate_no_op_when_longer(self):
        packet = CapturedPacket(timestamp=1.0, data=b"abc")
        assert packet.truncate(10) is packet

    def test_explicit_orig_len_kept(self):
        packet = CapturedPacket(timestamp=0.0, data=b"ab", orig_len=100)
        assert packet.truncated
        assert packet.orig_len == 100

    def test_slotted(self):
        packet = CapturedPacket(timestamp=1.5, data=b"abc", interface="eth1")
        assert not hasattr(packet, "__dict__")
        with pytest.raises(AttributeError):
            packet.vlan = 7
        for twin in (copy.copy(packet), copy.deepcopy(packet),
                     pickle.loads(pickle.dumps(packet))):
            assert twin == packet and twin is not packet
            assert (twin.timestamp, twin.data, twin.interface,
                    twin.orig_len) == (1.5, b"abc", "eth1", 3)
        assert packet != CapturedPacket(timestamp=1.5, data=b"abd",
                                        interface="eth1")


class TestReaders:
    def test_read_integers(self):
        data = bytes([0x01, 0x02, 0x03, 0x04, 0x05])
        assert read_u8(data, 0) == 0x01
        assert read_u16(data, 1) == 0x0203
        assert read_u32(data, 1) == 0x02030405
