"""Tests for the gsq-trace filter/convert utility."""

import pytest

from repro.net.pcap import read_pcap, write_pcap
from repro.net.pcapng import read_pcapng, write_pcapng
from repro.trace import UnknownProtocol, build_packet_filter, main
from tests.conftest import tcp_packet, udp_packet


@pytest.fixture
def trace(tmp_path):
    packets = []
    for i in range(30):
        if i % 3 == 2:
            packets.append(udp_packet(ts=float(i), dport=53))
        else:
            packets.append(tcp_packet(ts=float(i), dport=80 if i % 2 else 443,
                                      payload=b"GET / HTTP/1.1" if i % 2 else b"x"))
    path = tmp_path / "in.pcap"
    write_pcap(str(path), packets)
    return str(path), packets


class TestPacketFilter:
    def test_protocol_only(self):
        keep = build_packet_filter("udp", None)
        assert keep(udp_packet())
        assert not keep(tcp_packet())

    def test_where_predicate(self):
        keep = build_packet_filter("tcp", "destPort = 80 and len > 0")
        assert keep(tcp_packet(dport=80))
        assert not keep(tcp_packet(dport=443))

    def test_user_function_in_predicate(self):
        keep = build_packet_filter(
            "tcp", "getlpmid(srcIP, '10.0.0.0/8 1') = 1")
        assert keep(tcp_packet(src="10.5.5.5"))
        assert not keep(tcp_packet(src="11.5.5.5"))

    def test_unknown_protocol(self):
        with pytest.raises(UnknownProtocol, match="'smtp'"):
            build_packet_filter("smtp", None)


class TestCliRuns:
    def test_filter_pcap_to_pcap(self, trace, tmp_path, capsys):
        in_path, packets = trace
        out = tmp_path / "out.pcap"
        code = main(["--in", in_path, "--out", str(out),
                     "--protocol", "tcp", "--where", "destPort = 80"])
        assert code == 0
        kept = read_pcap(str(out))
        expected = sum(1 for i in range(30) if i % 3 != 2 and i % 2)
        assert len(kept) == expected
        assert "packets ->" in capsys.readouterr().err

    def test_convert_to_pcapng(self, trace, tmp_path):
        in_path, packets = trace
        out = tmp_path / "out.pcapng"
        code = main(["--in", in_path, "--out", str(out)])
        assert code == 0
        kept = read_pcapng(str(out))
        assert len(kept) == 30  # default protocol 'ip' keeps all IP

    def test_time_range_and_limit(self, trace, tmp_path):
        in_path, _ = trace
        out = tmp_path / "out.pcap"
        code = main(["--in", in_path, "--out", str(out),
                     "--time-range", "5:20", "--limit", "4"])
        assert code == 0
        kept = read_pcap(str(out))
        assert len(kept) == 4
        assert all(5 <= p.timestamp < 20 for p in kept)

    def test_invert(self, trace, tmp_path):
        in_path, _ = trace
        out = tmp_path / "out.pcap"
        code = main(["--in", in_path, "--out", str(out),
                     "--protocol", "udp", "--invert"])
        assert code == 0
        kept = read_pcap(str(out))
        assert len(kept) == 20  # everything that is NOT udp

    def test_snaplen(self, trace, tmp_path):
        in_path, _ = trace
        out = tmp_path / "out.pcap"
        main(["--in", in_path, "--out", str(out), "--snaplen", "60"])
        kept = read_pcap(str(out))
        assert all(p.caplen <= 60 for p in kept)

    def test_regex_payload_filter(self, trace, tmp_path):
        in_path, _ = trace
        out = tmp_path / "out.pcap"
        code = main(["--in", in_path, "--out", str(out),
                     "--protocol", "tcp",
                     "--where", "str_match_regex(data, 'HTTP/1')"])
        assert code == 0
        kept = read_pcap(str(out))
        assert len(kept) == 10

    def test_bad_predicate(self, trace, tmp_path, capsys):
        in_path, _ = trace
        out = tmp_path / "out.pcap"
        code = main(["--in", in_path, "--out", str(out),
                     "--protocol", "tcp", "--where", "nosuchfield = 1"])
        assert code == 1
        assert "predicate error" in capsys.readouterr().err

    def test_pcapng_input_sniffed(self, tmp_path):
        packets = [tcp_packet(ts=float(i), dport=80) for i in range(5)]
        in_path = tmp_path / "in.pcapng"
        write_pcapng(str(in_path), packets)
        out = tmp_path / "out.pcap"
        code = main(["--in", str(in_path), "--out", str(out)])
        assert code == 0
        assert len(read_pcap(str(out))) == 5


class TestRefusals:
    """Bad input is a usage error (exit 2) naming the flag, and no
    output file is created."""

    @pytest.mark.parametrize("extra, flag", [
        (["--limit", "0"], "--limit"),
        (["--limit", "-2"], "--limit"),
        (["--snaplen", "0"], "--snaplen"),
        (["--snaplen", "-1"], "--snaplen"),
        (["--protocol", "smtp"], "--protocol"),
        (["--time-range", "a:b"], "--time-range"),
    ])
    def test_bad_flag(self, trace, tmp_path, capsys, extra, flag):
        in_path, _ = trace
        out = tmp_path / "out.pcap"
        with pytest.raises(SystemExit) as excinfo:
            main(["--in", in_path, "--out", str(out)] + extra)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input(self, tmp_path, capsys):
        out = tmp_path / "out.pcap"
        with pytest.raises(SystemExit) as excinfo:
            main(["--in", str(tmp_path / "nope.pcap"), "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--in" in err and "nope.pcap" in err
        assert not out.exists()

    def test_unwritable_output(self, trace, tmp_path, capsys):
        in_path, _ = trace
        out = tmp_path / "no-such-dir" / "out.pcap"
        with pytest.raises(SystemExit) as excinfo:
            main(["--in", in_path, "--out", str(out)])
        assert excinfo.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_output_over_input(self, trace, capsys):
        in_path, packets = trace
        with pytest.raises(SystemExit) as excinfo:
            main(["--in", in_path, "--out", in_path])
        assert excinfo.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert len(read_pcap(in_path)) == len(packets)

    def test_limit_one_writes_one(self, trace, tmp_path):
        in_path, _ = trace
        out = tmp_path / "out.pcap"
        assert main(["--in", in_path, "--out", str(out), "--limit", "1"]) == 0
        assert len(read_pcap(str(out))) == 1
