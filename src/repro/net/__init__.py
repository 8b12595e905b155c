"""Network substrate: wire formats, capture files, and network algorithms.

Everything Gigascope interprets at the packet level lives here, written
from scratch (no scapy/dpkt):

* :mod:`repro.net.packet` -- captured-packet container and address helpers
* :mod:`repro.net.ethernet`, :mod:`repro.net.ip`, :mod:`repro.net.tcp`,
  :mod:`repro.net.udp` -- header parse/build with checksums
* :mod:`repro.net.pcap` -- classic libpcap file reader/writer
* :mod:`repro.net.netflow` -- Netflow v5-style records and router export
* :mod:`repro.net.bgp` -- simplified BGP UPDATE messages
* :mod:`repro.net.lpm` -- longest-prefix-match trie (used by ``getlpmid``)

The names below are imported on first access (:mod:`repro._lazy`).
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(globals(), {
    "repro.net.packet": ("CapturedPacket", "ip_to_int", "int_to_ip",
                         "mac_to_bytes", "bytes_to_mac"),
    "repro.net.ethernet": ("EthernetHeader", "ETHERTYPE_IPV4"),
    "repro.net.ip": ("IPv4Header", "PROTO_TCP", "PROTO_UDP", "PROTO_ICMP"),
    "repro.net.tcp": ("TCPHeader",),
    "repro.net.udp": ("UDPHeader",),
    "repro.net.pcap": ("CaptureTruncated", "PcapReader", "PcapWriter"),
    "repro.net.netflow": ("NetflowRecord", "NetflowExporter",
                          "pack_netflow_v5", "unpack_netflow_v5"),
    "repro.net.bgp": ("BGPUpdate",),
    "repro.net.lpm": ("PrefixTable",),
})
