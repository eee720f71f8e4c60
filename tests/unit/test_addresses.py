"""Unit tests: MAC and IPv4 address value types."""

import os
import subprocess
import sys

import pytest

import repro
from repro.packet.addresses import AddressError, IPv4Address, MACAddress

SRC = os.path.dirname(os.path.dirname(repro.__file__))


class TestMACAddress:
    def test_from_string(self):
        mac = MACAddress("00:11:22:33:44:55")
        assert int(mac) == 0x001122334455

    def test_from_dash_string(self):
        assert MACAddress("00-11-22-33-44-55") == MACAddress("00:11:22:33:44:55")

    def test_from_int(self):
        assert str(MACAddress(1)) == "00:00:00:00:00:01"

    def test_from_bytes(self):
        assert MACAddress(b"\x00\x00\x00\x00\x00\x2a") == MACAddress(42)

    def test_from_mac(self):
        mac = MACAddress(7)
        assert MACAddress(mac) == mac

    def test_packed_roundtrip(self):
        mac = MACAddress("de:ad:be:ef:00:01")
        assert MACAddress(mac.packed()) == mac

    def test_str_roundtrip(self):
        mac = MACAddress("aa:bb:cc:dd:ee:ff")
        assert MACAddress(str(mac)) == mac

    @pytest.mark.parametrize("bad", ["", "00:11:22", "zz:11:22:33:44:55", "1.2.3.4"])
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(AddressError):
            MACAddress(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(AddressError):
            MACAddress(1 << 48)
        with pytest.raises(AddressError):
            MACAddress(-1)

    def test_wrong_byte_length_rejected(self):
        with pytest.raises(AddressError):
            MACAddress(b"\x00" * 5)

    def test_broadcast(self):
        assert MACAddress.BROADCAST.is_broadcast
        assert MACAddress.BROADCAST.is_multicast
        assert not MACAddress(1).is_broadcast

    def test_multicast_ig_bit(self):
        assert MACAddress("01:00:5e:00:00:01").is_multicast
        assert MACAddress("00:00:5e:00:00:01").is_unicast

    def test_ordering(self):
        assert MACAddress(1) < MACAddress(2)
        assert sorted([MACAddress(3), MACAddress(1)])[0] == MACAddress(1)

    def test_hashable(self):
        assert len({MACAddress(1), MACAddress(1), MACAddress(2)}) == 2

    def test_not_equal_to_other_types(self):
        assert MACAddress(1) != 1
        assert MACAddress(1) != IPv4Address(1)


class TestIPv4Address:
    def test_from_string(self):
        assert int(IPv4Address("10.0.0.1")) == 0x0A000001

    def test_from_int(self):
        assert str(IPv4Address(0x0A000001)) == "10.0.0.1"

    def test_from_bytes(self):
        assert IPv4Address(b"\x0a\x00\x00\x01") == IPv4Address("10.0.0.1")

    def test_packed_roundtrip(self):
        ip = IPv4Address("192.168.1.200")
        assert IPv4Address(ip.packed()) == ip

    @pytest.mark.parametrize("bad", ["", "10.0.0", "10.0.0.256", "a.b.c.d", "1.2.3.4.5"])
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(AddressError):
            IPv4Address(1 << 32)

    def test_broadcast(self):
        assert IPv4Address.BROADCAST.is_broadcast
        assert IPv4Address("255.255.255.255").is_broadcast

    def test_multicast(self):
        assert IPv4Address("224.0.0.1").is_multicast
        assert IPv4Address("239.255.255.255").is_multicast
        assert not IPv4Address("240.0.0.1").is_multicast
        assert not IPv4Address("10.0.0.1").is_multicast

    @pytest.mark.parametrize(
        "addr,private",
        [
            ("10.0.0.1", True),
            ("172.16.0.1", True),
            ("172.31.255.255", True),
            ("172.32.0.1", False),
            ("192.168.0.1", True),
            ("192.169.0.1", False),
            ("8.8.8.8", False),
        ],
    )
    def test_private_ranges(self, addr, private):
        assert IPv4Address(addr).is_private is private

    def test_in_subnet(self):
        ip = IPv4Address("10.1.2.3")
        assert ip.in_subnet(IPv4Address("10.1.2.0"), 24)
        assert ip.in_subnet(IPv4Address("10.0.0.0"), 8)
        assert not ip.in_subnet(IPv4Address("10.1.3.0"), 24)
        assert ip.in_subnet(IPv4Address("0.0.0.0"), 0)

    def test_in_subnet_bad_prefix(self):
        with pytest.raises(AddressError):
            IPv4Address("10.0.0.1").in_subnet(IPv4Address("10.0.0.0"), 33)

    def test_ordering_and_hash(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")
        assert len({IPv4Address("1.1.1.1"), IPv4Address("1.1.1.1")}) == 1

    def test_mac_and_ip_of_one_integer_stay_distinct(self):
        # An address hashes as its integer, so these two collide; equality
        # still tells them apart, and a set keeps both.
        assert hash(MACAddress(5)) == hash(IPv4Address(5))
        assert MACAddress(5) != IPv4Address(5)
        assert len({MACAddress(5), IPv4Address(5)}) == 2

    def test_hash_is_the_same_under_another_hash_seed(self):
        """No PYTHONHASHSEED salt: a forked or restarted process files an
        address under the same hash."""
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        script = ("from repro.packet.addresses import IPv4Address, MACAddress;"
                  "print(hash(IPv4Address('10.1.2.3')), hash(MACAddress(7)))")
        out = subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=SRC,
                                PYTHONHASHSEED=seed)).stdout.split()
        assert out == [str(hash(IPv4Address("10.1.2.3"))),
                       str(hash(MACAddress(7)))]
