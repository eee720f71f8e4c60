"""FTP control-channel (L7) parsing.

The FTP property of Table 1 (taken by the paper from FAST) is "Data L4 port
matches L4 port given in control stream": the monitor must parse PORT
commands (and PASV replies) out of the TCP control connection, bind the
advertised data port, and later match the data connection's actual port
against it — a negative match at L7 parse depth.  ``FtpControl.FIELDS``
declares the ``ftp.*`` fields; a line advertising no endpoint has no
``ftp.data_ip`` / ``ftp.data_port``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

from .addresses import IPv4Address
from .headers import Field, Header, HeaderError

FTP_CONTROL_PORT = 21

_PORT_RE = re.compile(
    r"^PORT\s+(\d{1,3}),(\d{1,3}),(\d{1,3}),(\d{1,3}),(\d{1,3}),(\d{1,3})\s*$",
    re.IGNORECASE,
)
_PASV_REPLY_RE = re.compile(
    r"^227\s+.*\((\d{1,3}),(\d{1,3}),(\d{1,3}),(\d{1,3}),(\d{1,3}),(\d{1,3})\)",
)


@dataclass(frozen=True)
class FtpControl(Header):
    """One line of an FTP control conversation.

    ``data_ip``/``data_port`` are populated when the line advertises a data
    endpoint (an active-mode ``PORT`` command or a passive-mode ``227``
    reply); otherwise they are ``None`` and the line is opaque text.
    """

    LAYER: ClassVar[int] = 7
    NAME: ClassVar[str] = "ftp"
    FIELDS: ClassVar[Tuple[Field, ...]] = (
        Field("ftp.line", "line", "str", 0),
        Field("ftp.data_ip", "data_ip", "ip", 32),
        Field("ftp.data_port", "data_port", "int", 16),
    )

    line: str
    data_ip: Optional[IPv4Address] = None
    data_port: Optional[int] = None

    @classmethod
    def from_line(cls, line: str) -> "FtpControl":
        """Parse a control line, extracting an advertised data endpoint."""
        stripped = line.strip()
        for pattern in (_PORT_RE, _PASV_REPLY_RE):
            match = pattern.match(stripped)
            if match:
                h1, h2, h3, h4, p1, p2 = (int(g) for g in match.groups())
                if any(o > 255 for o in (h1, h2, h3, h4, p1, p2)):
                    raise HeaderError(f"FTP endpoint octet out of range in {line!r}")
                ip = IPv4Address(f"{h1}.{h2}.{h3}.{h4}")
                return cls(line=stripped, data_ip=ip, data_port=(p1 << 8) | p2)
        return cls(line=stripped)

    @property
    def advertises_endpoint(self) -> bool:
        return self.data_port is not None

    @property
    def is_port_command(self) -> bool:
        return self.line.upper().startswith("PORT")

    @property
    def is_pasv_reply(self) -> bool:
        return self.line.startswith("227")

    # -- wire format -----------------------------------------------------
    def encode(self) -> bytes:
        return (self.line + "\r\n").encode("ascii")

    @classmethod
    def decode(cls, data: bytes) -> Tuple["FtpControl", bytes]:
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise HeaderError(f"FTP control line is not ASCII: {exc}") from exc
        line, sep, rest = text.partition("\r\n")
        if not sep:
            raise HeaderError("FTP control line missing CRLF terminator")
        return cls.from_line(line), rest.encode("ascii")


def encode_port_command(ip: IPv4Address, port: int) -> str:
    """Render an active-mode PORT command advertising ``ip:port``."""
    if not 0 <= port < 65536:
        raise HeaderError(f"port out of range: {port!r}")
    octets = str(ip).split(".")
    return f"PORT {octets[0]},{octets[1]},{octets[2]},{octets[3]},{port >> 8},{port & 0xFF}"
