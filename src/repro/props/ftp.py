"""The ``@ftp_advertises`` predicate of ``sources/ftp_data_port_matches.prop``
(Table 1's FTP row, taken by the paper from FAST)."""

from __future__ import annotations

from ..core.refs import Predicate


def _advertises_endpoint() -> Predicate:
    return Predicate(
        lambda fields, env: "ftp.data_port" in fields,
        "FTP control line advertises a data endpoint",
        fields_used=("ftp.data_port", "ftp.line"),
    )
