"""The property catalog: Table 1's thirteen properties with the paper's
expected feature annotations, plus the Sec. 1/2 worked examples.

Each property is written once, in the property language, as a ``.prop``
file under ``sources/`` (package data).  :func:`load_property` compiles
one by its catalog name; :func:`build_table1` pairs the thirteen Table 1
rows with the cells the paper prints, which ``benchmarks/bench_table1.py``
and ``repro tables`` check against the static analyzer cell for cell.
What the language cannot say — auxiliary monitor knowledge and the named
``@predicates`` the sources refer to — lives beside this module and is
assembled by :func:`catalog_predicates`.
"""

from __future__ import annotations

import pkgutil
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, Mapping, Optional, Tuple

from ..core.analysis import analyze
from ..core.refs import Predicate
from ..core.spec import PropertySpec
from ..lang import PropertyAst, compile_ast, parse_one
from ..packet.addresses import IPv4Address
from .arp import ArpKnowledge, _is_arp_reply, _is_arp_request
from .common import (
    internal_to_external,
    is_dhcp_ack,
    is_dhcp_release,
    is_dhcp_request,
    is_forwarded,
    is_not_tcp_close,
    is_tcp_close,
    is_tcp_syn,
)
from .dhcp_arp import LeaseKnowledge
from .ftp import _advertises_endpoint
from .load_balancing import RoundRobinExpectation, wrong_hash_backend

#: The VIP / backend set used by the catalog's load-balancing rows (the
#: VIP also appears, as a literal, in the three ``lb_*.prop`` sources).
CATALOG_VIP = IPv4Address("10.0.0.100")
CATALOG_BACKENDS = (2, 3, 4)

_DOT = "•"
_BLANK = ""

#: Table 1 in the paper's row order: (group, catalog name, the cells
#: Fields, History, Timeouts, Obligation, Identity, NegMatch, TimeoutActs,
#: InstID exactly as printed).
_TABLE1_ROWS = (
    ("ARP Cache Proxy", "arp-known-not-forwarded",
     ("L3", _DOT, _BLANK, _BLANK, _BLANK, _BLANK, _BLANK, "exact")),
    ("ARP Cache Proxy", "arp-unknown-forwarded",
     ("L3", _DOT, _BLANK, _DOT, _DOT, _BLANK, _DOT, "exact")),
    ("Port Knocking", "knocking-invalidated",
     ("L4", _DOT, _BLANK, _BLANK, _BLANK, _DOT, _BLANK, "exact")),
    ("Port Knocking", "knocking-recognized",
     ("L4", _DOT, _BLANK, _DOT, _BLANK, _DOT, _BLANK, "exact")),
    ("Load Balancing", "lb-hashed-port",
     ("L4", _DOT, _BLANK, _DOT, _DOT, _BLANK, _BLANK, "symmetric")),
    ("Load Balancing", "lb-round-robin-port",
     ("L4", _DOT, _BLANK, _DOT, _DOT, _BLANK, _BLANK, "symmetric")),
    ("Load Balancing", "lb-sticky-port",
     ("L4", _DOT, _BLANK, _BLANK, _DOT, _DOT, _BLANK, "symmetric")),
    ("FTP", "ftp-data-port-matches",
     ("L7", _DOT, _BLANK, _BLANK, _BLANK, _DOT, _BLANK, "symmetric")),
    ("DHCP", "dhcp-reply-within",
     ("L7", _DOT, _DOT, _BLANK, _BLANK, _BLANK, _DOT, "symmetric")),
    ("DHCP", "dhcp-no-reuse",
     ("L7", _DOT, _DOT, _BLANK, _BLANK, _BLANK, _BLANK, "symmetric")),
    ("DHCP", "dhcp-no-overlap",
     ("L7", _DOT, _BLANK, _BLANK, _BLANK, _DOT, _BLANK, "symmetric")),
    ("DHCP + ARP Proxy", "arp-cache-preloaded",
     ("L7", _DOT, _BLANK, _BLANK, _BLANK, _DOT, _DOT, "wandering")),
    ("DHCP + ARP Proxy", "no-unfounded-reply",
     ("L7", _DOT, _BLANK, _DOT, _BLANK, _BLANK, _BLANK, "wandering")),
)

#: The Sec. 1 and Sec. 2 properties :func:`worked_examples` returns.
_WORKED_EXAMPLES = (
    "learned-unicast-port",
    "learned-no-flood",
    "link-down-clears-learning",
    "firewall-basic",
    "firewall-timed",
    "firewall-with-close",
    "firewall-drops-after-close",
    "nat-reverse-translation",
)

#: Every catalog name: Table 1 order, the worked examples, then Sec. 2.3's
#: ARP example (which needs an ``ArpKnowledge`` tap to be meaningful).
CATALOG_NAMES: Tuple[str, ...] = (
    tuple(name for _, name, _ in _TABLE1_ROWS)
    + _WORKED_EXAMPLES
    + ("arp-reply-within",)
)


@dataclass(frozen=True)
class CatalogEntry:
    """One Table 1 row: the property plus the paper's printed cells."""

    group: str
    description: str  # the paper's wording
    prop: PropertySpec
    #: (Fields, History, Timeouts, Obligation, Identity, NegMatch,
    #:  TimeoutActs, InstID) exactly as printed in Table 1.
    expected_row: Tuple[str, str, str, str, str, str, str, str]

    def computed_row(self) -> Tuple[str, str, str, str, str, str, str, str]:
        return analyze(self.prop).table1_row()

    def matches_paper(self) -> bool:
        return self.computed_row() == self.expected_row


def catalog_predicates(
    arp_knowledge: Optional[ArpKnowledge] = None,
    lease_knowledge: Optional[LeaseKnowledge] = None,
    rr: Optional[RoundRobinExpectation] = None,
) -> Dict[str, Predicate]:
    """The ``@name`` environment the catalog sources compile against.

    Pass the knowledge objects a test also attaches as switch taps; any
    left out start fresh and empty (the right default for checking a file
    or replaying a standalone trace).
    """
    if arp_knowledge is None:
        arp_knowledge = ArpKnowledge()
    if lease_knowledge is None:
        lease_knowledge = LeaseKnowledge()
    if rr is None:
        rr = RoundRobinExpectation(CATALOG_VIP, CATALOG_BACKENDS)
    return {
        "internal": internal_to_external(),
        "tcp_syn": is_tcp_syn(),
        "tcp_close": is_tcp_close(),
        "not_close": is_not_tcp_close(),
        "dhcp_request": is_dhcp_request(),
        "dhcp_ack": is_dhcp_ack(),
        "dhcp_release": is_dhcp_release(),
        "arp_request": _is_arp_request(),
        "arp_reply": _is_arp_reply(),
        "forwarded": is_forwarded(),
        "known": arp_knowledge.known_predicate(),
        "unknown": arp_knowledge.unknown_predicate(),
        "lease_unknown": lease_knowledge.unknown_predicate(),
        "ftp_advertises": _advertises_endpoint(),
        "wrong_hash_backend": wrong_hash_backend(CATALOG_BACKENDS),
        "wrong_rr_backend": rr.wrong_backend_predicate(),
    }


def property_source(name: str) -> str:
    """The property-language text of catalog property *name*."""
    if name not in CATALOG_NAMES:
        raise KeyError(
            f"unknown catalog property {name!r} (catalog: "
            f"{', '.join(sorted(CATALOG_NAMES))})")
    # pkgutil.get_data reads through the package's loader exactly as
    # importlib.resources does, without that module's ~5 ms import
    # (tempfile, shutil, ...) on every process's set-up path.
    filename = name.replace("-", "_") + ".prop"
    data = pkgutil.get_data(__package__, f"sources/{filename}")
    return data.decode("utf-8")


@lru_cache(maxsize=None)
def _parsed(name: str) -> PropertyAst:
    # ASTs are frozen: parse each source once per process, elaborate per
    # call (elaboration is what binds the per-call knowledge objects).
    return parse_one(property_source(name))


def load_property(
    name: str, predicates: Optional[Mapping[str, Predicate]] = None
) -> PropertySpec:
    """Compile catalog property *name* (``"firewall-timed"``, ...).

    *predicates* defaults to a fresh :func:`catalog_predicates`; pass your
    own to share knowledge objects with switch taps.  The specification is
    named by its hyphenated catalog name (the language's identifiers have
    no hyphens, so the source says ``firewall_timed``).
    """
    env = catalog_predicates() if predicates is None else predicates
    return replace(compile_ast(_parsed(name), env), name=name)


def build_table1() -> Tuple[CatalogEntry, ...]:
    """Construct fresh property instances for all thirteen Table 1 rows.

    A fresh call builds fresh auxiliary-knowledge objects, so catalog
    properties can be monitored independently in different tests.
    """
    env = catalog_predicates()
    entries = []
    for group, name, expected in _TABLE1_ROWS:
        prop = load_property(name, env)
        entries.append(CatalogEntry(group, prop.description, prop, expected))
    return tuple(entries)


def worked_examples() -> Tuple[PropertySpec, ...]:
    """The Sec. 1 and Sec. 2 properties (not Table 1 rows)."""
    env = catalog_predicates()
    return tuple(load_property(name, env) for name in _WORKED_EXAMPLES)


TABLE1_HEADER = (
    "Fields",
    "History",
    "Timeouts",
    "Obligation",
    "Identity",
    "Neg Match",
    "T.Out. Acts",
    "Inst. ID",
)


def render_table1(entries=None) -> str:
    """Pretty-print computed Table 1 alongside the paper's cells."""
    entries = build_table1() if entries is None else entries
    lines = []
    name_width = max(len(e.description) for e in entries) + 2
    header = "  ".join(h.ljust(10) for h in TABLE1_HEADER)
    lines.append(" " * name_width + header)
    for entry in entries:
        computed = entry.computed_row()
        ok = "OK " if entry.matches_paper() else "DIFF"
        row = "  ".join(str(c).ljust(10) for c in computed)
        lines.append(f"{entry.description.ljust(name_width)}{row}  [{ok}]")
    return "\n".join(lines)
