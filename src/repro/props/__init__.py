"""The property catalog: Table 1's thirteen properties plus the worked
examples of Sec. 1 and Sec. 2.

Each property is one ``.prop`` file under ``sources/``;
``load_property("firewall-timed")`` compiles it to a monitor-ready
specification.  The Python here is only what the language cannot say:
auxiliary knowledge, named predicates, and the paper's expected rows."""

from .arp import ArpKnowledge
from .catalog import (
    CATALOG_BACKENDS,
    CATALOG_NAMES,
    CATALOG_VIP,
    CatalogEntry,
    TABLE1_HEADER,
    build_table1,
    catalog_predicates,
    load_property,
    property_source,
    render_table1,
    worked_examples,
)
from .dhcp_arp import LeaseKnowledge
from .load_balancing import RoundRobinExpectation

__all__ = [
    "ArpKnowledge",
    "CATALOG_BACKENDS",
    "CATALOG_NAMES",
    "CATALOG_VIP",
    "CatalogEntry",
    "TABLE1_HEADER",
    "build_table1",
    "catalog_predicates",
    "load_property",
    "property_source",
    "render_table1",
    "worked_examples",
    "LeaseKnowledge",
    "RoundRobinExpectation",
]
