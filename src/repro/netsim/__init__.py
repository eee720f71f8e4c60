"""Network simulation substrate: virtual time, scheduling, topology, traces."""

from .clock import ClockError, VirtualClock, WallClock
from .scheduler import EventScheduler, ScheduledEvent, SchedulerTruncationError
from .topology import Host, Network, SwitchLink, single_switch_network
from .serialize import (
    TraceFormatError,
    dump_trace,
    event_from_dict,
    event_to_dict,
    load_trace,
    read_trace,
    save_trace,
)
from .trace import TraceRecorder
from .workload import (
    TimedPacket,
    arp_request_storm,
    l2_pairs,
    poisson_arrivals,
    send_all,
    tcp_conversations,
    udp_flows,
)

__all__ = [
    "ClockError",
    "VirtualClock",
    "WallClock",
    "EventScheduler",
    "ScheduledEvent",
    "SchedulerTruncationError",
    "Host",
    "Network",
    "SwitchLink",
    "single_switch_network",
    "TraceFormatError",
    "dump_trace",
    "event_from_dict",
    "event_to_dict",
    "load_trace",
    "read_trace",
    "save_trace",
    "TraceRecorder",
    "TimedPacket",
    "arp_request_storm",
    "l2_pairs",
    "poisson_arrivals",
    "send_all",
    "tcp_conversations",
    "udp_flows",
]
