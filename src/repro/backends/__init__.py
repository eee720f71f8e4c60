"""Executable models of the approaches compared in Table 2."""

from .base import (
    FAST_PATH_SPLIT_LAG,
    Backend,
    BackendMonitor,
    Capabilities,
    UnsupportedFeature,
    default_split_lag,
    split_lag_profile,
)
from .conformance import (
    PAPER_TABLE2,
    PROBES,
    TABLE2_ROWS,
    all_backends,
    build_table2,
    diff_against_paper,
    render_table2,
    run_probe,
)
from .fast import FastBackend, FastStateMachine, FastTransition
from .openflow13 import ControllerMirror, OpenFlow13Backend
from .openstate import DEFAULT_STATE, OpenStateBackend, XfsmTable, XfsmTransition
from .p4 import P4Backend, P4Program, P4Stage, fnv1a
from .snap import SnapBackend, SnapProgram, SnapStatement
from .varanus import (
    StaticVaranusBackend,
    VaranusBackend,
    compile_firewall_to_rules,
)
from .varanus_compiler import (
    VaranusCompileError,
    check_compilable,
    compile_property,
)

__all__ = [
    "FAST_PATH_SPLIT_LAG",
    "Backend",
    "BackendMonitor",
    "Capabilities",
    "UnsupportedFeature",
    "default_split_lag",
    "split_lag_profile",
    "PAPER_TABLE2",
    "PROBES",
    "TABLE2_ROWS",
    "all_backends",
    "build_table2",
    "diff_against_paper",
    "render_table2",
    "run_probe",
    "FastBackend",
    "FastStateMachine",
    "FastTransition",
    "ControllerMirror",
    "OpenFlow13Backend",
    "DEFAULT_STATE",
    "OpenStateBackend",
    "XfsmTable",
    "XfsmTransition",
    "P4Backend",
    "P4Program",
    "P4Stage",
    "fnv1a",
    "SnapBackend",
    "SnapProgram",
    "SnapStatement",
    "StaticVaranusBackend",
    "VaranusBackend",
    "compile_firewall_to_rules",
    "VaranusCompileError",
    "check_compilable",
    "compile_property",
]
