"""Command-line interface.

::

    python -m repro tables              # regenerate Tables 1 and 2
    python -m repro survey              # which backends host which properties
    python -m repro check FILE [...]    # compile + analyze DSL property files
    python -m repro lint FILE [...]     # static lints + feasibility + split
                                        #   hazards [--json] [--backend NAME]
                                        #   [--fix [--diff]] autofixes
    python -m repro record OUT [--packets N --hosts H --seed S]
                                        # simulate traffic, save a JSONL trace
                                        #   (with a provenance header line)
    python -m repro replay TRACE FILE [--metrics OUT]
                                        # replay a trace against DSL properties
    python -m repro explain PROP [--codegen]
                                        # how a property compiles: dispatch
                                        #   plan summary, or the generated
                                        #   matcher source the monitor
                                        #   exec's
    python -m repro stats TRACE FILE... [--json] [--trace-out S.jsonl]
                                        #   [--poll-interval S]
                                        # replay with full telemetry: metrics
                                        #   snapshot, spans, gauge time series
    python -m repro chaos [--profile P --seed S --events N --rounds N]
                                        # replay the Table-1 catalog under a
                                        #   fault profile; report detection
                                        #   degradation vs. a clean run
    python -m repro serve [--port P --ingest tcp:PORT|pipe:PATH ...]
                                        # live daemon: stream frames in over
                                        #   TCP/pipes, scrape /metrics,
                                        #   /stats, /healthz, /readyz, /trace;
                                        #   SIGTERM drains and reports
    python -m repro send TRACE [--host H --port P --rate R --repeat N]
                                        # stream a recorded trace into a
                                        #   running serve daemon at a target
                                        #   event rate

Named predicates available to DSL files (``check``/``lint``/``replay``/
``explain``/``stats``): the whole catalog environment,
:func:`repro.props.catalog_predicates` — listed in docs/LANGUAGE.md,
"Named predicates".
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Optional

from .core import Monitor, analyze
from .core.spec import SpecError
from .lang import CompileError, LexError, ParseError, compile_source
from .netsim.serialize import TraceFormatError
from .telemetry import TRACE_SAMPLE_EVERY

if TYPE_CHECKING:
    from .fabric import SupervisorPolicy

#: What an unreadable input raises: a file that cannot be opened, a trace
#: that is not JSON lines, a property source that does not compile.
#: ``main`` reports one as a single ``error:`` line and exit status 1.
_BAD_INPUT = (OSError, TraceFormatError, LexError, ParseError, CompileError,
              SpecError)


class UsageError(Exception):
    """A flag value the command refuses: ``main`` exits 2."""


@contextmanager
def _flag_values() -> Iterator[None]:
    """Around the code that turns flags into objects: the ``ValueError``
    their checks raise is a flag value out of range, a usage error."""
    try:
        yield
    except _BAD_INPUT:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _predicates():
    """The full catalog predicate environment (fresh auxiliary state).

    Knowledge-backed predicates (@known/@unknown/@lease_unknown) and the
    load-balancer expectations are included so every shipped .prop file
    checks and replays; their auxiliary state starts empty, which is the
    right default for replaying a standalone trace.
    """
    from .props import catalog_predicates

    return catalog_predicates()


def cmd_tables(args: argparse.Namespace) -> int:
    from .backends import diff_against_paper, render_table2
    from .props import build_table1, render_table1

    print("=== Table 1: properties and required features ===\n")
    print(render_table1())
    entries = build_table1()
    ok1 = sum(1 for e in entries if e.matches_paper())
    print(f"\n{ok1}/{len(entries)} rows match the paper\n")

    print("=== Table 2: approaches and supported features ===\n")
    print(render_table2())
    diffs = diff_against_paper()
    print(f"\n{'all cells match the paper' if not diffs else diffs}")
    return 0 if ok1 == len(entries) and not diffs else 1


def cmd_survey(args: argparse.Namespace) -> int:
    from .backends import UnsupportedFeature, all_backends
    from .props import build_table1

    backends = all_backends()
    width = max(len(b.caps.name) for b in backends) + 2
    entries = build_table1()  # built once; identical for every backend
    for backend in backends:
        hosted = 0
        blockers: dict = {}
        for entry in entries:
            try:
                backend.check(entry.prop)
                hosted += 1
            except UnsupportedFeature as exc:
                blockers[exc.feature] = blockers.get(exc.feature, 0) + 1
        top = ", ".join(f"{k} x{v}" for k, v in
                        sorted(blockers.items(), key=lambda kv: -kv[1])[:3])
        print(f"{backend.caps.name:<{width}} hosts {hosted:2d}/13"
              + (f"   blocked by: {top}" if top else ""))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Lint each file, then elaborate and analyze it if lint found no
    error.  Warnings and errors print with their positions; the full
    report (info-level feasibility verdicts, cost estimates) lives under
    ``repro lint``."""
    from .lint import Severity, lint_source, RULES

    status = 0
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as fp:
                source = fp.read()
            report = lint_source(source, _predicates(), path=path)
        except Exception as exc:  # unreadable, or a failure lint misses
            print(f"{path}: ERROR: {exc}", file=sys.stderr)
            status = 1
            continue
        for diag in report.diagnostics:  # the file does not parse
            print(f"{path}: ERROR: {diag.message}", file=sys.stderr)
        for prop_report in report.properties:
            for diag in prop_report.diagnostics:
                if diag.severity is Severity.INFO:
                    continue
                print(f"{path}:{diag.line}:{diag.column}: "
                      f"{diag.severity.value} {diag.code} "
                      f"{RULES[diag.code].slug}: {diag.message}",
                      file=sys.stderr)
        if report.errors:
            status = 1
            continue
        props = [prop_report.spec for prop_report in report.properties]
        if None in props:  # an error lint was told to suppress
            try:
                props = compile_source(source, _predicates())
            except Exception as exc:
                print(f"{path}: ERROR: {exc}", file=sys.stderr)
                status = 1
                continue
        for prop in props:
            req = analyze(prop)
            print(f"{path}: {prop.name}")
            print(f"    stages        : {prop.num_stages} "
                  f"({', '.join(s.name for s in prop.stages)})")
            print(f"    instance key  : {', '.join(prop.key_vars)}")
            print(f"    parse depth   : L{req.max_layer}")
            flags = [
                name for name, on in [
                    ("history", req.history), ("timeouts", req.timeouts),
                    ("obligation", req.obligation), ("identity", req.identity),
                    ("negative-match", req.negative_match),
                    ("timeout-actions", req.timeout_actions),
                    ("multiple-match", req.multiple_match),
                    ("out-of-band", req.out_of_band),
                    ("drop-visibility", req.drop_visibility),
                ] if on
            ]
            print(f"    features      : {', '.join(flags) or 'none'}")
            print(f"    inst. id      : {req.match_kind.value}")
    return status


def cmd_lint(args: argparse.Namespace) -> int:
    from .lint import (
        DEFAULT_SPLIT_LAG,
        LintOptions,
        lint_paths,
        parse_split_lag,
        render_json,
        render_text,
        resolve_backend_name,
    )

    focus = None
    if args.backend:
        try:
            focus = resolve_backend_name(args.backend)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.split_lag is not None:
        try:
            lag = parse_split_lag(args.split_lag)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        lag = DEFAULT_SPLIT_LAG
    if args.diff and not args.fix:
        print("error: --diff requires --fix", file=sys.stderr)
        return 2
    if args.fix:
        status = _apply_fixes(args.files, diff_only=args.diff)
        if status:
            return status
    options = LintOptions(focus_backend=focus, split_lag=lag)
    reports = lint_paths(args.files, _predicates(), options)
    if args.json:
        print(render_json(reports))
    else:
        print(render_text(reports, verbose=not args.quiet))
    return 1 if any(r.errors for r in reports) else 0


def _apply_fixes(paths: List[str], diff_only: bool) -> int:
    """Fix mechanical findings in ``paths`` (``--fix``); with ``--diff``
    print the would-be rewrite as a unified diff instead of writing."""
    import difflib

    from .lint.fixes import fix_source

    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fp:
                original = fp.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        result = fix_source(original)
        for skip in result.skipped:
            print(f"{path}:{skip.line}: skipped property "
                  f"{skip.prop!r}: {skip.reason}", file=sys.stderr)
        if not result.changed:
            continue
        if diff_only:
            sys.stdout.writelines(difflib.unified_diff(
                original.splitlines(keepends=True),
                result.source.splitlines(keepends=True),
                fromfile=path, tofile=f"{path} (fixed)"))
        else:
            with open(path, "w", encoding="utf-8") as fp:
                fp.write(result.source)
            for fix in result.fixes:
                print(f"{path}:{fix.line}: fixed {fix.code}: "
                      f"{fix.description}", file=sys.stderr)
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    from .apps import LearningSwitchApp, sometimes
    from .netsim import TraceRecorder, single_switch_network
    from .netsim.serialize import save_trace, trace_header
    from .netsim.workload import l2_pairs, send_all
    from .switch.pipeline import MissPolicy

    with _flag_values():
        net, switch, hosts = single_switch_network(
            args.hosts, switch_kwargs={"miss_policy": MissPolicy.CONTROLLER})
    faults = sometimes("wrong_port", args.fault_rate, seed=args.seed)
    switch.set_app(LearningSwitchApp(faults=faults))
    recorder = TraceRecorder()
    switch.add_tap(recorder)
    send_all(hosts, l2_pairs(args.hosts, args.packets, seed=args.seed))
    net.run()
    header = trace_header(
        seed=args.seed, hosts=args.hosts, packets=args.packets,
        fault_rate=args.fault_rate, events=len(recorder.events),
        generator="repro record")
    count = save_trace(recorder.events, args.out, header=header)
    print(f"recorded {count} events "
          f"({len(recorder.arrivals)} arrivals) to {args.out}")
    return 0


def _lacks_fork(what: str) -> bool:
    """True, after one line on stderr, where ``what`` cannot run: fabric
    shards are forked worker processes."""
    from .fabric import fork_available

    if fork_available():
        return False
    print(f"error: {what} runs forked worker processes, and this platform "
          "lacks the fork start method", file=sys.stderr)
    return True


def cmd_replay(args: argparse.Namespace) -> int:
    from .netsim.serialize import read_trace
    from .telemetry import MetricsRegistry, render_json

    with open(args.properties, "r", encoding="utf-8") as fp:
        props = compile_source(fp.read(), _predicates())
    events = read_trace(args.trace)
    registry = None
    if args.metrics:
        registry = MetricsRegistry()
    if args.shards > 0:
        from .fabric import ShardedMonitor

        if _lacks_fork("replay --shards"):
            return 2
        monitor = ShardedMonitor(
            props, num_shards=args.shards, mode="mp", registry=registry)
    else:
        monitor = Monitor(registry=registry)
        for prop in props:
            monitor.add_property(prop)
    if registry is not None:
        registry.time_fn = lambda: monitor.now
    monitor.observe_batch(events)
    if events:
        monitor.advance_to(events[-1].time + args.settle)
    if args.shards > 0:
        monitor.stop()  # reap fabric workers; merges the final deltas
    print(f"replayed {len(events)} events against "
          f"{len(props)} propert{'y' if len(props) == 1 else 'ies'}"
          + (f" across {args.shards} mp shard(s)"
             if args.shards > 0 else ""))
    print(f"violations: {len(monitor.violations)}")
    for violation in monitor.violations:
        print()
        print(violation.describe())
    if registry is not None:
        with open(args.metrics, "w", encoding="utf-8") as fp:
            fp.write(render_json(registry.snapshot()))
            fp.write("\n")
        print(f"\nmetrics snapshot written to {args.metrics}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    import os

    if os.path.exists(args.target):
        with open(args.target, "r", encoding="utf-8") as fp:
            props = compile_source(fp.read(), _predicates())
    else:
        from .props import CATALOG_NAMES, load_property

        if args.target not in CATALOG_NAMES:
            print(f"unknown property {args.target!r} (not a file, not in "
                  f"the catalog).\ncatalog: "
                  f"{', '.join(sorted(CATALOG_NAMES))}", file=sys.stderr)
            return 2
        props = [load_property(args.target)]
    if args.codegen:
        # The exact source the monitor exec's for these properties —
        # what actually runs per event, after inlining.
        monitor = Monitor()
        for prop in props:
            monitor.add_property(prop)
        print(monitor.codegen_source())
        return 0
    from .core.compile import dispatch_summary, scan_watchers

    for prop in props:
        print(f"property {prop.name}: {len(prop.stages)} stage(s), "
              f"key vars {list(prop.key_vars)}")
        for kind, count in dispatch_summary(prop).items():
            print(f"  {kind}: {count} watcher(s)")
        for kind, stage, role in scan_watchers(prop):
            print(f"  full-population scan: {kind} -> "
                  f"stage {stage!r} ({role})")
    return 0


def _echo_provenance(header, trace_path: str, out) -> None:
    """One line of trace provenance (from the TraceHeader, if present)."""
    if header is None:
        print(f"trace {trace_path}: no header (pre-provenance recording)",
              file=out)
        return
    detail = " ".join(
        f"{key}={header[key]}"
        for key in ("generator", "seed", "hosts", "packets", "events")
        if key in header)
    print(f"trace {trace_path}: schema v{header.get('schema', '?')} {detail}",
          file=out)


def cmd_stats(args: argparse.Namespace) -> int:
    from .netsim.serialize import read_trace_with_header
    from .telemetry import (
        MetricsRegistry,
        StatsPoller,
        Tracer,
        render_json,
        render_prometheus,
        save_spans,
        validate_spans,
    )

    props = []
    for path in args.properties:
        with open(path, "r", encoding="utf-8") as fp:
            props.extend(compile_source(fp.read(), _predicates()))
    header, events = read_trace_with_header(args.trace)

    registry = MetricsRegistry()
    poller = None
    if args.poll_interval is not None:
        start = events[0].time if events else 0.0
        with _flag_values():
            poller = StatsPoller(registry, args.poll_interval,
                                 start_time=start)
    _echo_provenance(header, args.trace, sys.stderr)

    tracer = Tracer() if args.trace_out else None
    monitor = Monitor(registry=registry, tracer=tracer)
    registry.time_fn = lambda: monitor.now
    for prop in props:
        monitor.add_property(prop)

    if poller is None:
        monitor.observe_batch(events)
    else:
        # The poller samples between events: one-event batches.
        for event in events:
            poller.advance_to(event.time)
            monitor.observe_batch((event,))
    if events:
        monitor.advance_to(events[-1].time + args.settle)
    if poller is not None and events:
        poller.advance_to(events[-1].time)

    print(f"replayed {len(events)} events against "
          f"{len(props)} propert{'y' if len(props) == 1 else 'ies'}; "
          f"{len(monitor.violations)} violation(s)", file=sys.stderr)

    if tracer is not None:
        tracer.close_all(monitor.now)
        problems = validate_spans(tracer.spans)
        for problem in problems:
            print(f"warning: malformed span: {problem}", file=sys.stderr)
        count = save_spans(tracer.spans, args.trace_out)
        print(f"{count} spans written to {args.trace_out}", file=sys.stderr)

    snapshot = registry.snapshot()
    if args.json:
        payload = {
            "trace": {"path": args.trace, "header": header},
            "snapshot": snapshot,
        }
        if poller is not None:
            payload["samples"] = poller.samples
        print(render_json(payload))
    else:
        print(render_prometheus(snapshot), end="")
        if poller is not None:
            print(f"# {len(poller.samples)} poll samples collected "
                  "(use --json to include them)")
    return 0


def _supervision(base: SupervisorPolicy,
                 args: argparse.Namespace) -> SupervisorPolicy:
    """``base`` with ``--restart-budget`` replaced if it was given.  A
    value the policy refuses is a usage error."""
    from dataclasses import replace

    if args.restart_budget is None:
        return base
    with _flag_values():
        return replace(base, restart_budget=args.restart_budget)


def cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import rounds
    from .faults.profiles import PROFILES

    if args.attack:
        from .faults.attacks import render_attack_report, run_attacks

        report = run_attacks(rounds=args.rounds)
        print(render_attack_report(report))
        if args.json:
            _write_json(args.json, report.to_dict())
        if report.failed:
            print("attack sweep FAILED: a flagged property did not degrade "
                  "as the lint predicted", file=sys.stderr)
            return 1
        return 0

    profile = PROFILES[args.profile]
    fabric_flags = {"--shards": args.shards,
                    "--restart-budget": args.restart_budget}
    given = [flag for flag, value in fabric_flags.items() if value is not None]
    if given and profile.worker_crash.is_null:
        raise UsageError(f"{given[0]} shapes the fabric of a worker-crash "
                         f"profile; profile {profile.name!r} runs one monitor")
    if args.shards is not None and args.shards < 1:
        raise UsageError(f"--shards must be >= 1, got {args.shards}")
    if not profile.worker_crash.is_null \
            and _lacks_fork("the worker-crash profile"):
        return 2
    supervision = _supervision(rounds.SOAK_SUPERVISION, args)
    # Round k replays seed + k.
    reports = [
        rounds.run_chaos(profile, args.seed + k, num_events=args.events,
                         settle=args.settle, num_shards=args.shards or 2,
                         supervision=supervision)
        for k in range(args.rounds)]
    failed = [report for report in reports if report.failed]
    for index, report in enumerate(reports):
        if args.rounds > 1:
            print(f"--- round {index + 1}/{args.rounds} "
                  f"(seed {report.seed}) ---")
        print(report.render())
    if args.json:
        _write_json(args.json, {
            "profile": profile.name,
            "rounds": [report.to_dict() for report in reports],
        })
    if failed:
        print(failed[0].FAILURE, file=sys.stderr)
        return 1
    return 0


def _write_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"wrote {path}")


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .fabric import SupervisorPolicy
    from .serve import ServeConfig, ServeDaemon, render_serve_report

    if args.restart_budget is not None and args.shards <= 0:
        raise UsageError("--restart-budget shapes the fabric of --shards N; "
                         "without it serve runs one monitor")
    with _flag_values():
        config = ServeConfig(
            host=args.host,
            port=args.port,
            ingest=tuple(args.ingest or ["tcp:9801"]),
            max_queue=args.max_queue,
            chaos_profile=args.chaos_profile,
            trace_buffer=args.trace_buffer,
            spans_path=args.spans,
            report_path=args.report,
            shards=args.shards,
            supervision=_supervision(SupervisorPolicy(), args),
        )
    if config.shards > 0 and _lacks_fork("serve --shards"):
        return 2
    daemon = ServeDaemon(config)

    def banner(d: ServeDaemon) -> None:
        ingest = ", ".join(
            [f"tcp:{port}" for port in d.ingest_ports]
            + [spec for spec in config.ingest if spec.startswith("pipe:")])
        print(f"serving http://{config.host}:{d.http_port} "
              f"(profile={config.chaos_profile}, ingest {ingest}); "
              f"SIGTERM or Ctrl-C drains and reports", file=sys.stderr)

    daemon.on_started = banner
    report = asyncio.run(daemon.run())
    print(render_serve_report(report))
    if args.report:
        print(f"report written to {args.report}", file=sys.stderr)
    return 0


def cmd_send(args: argparse.Namespace) -> int:
    from .serve import stream_trace

    try:
        with _flag_values():
            result = stream_trace(args.trace, args.host, args.port,
                                  rate=args.rate, repeat=args.repeat,
                                  retry=args.retry, backoff=args.backoff,
                                  format=args.format)
    except ConnectionRefusedError:
        print(f"error: nothing listening on {args.host}:{args.port} "
              "(is `repro serve` running?"
              + (" retry budget exhausted" if args.retry else "") + ")",
              file=sys.stderr)
        return 1
    except OSError as exc:
        if exc.filename is not None:  # the trace, not the socket
            raise
        print(f"error: connection to {args.host}:{args.port} lost and "
              f"retry budget exhausted: {exc}", file=sys.stderr)
        return 1
    rate = ("unpaced" if result.target_rate == 0
            else f"target {result.target_rate:g} ev/s")
    print(f"sent {result.events} events in {result.duration:.3f}s "
          f"({result.achieved_rate:.0f} ev/s, {rate}, "
          f"{result.reconnects} reconnect(s))")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stateful property monitoring on software switches "
                    "(reproduction of 'Switches are Monitors Too!', "
                    "HotNets 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="regenerate Tables 1 and 2") \
        .set_defaults(fn=cmd_tables)
    sub.add_parser("survey", help="which backends host which properties") \
        .set_defaults(fn=cmd_survey)

    check = sub.add_parser("check", help="compile + analyze DSL files")
    check.add_argument("files", nargs="+")
    check.set_defaults(fn=cmd_check)

    lint = sub.add_parser(
        "lint",
        help="static lints, backend feasibility, split-mode hazards")
    lint.add_argument("files", nargs="+")
    lint.add_argument("--json", action="store_true",
                      help="emit a machine-readable JSON report")
    lint.add_argument("--backend", default=None,
                      help="deployment target: its feasibility failures "
                           "become errors (name or unique prefix)")
    lint.add_argument("--split-lag", type=str, default=None,
                      help="split-mode state-update lag: seconds, 'table2' "
                           "for per-backend defaults derived from Table 2's "
                           "update-datapath column, or NAME=SECONDS[,...] "
                           "overrides (default: the engine's "
                           "DEFAULT_SPLIT_LAG, 500 microseconds)")
    lint.add_argument("--quiet", action="store_true",
                      help="diagnostics only, no per-property summaries")
    lint.add_argument("--fix", action="store_true",
                      help="mechanically repair fixable findings (L002 "
                           "unused binds, L003 shadowed rebinds, L004 "
                           "duplicate guards) by rewriting the files, then "
                           "re-lint the result")
    lint.add_argument("--diff", action="store_true",
                      help="with --fix: print the rewrite as a unified "
                           "diff instead of writing the files")
    lint.set_defaults(fn=cmd_lint)

    record = sub.add_parser("record",
                            help="simulate a learning switch, save a trace")
    record.add_argument("out")
    record.add_argument("--packets", type=int, default=100)
    record.add_argument("--hosts", type=int, default=4)
    record.add_argument("--seed", type=int, default=7)
    record.add_argument("--fault-rate", type=float, default=0.2)
    record.set_defaults(fn=cmd_record)

    replay = sub.add_parser("replay",
                            help="replay a trace against DSL properties")
    replay.add_argument("trace")
    replay.add_argument("properties")
    replay.add_argument("--settle", type=float, default=60.0,
                        help="virtual seconds to run timers past the trace")
    replay.add_argument("--metrics", default=None, metavar="OUT",
                        help="write a JSON metrics snapshot to OUT")
    replay.add_argument("--shards", type=int, default=0, metavar="N",
                        help="partition monitor instances by key hash over "
                             "N forked worker processes fed serialized "
                             "event frames (0 = plain single monitor)")
    replay.set_defaults(fn=cmd_replay)

    explain = sub.add_parser(
        "explain",
        help="show how a property compiles: dispatch plan summary, or "
             "the generated matcher source (--codegen)")
    explain.add_argument("target",
                         help="catalog property name (e.g. "
                              "learned-unicast-port) or a DSL file")
    explain.add_argument("--codegen", action="store_true",
                         help="dump the specialized Python source the "
                              "monitor exec's for the property")
    explain.set_defaults(fn=cmd_explain)

    stats = sub.add_parser(
        "stats",
        help="replay a trace with full telemetry, emit a metrics snapshot")
    stats.add_argument("trace")
    stats.add_argument("properties", nargs="+",
                       help="one or more DSL property files")
    stats.add_argument("--json", action="store_true",
                       help="JSON snapshot (default: Prometheus text)")
    stats.add_argument("--trace-out", default=None, metavar="SPANS.jsonl",
                       help="also write per-packet trace spans as JSONL")
    stats.add_argument("--poll-interval", type=float, default=None,
                       metavar="S",
                       help="sample every gauge each S virtual seconds")
    stats.add_argument("--settle", type=float, default=60.0,
                       help="virtual seconds to run timers past the trace")
    stats.set_defaults(fn=cmd_stats)

    chaos = sub.add_parser(
        "chaos",
        help="replay the Table-1 catalog under a fault profile, report "
             "degradation vs. a clean run")
    chaos.add_argument("--profile", default="lossy",
                       choices=sorted(_chaos_profile_names()),
                       help="named fault profile (default: lossy)")
    chaos.add_argument("--seed", type=int, default=7,
                       help="workload seed; round k uses seed+k")
    chaos.add_argument("--events", type=int, default=2000,
                       help="events per round (default: 2000)")
    chaos.add_argument("--rounds", type=int, default=1,
                       help="soak mode: run N independent rounds")
    chaos.add_argument("--settle", type=float, default=600.0,
                       help="virtual seconds to run timers past the trace")
    chaos.add_argument("--json", default=None, metavar="OUT",
                       help="also write the degradation report(s) as JSON")
    chaos.add_argument("--attack", action="store_true",
                       help="synthesize attacks from taint findings "
                            "(L017/L018) instead of replaying a fault "
                            "profile")
    chaos.add_argument("--shards", type=int, default=None, metavar="N",
                       help="forked fabric workers (worker-crash only; "
                            "default: 2)")
    chaos.add_argument("--restart-budget", type=int, default=None,
                       metavar="N",
                       help="worker restarts allowed per shard before the "
                            "shard is declared failed (worker-crash only; "
                            "default: 5)")
    chaos.set_defaults(fn=cmd_chaos)

    serve = sub.add_parser(
        "serve",
        help="live monitor daemon: stream events in, scrape metrics out")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for HTTP and TCP ingest "
                            "(default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=9800,
                       help="HTTP observability port: /metrics /stats "
                            "/healthz /readyz /trace (default: 9800; "
                            "0 picks an ephemeral port)")
    serve.add_argument("--ingest", action="append", default=None,
                       metavar="tcp:PORT|pipe:PATH",
                       help="event source; repeatable (default: tcp:9801). "
                            "tcp:0 picks an ephemeral port; pipe:PATH "
                            "reads a file or FIFO once, to EOF (either "
                            "codec, sniffed like a TCP connection)")
    serve.add_argument("--chaos-profile", default="clean",
                       choices=sorted(_chaos_profile_names()),
                       help="run the monitor under a fault profile's "
                            "monitor settings; a profile with link faults "
                            "or a worker-crash plan exits 2 "
                            "(default: clean)")
    serve.add_argument("--max-queue", type=int, default=4096,
                       help="ingest queue bound; frames beyond it are shed "
                            "into the overflow ledger (default: 4096)")
    serve.add_argument("--trace-buffer", type=int, default=512,
                       help="spans kept for /trace, newest first: one "
                            f"packet uid in {TRACE_SAMPLE_EVERY} traced "
                            "whole, plus every violation; 0 disables "
                            "tracing (default: 512)")
    serve.add_argument("--spans", default=None, metavar="SPANS.jsonl",
                       help="also append every span the /trace ring "
                            "records to this JSONL file as it closes "
                            "(crash-safe, one line per span)")
    serve.add_argument("--shards", type=int, default=0, metavar="N",
                       help="drain the ingest queue into a sharded monitor "
                            "fabric of N forked, supervised worker "
                            "processes (0 = single monitor)")
    serve.add_argument("--restart-budget", type=int, default=None,
                       metavar="N",
                       help="with --shards: worker restarts allowed per shard "
                            "before the shard is declared failed "
                            "(default: 5)")
    serve.add_argument("--report", default=None, metavar="OUT",
                       help="write the final degradation report as JSON "
                            "on shutdown")
    serve.set_defaults(fn=cmd_serve)

    send = sub.add_parser(
        "send", help="stream a recorded trace into a running serve daemon")
    send.add_argument("trace", help="JSONL trace file (from `repro record`)")
    send.add_argument("--host", default="127.0.0.1",
                      help="daemon address (default: 127.0.0.1)")
    send.add_argument("--port", type=int, default=9801,
                      help="daemon TCP ingest port (default: 9801)")
    send.add_argument("--rate", type=float, default=0.0,
                      help="target events/second; 0 = as fast as the "
                           "socket accepts (default: 0)")
    send.add_argument("--retry", type=int, default=0, metavar="N",
                      help="reconnect budget for the whole stream: retry "
                           "refused/lost connections up to N times, "
                           "resending the interrupted chunk")
    send.add_argument("--backoff", type=float, default=0.5, metavar="S",
                      help="base reconnect delay in seconds, doubled per "
                           "consecutive failure (reset on success)")
    send.add_argument("--repeat", type=int, default=1,
                      help="stream the whole trace N times (default: 1)")
    send.add_argument("--format", default="jsonl",
                      choices=["jsonl", "rpf2"],
                      help="wire encoding: newline-JSON lines, or the "
                           "RPF2 binary batch codec (the daemon "
                           "auto-detects either; default: jsonl)")
    send.set_defaults(fn=cmd_send)
    return parser


def _chaos_profile_names() -> List[str]:
    from .faults.profiles import PROFILES

    return list(PROFILES)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        os._exit(0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
