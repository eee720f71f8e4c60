#!/usr/bin/env python3
"""The repo's benchmark: end-to-end and per-layer, one command.

    python3 benchmarks/e2e/run.py                        # every workload
    python3 benchmarks/e2e/run.py --aa                   # ... twice, compared
    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1                           # one, as a driver runs it

With ``--trace 0`` a workload is run end to end, repeatedly, each run in
a fresh child process (``child.py``), for about ``--seconds`` seconds;
the best run (the median, for memory) gives the end-to-end metrics.  With ``--trace 1``
the same inputs go through the staged pipeline and the probes of
``layers.py`` plus daemon floods with the ``/trace`` ring on and off,
one open-loop run and one two-worker fabric run, which together give
the per-layer metrics.  Either way the outputs are checked —
per-property violation counts against a direct reference run and, for
the default seed, against ``expected.json`` — and the last line printed
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The benchmark measures; it changes nothing under ``src/`` and claims no
gain.  README.md in this directory says what each number means.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pickle
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
if not (ROOT / "src" / "repro").is_dir():
    # A directory holding only the benchmark has no program to measure.
    raise SystemExit(f"{HERE}: no src/repro beside the benchmark; "
                     "run it from a full checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150.0
FLOOD_PAIRS = 3               # ring-on/ring-off floods in the traced run
PROBE_SECONDS = 3.0           # length of the traced run's open-loop probe
PROBE_CHUNK = 32              # events per write in that probe

# Which of an invocation's runs speaks for it.  Speeds and times take the
# best run: on this box a neighbour's load only ever slows a run down (it
# inflates CPU time too) and lasts minutes, so across ten invocations the
# best of 20-30 runs spread 2-9 % where their median spread 4-18 %
# (README, "Steadiness").  Memory is not disturbed that way and takes
# the median.
REPORTED = {"events_per_s": max, "cpu_us_per_event": min,
            "peak_rss_mb": statistics.median, "setup_s": min}


@functools.lru_cache(maxsize=None)
def load_benchmark_json() -> dict:
    """``BENCHMARK.json``: the one list of workloads, metrics, units and
    bounds.  The harness takes names and units from it and checks, on
    every run, that it computed exactly the metrics listed there."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        return json.load(fp)


def units(kind: str) -> Dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in load_benchmark_json()[kind]}


class ChildFailed(RuntimeError):
    """A measured run exited non-zero, timed out or printed no result."""


# -- child processes ------------------------------------------------------------------
def spawn_child(job: dict) -> dict:
    """Run one job in a fresh interpreter; returns its result record."""
    payload = pickle.dumps(job, pickle.HIGHEST_PROTOCOL)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), repr(time.time())],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        start_new_session=True)      # so a timeout can kill its workers too
    try:
        out, _ = proc.communicate(payload, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{job['entry']} run timed out") from None
    if proc.returncode != 0 or not out.strip():
        raise ChildFailed(
            f"{job['entry']} run exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def serve_job(inputs: workloads.Inputs, chunks: Sequence[bytes],
              chunk_events: int, rate: float,
              trace_buffer: Optional[int] = None) -> dict:
    return {
        "entry": "serve", "properties": inputs.properties,
        "chunks": chunks, "sent": len(inputs.events),
        "chunk_events": chunk_events, "rate": rate,
        "trace_buffer": trace_buffer,
        # what an open-loop run needs to time its violations
        "event_times": [e.time for e in inputs.events] if rate else None,
    }


def layers_job(inputs: workloads.Inputs) -> dict:
    w = inputs.workload
    return {"entry": "layers", "properties": inputs.properties,
            "events": inputs.events, "chunks": inputs.chunks, "fmt": w.fmt,
            "chunk_events": w.chunk_events, "sent": len(inputs.events),
            "run_id": f"{w.name}/seed{inputs.seed}"}


def end_to_end_job(inputs: workloads.Inputs) -> dict:
    w = inputs.workload
    if w.entry == "direct":
        return {"entry": "direct", "properties": inputs.properties,
                "events": inputs.events}
    if w.entry == "fabric":
        return {"entry": "fabric", "properties": inputs.properties,
                "events": inputs.events, "chunk_events": w.chunk_events}
    return serve_job(inputs, inputs.chunks, w.chunk_events, w.rate)


# -- reference and expectations -----------------------------------------------------
def reference_run(inputs: workloads.Inputs, **monitor_kwargs) -> dict:
    """What a plain in-process monitor makes of the inputs."""
    monitor = workloads.build_monitor(
        workloads.properties_for(inputs.properties), **monitor_kwargs)
    monitor.observe_batch(inputs.events)
    return {"violations": workloads.by_property(monitor.violations),
            "counters": workloads.counters_of(monitor.stats)}


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fp:
        return json.load(fp)


def pin_expected() -> None:
    """Rewrite ``expected.json`` from the default seed (README, "Pinning").

    Each workload's counts are taken from the default monitor and must
    equal the interpreted evaluator's — the oracle the differential
    suite trusts — before they are written.
    """
    pinned = {}
    for w in workloads.WORKLOADS:
        inputs = workloads.generate(w, DEFAULT_SEED)
        counts = reference_run(inputs)["violations"]
        oracle = reference_run(
            inputs, match_strategy="interpreted")["violations"]
        if counts != oracle:
            raise SystemExit(f"{w.name}: default {counts} != oracle {oracle}")
        pinned[w.name] = {"events": w.events, "digest": inputs.digest,
                          "violations": counts}
    with open(HERE / "expected.json", "w", encoding="utf-8") as fp:
        json.dump({"seed": DEFAULT_SEED, "verified_against": "interpreted",
                   "workloads": pinned}, fp, indent=2, sort_keys=True)
        fp.write("\n")


class Checks:
    """Output checks, each one counted."""

    def __init__(self) -> None:
        self.results: List[dict] = []

    def add(self, name: str, ok: bool, detail: object = None) -> None:
        entry = {"check": name, "ok": bool(ok)}
        if not ok:
            entry["detail"] = detail
        self.results.append(entry)

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.results)


def check_inputs(checks: Checks, inputs: workloads.Inputs, reference: dict,
                 expected: Optional[dict]) -> None:
    pinned = (expected or {}).get("workloads", {}).get(inputs.workload.name)
    if (pinned is None or inputs.seed != expected.get("seed")
            or pinned["events"] != len(inputs.events)):
        return      # another seed or size: the reference run is the oracle
    checks.add("inputs.digest", inputs.digest == pinned["digest"],
               {"got": inputs.digest, "pinned": pinned["digest"]})
    checks.add("reference.pinned_violations",
               reference["violations"] == pinned["violations"],
               {"got": reference["violations"],
                "pinned": pinned["violations"]})


def check_run(checks: Checks, label: str, run: dict, want: dict) -> None:
    """One child run against a reference run on the same events."""
    checks.add(f"{label}.violations",
               run["violations"] == want["violations"],
               {"got": run["violations"], "want": want["violations"]})
    checks.add(f"{label}.lost", run["lost"] == 0,
               {k: run.get(k) for k in
                ("sent", "accounted", "shed", "frame_errors")})
    if "frame_errors" in run:
        checks.add(f"{label}.frame_errors", run["frame_errors"] == 0,
                   run["frame_errors"])
    if "interval" in run:
        total = sum(want["violations"].values())
        lo, hi = run["interval"]
        checks.add(f"{label}.ledger_interval", lo <= total <= hi,
                   {"reference": total, "interval": run["interval"]})
    if "counters" in run:
        checks.add(f"{label}.counters", run["counters"] == want["counters"],
                   {"got": run["counters"], "want": want["counters"]})


# -- statistics ----------------------------------------------------------------------
def summarise(name: str, values: Sequence[float]) -> dict:
    out = {"value": REPORTED[name](values),
           "median": statistics.median(values), "n": len(values),
           "runs": list(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile; None without samples."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))      # ceil
    return ordered[int(rank) - 1]


# -- one workload, end to end ---------------------------------------------------------
def measure_end_to_end(workload: workloads.Workload, seed: int, seconds: float,
                       min_runs: int = MIN_RUNS,
                       expected: Optional[dict] = None) -> dict:
    t0 = time.perf_counter()
    inputs = workloads.generate(workload, seed)
    prepare_s = time.perf_counter() - t0
    reference = reference_run(inputs)
    checks = Checks()
    check_inputs(checks, inputs, reference, expected)

    job = end_to_end_job(inputs)
    runs: List[dict] = []
    started = time.monotonic()
    while len(runs) < min_runs or time.monotonic() - started < seconds:
        run = spawn_child(job)
        check_run(checks, f"run{len(runs)}", run, reference)
        runs.append(run)

    per_run = {
        "events_per_s": [r["accounted"] / r["wall_s"] for r in runs],
        "cpu_us_per_event": [1e6 * r["cpu_s"] / max(1, r["accounted"])
                             for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
    }
    listed = units("end_to_end")
    checks.add("end_to_end.names", set(per_run) == set(listed),
               sorted(set(per_run) ^ set(listed)))
    metrics = {name: dict(summarise(name, values), unit=listed.get(name))
               for name, values in per_run.items()}
    extras = {"bench.gen.prepare_s": prepare_s,
              "child_prepare_s": statistics.median(
                  r["prepare_s"] for r in runs)}
    detect = [x for r in runs for x in r.get("detect_ms", ())]
    if detect:      # open loop: recorded here, reported by the traced run
        extras.update(detect_p50_ms=percentile(detect, 50),
                      detect_p95_ms=percentile(detect, 95),
                      detect_samples=len(detect))
    return {
        "workload": workload.name, "seed": seed, "trace": 0,
        "events": len(inputs.events), "digest": inputs.digest,
        "correct": checks.ok, "checks": checks.results,
        "attempted": sum(r["sent"] for r in runs),
        "failed": sum(r["lost"] for r in runs),
        "metrics": metrics, "extras": extras,
    }


# -- one workload, layer by layer -------------------------------------------------------
def measure_layers(workload: workloads.Workload, seed: int,
                   probe_seconds: float = PROBE_SECONDS,
                   expected: Optional[dict] = None) -> dict:
    t0 = time.perf_counter()
    inputs = workloads.generate(workload, seed)
    prepare_s = time.perf_counter() - t0
    events = inputs.events
    count = len(events)
    reference = reference_run(inputs)
    checks = Checks()
    check_inputs(checks, inputs, reference, expected)
    degraded: Dict[str, str] = {}
    attempted = failed = 0

    def account(run: dict) -> dict:
        nonlocal attempted, failed
        attempted += run["sent"]
        failed += run.get("lost", 0)
        return run

    layer = account(spawn_child(layers_job(inputs)))
    metrics: Dict[str, Optional[float]] = dict(layer["metrics"])
    degraded.update(layer["degraded"])
    for label, violations in layer["checks"].items():
        checks.add(f"layers.{label}.violations",
                   violations == reference["violations"],
                   {"got": violations, "want": reference["violations"]})
    checks.add("bench.trace.coverage",
               metrics["bench.trace.coverage"] >= layers.COVERAGE_FLOOR,
               metrics["bench.trace.coverage"])

    def optional(label: str, names: Sequence[str], job: dict,
                 want: dict = reference) -> Optional[dict]:
        try:
            run = account(spawn_child(job))
        except ChildFailed as exc:
            for name in names:
                degraded[name] = str(exc)
                metrics[name] = None
            return None
        check_run(checks, label, run, want)
        return run

    # The daemon on this traffic: floods as shipped and with the /trace
    # ring off, taken in alternation (the quicker of each kind counts, as
    # for the end-to-end metrics), and an open-loop run below.
    flood = serve_job(inputs, inputs.chunks, workload.chunk_events, 0.0)
    flood_names = ("serve.daemon.residual", "serve.daemon.trace_ring",
                   "serve.ingest.queue_peak_depth")
    floods = [optional(f"serve_flood{k}", flood_names, job)
              for k, job in enumerate(
                  (flood, dict(flood, trace_buffer=0)) * FLOOD_PAIRS)]
    errors = 0
    if None not in floods:
        errors += sum(run["frame_errors"] for run in floods)
        with_ring, without = (
            1e6 * min(run["wall_s"] for run in kind) / count
            for kind in (floods[0::2], floods[1::2]))
        metrics["serve.ingest.queue_peak_depth"] = max(
            run["queue_peak_depth"] for run in floods[0::2])
        metrics["serve.daemon.trace_ring"] = with_ring - without
        # Whatever the flood costs beyond the staged decode + queue +
        # match (+ what the registry adds to the match): sockets,
        # asyncio, the dispatch loop.  A stage that degraded is not
        # priced, so its cost stays in the residual.
        staged = (layer["decode_us"], metrics["serve.ingest.queue"],
                  metrics["core.monitor.default"],
                  metrics["telemetry.registry"])
        metrics["serve.daemon.residual"] = without - sum(
            us for us in staged if us is not None)

    rate = workload.rate or workload.probe_rate
    paced_count = min(count, int(rate * probe_seconds))
    paced_count -= paced_count % PROBE_CHUNK
    paced_count = max(PROBE_CHUNK, paced_count)
    head = workloads.Inputs(
        workload=workload, seed=seed, digest="", events=events[:paced_count],
        properties=inputs.properties)
    paced_names = (
        "serve.daemon.detect_p50_ms", "serve.daemon.detect_p95_ms",
        "serve.daemon.detect_p99_ms", "serve.daemon.detect_samples",
        "serve.ingest.dwell_mean_ms", "bench.gen.late_p95_ms",
        "bench.gen.achieved_rate")
    paced = optional("serve_paced", paced_names, serve_job(
        head, workloads.wire_chunks(head.events, workload.fmt, PROBE_CHUNK),
        PROBE_CHUNK, rate), want=reference_run(head))
    if paced is not None:
        errors += paced["frame_errors"]
        detect = paced["detect_ms"]
        metrics.update({
            "serve.daemon.detect_p50_ms": percentile(detect, 50),
            "serve.daemon.detect_p95_ms": percentile(detect, 95),
            "serve.daemon.detect_p99_ms": percentile(detect, 99),
            "serve.daemon.detect_samples": len(detect),
            "serve.ingest.dwell_mean_ms": paced["dwell_mean_ms"],
            "bench.gen.late_p95_ms": percentile(paced["late_ms"], 95),
            "bench.gen.achieved_rate": paced["achieved_rate"],
        })
    metrics["serve.ingest.frame_errors"] = errors

    mp2 = optional("fabric_mp2", ("fabric.mp.mp2", "fabric.mp.spawn_ms"), {
        "entry": "fabric", "properties": inputs.properties, "events": events,
        "chunk_events": workloads.FABRIC_STEP})
    if mp2 is not None:
        metrics["fabric.mp.mp2"] = 1e6 * mp2["wall_s"] / count
        metrics["fabric.mp.spawn_ms"] = mp2["spawn_ms"]
    metrics["bench.gen.prepare_s"] = prepare_s

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace_{workload.name}.json"
    with open(trace_path, "w", encoding="utf-8") as fp:
        json.dump({"workload": workload.name, "seed": seed,
                   "spans": layer["spans"]}, fp)

    listed = units("per_layer")
    checks.add("per_layer.names", set(metrics) == set(listed),
               sorted(set(metrics) ^ set(listed)))
    reported = {}
    for name, unit in listed.items():
        value = metrics.get(name)
        if value is None and name not in degraded:
            degraded[name] = "no samples"
        reported[name] = {"value": value, "unit": unit}
    return {
        "workload": workload.name, "seed": seed, "trace": 1,
        "events": count, "digest": inputs.digest,
        "correct": checks.ok, "checks": checks.results,
        "attempted": attempted, "failed": failed,
        "metrics": reported, "degraded": degraded,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


# -- output -----------------------------------------------------------------------------
def contract_line(outcome: dict) -> str:
    """The one-line result a driver reads.  Every metric is a number: a
    degraded probe prints 0 here and ``null`` plus its reason in the
    record (README, "Degraded probes")."""
    metrics = {
        name: {"value": 0.0 if m["value"] is None else m["value"],
               "unit": m["unit"]}
        for name, m in outcome["metrics"].items()}
    return json.dumps({
        "correct": outcome["correct"], "attempted": outcome["attempted"],
        "failed": outcome["failed"], "metrics": metrics})


def print_outcome(outcome: dict) -> None:
    head = (f"== {outcome['workload']}  seed={outcome['seed']}  "
            f"trace={outcome['trace']}  events={outcome['events']}")
    print(head)
    for name, m in outcome["metrics"].items():
        if m["value"] is None:
            print(f"  {name:42s} null  ({outcome['degraded'][name]})")
            continue
        line = f"  {name:42s} {m['value']:14.4f} {m['unit']}"
        if "q1" in m:
            line += (f"   [median {m['median']:.4f}  q1 {m['q1']:.4f}  "
                     f"q3 {m['q3']:.4f}  n={m['n']}]")
        print(line)
    for name, value in outcome.get("extras", {}).items():
        print(f"  ({name} = {value:.4f})")
    bad = [c for c in outcome["checks"] if not c["ok"]]
    print(f"  checks: {len(outcome['checks']) - len(bad)} ok, {len(bad)} "
          f"failed; attempted {outcome['attempted']}, "
          f"failed {outcome['failed']}")
    for check in bad:
        print(f"  FAILED {check['check']}: {check.get('detail')}")


def _commit() -> Optional[str]:
    """HEAD's commit id, read from ``.git`` by hand (no subprocess, and
    nothing outside the checkout); None where there is no repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "commit": _commit(),
        "loadavg": list(os.getloadavg()),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_record(payload: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"run_{time.strftime('%Y%m%dT%H%M%S')}_{os.getpid()}.json"
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2)
        fp.write("\n")
    return path


def compare_sets(first: Dict[str, dict], second: Dict[str, dict],
                 spec: dict) -> List[dict]:
    """Per metric × workload: do two sets of runs of the same code agree
    within the benchmark's own bound?  A workload ``BENCHMARK.json`` does
    not list is compared too, but not gated (README, "Workloads")."""
    gated = {w["name"] for w in spec["workloads"]}
    rows = []
    for name, a in first.items():
        b = second[name]
        for m in spec["end_to_end"]:
            x, y = (s["metrics"][m["name"]]["value"] for s in (a, b))
            rows.append({"workload": name, "metric": m["name"], "first": x,
                         "second": y, "bound": m["bound"],
                         "gated": name in gated,
                         "agree": abs(y - x) <= m["bound"] * x})
    return rows


def run_everything(seed: int, seconds: float, aa: bool) -> int:
    expected = load_expected()
    spec = load_benchmark_json()
    sets = []
    for _ in range(2 if aa else 1):
        current = {}
        for w in workloads.WORKLOADS:
            current[w.name] = measure_end_to_end(
                w, seed, seconds, expected=expected)
            print_outcome(current[w.name])
        sets.append(current)
    layers = {}
    for w in workloads.WORKLOADS:
        layers[w.name] = measure_layers(w, seed, expected=expected)
        print_outcome(layers[w.name])
    outcomes = [o for s in sets for o in s.values()] + list(layers.values())
    correct = all(o["correct"] and o["failed"] == 0 for o in outcomes)
    summary = {
        "correct": correct, "seed": seed,
        "workloads": {
            name: {m: v["value"] for m, v in o["metrics"].items()}
            for name, o in sets[0].items()},
    }
    if aa:
        rows = compare_sets(sets[0], sets[1], spec)
        print("== A/A: two sets of runs of the same code")
        for row in rows:
            print(f"  {row['workload']:22s} {row['metric']:18s} "
                  f"{row['first']:12.4f} {row['second']:12.4f}  "
                  f"bound {row['bound']:.2f}  "
                  f"{'agree' if row['agree'] else 'DISAGREE'}"
                  f"{'' if row['gated'] else '  (not gated)'}")
        summary["aa_agree"] = all(
            row["agree"] for row in rows if row["gated"])
        summary["aa"] = rows
    summary["claim"] = None
    record = write_record({
        "fingerprint": fingerprint(), "seconds": seconds, "sets": sets,
        "layers": layers, "summary": summary})
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0 if correct and summary.get("aa_agree", True) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one workload is measured "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true",
                        help="all workloads, two sets, compared")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None \
        else float(load_benchmark_json()["run_seconds"])
    if args.workload is None:
        return run_everything(args.seed, seconds, args.aa)
    workload = workloads.BY_NAME[args.workload]
    expected = load_expected()
    if args.trace:
        outcome = measure_layers(workload, args.seed, expected=expected)
    else:
        outcome = measure_end_to_end(
            workload, args.seed, seconds, expected=expected)
    print_outcome(outcome)
    write_record({"fingerprint": fingerprint(), "seconds": seconds,
                  "outcome": outcome})
    print(contract_line(outcome))
    return 0 if outcome["correct"] and outcome["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
