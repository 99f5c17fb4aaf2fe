#!/usr/bin/env python3
"""Summarize and validate FTMS observability artifacts: the Chrome trace
JSON that `ftms report --chrome` renders, Prometheus text, and the QoS
event journal (JSONL).

Usage:
    tools/trace_summary.py TRACE.json             # per-category totals
    tools/trace_summary.py TRACE.json --check     # validate, exit nonzero
    tools/trace_summary.py TRACE.json --check --prom METRICS.prom
    tools/trace_summary.py --journal JOURNAL.jsonl   # validate + per-kind
                                                     # counts (trace optional)
    tools/trace_summary.py --timeseries TS.json      # validate a
                                                     # FTMS_TIMESERIES_OUT dump
    tools/trace_summary.py --scrape FILE             # validate a telemetry
                                                     # scrape (/metrics or /vars)

Summary mode prints, per event category (journal, degraded_transition,
rebuild, series), the span count, total simulated microseconds, and the
instant and counter-sample counts, plus per-track span totals.

--check validates:
  * the file is well-formed JSON with a traceEvents list;
  * every event has the required fields (name, ph, ts, tid; dur on 'X');
  * timestamps and durations are non-negative numbers;
  * every counter sample ('C') has an args object of finite numbers;
  * per track (pid, tid), complete spans nest monotonically: sorted by
    start time, each span either starts at-or-after the previous one
    ends, or lies entirely within it (no partial overlap).

--prom FILE additionally validates Prometheus exposition text: every
non-comment line is `name{labels} value` (or `name value`) with a finite
numeric value, and every sample's family has a preceding # TYPE line.

--journal FILE validates a QoS event journal (one JSON object per line,
as written by EventJournal::WriteJsonl / FTMS_QOS_OUT):
  * every line parses as a JSON object with exactly the fields
    kind/scheme/sim_us/cycle/disk/cluster/stream/value;
  * kind is one of the known semantic event kinds and scheme is one of
    SR/SG/NC/IB (dual-parity SR2/NC2, and "sim" for the ring-cap
    journal_dropped footer);
  * sim_us never runs backwards within a scheme's run — a decrease is
    only allowed together with a cycle reset (a fresh rig reusing the
    journal), never mid-run.
It then prints per-kind event counts.

--timeseries FILE validates a time-series dump (as written by
TimeSeriesRecorder::WriteJson / FTMS_TIMESERIES_OUT):
  * the top level is an object with a "series" object;
  * every series has an integer stride >= 1 and t/v arrays of equal
    length;
  * timestamps are strictly increasing integers and values are finite.
It then prints per-series point counts.

--scrape FILE validates a saved scrape from the live telemetry exporter,
auto-detecting the document type: a body starting with '{' is checked as
a /vars JSON document (schema tag, required blocks, finite numbers in the
metrics object); anything else is checked as Prometheus exposition text
exactly like --prom.

Exit status: 0 = ok, 1 = validation failure, 2 = usage / file error.
"""

import argparse
import json
import math
import re
import sys
from collections import defaultdict

SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9.eE+-]+|NaN|[+-]?Inf)$"
)


def fail(msg):
    print(f"trace_summary: {msg}", file=sys.stderr)
    return False


def check_events(events):
    ok = True
    spans_by_track = defaultdict(list)
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            ok = fail(f"event {i} is not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "C", "M"):
            ok = fail(f"event {i}: unknown phase {ph!r}")
            continue
        if ph == "M":
            continue  # metadata (process_name, thread_name) records
        for field in ("name", "ts", "tid"):
            if field not in ev:
                ok = fail(f"event {i} ({ev.get('name')!r}): missing {field!r}")
        ts = ev.get("ts", 0)
        if not isinstance(ts, (int, float)) or ts < 0:
            ok = fail(f"event {i} ({ev.get('name')!r}): bad ts {ts!r}")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) for v in args.values()):
                ok = fail(f"event {i} ({ev.get('name')!r}): counter args "
                          f"{args!r} are not finite numbers")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                ok = fail(f"event {i} ({ev.get('name')!r}): bad dur {dur!r}")
            else:
                spans_by_track[(ev.get("pid"), ev.get("tid"))].append(
                    (ts, ts + dur, i))
    # Monotone nesting per track: with spans sorted by start, each one
    # either follows the previous span or nests fully inside an open one.
    for track, spans in spans_by_track.items():
        spans.sort()
        stack = []  # end times of open enclosing spans
        for start, end, idx in spans:
            while stack and start >= stack[-1]:
                stack.pop()
            if stack and end > stack[-1]:
                ok = fail(
                    f"track {track}: span at event {idx} "
                    f"[{start}, {end}) partially overlaps an enclosing "
                    f"span ending at {stack[-1]}"
                )
                continue
            stack.append(end)
    return ok


# Wire names from QosEventKindName (src/qos/event_journal.cc); the JSONL
# format pins these, so an unknown kind means writer/validator skew.
JOURNAL_KINDS = {
    "disk_failed",
    "disk_repaired",
    "degraded_transition_start",
    "degraded_transition_end",
    "rebuild_start",
    "rebuild_progress",
    "rebuild_done",
    "hiccups",
    "admission_rejected",
    "slo_breach",
    "sim_horizon",
    # Ring-cap truncation footer appended by EventJournal::WriteJsonl.
    "journal_dropped",
}
JOURNAL_FIELDS = (
    "kind", "scheme", "sim_us", "cycle", "disk", "cluster", "stream", "value"
)
JOURNAL_SCHEMES = {"SR", "SG", "NC", "IB", "SR2", "NC2", "sim"}


def check_journal(path):
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as err:
        print(f"trace_summary: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    ok = True
    counts = defaultdict(int)
    # Per scheme: (sim_us, cycle) of the last event, for monotonicity.
    last = {}
    events = 0
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as err:
            ok = fail(f"{path}:{lineno}: not JSON: {err}")
            continue
        if not isinstance(ev, dict):
            ok = fail(f"{path}:{lineno}: not a JSON object")
            continue
        events += 1
        missing = [f for f in JOURNAL_FIELDS if f not in ev]
        extra = sorted(set(ev) - set(JOURNAL_FIELDS))
        if missing:
            ok = fail(f"{path}:{lineno}: missing field(s) {missing}")
        if extra:
            ok = fail(f"{path}:{lineno}: unexpected field(s) {extra}")
        kind = ev.get("kind")
        if kind not in JOURNAL_KINDS:
            ok = fail(f"{path}:{lineno}: unknown kind {kind!r}")
        else:
            counts[kind] += 1
        scheme = ev.get("scheme")
        if scheme not in JOURNAL_SCHEMES:
            ok = fail(f"{path}:{lineno}: unknown scheme {scheme!r}")
            continue
        for field in ("sim_us", "cycle", "disk", "cluster", "stream",
                      "value"):
            v = ev.get(field)
            if not isinstance(v, int):
                ok = fail(
                    f"{path}:{lineno}: field {field!r} is {v!r}, "
                    f"expected an integer"
                )
        sim_us, cycle = ev.get("sim_us"), ev.get("cycle")
        if isinstance(sim_us, int) and isinstance(cycle, int):
            prev = last.get(scheme)
            # sim_us may only run backwards at a block boundary, where the
            # cycle counter resets too (a fresh rig appending to the same
            # journal); mid-run it must be monotone.
            if prev is not None and sim_us < prev[0] and cycle >= prev[1]:
                ok = fail(
                    f"{path}:{lineno}: sim_us runs backwards "
                    f"({prev[0]} -> {sim_us}) within a {scheme} run "
                    f"(cycle {prev[1]} -> {cycle})"
                )
            last[scheme] = (sim_us, cycle)
    if events == 0:
        ok = fail(f"{path}: no events")
    if ok:
        print(f"{path}: {events} events ok")
        for kind in sorted(counts):
            print(f"  {kind:<26} {counts[kind]:>8}")
    return ok


def check_timeseries(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"trace_summary: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    ok = True
    series = doc.get("series") if isinstance(doc, dict) else None
    if not isinstance(series, dict):
        return fail(f"{path}: no 'series' object")
    for name, s in series.items():
        if not isinstance(s, dict):
            ok = fail(f"{path}: series {name!r} is not an object")
            continue
        stride = s.get("stride")
        if not isinstance(stride, int) or stride < 1:
            ok = fail(f"{path}: series {name!r}: bad stride {stride!r}")
        t, v = s.get("t"), s.get("v")
        if not isinstance(t, list) or not isinstance(v, list):
            ok = fail(f"{path}: series {name!r}: t/v are not arrays")
            continue
        if len(t) != len(v):
            ok = fail(
                f"{path}: series {name!r}: {len(t)} timestamps vs "
                f"{len(v)} values"
            )
        for i, ts in enumerate(t):
            if not isinstance(ts, int):
                ok = fail(f"{path}: series {name!r}: t[{i}] = {ts!r} is "
                          f"not an integer")
            elif i > 0 and isinstance(t[i - 1], int) and ts <= t[i - 1]:
                ok = fail(
                    f"{path}: series {name!r}: t[{i}] = {ts} does not "
                    f"increase (prev {t[i - 1]})"
                )
        for i, val in enumerate(v):
            if not isinstance(val, (int, float)) or isinstance(val, bool) \
                    or math.isnan(val) or math.isinf(val):
                ok = fail(f"{path}: series {name!r}: v[{i}] = {val!r} is "
                          f"not a finite number")
    if not series:
        ok = fail(f"{path}: empty series object")
    if ok:
        print(f"{path}: {len(series)} series ok")
        for name in sorted(series):
            print(f"  {name:<36} {len(series[name].get('t', [])):>8} points"
                  f"  (stride {series[name].get('stride')})")
    return ok


def check_prometheus(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as err:
        print(f"trace_summary: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    ok = True
    typed = set()
    samples = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) >= 4:
                typed.add(parts[2])
            else:
                ok = fail(f"{path}:{lineno}: malformed # TYPE line")
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            ok = fail(f"{path}:{lineno}: unparseable sample: {line!r}")
            continue
        samples += 1
        try:
            value = float(m.group(3))
        except ValueError:
            ok = fail(f"{path}:{lineno}: bad value {m.group(3)!r}")
            continue
        if math.isnan(value) or math.isinf(value):
            ok = fail(f"{path}:{lineno}: non-finite value {value}")
        name = m.group(1)
        # A histogram sample's family drops the _bucket/_sum/_count suffix.
        family_candidates = {name}
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                family_candidates.add(name[: -len(suffix)])
        if not family_candidates & typed:
            ok = fail(f"{path}:{lineno}: sample {name!r} has no # TYPE")
    if samples == 0:
        ok = fail(f"{path}: no samples")
    if ok:
        print(f"{path}: {samples} samples ok")
    return ok


VARS_SCHEMA = "ftms.telemetry.vars.v1"
# Top-level blocks every /vars document carries ("metrics" is optional:
# it only appears when a registry is attached).
VARS_REQUIRED = ("schema", "seq", "sim_us", "cycle", "ready", "status_line",
                 "rebuild", "clusters", "slo_burn", "qos")


def check_vars(path, doc):
    ok = True
    missing = [k for k in VARS_REQUIRED if k not in doc]
    if missing:
        ok = fail(f"{path}: missing key(s) {missing}")
    if doc.get("schema") != VARS_SCHEMA:
        ok = fail(f"{path}: schema is {doc.get('schema')!r}, "
                  f"expected {VARS_SCHEMA!r}")
    for key in ("seq", "sim_us", "cycle"):
        if key in doc and not isinstance(doc[key], int):
            ok = fail(f"{path}: {key!r} is {doc[key]!r}, expected an integer")
    if "ready" in doc and not isinstance(doc["ready"], bool):
        ok = fail(f"{path}: 'ready' is {doc['ready']!r}, expected a bool")
    rebuild = doc.get("rebuild")
    if rebuild is not None and (
            not isinstance(rebuild, dict)
            or not {"active", "disk", "progress"} <= set(rebuild)):
        ok = fail(f"{path}: 'rebuild' lacks active/disk/progress")
    clusters = doc.get("clusters")
    if clusters is not None:
        if not isinstance(clusters, list):
            ok = fail(f"{path}: 'clusters' is not an array")
        else:
            for i, c in enumerate(clusters):
                if not isinstance(c, dict) or \
                        not {"cluster", "util", "failed"} <= set(c):
                    ok = fail(f"{path}: clusters[{i}] lacks "
                              f"cluster/util/failed")
    metrics = doc.get("metrics")
    if metrics is not None:
        if not isinstance(metrics, dict):
            ok = fail(f"{path}: 'metrics' is not an object")
        else:
            for name, value in metrics.items():
                if isinstance(value, bool) or not \
                        isinstance(value, (int, float)) or \
                        math.isnan(value) or math.isinf(value):
                    ok = fail(f"{path}: metrics[{name!r}] = {value!r} is "
                              f"not a finite number")
    if ok:
        print(f"{path}: /vars document ok (seq {doc.get('seq')}, "
              f"{len(doc.get('metrics', {}))} metrics, "
              f"{len(doc.get('clusters', []))} clusters)")
    return ok


def check_scrape(path):
    """Validate a saved exporter scrape, auto-detecting its format."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as err:
        print(f"trace_summary: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            return fail(f"{path}: not JSON: {err}")
        return check_vars(path, doc)
    return check_prometheus(path)


def summarize(events):
    processes, tracks = {}, {}
    for ev in events:
        if ev.get("ph") != "M":
            continue
        name = ev.get("args", {}).get("name", "?")
        if ev.get("name") == "process_name":
            processes[ev.get("pid")] = name
        elif ev.get("name") == "thread_name":
            tracks[(ev.get("pid"), ev.get("tid"))] = name
    # spans, sim_us, instants, counter samples
    per_cat = defaultdict(lambda: [0, 0.0, 0, 0])
    per_track = defaultdict(lambda: [0, 0.0])
    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            continue
        cat = ev.get("cat", "?")
        if ph == "X":
            track = (ev.get("pid"), ev.get("tid"))
            per_cat[cat][0] += 1
            per_cat[cat][1] += ev.get("dur", 0)
            per_track[track][0] += 1
            per_track[track][1] += ev.get("dur", 0)
        elif ph == "C":
            per_cat[cat][3] += 1
        else:
            per_cat[cat][2] += 1
    print(f"{'category':<20} {'spans':>8} {'sim_ms':>12} {'instants':>9} "
          f"{'samples':>8}")
    for cat in sorted(per_cat):
        spans, sim_us, instants, samples = per_cat[cat]
        print(f"{cat:<20} {spans:>8} {sim_us / 1000.0:>12.3f} {instants:>9} "
              f"{samples:>8}")
    print()
    print(f"{'track':<44} {'spans':>8} {'sim_ms':>12}")
    for pid, tid in sorted(per_track, key=lambda t: tuple(
            x if isinstance(x, int) else -1 for x in t)):
        spans, sim_us = per_track[(pid, tid)]
        name = (f"{processes.get(pid, f'pid {pid}')} / "
                f"{tracks.get((pid, tid), f'tid {tid}')}")
        print(f"{name:<44} {spans:>8} {sim_us / 1000.0:>12.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "trace", nargs="?", help="Chrome trace JSON file (optional when "
        "only --journal is given)"
    )
    parser.add_argument(
        "--check", action="store_true", help="validate instead of summarize"
    )
    parser.add_argument(
        "--prom", metavar="FILE", help="also validate Prometheus text FILE"
    )
    parser.add_argument(
        "--journal", metavar="FILE",
        help="also validate a QoS event journal (JSONL) FILE"
    )
    parser.add_argument(
        "--timeseries", metavar="FILE",
        help="also validate a time-series dump (FTMS_TIMESERIES_OUT) FILE"
    )
    parser.add_argument(
        "--scrape", metavar="FILE", action="append", default=[],
        help="also validate a saved telemetry scrape (/metrics Prometheus "
        "text or /vars JSON, auto-detected); repeatable"
    )
    args = parser.parse_args()

    if args.trace is None:
        if not args.journal and not args.timeseries and not args.scrape:
            parser.error(
                "need a trace file, --journal FILE, --timeseries FILE, "
                "and/or --scrape FILE"
            )
        ok = True
        if args.journal:
            ok = check_journal(args.journal) and ok
        if args.timeseries:
            ok = check_timeseries(args.timeseries) and ok
        if args.prom:
            ok = check_prometheus(args.prom) and ok
        for scrape in args.scrape:
            ok = check_scrape(scrape) and ok
        return 0 if ok else 1

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"trace_summary: cannot read {args.trace}: {err}",
              file=sys.stderr)
        return 2
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        print(f"trace_summary: {args.trace} has no traceEvents list",
              file=sys.stderr)
        return 1

    if args.check:
        ok = check_events(events)
        if args.prom:
            ok = check_prometheus(args.prom) and ok
        if args.journal:
            ok = check_journal(args.journal) and ok
        if args.timeseries:
            ok = check_timeseries(args.timeseries) and ok
        for scrape in args.scrape:
            ok = check_scrape(scrape) and ok
        if not ok:
            return 1
        real = sum(1 for e in events if e.get("ph") != "M")
        print(f"{args.trace}: {real} events ok")
        return 0

    summarize(events)
    ok = True
    if args.prom:
        ok = check_prometheus(args.prom) and ok
    if args.journal:
        ok = check_journal(args.journal) and ok
    if args.timeseries:
        ok = check_timeseries(args.timeseries) and ok
    for scrape in args.scrape:
        ok = check_scrape(scrape) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
