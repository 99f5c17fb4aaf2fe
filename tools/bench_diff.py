#!/usr/bin/env python3
"""Diff two BENCH_*.json perf snapshots and flag regressions.

Usage:
    tools/bench_diff.py BASELINE.json CURRENT.json [--threshold PCT]

Metric direction is inferred from the key name: throughput-style keys
(*_per_sec, *_per_s, *_mb_per_s, *_gbps — the parity-kernel bench
reports GB/s, the farm bench MB/s) are better when higher; time-style
keys (wall_s, *_s, *_seconds) are better when lower; anything else
(counts, thread counts) is informational and compared for drift only,
never flagged.

Schema v4 snapshots recorded with FTMS_PROF=1 embed a "profile" tree;
scope call counts are diffed informationally (a count change means the
workload changed shape), and when a guarded metric regresses the top-3
top-level subtrees by wall-time delta are printed to localize it.

Exit status: 0 = no regression beyond the threshold, 1 = at least one
regression, 2 = usage / file error.
"""

import argparse
import json
import sys


def metric_direction(key):
    """Returns 'higher', 'lower', or None (informational)."""
    # _mb_per_s before the _s time suffix: "..._mb_per_s" is throughput,
    # not a duration, despite also ending in "_s".
    if key.endswith(("_per_sec", "_per_s", "_mb_per_s", "_gbps")):
        return "higher"
    if key == "wall_s" or key.endswith("_s") or key.endswith("_seconds"):
        return "lower"
    return None


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_diff: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        print(f"bench_diff: {path} has no 'metrics' object", file=sys.stderr)
        sys.exit(2)
    return doc.get("bench", "?"), doc.get("schema_version"), metrics, doc


def flatten_profile(doc):
    """Flattens a schema-v4 'profile' tree into {path: (count, wall_us)}.

    Paths join nested scope names with ' > '; preorder, so a path's
    prefix is always its enclosing scope. Returns {} when the run had no
    profiler (FTMS_PROF unset) or the block is malformed.
    """
    profile = doc.get("profile")
    if not isinstance(profile, dict):
        return {}
    flat = {}

    def walk(nodes, prefix):
        for node in nodes:
            if not isinstance(node, dict) or "name" not in node:
                continue
            path = f"{prefix} > {node['name']}" if prefix else node["name"]
            flat[path] = (
                int(node.get("count", 0)),
                float(node.get("wall_us", 0.0)),
            )
            walk(node.get("children", []), path)

    walk(profile.get("nodes", []), "")
    return flat


def attribute_regressions(base_doc, cur_doc):
    """Prints the top-3 profile subtrees by wall-time delta.

    Called only when a guarded metric regressed: the per-subsystem wall
    deltas point at which subtree ate the lost time. Attribution needs
    both runs profiled (FTMS_PROF=1); says so and returns otherwise.
    """
    base_prof = flatten_profile(base_doc)
    cur_prof = flatten_profile(cur_doc)
    if not base_prof or not cur_prof:
        print("profile: no attribution possible (rerun both sides with "
              "FTMS_PROF=1 to localize the regression)")
        return
    # Top-level subtrees only: child deltas are already inside their
    # parent's wall time, so mixing depths would double-count.
    deltas = []
    for path in sorted(set(base_prof) | set(cur_prof)):
        if " > " in path:
            continue
        b = base_prof.get(path, (0, 0.0))[1]
        c = cur_prof.get(path, (0, 0.0))[1]
        deltas.append((c - b, path, b, c))
    deltas.sort(reverse=True)
    print("top subsystems by wall-time delta (current - baseline):")
    for delta, path, b, c in deltas[:3]:
        print(f"  {path:<24} {b / 1000.0:>10.3f} ms -> {c / 1000.0:>10.3f} "
              f"ms  ({delta / 1000.0:+.3f} ms)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="regression threshold in percent (default: 10)",
    )
    args = parser.parse_args()

    base_name, base_schema, base, base_doc = load(args.baseline)
    cur_name, cur_schema, cur, cur_doc = load(args.current)
    if base_schema != cur_schema:
        print(
            f"bench_diff: schema v{base_schema} vs v{cur_schema}; metrics "
            f"are not comparable across schemas -- regenerate the baseline "
            f"with the current binaries (v2 added the env/registry blocks, "
            f"v3 the qos block, v4 the profile/timeseries blocks)",
            file=sys.stderr,
        )
        return 2
    if base_name != cur_name:
        print(
            f"note: comparing different benches ({base_name} vs {cur_name})"
        )

    # The event-queue implementation (env.event_queue, from
    # FTMS_EVENT_QUEUE) changes what simulator-bound timings mean; a
    # heap-pinned snapshot is not a baseline for a calendar run. Older v3
    # snapshots without the key are treated as the engine default.
    base_queue = (base_doc.get("env") or {}).get("event_queue", "calendar")
    cur_queue = (cur_doc.get("env") or {}).get("event_queue", "calendar")
    if base_queue != cur_queue:
        print(
            f"bench_diff: event queue mismatch ({base_queue} vs "
            f"{cur_queue}); rerun with the same FTMS_EVENT_QUEUE on both "
            f"sides",
            file=sys.stderr,
        )
        return 2

    # Likewise the kernel pin (env.pq_kernel, from FTMS_PQ_KERNEL, which
    # runs both the XOR and the P+Q fold) changes what the parity-bound
    # numbers mean: a scalar-pinned snapshot is not a baseline for a
    # dispatched run. Snapshots without the key ran the auto-dispatcher;
    # an env.xor_kernel key, which some snapshots carry, is not read.
    base_kernel = (base_doc.get("env") or {}).get("pq_kernel", "auto")
    cur_kernel = (cur_doc.get("env") or {}).get("pq_kernel", "auto")
    if base_kernel != cur_kernel:
        print(
            f"bench_diff: pq_kernel mismatch ({base_kernel} vs "
            f"{cur_kernel}); rerun with the same FTMS_PQ_KERNEL on both "
            f"sides",
            file=sys.stderr,
        )
        return 2

    regressions = []
    print(f"{'metric':<24} {'baseline':>14} {'current':>14} {'delta':>9}")
    for key in base:
        if key not in cur:
            print(f"{key:<24} {base[key]:>14g} {'(gone)':>14}")
            continue
        b, c = float(base[key]), float(cur[key])
        delta_pct = (c - b) / b * 100.0 if b != 0 else float("inf")
        direction = metric_direction(key)
        flag = ""
        if direction == "higher" and delta_pct < -args.threshold:
            flag = "  << REGRESSION"
            regressions.append(key)
        elif direction == "lower" and delta_pct > args.threshold:
            flag = "  << REGRESSION"
            regressions.append(key)
        print(f"{key:<24} {b:>14g} {c:>14g} {delta_pct:>+8.1f}%{flag}")
    for key in cur:
        if key not in base:
            print(f"{key:<24} {'(new)':>14} {cur[key]:>14g}")

    # The registry block (schema >= 2, runs with FTMS_METRICS=1) is purely
    # informational: counters drift with workload changes, so drift is
    # reported but never flagged. Missing or empty blocks are normal —
    # zero-cost-off runs (FTMS_METRICS unset) simply don't embed one.
    base_reg = base_doc.get("registry")
    cur_reg = cur_doc.get("registry")
    if not base_reg and not cur_reg:
        pass  # neither run had the registry live; nothing to compare
    elif not isinstance(base_reg, dict) or not isinstance(cur_reg, dict):
        have = "current" if isinstance(cur_reg, dict) else "baseline"
        print(f"\nregistry: only the {have} run embedded a registry block "
              f"(FTMS_METRICS off on the other side); skipping")
    else:
        changed = [
            k
            for k in sorted(set(base_reg) | set(cur_reg))
            if base_reg.get(k) != cur_reg.get(k)
        ]
        print(f"\nregistry: {len(changed)} of "
              f"{len(set(base_reg) | set(cur_reg))} series changed")
        for k in changed[:20]:
            print(f"  {k}: {base_reg.get(k)} -> {cur_reg.get(k)}")
        if len(changed) > 20:
            print(f"  ... and {len(changed) - 20} more")

    # The qos block (schema >= 3, runs with FTMS_QOS=1) holds per-kind
    # journal event counts; like the registry it is informational only.
    base_qos = base_doc.get("qos")
    cur_qos = cur_doc.get("qos")
    if isinstance(base_qos, dict) and isinstance(cur_qos, dict):
        changed = [
            k
            for k in sorted(set(base_qos) | set(cur_qos))
            if base_qos.get(k) != cur_qos.get(k)
        ]
        print(f"\nqos: {len(changed)} of "
              f"{len(set(base_qos) | set(cur_qos))} event kinds changed")
        for k in changed[:20]:
            print(f"  {k}: {base_qos.get(k)} -> {cur_qos.get(k)}")

    # The profile block (schema >= 4, runs with FTMS_PROF=1) is diffed
    # informationally — wall times are machine-noisy — but scope *counts*
    # are deterministic per workload, so a count change means the work
    # itself changed shape, not just its speed.
    base_prof = flatten_profile(base_doc)
    cur_prof = flatten_profile(cur_doc)
    if base_prof and cur_prof:
        count_changed = [
            p
            for p in sorted(set(base_prof) | set(cur_prof))
            if base_prof.get(p, (0, 0))[0] != cur_prof.get(p, (0, 0))[0]
        ]
        print(f"\nprofile: {len(count_changed)} of "
              f"{len(set(base_prof) | set(cur_prof))} scopes changed call "
              f"count")
        for p in count_changed[:20]:
            print(f"  {p}: {base_prof.get(p, (0, 0))[0]} -> "
                  f"{cur_prof.get(p, (0, 0))[0]} calls")

    if regressions:
        print(
            f"\n{len(regressions)} regression(s) beyond "
            f"{args.threshold:.0f}%: {', '.join(regressions)}"
        )
        attribute_regressions(base_doc, cur_doc)
        return 1
    print(f"\nno regressions beyond {args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
