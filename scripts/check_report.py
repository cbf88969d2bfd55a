#!/usr/bin/env python3
"""Validate and diff the explore run report and Chrome trace.

Two subcommands, used by CI and available locally:

  check_report.py validate REPORT [--trace TRACE]
      Schema-checks the --report-out JSON (version, required keys, point
      shapes, a feasible attributed shared organization) and, when given,
      the --trace-out Chrome trace (well-formed events, non-negative 'X'
      durations, balanced B/E pairs per lane).

  check_report.py diff A B
      Asserts two reports are identical modulo the wall-clock allowlist —
      the determinism contract: counters, points, convergence series and
      cache stats must match bit for bit across reruns and parallelism
      settings; only timestamp/duration values may differ.

Exits non-zero with a message on the first violation.
"""

import argparse
import json
import sys

# The only keys whose *values* are allowed to differ between two runs of the
# same configuration.  Everything else in the report is deterministic.
ALLOWLIST_KEYS = {"duration_us", "total_us", "ts", "dur"}

REPORT_VERSION = 1
REPORT_KEYS = {
    "dtse_report_version",
    "workloads",
    "points",
    "pareto_front",
    "solver",
    "cache",
    "metrics",
}
POINT_KEYS = {
    "section",
    "label",
    "feasible",
    "timed_out",
    "error",
    "onchip_area_mm2",
    "onchip_power_mw",
    "offchip_power_mw",
    "spare_cycles",
}
CACHE_KEYS = {"hits", "misses", "stores", "quarantined", "evicted", "store_failures"}
METRIC_KEYS = {"counters", "gauges", "histograms", "timings"}


def fail(message):
    print(f"check_report: {message}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{path}: {error}")


def validate_report(path):
    report = load(path)
    if not isinstance(report, dict):
        fail(f"{path}: top level must be an object")
    missing = REPORT_KEYS - report.keys()
    if missing:
        fail(f"{path}: missing top-level keys {sorted(missing)}")
    if report["dtse_report_version"] != REPORT_VERSION:
        fail(f"{path}: unsupported report version {report['dtse_report_version']}")
    for workload in report["workloads"]:
        if {"name", "golden_passed", "detail"} - workload.keys():
            fail(f"{path}: malformed workload entry {workload}")
    for point in report["points"]:
        missing = POINT_KEYS - point.keys()
        if missing:
            fail(f"{path}: point '{point.get('label')}' missing {sorted(missing)}")
        # Attribution explains who pays for the chosen shared organization;
        # an organization that cannot run must never be chosen.
        if (point["section"], point["label"]) == ("shared", "final") \
                and not point["feasible"]:
            fail(f"{path}: the attributed shared organization is infeasible")
    if CACHE_KEYS - report["cache"].keys():
        fail(f"{path}: cache section missing keys")
    if METRIC_KEYS - report["metrics"].keys():
        fail(f"{path}: metrics section missing keys")
    for entry in report["solver"]:
        for chain in entry.get("chains", []):
            samples = chain.get("convergence", [])
            iterations = [sample["iteration"] for sample in samples]
            if iterations != sorted(iterations):
                fail(f"{path}: solver '{entry['label']}' has a non-monotonic series")
    print(f"{path}: ok ({len(report['points'])} points, "
          f"{len(report['solver'])} convergence entries)")


def validate_trace(path):
    trace = load(path)
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: missing traceEvents array")
    open_begins = {}  # (pid, tid) -> depth
    for event in events:
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                fail(f"{path}: event missing '{key}': {event}")
        lane = (event["pid"], event["tid"])
        phase = event["ph"]
        if phase == "X":
            if event.get("dur", -1) < 0 or event.get("ts", -1) < 0:
                fail(f"{path}: 'X' event with bad ts/dur: {event}")
        elif phase == "B":
            open_begins[lane] = open_begins.get(lane, 0) + 1
        elif phase == "E":
            if open_begins.get(lane, 0) == 0:
                fail(f"{path}: 'E' without matching 'B' on lane {lane}")
            open_begins[lane] -= 1
    unbalanced = {lane: depth for lane, depth in open_begins.items() if depth}
    if unbalanced:
        fail(f"{path}: unbalanced 'B' events: {unbalanced}")
    print(f"{path}: ok ({len(events)} events)")


def normalize(node):
    """Zeroes every allowlisted wall-clock value, recursively."""
    if isinstance(node, dict):
        return {
            key: 0 if key in ALLOWLIST_KEYS else normalize(value)
            for key, value in node.items()
        }
    if isinstance(node, list):
        return [normalize(item) for item in node]
    return node


def diff_reports(path_a, path_b):
    a = normalize(load(path_a))
    b = normalize(load(path_b))
    if a == b:
        print(f"{path_a} == {path_b} (modulo {sorted(ALLOWLIST_KEYS)})")
        return
    # Point at the first diverging top-level section to keep failures usable.
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            fail(f"reports differ outside the wall-clock allowlist: section '{key}'")
    fail("reports differ outside the wall-clock allowlist")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    validate = commands.add_parser("validate", help="schema-check a report")
    validate.add_argument("report")
    validate.add_argument("--trace", help="also check a Chrome trace file")
    diff = commands.add_parser("diff", help="compare two reports modulo wall-clock")
    diff.add_argument("a")
    diff.add_argument("b")
    args = parser.parse_args()

    if args.command == "validate":
        validate_report(args.report)
        if args.trace:
            validate_trace(args.trace)
    else:
        diff_reports(args.a, args.b)


if __name__ == "__main__":
    main()
