#!/usr/bin/env python3
"""Validate `stms-metrics/v1` snapshots (the files `--metrics-out` writes
and the documents `stms-serve-client --metrics` prints).

Two modes:

  check_metrics.py SNAPSHOT [--require-counter NAME]...
                            [--require-histogram NAME]...
                            [--require-gauge NAME]...
      Structural validation of one snapshot: schema tag, section layout,
      histogram internal consistency (bucket tallies sum to `count`,
      `max` <= `sum`, zero-count histograms are all-zero), plus any
      required counters (value > 0), histograms (count > 0) and gauges
      (present; a gauge may legitimately read zero — e.g. a perfect
      calibration error — so only presence is gated) named on the command
      line — the "nonzero phase timers" gate in CI. Cross-metric
      invariants are checked too: the hierarchy-log counters
      (`hierarchy_log.recorded`, `hierarchy_log.bytes`) appear together,
      every recorded log is at least one byte, and the
      `cache.hierarchy_log.record_ns` histogram timed exactly the logs
      recorded.

  check_metrics.py --monotone SNAPSHOT SNAPSHOT...
      Asserts a sequence of snapshots taken from ONE process (e.g.
      `--metrics` probes of a live daemon) is monotone: no counter,
      histogram count, or histogram sum ever decreases, and no metric
      vanishes. The registry is cumulative-since-start, so any decrease
      is a bug.

Exits nonzero with a message naming the first violated invariant.
"""

import argparse
import json
import sys

SCHEMA = "stms-metrics/v1"


def fail(message):
    print(f"check_metrics: {message}", file=sys.stderr)
    sys.exit(1)


def load(path):
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            fail(f"{path}: missing {section!r} object")
    for section in ("counters", "gauges"):
        for name, value in doc[section].items():
            if not isinstance(value, int) or value < 0:
                fail(f"{path}: {section}/{name} is not an unsigned integer")
    for name, hist in doc["histograms"].items():
        for field in ("count", "sum", "max"):
            if not isinstance(hist.get(field), int) or hist[field] < 0:
                fail(f"{path}: histograms/{name}/{field} is not an unsigned integer")
        tally = 0
        for bucket in hist.get("buckets", []):
            if (
                not isinstance(bucket, list)
                or len(bucket) != 2
                or not all(isinstance(v, int) and v >= 0 for v in bucket)
            ):
                fail(f"{path}: histograms/{name} has a malformed bucket: {bucket!r}")
            tally += bucket[1]
        if tally != hist["count"]:
            fail(
                f"{path}: histograms/{name} buckets tally {tally}, "
                f"count says {hist['count']}"
            )
        if hist["count"] == 0 and (hist["sum"] or hist["max"]):
            fail(f"{path}: histograms/{name} is empty but has sum/max")
        if hist["count"] > 0 and hist["max"] > hist["sum"]:
            fail(f"{path}: histograms/{name} max {hist['max']} exceeds sum {hist['sum']}")
    check_invariants(path, doc)
    return doc


def check_invariants(path, doc):
    counters = doc["counters"]
    recorded = counters.get("hierarchy_log.recorded")
    size = counters.get("hierarchy_log.bytes")
    if (recorded is None) != (size is None):
        fail(f"{path}: hierarchy_log.recorded and hierarchy_log.bytes must appear together")
    if recorded is not None and size < recorded:
        fail(f"{path}: {recorded} hierarchy logs cannot take only {size} bytes")
    timed = doc["histograms"].get("cache.hierarchy_log.record_ns")
    if timed is not None and timed["count"] != (recorded or 0):
        fail(
            f"{path}: cache.hierarchy_log.record_ns timed {timed['count']} logs, "
            f"hierarchy_log.recorded says {recorded or 0}"
        )


def check_required(path, doc, counters, histograms, gauges):
    for name in counters:
        if doc["counters"].get(name, 0) <= 0:
            fail(f"{path}: required counter {name!r} is missing or zero")
    for name in histograms:
        hist = doc["histograms"].get(name)
        if hist is None or hist["count"] <= 0:
            fail(f"{path}: required histogram {name!r} is missing or empty")
    for name in gauges:
        if name not in doc["gauges"]:
            fail(f"{path}: required gauge {name!r} is missing")


def check_monotone(paths, docs):
    for (before_path, before), (after_path, after) in zip(
        zip(paths, docs), zip(paths[1:], docs[1:])
    ):
        where = f"{before_path} -> {after_path}"
        for name, value in before["counters"].items():
            later = after["counters"].get(name)
            if later is None:
                fail(f"{where}: counter {name!r} vanished")
            if later < value:
                fail(f"{where}: counter {name!r} decreased {value} -> {later}")
        for name, hist in before["histograms"].items():
            later = after["histograms"].get(name)
            if later is None:
                fail(f"{where}: histogram {name!r} vanished")
            for field in ("count", "sum"):
                if later[field] < hist[field]:
                    fail(
                        f"{where}: histogram {name!r} {field} decreased "
                        f"{hist[field]} -> {later[field]}"
                    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("snapshots", nargs="+", help="snapshot JSON files, in order")
    parser.add_argument(
        "--require-counter",
        action="append",
        default=[],
        metavar="NAME",
        help="counter that must be present with a nonzero value",
    )
    parser.add_argument(
        "--require-histogram",
        action="append",
        default=[],
        metavar="NAME",
        help="histogram that must be present with a nonzero count",
    )
    parser.add_argument(
        "--require-gauge",
        action="append",
        default=[],
        metavar="NAME",
        help="gauge that must be present (any value, including zero)",
    )
    parser.add_argument(
        "--monotone",
        action="store_true",
        help="assert counters and histograms never decrease across the sequence",
    )
    args = parser.parse_args()

    docs = [load(path) for path in args.snapshots]
    for path, doc in zip(args.snapshots, docs):
        check_required(
            path, doc, args.require_counter, args.require_histogram, args.require_gauge
        )
    if args.monotone:
        if len(docs) < 2:
            fail("--monotone needs at least two snapshots")
        check_monotone(args.snapshots, docs)
    print(f"check_metrics: {len(docs)} snapshot(s) ok")


if __name__ == "__main__":
    main()
