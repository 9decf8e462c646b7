#!/usr/bin/env python3
"""Checks a BENCH_chain.json perf record against the gate table.

Usage: scripts/check_gates.py [BENCH_chain.json] [bench/gates.txt]

Prints one line per gate (bench/gates.txt documents the columns) and
exits 1 when any gate fails or its value is missing.
"""
import json
import operator
import os
import sys

COMPARE = {">=": operator.ge, "<=": operator.le}


def lookup(record, key):
    value = record
    for part in key.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value if isinstance(value, (int, float)) else None


def check(record, key, op, default, override, condition):
    """Returns (ok, message) for one row of the table."""
    if op == "present":
        names = {k.get("name") for k in record.get("kernels", [])}
        missing = [n for n in key.split(",") if n not in names]
        if missing:
            return False, "missing series " + ", ".join(missing)
        return True, "series " + key.replace(",", ", ") + " present"
    keys = key.split("/")
    values = [lookup(record, k) for k in keys]
    if None in values:
        return False, "missing " + ", ".join(
            k for k, v in zip(keys, values) if v is None)
    if len(values) == 2 and values[1] <= 0:
        return False, "%s: denominator %g is not positive" % (key, values[1])
    value = values[0] / values[1] if len(values) == 2 else values[0]
    threshold = float(os.environ.get(override, default))
    passed = COMPARE[op](value, threshold)
    message = "%s = %g, gate %s %g (%s)" % (key, value, op, threshold, override)
    if condition.startswith("cpus>="):
        cpus = len(os.sched_getaffinity(0))
        if cpus < int(condition[len("cpus>="):]):
            return True, message + " informational on %d CPUs" % cpus
    return passed, message


def main():
    bench = sys.argv[1] if len(sys.argv) > 1 else "BENCH_chain.json"
    table = sys.argv[2] if len(sys.argv) > 2 else "bench/gates.txt"
    with open(bench) as f:
        record = json.load(f)
    failures = 0
    with open(table) as f:
        for line in f:
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            key, op, default, override, condition, *about = line.split()
            ok, message = check(record, key, op, default, override, condition)
            print("gates: %s %s — %s" % ("ok  " if ok else "FAIL", message,
                                         " ".join(about)))
            failures += not ok
    if failures:
        print("gates: %d gate(s) failed" % failures, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
