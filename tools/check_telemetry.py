#!/usr/bin/env python3
"""CI gate for xh-telemetry/1 documents (stdlib only; see README "Telemetry").

    check_telemetry.py ACTUAL [BASELINE]

Validates that ACTUAL is a well-formed xh-telemetry/1 document. With a
BASELINE, additionally diffs the deterministic sections — "counters" and
"histograms", which are pure functions of the workload — and fails on any
divergence. "gauges" and "timers" carry wall-clock measurements and are
never diffed; "run" metadata (seed, thread count) is informational.

Exit codes: 0 ok, 1 schema or baseline violation, 2 usage error.
"""
import json
import sys

SCHEMA = "xh-telemetry/1"
REQUIRED = ("schema", "tool", "run", "counters", "gauges", "histograms")


def fail(msg):
    print(f"check_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def validate(doc, path):
    for key in REQUIRED:
        if key not in doc:
            fail(f"{path}: missing required section '{key}'")
    if doc["schema"] != SCHEMA:
        fail(f"{path}: schema is {doc['schema']!r}, expected {SCHEMA!r}")
    if not isinstance(doc["tool"], str) or not doc["tool"]:
        fail(f"{path}: 'tool' must be a non-empty string")
    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter {name} must be a non-negative integer")
    for name, value in doc["gauges"].items():
        if not isinstance(value, (int, float)):
            fail(f"{path}: gauge {name} must be a number")
    for name, hist in doc["histograms"].items():
        for field in ("count", "sum", "min", "max", "buckets"):
            if field not in hist:
                fail(f"{path}: histogram {name} missing '{field}'")
        if sum(c for _, c in hist["buckets"]) != hist["count"]:
            fail(f"{path}: histogram {name} bucket counts do not sum "
                 f"to count={hist['count']}")


def diff_section(section, actual, baseline):
    problems = []
    for name in sorted(set(actual) | set(baseline)):
        if name not in actual:
            problems.append(f"  {section}.{name}: missing (baseline has "
                            f"{baseline[name]})")
        elif name not in baseline:
            problems.append(f"  {section}.{name}: new (not in baseline); "
                            f"regenerate the baseline if intentional")
        elif actual[name] != baseline[name]:
            problems.append(f"  {section}.{name}: {baseline[name]} -> "
                            f"{actual[name]}")
    return problems


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    actual = load(argv[1])
    validate(actual, argv[1])
    if len(argv) == 3:
        baseline = load(argv[2])
        validate(baseline, argv[2])
        if actual["tool"] != baseline["tool"]:
            fail(f"tool mismatch: {actual['tool']!r} vs {baseline['tool']!r}")
        problems = diff_section("counters", actual["counters"],
                                baseline["counters"])
        problems += diff_section("histograms", actual["histograms"],
                                 baseline["histograms"])
        if problems:
            fail("deterministic sections diverged from baseline:\n" +
                 "\n".join(problems))
    print(f"check_telemetry: OK: {argv[1]} ({actual['tool']}, "
          f"{len(actual['counters'])} counters)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
